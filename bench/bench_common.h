#ifndef ROTOM_BENCH_BENCH_COMMON_H_
#define ROTOM_BENCH_BENCH_COMMON_H_

// Shared configuration and table-printing helpers for the paper-table
// benches. Each bench binary regenerates one table or figure of the Rotom
// paper (SIGMOD 2021); see DESIGN.md's per-experiment index.
//
// Environment knobs:
//   ROTOM_SEEDS=N   repeats per cell, averaged (default 1; paper uses 5)
//   ROTOM_SMOKE=1   tiny budgets for a fast smoke run

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/runlog.h"

namespace rotom {
namespace bench {

inline int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atoll(value);
}

inline bool Smoke() { return EnvInt("ROTOM_SMOKE", 0) != 0; }
inline int64_t Seeds() { return std::max<int64_t>(1, EnvInt("ROTOM_SEEDS", 1)); }

/// Classifier/seq2seq scale shared by every experiment (DESIGN.md
/// Substitutions: 2-layer, 32-dim stand-in for the 12-layer LMs).
inline eval::ExperimentOptions BaseExperimentOptions(int64_t max_len,
                                                     int64_t seq_len) {
  eval::ExperimentOptions o;
  o.classifier.max_len = max_len;
  o.classifier.dim = 32;
  o.classifier.num_heads = 2;
  o.classifier.num_layers = 2;
  o.classifier.ffn_dim = 64;
  o.classifier.dropout = 0.1f;
  o.seq2seq.max_src_len = seq_len;
  o.seq2seq.max_tgt_len = seq_len;
  o.seq2seq.dim = 32;
  o.seq2seq.num_heads = 2;
  o.seq2seq.num_layers = 2;
  o.seq2seq.ffn_dim = 64;
  o.pretrain.epochs = 2;
  o.pretrain.max_corpus = 384;
  o.invda.max_corpus = 512;
  o.invda.augments_per_example = 3;
  o.invda.sampling.max_len = seq_len - 2;
  o.batch_size = 16;
  // Bench cost knobs: meta update every 2nd batch, half-size SSL batches
  // (the exact paper loop uses 1 / 1.0; set here to fit the CPU budget).
  o.meta_update_every = 2;
  o.ssl_batch_ratio = 0.5;
  return o;
}

inline eval::ExperimentOptions TextClsExperimentOptions() {
  auto o = BaseExperimentOptions(/*max_len=*/24, /*seq_len=*/24);
  o.invda.epochs = Smoke() ? 1 : 10;
  o.invda.sampling.top_k = 10;
  o.epochs = Smoke() ? 1 : 7;
  return o;
}

inline eval::ExperimentOptions EmExperimentOptions() {
  auto o = BaseExperimentOptions(/*max_len=*/56, /*seq_len=*/32);
  o.same_origin.steps = Smoke() ? 20 : 400;
  o.invda.epochs = Smoke() ? 1 : 12;
  // Records need conservative sampling and light corruption: model codes
  // are near-unpredictable tokens, and aggressive rewrites flip pair labels
  // faster than the filter can learn to drop them.
  o.invda.sampling.top_k = 3;
  o.invda.corruption_ops = 1;
  o.epochs = Smoke() ? 1 : 5;
  return o;
}

inline eval::ExperimentOptions EdtExperimentOptions() {
  auto o = BaseExperimentOptions(/*max_len=*/16, /*seq_len=*/16);
  o.invda.epochs = Smoke() ? 1 : 10;
  o.invda.sampling.top_k = 10;
  o.epochs = Smoke() ? 1 : 6;
  return o;
}

/// Mean test metric and train throughput over ROTOM_SEEDS runs.
struct CellStats {
  double metric = 0.0;
  double train_seconds = 0.0;
  double train_steps = 0.0;
  double steps_per_sec = 0.0;  // aggregate: total steps / total seconds
};

inline CellStats RunMean(eval::TaskContext& context, eval::Method method) {
  CellStats stats;
  const int64_t seeds = Seeds();
  for (int64_t s = 1; s <= seeds; ++s) {
    const auto result = context.Run(method, static_cast<uint64_t>(s));
    stats.metric += result.test_metric;
    stats.train_seconds += result.train_seconds;
    stats.train_steps += static_cast<double>(result.train_steps);
  }
  stats.steps_per_sec =
      stats.train_seconds > 0.0 ? stats.train_steps / stats.train_seconds : 0.0;
  stats.metric /= static_cast<double>(seeds);
  stats.train_seconds /= static_cast<double>(seeds);
  stats.train_steps /= static_cast<double>(seeds);
  return stats;
}

// ---- Serving totals ----

/// The per-tenant serving instruments (`serve.tenant.<tenant>.*`, written
/// by serve::TenantServer) summed over every tenant in a metrics snapshot:
/// the one request base that every serving ratio divides over.
struct ServeTenantTotals {
  double requests = 0.0;        // accepted submissions
  double rejected = 0.0;        // shed at admission
  uint64_t latency_count = 0;   // completed requests
  double latency_sum_us = 0.0;  // their end-to-end latency
};

inline ServeTenantTotals SumServeTenants(const obs::SnapshotData& snapshot) {
  const std::string prefix = "serve.tenant.";
  auto is = [&](const std::string& name, const std::string& suffix) {
    return name.size() > prefix.size() + suffix.size() &&
           name.compare(0, prefix.size(), prefix) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  ServeTenantTotals totals;
  for (const obs::MetricSnapshot& m : snapshot.metrics) {
    if (is(m.name, ".requests")) {
      totals.requests += static_cast<double>(m.count);
    } else if (is(m.name, ".rejected")) {
      totals.rejected += static_cast<double>(m.count);
    } else if (is(m.name, ".latency_us")) {
      totals.latency_count += m.count;
      totals.latency_sum_us += static_cast<double>(m.sum);
    }
  }
  return totals;
}

// ---- Machine-readable output (BENCH_*.json) ----

/// Append-only writer for the bench result files. Since schema v2 the file
/// is an object, not a bare array:
///   {"schema": "rotom-bench-v2",
///    "records": [{...}, ...],
///    "metrics": {...}}
/// `records` holds one flat object per measured cell; field order within a
/// record follows the Field() call order and values may be strings, numbers,
/// or booleans. The record schema shared by the bench binaries is
///   {"op": ..., "threads": N, "pipeline": bool,
///    "wall_seconds": S, "steps_per_sec": R}
/// `metrics` is the obs registry snapshot taken by CaptureMetrics() (see
/// OBSERVABILITY.md for the per-metric catalog); it is `null` when the
/// binary never called CaptureMetrics() or metrics are disabled. Downstream
/// tooling can diff runs without parsing the console tables.
class JsonWriter {
 public:
  JsonWriter& Field(const std::string& key, const std::string& value) {
    return Raw(key, obs::internal::JsonQuoted(value));
  }
  JsonWriter& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  JsonWriter& Field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonWriter& Field(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonWriter& Field(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }

  /// Closes the record under construction; the next Field() starts a new one.
  void EndRecord() {
    if (current_.empty()) return;
    records_.push_back("  {" + current_ + "}");
    current_.clear();
  }

  /// Records the current obs metrics snapshot as the file's `metrics`
  /// section (histograms render with interpolated p50/p95/p99, see
  /// obs::HistogramPercentile). Derived ratios that a raw counter dump
  /// cannot express (cache hit rate, buffer-pool reuse rate) are appended
  /// as extra keys. Call once after the measured work, right before
  /// WriteFile().
  void CaptureMetrics() {
    if (!obs::Enabled()) return;  // leave the section null, as documented
    const obs::SnapshotData snapshot = obs::Snapshot();
    std::vector<std::pair<std::string, double>> extras;
    auto value_of = [&](const std::string& name) -> double {
      for (const auto& m : snapshot.metrics) {
        if (m.name == name)
          return m.kind == obs::MetricKind::kGauge
                     ? static_cast<double>(m.gauge)
                     : static_cast<double>(m.count);
      }
      return 0.0;
    };
    auto sum_of = [&](const std::string& name) -> double {
      for (const auto& m : snapshot.metrics) {
        if (m.name == name) return static_cast<double>(m.sum);
      }
      return 0.0;
    };
    const double hits = value_of("encoding_cache.hits");
    const double misses = value_of("encoding_cache.misses");
    if (hits + misses > 0.0)
      extras.emplace_back("encoding_cache.hit_rate", hits / (hits + misses));
    const double reused = value_of("buffer_pool.reused");
    const double allocated = value_of("buffer_pool.allocated");
    if (reused + allocated > 0.0)
      extras.emplace_back("buffer_pool.reuse_rate",
                          reused / (reused + allocated));
    // Serving ratios over the per-tenant instruments summed across every
    // tenant: fraction of arrivals shed at admission, and the share of
    // end-to-end latency spent waiting in the queue (serve.queue_wait_us is
    // recorded once per completed request of any tenant, so its sum and the
    // summed tenant latency_us sums are microseconds over the same requests).
    const ServeTenantTotals tenants = SumServeTenants(snapshot);
    if (tenants.requests + tenants.rejected > 0.0)
      extras.emplace_back("serve.reject_rate",
                          tenants.rejected /
                              (tenants.requests + tenants.rejected));
    if (tenants.latency_sum_us > 0.0)
      extras.emplace_back("serve.queue_wait_share",
                          sum_of("serve.queue_wait_us") /
                              tenants.latency_sum_us);
    metrics_json_ = obs::SnapshotJson(snapshot, extras);
  }

  /// Writes the accumulated v2 document (closing any open record). Returns
  /// false on I/O failure.
  bool WriteFile(const std::string& path) {
    EndRecord();
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n\"schema\": \"rotom-bench-v2\",\n\"records\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      out << records_[i] << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "],\n\"metrics\": "
        << (metrics_json_.empty() ? "null" : metrics_json_) << "\n}\n";
    out.flush();
    return static_cast<bool>(out);
  }

  size_t size() const { return records_.size() + (current_.empty() ? 0 : 1); }

 private:
  JsonWriter& Raw(const std::string& key, const std::string& rendered) {
    if (!current_.empty()) current_ += ", ";
    current_ += obs::internal::JsonQuoted(key);
    current_ += ": ";
    current_ += rendered;
    return *this;
  }

  std::string current_;
  std::vector<std::string> records_;
  std::string metrics_json_;
};

/// Output path for a bench JSON file: `ROTOM_BENCH_DIR` when set (bench.sh
/// points it at the repo root), else the current directory.
inline std::string BenchJsonPath(const std::string& filename) {
  const char* dir = std::getenv("ROTOM_BENCH_DIR");
  if (dir == nullptr || dir[0] == '\0') return filename;
  std::string out(dir);
  if (out.back() != '/') out += '/';
  return out + filename;
}

// ---- Fixed-width table printing ----

inline void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::fflush(stdout);
}

inline void PrintHeader(const std::string& row_label,
                        const std::vector<std::string>& columns) {
  std::printf("%-22s", row_label.c_str());
  for (const auto& c : columns) std::printf(" %11s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

inline void PrintRow(const std::string& label,
                     const std::vector<double>& values) {
  std::printf("%-22s", label.c_str());
  for (double v : values) {
    if (v != v) {  // NaN marks an intentionally empty cell
      std::printf(" %11s", "-");
    } else {
      std::printf(" %11.2f", v);
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace rotom

#endif  // ROTOM_BENCH_BENCH_COMMON_H_
