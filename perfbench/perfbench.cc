// Benchmark entry point. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Prints the host/build record, every metric as a table, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end catalog measured with the
// library's instrumentation switched off; with --trace 1 they are the
// per-layer catalog. perfbench/run.py builds this binary and is the
// intended way to run it (see README.md).

#include "perfbench.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "stats.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec>& EndToEndCatalog() {
  static const std::vector<MetricSpec> catalog = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"latency_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return catalog;
}

const std::vector<MetricSpec>& PerLayerCatalog() {
  static const std::vector<MetricSpec> catalog = {
      {"tensor.gemm_train_gflops", "GFLOP/s"},
      {"tensor.gemm_train_gflops_1t", "GFLOP/s"},
      {"tensor.gemm_serve_gflops", "GFLOP/s"},
      {"tensor.qgemm_serve_gops", "GOP/s"},
      {"tensor.buffer_pool_reuse_rate", "ratio"},
      {"util.pool_dispatch_us", "us"},
      {"util.pool_inline_share", "ratio"},
      {"util.prefetch_blocked_share", "ratio"},
      {"text.encode_us_per_row", "us"},
      {"text.cache_hit_rate", "ratio"},
      {"augment.apply_us_per_call", "us"},
      {"stream.next_us_per_example", "us"},
      {"stream.stall_share", "ratio"},
      {"models.forward_ms", "ms"},
      {"models.backward_ms", "ms"},
      {"nn.optim_step_ms", "ms"},
      {"core.filter_ms", "ms"},
      {"core.weighting_ms", "ms"},
      {"core.keep_rate", "ratio"},
      {"core.share.augment", "ratio"},
      {"core.share.encode", "ratio"},
      {"core.share.meta_forward", "ratio"},
      {"core.share.forward", "ratio"},
      {"core.share.backward", "ratio"},
      {"core.share.weighting", "ratio"},
      {"invda.sample_us", "us"},
      {"eval.valid_sweep_ms", "ms"},
      {"eval.test_score_pct", "%"},
      {"setup.pretrain_s", "s"},
      {"setup.invda_s", "s"},
      {"serve.registry.publish_ms", "ms"},
      {"serve.registry.swap_us", "us"},
      {"serve.session.us_per_row_short_f32", "us"},
      {"serve.session.us_per_row_long_f32", "us"},
      {"serve.session.us_per_row_short_int8", "us"},
      {"serve.session.us_per_row_long_int8", "us"},
      {"serve.submit_us", "us"},
      {"serve.queue_wait_us_p99", "us"},
      {"serve.compute_us_p99", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.shed_share", "ratio"},
      {"serve.int8_agreement_pct", "%"},
      {"serve.p90_ms_light", "ms"},
      {"serve.p50_ms_light_last", "ms"},
      {"serve.p99_ms_heavy", "ms"},
      {"bench.gen_lag_p99_ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return catalog;
}

void Report::Set(const std::string& name, double value) {
  const auto& catalog = Catalog();
  const bool known =
      std::any_of(catalog.begin(), catalog.end(),
                  [&](const MetricSpec& m) { return name == m.name; });
  if (!known || !ValidMetricName(name)) {
    std::fprintf(stderr, "perfbench: metric '%s' is not in the %s catalog\n",
                 name.c_str(), trace_ ? "per-layer" : "end-to-end");
    std::abort();
  }
  if (!std::isfinite(value)) {
    MarkIncorrect("metric " + name + " is not finite");
    value = 0.0;
  }
  values_[name] = value;
}

void Report::MarkIncorrect(const std::string& why) {
  std::fprintf(stderr, "perfbench: incorrect output: %s\n", why.c_str());
  correct_ = false;
}

void Report::Print() const {
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  std::printf("%-40s %18s  %s\n", "metric", "value", "unit");
  bool first = true;
  for (const MetricSpec& m : Catalog()) {
    const auto it = values_.find(m.name);
    if (it == values_.end() && !trace_ && correct_) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s was not set\n",
                   m.name);
      std::abort();
    }
    const double value = it == values_.end() ? 0.0 : it->second;
    std::printf("%-40s %18.6f  %s%s\n", m.name, value, m.unit,
                it == values_.end() ? "  (layer idle in this workload)" : "");
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, value, m.unit);
    json += entry;
    first = false;
  }
  json += "}}";
  std::printf("operations: attempted %" PRId64 ", failed %" PRId64
              ", outputs %s\n",
              attempted_, failed_, correct_ ? "correct" : "INCORRECT");
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

void ReleaseFreedMemory() { malloc_trim(0); }

double TimeSeconds(const std::function<void()>& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return Seconds(Clock::now() - start);
}

double MedianCallUs(const std::function<void()>& fn, double min_seconds,
                    int min_calls) {
  fn();  // warm caches and lazily built state
  // Batch calls so each timed sample is well above clock resolution.
  int per_sample = 1;
  while (TimeSeconds([&] {
           for (int i = 0; i < per_sample; ++i) fn();
         }) < 2e-4 &&
         per_sample < (1 << 20))
    per_sample *= 2;
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < min_calls ||
         Seconds(Clock::now() - start) < min_seconds) {
    const double s = TimeSeconds([&] {
      for (int i = 0; i < per_sample; ++i) fn();
    });
    samples.push_back(s * 1e6 / per_sample);
  }
  return Median(samples);
}

ObsDelta::ObsDelta() {
  for (auto& m : rotom::obs::Snapshot().metrics) before_[m.name] = m;
}

uint64_t ObsDelta::Count(const std::string& name) const {
  for (const auto& m : rotom::obs::Snapshot().metrics) {
    if (m.name != name) continue;
    const auto it = before_.find(name);
    return m.count - (it == before_.end() ? 0 : it->second.count);
  }
  return 0;
}

uint64_t ObsDelta::Sum(const std::string& name) const {
  for (const auto& m : rotom::obs::Snapshot().metrics) {
    if (m.name != name) continue;
    const auto it = before_.find(name);
    return m.sum - (it == before_.end() ? 0 : it->second.sum);
  }
  return 0;
}

double ObsDelta::Share(const std::string& a, const std::string& b) const {
  const double x = static_cast<double>(Count(a));
  const double y = static_cast<double>(Count(b));
  return x + y > 0.0 ? x / (x + y) : 0.0;
}

void ReportObsShares(const ObsDelta& delta, Report* report) {
  report->Set("tensor.buffer_pool_reuse_rate",
              delta.Share("buffer_pool.reused", "buffer_pool.allocated"));
  report->Set("util.pool_inline_share",
              delta.Share("thread_pool.inline_for",
                          "thread_pool.parallel_for"));
  report->Set("text.cache_hit_rate",
              delta.Share("encoding_cache.hits", "encoding_cache.misses"));
  const uint64_t produced = delta.Count("prefetcher.produced") +
                            delta.Count("prefetcher.produced_inline");
  if (produced > 0) {
    const uint64_t blocked = delta.Count("prefetcher.consumer_blocked");
    report->Set("util.prefetch_blocked_share",
                static_cast<double>(blocked) / static_cast<double>(produced));
  }
}

namespace {

int HostCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in --key value pairs");
  if (args.work_dir.empty()) return Usage("--work-dir is required");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  const std::map<std::string, WorkloadFn> workloads = {
      {"train_em_rotom", RunTrainEmRotom},
      {"train_textcls_stream", RunTrainTextClsStream},
      {"serve_tenants_open", RunServeTenantsOpen},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage("unknown workload");

  // One process per workload, compute pool at the host's core count, and
  // the library's instrumentation on only for the traced run.
  const int cores = HostCores();
  rotom::SetComputeThreads(cores);
  rotom::obs::SetEnabled(args.trace);
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::printf(
      "{\"host\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"pool_threads\": %d, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, cores, rotom::ComputeThreads(),
      rotom::kernels::SimdFlavorName(), PERFBENCH_BUILD_TYPE,
      sha != nullptr ? sha : "unknown");

  Report report(args.trace);
  it->second(args, &report);
  report.Print();
  return 0;
}
