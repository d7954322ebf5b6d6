#ifndef ROTOM_PERFBENCH_PERFBENCH_H_
#define ROTOM_PERFBENCH_PERFBENCH_H_

// Shared plumbing of the benchmark binary: command-line arguments, the
// metric catalog, the result report, and small measurement helpers.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "open_loop.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  /// Scratch directory for files a workload writes (CSV corpus, snapshots,
  /// run logs); run.py creates it and removes it afterwards.
  std::string work_dir;
};

/// Set-up is repeated this many times in an untraced run and its median
/// reported as setup_s, so one slow set-up (page cache, a noisy neighbour)
/// does not read as a regression.
inline constexpr int kSetupRepeats = 3;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced run). Every workload reports each one; the
/// per-workload meaning is in README.md.
const std::vector<MetricSpec>& EndToEndCatalog();
/// Per-layer metrics (traced run). A workload reports 0 for a layer it
/// never exercises (README.md lists which layer belongs to which workload).
const std::vector<MetricSpec>& PerLayerCatalog();

/// Result of one run: counts of operations attempted and failed, whether
/// every output checked out, and the metrics by name.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Sets a metric of the active catalog; aborts on a name outside it (a
  /// benchmark bug, not a result). A non-finite value marks the run
  /// incorrect and is reported as 0.
  void Set(const std::string& name, double value);

  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(int64_t n = 1) { failed_ += n; }
  /// Marks the run's outputs as wrong (a check the program failed).
  void MarkIncorrect(const std::string& why);

  /// Prints every metric as a table, then the one-line JSON result.
  void Print() const;

 private:
  const std::vector<MetricSpec>& Catalog() const {
    return trace_ ? PerLayerCatalog() : EndToEndCatalog();
  }

  bool trace_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
  std::map<std::string, double> values_;
};

using WorkloadFn = void (*)(const Args&, Report*);
void RunTrainEmRotom(const Args& args, Report* report);
void RunTrainTextClsStream(const Args& args, Report* report);
void RunServeTenantsOpen(const Args& args, Report* report);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Resets the peak resident set size to the current one, so that the next
/// PeakRssMb() covers only what runs in between.
void ResetPeakRss();

/// Returns freed heap pages to the system, so that a discarded set-up
/// repeat does not stay resident and inflate the peak of the next one.
void ReleaseFreedMemory();

/// Wall time of fn() in seconds.
double TimeSeconds(const std::function<void()>& fn);

/// Calls fn() until at least `min_seconds` and `min_calls` are reached and
/// returns the median per-call time in microseconds over batches of calls.
double MedianCallUs(const std::function<void()>& fn, double min_seconds = 0.2,
                    int min_calls = 5);

/// Difference of the obs registry between construction and the query:
/// counters and histogram counts/sums accumulated in between.
class ObsDelta {
 public:
  ObsDelta();
  uint64_t Count(const std::string& name) const;  // counter or hist count
  uint64_t Sum(const std::string& name) const;    // histogram sum
  /// a / (a + b) of two counter deltas; 0 when both are zero.
  double Share(const std::string& a, const std::string& b) const;

 private:
  std::map<std::string, rotom::obs::MetricSnapshot> before_;
};

/// Per-layer shares from the library's counters over a traced phase: buffer
/// pool reuse, inline pool loops, encoding-cache hits, and (when anything
/// was prefetched) how often the consumer waited on the prefetch ring.
void ReportObsShares(const ObsDelta& delta, Report* report);

/// Per-layer kernel probes common to every workload: f32 GEMM at the
/// EM-training and serving shapes (pool and single thread), int8 GEMM at
/// the serving shape, and an empty pool dispatch.
void ProbeKernels(Report* report);

}  // namespace perfbench

#endif  // ROTOM_PERFBENCH_PERFBENCH_H_
