#ifndef ROTOM_OBS_RUNLOG_H_
#define ROTOM_OBS_RUNLOG_H_

// Per-run flight recorder for the trainers: a crash-safe append-only JSONL
// file per training run carrying one manifest record (config, seed, thread
// count, git sha, dataset id) followed by per-step telemetry — loss,
// pre-clip gradient L2 norm, learning rate, filter keep-rate, per-DA-
// operator selection counts, and meta-weight statistics. The metrics
// registry (obs/metrics.h) answers "how fast is the substrate"; the run log
// answers "what is the meta-learned policy doing" (which operators survive
// filtering, how WeightingModel distributes mass, whether gradients are
// healthy). OBSERVABILITY.md ("Run logs") is the schema contract — every
// event and field name emitted here must be cataloged there
// (scripts/check_obs_docs.sh enforces it); `tools/rotom_inspect` and
// `scripts/check_bench_regress.sh` are the downstream consumers.
//
// Crash safety. Every event is rendered to one line and handed to the
// kernel with a single write(2) on an O_APPEND descriptor, so a completed
// LogStep survives any later crash of the process (no user-space buffering;
// at worst the final line is truncated mid-write, which consumers must
// skip). Opening a run log additionally installs the obs crash handlers
// (see InstallCrashHandlers) so a SIGSEGV/SIGABRT appends a terminal
// `signal` event and flushes the ROTOM_TRACE ring buffers before the
// process dies.
//
// Determinism. Step and epoch events are pure functions of the training
// trajectory: no wall-clock, no thread ids, map-ordered operator counts.
// Under the core/pipeline.h contract the step/epoch event stream is
// therefore bit-identical across thread counts and cache
// configurations (enforced by pipeline_determinism_test). Wall-clock and
// environment-dependent values are confined to the `manifest` and `end`
// events.
//
// NaN/Inf sentinel. LogStep aborts the process — after appending a `fatal`
// event with the full step context — when the loss or gradient norm is not
// finite. A poisoned optimizer state silently corrupts everything after it;
// failing at the first non-finite value with the step, epoch, and values in
// hand is strictly more debuggable.
//
// Thread-safety: a RunLog instance is owned by one trainer loop and is not
// internally synchronized (trainer steps are sequential); Open() and the
// crash-handler registry are safe to use from any thread.
//
// Cost: one string render plus one write(2) per optimizer step — measured
// at well under 2% of steps/sec at bench scale (see OBSERVABILITY.md).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rotom {
namespace obs {

/// Run-log schema identifier written into every manifest.
inline constexpr const char kRunLogSchema[] = "rotom-runlog-v1";

/// Where (and whether) to write a run log. `dir` empty falls back to the
/// ROTOM_RUNLOG_DIR environment variable; when both are empty the run log
/// is disabled and Open() returns nullptr. `tag` names the producing
/// trainer ("rotom", "finetune", "mlm", ...) and becomes part of the file
/// name `<tag>-p<pid>-<n>.jsonl`.
struct RunLogOptions {
  std::string dir;
  std::string tag = "run";
};

/// Ordered key/value set for the manifest record. Values render as JSON
/// strings or numbers in insertion order, after the auto-emitted fields
/// (schema, git sha, ROTOM_NUM_THREADS, SIMD flavor, ROTOM_SIMD setting).
class RunLogManifest {
 public:
  RunLogManifest& Set(std::string_view key, std::string_view value);
  RunLogManifest& Set(std::string_view key, int64_t value);
  RunLogManifest& Set(std::string_view key, double value);
  RunLogManifest& Set(std::string_view key, bool value);
  // String literals must land on the string overload: without this, the
  // const char* -> bool standard conversion outranks the user-defined
  // conversion to string_view and Set("trainer", "rotom") would render true.
  RunLogManifest& Set(std::string_view key, const char* value) {
    return Set(key, std::string_view(value));
  }

 private:
  friend class RunLog;
  std::vector<std::pair<std::string, std::string>> fields_;  // key, rendered
};

/// One optimizer step's telemetry. Negative `grad_norm`/`keep_rate` and an
/// empty `op_counts`/unset `has_weights` mean "not applicable for this
/// trainer" and the corresponding fields are omitted from the event.
struct RunLogStep {
  int64_t step = 0;
  int64_t epoch = 0;
  double loss = 0.0;
  double lr = 0.0;
  double grad_norm = -1.0;  // pre-clip global L2 norm (nn::ClipGradNorm)
  double keep_rate = -1.0;  // kept / offered candidates in this batch
  // Meta-weight distribution after ops::NormalizeMeanOne (RotomTrainer).
  bool has_weights = false;
  double weight_min = 0.0;
  double weight_mean = 0.0;
  double weight_max = 0.0;
  // Kept-candidate counts per augmentation operator tag, rendered as
  // `op.<name>` fields in deterministic (map) order.
  std::map<std::string, int64_t> op_counts;
  // Offered (pre-filter) candidate counts per operator tag, rendered as
  // `gen.<name>` fields. Together with op_counts this gives the
  // per-operator keep rate op.<name>/gen.<name> (rotom_inspect summary).
  std::map<std::string, int64_t> op_offered;
};

/// The flight recorder itself. Create via Open(); the destructor appends
/// the `end` event and closes the file.
class RunLog {
 public:
  /// Opens `<dir>/<tag>-p<pid>-<n>.jsonl` and returns the recorder, or
  /// nullptr when run logging is disabled (no directory configured) or the
  /// file cannot be created (a warning is logged; training proceeds).
  /// Installs the obs crash handlers on first successful open.
  static std::unique_ptr<RunLog> Open(const RunLogOptions& options);

  ~RunLog();

  RunLog(const RunLog&) = delete;
  RunLog& operator=(const RunLog&) = delete;

  /// Appends the manifest record. Call once, before any step.
  void WriteManifest(const RunLogManifest& manifest);

  /// Appends one `step` event. Aborts (after appending a `fatal` event)
  /// when `loss` or a supplied `grad_norm` is NaN/Inf.
  void LogStep(const RunLogStep& step);

  /// Appends an `epoch` event: end-of-epoch validation metric and the
  /// epoch's aggregate filter keep fraction (pass a negative fraction to
  /// omit it).
  void LogEpoch(int64_t epoch, double valid_metric, double keep_fraction);

  /// Appends a `stream_state` event: the serialized stream cursors of the
  /// last consumed batch at a streaming validation round (step-budgeted
  /// mode, DESIGN.md §14). The recorded state is the same value written to
  /// the TrainCheckpoint, so the run log alone pins where a killed run will
  /// resume.
  void LogStreamState(int64_t step, int64_t round, std::string_view state);

  /// Path of the JSONL file (absolute iff `dir` was).
  const std::string& path() const { return path_; }

  /// Steps logged so far.
  int64_t steps() const { return steps_; }

 private:
  RunLog(std::string path, int fd);

  void Append(const std::string& line);

  std::string path_;
  int fd_ = -1;
  int64_t steps_ = 0;
  double start_seconds_ = 0.0;  // steady-clock anchor for the end event
};

namespace internal {

/// Full write with EINTR/short-write handling; async-signal-safe. Shared by
/// the run log, the serve log (obs/servelog.h), and the SIGUSR1 snapshot
/// dump (obs/exposition.h). Errors are swallowed — telemetry must never
/// abort the workload it observes.
void WriteAll(int fd, const char* data, size_t size);

/// Adds/removes an open O_APPEND descriptor in the crash-handler table so a
/// fatal signal appends a terminal `signal` event to it (see
/// InstallCrashHandlers). Lock-free; bounded table — registration beyond
/// capacity is silently dropped (the log itself still works).
void RegisterCrashFd(int fd);
void UnregisterCrashFd(int fd);

/// JSON string quoting (with escapes) and %.17g double rendering shared by
/// the JSON writers (runlog, servelog, the bench JsonWriter).
std::string JsonQuoted(std::string_view s);
std::string RenderDouble(double value);

}  // namespace internal

/// Installs best-effort crash handlers for SIGSEGV / SIGABRT / SIGBUS /
/// SIGFPE / SIGILL that (1) append a `{"event":"signal",...}` line to every
/// open run log via async-signal-safe write(2), (2) dump the ROTOM_TRACE
/// ring buffers to the configured trace path (best effort: the dump
/// allocates, which is formally signal-unsafe, but losing the whole trace
/// on every crash is worse — see trace.h), then re-raise with the default
/// disposition so the exit status is unchanged. Idempotent; installed
/// automatically by RunLog::Open() and when ROTOM_TRACE is active.
void InstallCrashHandlers();

}  // namespace obs
}  // namespace rotom

#endif  // ROTOM_OBS_RUNLOG_H_
