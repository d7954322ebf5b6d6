#include "obs/runlog.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/trace.h"
#include "util/logging.h"

// Git revision baked in by src/CMakeLists.txt at configure time (re-run
// cmake to refresh); "unknown" outside a git checkout.
#ifndef ROTOM_GIT_SHA
#define ROTOM_GIT_SHA "unknown"
#endif

// Kernel-flavor attribution, also baked in by src/CMakeLists.txt: the
// dispatched SIMD flavor (scalar/avx2/neon, mirroring
// kernels::SimdFlavorName() without obs depending on tensor/) and the
// ROTOM_SIMD CMake option value. Without these a recorded run cannot be
// attributed to a kernel flavor after the fact.
#ifndef ROTOM_SIMD_FLAVOR_NAME
#define ROTOM_SIMD_FLAVOR_NAME "unknown"
#endif
#ifndef ROTOM_SIMD_SETTING
#define ROTOM_SIMD_SETTING "unknown"
#endif

namespace rotom {
namespace obs {

namespace {

double MonotonicSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// Rendering and crash-fd helpers live in obs::internal (declared in
// runlog.h) so obs/servelog.cc and obs/exposition.cc share them; the
// unqualified names below keep this file reading as before.
using internal::JsonQuoted;
using internal::RegisterCrashFd;
using internal::RenderDouble;
using internal::UnregisterCrashFd;
using internal::WriteAll;

// One JSONL event under construction. Every event and field name passed
// here as a string literal is part of the runlog schema and must be
// cataloged in OBSERVABILITY.md ("Run logs"); scripts/check_obs_docs.sh
// greps these call sites.
class RunLogLine {
 public:
  explicit RunLogLine(const char* event) {
    line_ = "{\"event\": \"";
    line_ += event;
    line_ += '"';
  }

  RunLogLine& Add(std::string_view key, std::string_view value) {
    return Raw(key, JsonQuoted(value));
  }
  RunLogLine& Add(std::string_view key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  RunLogLine& Add(std::string_view key, double value) {
    return Raw(key, RenderDouble(value));
  }

  RunLogLine& Raw(std::string_view key, std::string_view rendered) {
    line_ += ", \"";
    line_ += key;
    line_ += "\": ";
    line_ += rendered;
    return *this;
  }

  std::string Finish() {
    line_ += "}\n";
    return std::move(line_);
  }

 private:
  std::string line_;
};

// ---- Crash-handler registry of open run-log descriptors ----
//
// Fixed-size lock-free table so the signal handler can walk it without
// synchronization: slots hold an fd or -1. Sized far above any plausible
// number of concurrently open run logs; Open() beyond capacity simply
// forgoes the crash `signal` event (the log itself still works).
constexpr size_t kMaxCrashFds = 64;
std::atomic<int> g_crash_fds[kMaxCrashFds];
std::atomic<bool> g_crash_fds_init{false};

std::atomic<bool> g_in_crash_handler{false};

void CrashHandler(int signo) {
  // Re-entry (a second fault while handling the first) goes straight to the
  // default disposition.
  if (!g_in_crash_handler.exchange(true)) {
    // 1. Terminal `signal` event on every open run log — write(2) only,
    //    async-signal-safe, so the flight recorder always captures how a
    //    run died.
    if (g_crash_fds_init.load(std::memory_order_relaxed)) {
      char line[64];
      const int len = std::snprintf(line, sizeof(line),
                                    "{\"event\": \"signal\", \"signo\": %d}\n",
                                    signo);
      for (auto& slot : g_crash_fds) {
        const int fd = slot.load(std::memory_order_relaxed);
        if (fd >= 0 && len > 0) WriteAll(fd, line, static_cast<size_t>(len));
      }
    }
    // 2. Best-effort ROTOM_TRACE flush. DumpTrace allocates and takes the
    //    per-thread buffer mutexes, which is formally signal-unsafe; the
    //    alternative is losing the entire trace on every crash (the atexit
    //    hook never runs for SIGSEGV/SIGABRT). The lock-free path copy
    //    avoids the one mutex the crashing thread could plausibly hold.
    const char* trace_path = internal::TracePathForCrashHandler();
    if (trace_path[0] != '\0') {
      const char msg[] = "obs: crash handler flushing trace buffers\n";
      WriteAll(2, msg, sizeof(msg) - 1);
      DumpTrace(trace_path);
    }
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

namespace internal {

std::string JsonQuoted(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string RenderDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void RegisterCrashFd(int fd) {
  if (!g_crash_fds_init.exchange(true)) {
    for (auto& slot : g_crash_fds) slot.store(-1, std::memory_order_relaxed);
  }
  for (auto& slot : g_crash_fds) {
    int expected = -1;
    if (slot.compare_exchange_strong(expected, fd,
                                     std::memory_order_relaxed)) {
      return;
    }
  }
}

void UnregisterCrashFd(int fd) {
  if (!g_crash_fds_init.load(std::memory_order_relaxed)) return;
  for (auto& slot : g_crash_fds) {
    int expected = fd;
    if (slot.compare_exchange_strong(expected, -1,
                                     std::memory_order_relaxed)) {
      return;
    }
  }
}

// Full write with EINTR/short-write handling; async-signal-safe.
void WriteAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // nothing useful to do; never abort the observed workload
    }
    done += static_cast<size_t>(n);
  }
}

}  // namespace internal

void InstallCrashHandlers() {
  static const bool installed = [] {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = CrashHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESETHAND;
    for (int signo : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
      sigaction(signo, &action, nullptr);
    }
    return true;
  }();
  (void)installed;
}

RunLogManifest& RunLogManifest::Set(std::string_view key,
                                    std::string_view value) {
  fields_.emplace_back(std::string(key), JsonQuoted(value));
  return *this;
}

RunLogManifest& RunLogManifest::Set(std::string_view key, int64_t value) {
  fields_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}

RunLogManifest& RunLogManifest::Set(std::string_view key, double value) {
  fields_.emplace_back(std::string(key), RenderDouble(value));
  return *this;
}

RunLogManifest& RunLogManifest::Set(std::string_view key, bool value) {
  fields_.emplace_back(std::string(key), value ? "true" : "false");
  return *this;
}

std::unique_ptr<RunLog> RunLog::Open(const RunLogOptions& options) {
  std::string dir = options.dir;
  if (dir.empty()) {
    const char* env = std::getenv("ROTOM_RUNLOG_DIR");
    if (env != nullptr) dir = env;
  }
  if (dir.empty()) return nullptr;
  ::mkdir(dir.c_str(), 0755);  // best effort (single level; may exist)

  static std::atomic<int64_t> next_id{0};
  const int64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  char name[128];
  std::snprintf(name, sizeof(name), "%s-p%d-%lld.jsonl",
                options.tag.empty() ? "run" : options.tag.c_str(),
                static_cast<int>(::getpid()), static_cast<long long>(id));
  std::string path = dir;
  if (path.back() != '/') path += '/';
  path += name;

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                        0644);
  if (fd < 0) {
    ROTOM_LOG(Warning) << "runlog: cannot open " << path << " ("
                       << std::strerror(errno) << "); run logging disabled";
    return nullptr;
  }
  InstallCrashHandlers();
  RegisterCrashFd(fd);
  return std::unique_ptr<RunLog>(new RunLog(std::move(path), fd));
}

RunLog::RunLog(std::string path, int fd)
    : path_(std::move(path)), fd_(fd), start_seconds_(MonotonicSeconds()) {}

RunLog::~RunLog() {
  RunLogLine line("end");
  line.Add("steps", steps_);
  line.Add("seconds", MonotonicSeconds() - start_seconds_);
  Append(line.Finish());
  UnregisterCrashFd(fd_);
  ::close(fd_);
}

void RunLog::Append(const std::string& line) {
  WriteAll(fd_, line.data(), line.size());
}

void RunLog::WriteManifest(const RunLogManifest& manifest) {
  const char* env_threads = std::getenv("ROTOM_NUM_THREADS");
  RunLogLine line("manifest");
  line.Add("schema", std::string_view(kRunLogSchema));
  line.Add("git_sha", std::string_view(ROTOM_GIT_SHA));
  line.Add("rotom_num_threads",
           std::string_view(env_threads != nullptr ? env_threads : "unset"));
  line.Add("simd_flavor", std::string_view(ROTOM_SIMD_FLAVOR_NAME));
  line.Add("rotom_simd", std::string_view(ROTOM_SIMD_SETTING));
  for (const auto& [key, rendered] : manifest.fields_) {
    line.Raw(key, rendered);
  }
  Append(line.Finish());
}

void RunLog::LogStep(const RunLogStep& step) {
  const bool grad_bad = step.grad_norm >= 0.0 && !std::isfinite(step.grad_norm);
  if (!std::isfinite(step.loss) || grad_bad) {
    // NaN/Inf sentinel: record the poisoned step with full context, then
    // abort — everything the optimizer does after this point is garbage,
    // and the flight recorder already holds the healthy prefix.
    RunLogLine fatal("fatal");
    fatal.Add("reason", std::string_view(grad_bad ? "non-finite grad_norm"
                                                  : "non-finite loss"));
    fatal.Add("step", step.step);
    fatal.Add("epoch", step.epoch);
    fatal.Add("loss", step.loss);
    fatal.Add("grad_norm", step.grad_norm);
    Append(fatal.Finish());
    std::fprintf(stderr,
                 "runlog: non-finite %s at step %lld (epoch %lld): loss=%g "
                 "grad_norm=%g — aborting; see %s\n",
                 grad_bad ? "grad_norm" : "loss",
                 static_cast<long long>(step.step),
                 static_cast<long long>(step.epoch), step.loss, step.grad_norm,
                 path_.c_str());
    std::abort();
  }

  RunLogLine line("step");
  line.Add("step", step.step);
  line.Add("epoch", step.epoch);
  line.Add("loss", step.loss);
  line.Add("lr", step.lr);
  if (step.grad_norm >= 0.0) line.Add("grad_norm", step.grad_norm);
  if (step.keep_rate >= 0.0) line.Add("keep_rate", step.keep_rate);
  if (step.has_weights) {
    line.Add("weight_min", step.weight_min);
    line.Add("weight_mean", step.weight_mean);
    line.Add("weight_max", step.weight_max);
  }
  for (const auto& [op, count] : step.op_counts) {
    line.Add("op." + op, count);  // documented as `op.<operator>`
  }
  for (const auto& [op, count] : step.op_offered) {
    line.Add("gen." + op, count);  // documented as `gen.<operator>`
  }
  Append(line.Finish());
  ++steps_;
}

void RunLog::LogEpoch(int64_t epoch, double valid_metric,
                      double keep_fraction) {
  RunLogLine line("epoch");
  line.Add("epoch", epoch);
  line.Add("valid_metric", valid_metric);
  if (keep_fraction >= 0.0) line.Add("keep_fraction", keep_fraction);
  Append(line.Finish());
}

void RunLog::LogStreamState(int64_t step, int64_t round,
                            std::string_view state) {
  RunLogLine line("stream_state");
  line.Add("step", step);
  line.Add("round", round);
  line.Add("state", state);
  Append(line.Finish());
}

}  // namespace obs
}  // namespace rotom
