#ifndef ROTOM_PERFBENCH_STATS_H_
#define ROTOM_PERFBENCH_STATS_H_

// The benchmark's own decision logic, kept free of library dependencies so
// perfbench_selftest can check it in isolation: percentile support, the
// goodput crossing, backlog detection, reference-label checks and the
// metric-name rule. See README.md for how the numbers are used.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Metric names are the keys of the result object and of BENCHMARK.json.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Samples needed beyond a reported percentile: a tail estimate resting on
/// fewer observations is noise, so it is not reported at all.
inline constexpr double kMinSamplesBeyond = 10.0;

/// The q-quantile (0 <= q < 1) of a non-empty `samples` by linear
/// interpolation between order statistics, whatever the sample size.
inline double Quantile(std::vector<double> samples, double q) {
  const double n = static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  const double rank = q * (n - 1.0);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

/// The q-quantile, or nullopt unless at least kMinSamplesBeyond samples lie
/// beyond it (n * (1 - q) >= 10: p50 needs 20 samples, p99 needs 1000).
inline std::optional<double> Percentile(const std::vector<double>& samples,
                                        double q) {
  const double n = static_cast<double>(samples.size());
  if (samples.empty() || q < 0.0 || q >= 1.0) return std::nullopt;
  // The small epsilon keeps e.g. 1000 * (1 - 0.99) = 9.999... supported.
  if (n * (1.0 - q) + 1e-9 < kMinSamplesBeyond) return std::nullopt;
  return Quantile(samples, q);
}

/// Median of a small set of repeated measurements (no support rule: used
/// for set-up times and per-call rates, not for latency tails).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Best of repeated measurements under one-sided noise (0 when empty).
inline double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}
inline double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

/// One rung of the open-loop rate ladder, as measured.
struct Rung {
  double rate = 0.0;              // offered requests per second
  std::optional<double> p99_ms;  // nullopt when too few samples
  bool backlog_growing = false;  // the rung was cut short as saturated
  int64_t failed = 0;            // shed, errored or wrongly labeled requests
  /// p99 of whatever completed, even under 1000 samples (a rung cut short
  /// by its backlog): used only as the slope of a crossing, never reported.
  std::optional<double> p99_any_ms;
};

/// A rung meets the latency limit only with a supported p99 at or under
/// it, no growing backlog and no failed request.
inline bool RungPasses(const Rung& rung, double p99_limit_ms) {
  return !rung.backlog_growing && rung.failed == 0 && rung.p99_ms &&
         *rung.p99_ms <= p99_limit_ms;
}

/// Goodput: the offered rate at which the p99-vs-rate curve crosses the
/// limit, walking the ladder upward (rungs sorted by rate). Linear
/// interpolation between the last passing rung and the first failing one,
/// using the failing rung's p99 (p99_any_ms when it was cut short) when it
/// lies above the limit; a rung that failed with its p99 at or under the
/// limit (failed requests, or a backlog that had not yet shown in latency)
/// gives no slope, so the crossing is placed at the last passing rung. 0
/// when the lightest rung already fails; the top rung's rate when no rung
/// fails (the ladder's reach is the bound).
inline double Goodput(const std::vector<Rung>& rungs, double p99_limit_ms) {
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (RungPasses(rungs[i], p99_limit_ms)) continue;
    if (i == 0) return 0.0;
    const Rung& lo = rungs[i - 1];
    const Rung& hi = rungs[i];
    const std::optional<double> hi_p99 = hi.p99_ms ? hi.p99_ms : hi.p99_any_ms;
    if (!hi_p99 || *hi_p99 <= p99_limit_ms) return lo.rate;
    const double t = (p99_limit_ms - *lo.p99_ms) / (*hi_p99 - *lo.p99_ms);
    return lo.rate + t * (hi.rate - lo.rate);
  }
  return rungs.empty() ? 0.0 : rungs.back().rate;
}

/// Detects a backlog that keeps growing: the number of outstanding
/// requests, sampled at a fixed period, rose at every one of the last
/// `window` samples and exceeds `floor` (a queue that briefly holds a few
/// batches is normal under Poisson arrivals).
class BacklogTracker {
 public:
  BacklogTracker(int64_t floor, int window) : floor_(floor), window_(window) {}

  /// Records one sample; returns true once the backlog counts as growing.
  bool Add(int64_t outstanding) {
    rising_ = outstanding > last_ ? rising_ + 1 : 0;
    last_ = outstanding;
    return rising_ >= window_ && outstanding > floor_;
  }

 private:
  int64_t floor_;
  int window_;
  int64_t last_ = 0;
  int rising_ = 0;
};

/// Failure accounting of served requests. A request fails when it was not
/// answered (shed at admission or an error) or was answered with a label
/// that equals the reference label of no version published for its tenant
/// (a request may straddle a hot-swap, so any published version counts).
/// Wrong labels are also counted on their own: they make the run's outputs
/// incorrect, while a shed request only fails.
struct RequestTally {
  int64_t failed = 0;
  int64_t wrong = 0;

  /// Records one request; returns true when it succeeded.
  bool Add(bool answered, int64_t label,
           const std::vector<int64_t>& references) {
    if (!answered) {
      ++failed;
      return false;
    }
    if (std::find(references.begin(), references.end(), label) ==
        references.end()) {
      ++failed;
      ++wrong;
      return false;
    }
    return true;
  }
};

/// Gap between the top two class probabilities. A query whose margin is
/// under the benchmark's tolerance could flip label under a legitimate
/// change of reduction order, so it is kept out of the query pool.
inline double TopTwoMargin(const std::vector<float>& probs) {
  float first = -1.0f, second = -1.0f;
  for (float p : probs) {
    if (p > first) {
      second = first;
      first = p;
    } else if (p > second) {
      second = p;
    }
  }
  return second < 0.0f ? 1.0 : static_cast<double>(first - second);
}

}  // namespace perfbench

#endif  // ROTOM_PERFBENCH_STATS_H_
