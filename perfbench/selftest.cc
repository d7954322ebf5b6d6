// Tests of the benchmark's own logic (no library code involved). Run with
//   python3 perfbench/run.py --selftest
// Exits non-zero on the first failed expectation.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "open_loop.h"
#include "stats.h"

namespace {

using namespace perfbench;  // NOLINT

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentileSupport() {
  Expect(!Percentile(Range(999), 0.99), "p99 needs 1000 samples (999 refused)");
  Expect(Percentile(Range(1000), 0.99).has_value(),
         "p99 reported from 1000 samples (10 beyond)");
  Expect(!Percentile(Range(19), 0.5), "p50 needs 20 samples (19 refused)");
  const auto p50 = Percentile(Range(21), 0.5);
  Expect(p50 && *p50 == 11.0, "p50 of 1..21 is 11");
  const auto p90 = Percentile(Range(101), 0.9);
  Expect(p90 && std::fabs(*p90 - 91.0) < 1e-9, "p90 of 1..101 is 91");
  Expect(!Percentile({}, 0.5), "no percentile of an empty sample");
}

Rung MakeRung(double rate, std::optional<double> p99, bool backlog = false,
              int64_t failed = 0, std::optional<double> p99_any = {}) {
  Rung rung;
  rung.rate = rate;
  rung.p99_ms = p99;
  rung.backlog_growing = backlog;
  rung.failed = failed;
  rung.p99_any_ms = p99_any;
  return rung;
}

void TestGoodput() {
  const double limit = 50.0;
  std::vector<Rung> rungs = {MakeRung(100, 5.0), MakeRung(200, 30.0),
                             MakeRung(300, 130.0), MakeRung(400, 900.0)};
  // Crossing between 200 (30 ms) and 300 (130 ms): 200 + 100 * 20/100.
  Expect(std::fabs(Goodput(rungs, limit) - 220.0) < 1e-9,
         "goodput interpolated at the limit crossing (220)");

  std::vector<Rung> backlog = {MakeRung(100, 5.0), MakeRung(200, 10.0, true)};
  Expect(Goodput(backlog, limit) == 100.0,
         "a growing backlog fails the rung even under the limit");
  std::vector<Rung> cut = {MakeRung(100, 30.0),
                           MakeRung(200, std::nullopt, true, 0, 130.0)};
  Expect(std::fabs(Goodput(cut, limit) - 120.0) < 1e-9,
         "a rung cut short by its backlog still gives the crossing's slope");
  std::vector<Rung> failed = {MakeRung(100, 5.0),
                              MakeRung(200, 10.0, false, 1)};
  Expect(Goodput(failed, limit) == 100.0,
         "one failed request fails the rung");
  Expect(!RungPasses(MakeRung(100, std::nullopt), limit),
         "a rung without a supported p99 does not pass");
  std::vector<Rung> all_pass = {MakeRung(100, 5.0), MakeRung(200, 6.0)};
  Expect(Goodput(all_pass, limit) == 200.0,
         "no crossing: goodput is the top rung");
  std::vector<Rung> first_fails = {MakeRung(100, 80.0)};
  Expect(Goodput(first_fails, limit) == 0.0,
         "lightest rung over the limit: goodput 0");
}

void TestBacklog() {
  BacklogTracker steady(10, 3);
  bool grew = false;
  for (int64_t v : {50, 40, 55, 45, 60, 50}) grew = grew || steady.Add(v);
  Expect(!grew, "a fluctuating backlog is not growing");
  BacklogTracker rising(10, 3);
  grew = false;
  for (int64_t v : {20, 40, 60, 80}) grew = grew || rising.Add(v);
  Expect(grew, "a backlog rising at every sample is growing");
  BacklogTracker small(100, 3);
  grew = false;
  for (int64_t v : {1, 2, 3, 4, 5}) grew = grew || small.Add(v);
  Expect(!grew, "a rising backlog under the floor is tolerated");
}

void TestOpenLoopTimesFromDue() {
  // A stub server that stalls for 50 ms on the first request and answers
  // every later one at once. Requests due during the stall are sent late
  // (the generator is blocked), and their latency must include that wait.
  std::vector<Arrival> schedule;
  for (int i = 0; i < 10; ++i) schedule.push_back({i * 0.005, 0, 0});
  int calls = 0;
  auto submit = [&](const Arrival&) {
    if (calls++ == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::promise<int> p;
    p.set_value(1);
    return p.get_future();
  };
  const OpenLoopStats stats = RunOpenLoop(
      schedule, submit, [](const Arrival&, int) {}, [](double) {});
  Expect(stats.sent == 10 && stats.latency_ms.size() == 10,
         "open loop sends and completes every request");
  // Request 5 was due at 25 ms but could only be sent after the 50 ms stall.
  double max_latency = 0.0;
  for (double v : stats.latency_ms) max_latency = std::max(max_latency, v);
  Expect(max_latency >= 20.0,
         "latency is timed from the due time (stall charged to later "
         "requests)");
  double max_lag = 0.0;
  for (double v : stats.lag_ms) max_lag = std::max(max_lag, v);
  Expect(max_lag >= 20.0, "generator lag records how late sends ran");
}

void TestWrongLabelFails() {
  // Ten requests through the open loop against a stub server that answers
  // with the reference label of version 1 or 2, except one injected wrong
  // label and one shed request.
  std::vector<Arrival> schedule;
  for (int i = 0; i < 10; ++i)
    schedule.push_back({i * 0.001, static_cast<size_t>(i), 0});
  const std::vector<int64_t> v1 = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
  const std::vector<int64_t> v2 = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  struct Answer {
    bool answered;
    int64_t label;
  };
  auto submit = [&](const Arrival& a) {
    std::promise<Answer> p;
    if (a.query == 3) {
      p.set_value({true, 2});  // injected: neither version's label
    } else if (a.query == 7) {
      p.set_value({false, -1});  // shed
    } else {
      p.set_value({true, a.query % 2 == 0 ? v1[a.query] : v2[a.query]});
    }
    return p.get_future();
  };
  RequestTally tally;
  RunOpenLoop(
      schedule, submit,
      [&](const Arrival& a, Answer r) {
        tally.Add(r.answered, r.label, {v1[a.query], v2[a.query]});
      },
      [](double) {});
  Expect(tally.failed == 2, "a wrong label and a shed request both fail");
  Expect(tally.wrong == 1,
         "an injected wrong label is counted as a wrong output");
  Expect(TopTwoMargin({0.5f, 0.4995f}) < 1e-3 &&
             TopTwoMargin({0.9f, 0.1f}) > 0.5,
         "top-2 margin separates thin from clear predictions");
}

void TestMetricNames() {
  for (const char* ok : {"setup_s", "tensor.gemm_train_gflops_1t",
                         "core.share.meta_forward", "a-b.C_9"})
    Expect(ValidMetricName(ok), ok);
  for (const char* bad : {"", "has space", "per/s", "x:y", "quo\"te"}) {
    std::string what = std::string("rejects '") + bad + "'";
    Expect(!ValidMetricName(bad), what.c_str());
  }
}

}  // namespace

int main() {
  TestPercentileSupport();
  TestGoodput();
  TestBacklog();
  TestOpenLoopTimesFromDue();
  TestWrongLabelFails();
  TestMetricNames();
  std::printf("%s (%d failed)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
