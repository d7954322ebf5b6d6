#ifndef ROTOM_PERFBENCH_OPEN_LOOP_H_
#define ROTOM_PERFBENCH_OPEN_LOOP_H_

// Open-loop load generator: one submitting thread sends every request at its
// scheduled due time whether or not earlier ones have finished, and one
// completion thread collects the results. Latency is timed from the due
// time, not from the moment the request was actually sent, so a stall in
// the server (or in the generator itself) is charged to every request it
// delays. How late the generator ran is reported separately.
//
// Templated over the submit/complete callbacks so perfbench_selftest can
// drive it with a stub server.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One scheduled request: due time (seconds after the rung starts), the
/// query to send and the tenant to send it to.
struct Arrival {
  double due_s = 0.0;
  size_t query = 0;
  int tenant = 0;
};

// Backlog detection: the outstanding-request count is sampled every
// kBacklogPeriodS; a rung is cut short once it rose at kBacklogWindow
// consecutive samples and exceeds kBacklogFloor.
inline constexpr double kBacklogPeriodS = 0.05;
inline constexpr int64_t kBacklogFloor = 256;
inline constexpr int kBacklogWindow = 6;

struct OpenLoopStats {
  std::vector<double> latency_ms;  // per completed request, due -> result
  std::vector<double> lag_ms;      // per sent request, due -> send
  std::vector<double> submit_us;   // per sent request, time inside submit
  int64_t sent = 0;
  bool backlog_growing = false;  // cut short: the backlog kept growing
};

/// Runs `schedule` (sorted by due time). `submit(const Arrival&)` returns a
/// std::future<T>; `complete(const Arrival&, T)` runs on the completion
/// thread for every result; `tick(double due_s)` runs on the submitting
/// thread before each send (scheduled actions such as hot-swaps).
template <typename Submit, typename Complete, typename Tick>
OpenLoopStats RunOpenLoop(const std::vector<Arrival>& schedule,
                          Submit submit, Complete complete, Tick tick) {
  using Future = decltype(submit(schedule.front()));
  struct Pending {
    size_t index;
    Clock::time_point due;
    Future future;
  };

  OpenLoopStats stats;
  stats.lag_ms.reserve(schedule.size());
  stats.submit_us.reserve(schedule.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> inbox;  // guarded by mu
  bool finished = false;      // guarded by mu
  std::atomic<int64_t> completed{0};
  std::vector<double> latency_ms;  // completion thread only until join
  latency_ms.reserve(schedule.size());

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);

  std::thread completer([&] {
    std::deque<Pending> mine;
    auto finish = [&](size_t pos) {
      const Clock::time_point now = Clock::now();
      Pending p = std::move(mine[pos]);
      mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pos));
      latency_ms.push_back(Seconds(now - p.due) * 1e3);
      complete(schedule[p.index], p.future.get());
      completed.fetch_add(1, std::memory_order_relaxed);
    };
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (mine.empty())
          cv.wait(lock, [&] { return finished || !inbox.empty(); });
        while (!inbox.empty()) {
          mine.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
        if (mine.empty() && finished) break;
      }
      if (mine.empty()) continue;
      // Tenants are served round-robin, so results can arrive out of
      // submission order; scan a few heads so one slow tenant's request
      // does not delay timing another's.
      bool found = false;
      const size_t scan = std::min<size_t>(mine.size(), 16);
      for (size_t i = 0; i < scan && !found; ++i) {
        if (mine[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          finish(i);
          found = true;
        }
      }
      if (!found &&
          mine.front().future.wait_for(std::chrono::microseconds(100)) ==
              std::future_status::ready)
        finish(0);
    }
  });

  BacklogTracker backlog(kBacklogFloor, kBacklogWindow);
  double next_sample_s = kBacklogPeriodS;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    if (a.due_s >= next_sample_s) {
      next_sample_s += kBacklogPeriodS;
      if (backlog.Add(stats.sent - completed.load(std::memory_order_relaxed))) {
        stats.backlog_growing = true;
        break;
      }
    }
    tick(a.due_s);
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.due_s));
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    Future future = submit(a);
    const Clock::time_point after = Clock::now();
    stats.lag_ms.push_back(Seconds(sent - due) * 1e3);
    stats.submit_us.push_back(Seconds(after - sent) * 1e6);
    ++stats.sent;
    {
      std::lock_guard<std::mutex> lock(mu);
      inbox.push_back({i, due, std::move(future)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_one();
  completer.join();
  stats.latency_ms = std::move(latency_ms);
  return stats;
}

}  // namespace perfbench

#endif  // ROTOM_PERFBENCH_OPEN_LOOP_H_
