// serve_tenants_open: open-loop Poisson arrivals into one TenantServer over
// a ModelRegistry with two tenants, "f32" serving a float model and "int8"
// its int8 quantization. Each tenant has two published versions and is
// hot-swapped v1 -> v2 -> v1 at fixed points of every rung. The offered
// rate climbs a fixed ladder; each rung reports p50/p99 latency timed from
// the due time, and goodput is the rate where p99 crosses kP99LimitMs.
//
// Queries are length-skewed: mostly 6-16 tokens with a fixed tail of 32-48
// token queries (long entity serializations under the max_len budget).

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "models/classifier.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "serve/tenant_server.h"
#include "stats.h"
#include "text/encoding_cache.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace rotom;  // NOLINT

constexpr int64_t kVocab = 512;
constexpr size_t kPoolSize = 640;
constexpr size_t kLongEvery = 8;  // every 8th query is a long one
// Reference labels whose top-2 probability margin is below this are not
// queried: a legitimate change of summation order could flip them.
constexpr double kMarginTolerance = 1e-3;
constexpr double kP99LimitMs = 200.0;

// Offered rates (requests/s). At the seed commit a 4-core host serves about
// 1000 req/s within the limit: `light` sits far below that, `heavy` near it,
// rungs are about 5% apart around it (the step bounds how finely goodput
// resolves) and the ladder runs on to 3x so a later speed-up stays
// measurable. A ladder rung lasts kRungShare of --seconds, and at least long
// enough for 1000 requests (a supported p99).
//
// On a shared host, waking idle cores and the cores' speed both vary for
// tens of seconds at a time, and the noise only ever slows a measurement
// down. So the run repeats its measurements at spread-out times and keeps
// the best: the ladder is climbed kClimbs times, with a light segment of
// kLightShare of --seconds before, between and after the climbs;
// latency_ms is the lowest segment p50 and goodput the best climb's.
struct RungSpec {
  const char* name;
  double rate;
};
constexpr double kRungShare = 0.1;
constexpr double kLightShare = 0.1;
constexpr int kClimbs = 2;
const RungSpec kLight = {"light", 100};
constexpr double kHeavyRate = 790;
const std::vector<RungSpec> kLadder = {
    {"r500", 500},   {"r630", 630},   {"heavy", kHeavyRate},
    {"r850", 850},   {"r890", 890},   {"r935", 935},   {"r980", 980},
    {"r1030", 1030}, {"r1080", 1080}, {"r1135", 1135}, {"r1190", 1190},
    {"r1250", 1250}, {"r1310", 1310}, {"r1450", 1450}, {"r1650", 1650},
    {"r1900", 1900}, {"r2200", 2200}, {"r2550", 2550}, {"r2950", 2950},
    {"r3400", 3400},
};

const std::vector<std::string> kTenants = {"f32", "int8"};

serve::Snapshot RandomSnapshot(uint64_t seed) {
  Rng rng(seed);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (int64_t i = 0; i < kVocab; ++i)
    vocab->AddToken("tok" + std::to_string(i));
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 48;
  config.dim = 128;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 256;
  models::TransformerClassifier model(config, vocab, rng);
  model.SetTraining(false);
  return serve::Snapshot::FromModel(model);
}

std::vector<std::string> MakeQueries(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> pool;
  for (size_t i = 0; i < kPoolSize; ++i) {
    const int64_t words = i % kLongEvery == kLongEvery - 1
                              ? rng.UniformInt(32, 48)
                              : rng.UniformInt(6, 16);
    std::string text;
    for (int64_t w = 0; w < words; ++w) {
      if (!text.empty()) text += ' ';
      text += "tok" + std::to_string(rng.UniformInt(kVocab));
    }
    pool.push_back(std::move(text));
  }
  return pool;
}

struct ServeSetup {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<std::string> queries;  // margin-filtered pool
  // refs[tenant][version - 1][query]
  std::vector<std::vector<std::vector<int64_t>>> refs;
  std::vector<double> publish_ms;
};

StatusOr<ServeSetup> BuildServe(const Args& args, int repeat) {
  ServeSetup setup;
  setup.registry = std::make_unique<serve::ModelRegistry>();
  const std::vector<std::string> all = MakeQueries(args.seed * 7 + 1);
  std::vector<std::vector<std::vector<int64_t>>> labels(kTenants.size());
  std::vector<bool> keep(all.size(), true);
  for (uint64_t version = 1; version <= 2; ++version) {
    const serve::Snapshot snapshot =
        RandomSnapshot(args.seed * 31 + version);
    const std::string path = args.work_dir + "/model-" +
                             std::to_string(repeat) + "-v" +
                             std::to_string(version) + ".rsnap";
    if (Status s = snapshot.Save(path); !s.ok()) return s;
    auto quantized = serve::QuantizeSnapshot(snapshot);
    if (!quantized.ok()) return quantized.status();
    StatusOr<uint64_t> f32 = Status::Error("unset");
    StatusOr<uint64_t> int8 = Status::Error("unset");
    setup.publish_ms.push_back(
        TimeSeconds([&] { f32 = setup.registry->Publish("f32", path); }) *
        1e3);
    setup.publish_ms.push_back(TimeSeconds([&] {
                                 int8 = setup.registry->Publish(
                                     "int8", quantized.value());
                               }) *
                               1e3);
    if (!f32.ok()) return f32.status();
    if (!int8.ok()) return int8.status();
    if (f32.value() != version || int8.value() != version)
      return Status::Error("unexpected version numbering");
    for (size_t t = 0; t < kTenants.size(); ++t) {
      auto session = setup.registry->AcquireVersion(kTenants[t], version);
      labels[t].emplace_back();
      for (size_t b = 0; b < all.size(); b += 64) {
        const size_t e = std::min(all.size(), b + 64);
        const auto predictions = session->PredictBatch(
            std::span<const std::string>(all.data() + b, e - b));
        for (size_t i = 0; i < predictions.size(); ++i) {
          labels[t].back().push_back(predictions[i].label);
          if (TopTwoMargin(predictions[i].probs) < kMarginTolerance)
            keep[b + i] = false;
        }
      }
    }
  }
  setup.refs.assign(kTenants.size(),
                    std::vector<std::vector<int64_t>>(2));
  for (size_t q = 0; q < all.size(); ++q) {
    if (!keep[q]) continue;
    setup.queries.push_back(all[q]);
    for (size_t t = 0; t < kTenants.size(); ++t)
      for (size_t v = 0; v < 2; ++v)
        setup.refs[t][v].push_back(labels[t][v][q]);
  }
  if (setup.queries.size() < all.size() / 2)
    return Status::Error("margin filter dropped most queries");
  return setup;
}

struct RungResult {
  Rung rung;
  OpenLoopStats stats;
  int64_t int8_served = 0;
  int64_t int8_agree = 0;  // int8 answers equal to the f32 reference
  std::vector<double> swap_us;
};

// Poisson schedule for one rung, tenants chosen uniformly.
std::vector<Arrival> Schedule(double rate, int64_t requests, size_t queries,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  for (int64_t i = 0; i < requests; ++i) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    out.push_back({t, static_cast<size_t>(rng.UniformInt(
                          static_cast<int64_t>(queries))),
                   static_cast<int>(rng.UniformInt(2))});
  }
  return out;
}

// Runs one rung for `planned_seconds` of arrivals.
RungResult RunRung(const RungSpec& spec, double planned_seconds,
                   uint64_t seed, serve::ModelRegistry& registry,
                   serve::TenantServer& server, const ServeSetup& setup,
                   Report* report) {
  RungResult result;
  result.rung.rate = spec.rate;
  const int64_t requests =
      std::max<int64_t>(1, std::llround(spec.rate * planned_seconds));
  const std::vector<Arrival> schedule =
      Schedule(spec.rate, requests, setup.queries.size(), seed);
  const double seconds = schedule.back().due_s;
  // Hot-swaps at one and two thirds of the rung: v1 -> v2 -> v1.
  std::vector<double> swap_at = {seconds / 3, 2 * seconds / 3};
  size_t next_swap = 0;
  RequestTally tally;
  auto tick = [&](double due_s) {
    if (next_swap >= swap_at.size() || due_s < swap_at[next_swap]) return;
    const uint64_t target = next_swap == 0 ? 2 : 1;
    for (const std::string& tenant : kTenants) {
      Status s = Status::Ok();
      result.swap_us.push_back(
          TimeSeconds([&] { s = registry.Swap(tenant, target); }) * 1e6);
      if (!s.ok()) report->MarkIncorrect("swap failed: " + s.message());
    }
    ++next_swap;
  };
  auto submit = [&](const Arrival& a) {
    return server.Submit(kTenants[static_cast<size_t>(a.tenant)],
                         setup.queries[a.query]);
  };
  auto complete = [&](const Arrival& a, StatusOr<serve::Prediction> r) {
    const auto& refs = setup.refs[static_cast<size_t>(a.tenant)];
    const int64_t label = r.ok() ? r.value().label : -1;
    if (!tally.Add(r.ok(), label, {refs[0][a.query], refs[1][a.query]}))
      return;
    if (a.tenant == 1) {
      ++result.int8_served;
      const auto& f32 = setup.refs[0];
      for (size_t v = 0; v < 2; ++v) {
        if (refs[v][a.query] == label && f32[v][a.query] == label) {
          ++result.int8_agree;
          break;
        }
      }
    }
  };
  result.stats = RunOpenLoop(schedule, submit, complete, tick);
  // Leave every tenant on v1 for the next rung.
  for (const std::string& tenant : kTenants) (void)registry.Swap(tenant, 1);
  report->Attempt(result.stats.sent);
  report->Fail(tally.failed);
  if (tally.wrong > 0)
    report->MarkIncorrect(std::to_string(tally.wrong) +
                          " requests answered with a label of no published "
                          "version");
  result.rung.failed = tally.failed;
  result.rung.backlog_growing = result.stats.backlog_growing;
  result.rung.p99_ms = Percentile(result.stats.latency_ms, 0.99);
  if (!result.stats.latency_ms.empty())
    result.rung.p99_any_ms = Quantile(result.stats.latency_ms, 0.99);
  std::fprintf(stderr,
               "perfbench: rung %-6s %6.0f/s sent %6lld p50 %8.3f ms p99 "
               "%8.3f ms lag_p50 %.3f ms%s\n",
               spec.name, spec.rate, static_cast<long long>(result.stats.sent),
               Percentile(result.stats.latency_ms, 0.5).value_or(NAN),
               result.rung.p99_ms.value_or(NAN),
               Percentile(result.stats.lag_ms, 0.5).value_or(NAN),
               result.stats.backlog_growing ? " (backlog growing)" : "");
  return result;
}

struct Ladder {
  std::vector<RungResult> light;               // the light segments
  std::vector<std::vector<RungResult>> climbs;  // rungs of each climb
  double goodput = 0.0;                         // best climb's
  int64_t int8_served = 0;
  int64_t int8_agree = 0;
};

// Light segments before, between and after kClimbs climbs of the ladder,
// each climb up to its first rung over the limit.
Ladder RunLadder(const Args& args, serve::ModelRegistry& registry,
                 serve::TenantServer& server, const ServeSetup& setup,
                 Report* report,
                 const std::function<void(const RungSpec&)>& before_rung) {
  Ladder ladder;
  uint64_t salt = 0;
  auto run = [&](const RungSpec& spec, double seconds) {
    RungResult r = RunRung(spec, seconds, args.seed * 101 + salt++, registry,
                           server, setup, report);
    ladder.int8_served += r.int8_served;
    ladder.int8_agree += r.int8_agree;
    return r;
  };
  ladder.light.push_back(run(kLight, kLightShare * args.seconds));
  for (int climb = 0; climb < kClimbs; ++climb) {
    ladder.climbs.emplace_back();
    std::vector<Rung> rungs;
    for (const RungSpec& spec : kLadder) {
      before_rung(spec);
      ladder.climbs.back().push_back(
          run(spec, std::max(kRungShare * args.seconds, 1000.0 / spec.rate)));
      rungs.push_back(ladder.climbs.back().back().rung);
      if (!RungPasses(rungs.back(), kP99LimitMs)) break;
    }
    before_rung(kLight);
    ladder.goodput = std::max(ladder.goodput, Goodput(rungs, kP99LimitMs));
    ladder.light.push_back(run(kLight, kLightShare * args.seconds));
  }
  return ladder;
}

double SegmentP50(const RungResult& r) {
  return Percentile(r.stats.latency_ms, 0.5).value_or(0.0);
}

// Lowest of the light segments' p50s.
double LightP50(const Ladder& ladder) {
  std::vector<double> p50s;
  for (const RungResult& r : ladder.light) p50s.push_back(SegmentP50(r));
  return Min(p50s);
}

std::vector<const RungResult*> AllRungs(const Ladder& ladder) {
  std::vector<const RungResult*> all;
  for (const RungResult& r : ladder.light) all.push_back(&r);
  for (const auto& climb : ladder.climbs)
    for (const RungResult& r : climb) all.push_back(&r);
  return all;
}

double AgreementPct(const Ladder& ladder) {
  return ladder.int8_served > 0
             ? 100.0 * static_cast<double>(ladder.int8_agree) /
                   static_cast<double>(ladder.int8_served)
             : 0.0;
}

serve::TenantServer::Options ServerOptions() {
  serve::TenantServer::Options options;
  options.max_batch = 32;
  options.max_delay_us = 500;
  // Deep enough that no rung sheds before its backlog is detected.
  options.queue_capacity = size_t{1} << 16;
  return options;
}

double HistogramP99(const std::string& name) {
  for (const auto& m : obs::Snapshot().metrics)
    if (m.name == name) return obs::HistogramPercentile(m, 0.99);
  return 0.0;
}

// Time per row of one PredictBatch over the 32 shortest or longest queries.
double UsPerRow(const serve::InferenceSession& session,
                const std::vector<std::string>& queries, bool longest) {
  std::vector<std::string> sorted = queries;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const std::string& a, const std::string& b) {
                     return a.size() < b.size();
                   });
  const size_t n = std::min<size_t>(32, sorted.size());
  std::vector<std::string> batch(longest ? sorted.end() - n : sorted.begin(),
                                 longest ? sorted.end() : sorted.begin() + n);
  return MedianCallUs([&] { session.PredictBatch(batch); }) /
         static_cast<double>(n);
}

}  // namespace

void RunServeTenantsOpen(const Args& args, Report* report) {
  std::vector<double> setups;
  ServeSetup setup;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    setup = ServeSetup();  // free the previous repeat before timing the next
    ReleaseFreedMemory();
    Status status = Status::Ok();
    setups.push_back(TimeSeconds([&] {
      auto built = BuildServe(args, i);
      if (built.ok()) {
        setup = std::move(built).value();
      } else {
        status = built.status();
      }
    }));
    if (!status.ok()) {
      report->MarkIncorrect("set-up failed: " + status.message());
      return;
    }
  }
  serve::ModelRegistry& registry = *setup.registry;
  serve::TenantServer server(&registry, kTenants, ServerOptions());
  // Warm-up: a short light burst through the server (thread start-up, the
  // buffer pool) before anything is timed.
  RunOpenLoop(
      Schedule(kLight.rate, 30, setup.queries.size(), args.seed),
      [&](const Arrival& a) {
        return server.Submit(kTenants[static_cast<size_t>(a.tenant)],
                             setup.queries[a.query]);
      },
      [](const Arrival&, StatusOr<serve::Prediction>) {}, [](double) {});

  if (!args.trace) {
    ResetPeakRss();
    const Ladder ladder = RunLadder(args, registry, server, setup, report,
                                    [](const RungSpec&) {});
    report->Set("peak_rss_mb", PeakRssMb());

    report->Set("setup_s", Median(setups));
    report->Set("throughput_per_s", ladder.goodput);
    report->Set("latency_ms", LightP50(ladder));
    std::vector<double> lag;
    for (const RungResult* r : AllRungs(ladder))
      lag.insert(lag.end(), r->stats.lag_ms.begin(), r->stats.lag_ms.end());
    std::printf("serve: generator lag p99 %.3f ms, int8/f32 agreement "
                "%.2f %%, goodput %.1f req/s at p99 <= %.0f ms\n",
                Percentile(lag, 0.99).value_or(NAN), AgreementPct(ladder),
                ladder.goodput, kP99LimitMs);
    return;
  }

  // Traced run: one light segment untraced for the overhead baseline, then
  // the whole ladder with instrumentation on.
  obs::SetEnabled(false);
  const RungResult untraced_light =
      RunRung(kLight, kLightShare * args.seconds, args.seed * 101, registry,
              server, setup, report);
  obs::SetEnabled(true);
  const ObsDelta delta;
  std::vector<serve::TenantServer::Stats> stats_before;
  for (const std::string& t : kTenants)
    stats_before.push_back(server.GetStats(t));
  double heavy_queue_p99 = 0.0, heavy_compute_p99 = 0.0;
  bool in_heavy = false;
  auto before_rung = [&](const RungSpec& spec) {
    if (in_heavy) {
      heavy_queue_p99 = HistogramP99("serve.queue_wait_us");
      heavy_compute_p99 = HistogramP99("serve.compute_us");
    }
    in_heavy = spec.rate == kHeavyRate;
    if (in_heavy) {
      obs::GetHistogram("serve.queue_wait_us").Reset();
      obs::GetHistogram("serve.compute_us").Reset();
    }
  };
  const Ladder ladder =
      RunLadder(args, registry, server, setup, report, before_rung);

  uint64_t requests = 0, batches = 0, rejected = 0;
  for (size_t t = 0; t < kTenants.size(); ++t) {
    const auto now = server.GetStats(kTenants[t]);
    requests += now.requests - stats_before[t].requests;
    batches += now.batches - stats_before[t].batches;
    rejected += now.rejected - stats_before[t].rejected;
  }
  std::vector<double> submit_us, lag_ms, swap_us, light_ms;
  for (const RungResult* r : AllRungs(ladder)) {
    submit_us.insert(submit_us.end(), r->stats.submit_us.begin(),
                     r->stats.submit_us.end());
    lag_ms.insert(lag_ms.end(), r->stats.lag_ms.begin(),
                  r->stats.lag_ms.end());
    swap_us.insert(swap_us.end(), r->swap_us.begin(), r->swap_us.end());
  }
  for (const RungResult& r : ladder.light)
    light_ms.insert(light_ms.end(), r.stats.latency_ms.begin(),
                    r.stats.latency_ms.end());
  const double light_p50 = LightP50(ladder);
  const double untraced_p50 =
      Percentile(untraced_light.stats.latency_ms, 0.5).value_or(0.0);
  report->Set("obs.trace_overhead_frac",
              untraced_p50 > 0.0 ? light_p50 / untraced_p50 - 1.0 : 0.0);
  report->Set("serve.p90_ms_light", Percentile(light_ms, 0.9).value_or(0.0));
  report->Set("serve.p50_ms_light_last", SegmentP50(ladder.light.back()));
  // The heavy rung of the last climb (the one the histograms cover).
  for (const RungResult& r : ladder.climbs.back())
    if (r.rung.rate == kHeavyRate)
      report->Set("serve.p99_ms_heavy", r.rung.p99_ms.value_or(0.0));
  report->Set("serve.queue_wait_us_p99", heavy_queue_p99);
  report->Set("serve.compute_us_p99", heavy_compute_p99);
  report->Set("serve.batch_size_mean",
              batches > 0 ? static_cast<double>(requests) /
                                static_cast<double>(batches)
                          : 0.0);
  report->Set("serve.shed_share",
              requests + rejected > 0
                  ? static_cast<double>(rejected) /
                        static_cast<double>(requests + rejected)
                  : 0.0);
  report->Set("serve.submit_us", Median(submit_us));
  report->Set("serve.int8_agreement_pct", AgreementPct(ladder));
  report->Set("serve.registry.swap_us", Median(swap_us));
  report->Set("serve.registry.publish_ms", Median(setup.publish_ms));
  report->Set("bench.gen_lag_p99_ms", Percentile(lag_ms, 0.99).value_or(0.0));
  ReportObsShares(delta, report);

  for (size_t t = 0; t < kTenants.size(); ++t) {
    auto session = registry.AcquireVersion(kTenants[t], 1);
    const std::string suffix = t == 0 ? "_f32" : "_int8";
    report->Set("serve.session.us_per_row_short" + suffix,
                UsPerRow(*session, setup.queries, false));
    report->Set("serve.session.us_per_row_long" + suffix,
                UsPerRow(*session, setup.queries, true));
    if (t == 0) {
      text::EncodingCache no_memo(&session->vocab(),
                                  session->config().max_len, 0);
      size_t row = 0;
      report->Set("text.encode_us_per_row", MedianCallUs([&] {
                    no_memo.Encode(
                        setup.queries[row++ % setup.queries.size()]);
                  }));
    }
  }
  ProbeKernels(report);
}

}  // namespace perfbench
