// Closed-loop load generator for the serve path (DESIGN.md §10).
//
// Measures two ways of answering the same query stream with the same model
// on the same compute pool:
//
//   serial  — one client thread calling InferenceSession::PredictBatch with
//             a single text per call (batch size 1, the no-batching shape),
//   server  — ROTOM_SERVE_CLIENTS closed-loop client threads (default 8)
//             submitting single requests through a one-tenant
//             TenantServer, whose worker coalesces whatever is waiting into
//             one fused forward.
//
// Both modes run twice: once against the float model (published from its
// snapshot file, tenant `f32`) and once against an int8 model built by
// quantizing the same snapshot (DESIGN.md §12, tenant `int8`), so
// BENCH_serve.json carries the quantized-serving qps uplift
// (speedup_vs_f32_serial) next to the micro-batching speedup.
//
// A fifth window exercises the multi-tenant registry tier (DESIGN.md §13):
// three tenant models (`em`, `edt`, `cls`) behind one TenantServer, each
// published twice (v1 f32 via the mmap file path, v2 int8), with a swapper
// thread hot-swapping versions mid-run while the closed-loop clients keep
// submitting. The serve/tenants record in BENCH_serve.json carries the
// swap/reject/incorrect counts alongside qps.
//
// Every server response, in every window, is verified against labels
// computed up front on the published models (both versions for the swapped
// tenants). The bench exits non-zero if any response is rejected or
// incorrect, if fewer than two swaps landed, or if the global
// serve.queue_wait_us count differs from the summed per-tenant
// serve.tenant.<t>.latency_us counts (the two must cover the same requests
// for serve.queue_wait_share to mean anything).
//
// Each client is closed-loop: it submits one request, waits for the result,
// and immediately submits the next, so offered load tracks service rate and
// the measured quantity is steady-state throughput. The speedup column is
// the acceptance metric for this subsystem: micro-batching amortizes the
// fixed per-forward costs (tensor allocation, kernel dispatch, pool
// synchronization) across the co-batched requests, and — the dominant term
// on real hardware — lets the fused forward fan out across the compute
// pool, which a batch-1 forward cannot (its kernels fall below the pool's
// grain and run inline on one core).
//
// The speedup is therefore strongly hardware-dependent: on a multi-core
// host with ROTOM_NUM_THREADS >= 4 the batched server is expected to clear
// 3x; on a single-core container (this repo's CI pins affinity to one CPU)
// the fused forward is already at the arithmetic roofline at batch size 1,
// so only the per-forward dispatch overhead amortizes and the honest
// ceiling is ~1.3x. BENCH_serve.json records `cores` and `pool_threads`
// alongside the qps numbers so downstream tooling can interpret the ratio;
// see EXPERIMENTS.md "Serve bench". Every record also carries
// `tokens_per_request`: the real tokens its forwards ran per request (from
// serve.forward_tokens), the work basis a forward's cost scales with.
//
// Output: a console table plus BENCH_serve.json (rotom-bench-v2 schema; the
// metrics section carries the serve.tenant.<t>.* instruments, the
// serve.queue_wait_us / serve.compute_us / serve.batch_size histograms with
// interpolated percentiles, and the derived serve.reject_rate /
// serve.queue_wait_share ratios). The bench also runs the full serving
// observability surface under load: a serve flight recorder
// (serve_bench-p<pid>-*.jsonl next to BENCH_serve.json, readable with
// `rotom_inspect serve`) shared by every server and the registry, and a
// live /metrics listener on an ephemeral loopback port per server window.
//
// Environment:
//   ROTOM_SMOKE=1            short measurement windows
//   ROTOM_SERVE_SECONDS      seconds per measured window (default 4, smoke 1)
//   ROTOM_SERVE_CLIENTS      closed-loop client threads (default 8)
//   ROTOM_SERVE_MAX_BATCH    server coalescing bound (default 64)
//   ROTOM_SERVE_MIN_SPEEDUP_PCT  exit non-zero when speedup falls below this
//                            many percent of serial qps (50 = 0.50x; default
//                            0, i.e. report-only; CI smoke sets a floor)
//   ROTOM_NUM_THREADS        compute pool size (shared by both modes)
//   ROTOM_BENCH_DIR          output directory for BENCH_serve.json

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/exposition.h"
#include "rotom/api.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rotom {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Bench-scale servable model with seed-determined random weights.
// dim 128 (not the experiments' 32/64): the serving stand-in should be
// wide enough that per-layer GEMMs dominate the forward the way they do
// for the real 768-dim LMs, otherwise both the micro-batching and the
// int8 comparisons mostly measure per-request fixed costs.
serve::Snapshot MakeBenchSnapshot(uint64_t seed) {
  Rng rng(seed);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (int i = 0; i < 512; ++i) vocab->AddToken("tok" + std::to_string(i));
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

// Distinct query texts; clients cycle through the pool, so after warmup the
// encoding cache serves every text and both modes measure pure model cost.
std::vector<std::string> MakeQueryPool(size_t size) {
  Rng rng(13);
  std::vector<std::string> pool;
  pool.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    std::string text;
    const int64_t words = 6 + rng.UniformInt(6);
    for (int64_t w = 0; w < words; ++w) {
      if (!text.empty()) text += ' ';
      text += "tok" + std::to_string(rng.UniformInt(512));
    }
    pool.push_back(std::move(text));
  }
  return pool;
}

struct LoadResult {
  uint64_t requests = 0;
  double wall_seconds = 0.0;
  uint64_t rejected = 0;   // server responses that came back as an error
  uint64_t incorrect = 0;  // labels matching no published version
  uint64_t tokens = 0;     // real tokens the window's forwards ran
  double qps() const {
    return wall_seconds > 0.0 ? static_cast<double>(requests) / wall_seconds
                              : 0.0;
  }
  double tokens_per_request() const {
    return requests > 0 ? static_cast<double>(tokens) /
                              static_cast<double>(requests)
                        : 0.0;
  }
};

// Running total of real tokens through every session's forwards.
uint64_t ForwardTokens() {
  return obs::GetHistogram("serve.forward_tokens").Sum();
}

// Serial baseline: one thread, one request per PredictBatch call.
LoadResult RunSerial(const serve::InferenceSession& session,
                     const std::vector<std::string>& pool, double seconds) {
  LoadResult result;
  const uint64_t tokens_before = ForwardTokens();
  const double start = Now();
  const double deadline = start + seconds;
  size_t i = 0;
  while (Now() < deadline) {
    const std::string& text = pool[i++ % pool.size()];
    const auto predictions =
        session.PredictBatch(std::span<const std::string>(&text, 1));
    ROTOM_CHECK_EQ(predictions.size(), 1u);
    ++result.requests;
  }
  result.wall_seconds = Now() - start;
  result.tokens = ForwardTokens() - tokens_before;
  return result;
}

// Per-query labels of one published model version, computed up front.
using Labels = std::vector<int64_t>;

Labels LabelsOf(const serve::InferenceSession& session,
                const std::vector<std::string>& pool) {
  Labels labels;
  for (const auto& p : session.PredictBatch(pool)) labels.push_back(p.label);
  return labels;
}

// Closed-loop clients through a TenantServer, spread round-robin over
// `tenants`, each response checked against the tenant's up-front labels: a
// label must match `labels_v1[t]` or `labels_v2[t]` (the two versions a
// swapped tenant may be answered by; pass the same labels twice for an
// unswapped tenant). A correct server makes rejected == incorrect == 0:
// requests in flight across a swap finish on the version they pinned, and
// new batches pin the new version atomically.
LoadResult RunServer(serve::TenantServer& server,
                     const std::vector<std::string>& tenants,
                     const std::vector<Labels>& labels_v1,
                     const std::vector<Labels>& labels_v2,
                     const std::vector<std::string>& pool, int64_t clients,
                     double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0}, rejected{0}, incorrect{0};
  std::vector<std::thread> threads;
  const uint64_t tokens_before = ForwardTokens();
  const double start = Now();
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const size_t t = static_cast<size_t>(c) % tenants.size();
      size_t i = static_cast<size_t>(c) * 17;  // de-phase the clients
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = i++ % pool.size();
        auto prediction = server.Predict(tenants[t], pool[q]);
        if (!prediction.ok()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else if (prediction.value().label != labels_v1[t][q] &&
                   prediction.value().label != labels_v2[t][q]) {
          incorrect.fetch_add(1, std::memory_order_relaxed);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  LoadResult result;
  result.wall_seconds = Now() - start;
  result.requests = completed.load();
  result.rejected = rejected.load();
  result.incorrect = incorrect.load();
  result.tokens = ForwardTokens() - tokens_before;
  return result;
}

int Main() {
  const bool smoke = bench::Smoke();
  const double seconds = static_cast<double>(
      bench::EnvInt("ROTOM_SERVE_SECONDS", smoke ? 1 : 4));
  const int64_t clients = bench::EnvInt("ROTOM_SERVE_CLIENTS", 8);
  const int64_t max_batch = bench::EnvInt("ROTOM_SERVE_MAX_BATCH", 64);
  const double min_speedup =
      static_cast<double>(bench::EnvInt("ROTOM_SERVE_MIN_SPEEDUP_PCT", 0)) /
      100.0;

  // Serve flight recorder, shared by every server window and the registry
  // (so `swap` events interleave with the request stream they redirect).
  // The JSONL lands next to BENCH_serve.json; inspect it with
  // `rotom_inspect serve <file>`. Sampling 1-in-256 keeps the recorder's
  // write amplification invisible at bench qps.
  const char* bench_dir = std::getenv("ROTOM_BENCH_DIR");
  obs::ServeLogOptions servelog_options;
  servelog_options.dir = bench_dir != nullptr && bench_dir[0] != '\0'
                             ? bench_dir
                             : ".";
  servelog_options.tag = "serve_bench";
  servelog_options.sample = 256;
  std::shared_ptr<obs::ServeLog> servelog = obs::ServeLog::Open(
      servelog_options);
  if (servelog != nullptr)
    std::printf("servelog: %s\n", servelog->path().c_str());

  // `kill -USR1 <pid>` dumps the Prometheus exposition to
  // ROTOM_OBS_SNAPSHOT; a no-op when the variable is unset.
  obs::InstallSnapshotSignalHandler();

  // Every model the bench serves lives in one registry. Each tenant's v1 is
  // f32, loaded through the Snapshot::LoadMapped file path (the deployment
  // shape); the `int8` tenant and every v2 are QuantizeSnapshot outputs
  // published in memory (mirroring the offline rotom_quantize flow).
  // Training quality is irrelevant to throughput, so the weights stay at
  // their random initialization.
  serve::ModelRegistry::Options registry_options;
  registry_options.servelog = servelog;  // swap events join the same stream
  serve::ModelRegistry registry(registry_options);
  auto publish_file = [&](const std::string& name,
                          const serve::Snapshot& snapshot) -> Status {
    const std::string path =
        bench::BenchJsonPath("rotom_serve_bench_" + name + ".rsnap");
    if (Status s = snapshot.Save(path); !s.ok()) return s;
    auto version = registry.Publish(name, path);
    std::remove(path.c_str());
    return version.status();
  };
  auto publish_int8 = [&](const std::string& name,
                          const serve::Snapshot& snapshot) -> Status {
    auto quantized = serve::QuantizeSnapshot(snapshot);
    if (!quantized.ok()) return quantized.status();
    return registry.Publish(name, quantized.value()).status();
  };
  const serve::Snapshot model = MakeBenchSnapshot(7);
  Status published = publish_file("f32", model);
  if (published.ok()) published = publish_int8("int8", model);
  const std::vector<std::string> tenant_names = {"em", "edt", "cls"};
  for (size_t t = 0; t < tenant_names.size() && published.ok(); ++t) {
    const serve::Snapshot snapshot = MakeBenchSnapshot(7 + t);
    published = publish_file(tenant_names[t], snapshot);
    if (published.ok()) published = publish_int8(tenant_names[t], snapshot);
  }
  if (!published.ok()) {
    std::fprintf(stderr, "rotom_serve_bench: %s\n",
                 published.message().c_str());
    return 1;
  }

  // Ground-truth labels, computed on directly pinned sessions before any
  // traffic flows. This also warms the encoding caches and the buffer pool
  // outside the windows so every mode measures steady state.
  const std::vector<std::string> pool = MakeQueryPool(256);
  const auto f32_session = registry.Acquire("f32");
  const auto int8_session = registry.Acquire("int8");
  const Labels f32_labels = LabelsOf(*f32_session, pool);
  const Labels int8_labels = LabelsOf(*int8_session, pool);
  std::vector<Labels> labels_v1, labels_v2;
  for (const std::string& name : tenant_names) {
    labels_v1.push_back(LabelsOf(*registry.AcquireVersion(name, 1), pool));
    labels_v2.push_back(LabelsOf(*registry.AcquireVersion(name, 2), pool));
  }

  bench::PrintTitle(
      "serve: micro-batching and int8 vs f32 serial (BENCH_serve.json)");
  bench::PrintHeader("mode", {"threads", "qps", "speedup"});

  serve::TenantServer::Options server_options;
  server_options.max_batch = max_batch;
  server_options.max_delay_us = 200;
  server_options.queue_capacity = 1024;
  server_options.servelog = servelog;
  // Live scrape endpoint on an ephemeral port, held open for the window's
  // duration: the bench doubles as an integration check that the listener
  // costs nothing measurable next to the serving work.
  server_options.obs_http.enabled = true;
  server_options.obs_http.port = 0;

  // One closed-loop window through a one-tenant server for `tenant`.
  auto run_one_tenant = [&](const std::string& tenant, const Labels& labels,
                            serve::TenantServer::Stats* stats) {
    serve::TenantServer server(&registry, {tenant}, server_options);
    if (server.obs_http_port() != 0)
      std::printf("obs http: 127.0.0.1:%d/metrics\n", server.obs_http_port());
    const LoadResult result =
        RunServer(server, {tenant}, {labels}, {labels}, pool, clients,
                  seconds);
    server.Shutdown();
    *stats = server.GetStats(tenant);
    return result;
  };

  // Four closed-loop windows over the same query pool: {serial, batched
  // server} x {f32, int8}. Every speedup column is relative to the f32
  // serial baseline, so the table reads as "what does each optimization buy
  // on this host".
  const LoadResult serial = RunSerial(*f32_session, pool, seconds);
  bench::PrintRow("serial f32", {1.0, serial.qps(), 1.0});

  serve::TenantServer::Stats stats;
  const LoadResult batched = run_one_tenant("f32", f32_labels, &stats);
  const double speedup =
      serial.qps() > 0.0 ? batched.qps() / serial.qps() : 0.0;
  bench::PrintRow("server f32",
                  {static_cast<double>(clients), batched.qps(), speedup});

  const LoadResult qserial = RunSerial(*int8_session, pool, seconds);
  const double qserial_speedup =
      serial.qps() > 0.0 ? qserial.qps() / serial.qps() : 0.0;
  bench::PrintRow("serial int8", {1.0, qserial.qps(), qserial_speedup});

  serve::TenantServer::Stats qstats;
  const LoadResult qbatched = run_one_tenant("int8", int8_labels, &qstats);
  const double qbatched_speedup =
      serial.qps() > 0.0 ? qbatched.qps() / serial.qps() : 0.0;
  bench::PrintRow("server int8",
                  {static_cast<double>(clients), qbatched.qps(),
                   qbatched_speedup});
  std::printf("mean coalesced batch: f32 %.1f, int8 %.1f requests/forward; "
              "int8 serial %.2fx f32 serial\n",
              stats.batches > 0 ? static_cast<double>(stats.requests) /
                                      static_cast<double>(stats.batches)
                                : 0.0,
              qstats.batches > 0 ? static_cast<double>(qstats.requests) /
                                       static_cast<double>(qstats.batches)
                                 : 0.0,
              qserial_speedup);

  // Mixed-tenant window: the three tenants behind one server while a
  // swapper thread paces four swap events inside the window — each tenant
  // is moved to its int8 version in turn, then the first is moved back.
  serve::TenantServer tenant_server(&registry, tenant_names, server_options);
  std::atomic<uint64_t> swaps{0};
  std::thread swapper([&] {
    for (int e = 0; e < 4; ++e) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 5));
      const std::string& name =
          tenant_names[static_cast<size_t>(e) % tenant_names.size()];
      if (registry.Swap(name, e < 3 ? 2 : 1).ok())
        swaps.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const LoadResult tenants = RunServer(tenant_server, tenant_names, labels_v1,
                                       labels_v2, pool, clients, seconds);
  swapper.join();
  tenant_server.Shutdown();
  const double tenant_speedup =
      serial.qps() > 0.0 ? tenants.qps() / serial.qps() : 0.0;
  bench::PrintRow("tenants mixed",
                  {static_cast<double>(clients), tenants.qps(),
                   tenant_speedup});
  std::printf("tenant window: %zu tenants, %llu hot-swaps mid-run, "
              "%llu rejected, %llu incorrect\n",
              tenant_names.size(),
              static_cast<unsigned long long>(swaps.load()),
              static_cast<unsigned long long>(tenants.rejected),
              static_cast<unsigned long long>(tenants.incorrect));

  // Record schema: `op`/`threads`/`steps_per_sec` (= qps) are the identity
  // and rate keys scripts/check_bench_regress.sh gates on; `mode`,
  // `precision`, and the qps/speedup fields are the human-facing view.
  const int64_t cores =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  bench::JsonWriter json;
  auto record = [&](const char* op, const char* mode, const char* precision,
                    int64_t threads, int64_t batch, const LoadResult& r) ->
      bench::JsonWriter& {
    return json.Field("op", op)
        .Field("mode", mode)
        .Field("precision", precision)
        .Field("threads", threads)
        .Field("max_batch", batch)
        .Field("cores", cores)
        .Field("pool_threads", static_cast<int64_t>(ComputeThreads()))
        .Field("requests", static_cast<int64_t>(r.requests))
        .Field("wall_seconds", r.wall_seconds)
        .Field("qps", r.qps())
        .Field("steps_per_sec", r.qps())
        .Field("tokens_per_request", r.tokens_per_request());
  };
  record("serve/serial", "serial", "f32", 1, 1, serial);
  json.EndRecord();
  record("serve/server", "server", "f32", clients, max_batch, batched)
      .Field("speedup_vs_serial", speedup)
      .Field("fused_forwards", static_cast<int64_t>(stats.batches))
      .Field("rejected", static_cast<int64_t>(batched.rejected))
      .Field("incorrect", static_cast<int64_t>(batched.incorrect));
  json.EndRecord();
  record("serve/serial_int8", "serial", "int8", 1, 1, qserial)
      .Field("speedup_vs_f32_serial", qserial_speedup);
  json.EndRecord();
  record("serve/server_int8", "server", "int8", clients, max_batch, qbatched)
      .Field("speedup_vs_f32_serial", qbatched_speedup)
      .Field("fused_forwards", static_cast<int64_t>(qstats.batches))
      .Field("rejected", static_cast<int64_t>(qbatched.rejected))
      .Field("incorrect", static_cast<int64_t>(qbatched.incorrect));
  json.EndRecord();
  record("serve/tenants", "tenants", "mixed", clients, max_batch, tenants)
      .Field("tenants", static_cast<int64_t>(tenant_names.size()))
      .Field("swaps", static_cast<int64_t>(swaps.load()))
      .Field("rejected", static_cast<int64_t>(tenants.rejected))
      .Field("incorrect", static_cast<int64_t>(tenants.incorrect))
      .Field("speedup_vs_f32_serial", tenant_speedup);
  json.EndRecord();
  json.CaptureMetrics();
  const std::string out = bench::BenchJsonPath("BENCH_serve.json");
  if (!json.WriteFile(out)) {
    std::fprintf(stderr, "rotom_serve_bench: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "rotom_serve_bench: speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  // Correctness is unconditional: a server that rejects or mis-serves
  // requests (during a swap or otherwise) is broken regardless of
  // throughput.
  int failed = 0;
  for (const auto& [name, r] : {std::pair<const char*, const LoadResult&>{
                                    "server f32", batched},
                                {"server int8", qbatched},
                                {"tenants mixed", tenants}}) {
    if (r.rejected == 0 && r.incorrect == 0) continue;
    std::fprintf(stderr,
                 "rotom_serve_bench: %s window failed (rejected=%llu "
                 "incorrect=%llu; need zero)\n",
                 name, static_cast<unsigned long long>(r.rejected),
                 static_cast<unsigned long long>(r.incorrect));
    failed = 1;
  }
  if (swaps.load() < 2) {
    std::fprintf(stderr,
                 "rotom_serve_bench: only %llu hot-swaps landed (need >=2)\n",
                 static_cast<unsigned long long>(swaps.load()));
    failed = 1;
  }
  // serve.queue_wait_share divides the queue-wait sum by the summed tenant
  // latency sums; both must count exactly the same requests.
  const obs::SnapshotData snapshot = obs::Snapshot();
  uint64_t queue_wait_count = 0;
  for (const obs::MetricSnapshot& m : snapshot.metrics)
    if (m.name == "serve.queue_wait_us") queue_wait_count = m.count;
  const uint64_t latency_count = bench::SumServeTenants(snapshot).latency_count;
  if (queue_wait_count != latency_count) {
    std::fprintf(stderr,
                 "rotom_serve_bench: serve.queue_wait_us counts %llu "
                 "requests but serve.tenant.*.latency_us count %llu\n",
                 static_cast<unsigned long long>(queue_wait_count),
                 static_cast<unsigned long long>(latency_count));
    failed = 1;
  }
  return failed;
}

}  // namespace
}  // namespace rotom

int main() { return rotom::Main(); }
