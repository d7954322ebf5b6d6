// Streaming data-path bench (DESIGN.md §14): trains the same tiny
// classifier over a CSV corpus two ways — materialized (load every row,
// epoch loop) and streamed (CsvFileSource -> ShuffleBuffer, step-budgeted)
// — at 1x / 4x / 16x corpus scale, with an equal step budget per scale
// (one materialized epoch's worth of steps). Two claims are measured:
//
//   throughput  streamed steps/sec stays within noise of materialized —
//               the pull-based pipeline adds no per-step cost;
//   footprint   streamed peak RSS is flat in corpus size (the resident set
//               is the shuffle buffer + encoding cache of the rows actually
//               touched), while materialized grows with every scale.
//
// Each (mode, scale) cell runs in a fresh child process (the binary
// re-execs itself with --scenario) so VmHWM readings are not contaminated
// by a previous cell's allocations; the parent aggregates the RESULT lines
// into the table and BENCH_stream.json.
//
// Machine-readable output: BENCH_stream.json (rotom-bench-v2), one record
// per mode x scale; steps_per_sec is gated by check_bench_regress.sh,
// rss_mb (VmHWM) and rss_delta_mb (VmRSS growth across load+train) ride
// along for the footprint claim.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "core/finetune.h"
#include "data/dataset.h"
#include "data/loader.h"
#include "models/classifier.h"
#include "stream/csv_source.h"
#include "stream/stream.h"
#include "text/vocab.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {
using namespace rotom;         // NOLINT
using namespace rotom::bench;  // NOLINT

constexpr int64_t kBatch = 16;
constexpr int64_t kValidRows = 32;  // fixed-size eval split at every scale

const char* const kNouns[] = {"battery", "screen", "sound", "design", "price"};
const char* const kPos[] = {"great", "fantastic", "excellent", "wonderful"};
const char* const kNeg[] = {"terrible", "boring", "awful", "disappointing"};

std::string MakeRow(Rng& rng, bool positive) {
  const char* const* bank = positive ? kPos : kNeg;
  std::string text = std::string("the ") + kNouns[rng.UniformInt(5)] +
                     " was " + bank[rng.UniformInt(4)] + " and the " +
                     kNouns[rng.UniformInt(5)] + " seemed " +
                     bank[rng.UniformInt(4)];
  return text;
}

void WriteCorpus(const std::string& path, int64_t rows, uint64_t seed) {
  std::ofstream out(path);
  out << "text,label\n";
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    const bool positive = i % 2 == 0;
    out << MakeRow(rng, positive) << ","
        << (positive ? "positive" : "negative") << "\n";
  }
}

// The corpus vocabulary is the generator's word bank — constant across
// scales, so vocabulary construction never shows up in the scaling curves.
std::shared_ptr<text::Vocabulary> BankVocab() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w : {"the", "was", "and", "seemed"}) vocab->AddToken(w);
  for (const char* w : kNouns) vocab->AddToken(w);
  for (const char* w : kPos) vocab->AddToken(w);
  for (const char* w : kNeg) vocab->AddToken(w);
  return vocab;
}

models::ClassifierConfig BenchConfig() {
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 16;
  config.dim = 32;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 64;
  config.dropout = 0.1f;
  return config;
}

double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      double kb = 0.0;
      std::sscanf(line.c_str() + std::strlen(key), ": %lf", &kb);
      return kb;
    }
  }
  return 0.0;
}

// ---- child: one (mode, scale) measurement ----

int RunScenario(const std::string& mode, const std::string& csv,
                int64_t steps) {
  const double rss_before_mb = StatusKb("VmRSS") / 1024.0;

  Rng rng(1);
  auto vocab = BankVocab();
  models::TransformerClassifier model(BenchConfig(), vocab, rng);

  core::FinetuneOptions options;
  options.batch_size = kBatch;
  options.seed = 1;

  data::TaskDataset ds;
  ds.name = "stream-bench";
  ds.num_classes = 2;
  if (mode == "materialized") {
    // Load every row up front (the classic path), train one epoch — the
    // step budget `steps` is exactly ceil(rows / batch).
    auto rows = data::LoadTextClsCsv(csv, "text", "label", nullptr);
    if (!rows.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   rows.status().message().c_str());
      return 1;
    }
    ds.train = std::move(rows).value();
    ds.valid.assign(ds.train.begin(), ds.train.begin() + kValidRows);
    options.epochs = 1;
  } else {
    // Stream the same file; only the shuffle buffer and the touched rows'
    // encodings are ever resident. The eval split is the same fixed-size
    // prefix, pulled through a throwaway source.
    auto labels = std::make_shared<stream::LabelTable>();
    auto head = stream::CsvFileSource::Open(csv, {}, labels);
    if (!head.ok()) return 1;
    for (int64_t i = 0; i < kValidRows; ++i) {
      auto e = head.value()->Next();
      if (!e.ok()) return 1;
      ds.valid.push_back(std::move(e).value());
    }
    auto source = stream::CsvFileSource::Open(csv, {}, labels);
    if (!source.ok()) return 1;
    options.pipeline.streaming.source = std::make_shared<stream::ShuffleBuffer>(
        std::move(source).value(), /*capacity=*/256, /*seed=*/1);
    options.pipeline.streaming.max_steps = steps;
    options.pipeline.streaming.valid_every = steps;  // one final round
  }

  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  const auto result =
      trainer.Train(ds, [](const std::string& s, Rng&) { return s; });

  const double rss_after_mb = StatusKb("VmRSS") / 1024.0;
  const double hwm_mb = StatusKb("VmHWM") / 1024.0;
  std::printf("RESULT steps=%" PRId64 " wall=%.6f hwm_mb=%.2f delta_mb=%.2f\n",
              result.steps, result.seconds, hwm_mb,
              rss_after_mb - rss_before_mb);
  return 0;
}

// ---- parent: drive the grid, aggregate, emit the JSON ----

struct Cell {
  int64_t steps = 0;
  double wall = 0.0;
  double hwm_mb = 0.0;
  double delta_mb = 0.0;
};

bool RunChild(const std::string& mode, const std::string& csv, int64_t steps,
              Cell* cell) {
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return false;
  self[n] = '\0';
  std::string command = std::string("\"") + self + "\" --scenario " + mode +
                        " \"" + csv + "\" " + std::to_string(steps);
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  char line[512];
  bool got = false;
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    if (std::sscanf(line,
                    "RESULT steps=%" SCNd64 " wall=%lf hwm_mb=%lf "
                    "delta_mb=%lf",
                    &cell->steps, &cell->wall, &cell->hwm_mb,
                    &cell->delta_mb) == 4) {
      got = true;
    }
  }
  return pclose(pipe) == 0 && got;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 5 && std::string(argv[1]) == "--scenario") {
    return RunScenario(argv[2], argv[3], std::atoll(argv[4]));
  }

  const int64_t base_rows = Smoke() ? 240 : 2400;
  const std::vector<int64_t> scales = {1, 4, 16};
  const int64_t threads = ComputeThreads();

  char tmpl[] = "/tmp/rotom_bench_stream_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  JsonWriter json;
  PrintTitle("Streaming vs materialized data path");
  PrintHeader("mode@scale", {"rows", "steps", "steps/sec", "peakRSS MB",
                             "dRSS MB"});

  double streamed_hwm_1x = 0.0, streamed_hwm_16x = 0.0;
  bool all_ok = true;
  for (int64_t scale : scales) {
    const int64_t rows = base_rows * scale;
    const std::string csv =
        std::string(dir) + "/corpus_" + std::to_string(scale) + "x.csv";
    WriteCorpus(csv, rows, /*seed=*/7);
    // Equal step budget for both modes: one materialized epoch's worth.
    const int64_t steps = (rows + kBatch - 1) / kBatch;
    for (const char* mode : {"materialized", "streamed"}) {
      Cell cell;
      if (!RunChild(mode, csv, steps, &cell)) {
        std::fprintf(stderr, "scenario %s@%" PRId64 "x failed\n", mode, scale);
        all_ok = false;
        continue;
      }
      const double rate = cell.wall > 0.0 ? cell.steps / cell.wall : 0.0;
      PrintRow(std::string(mode) + "@" + std::to_string(scale) + "x",
               {static_cast<double>(rows), static_cast<double>(cell.steps),
                rate, cell.hwm_mb, cell.delta_mb});
      json.Field("op", std::string("Stream/") + mode + "@" +
                           std::to_string(scale) + "x")
          .Field("threads", threads)
          .Field("pipeline", true)
          .Field("wall_seconds", cell.wall)
          .Field("steps_per_sec", rate)
          .Field("rss_mb", cell.hwm_mb)
          .Field("rss_delta_mb", cell.delta_mb);
      json.EndRecord();
      if (std::string(mode) == "streamed") {
        if (scale == 1) streamed_hwm_1x = cell.hwm_mb;
        if (scale == 16) streamed_hwm_16x = cell.hwm_mb;
      }
      std::remove((csv + ".runlog").c_str());
    }
    std::remove(csv.c_str());
  }
  rmdir(dir);

  const std::string path = BenchJsonPath("BENCH_stream.json");
  if (!json.WriteFile(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  if (streamed_hwm_1x > 0.0) {
    std::printf(
        "\nstreamed peak RSS at 16x is %.2fx the 1x footprint "
        "(flat-footprint target: <= 1.2x)\n",
        streamed_hwm_16x / streamed_hwm_1x);
  }
  std::printf(
      "Equal step budget per scale (one materialized epoch); each cell runs\n"
      "in a fresh child process so VmHWM readings are independent. Wrote %zu\n"
      "records to %s\n",
      json.size(), path.c_str());
  return all_ok ? 0 : 1;
}
