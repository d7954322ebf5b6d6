// Contracts of the trainers' shared step loop (core/train_loop.h) that no
// loss trajectory shows: the non-empty valid split it requires in both
// modes, what a streaming run records per step and per round — one
// `stream.stall_us` sample per step, one checkpoint write and one run-log
// `stream_state` event per validation round — and that the stream source
// augments each draw afresh.

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/finetune.h"
#include "core/rotom_trainer.h"
#include "obs/metrics.h"
#include "stream/stream.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

namespace rotom {
namespace {

std::shared_ptr<text::Vocabulary> TaskVocab() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w : {"the", "movie", "was", "great", "terrible", "really",
                        "a", "good", "bad", "boring"})
    vocab->AddToken(w);
  return vocab;
}

models::ClassifierConfig TinyConfig() {
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 8;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  return config;
}

std::vector<data::Example> Examples() {
  return {{"the movie was great", 1}, {"really good movie", 1},
          {"the movie was terrible", 0}, {"a boring bad movie", 0}};
}

data::TaskDataset TinyTask() {
  data::TaskDataset ds;
  ds.name = "tiny";
  ds.num_classes = 2;
  ds.train = Examples();
  ds.valid = ds.train;
  ds.test = ds.train;
  return ds;
}

std::string DuplicateToken(const std::string& input, Rng& rng) {
  auto tokens = text::Tokenize(input);
  if (tokens.empty()) return input;
  const size_t i = rng.UniformInt(static_cast<int64_t>(tokens.size()));
  tokens.insert(tokens.begin() + i, tokens[i]);
  return text::Detokenize(tokens);
}

class ThreadGuard {
 public:
  explicit ThreadGuard(int n) { SetComputeThreads(n); }
  ~ThreadGuard() { SetComputeThreads(0); }
};

TEST(TrainLoopDeathTest, EpochFinetuneRequiresValidSplit) {
  // An empty valid split scores 0 every epoch, so best-weights selection
  // would silently keep the first epoch's weights.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(3);
  models::TransformerClassifier model(TinyConfig(), TaskVocab(), rng);
  core::FinetuneOptions options;
  options.epochs = 2;
  options.batch_size = 2;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  data::TaskDataset ds = TinyTask();
  ds.valid.clear();
  EXPECT_DEATH(trainer.Train(ds), "non-empty valid split");
}

// One streaming run: 7 steps in rounds of 3 (the last one partial), with a
// checkpoint and a run log.
core::StreamingOptions StreamOptions(const std::string& name) {
  core::StreamingOptions streaming;
  streaming.source = std::make_shared<stream::VectorSource>("v", Examples());
  streaming.max_steps = 7;
  streaming.valid_every = 3;
  streaming.checkpoint_path = ::testing::TempDir() + "/" + name + ".ckpt";
  return streaming;
}

// Counts the run log's events of one kind.
int64_t CountEvents(const std::string& path, const std::string& event) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  const std::string needle = "\"event\": \"" + event + "\"";
  int64_t count = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find(needle) != std::string::npos) ++count;
  }
  return count;
}

void ExpectPerStepAndPerRoundRecords(
    const std::function<core::TrainResult()>& run) {
#ifdef ROTOM_METRICS_DISABLED
  GTEST_SKIP() << "built with ROTOM_DISABLE_METRICS";
#endif
  if (!obs::Enabled()) GTEST_SKIP() << "metrics switched off";
  obs::Histogram& stall = obs::GetHistogram("stream.stall_us");
  obs::Counter& writes = obs::GetCounter("stream.checkpoint.writes");
  const uint64_t stall_before = stall.Count();
  const uint64_t writes_before = writes.Value();
  const core::TrainResult result = run();
  ASSERT_EQ(result.steps, 7);
  ASSERT_EQ(result.epochs_run, 3);
  EXPECT_EQ(stall.Count() - stall_before, 7u);
  EXPECT_EQ(writes.Value() - writes_before, 3u);
  ASSERT_FALSE(result.runlog_path.empty());
  EXPECT_EQ(CountEvents(result.runlog_path, "stream_state"), 3);
  EXPECT_EQ(CountEvents(result.runlog_path, "epoch"), 3);
  std::remove(result.runlog_path.c_str());
}

TEST(TrainLoopTest, StreamFinetuneRecordsPerStepAndPerRound) {
  ThreadGuard guard(2);
  ExpectPerStepAndPerRoundRecords([] {
    Rng rng(3);
    models::TransformerClassifier model(TinyConfig(), TaskVocab(), rng);
    core::FinetuneOptions options;
    options.batch_size = 2;
    options.aug_mode = core::AugMode::kReplace;
    options.pipeline.streaming = StreamOptions("loop_finetune");
    options.pipeline.runlog_dir = ::testing::TempDir() + "/loop_runlog";
    core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy,
                                  options);
    return trainer.Train(TinyTask(), DuplicateToken);
  });
}

TEST(TrainLoopTest, StreamRotomRecordsPerStepAndPerRound) {
  ThreadGuard guard(2);
  ExpectPerStepAndPerRoundRecords([] {
    Rng rng(3);
    models::TransformerClassifier model(TinyConfig(), TaskVocab(), rng);
    core::RotomOptions options;
    options.batch_size = 3;
    options.augments_per_example = 2;
    options.pipeline.streaming = StreamOptions("loop_rotom");
    options.pipeline.runlog_dir = ::testing::TempDir() + "/loop_runlog";
    core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
    return trainer.Train(TinyTask(), [](const std::string& s, Rng& r) {
      return std::vector<std::string>{DuplicateToken(s, r)};
    });
  });
}

TEST(TrainLoopTest, StreamSourceAugmentsEveryPassAfresh) {
  // Augmentations are seeded by the global draw index, not by the example:
  // a second pass over the same source example draws a fresh augmentation
  // rather than a repeat of the first pass (SOTASTREAM's on-the-fly
  // augmentation). The augmenter runs on compute-pool workers.
  ThreadGuard guard(2);
  std::mutex mu;
  std::map<std::string, std::set<std::string>> seen;  // source -> augments
  Rng rng(3);
  models::TransformerClassifier model(TinyConfig(), TaskVocab(), rng);
  core::FinetuneOptions options;
  options.batch_size = 2;
  options.aug_mode = core::AugMode::kReplace;
  options.pipeline.streaming = StreamOptions("loop_redraw");
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  const core::TrainResult result =
      trainer.Train(TinyTask(), [&](const std::string& s, Rng& r) {
        std::string augmented = DuplicateToken(s, r);
        std::lock_guard<std::mutex> lock(mu);
        seen[s].insert(augmented);
        return augmented;
      });
  // 7 steps of 2 draws cycle 3.5 times over the 4 source examples.
  ASSERT_EQ(result.steps, 7);
  ASSERT_EQ(seen.size(), Examples().size());
  for (const auto& [source, augmented] : seen) {
    if (augmented.size() > 1) return;
  }
  FAIL() << "every pass repeated the first pass's augmentations";
}

}  // namespace
}  // namespace rotom
