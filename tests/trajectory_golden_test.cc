// Absolute training trajectories of both trainers, pinned bit for bit.
// Every other determinism test compares two configurations of the current
// code with each other; these goldens compare the current code with
// recorded runs, so a refactor of the training loop that shifts one Rng
// draw, one shuffle or one meta-update fails here even when it shifts every
// configuration alike.
//
// f32 results differ across SIMD flavors (kernels.h) and across
// optimization levels (the -O2 RelWithDebInfo trees the sanitizer sweeps
// build round differently from -O3 Release), so the table is keyed by
// "<kernels::SimdFlavorName()>/<CMAKE_BUILD_TYPE>"; a build with no entry
// skips with a message. On a mismatch the test prints the observed table
// rows, ready to paste, so a deliberate trajectory change can be
// re-recorded.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/finetune.h"
#include "core/rotom_trainer.h"
#include "stream/stream.h"
#include "tensor/kernels.h"
#include "text/tokenizer.h"

namespace rotom {
namespace {

std::shared_ptr<text::Vocabulary> TaskVocab() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w :
       {"the", "movie", "was", "great", "terrible", "really", "a", "not",
        "good", "bad", "boring", "fantastic", "product", "awful", "fine"})
    vocab->AddToken(w);
  return vocab;
}

models::ClassifierConfig TinyConfig() {
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 10;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.1f;
  return config;
}

std::vector<data::Example> PosExamples() {
  return {{"the movie was great", 1},   {"really great movie", 1},
          {"a fantastic movie", 1},     {"the product was good", 1},
          {"good good movie", 1},       {"really fine product", 1}};
}

std::vector<data::Example> NegExamples() {
  return {{"the movie was terrible", 0}, {"really bad movie", 0},
          {"a boring movie", 0},         {"the product was awful", 0},
          {"bad bad movie", 0},          {"really awful product", 0}};
}

data::TaskDataset TinyTask() {
  data::TaskDataset ds;
  ds.name = "tiny";
  ds.num_classes = 2;
  for (const auto& e : PosExamples()) ds.train.push_back(e);
  for (const auto& e : NegExamples()) ds.train.push_back(e);
  ds.valid = ds.train;
  ds.test = {{"the movie was fantastic", 1}, {"a terrible movie", 0}};
  for (const auto& e : ds.train) ds.unlabeled.push_back(e.text);
  ds.unlabeled.push_back("really great product");
  ds.unlabeled.push_back("a bad boring movie");
  return ds;
}

std::string DuplicateToken(const std::string& input, Rng& rng) {
  auto tokens = text::Tokenize(input);
  if (tokens.empty()) return input;
  const size_t i = rng.UniformInt(static_cast<int64_t>(tokens.size()));
  tokens.insert(tokens.begin() + i, tokens[i]);
  return text::Detokenize(tokens);
}

std::vector<std::string> TwoDuplicates(const std::string& s, Rng& r) {
  return {DuplicateToken(s, r), DuplicateToken(s, r)};
}

// The streaming pipeline of stream_test: a weighted mix of two vector
// sources behind a shuffle buffer.
std::shared_ptr<stream::ExampleStream> MixOfTwoStream() {
  std::vector<std::unique_ptr<stream::ExampleStream>> children;
  children.push_back(
      std::make_unique<stream::VectorSource>("pos", PosExamples()));
  children.push_back(
      std::make_unique<stream::VectorSource>("neg", NegExamples()));
  auto mix = stream::Mix::Create(std::move(children), {1.0, 1.0}, 21);
  EXPECT_TRUE(mix.ok());
  return std::make_shared<stream::ShuffleBuffer>(std::move(mix).value(),
                                                 /*capacity=*/8, 22);
}

core::TrainResult RunEpochFinetune(core::AugMode mode) {
  Rng rng(7);
  models::TransformerClassifier model(TinyConfig(), TaskVocab(), rng);
  core::FinetuneOptions options;
  options.epochs = 3;
  options.batch_size = 4;
  options.aug_mode = mode;
  options.seed = 5;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  return trainer.Train(TinyTask(), DuplicateToken);
}

core::RotomOptions EpochRotomOptions() {
  core::RotomOptions options;
  options.epochs = 2;
  options.batch_size = 4;
  options.augments_per_example = 2;
  options.seed = 5;
  return options;
}

core::TrainResult RunRotom(const core::RotomOptions& options,
                           const core::CandidateGenerator& candidates) {
  Rng rng(11);
  models::TransformerClassifier model(TinyConfig(), TaskVocab(), rng);
  core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  return trainer.Train(TinyTask(), candidates);
}

core::TrainResult RunStreamFinetune() {
  Rng rng(7);
  models::TransformerClassifier model(TinyConfig(), TaskVocab(), rng);
  core::FinetuneOptions options;
  options.batch_size = 4;
  options.aug_mode = core::AugMode::kReplace;
  options.seed = 5;
  options.pipeline.streaming.source = MixOfTwoStream();
  options.pipeline.streaming.max_steps = 9;
  options.pipeline.streaming.valid_every = 3;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  return trainer.Train(TinyTask(), DuplicateToken);
}

core::RotomOptions StreamRotomOptions() {
  core::RotomOptions options;
  options.batch_size = 6;
  options.augments_per_example = 2;
  options.seed = 5;
  options.pipeline.streaming.source = MixOfTwoStream();
  options.pipeline.streaming.max_steps = 8;
  options.pipeline.streaming.valid_every = 4;
  return options;
}

// One recorded trajectory: `best` is the bit pattern of best_valid_metric
// (double), `losses` the space-separated bit patterns of loss_history
// (float), all in hex.
struct Golden {
  const char* build;
  const char* name;
  const char* best;
  const char* losses;
};

const std::vector<Golden> kGoldens = {
    {"avx2/Release", "epoch/finetune/none", "4050aaaaaaaaaaaa",
     "3f834b77 3f116d3b 3f438ccf 3f51a89e 3f34c0a0 3f040fa1 3f074d79 3fb400a8 3f9427cb"},
    {"avx2/Release", "epoch/finetune/replace", "4049000000000000",
     "3f8472fe 3f315dd6 3f4dfd91 3f3abb72 3f51c05d 3f3c0c97 3f043e0f 3f61aeaf 3f8202f7"},
    {"avx2/Release", "epoch/finetune/mixda", "4050aaaaaaaaaaaa",
     "3f3ab9c2 3f3b9021 3f711d98 3f5fc492 3f0a4a09 3f429621 3f05beb8 3f2ef73a 3f0f72fe"},
    {"avx2/Release", "epoch/rotom/default", "4049000000000000",
     "3f3283fe 3ecd573e 3f4f8442 3f406d11 3f820d4b 3f59c409 3e476f57 3fcb5a08 3f778b92 3fab1240 3f9e820c 3f09d191 3f00d7cd 3f9feae3 3f949ead 3f88578b 3eea740d 3fa52a8b"},
    {"avx2/Release", "epoch/rotom/meta_every_2", "4049000000000000",
     "3f3283fe 3ecd573e 3f4ed843 3f409adc 3f81cebd 3f59a550 3e4768c0 3fcb8487 3f759ac7 3fa6a810 3f97647c 3f09a875 3f0191b4 3fa22cdd 3f9083ff 3f7f976c 3ee5d720 3fa1e0c1"},
    {"avx2/Release", "epoch/rotom/ssl_warmup_1", "4049000000000000",
     "3f3283fe 3ecd573e 3f4f8442 3f406d11 3f820d4b 3f59c409 3e476f57 3fcb5a08 3f778b92 3f98a1e1 3f7fa034 3fce5e38 3f786fcb 3f58934f 3f35eb53 3f1745ec 3ef7b88a 3f24ceb1"},
    {"avx2/Release", "epoch/rotom/no_originals", "4052c00000000000",
     "3f00c501 3f82f8df 3fc1a677 3fdd5ba4 3f4d578f 3f616a78 3f7232db 3f651dde 3f2ab896 3f4106db 3f9c36ec 3f73c53c"},
    {"avx2/Release", "epoch/rotom/filter_originals", "4050aaaaaaaaaaaa",
     "3f790225 3f485753 4000ee2e 3e507612 3f2d22c2 3f553291 3f134ef0 3f1033ae 3ef28412"},
    {"avx2/Release", "stream/finetune/replace", "4050aaaaaaaaaaaa",
     "3f976939 3f5d5c86 3f851c3e 3f69bf6c 3f40deed 3f1757f2 3eece4a1 3f4ccb80 3e7299b9"},
    {"avx2/Release", "stream/rotom/default", "4054d55555555556",
     "3f4d5c3a 3f87a5b2 3f2cd08e 3f7367b3 3f54ce50 3ed52946 3f6783e7 3f2695b2"},
    {"avx2/Release", "stream/rotom/meta_every_2", "4054d55555555556",
     "3f4d5c3a 3f87a5b2 3f2cb654 3f76a2c2 3f536bc8 3ed76ea7 3f6a8ea2 3f26ce2b"},
    {"scalar/Release", "epoch/finetune/none", "4050aaaaaaaaaaaa",
     "3f834b79 3f116d3b 3f438cce 3f51a89b 3f34c0a0 3f040fa2 3f074d7e 3fb400a8 3f9427ce"},
    {"scalar/Release", "epoch/finetune/replace", "4049000000000000",
     "3f8472ff 3f315dd6 3f4dfd8e 3f3abb72 3f51c05a 3f3c0c91 3f043e10 3f61aeb5 3f8202f8"},
    {"scalar/Release", "epoch/finetune/mixda", "4050aaaaaaaaaaaa",
     "3f3ab9c2 3f3b901e 3f711d9a 3f5fc48e 3f0a4a09 3f429621 3f05beb6 3f2ef73a 3f0f72fd"},
    {"scalar/Release", "epoch/rotom/default", "4049000000000000",
     "3f328401 3ecd573e 3f4f8444 3f406d11 3f820d49 3f59c405 3e476f57 3fcb5a07 3f778b94 3fab1240 3f9e820c 3f09d18e 3f00d7cd 3f9feae3 3f949eae 3f885787 3eea7407 3fa52a8f"},
    {"scalar/Release", "epoch/rotom/meta_every_2", "4049000000000000",
     "3f328401 3ecd573e 3f4ed846 3f409add 3f81cebf 3f59a551 3e4768c3 3fcb8489 3f759ac7 3fa6a80e 3f976476 3f09a874 3f0191b7 3fa22cd9 3f908402 3f7f976e 3ee5d723 3fa1e0c1"},
    {"scalar/Release", "epoch/rotom/ssl_warmup_1", "4049000000000000",
     "3f328401 3ecd573e 3f4f8444 3f406d11 3f820d49 3f59c405 3e476f57 3fcb5a07 3f778b94 3f98a1df 3f7fa030 3fce5e35 3f786fcb 3f58934f 3f35eb4c 3f1745ee 3ef7b890 3f24ceb3"},
    {"scalar/Release", "epoch/rotom/no_originals", "4052c00000000000",
     "3f00c4fe 3f82f8de 3fc1a676 3fdd5ba1 3f4d5787 3f616a76 3f7232d6 3f651deb 3f2ab89b 3f4106dd 3f9c36f1 3f73c53f"},
    {"scalar/Release", "epoch/rotom/filter_originals", "4050aaaaaaaaaaaa",
     "3f790228 3f485749 4000ee2b 3e507616 3f2d22c2 3f55328e 3f134ef0 3f1033aa 3ef2840f"},
    {"scalar/Release", "stream/finetune/replace", "4050aaaaaaaaaaaa",
     "3f97693b 3f5d5c87 3f851c3f 3f69bf68 3f40def3 3f1757f5 3eece4a3 3f4ccb82 3e7299c1"},
    {"scalar/Release", "stream/rotom/default", "4054d55555555556",
     "3f4d5c38 3f87a5b3 3f2cd08c 3f7367b6 3f54ce52 3ed52947 3f6783e4 3f2695b4"},
    {"scalar/Release", "stream/rotom/meta_every_2", "4054d55555555556",
     "3f4d5c38 3f87a5b3 3f2cb652 3f76a2be 3f536bca 3ed76eb1 3f6a8e9e 3f26ce2c"},
    {"avx2/RelWithDebInfo", "epoch/finetune/none", "4050aaaaaaaaaaaa",
     "3f834b77 3f116d3b 3f438cce 3f51a89d 3f34c0a0 3f040fa2 3f074d77 3fb400a8 3f9427cc"},
    {"avx2/RelWithDebInfo", "epoch/finetune/replace", "4049000000000000",
     "3f8472fe 3f315dd5 3f4dfd91 3f3abb6f 3f51c05c 3f3c0c91 3f043e0c 3f61aeb4 3f8202f6"},
    {"avx2/RelWithDebInfo", "epoch/finetune/mixda", "4050aaaaaaaaaaaa",
     "3f3ab9c2 3f3b9020 3f711d99 3f5fc48f 3f0a4a08 3f429621 3f05beb6 3f2ef73e 3f0f72fb"},
    {"avx2/RelWithDebInfo", "epoch/rotom/default", "4049000000000000",
     "3f3283fe 3ecd573f 3f4f8444 3f406d11 3f820d4a 3f59c406 3e476f52 3fcb5a0b 3f778b9a 3fab1242 3f9e8214 3f09d190 3f00d7ce 3f9feae2 3f949eab 3f885788 3eea740d 3fa52a8e"},
    {"avx2/RelWithDebInfo", "epoch/rotom/meta_every_2", "4049000000000000",
     "3f3283fe 3ecd573f 3f4ed846 3f409add 3f81cebc 3f59a54d 3e4768be 3fcb8489 3f759acc 3fa6a80f 3f97647e 3f09a876 3f0191b6 3fa22cde 3f9083fe 3f7f9767 3ee5d722 3fa1e0c0"},
    {"avx2/RelWithDebInfo", "epoch/rotom/ssl_warmup_1", "4049000000000000",
     "3f3283fe 3ecd573f 3f4f8444 3f406d11 3f820d4a 3f59c406 3e476f52 3fcb5a0b 3f778b9a 3f98a1e0 3f7fa03a 3fce5e38 3f786fcb 3f589354 3f35eb4f 3f1745ee 3ef7b88b 3f24ceb2"},
    {"avx2/RelWithDebInfo", "epoch/rotom/no_originals", "4052c00000000000",
     "3f00c501 3f82f8e0 3fc1a678 3fdd5ba1 3f4d578e 3f616a7a 3f7232d6 3f651de0 3f2ab898 3f4106d9 3f9c36f0 3f73c538"},
    {"avx2/RelWithDebInfo", "epoch/rotom/filter_originals", "4050aaaaaaaaaaaa",
     "3f790225 3f485751 4000ee2f 3e507610 3f2d22c4 3f55328f 3f134ef0 3f1033af 3ef28411"},
    {"avx2/RelWithDebInfo", "stream/finetune/replace", "4050aaaaaaaaaaaa",
     "3f976939 3f5d5c86 3f851c3f 3f69bf6b 3f40deed 3f1757f3 3eece4a0 3f4ccb80 3e7299b8"},
    {"avx2/RelWithDebInfo", "stream/rotom/default", "4054d55555555556",
     "3f4d5c3a 3f87a5b3 3f2cd08c 3f7367b6 3f54ce52 3ed52948 3f6783e4 3f2695b5"},
    {"avx2/RelWithDebInfo", "stream/rotom/meta_every_2", "4054d55555555556",
     "3f4d5c3a 3f87a5b3 3f2cb654 3f76a2c2 3f536bd0 3ed76ea3 3f6a8e9e 3f26ce2b"},
};

std::string Hex64(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return buf;
}

std::string HexLosses(const std::vector<float>& losses) {
  std::string out;
  for (float loss : losses) {
    uint32_t bits;
    std::memcpy(&bits, &loss, sizeof(bits));
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08" PRIx32, bits);
    if (!out.empty()) out += ' ';
    out += buf;
  }
  return out;
}

void ExpectGolden(const char* name, const core::TrainResult& result) {
  const std::string build =
      std::string(kernels::SimdFlavorName()) + "/" + ROTOM_BUILD_TYPE;
  const std::string best = Hex64(result.best_valid_metric);
  const std::string losses = HexLosses(result.loss_history);
  std::ostringstream row;
  row << "    {\"" << build << "\", \"" << name << "\", \"" << best
      << "\",\n     \"" << losses << "\"},";
  const Golden* golden = nullptr;
  bool build_known = false;
  for (const Golden& g : kGoldens) {
    if (build != g.build) continue;
    build_known = true;
    if (std::strcmp(g.name, name) == 0) golden = &g;
  }
  if (!build_known) {
    std::printf("%s\n", row.str().c_str());
    GTEST_SKIP() << "no recorded trajectories for build " << build;
  }
  ASSERT_NE(golden, nullptr) << "no golden for " << name << "; observed:\n"
                             << row.str();
  EXPECT_EQ(losses, golden->losses) << "observed:\n" << row.str();
  EXPECT_EQ(best, golden->best) << "observed:\n" << row.str();
}

TEST(TrajectoryGoldenTest, EpochFinetuneNone) {
  ExpectGolden("epoch/finetune/none", RunEpochFinetune(core::AugMode::kNone));
}

TEST(TrajectoryGoldenTest, EpochFinetuneReplace) {
  ExpectGolden("epoch/finetune/replace",
               RunEpochFinetune(core::AugMode::kReplace));
}

TEST(TrajectoryGoldenTest, EpochFinetuneMixDa) {
  ExpectGolden("epoch/finetune/mixda",
               RunEpochFinetune(core::AugMode::kMixDa));
}

TEST(TrajectoryGoldenTest, EpochRotomDefault) {
  ExpectGolden("epoch/rotom/default",
               RunRotom(EpochRotomOptions(), TwoDuplicates));
}

TEST(TrajectoryGoldenTest, EpochRotomMetaEveryTwo) {
  core::RotomOptions options = EpochRotomOptions();
  options.meta_update_every = 2;
  ExpectGolden("epoch/rotom/meta_every_2", RunRotom(options, TwoDuplicates));
}

TEST(TrajectoryGoldenTest, EpochRotomSslAfterWarmup) {
  core::RotomOptions options = EpochRotomOptions();
  options.use_ssl = true;
  options.ssl_warmup_epochs = 1;
  ExpectGolden("epoch/rotom/ssl_warmup_1", RunRotom(options, TwoDuplicates));
}

TEST(TrajectoryGoldenTest, EpochRotomWithoutOriginals) {
  core::RotomOptions options = EpochRotomOptions();
  options.include_original = false;
  ExpectGolden("epoch/rotom/no_originals", RunRotom(options, TwoDuplicates));
}

TEST(TrajectoryGoldenTest, EpochRotomFilterOriginalsZeroAugments) {
  core::RotomOptions options = EpochRotomOptions();
  options.epochs = 3;
  options.augments_per_example = 0;
  options.filter_originals = true;
  ExpectGolden("epoch/rotom/filter_originals",
               RunRotom(options, [](const std::string&, Rng&) {
                 return std::vector<std::string>{};
               }));
}

TEST(TrajectoryGoldenTest, StreamFinetuneReplace) {
  ExpectGolden("stream/finetune/replace", RunStreamFinetune());
}

TEST(TrajectoryGoldenTest, StreamRotomDefault) {
  ExpectGolden("stream/rotom/default",
               RunRotom(StreamRotomOptions(), TwoDuplicates));
}

TEST(TrajectoryGoldenTest, StreamRotomMetaEveryTwo) {
  core::RotomOptions options = StreamRotomOptions();
  options.meta_update_every = 2;
  ExpectGolden("stream/rotom/meta_every_2", RunRotom(options, TwoDuplicates));
}

}  // namespace
}  // namespace rotom
