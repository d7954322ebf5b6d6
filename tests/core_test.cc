#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "core/filtering.h"
#include "core/finetune.h"
#include "core/rotom_trainer.h"
#include "core/ssl.h"
#include "core/weighting.h"
#include "nn/optim.h"

namespace rotom {
namespace {

using core::FilteringModel;
using core::WeightingModel;

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
  config.dropout = 0.0f;
  return config;
}

// A tiny sentiment task where class-indicative words are unambiguous.
data::TaskDataset TinyTask() {
  data::TaskDataset ds;
  ds.name = "tiny";
  ds.num_classes = 2;
  const char* pos[] = {"the movie was great", "really great movie",
                       "a fantastic movie",   "the product was good",
                       "good good movie",     "really fine product"};
  const char* neg[] = {"the movie was terrible", "really bad movie",
                       "a boring movie",         "the product was awful",
                       "bad bad movie",          "really awful product"};
  for (const char* t : pos) ds.train.push_back({t, 1});
  for (const char* t : neg) ds.train.push_back({t, 0});
  ds.valid = ds.train;
  ds.test = {{"the movie was fantastic", 1}, {"a terrible movie", 0},
             {"really good product", 1},     {"the product was boring", 0}};
  for (const auto& e : ds.train) ds.unlabeled.push_back(e.text);
  ds.unlabeled.push_back("really great product");
  ds.unlabeled.push_back("a bad boring movie");
  return ds;
}

// Simple augmenter: duplicates a token (label-preserving-ish).
std::vector<std::string> DuplicateAugmenter(const std::string& input,
                                            Rng& rng) {
  auto tokens = text::Tokenize(input);
  if (tokens.empty()) return {input};
  const size_t i = rng.UniformInt(static_cast<int64_t>(tokens.size()));
  tokens.insert(tokens.begin() + i, tokens[i]);
  return {text::Detokenize(tokens)};
}

TEST(FilteringModelTest, FeatureLayout) {
  Tensor probs_orig = Tensor::FromVector({2, 2}, {0.9f, 0.1f, 0.2f, 0.8f});
  Tensor probs_aug = Tensor::FromVector({2, 2}, {0.9f, 0.1f, 0.8f, 0.2f});
  const Tensor features =
      FilteringModel::ComputeFeatures(probs_orig, probs_aug, {1, 0});
  EXPECT_EQ(features.shape(), (std::vector<int64_t>{2, 4}));
  // One-hot part.
  EXPECT_EQ(features.at({0, 0}), 0.0f);
  EXPECT_EQ(features.at({0, 1}), 1.0f);
  EXPECT_EQ(features.at({1, 0}), 1.0f);
  // KL part: identical distributions give ~0.
  EXPECT_NEAR(features.at({0, 2}), 0.0f, 1e-5f);
  EXPECT_NEAR(features.at({0, 3}), 0.0f, 1e-5f);
  // Row 1: distributions flipped -> positive KL sum.
  EXPECT_GT(features.at({1, 2}) + features.at({1, 3}), 0.1f);
}

TEST(FilteringModelTest, ForwardIsDistribution) {
  Rng rng(1);
  FilteringModel filter(2, rng);
  Tensor features({3, 4});
  Tensor probs = filter.Forward(features).value();
  for (int64_t i = 0; i < 3; ++i)
    EXPECT_NEAR(probs.at({i, 0}) + probs.at({i, 1}), 1.0f, 1e-5f);
}

TEST(FilteringModelTest, SampleDecisionsFollowProbs) {
  Rng rng(2);
  Tensor probs = Tensor::FromVector({2, 2}, {0.0f, 1.0f, 1.0f, 0.0f});
  auto decisions = FilteringModel::SampleDecisions(probs, rng);
  EXPECT_TRUE(decisions[0]);
  EXPECT_FALSE(decisions[1]);
}

TEST(FilteringModelTest, ReinforceMovesKeepProbability) {
  // With positive validation loss, kept examples' keep-probability should
  // DECREASE after a surrogate gradient step (the estimator pushes down
  // log-probs scaled by the loss). With enough steps the filter learns to
  // drop everything, demonstrating the gradient flows.
  Rng rng(3);
  FilteringModel filter(2, rng);
  nn::Adam opt(filter.Parameters(), 0.1f);
  Tensor features = Tensor::FromVector({2, 4}, {1, 0, 0.3f, 0.2f,
                                                0, 1, 0.0f, 0.1f});
  std::vector<bool> decisions = {true, true};
  const float before = filter.Forward(features).value().at({0, 1});
  for (int step = 0; step < 20; ++step) {
    opt.ZeroGrad();
    filter.ReinforceSurrogate(features, decisions, 2.0f).Backward();
    opt.Step();
  }
  const float after = filter.Forward(features).value().at({0, 1});
  EXPECT_LT(after, before);
}

TEST(FilteringModelTest, ReinforceIgnoresDroppedExamples) {
  Rng rng(4);
  FilteringModel filter(2, rng);
  Tensor features({2, 4});
  // Nothing kept -> surrogate is 0 and no gradient flows.
  filter.ZeroGrad();
  Variable surrogate =
      filter.ReinforceSurrogate(features, {false, false}, 1.0f);
  EXPECT_NEAR(surrogate.value()[0], 0.0f, 1e-6f);
}

TEST(WeightingModelTest, WeightsInExpectedRange) {
  Rng rng(5);
  auto vocab = TaskVocab();
  WeightingModel weighting(TinyConfig(), vocab, rng);
  weighting.SetTraining(false);
  Tensor l2 = Tensor::FromVector({2}, {0.5f, 0.0f});
  Rng fwd(1);
  Tensor w =
      weighting.Weights({"the movie was great", "a boring movie"}, l2, fwd)
          .value();
  // sigmoid output in (0,1) plus the L2 term.
  EXPECT_GT(w[0], 0.5f);
  EXPECT_LT(w[0], 1.5f);
  EXPECT_GT(w[1], 0.0f);
  EXPECT_LT(w[1], 1.0f);
}

TEST(WeightingModelTest, L2TermMatchesDefinition) {
  Tensor probs = Tensor::FromVector({2, 2}, {1.0f, 0.0f, 0.5f, 0.5f});
  Tensor l2 = WeightingModel::L2Term(probs, {0, 1});
  EXPECT_NEAR(l2[0], 0.0f, 1e-5f);
  EXPECT_NEAR(l2[1], std::sqrt(0.5f), 1e-5f);
}

TEST(WeightingModelTest, L2TermSoft) {
  Tensor probs = Tensor::FromVector({1, 2}, {0.7f, 0.3f});
  Tensor soft = Tensor::FromVector({1, 2}, {0.7f, 0.3f});
  EXPECT_NEAR(WeightingModel::L2TermSoft(probs, soft)[0], 0.0f, 1e-5f);
}

TEST(WeightingModelTest, GradientsFlowToLm) {
  Rng rng(6);
  auto vocab = TaskVocab();
  WeightingModel weighting(TinyConfig(), vocab, rng);
  weighting.SetTraining(false);
  Tensor l2({1});
  Rng fwd(1);
  Variable w = weighting.Weights({"the movie was great"}, l2, fwd);
  ops::Sum(w).Backward();
  int with_grad = 0;
  for (const auto& p : weighting.Parameters()) with_grad += p.has_grad();
  EXPECT_GT(with_grad, 0);
}

// ---- Tape-equivalence of the trainer's weighted loss -------------------
// RotomTrainer builds Dot(CE(M), M_W weights) with a tape on only one half:
// phase 1 reads the classifier's gradients, the finite-difference probes
// read M_W's. These tests pin that leaving the other half untaped changes no
// bit of the gradients that are read.

enum class Untaped { kNothing, kWeighting, kClassifier };

struct ParamGrads {
  std::vector<bool> present;
  std::vector<Tensor> values;
};

ParamGrads GradsOf(const std::vector<Variable>& params) {
  ParamGrads out;
  for (const auto& p : params) {
    out.present.push_back(p.has_grad());
    out.values.push_back(p.has_grad() ? p.grad().Clone() : Tensor());
  }
  return out;
}

void ExpectBitIdentical(const ParamGrads& expected, const ParamGrads& actual,
                        const char* label) {
  ASSERT_EQ(expected.values.size(), actual.values.size()) << label;
  for (size_t i = 0; i < expected.values.size(); ++i) {
    ASSERT_TRUE(expected.present[i]) << label << " param " << i;
    ASSERT_TRUE(actual.present[i]) << label << " param " << i;
    const Tensor& e = expected.values[i];
    const Tensor& a = actual.values[i];
    ASSERT_EQ(e.shape(), a.shape()) << label << " param " << i;
    EXPECT_EQ(std::memcmp(e.data(), a.data(), sizeof(float) * e.size()), 0)
        << label << " param " << i;
  }
}

void ExpectNoGrads(const ParamGrads& grads, const char* label) {
  for (size_t i = 0; i < grads.present.size(); ++i)
    EXPECT_FALSE(grads.present[i]) << label << " param " << i;
}

struct WeightedLossGrads {
  ParamGrads classifier;
  ParamGrads weighting;
};

// Fresh, identically seeded models per call, so "no gradient" is observable
// as has_grad() == false. `soft` switches from the hard-label CE to the SSL
// soft-target CE.
WeightedLossGrads BackwardWeightedLoss(Untaped untaped, bool classifier_training,
                                       bool soft) {
  Rng init(21);
  auto vocab = TaskVocab();
  models::ClassifierConfig config = TinyConfig();
  config.dropout = 0.1f;  // phase 1 runs the classifier with dropout
  models::TransformerClassifier model(config, vocab, init);
  WeightingModel weighting(config, vocab, init);
  model.SetTraining(classifier_training);
  weighting.SetTraining(false);

  const text::EncodedBatch batch = text::EncodeBatchForClassifier(
      *vocab,
      {"the movie was great", "a boring movie", "really awful product",
       "good good movie"},
      config.max_len);
  const std::vector<int64_t> labels = {1, 0, 0, 1};
  const Tensor l2 = Tensor::FromVector({4}, {0.3f, 0.1f, 0.7f, 0.2f});
  const Tensor soft_targets = Tensor::FromVector(
      {4, 2}, {0.0f, 1.0f, 1.0f, 0.0f, 0.8f, 0.2f, 0.35f, 0.65f});

  Rng rng(3);
  Variable ce;
  {
    std::optional<NoGradGuard> guard;
    if (untaped == Untaped::kClassifier) guard.emplace();
    Variable logits = model.ForwardLogitsEncoded(batch, rng);
    ce = soft ? ops::SoftCrossEntropyPerExample(logits, soft_targets)
              : ops::CrossEntropyPerExample(logits, labels);
  }
  Variable weights;
  {
    std::optional<NoGradGuard> guard;
    if (untaped == Untaped::kWeighting) guard.emplace();
    weights = ops::NormalizeMeanOne(weighting.WeightsEncoded(batch, l2, rng));
  }
  ops::Scale(ops::Dot(ce, weights), 0.25f).Backward();
  return {GradsOf(model.Parameters()), GradsOf(weighting.Parameters())};
}

TEST(TapeEquivalenceTest, ClassifierGradsIgnoreUntapedWeighting) {
  for (bool soft : {false, true}) {
    const char* label = soft ? "soft CE" : "hard CE";
    const auto full = BackwardWeightedLoss(Untaped::kNothing,
                                           /*classifier_training=*/true, soft);
    const auto phase1 = BackwardWeightedLoss(Untaped::kWeighting,
                                             /*classifier_training=*/true, soft);
    ExpectBitIdentical(full.classifier, phase1.classifier, label);
    ExpectNoGrads(phase1.weighting, label);
  }
}

TEST(TapeEquivalenceTest, WeightingGradsIgnoreUntapedClassifier) {
  for (bool soft : {false, true}) {
    const char* label = soft ? "soft CE" : "hard CE";
    const auto full = BackwardWeightedLoss(Untaped::kNothing,
                                           /*classifier_training=*/false, soft);
    const auto probe = BackwardWeightedLoss(Untaped::kClassifier,
                                            /*classifier_training=*/false, soft);
    // Every M_W parameter is reached, which the trainer's gradient deposit
    // relies on.
    ExpectBitIdentical(full.weighting, probe.weighting, label);
    ExpectNoGrads(probe.classifier, label);
  }
}

TEST(SharpenTest, V1SharpensTowardArgmax) {
  Tensor probs = Tensor::FromVector({1, 3}, {0.5f, 0.3f, 0.2f});
  Tensor sharp = core::SharpenV1(probs, 0.5);
  EXPECT_GT(sharp.at({0, 0}), 0.5f);
  float sum = 0.0f;
  for (int64_t j = 0; j < 3; ++j) sum += sharp.at({0, j});
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(SharpenTest, V1TemperatureOneIsIdentity) {
  Tensor probs = Tensor::FromVector({1, 2}, {0.6f, 0.4f});
  Tensor sharp = core::SharpenV1(probs, 1.0);
  EXPECT_NEAR(sharp.at({0, 0}), 0.6f, 1e-5f);
}

TEST(SharpenTest, V2ThresholdGating) {
  Tensor probs = Tensor::FromVector({2, 2}, {0.95f, 0.05f, 0.6f, 0.4f});
  auto out = core::SharpenV2(probs, 0.8);
  EXPECT_TRUE(out.confident[0]);
  EXPECT_FALSE(out.confident[1]);
  EXPECT_EQ(out.targets.at({0, 0}), 1.0f);
  EXPECT_EQ(out.targets.at({1, 0}), 0.0f);
}

TEST(FinetuneTrainerTest, BaselineLearnsTinyTask) {
  Rng rng(7);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.epochs = 20;
  options.batch_size = 4;
  options.lr = 2e-3f;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  auto result = trainer.Train(ds);
  EXPECT_EQ(result.epochs_run, 20);
  EXPECT_GE(result.best_valid_metric, 90.0);
  // The model must at least fit its 12 training sentences; the 4-example
  // test set is too small for a stable generalization assertion.
  EXPECT_GE(eval::EvaluateModel(model, ds.train, eval::MetricKind::kAccuracy),
            90.0);
}

TEST(FinetuneTrainerTest, ReplaceModeUsesAugmenter) {
  Rng rng(8);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.epochs = 8;
  options.batch_size = 4;
  options.aug_mode = core::AugMode::kReplace;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  // Augmenters run on compute-pool workers (finetune.h), so the counter
  // must be atomic.
  std::atomic<int> augmenter_calls{0};
  auto result = trainer.Train(ds, [&](const std::string& s, Rng& r) {
    ++augmenter_calls;
    return DuplicateAugmenter(s, r)[0];
  });
  EXPECT_GT(augmenter_calls.load(), 0);
  EXPECT_GT(result.best_valid_metric, 50.0);
}

TEST(FinetuneTrainerTest, MixDaModeRuns) {
  Rng rng(9);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.epochs = 6;
  options.batch_size = 4;
  options.aug_mode = core::AugMode::kMixDa;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  auto result = trainer.Train(ds, [&](const std::string& s, Rng& r) {
    return DuplicateAugmenter(s, r)[0];
  });
  EXPECT_GT(result.best_valid_metric, 50.0);
}

TEST(FinetuneTrainerTest, AugModesRequireAugmenter) {
  Rng rng(10);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.aug_mode = core::AugMode::kReplace;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  EXPECT_DEATH(trainer.Train(ds), "TextAugmenter");
}

core::RotomOptions SmallRotomOptions() {
  core::RotomOptions options;
  options.epochs = 4;
  options.batch_size = 6;
  options.lr = 2e-3f;
  options.meta_lr = 2e-3f;
  options.augments_per_example = 1;
  options.seed = 11;
  return options;
}

TEST(RotomTrainerTest, LearnsTinyTask) {
  Rng rng(11);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy,
                             SmallRotomOptions());
  auto ds = TinyTask();
  auto result = trainer.Train(ds, DuplicateAugmenter);
  EXPECT_EQ(result.epochs_run, 4);
  EXPECT_GT(result.best_valid_metric, 60.0);
  EXPECT_GT(trainer.last_keep_fraction(), 0.0);
  EXPECT_LE(trainer.last_keep_fraction(), 1.0);
}

TEST(RotomTrainerTest, SslVariantRuns) {
  Rng rng(12);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  auto options = SmallRotomOptions();
  options.use_ssl = true;
  options.epochs = 3;
  core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  auto result = trainer.Train(ds, DuplicateAugmenter);
  EXPECT_EQ(result.epochs_run, 3);
  EXPECT_GE(result.best_valid_metric, 50.0);
}

TEST(RotomTrainerTest, AblationFlagsRun) {
  auto ds = TinyTask();
  for (int variant = 0; variant < 3; ++variant) {
    Rng rng(13 + variant);
    auto vocab = TaskVocab();
    models::TransformerClassifier model(TinyConfig(), vocab, rng);
    auto options = SmallRotomOptions();
    options.epochs = 2;
    if (variant == 0) options.use_filtering = false;
    if (variant == 1) options.use_weighting = false;
    if (variant == 2) options.use_l2_term = false;
    core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
    auto result = trainer.Train(ds, DuplicateAugmenter);
    EXPECT_EQ(result.epochs_run, 2) << "variant " << variant;
  }
}

TEST(RotomTrainerTest, FilterKeepsFractionBelowOneWhenAugsAreCorrupt) {
  // Augmenter that flips sentiment words: clearly label-corrupting. The
  // filter should learn to drop a noticeable share of augmentations.
  Rng rng(16);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  auto options = SmallRotomOptions();
  options.epochs = 5;
  core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  auto corrupting = [](const std::string& input, Rng&) {
    std::string out = input;
    auto flip = [&](const std::string& from, const std::string& to) {
      const size_t pos = out.find(from);
      if (pos != std::string::npos) out.replace(pos, from.size(), to);
    };
    flip("great", "terrible");
    flip("good", "bad");
    flip("fantastic", "awful");
    return std::vector<std::string>{out};
  };
  trainer.Train(ds, corrupting);
  EXPECT_LT(trainer.last_keep_fraction(), 1.0);
}

}  // namespace
}  // namespace rotom
