#include "core/finetune.h"

#include <algorithm>
#include <utility>

#include "augment/mixda.h"
#include "core/train_loop.h"
#include "nn/optim.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rotom {
namespace core {

namespace {

// One training batch: labels plus the encoded views the active AugMode
// consumes (originals for kNone/kMixDa, augmented for kReplace/kMixDa).
struct FinetuneBatch {
  std::vector<int64_t> labels;
  text::EncodedBatch originals;
  text::EncodedBatch augmented;
};

}  // namespace

FinetuneTrainer::FinetuneTrainer(models::TransformerClassifier* model,
                                 eval::MetricKind metric,
                                 FinetuneOptions options)
    : model_(model), metric_(metric), options_(options) {
  ROTOM_CHECK(model != nullptr);
}

TrainResult FinetuneTrainer::Train(const data::TaskDataset& ds,
                                   const TextAugmenter& augmenter) {
  if (options_.aug_mode != AugMode::kNone) {
    ROTOM_CHECK_MSG(augmenter != nullptr,
                    "augmented modes need a TextAugmenter");
  }
  ROTOM_TRACE_SPAN("finetune.train");
  WallTimer timer;
  Rng rng(options_.seed);
  nn::Adam optimizer(model_->Parameters(), options_.lr);

  obs::RunLogManifest manifest;
  manifest.Set("trainer", "finetune")
      .Set("aug_mode",
           options_.aug_mode == AugMode::kNone      ? "none"
           : options_.aug_mode == AugMode::kReplace ? "replace"
                                                    : "mixda")
      .Set("epochs", options_.epochs)
      .Set("batch_size", options_.batch_size)
      .Set("lr", static_cast<double>(options_.lr))
      .Set("seed", static_cast<int64_t>(options_.seed))
      .Set("threads", static_cast<int64_t>(ComputeThreads()))
      .Set("train_examples", static_cast<int64_t>(ds.train.size()));

  const auto cache = MakeEncodingCache(options_.pipeline, &model_->vocab(),
                                       model_->config().max_len);
  const bool need_originals = options_.aug_mode != AugMode::kReplace;
  const bool need_augmented = options_.aug_mode != AugMode::kNone;

  // Encodes the views the mode reads of examples [begin, end) and of their
  // augmentations (`augmented` is parallel to `examples`, or empty).
  auto assemble = [&](const std::vector<data::Example>& examples,
                      const std::vector<std::string>& augmented,
                      size_t begin, size_t end) {
    FinetuneBatch batch;
    std::vector<std::string> orig_texts, aug_texts;
    for (size_t i = begin; i < end; ++i) {
      batch.labels.push_back(examples[i].label);
      if (need_originals) orig_texts.push_back(examples[i].text);
      if (need_augmented) aug_texts.push_back(augmented[i]);
    }
    if (need_originals)
      batch.originals = text::AssembleEncodedBatch(*cache, orig_texts);
    if (need_augmented)
      batch.augmented = text::AssembleEncodedBatch(*cache, aug_texts);
    return batch;
  };

  TrainLoopHooks<FinetuneBatch> hooks;
  std::vector<data::Example> train;
  std::vector<std::string> augmented;
  hooks.begin_epoch = [&](Rng& rng) {
    if (train.empty()) train = ds.train;  // a stream run never copies it
    rng.Shuffle(train);
    // Materialize the epoch's augmentations up front: example i draws from
    // its own Rng stream split from one epoch seed.
    if (need_augmented) {
      ROTOM_TRACE_SPAN("finetune.augment");
      const uint64_t epoch_seed = rng.Next64();
      augmented = AugmentEach(
          train.size(), [&](size_t i) { return SplitSeed(epoch_seed, i); },
          [&](size_t i, Rng& r) { return augmenter(train[i].text, r); });
    }
    return train.size();
  };
  hooks.epoch_batch = [&](size_t begin, size_t end) {
    ROTOM_TRACE_SPAN("finetune.encode");
    return assemble(train, augmented, begin, end);
  };
  hooks.pulls_per_batch = std::max<int64_t>(1, options_.batch_size);
  hooks.stream_batch = [&](const std::vector<DrawnExample>& drawn) {
    std::vector<data::Example> examples;
    for (const DrawnExample& d : drawn) examples.push_back(d.example);
    std::vector<std::string> augs;
    if (need_augmented) {
      augs = AugmentEach(
          drawn.size(), [&](size_t i) { return drawn[i].seed; },
          [&](size_t i, Rng& r) {
            return augmenter(drawn[i].example.text, r);
          });
    }
    return assemble(examples, augs, 0, examples.size());
  };

  hooks.step = [&](FinetuneBatch batch, Rng& rng, const StepInfo&,
                   obs::RunLogStep* record) {
    optimizer.ZeroGrad();
    Variable loss;
    {
      ROTOM_TRACE_SPAN("finetune.forward");
      Variable logits;
      switch (options_.aug_mode) {
        case AugMode::kNone:
          logits = model_->ForwardLogitsEncoded(batch.originals, rng);
          break;
        case AugMode::kReplace:
          logits = model_->ForwardLogitsEncoded(batch.augmented, rng);
          break;
        case AugMode::kMixDa: {
          Variable cls_orig = model_->EncodeClsEncoded(batch.originals, rng);
          Variable cls_aug = model_->EncodeClsEncoded(batch.augmented, rng);
          std::vector<double> lambdas(batch.labels.size());
          for (auto& l : lambdas)
            l = augment::MixDaLambda(options_.mixda_alpha, rng);
          Variable mixed = augment::InterpolateRepresentations(
              cls_orig, cls_aug, lambdas);
          logits = model_->HeadLogits(mixed);
          break;
        }
      }
      loss = ops::CrossEntropyMean(logits, batch.labels);
    }
    {
      ROTOM_TRACE_SPAN("finetune.backward");
      loss.Backward();
      const float grad_norm = nn::ClipGradNorm(optimizer.params(), 5.0f);
      optimizer.Step();
      if (record) {
        record->lr = static_cast<double>(options_.lr);
        record->grad_norm = static_cast<double>(grad_norm);
      }
    }
    return loss.value()[0];
  };

  TrainResult result =
      TrainLoop({.model = model_, .optimizer = &optimizer, .ds = &ds,
                 .metric = metric_, .cache = cache.get(),
                 .pipeline = &options_.pipeline, .epochs = options_.epochs,
                 .batch_size = options_.batch_size, .seed = options_.seed,
                 .rng = &rng, .runlog_tag = "finetune", .manifest = manifest})
          .Run(hooks);
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace core
}  // namespace rotom
