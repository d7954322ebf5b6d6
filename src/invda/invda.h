#ifndef ROTOM_INVDA_INVDA_H_
#define ROTOM_INVDA_INVDA_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "augment/ops.h"
#include "core/pipeline.h"
#include "models/seq2seq.h"

namespace rotom {
namespace invda {

/// Training/generation options for InvDA (paper Section 3 + Section 6.1).
struct InvDaOptions {
  // Algorithm 1: the number n of random simple operators applied to corrupt
  // each sequence.
  int64_t corruption_ops = 2;
  int64_t epochs = 2;
  int64_t batch_size = 8;
  float lr = 1e-3f;
  int64_t max_corpus = 384;  // subsample large unlabeled pools for speed

  // Generation (paper: top-k=120 over the top 98% tokens, up to 50 unique
  // sequences per example; scaled to this reproduction's vocabulary).
  models::SamplingOptions sampling;
  int64_t augments_per_example = 4;

  /// Only runlog_dir is consumed here (the seq2seq loop has no encoding
  /// cache stage); carried as PipelineOptions so
  /// eval::ExperimentOptions forwards one pipeline config to every trainer.
  core::PipelineOptions pipeline;
};

/// Algorithm 1's training-pair construction: corrupts each sequence with
/// `n_ops` operators uniformly sampled from the `op_set` spec (resolved
/// against the global OperatorRegistry for the task; "default" = the Table 3
/// per-task set) and pairs (corrupted -> original).
std::vector<std::pair<std::string, std::string>> BuildCorruptionPairs(
    const std::vector<std::string>& corpus, int64_t n_ops,
    const augment::AugmentContext& context, bool is_pair_task,
    bool is_record_task, Rng& rng, const std::string& op_set = "default");

/// The InvDA operator: a seq2seq model self-trained to invert sequence
/// corruption, then sampled to produce natural yet diverse augmentations.
class InvDa {
 public:
  /// `vocab` must cover the task corpus; `context` supplies IDF/synonyms for
  /// the corruption operators.
  InvDa(const models::Seq2SeqConfig& config,
        std::shared_ptr<const text::Vocabulary> vocab,
        augment::AugmentContext context, bool is_pair_task,
        bool is_record_task, uint64_t seed);

  /// Algorithm 1: builds corruption pairs from the unlabeled corpus and
  /// fine-tunes the seq2seq model. Returns the final training loss.
  float Train(const std::vector<std::string>& unlabeled,
              const InvDaOptions& options);

  /// Samples `count` augmentations of one input.
  std::vector<std::string> Augment(const std::string& input, int64_t count);

  /// Precomputes and caches augmentations for a set of inputs (the paper
  /// pre-computes and caches InvDA outputs; Section 6.6). Batched decoding.
  void PrecomputeCache(const std::vector<std::string>& inputs,
                       const InvDaOptions& options);

  /// A cached augmentation for `input` (random choice among cached ones);
  /// falls back to live generation when absent.
  std::string Sample(const std::string& input, Rng& rng);

  /// Cached-only variant of Sample: a random cached augmentation, or "" when
  /// the input was never precomputed. Const and safe to call concurrently
  /// (never generates, never mutates the cache) — this is the entry point
  /// the `invda_roundtrip` operator's RoundTripBackend uses from the
  /// candidate-generation pool workers.
  std::string SampleCached(const std::string& input, Rng& rng) const;

  /// All cached augmentations for an input (empty if not cached).
  const std::vector<std::string>& CachedAugmentations(
      const std::string& input) const;

  const models::Seq2SeqModel& model() const { return model_; }
  bool trained() const { return trained_; }

 private:
  augment::AugmentContext context_;
  bool is_pair_task_;
  bool is_record_task_;
  Rng rng_;
  models::Seq2SeqModel model_;
  models::SamplingOptions sampling_;
  std::unordered_map<std::string, std::vector<std::string>> cache_;
  bool trained_ = false;
};

}  // namespace invda
}  // namespace rotom

#endif  // ROTOM_INVDA_INVDA_H_
