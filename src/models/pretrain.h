#ifndef ROTOM_MODELS_PRETRAIN_H_
#define ROTOM_MODELS_PRETRAIN_H_

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "models/classifier.h"

namespace rotom {
namespace models {

/// Masked-language-model pre-training options. This is the reproduction's
/// stand-in for loading a published RoBERTa/DistilBERT checkpoint: the
/// encoder is self-trained on the task's unlabeled corpus to predict masked
/// tokens before fine-tuning (DESIGN.md, Substitutions).
struct PretrainOptions {
  int64_t epochs = 2;
  int64_t batch_size = 16;
  float lr = 1e-3f;
  float mask_prob = 0.15f;   // fraction of content tokens selected
  int64_t max_steps = -1;    // cap on optimizer steps; -1 = unlimited
  int64_t max_corpus = 512;  // subsample large corpora for speed
  core::PipelineOptions pipeline;  // encoding cache and run log
};

/// Runs masked-token pre-training of the classifier's encoder in place.
/// Selected tokens are replaced by [MASK] 80% of the time, by a random
/// vocabulary token 10%, and kept 10% (the BERT recipe). Returns the final
/// average masked-token loss.
float PretrainMaskedLm(TransformerClassifier& model,
                       const std::vector<std::string>& corpus, Rng& rng,
                       const PretrainOptions& options);

/// Self-supervised same-origin pre-training for pair tasks (EM).
///
/// A 100M-parameter pre-trained LM arrives at entity matching already able
/// to compare two token sequences; a small from-scratch encoder does not.
/// This stage builds that capability from UNLABELED records only: a
/// positive pair is a record next to a view of itself corrupted by
/// formatting-style edits (token drops, span shuffles, column drops), a
/// negative pair puts the record next to a different record or a near-miss
/// copy with 1-2 content tokens substituted. No downstream labels are used.
/// (DESIGN.md, Substitutions.)
struct SameOriginOptions {
  int64_t steps = 300;
  int64_t batch_size = 16;
  float lr = 1e-3f;
  core::PipelineOptions pipeline;  // encoding cache and run log
  /// Operators that produce the positive "formatting-style view"
  /// (augment::OperatorRegistry spec). Restricted by design to edits that
  /// drop or reorder information without replacing content tokens; the
  /// default reproduces the original hard-wired view set.
  std::string view_op_set = "token_del,span_shuffle,col_del,col_shuffle";
};
float PretrainSameOrigin(TransformerClassifier& model,
                         const std::vector<std::string>& records, Rng& rng,
                         const SameOriginOptions& options);

}  // namespace models
}  // namespace rotom

#endif  // ROTOM_MODELS_PRETRAIN_H_
