#include "serve/session.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace rotom {
namespace serve {

InferenceSession::InferenceSession(const Snapshot& snapshot,
                                   std::unique_ptr<InferenceEncoder> encoder,
                                   const Options& options)
    : config_(snapshot.config),
      vocab_(snapshot.vocab),
      encoder_(std::move(encoder)),
      idf_(snapshot.idf),
      cache_(std::make_unique<text::EncodingCache>(
          vocab_.get(), config_.max_len, options.cache_rows)) {}

StatusOr<std::unique_ptr<InferenceSession>> InferenceSession::Create(
    const Snapshot& snapshot, const Options& options) {
  if (snapshot.vocab == nullptr) {
    return Status::Error("snapshot has no vocabulary; cannot build a session");
  }
  Precision precision = options.precision;
  if (precision == Precision::kAuto) {
    precision =
        snapshot.qweights.empty() ? Precision::kFloat32 : Precision::kInt8;
  }
  auto encoder =
      InferenceEncoder::Create(snapshot, precision == Precision::kInt8);
  if (!encoder.ok()) return encoder.status();
  // Private constructor: make_unique cannot reach it.
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(snapshot, std::move(encoder).value(), options));
}

StatusOr<std::unique_ptr<InferenceSession>> InferenceSession::Open(
    const std::string& path, const Options& options) {
  auto snapshot = Snapshot::Load(path);
  if (!snapshot.ok()) return snapshot.status();
  return Create(snapshot.value(), options);
}

PackedBatch InferenceSession::Assemble(
    std::span<const std::string> texts) const {
  PackedBatch batch;
  batch.offsets.reserve(texts.size() + 1);
  batch.offsets.push_back(0);
  for (const std::string& text : texts) {
    const std::shared_ptr<const text::EncodedRow> row = cache_->Encode(text);
    // Real tokens come first (text::EncodeForClassifier); keep only them.
    const auto len = static_cast<size_t>(
        std::find(row->mask.begin(), row->mask.end(), 0.0f) -
        row->mask.begin());
    batch.ids.insert(batch.ids.end(), row->ids.begin(),
                     row->ids.begin() + len);
    batch.flags.insert(batch.flags.end(), row->flags.begin(),
                       row->flags.begin() + len);
    batch.offsets.push_back(batch.tokens());
  }
  return batch;
}

Tensor InferenceSession::Logits(std::span<const std::string> texts) const {
  if (texts.empty()) return Tensor();
  const PackedBatch batch = Assemble(texts);
  // Real tokens per fused forward: the unit a forward's cost scales with
  // (OBSERVABILITY.md).
  static obs::Histogram& forward_tokens =
      obs::GetHistogram("serve.forward_tokens");
  forward_tokens.Record(static_cast<uint64_t>(batch.tokens()));
  if (encoder_->quantized()) {
    // Counts fused int8 forwards, so quantized vs float traffic is visible
    // per process (OBSERVABILITY.md).
    static obs::Counter& quantized_forwards = obs::GetCounter("serve.quantized");
    quantized_forwards.Add();
  }
  return encoder_->Logits(batch);
}

std::vector<Prediction> InferenceSession::PredictBatch(
    std::span<const std::string> texts) const {
  if (texts.empty()) return {};
  const Tensor probs = ops::SoftmaxRows(Logits(texts));
  const int64_t classes = probs.size(-1);
  std::vector<Prediction> out(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    const float* row = probs.data() + static_cast<int64_t>(i) * classes;
    out[i].label = kernels::RowArgmax(row, classes);
    out[i].probs.assign(row, row + classes);
  }
  return out;
}

}  // namespace serve
}  // namespace rotom
