#ifndef ROTOM_SERVE_ENCODER_H_
#define ROTOM_SERVE_ENCODER_H_

#include <memory>
#include <vector>

#include "serve/snapshot.h"
#include "tensor/quant.h"

namespace rotom {
namespace serve {

/// Encoded rows packed back to back with no padding: row i holds the real
/// tokens ids[offsets[i], offsets[i+1]), its [CLS] first.
struct PackedBatch {
  std::vector<int64_t> ids;
  std::vector<int64_t> flags;    // overlap flags, one per id
  std::vector<int64_t> offsets;  // rows + 1 entries, offsets[0] == 0

  int64_t rows() const { return static_cast<int64_t>(offsets.size()) - 1; }
  int64_t tokens() const { return static_cast<int64_t>(ids.size()); }
};

/// The serving forward: a frozen, tape-free replay of the classifier's
/// eval-mode forward, built from a snapshot. Training keeps the autograd
/// TransformerClassifier; the snapshot is the boundary between the two.
///
/// Precision is a per-layer choice, not a second code path. Every linear
/// layer (attention q/k/v/out, FFN in/out, head) is either an f32 GEMM
/// followed by a separate bias add — nn::Linear's order — or quant::QLinear
/// over a row-quantized int8 weight (dynamic per-row activation
/// quantization, exact int8 GEMM, dequantize at the layer boundary).
/// Embedding gathers, layer norms, softmax, GELU and residual adds always
/// run in f32 (DESIGN.md §12).
///
/// The forward runs on packed rows (DESIGN.md §10):
///   - embeddings, linear layers, layer norms and GELU run over the Σ Lᵢ
///     real tokens of the batch, not B × max_len slots;
///   - attention runs per (row, head) at that row's own length;
///   - the last layer computes only what the head reads: keys and values
///     over every token, then queries, attention, output projection,
///     residuals, norms and FFN for the [CLS] rows alone.
/// The f32 result equals TransformerClassifier::ForwardLogitsEncoded on the
/// padded batch bit for bit: padded keys carry a −1e9 bias, so their
/// softmax weight is exactly 0 and they sit after every real key; dropping
/// them removes only exact-zero terms, and every other op is row-wise.
/// The same argument makes each row's logits independent of what it is
/// batched with.
///
/// Construction accepts both snapshot generations in both precisions: an
/// int8 encoder uses a version-2 snapshot's codes as stored and quantizes a
/// float snapshot with tools/rotom_quantize's scheme; an f32 encoder
/// dequantizes int8 weights (Snapshot::DequantizeWeight).
///
/// Immutable after Create(); Logits() is safe to call concurrently. The
/// dense math inside one forward fans out over the shared compute pool with
/// thread-count-invariant results.
class InferenceEncoder {
 public:
  /// Builds the forward from a snapshot. Fails (Status) if the config is
  /// inconsistent or the weight list does not match the structure it
  /// implies: a missing, duplicate, surplus or wrongly shaped weight.
  static StatusOr<std::unique_ptr<InferenceEncoder>> Create(
      const Snapshot& snapshot, bool int8);

  InferenceEncoder(const InferenceEncoder&) = delete;
  InferenceEncoder& operator=(const InferenceEncoder&) = delete;

  /// Logits [rows, num_classes]. Every id must be below the vocabulary
  /// size and every row must hold 1..max_len tokens.
  Tensor Logits(const PackedBatch& batch) const;

  bool quantized() const { return head_.quantized(); }

 private:
  /// One linear layer y[m, out] = x[m, in] · W + bias in either precision.
  struct Linear {
    int64_t in = 0, out = 0;
    Tensor weight;                   // [in, out] f32; empty when int8
    quant::QuantizedTensor qweight;  // [out, in] codes; empty when f32
    std::vector<int32_t> row_sums;   // RowSums(qweight)
    Tensor bias;                     // [out]

    bool quantized() const { return !qweight.data.empty(); }
    void Apply(const float* x, float* y, int64_t m) const;
  };

  struct Layer {
    Linear q, k, v, out, ffn_in, ffn_out;
    Tensor norm1_gamma, norm1_beta;
    Tensor norm2_gamma, norm2_beta;
  };

  InferenceEncoder() = default;

  /// One post-LN encoder layer. Row i's queries, rows [q_offsets[i],
  /// q_offsets[i+1]) of `xq`, attend over its keys and values, rows
  /// [kv_offsets[i], kv_offsets[i+1]) of `x`; the layer's output replaces
  /// `xq`. `x` and `xq` may be the same buffer.
  void LayerForward(const Layer& layer, const float* x,
                    const std::vector<int64_t>& kv_offsets, float* xq,
                    const std::vector<int64_t>& q_offsets) const;

  models::ClassifierConfig config_;
  int64_t vocab_size_ = 0;
  Tensor token_emb_;  // [vocab, dim]
  Tensor pos_emb_;    // [max_len, dim]
  Tensor flag_emb_;   // [2, dim]
  Tensor emb_norm_gamma_, emb_norm_beta_;
  std::vector<Layer> layers_;
  Linear head_;
};

}  // namespace serve
}  // namespace rotom

#endif  // ROTOM_SERVE_ENCODER_H_
