#include "serve/encoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/kernels.h"
#include "util/check.h"

namespace rotom {
namespace serve {

namespace {

// ops::Gelu's tanh approximation. This TU, like ops.cc, is compiled without
// the SIMD ISA flags, so the same scalar formula rounds the same way.
inline float Gelu(float x) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  constexpr float kCubic = 0.044715f;
  const float u = kSqrt2OverPi * (x + kCubic * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(u));
}

constexpr float kLayerNormEps = 1e-5f;  // ops::LayerNorm's default

// y = LayerNorm(x) over `rows` rows of width `d`, on ops::LayerNorm's
// kernel. The kernel's xhat/inv_std outputs feed only a backward pass.
void LayerNorm(const float* x, const Tensor& gamma, const Tensor& beta,
               float* y, int64_t rows, int64_t d) {
  std::vector<float> xhat(static_cast<size_t>(rows * d));
  std::vector<float> inv_std(static_cast<size_t>(rows));
  kernels::LayerNormRows(x, gamma.data(), beta.data(), kLayerNormEps, y,
                         xhat.data(), inv_std.data(), rows, d);
}

// [n, h*dh] row-major -> head-major [h, n, dh], so every (row, head) slice
// of consecutive tokens is one contiguous matrix.
void SplitHeads(const float* src, int64_t n, int64_t h, int64_t dh,
                float* dst) {
  kernels::ParallelRows(n, h * dh, [&](int64_t r) {
    for (int64_t hi = 0; hi < h; ++hi) {
      std::memcpy(dst + (hi * n + r) * dh, src + (r * h + hi) * dh,
                  sizeof(float) * static_cast<size_t>(dh));
    }
  });
}

// Inverse of SplitHeads.
void MergeHeads(const float* src, int64_t n, int64_t h, int64_t dh,
                float* dst) {
  kernels::ParallelRows(n, h * dh, [&](int64_t r) {
    for (int64_t hi = 0; hi < h; ++hi) {
      std::memcpy(dst + (r * h + hi) * dh, src + (hi * n + r) * dh,
                  sizeof(float) * static_cast<size_t>(dh));
    }
  });
}

// Name lookup over the snapshot's two weight lists. Counts the weights it
// hands out, so the caller can reject a snapshot carrying extra ones.
class WeightMap {
 public:
  explicit WeightMap(const Snapshot& snapshot) {
    for (const auto& [name, tensor] : snapshot.weights) {
      if (!f32_.emplace(name, &tensor).second) Duplicate(name);
    }
    for (const auto& [name, qw] : snapshot.qweights) {
      if (f32_.contains(name) || !q8_.emplace(name, &qw).second) {
        Duplicate(name);
      }
    }
  }

  /// Ok unless two weights share a name.
  const Status& status() const { return status_; }
  size_t size() const { return f32_.size() + q8_.size(); }
  size_t used() const { return used_; }

  /// An f32 weight of the given shape; an int8 one is dequantized
  /// (Snapshot::DequantizeWeight, as BuildModel does).
  StatusOr<Tensor> F32(const std::string& name,
                       const std::vector<int64_t>& shape) {
    Tensor tensor;
    if (auto it = f32_.find(name); it != f32_.end()) {
      tensor = it->second->Clone();
    } else if (auto q = q8_.find(name); q != q8_.end()) {
      tensor = Snapshot::DequantizeWeight(*q->second);
    } else {
      return Missing(name);
    }
    if (tensor.shape() != shape) return ShapeMismatch(name);
    ++used_;
    return tensor;
  }

  /// A Linear weight [in, out] as row-quantized [out, in] codes: used as
  /// stored when the snapshot is quantized, quantized here with
  /// QuantizeSnapshot's scheme when it is f32.
  StatusOr<quant::QuantizedTensor> Q8(const std::string& name, int64_t in,
                                      int64_t out) {
    if (auto it = q8_.find(name); it != q8_.end()) {
      const Snapshot::QuantizedWeight& qw = *it->second;
      if (!qw.transposed || qw.tensor.rows != out || qw.tensor.cols != in) {
        return ShapeMismatch(name);
      }
      ++used_;
      return qw.tensor;
    }
    auto it = f32_.find(name);
    if (it == f32_.end()) return Missing(name);
    if (it->second->shape() != std::vector<int64_t>{in, out}) {
      return ShapeMismatch(name);
    }
    const float* w = it->second->data();
    std::vector<float> wt(static_cast<size_t>(in * out));
    for (int64_t r = 0; r < in; ++r)
      for (int64_t c = 0; c < out; ++c) wt[c * in + r] = w[r * out + c];
    ++used_;
    return quant::QuantizeRows(wt.data(), out, in);
  }

 private:
  void Duplicate(const std::string& name) {
    if (status_.ok()) {
      status_ = Status::Error("duplicate snapshot weight '" + name + "'");
    }
  }

  static Status Missing(const std::string& name) {
    return Status::Error("snapshot weight '" + name + "' is missing");
  }
  static Status ShapeMismatch(const std::string& name) {
    return Status::Error("snapshot weight '" + name + "' has a shape mismatch");
  }

  std::unordered_map<std::string, const Tensor*> f32_;
  std::unordered_map<std::string, const Snapshot::QuantizedWeight*> q8_;
  size_t used_ = 0;
  Status status_ = Status::Ok();
};

}  // namespace

void InferenceEncoder::Linear::Apply(const float* x, float* y,
                                     int64_t m) const {
  if (quantized()) {
    quant::QLinear(x, qweight, row_sums.data(), bias.data(), y, m);
    return;
  }
  // nn::Linear: a GEMM into a zeroed output, then a separate bias add.
  std::fill(y, y + m * out, 0.0f);
  kernels::GemmAB(x, weight.data(), y, m, in, out);
  kernels::BroadcastAddRows(y, bias.data(), m, out);
}

StatusOr<std::unique_ptr<InferenceEncoder>> InferenceEncoder::Create(
    const Snapshot& snapshot, bool int8) {
  if (snapshot.vocab == nullptr) {
    return Status::Error("snapshot has no vocabulary; cannot build a model");
  }
  const models::ClassifierConfig& cfg = snapshot.config;
  if (cfg.num_classes < 1 || cfg.max_len < 2 || cfg.dim < 1 ||
      cfg.num_heads < 1 || cfg.num_layers < 1 || cfg.ffn_dim < 1 ||
      cfg.dim % cfg.num_heads != 0) {
    return Status::Error("snapshot config is inconsistent");
  }
  const int64_t d = cfg.dim;
  WeightMap map(snapshot);
  if (!map.status().ok()) return map.status();

  // Private constructor: make_unique cannot reach it.
  std::unique_ptr<InferenceEncoder> model(new InferenceEncoder());
  model->config_ = cfg;
  model->vocab_size_ = snapshot.vocab->size();

  auto f32 = [&](const std::string& name, const std::vector<int64_t>& shape,
                 Tensor* dst) -> Status {
    auto w = map.F32(name, shape);
    if (!w.ok()) return w.status();
    *dst = std::move(w).value();
    return Status::Ok();
  };
  auto linear = [&](const std::string& prefix, int64_t in, int64_t out,
                    Linear* dst) -> Status {
    dst->in = in;
    dst->out = out;
    if (int8) {
      auto w = map.Q8(prefix + ".weight", in, out);
      if (!w.ok()) return w.status();
      dst->qweight = std::move(w).value();
      dst->row_sums = quant::RowSums(dst->qweight);
    } else if (Status s = f32(prefix + ".weight", {in, out}, &dst->weight);
               !s.ok()) {
      return s;
    }
    return f32(prefix + ".bias", {out}, &dst->bias);
  };
  auto norm = [&](const std::string& prefix, Tensor* gamma,
                  Tensor* beta) -> Status {
    if (Status s = f32(prefix + ".gamma", {d}, gamma); !s.ok()) return s;
    return f32(prefix + ".beta", {d}, beta);
  };

  // Each braced list runs every lookup and returns the first failure.
  for (Status s : {f32("encoder.token_emb.weight", {model->vocab_size_, d},
                       &model->token_emb_),
                   f32("encoder.pos_emb.weight", {cfg.max_len, d},
                       &model->pos_emb_),
                   f32("encoder.flag_emb.weight", {2, d}, &model->flag_emb_),
                   norm("encoder.emb_norm", &model->emb_norm_gamma_,
                        &model->emb_norm_beta_)}) {
    if (!s.ok()) return s;
  }
  // Layers are added one at a time, so a corrupt layer count fails at the
  // first missing weight instead of sizing anything.
  for (int64_t i = 0; i < cfg.num_layers; ++i) {
    const std::string base = "encoder.layer" + std::to_string(i) + ".";
    Layer& layer = model->layers_.emplace_back();
    for (Status s :
         {linear(base + "attn.q", d, d, &layer.q),
          linear(base + "attn.k", d, d, &layer.k),
          linear(base + "attn.v", d, d, &layer.v),
          linear(base + "attn.out", d, d, &layer.out),
          linear(base + "ffn.in", d, cfg.ffn_dim, &layer.ffn_in),
          linear(base + "ffn.out", cfg.ffn_dim, d, &layer.ffn_out),
          norm(base + "norm1", &layer.norm1_gamma, &layer.norm1_beta),
          norm(base + "norm2", &layer.norm2_gamma, &layer.norm2_beta)}) {
      if (!s.ok()) return s;
    }
  }
  if (Status s = linear("head", d, cfg.num_classes, &model->head_); !s.ok()) {
    return s;
  }
  if (map.used() != map.size()) {
    return Status::Error("snapshot has " + std::to_string(map.size()) +
                         " weight tensors, model expects " +
                         std::to_string(map.used()));
  }
  return model;
}

void InferenceEncoder::LayerForward(
    const Layer& layer, const float* x, const std::vector<int64_t>& kv_offsets,
    float* xq, const std::vector<int64_t>& q_offsets) const {
  const int64_t d = config_.dim;
  const int64_t h = config_.num_heads;
  const int64_t dh = d / h;
  const int64_t f = config_.ffn_dim;
  const int64_t rows = static_cast<int64_t>(kv_offsets.size()) - 1;
  const int64_t n = kv_offsets.back();
  const int64_t nq = q_offsets.back();

  // Projections, split per head. Keys and values are read before `xq` is
  // written, so a layer may update its own input in place.
  std::vector<float> proj(static_cast<size_t>(std::max(n, nq) * d));
  std::vector<float> qh(static_cast<size_t>(nq * d));
  std::vector<float> kh(static_cast<size_t>(n * d));
  std::vector<float> vh(static_cast<size_t>(n * d));
  layer.k.Apply(x, proj.data(), n);
  SplitHeads(proj.data(), n, h, dh, kh.data());
  layer.v.Apply(x, proj.data(), n);
  SplitHeads(proj.data(), n, h, dh, vh.data());
  layer.q.Apply(xq, proj.data(), nq);
  SplitHeads(proj.data(), nq, h, dh, qh.data());

  // Attention per (row, head) at the row's own length: scores = Q·Kᵀ, then
  // ops::Scale, softmax and the context GEMM. The padded model adds a mask
  // bias of +0.0f to every real key, which changes no value that follows.
  std::vector<int64_t> score_offsets(static_cast<size_t>(rows) + 1, 0);
  for (int64_t i = 0; i < rows; ++i) {
    score_offsets[i + 1] = score_offsets[i] +
                           h * (q_offsets[i + 1] - q_offsets[i]) *
                               (kv_offsets[i + 1] - kv_offsets[i]);
  }
  std::vector<float> scores(static_cast<size_t>(score_offsets.back()));
  std::vector<float> ctx(static_cast<size_t>(nq * d));
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  kernels::ParallelRows(
      rows * h, 4 * dh * score_offsets.back() / (rows * h) + 1,
      [&](int64_t pair) {
        const int64_t i = pair / h, hi = pair % h;
        const int64_t q0 = q_offsets[i], lq = q_offsets[i + 1] - q0;
        const int64_t k0 = kv_offsets[i], lk = kv_offsets[i + 1] - k0;
        float* s = scores.data() + score_offsets[i] + hi * lq * lk;
        kernels::GemmABT(qh.data() + (hi * nq + q0) * dh,
                         kh.data() + (hi * n + k0) * dh, s, lq, dh, lk);
        for (int64_t j = 0; j < lq * lk; ++j) s[j] *= scale;
        kernels::SoftmaxRows(s, s, lq, lk);
        kernels::GemmAB(s, vh.data() + (hi * n + k0) * dh,
                        ctx.data() + (hi * nq + q0) * dh, lq, lk, dh);
      });
  std::vector<float> merged(static_cast<size_t>(nq * d));
  MergeHeads(ctx.data(), nq, h, dh, merged.data());
  layer.out.Apply(merged.data(), proj.data(), nq);

  // xq = norm1(xq + attn), then xq = norm2(xq + ffn_out(gelu(ffn_in(xq)))).
  std::vector<float> sum(static_cast<size_t>(nq * d));
  auto add = [](float a, float b) { return a + b; };
  kernels::ZipMap(xq, proj.data(), sum.data(), nq * d, add);
  LayerNorm(sum.data(), layer.norm1_gamma, layer.norm1_beta, xq, nq, d);
  std::vector<float> hidden(static_cast<size_t>(nq * f));
  layer.ffn_in.Apply(xq, hidden.data(), nq);
  kernels::Apply(hidden.data(), nq * f, Gelu);
  layer.ffn_out.Apply(hidden.data(), proj.data(), nq);
  kernels::ZipMap(xq, proj.data(), sum.data(), nq * d, add);
  LayerNorm(sum.data(), layer.norm2_gamma, layer.norm2_beta, xq, nq, d);
}

Tensor InferenceEncoder::Logits(const PackedBatch& batch) const {
  const int64_t rows = batch.rows();
  const int64_t n = batch.tokens();
  const int64_t d = config_.dim;
  ROTOM_CHECK_GE(rows, 1);
  ROTOM_CHECK_EQ(batch.offsets.front(), 0);
  ROTOM_CHECK_EQ(batch.offsets.back(), n);
  ROTOM_CHECK_EQ(batch.flags.size(), batch.ids.size());

  // Embedding sum token + position + overlap flag (the autograd model's
  // order), then the embedding layer norm.
  std::vector<int64_t> positions(static_cast<size_t>(n));
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t len = batch.offsets[i + 1] - batch.offsets[i];
    ROTOM_CHECK_GE(len, 1);
    ROTOM_CHECK_LE(len, config_.max_len);
    for (int64_t t = 0; t < len; ++t) positions[batch.offsets[i] + t] = t;
  }
  std::vector<float> emb(static_cast<size_t>(n * d));
  kernels::ParallelRows(n, 3 * d, [&](int64_t r) {
    const int64_t id = batch.ids[r];
    ROTOM_CHECK_GE(id, 0);
    ROTOM_CHECK_LT(id, vocab_size_);
    const float* tok = token_emb_.data() + id * d;
    const float* pos = pos_emb_.data() + positions[r] * d;
    const float* flag = flag_emb_.data() + (batch.flags[r] & 1) * d;
    float* row = emb.data() + r * d;
    for (int64_t j = 0; j < d; ++j) row[j] = tok[j] + pos[j] + flag[j];
  });
  std::vector<float> x(static_cast<size_t>(n * d));
  LayerNorm(emb.data(), emb_norm_gamma_, emb_norm_beta_, x.data(), n, d);

  for (size_t l = 0; l + 1 < layers_.size(); ++l) {
    LayerForward(layers_[l], x.data(), batch.offsets, x.data(),
                 batch.offsets);
  }
  // The head reads only [CLS], so the last layer runs its queries and
  // everything after attention for the [CLS] rows alone.
  std::vector<float> cls(static_cast<size_t>(rows * d));
  std::vector<int64_t> cls_offsets(static_cast<size_t>(rows) + 1);
  for (int64_t i = 0; i <= rows; ++i) cls_offsets[i] = i;
  for (int64_t i = 0; i < rows; ++i) {
    std::memcpy(cls.data() + i * d, x.data() + batch.offsets[i] * d,
                sizeof(float) * static_cast<size_t>(d));
  }
  LayerForward(layers_.back(), x.data(), batch.offsets, cls.data(),
               cls_offsets);

  Tensor logits({rows, config_.num_classes});
  head_.Apply(cls.data(), logits.data(), rows);
  return logits;
}

}  // namespace serve
}  // namespace rotom
