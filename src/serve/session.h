#ifndef ROTOM_SERVE_SESSION_H_
#define ROTOM_SERVE_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/encoder.h"
#include "serve/snapshot.h"
#include "text/encoding_cache.h"

namespace rotom {
namespace serve {

/// One classification answer: the argmax class and the full softmax
/// distribution (num_classes entries).
struct Prediction {
  int64_t label = 0;
  std::vector<float> probs;
};

/// An immutable, read-only view of a loaded snapshot that answers inference
/// queries. The forward is a serve::InferenceEncoder (serve/encoder.h): a
/// tape-free replay of the classifier built from the snapshot, never the
/// autograd model. Nothing in the session mutates after construction, so
/// PredictBatch() and Logits() are safe to call concurrently from any number
/// of threads. Text encodings are memoized in a shared text::EncodingCache
/// (itself sharded and thread-safe), and the dense math inside a single
/// forward still fans out over the shared compute pool.
///
/// Packing: Assemble() drops each row's padding and packs the real tokens of
/// the batch back to back, so a forward costs the batch's real tokens, not
/// rows × max_len. Each row's logits are the same bits whether it is served
/// alone or with longer or shorter rows, and in f32 they equal
/// TransformerClassifier::ForwardLogitsEncoded on the padded row
/// (serve_test.cc asserts both).
///
/// Determinism: forwards consume no randomness, so a given text always
/// yields bit-identical logits — including across a Save/Load round trip of
/// the snapshot (serve_test.cc).
///
/// Precision: Options::precision selects f32 or int8 linear layers in the
/// one encoder, defaulting to whatever the snapshot was exported as. Both
/// modes answer the same API; int8 trades a bounded accuracy delta
/// (serve_quant_parity_test) for int8 GEMM throughput.
///
/// This is the terminal consumer of the encoded-row path: raw text is
/// encoded exactly once (cache hit afterwards). For request coalescing
/// across client threads, publish the snapshot in a ModelRegistry and put a
/// TenantServer (serve/tenant_server.h) in front.
class InferenceSession {
 public:
  /// Numeric mode of the forward pass (DESIGN.md §12).
  enum class Precision {
    /// int8 when the snapshot carries quantized weights, float32 otherwise.
    kAuto,
    /// Full-precision forward; a quantized snapshot is dequantized on load.
    kFloat32,
    /// int8 linear layers; a float snapshot is quantized at session build
    /// time with the same scheme tools/rotom_quantize uses.
    kInt8,
  };

  struct Options {
    /// Capacity of the encoding memo (rows); 0 disables caching.
    size_t cache_rows = 1 << 16;
    /// Forward-pass numerics; see Precision.
    Precision precision = Precision::kAuto;
  };

  /// Builds a session from an in-memory snapshot. Fails (Status) if the
  /// snapshot's config is inconsistent or its weights do not match it.
  static StatusOr<std::unique_ptr<InferenceSession>> Create(
      const Snapshot& snapshot, const Options& options);
  static StatusOr<std::unique_ptr<InferenceSession>> Create(
      const Snapshot& snapshot) {
    return Create(snapshot, Options());
  }

  /// Convenience: Snapshot::Load(path) + Create.
  static StatusOr<std::unique_ptr<InferenceSession>> Open(
      const std::string& path, const Options& options);
  static StatusOr<std::unique_ptr<InferenceSession>> Open(
      const std::string& path) {
    return Open(path, Options());
  }

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Classifies a batch of raw texts in one fused forward. Thread-safe;
  /// returns one Prediction per input, in order.
  std::vector<Prediction> PredictBatch(
      std::span<const std::string> texts) const;

  /// Raw logits [batch, num_classes] for a batch of texts (the pre-softmax
  /// scores; used by the snapshot round-trip tests and by callers that want
  /// their own calibration). Thread-safe.
  Tensor Logits(std::span<const std::string> texts) const;

  const models::ClassifierConfig& config() const { return config_; }
  const text::Vocabulary& vocab() const { return *vocab_; }
  const text::IdfTable& idf() const { return idf_; }

  /// True when this session runs int8 linear layers. Each quantized fused
  /// forward bumps the `serve.quantized` counter (OBSERVABILITY.md).
  bool quantized() const { return encoder_->quantized(); }

  /// Encoding-memo statistics (hits/misses/evictions) for this session.
  text::EncodingCache::Stats CacheStats() const { return cache_->GetStats(); }

 private:
  InferenceSession(const Snapshot& snapshot,
                   std::unique_ptr<InferenceEncoder> encoder,
                   const Options& options);

  /// Encodes (or looks up) each text and packs its real tokens.
  PackedBatch Assemble(std::span<const std::string> texts) const;

  models::ClassifierConfig config_;
  std::shared_ptr<const text::Vocabulary> vocab_;
  std::unique_ptr<InferenceEncoder> encoder_;
  text::IdfTable idf_;
  // Logically const (a pure memo); unique_ptr so the const methods can call
  // its internally-synchronized non-const Encode().
  std::unique_ptr<text::EncodingCache> cache_;
};

}  // namespace serve
}  // namespace rotom

#endif  // ROTOM_SERVE_SESSION_H_
