#include "serve/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rotom {
namespace serve {

namespace {

// "RSNAP" + NULs to 8 bytes; distinct from the bare tensor container's
// "ROTM1" magic so the two formats cannot be confused.
constexpr char kMagic[8] = {'R', 'S', 'N', 'A', 'P', '\0', '\0', '\0'};

// FNV-1a 64-bit over the payload bytes: tiny, dependency-free, and plenty to
// catch truncation/bit-rot (this is an integrity check, not authentication).
uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// In-memory payload writer. Integers/floats are appended as raw
// little-endian bytes (the library only targets little-endian hosts).
class PayloadWriter {
 public:
  template <typename T>
  void Pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* p = reinterpret_cast<const char*>(&value);
    buffer_.append(p, sizeof(T));
  }

  void String(const std::string& s) {
    Pod<uint64_t>(s.size());
    buffer_.append(s);
  }

  void Bytes(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

// Bounds-checked payload reader: every accessor returns false once the
// cursor would run past the end, so corrupt length fields degrade into a
// Status error instead of out-of-bounds reads or absurd allocations. Reads
// from a view, so the same parser serves both the buffered Load() path and
// the in-place LoadMapped() path (where the view covers mmap'd pages).
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : payload_(payload) {}

  template <typename T>
  bool Pod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Remaining() < sizeof(T)) return false;
    std::memcpy(value, payload_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return true;
  }

  bool String(std::string* out) {
    uint64_t size = 0;
    if (!Pod(&size) || Remaining() < size) return false;
    out->assign(payload_.data() + cursor_, size);
    cursor_ += size;
    return true;
  }

  bool Bytes(void* data, size_t size) {
    if (Remaining() < size) return false;
    std::memcpy(data, payload_.data() + cursor_, size);
    cursor_ += size;
    return true;
  }

  size_t Remaining() const { return payload_.size() - cursor_; }

 private:
  std::string_view payload_;
  size_t cursor_ = 0;
};

void WriteConfig(PayloadWriter& w, const models::ClassifierConfig& config) {
  w.Pod<int64_t>(config.num_classes);
  w.Pod<int64_t>(config.max_len);
  w.Pod<int64_t>(config.dim);
  w.Pod<int64_t>(config.num_heads);
  w.Pod<int64_t>(config.num_layers);
  w.Pod<int64_t>(config.ffn_dim);
  w.Pod<float>(config.dropout);
}

bool ReadConfig(PayloadReader& r, models::ClassifierConfig* config) {
  return r.Pod(&config->num_classes) && r.Pod(&config->max_len) &&
         r.Pod(&config->dim) && r.Pod(&config->num_heads) &&
         r.Pod(&config->num_layers) && r.Pod(&config->ffn_dim) &&
         r.Pod(&config->dropout);
}

// Weight dtype byte in version-2 weight entries.
constexpr uint8_t kDtypeF32 = 0;
constexpr uint8_t kDtypeQ8 = 1;

// Fixed on-disk header: magic, version, payload_size, payload_checksum.
constexpr size_t kHeaderSize =
    sizeof(kMagic) + sizeof(uint32_t) + 2 * sizeof(uint64_t);

// out [cols, rows] = in [rows, cols]^T.
void TransposeInto(const float* in, float* out, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) out[c * rows + r] = in[r * cols + c];
}

}  // namespace

Snapshot Snapshot::FromModel(const models::TransformerClassifier& model,
                             const text::IdfTable& idf) {
  Snapshot snapshot;
  snapshot.config = model.config();
  snapshot.vocab = model.vocab_ptr();
  snapshot.idf = idf;
  snapshot.weights = model.StateDict();  // StateDict clones every tensor
  return snapshot;
}

Status Snapshot::Save(const std::string& path) const {
  if (vocab == nullptr) {
    return Status::Error("snapshot has no vocabulary; nothing to save");
  }
  PayloadWriter payload;

  WriteConfig(payload, config);

  // Vocabulary: every token in id order (ids are implicit). The fixed
  // special tokens are included so Load() can verify the layout assumption.
  payload.Pod<uint64_t>(static_cast<uint64_t>(vocab->size()));
  for (int64_t id = 0; id < vocab->size(); ++id) payload.String(vocab->Token(id));

  // IDF table, token-sorted for deterministic bytes.
  payload.Pod<int64_t>(idf.num_documents());
  payload.Pod<double>(idf.max_idf());
  const auto entries = idf.SortedEntries();
  payload.Pod<uint64_t>(entries.size());
  for (const auto& [token, value] : entries) {
    payload.String(token);
    payload.Pod<double>(value);
  }

  // Weights, in StateDict order. An all-float snapshot is written as
  // version 1 — byte-identical to what pre-quantization builds produced —
  // so the dtype byte below only appears in version-2 files.
  const bool v2 = !qweights.empty();
  payload.Pod<uint64_t>(weights.size() + qweights.size());
  for (const auto& [name, tensor] : weights) {
    payload.String(name);
    if (v2) payload.Pod<uint8_t>(kDtypeF32);
    payload.Pod<uint64_t>(tensor.shape().size());
    for (int64_t d : tensor.shape()) payload.Pod<int64_t>(d);
    payload.Bytes(tensor.data(), sizeof(float) * tensor.size());
  }
  for (const auto& [name, qw] : qweights) {
    const quant::QuantizedTensor& qt = qw.tensor;
    payload.String(name);
    payload.Pod<uint8_t>(kDtypeQ8);
    payload.Pod<int64_t>(qt.rows);
    payload.Pod<int64_t>(qt.cols);
    payload.Pod<uint8_t>(qw.transposed ? 1 : 0);
    payload.Bytes(qt.scales.data(), sizeof(float) * qt.scales.size());
    payload.Bytes(qt.zero_points.data(),
                  sizeof(int32_t) * qt.zero_points.size());
    payload.Bytes(qt.data.data(), qt.data.size());
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Error("cannot open " + path + " for writing");
  out.write(kMagic, sizeof(kMagic));
  const uint32_t version = v2 ? 2 : 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t size = payload.buffer().size();
  out.write(reinterpret_cast<const char*>(&size), sizeof(size));
  const uint64_t checksum = Fnv1a64(payload.buffer().data(), size);
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.write(payload.buffer().data(), static_cast<std::streamsize>(size));
  if (!out) return Status::Error("write failed for " + path);
  return Status::Ok();
}

namespace {

// Validated header fields, shared by both load paths.
struct Header {
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
};

// Parses and validates the fixed header at `bytes` (which must hold at
// least kHeaderSize bytes).
StatusOr<Header> ParseHeader(const char* bytes, const std::string& path) {
  if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0) {
    return Status::Error(path + " is not a rotom snapshot (bad magic)");
  }
  Header header;
  std::memcpy(&header.version, bytes + sizeof(kMagic), sizeof(header.version));
  if (header.version < 1 || header.version > Snapshot::kFormatVersion) {
    return Status::Error(path + ": unsupported snapshot version " +
                         std::to_string(header.version) + " (expected 1.." +
                         std::to_string(Snapshot::kFormatVersion) + ")");
  }
  std::memcpy(&header.payload_size,
              bytes + sizeof(kMagic) + sizeof(header.version),
              sizeof(header.payload_size));
  std::memcpy(&header.checksum,
              bytes + sizeof(kMagic) + sizeof(header.version) +
                  sizeof(header.payload_size),
              sizeof(header.checksum));
  return header;
}

// Parses a checksum-verified payload into a Snapshot. Any failure here
// means a writer bug or a hand-edited file that still has a valid checksum;
// report which section failed rather than aborting. The view may cover a
// heap buffer (Load) or mmap'd pages (LoadMapped) — the parser never copies
// the payload as a whole, only the sections it materializes.
StatusOr<Snapshot> ParsePayload(std::string_view payload, uint32_t version,
                                const std::string& path) {
  PayloadReader r(payload);
  Snapshot snapshot;

  if (!ReadConfig(r, &snapshot.config)) {
    return Status::Error(path + ": snapshot config section is malformed");
  }
  if (snapshot.config.num_classes < 2 || snapshot.config.max_len < 1 ||
      snapshot.config.dim < 1 || snapshot.config.num_heads < 1 ||
      snapshot.config.num_layers < 1 || snapshot.config.ffn_dim < 1) {
    return Status::Error(path + ": snapshot config has non-positive sizes");
  }
  // Room for [CLS] and [SEP], and whole attention heads: the model
  // constructor CHECKs both.
  if (snapshot.config.max_len < 2 ||
      snapshot.config.dim % snapshot.config.num_heads != 0) {
    return Status::Error(path + ": snapshot config is inconsistent");
  }

  uint64_t vocab_size = 0;
  if (!r.Pod(&vocab_size) ||
      vocab_size < static_cast<uint64_t>(text::SpecialTokens::kCount)) {
    return Status::Error(path + ": snapshot vocabulary section is malformed");
  }
  auto vocab = std::make_shared<text::Vocabulary>();
  for (uint64_t id = 0; id < vocab_size; ++id) {
    std::string token;
    if (!r.String(&token)) {
      return Status::Error(path + ": snapshot vocabulary section is truncated");
    }
    if (id < static_cast<uint64_t>(text::SpecialTokens::kCount)) {
      if (token != vocab->Token(static_cast<int64_t>(id))) {
        return Status::Error(path + ": snapshot special token " +
                             std::to_string(id) + " is '" + token +
                             "', expected '" +
                             vocab->Token(static_cast<int64_t>(id)) + "'");
      }
      continue;  // the Vocabulary constructor already added it
    }
    if (vocab->AddToken(token) != static_cast<int64_t>(id)) {
      return Status::Error(path + ": snapshot vocabulary has duplicate token '" +
                           token + "'");
    }
  }
  snapshot.vocab = std::move(vocab);

  int64_t num_documents = 0;
  double max_idf = 0.0;
  uint64_t idf_count = 0;
  if (!r.Pod(&num_documents) || !r.Pod(&max_idf) || !r.Pod(&idf_count)) {
    return Status::Error(path + ": snapshot idf section is malformed");
  }
  // Each entry takes at least a length and a value; bounding the count by
  // what is left keeps a corrupt count from sizing the reservation.
  if (idf_count > r.Remaining() / (sizeof(uint64_t) + sizeof(double))) {
    return Status::Error(path + ": snapshot idf section is truncated");
  }
  std::vector<std::pair<std::string, double>> idf_entries;
  idf_entries.reserve(idf_count);
  for (uint64_t i = 0; i < idf_count; ++i) {
    std::string token;
    double value = 0.0;
    if (!r.String(&token) || !r.Pod(&value)) {
      return Status::Error(path + ": snapshot idf section is truncated");
    }
    idf_entries.emplace_back(std::move(token), value);
  }
  snapshot.idf =
      text::IdfTable::FromParts(std::move(idf_entries), max_idf, num_documents);

  uint64_t weight_count = 0;
  if (!r.Pod(&weight_count)) {
    return Status::Error(path + ": snapshot weights section is malformed");
  }
  for (uint64_t i = 0; i < weight_count; ++i) {
    std::string name;
    if (!r.String(&name)) {
      return Status::Error(path + ": snapshot weight " + std::to_string(i) +
                           " has a malformed header");
    }
    uint8_t dtype = kDtypeF32;
    if (version >= 2 && !r.Pod(&dtype)) {
      return Status::Error(path + ": snapshot weight '" + name +
                           "' has a malformed header");
    }
    if (dtype == kDtypeF32) {
      uint64_t ndim = 0;
      if (!r.Pod(&ndim) || ndim == 0 || ndim > 8) {
        return Status::Error(path + ": snapshot weight " + std::to_string(i) +
                             " has a malformed header");
      }
      std::vector<int64_t> shape(ndim);
      uint64_t numel = 1;
      for (auto& d : shape) {
        if (!r.Pod(&d) || d < 1 ||
            numel > UINT64_MAX / static_cast<uint64_t>(d)) {
          return Status::Error(path + ": snapshot weight '" + name +
                               "' has a malformed shape");
        }
        numel *= static_cast<uint64_t>(d);
      }
      // The data must fit in what is actually left of the payload; this
      // bounds the allocation below before it happens.
      if (numel > r.Remaining() / sizeof(float)) {
        return Status::Error(path + ": snapshot weight '" + name +
                             "' claims more data than the payload holds");
      }
      Tensor tensor(std::move(shape));
      if (!r.Bytes(tensor.data(), sizeof(float) * tensor.size())) {
        return Status::Error(path + ": snapshot weight '" + name +
                             "' is truncated");
      }
      snapshot.weights.emplace_back(std::move(name), std::move(tensor));
    } else if (dtype == kDtypeQ8) {
      Snapshot::QuantizedWeight qw;
      quant::QuantizedTensor& qt = qw.tensor;
      uint8_t transposed = 0;
      if (!r.Pod(&qt.rows) || !r.Pod(&qt.cols) || !r.Pod(&transposed) ||
          qt.rows < 1 || qt.cols < 1 || transposed > 1) {
        return Status::Error(path + ": snapshot weight '" + name +
                             "' has a malformed quantized header");
      }
      qw.transposed = transposed == 1;
      const uint64_t rows = static_cast<uint64_t>(qt.rows);
      const uint64_t cols = static_cast<uint64_t>(qt.cols);
      // Per-row metadata plus the codes must fit in the remaining payload;
      // checked before any allocation sized from the file.
      if (rows > r.Remaining() / (sizeof(float) + sizeof(int32_t)) ||
          cols > (r.Remaining() - rows * (sizeof(float) + sizeof(int32_t))) /
                     rows) {
        return Status::Error(path + ": snapshot weight '" + name +
                             "' claims more data than the payload holds");
      }
      qt.scales.resize(rows);
      qt.zero_points.resize(rows);
      qt.data.resize(rows * cols);
      if (!r.Bytes(qt.scales.data(), sizeof(float) * rows) ||
          !r.Bytes(qt.zero_points.data(), sizeof(int32_t) * rows) ||
          !r.Bytes(qt.data.data(), rows * cols)) {
        return Status::Error(path + ": snapshot weight '" + name +
                             "' is truncated");
      }
      // The int8 kernels take codes in [-127, 127] and dequantize in int32
      // as `code - zero_point`; reject values the quantizer never writes.
      constexpr int32_t kMaxZeroPoint =
          std::numeric_limits<int32_t>::max() - 127;
      const auto bad_zero_point = [](int32_t zp) {
        return zp < -kMaxZeroPoint || zp > kMaxZeroPoint;
      };
      if (std::any_of(qt.zero_points.begin(), qt.zero_points.end(),
                      bad_zero_point) ||
          std::find(qt.data.begin(), qt.data.end(), int8_t{-128}) !=
              qt.data.end()) {
        return Status::Error(path + ": snapshot weight '" + name +
                             "' has out-of-range int8 codes");
      }
      snapshot.qweights.emplace_back(std::move(name), std::move(qw));
    } else {
      return Status::Error(path + ": snapshot weight '" + name +
                           "' has unknown dtype " + std::to_string(dtype));
    }
  }
  if (r.Remaining() != 0) {
    return Status::Error(path + ": snapshot has " +
                         std::to_string(r.Remaining()) +
                         " trailing bytes after the weights section");
  }
  return snapshot;
}

// Read-only mmap of a whole file; unmaps on destruction.
class MappedFile {
 public:
  static StatusOr<MappedFile> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::Error("cannot open snapshot " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::Error("cannot stat snapshot " + path);
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      return Status::Error(path + ": truncated snapshot header");
    }
    void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    // The mapping keeps the pages referenced; the descriptor is not needed
    // after mmap succeeds (or fails).
    ::close(fd);
    if (data == MAP_FAILED) {
      return Status::Error("mmap failed for snapshot " + path);
    }
    return MappedFile(static_cast<const char*>(data), size);
  }

  MappedFile(MappedFile&& other) noexcept
      : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile& operator=(MappedFile&&) = delete;
  ~MappedFile() {
    if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
  }

  const char* data() const { return data_; }
  size_t size() const { return size_; }

  // Public only because StatusOr<MappedFile> default-constructs its value
  // slot; an empty MappedFile maps nothing.
  MappedFile() = default;

 private:
  MappedFile(const char* data, size_t size) : data_(data), size_(size) {}

  const char* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace

StatusOr<Snapshot> Snapshot::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Error("cannot open snapshot " + path);

  char header_bytes[kHeaderSize];
  in.read(header_bytes, sizeof(header_bytes));
  if (static_cast<size_t>(in.gcount()) < sizeof(kMagic) ||
      std::memcmp(header_bytes, kMagic, sizeof(kMagic)) != 0) {
    return Status::Error(path + " is not a rotom snapshot (bad magic)");
  }
  if (static_cast<size_t>(in.gcount()) != sizeof(header_bytes)) {
    return Status::Error(path + ": truncated snapshot header");
  }
  auto header = ParseHeader(header_bytes, path);
  if (!header.ok()) return header.status();
  const uint64_t payload_size = header.value().payload_size;

  // The payload buffer is sized from the header; check the claim against
  // the file before allocating it.
  in.seekg(0, std::ios::end);
  const uint64_t file_payload =
      static_cast<uint64_t>(in.tellg()) - kHeaderSize;
  in.seekg(kHeaderSize);
  if (file_payload < payload_size) {
    return Status::Error(path + ": truncated snapshot payload (expected " +
                         std::to_string(payload_size) + " bytes, got " +
                         std::to_string(file_payload) + ")");
  }
  std::string payload(payload_size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload_size));
  if (static_cast<uint64_t>(in.gcount()) != payload_size) {
    return Status::Error(path + ": truncated snapshot payload (expected " +
                         std::to_string(payload_size) + " bytes, got " +
                         std::to_string(in.gcount()) + ")");
  }
  if (Fnv1a64(payload.data(), payload.size()) != header.value().checksum) {
    return Status::Error(path + ": snapshot checksum mismatch (corrupt file)");
  }
  // The header says the file ends here; anything after it means the file was
  // appended to (or two snapshots were concatenated) and the checksum no
  // longer vouches for what a naive reader would consume.
  if (in.peek() != std::ifstream::traits_type::eof()) {
    return Status::Error(path + ": trailing bytes after snapshot payload");
  }
  return ParsePayload(payload, header.value().version, path);
}

StatusOr<Snapshot> Snapshot::LoadMapped(const std::string& path) {
  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const MappedFile& file = mapped.value();

  if (file.size() < sizeof(kMagic) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Error(path + " is not a rotom snapshot (bad magic)");
  }
  if (file.size() < kHeaderSize) {
    return Status::Error(path + ": truncated snapshot header");
  }
  auto header = ParseHeader(file.data(), path);
  if (!header.ok()) return header.status();
  const uint64_t payload_size = header.value().payload_size;

  // Size checks before touching the payload: the mapped extent must hold
  // exactly header + payload, mirroring Load()'s short-read and
  // trailing-bytes errors.
  if (file.size() - kHeaderSize < payload_size) {
    return Status::Error(path + ": truncated snapshot payload (expected " +
                         std::to_string(payload_size) + " bytes, got " +
                         std::to_string(file.size() - kHeaderSize) + ")");
  }
  if (file.size() - kHeaderSize > payload_size) {
    return Status::Error(path + ": trailing bytes after snapshot payload");
  }

  const std::string_view payload(file.data() + kHeaderSize, payload_size);
  if (Fnv1a64(payload.data(), payload.size()) != header.value().checksum) {
    return Status::Error(path + ": snapshot checksum mismatch (corrupt file)");
  }
  // Parsed in place: strings, IDF doubles, and tensor bytes are read
  // straight out of the mapping (the kernel pages them in on first touch);
  // the mapping is dropped when `mapped` goes out of scope, after the
  // sections that outlive the call have been materialized.
  return ParsePayload(payload, header.value().version, path);
}

StatusOr<std::unique_ptr<models::TransformerClassifier>> Snapshot::BuildModel()
    const {
  if (vocab == nullptr) {
    return Status::Error("snapshot has no vocabulary; cannot build a model");
  }
  // Construction randomness is irrelevant — every parameter is overwritten —
  // but the constructor requires a generator.
  Rng rng(0);
  auto model =
      std::make_unique<models::TransformerClassifier>(config, vocab, rng);

  // Validate the weight list against the freshly built module tree before
  // LoadStateDict, which CHECK-aborts on mismatch: a snapshot may have been
  // produced by an incompatible build, and that is an input error, not a
  // programmer error. Lookup is by name (not position) so float and
  // quantized entries can be interleaved in any order on disk.
  NamedTensors expected = model->StateDict();
  if (expected.size() != weights.size() + qweights.size()) {
    return Status::Error(
        "snapshot has " + std::to_string(weights.size() + qweights.size()) +
        " weight tensors, model expects " + std::to_string(expected.size()));
  }

  std::unordered_map<std::string, Tensor> by_name;
  by_name.reserve(expected.size());
  for (const auto& [name, tensor] : weights) {
    if (!by_name.emplace(name, tensor).second) {
      return Status::Error("duplicate snapshot weight '" + name + "'");
    }
  }
  for (const auto& [name, qw] : qweights) {
    if (!by_name.emplace(name, DequantizeWeight(qw)).second) {
      return Status::Error("duplicate snapshot weight '" + name + "'");
    }
  }

  NamedTensors resolved;
  resolved.reserve(expected.size());
  for (const auto& [name, tensor] : expected) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::Error("model expects weight '" + name +
                           "' but no snapshot weight provides it");
    }
    if (it->second.shape() != tensor.shape()) {
      return Status::Error("snapshot weight '" + name +
                           "' has a shape mismatch");
    }
    resolved.emplace_back(name, std::move(it->second));
  }
  model->LoadStateDict(resolved);
  model->SetTraining(false);
  return model;
}

Tensor Snapshot::DequantizeWeight(const QuantizedWeight& qw) {
  const quant::QuantizedTensor& qt = qw.tensor;
  if (!qw.transposed) {
    Tensor out({qt.rows, qt.cols});
    quant::Dequantize(qt, out.data());
    return out;
  }
  // Stored output-major [out, in]; the model tensor is the [in, out]
  // transpose.
  std::vector<float> staged(static_cast<size_t>(qt.size()));
  quant::Dequantize(qt, staged.data());
  Tensor out({qt.cols, qt.rows});
  TransposeInto(staged.data(), out.data(), qt.rows, qt.cols);
  return out;
}

StatusOr<Snapshot> QuantizeSnapshot(const Snapshot& src,
                                    std::vector<TensorQuantReport>* report) {
  if (!src.qweights.empty()) {
    return Status::Error("snapshot is already quantized (" +
                         std::to_string(src.qweights.size()) +
                         " int8 weight tensors)");
  }
  Snapshot dst;
  dst.config = src.config;
  dst.vocab = src.vocab;
  dst.idf = src.idf;

  for (const auto& [name, tensor] : src.weights) {
    // Eligible weights are exactly the 2-D Linear projection matrices:
    // attention q/k/v/out, FFN in/out, and the classifier head. Embedding
    // tables are also 2-D and also named ".weight" but stay f32 — rows are
    // looked up, not multiplied, so quantizing them buys no GEMM time and
    // costs accuracy on every token.
    const bool is_linear = tensor.shape().size() == 2 &&
                           name.size() > 7 &&
                           name.compare(name.size() - 7, 7, ".weight") == 0 &&
                           name.find("_emb.") == std::string::npos;
    TensorQuantReport entry;
    entry.name = name;
    if (!is_linear) {
      dst.weights.emplace_back(name, tensor);
      if (report != nullptr) report->push_back(std::move(entry));
      continue;
    }
    // Store transposed ([out, in]) so per-row quantization is per output
    // channel and the quantized GEMM reads contiguous rows of W^T.
    const int64_t in = tensor.shape()[0], out = tensor.shape()[1];
    std::vector<float> wt(static_cast<size_t>(in * out));
    TransposeInto(tensor.data(), wt.data(), in, out);
    Snapshot::QuantizedWeight qw;
    qw.tensor = quant::QuantizeRows(wt.data(), out, in);
    qw.transposed = true;
    entry.quantized = true;
    entry.rows = out;
    entry.cols = in;
    entry.error = quant::MeasureError(wt.data(), qw.tensor);
    dst.qweights.emplace_back(name, std::move(qw));
    if (report != nullptr) report->push_back(std::move(entry));
  }
  return dst;
}

}  // namespace serve
}  // namespace rotom
