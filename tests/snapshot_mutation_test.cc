// Seeded mutation sweep over the snapshot readers. Every mutant of a valid
// version-1 (f32) and version-2 (int8) snapshot file goes through
// Snapshot::Load and Snapshot::LoadMapped, then InferenceSession::Create
// and Logits. Each step must answer or return a Status: never crash,
// CHECK-abort or read out of bounds. scripts/check.sh address runs this
// under ASan/UBSan.
//
// Mutations: bit flips, truncations, extensions, and overwrites of the
// integer fields readers size things from (format version, payload size,
// config sizes, section counts, string lengths, weight ranks, dimensions
// and dtype/transposed bytes). Half of the mutants get a re-sealed header
// (payload size and FNV-1a checksum recomputed over what follows), so the
// parser behind the checksum sees them too.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/session.h"
#include "util/rng.h"

namespace rotom {
namespace {

using serve::InferenceSession;
using serve::Snapshot;

constexpr size_t kHeaderSize = 28;  // magic, u32 version, u64 size, u64 sum
constexpr size_t kSizeOffset = 12;
constexpr size_t kChecksumOffset = 20;

Snapshot FloatSnapshot() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w : {"alpha", "beta", "gamma", "delta", "epsilon"})
    vocab->AddToken(w);
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 8;
  config.dim = 8;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 12;
  Rng rng(3);
  models::TransformerClassifier model(config, vocab, rng);
  model.SetTraining(false);
  return Snapshot::FromModel(
      model, text::IdfTable::Build({{"alpha", "beta"}, {"gamma"}}));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// An integer field of a valid file: where it is and how wide.
struct Field {
  size_t offset;
  size_t width;
};

// Walks a valid snapshot file and lists every integer field a reader sizes
// something from (DESIGN.md §10 and §12 give the layout).
std::vector<Field> SizeFields(const std::string& bytes) {
  std::vector<Field> fields = {{8, 4}, {kSizeOffset, 8}};
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  size_t at = kHeaderSize;
  auto field = [&](size_t width) {
    uint64_t value = 0;
    std::memcpy(&value, bytes.data() + at, width);
    fields.push_back({at, width});
    at += width;
    return value;
  };
  for (int i = 0; i < 6; ++i) field(8);  // config sizes
  at += sizeof(float);                   // dropout
  const uint64_t vocab = field(8);
  for (uint64_t i = 0; i < vocab; ++i) at += field(8);
  at += 2 * sizeof(int64_t);  // idf num_documents, max_idf
  const uint64_t idf = field(8);
  for (uint64_t i = 0; i < idf; ++i) at += field(8) + sizeof(double);
  const uint64_t weights = field(8);
  for (uint64_t i = 0; i < weights; ++i) {
    at += field(8);  // name
    const uint64_t dtype = version >= 2 ? field(1) : 0;
    if (dtype == 0) {
      const uint64_t rank = field(8);
      uint64_t numel = 1;
      for (uint64_t d = 0; d < rank; ++d) numel *= field(8);
      at += numel * sizeof(float);
    } else {
      const uint64_t rows = field(8);
      const uint64_t cols = field(8);
      field(1);  // transposed
      at += rows * (sizeof(float) + sizeof(int32_t)) + rows * cols;
    }
  }
  EXPECT_EQ(at, bytes.size());
  return fields;
}

// Values that break size arithmetic: zero, one, off-by-one, doubling,
// sign bits, and huge counts.
uint64_t HostileValue(uint64_t current, Rng& rng) {
  const uint64_t kValues[] = {0,
                              1,
                              2,
                              current - 1,
                              current + 1,
                              current * 2,
                              uint64_t{1} << 31,
                              uint64_t{1} << 32,
                              uint64_t{1} << 62,
                              std::numeric_limits<uint64_t>::max(),
                              uint64_t{1} << 63,
                              static_cast<uint64_t>(rng.UniformInt(1 << 20))};
  return kValues[rng.UniformInt(static_cast<int64_t>(std::size(kValues)))];
}

std::string Mutate(const std::string& valid, const std::vector<Field>& fields,
                   Rng& rng) {
  std::string m = valid;
  bool size_field = false;
  switch (rng.UniformInt(4)) {
    case 0:  // flip one to four bits
      for (int64_t i = 0, n = 1 + rng.UniformInt(4); i < n; ++i) {
        m[rng.UniformInt(static_cast<int64_t>(m.size()))] ^=
            static_cast<char>(1 << rng.UniformInt(8));
      }
      break;
    case 1:  // truncate
      m.resize(static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(m.size()))));
      break;
    case 2:  // extend with random bytes
      for (int64_t i = 0, n = 1 + rng.UniformInt(64); i < n; ++i)
        m += static_cast<char>(rng.UniformInt(256));
      break;
    default: {  // corrupt a size field
      const Field& f =
          fields[rng.UniformInt(static_cast<int64_t>(fields.size()))];
      uint64_t value = 0;
      std::memcpy(&value, m.data() + f.offset, f.width);
      value = HostileValue(value, rng);
      std::memcpy(m.data() + f.offset, &value, f.width);
      size_field = f.offset == kSizeOffset;
      break;
    }
  }
  if (m.size() >= kHeaderSize && rng.Bernoulli(0.5)) {
    // Re-seal: a header that vouches for whatever follows it (keeping a
    // deliberately corrupted payload size).
    uint64_t size = m.size() - kHeaderSize;
    if (size_field) std::memcpy(&size, m.data() + kSizeOffset, sizeof(size));
    std::memcpy(m.data() + kSizeOffset, &size, sizeof(size));
    const uint64_t sum =
        Fnv1a64(m.data() + kHeaderSize,
                std::min<uint64_t>(size, m.size() - kHeaderSize));
    std::memcpy(m.data() + kChecksumOffset, &sum, sizeof(sum));
  }
  return m;
}

void Sweep(const Snapshot& snapshot, const std::string& tag,
           uint64_t seed) {
  const std::string path =
      ::testing::TempDir() + "/snapshot_mutation_" + tag + ".rsnap";
  ASSERT_TRUE(snapshot.Save(path).ok());
  const std::string valid = ReadFile(path);
  const std::vector<Field> fields = SizeFields(valid);
  const std::vector<std::string> queries = {
      "", "alpha", "beta gamma [SEP] gamma delta", "unknown words here",
      "alpha beta gamma delta epsilon alpha beta gamma delta"};

  Rng rng(seed);
  int parsed = 0, served = 0;
  constexpr int kMutants = 400;
  for (int i = 0; i < kMutants; ++i) {
    WriteFile(path, Mutate(valid, fields, rng));
    auto loaded = Snapshot::Load(path);
    auto mapped = Snapshot::LoadMapped(path);
    ASSERT_EQ(loaded.ok(), mapped.ok())
        << tag << " mutant " << i << ": "
        << (loaded.ok() ? mapped.status() : loaded.status()).message();
    if (!loaded.ok()) continue;
    ++parsed;
    for (auto precision : {InferenceSession::Precision::kFloat32,
                           InferenceSession::Precision::kInt8}) {
      InferenceSession::Options options;
      options.precision = precision;
      for (const Snapshot* s : {&loaded.value(), &mapped.value()}) {
        auto session = InferenceSession::Create(*s, options);
        if (!session.ok()) continue;
        ++served;
        const auto predictions = session.value()->PredictBatch(queries);
        ASSERT_EQ(predictions.size(), queries.size());
      }
    }
  }
  std::remove(path.c_str());
  // The sweep must reach past the checksum and into serving, or it tests
  // only the first gate.
  EXPECT_GT(parsed, kMutants / 20) << tag;
  EXPECT_GT(served, 0) << tag;
}

TEST(SnapshotMutationTest, FloatSnapshotMutantsFailCleanly) {
  Sweep(FloatSnapshot(), "v1", 101);
}

TEST(SnapshotMutationTest, QuantizedSnapshotMutantsFailCleanly) {
  auto quantized = serve::QuantizeSnapshot(FloatSnapshot());
  ASSERT_TRUE(quantized.ok()) << quantized.status().message();
  Sweep(quantized.value(), "v2", 202);
}

}  // namespace
}  // namespace rotom
