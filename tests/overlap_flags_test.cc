#include <gtest/gtest.h>

#include "models/pretrain.h"
#include "text/tokenizer.h"

namespace rotom {
namespace {

using text::SpecialTokens;
using text::Vocabulary;

Vocabulary PairVocab() {
  Vocabulary v;
  for (const char* w : {"google", "llc", "alphabet", "inc", "name", "title",
                        "databases", "systems", "a", "b"})
    v.AddToken(w);
  return v;
}

TEST(OverlapFlagsTest, PlainTextHasNoFlags) {
  Vocabulary v = PairVocab();
  auto batch = text::EncodeBatchForClassifier(v, {"google llc name"}, 8);
  auto flags = text::ComputeOverlapFlags(batch.ids, 1, 8);
  for (int64_t f : flags) EXPECT_EQ(f, 0);
}

TEST(OverlapFlagsTest, SharedTokensFlaggedOnBothSides) {
  Vocabulary v = PairVocab();
  auto batch = text::EncodeBatchForClassifier(
      v, {"name google llc [SEP] name alphabet inc"}, 12);
  auto flags = text::ComputeOverlapFlags(batch.ids, 1, 12);
  // "name" occurs on both sides -> flagged at both positions.
  // Layout: [CLS] name google llc [SEP] name alphabet inc [SEP] pad...
  EXPECT_EQ(flags[1], 1);  // left "name"
  EXPECT_EQ(flags[2], 0);  // "google" only left
  EXPECT_EQ(flags[5], 1);  // right "name"
  EXPECT_EQ(flags[6], 0);  // "alphabet" only right
}

TEST(OverlapFlagsTest, SpecialTokensNeverFlagged) {
  Vocabulary v = PairVocab();
  auto batch = text::EncodeBatchForClassifier(
      v, {"[COL] name [VAL] google [SEP] [COL] name [VAL] google"}, 16);
  auto flags = text::ComputeOverlapFlags(batch.ids, 1, 16);
  for (size_t i = 0; i < batch.ids.size(); ++i) {
    if (Vocabulary::IsSpecial(batch.ids[i])) {
      EXPECT_EQ(flags[i], 0) << i;
    }
  }
}

TEST(OverlapFlagsTest, IdenticalPairFullyFlagged) {
  Vocabulary v = PairVocab();
  auto batch =
      text::EncodeBatchForClassifier(v, {"google llc [SEP] google llc"}, 10);
  auto flags = text::ComputeOverlapFlags(batch.ids, 1, 10);
  int64_t flagged = 0;
  for (int64_t f : flags) flagged += f;
  EXPECT_EQ(flagged, 4);  // google, llc on each side
}

TEST(OverlapFlagsTest, BatchRowsIndependent) {
  Vocabulary v = PairVocab();
  auto batch = text::EncodeBatchForClassifier(
      v, {"a [SEP] a", "a [SEP] b"}, 6);
  auto flags = text::ComputeOverlapFlags(batch.ids, 2, 6);
  // Row 0: both "a" flagged; row 1: nothing shared.
  EXPECT_EQ(flags[1], 1);
  EXPECT_EQ(flags[3], 1);
  EXPECT_EQ(flags[6 + 1], 0);
  EXPECT_EQ(flags[6 + 3], 0);
}

TEST(SameOriginPretrainTest, LearnsToSeparateViewsFromNearMisses) {
  Rng rng(1);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w :
       {"sony", "camera", "zoom", "ab123", "canon", "router", "cd456",
        "title", "brand", "price", "29", "49", "silver", "black"})
    vocab->AddToken(w);
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 24;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  models::TransformerClassifier model(config, vocab, rng);

  std::vector<std::string> records = {
      "[COL] title [VAL] sony camera zoom ab123 [COL] price [VAL] 29",
      "[COL] title [VAL] canon router cd456 [COL] price [VAL] 49",
      "[COL] title [VAL] sony router zoom cd456 [COL] price [VAL] 29",
      "[COL] title [VAL] canon camera black ab123 [COL] price [VAL] 49",
      "[COL] title [VAL] sony camera silver ab123 [COL] price [VAL] 49",
      "[COL] title [VAL] canon router silver cd456 [COL] price [VAL] 29",
  };
  models::SameOriginOptions options;
  options.steps = 150;
  const float loss = models::PretrainSameOrigin(model, records, rng, options);
  EXPECT_LT(loss, 0.69f);  // better than coin-flip cross entropy
}

TEST(SameOriginPretrainTest, TinyCorpusIsNoop) {
  Rng rng(2);
  auto vocab = std::make_shared<text::Vocabulary>();
  vocab->AddToken("x");
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 8;
  config.dim = 16;
  config.num_layers = 1;
  config.ffn_dim = 32;
  models::TransformerClassifier model(config, vocab, rng);
  EXPECT_EQ(models::PretrainSameOrigin(model, {"a", "b"}, rng, {}), 0.0f);
}

}  // namespace
}  // namespace rotom
