// Property-based sweeps over the core invariants, parameterized with
// TEST_P/INSTANTIATE_TEST_SUITE_P (seeds, operators, shapes, temperatures).

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "augment/ops.h"
#include "augment/registry.h"
#include "core/ssl.h"
#include "data/edt_gen.h"
#include "data/em_gen.h"
#include "gradcheck.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"

namespace rotom {
namespace {

using testing_support::ExpectGradientsClose;

// ---------------------------------------------------------------------------
// DA operator invariants over (operator x input-shape x seed), sweeping
// every registered operator — new plugins are covered automatically.
// ---------------------------------------------------------------------------

int NumRegisteredOps() {
  return static_cast<int>(augment::OperatorRegistry::Global().All().size());
}

class DaOpPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(DaOpPropertyTest, StructuralInvariants) {
  const augment::Operator& op = *augment::OperatorRegistry::Global()
                                     .All()[std::get<0>(GetParam())];
  const std::string name = op.name();
  Rng rng(std::get<1>(GetParam()));
  const std::vector<std::string> inputs = {
      "where is the orange bowl ?",
      "[COL] title [VAL] efficient query processing [COL] year [VAL] 1999",
      "[COL] name [VAL] google llc [COL] phone [VAL] 123 [SEP] "
      "[COL] name [VAL] alphabet inc [COL] phone [VAL] 456",
      "a b",
  };
  for (const auto& input : inputs) {
    const auto tokens = text::Tokenize(input);
    for (int trial = 0; trial < 10; ++trial) {
      const auto out = op.Apply(tokens, {}, rng);
      // Never empties the sequence.
      ASSERT_FALSE(out.empty()) << name << " on " << input;
      // [SEP] count is invariant under every operator.
      const auto count = [](const std::vector<std::string>& ts,
                            const char* t) {
        return std::count(ts.begin(), ts.end(), t);
      };
      EXPECT_EQ(count(out, "[SEP]"), count(tokens, "[SEP]")) << name;
      // [COL]/[VAL] only change (in lockstep) under col_del.
      if (name != "col_del") {
        EXPECT_EQ(count(out, "[COL]"), count(tokens, "[COL]")) << name;
        EXPECT_EQ(count(out, "[VAL]"), count(tokens, "[VAL]")) << name;
      } else {
        EXPECT_EQ(count(out, "[COL]"), count(out, "[VAL]"));
        if (count(tokens, "[COL]") > 0) {
          EXPECT_GE(count(out, "[COL]"), 1);
        }
      }
      // Size changes are bounded by the operator's contract. Operators
      // without an entry here must preserve the token count exactly.
      const int64_t delta = static_cast<int64_t>(out.size()) -
                            static_cast<int64_t>(tokens.size());
      int64_t lo = 0, hi = 0;
      if (name == "token_del" || name == "punct_drop") {
        lo = -1;
      } else if (name == "token_insert") {
        hi = 1;
      } else if (name == "span_del") {
        lo = -4;
      } else if (name == "col_del") {
        lo = -static_cast<int64_t>(tokens.size()) + 1;
      }
      EXPECT_GE(delta, lo) << name << " on " << input;
      EXPECT_LE(delta, hi) << name << " on " << input;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAndSeeds, DaOpPropertyTest,
    ::testing::Combine(::testing::Range(0, NumRegisteredOps()),
                       ::testing::Values(1u, 2u, 3u)));

// ---------------------------------------------------------------------------
// Autograd: random composite graphs check out against finite differences.
// ---------------------------------------------------------------------------

class AutogradChainPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AutogradChainPropertyTest, RandomCompositeGraph) {
  Rng rng(GetParam());
  Variable a(Tensor::Randn({3, 4}, rng, 0.4f), true);
  Variable b(Tensor::Randn({4, 3}, rng, 0.4f), true);
  Variable c(Tensor::Randn({3}, rng, 0.4f), true);
  ExpectGradientsClose({a, b, c}, [&] {
    Variable m = ops::MatMul(a, b);                     // [3,3]
    Variable act = GetParam() % 2 == 0 ? ops::Gelu(m) : ops::Tanh(m);
    Variable withc = ops::Add(act, c);                  // bias broadcast
    Variable sm = ops::Softmax(withc);
    return ops::Sum(ops::Mul(sm, withc));
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradChainPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------------------
// Softmax/normalization invariants across shapes.
// ---------------------------------------------------------------------------

class SoftmaxShapeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(SoftmaxShapeTest, RowsAreDistributions) {
  const auto [rows, cols] = GetParam();
  Rng rng(7);
  Tensor logits = Tensor::Randn({rows, cols}, rng, 3.0f);
  Tensor p = ops::SoftmaxRows(logits);
  for (int64_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      const float v = p.at({r, j});
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SoftmaxShapeTest,
                         ::testing::Combine(::testing::Values(1, 5, 17),
                                            ::testing::Values(2, 6, 24)));

class NormalizeMeanOneTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(NormalizeMeanOneTest, MeanIsOne) {
  Rng rng(GetParam());
  Variable w(Tensor::RandUniform({GetParam()}, rng, 0.1f, 2.0f), false);
  Tensor y = ops::NormalizeMeanOne(w).value();
  EXPECT_NEAR(y.Mean(), 1.0f, 1e-4f);
  for (int64_t i = 0; i < y.size(); ++i) EXPECT_GE(y[i], 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NormalizeMeanOneTest,
                         ::testing::Values(1, 2, 8, 33));

// ---------------------------------------------------------------------------
// Sharpening properties across temperatures/thresholds.
// ---------------------------------------------------------------------------

class SharpenTemperatureTest : public ::testing::TestWithParam<double> {};

TEST_P(SharpenTemperatureTest, PreservesArgmaxAndSharpens) {
  const double temperature = GetParam();
  Tensor probs = Tensor::FromVector({2, 3}, {0.5f, 0.3f, 0.2f,
                                             0.2f, 0.25f, 0.55f});
  Tensor sharp = core::SharpenV1(probs, temperature);
  for (int64_t r = 0; r < 2; ++r) {
    int64_t argmax_in = 0, argmax_out = 0;
    double sum = 0.0;
    for (int64_t j = 0; j < 3; ++j) {
      if (probs.at({r, j}) > probs.at({r, argmax_in})) argmax_in = j;
      if (sharp.at({r, j}) > sharp.at({r, argmax_out})) argmax_out = j;
      sum += sharp.at({r, j});
    }
    EXPECT_EQ(argmax_in, argmax_out);
    EXPECT_NEAR(sum, 1.0, 1e-5);
    if (temperature < 1.0) {
      EXPECT_GE(sharp.at({r, argmax_out}), probs.at({r, argmax_in}) - 1e-6f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Temperatures, SharpenTemperatureTest,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

// ---------------------------------------------------------------------------
// Dataset generator distributional properties.
// ---------------------------------------------------------------------------

class EmGeneratorPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(EmGeneratorPropertyTest, PositivesOverlapMoreThanNegatives) {
  const auto& [name, seed] = GetParam();
  data::EmOptions options;
  options.budget = 200;
  options.test_size = 100;
  options.unlabeled_size = 100;
  options.seed = seed;
  auto ds = data::MakeEmDataset(name, options);

  auto jaccard = [](const std::string& pair_text) {
    const auto tokens = text::Tokenize(pair_text);
    const size_t sep = augment::FindEntitySep(tokens);
    std::set<std::string> left(tokens.begin(), tokens.begin() + sep);
    std::set<std::string> right(tokens.begin() + sep + 1, tokens.end());
    int64_t inter = 0;
    for (const auto& t : left) inter += right.count(t);
    const double uni = static_cast<double>(left.size() + right.size()) - inter;
    return uni > 0 ? inter / uni : 0.0;
  };
  double pos = 0.0, neg = 0.0;
  int64_t npos = 0, nneg = 0;
  for (const auto& e : ds.train) {
    if (e.label == 1) {
      pos += jaccard(e.text);
      ++npos;
    } else {
      neg += jaccard(e.text);
      ++nneg;
    }
  }
  ASSERT_GT(npos, 0);
  ASSERT_GT(nneg, 0);
  EXPECT_GT(pos / npos, neg / nneg) << name;
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndSeeds, EmGeneratorPropertyTest,
    ::testing::Combine(::testing::ValuesIn(data::EmDatasetNames()),
                       ::testing::Values(1u, 2u)));

class EdtGeneratorPropertyTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(EdtGeneratorPropertyTest, TestErrorRateNearProfile) {
  data::EdtOptions options;
  options.budget = 100;
  options.table_rows = 400;
  options.test_rows = 60;  // large held-out sample for a stable estimate
  options.seed = 9;
  auto ds = data::MakeEdtDataset(GetParam(), options);
  const double rate = data::LabelFraction(ds.test, 1);
  EXPECT_GT(rate, 0.08) << GetParam();
  EXPECT_LT(rate, 0.35) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllEdt, EdtGeneratorPropertyTest,
                         ::testing::ValuesIn(data::EdtDatasetNames()));

// ---------------------------------------------------------------------------
// Tokenize/Detokenize stability: detokenized text re-tokenizes identically.
// ---------------------------------------------------------------------------

class TokenizeRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TokenizeRoundTripTest, TokenizeIsIdempotentOnDetokenized) {
  const auto tokens = text::Tokenize(GetParam());
  const auto again = text::Tokenize(text::Detokenize(tokens));
  EXPECT_EQ(tokens, again);
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, TokenizeRoundTripTest,
    ::testing::Values("Where is the Orange Bowl?",
                      "[COL] Name [VAL] Google LLC [SEP] [COL] x [VAL] y",
                      "price $59.99 usd!",
                      "ab-123 cd456 9.5%",
                      "don't stop believing"));

}  // namespace
}  // namespace rotom
