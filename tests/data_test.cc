#include <set>
#include <string>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/edt_gen.h"
#include "data/em_gen.h"
#include "data/textcls_gen.h"
#include "text/tokenizer.h"

namespace rotom {
namespace {

using data::EdtOptions;
using data::EmOptions;
using data::Example;
using data::TaskDataset;
using data::TextClsOptions;

TEST(DatasetHelpersTest, SampleExamplesSizeAndMembership) {
  std::vector<Example> pool;
  for (int i = 0; i < 50; ++i) {
    pool.push_back({"t", i % 2});
    pool.back().text += std::to_string(i);
  }
  Rng rng(1);
  auto sample = data::SampleExamples(pool, 10, rng);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::string> texts;
  for (const auto& e : sample) texts.insert(e.text);
  EXPECT_EQ(texts.size(), 10u);  // distinct
}

TEST(DatasetHelpersTest, SampleExamplesClampsToPool) {
  std::vector<Example> pool = {{"a", 0}, {"b", 1}};
  Rng rng(2);
  EXPECT_EQ(data::SampleExamples(pool, 10, rng).size(), 2u);
}

TEST(DatasetHelpersTest, SampleBalancedEqualClasses) {
  std::vector<Example> pool;
  for (int i = 0; i < 90; ++i) pool.push_back({"x", 0});
  for (int i = 0; i < 10; ++i) pool.push_back({"y", 1});
  Rng rng(3);
  auto sample = data::SampleBalanced(pool, 20, 2, rng);
  int64_t ones = 0;
  for (const auto& e : sample) ones += e.label;
  EXPECT_EQ(ones, 10);
  EXPECT_EQ(sample.size(), 20u);
}

TEST(DatasetHelpersTest, LabelFraction) {
  std::vector<Example> pool = {{"a", 1}, {"b", 0}, {"c", 1}, {"d", 1}};
  EXPECT_DOUBLE_EQ(data::LabelFraction(pool, 1), 0.75);
  EXPECT_DOUBLE_EQ(data::LabelFraction({}, 1), 0.0);
}

class TextClsGenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TextClsGenTest, SizesAndLabels) {
  TextClsOptions options;
  options.train_size = 60;
  options.test_size = 100;
  options.unlabeled_size = 100;
  options.seed = 1;
  TaskDataset ds = data::MakeTextClsDataset(GetParam(), options);
  EXPECT_EQ(ds.train.size(), 60u);
  EXPECT_EQ(ds.valid.size(), 60u);
  EXPECT_EQ(ds.test.size(), 100u);
  EXPECT_EQ(ds.unlabeled.size(), 100u);
  EXPECT_EQ(ds.num_classes, data::TextClsNumClasses(GetParam()));
  EXPECT_FALSE(ds.is_pair_task);
  for (const auto& e : ds.train) {
    EXPECT_GE(e.label, 0);
    EXPECT_LT(e.label, ds.num_classes);
    EXPECT_FALSE(e.text.empty());
  }
}

TEST_P(TextClsGenTest, DeterministicGivenSeed) {
  TextClsOptions options;
  options.train_size = 10;
  options.test_size = 10;
  options.unlabeled_size = 10;
  options.seed = 7;
  TaskDataset a = data::MakeTextClsDataset(GetParam(), options);
  TaskDataset b = data::MakeTextClsDataset(GetParam(), options);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].text, b.train[i].text);
    EXPECT_EQ(a.train[i].label, b.train[i].label);
  }
}

TEST_P(TextClsGenTest, SeedChangesSample) {
  TextClsOptions a_opts;
  a_opts.train_size = 20;
  a_opts.seed = 1;
  TextClsOptions b_opts = a_opts;
  b_opts.seed = 2;
  TaskDataset a = data::MakeTextClsDataset(GetParam(), a_opts);
  TaskDataset b = data::MakeTextClsDataset(GetParam(), b_opts);
  int differing = 0;
  for (size_t i = 0; i < a.train.size(); ++i)
    differing += a.train[i].text != b.train[i].text;
  EXPECT_GT(differing, 0);
}

INSTANTIATE_TEST_SUITE_P(AllTextCls, TextClsGenTest,
                         ::testing::Values("ag", "am2", "am5", "sst2", "sst5",
                                           "trec", "atis", "snips", "imdb"));

TEST(TextClsGenTest, AllClassesRepresented) {
  TextClsOptions options;
  options.train_size = 300;
  options.seed = 3;
  TaskDataset ds = data::MakeTextClsDataset("trec", options);
  std::set<int64_t> labels;
  for (const auto& e : ds.train) labels.insert(e.label);
  EXPECT_EQ(labels.size(), 6u);
}

TEST(TextClsGenTest, ImdbReviewsAreLong) {
  TextClsOptions options;
  options.train_size = 20;
  options.seed = 4;
  TaskDataset imdb = data::MakeTextClsDataset("imdb", options);
  TaskDataset sst = data::MakeTextClsDataset("sst2", options);
  double imdb_len = 0, sst_len = 0;
  for (const auto& e : imdb.train) imdb_len += text::Tokenize(e.text).size();
  for (const auto& e : sst.train) sst_len += text::Tokenize(e.text).size();
  EXPECT_GT(imdb_len / imdb.train.size(), 2.0 * sst_len / sst.train.size());
}

class EmGenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EmGenTest, StructureAndSerialization) {
  EmOptions options;
  options.budget = 100;
  options.test_size = 80;
  options.unlabeled_size = 100;
  options.seed = 1;
  TaskDataset ds = data::MakeEmDataset(GetParam(), options);
  EXPECT_EQ(ds.train.size(), 100u);
  EXPECT_EQ(ds.test.size(), 80u);
  EXPECT_TRUE(ds.is_pair_task);
  EXPECT_TRUE(ds.is_record_task);
  // Validation reuses training per the paper's labeling-budget trick.
  ASSERT_EQ(ds.valid.size(), ds.train.size());
  EXPECT_EQ(ds.valid[0].text, ds.train[0].text);
  for (const auto& e : ds.train) {
    EXPECT_NE(e.text.find("[COL]"), std::string::npos);
    EXPECT_NE(e.text.find(" [SEP] "), std::string::npos);
    EXPECT_NE(e.text.find("[VAL]"), std::string::npos);
  }
}

TEST_P(EmGenTest, BothLabelsPresentAndImbalanced) {
  EmOptions options;
  options.budget = 300;
  options.seed = 2;
  TaskDataset ds = data::MakeEmDataset(GetParam(), options);
  const double pos = data::LabelFraction(ds.train, 1);
  EXPECT_GT(pos, 0.1);
  EXPECT_LT(pos, 0.5);  // matches ~1:3 positive:negative pools
}

TEST_P(EmGenTest, Deterministic) {
  EmOptions options;
  options.budget = 30;
  options.seed = 5;
  TaskDataset a = data::MakeEmDataset(GetParam(), options);
  TaskDataset b = data::MakeEmDataset(GetParam(), options);
  for (size_t i = 0; i < a.train.size(); ++i)
    EXPECT_EQ(a.train[i].text, b.train[i].text);
}

INSTANTIATE_TEST_SUITE_P(AllEm, EmGenTest,
                         ::testing::ValuesIn(data::EmDatasetNames()));

TEST(EmGenTest, DirtyVariantDiffers) {
  EmOptions clean_opts;
  clean_opts.budget = 50;
  clean_opts.seed = 3;
  EmOptions dirty_opts = clean_opts;
  dirty_opts.dirty = true;
  TaskDataset clean = data::MakeEmDataset("dblp_acm", clean_opts);
  TaskDataset dirty = data::MakeEmDataset("dblp_acm", dirty_opts);
  EXPECT_EQ(dirty.name, "dblp_acm_dirty");
  EXPECT_NE(clean.train[0].text, dirty.train[0].text);
}

TEST(EmGenTest, DirtyVariantFlags) {
  EXPECT_TRUE(data::EmHasDirtyVariant("dblp_acm"));
  EXPECT_TRUE(data::EmHasDirtyVariant("walmart_amazon"));
  EXPECT_FALSE(data::EmHasDirtyVariant("abt_buy"));
  EXPECT_FALSE(data::EmHasDirtyVariant("amazon_google"));
}

class EdtGenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EdtGenTest, StructureAndBalance) {
  EdtOptions options;
  options.budget = 100;
  options.seed = 1;
  TaskDataset ds = data::MakeEdtDataset(GetParam(), options);
  EXPECT_EQ(ds.train.size(), 100u);
  EXPECT_FALSE(ds.test.empty());
  EXPECT_TRUE(ds.is_record_task);
  EXPECT_FALSE(ds.is_pair_task);
  // Train is balanced; test keeps the natural (skewed) error rate.
  EXPECT_NEAR(data::LabelFraction(ds.train, 1), 0.5, 1e-9);
  EXPECT_LT(data::LabelFraction(ds.test, 1), 0.45);
  EXPECT_GT(data::LabelFraction(ds.test, 1), 0.02);
  for (const auto& e : ds.train) {
    EXPECT_EQ(e.text.find("[COL]"), 0u);
    EXPECT_NE(e.text.find("[VAL]"), std::string::npos);
    EXPECT_EQ(e.text.find("[SEP]"), std::string::npos);  // cell-only input
  }
}

TEST_P(EdtGenTest, TestSetCoversWholeRows) {
  EdtOptions options;
  options.budget = 50;
  options.test_rows = 10;
  options.seed = 2;
  TaskDataset ds = data::MakeEdtDataset(GetParam(), options);
  // Every test row contributes all of its cells, so |test| is a multiple of
  // the column count (>= 4 columns in every schema).
  EXPECT_EQ(ds.test.size() % 10, 0u);
  EXPECT_GE(ds.test.size() / 10, 4u);
}

TEST_P(EdtGenTest, Deterministic) {
  EdtOptions options;
  options.budget = 40;
  options.seed = 9;
  TaskDataset a = data::MakeEdtDataset(GetParam(), options);
  TaskDataset b = data::MakeEdtDataset(GetParam(), options);
  for (size_t i = 0; i < a.train.size(); ++i)
    EXPECT_EQ(a.train[i].text, b.train[i].text);
}

INSTANTIATE_TEST_SUITE_P(AllEdt, EdtGenTest,
                         ::testing::ValuesIn(data::EdtDatasetNames()));

TEST(EdtGenTest, HospitalErrorsContainX) {
  EdtOptions options;
  options.budget = 200;
  options.seed = 4;
  TaskDataset ds = data::MakeEdtDataset("hospital", options);
  int64_t dirty_with_x = 0, dirty_total = 0;
  for (const auto& e : ds.train) {
    if (e.label == 1) {
      ++dirty_total;
      dirty_with_x += e.text.find('x') != std::string::npos;
    }
  }
  ASSERT_GT(dirty_total, 0);
  EXPECT_GT(static_cast<double>(dirty_with_x) / dirty_total, 0.95);
}

TEST(EdtGenTest, TaxRateErrorsViolateDomain) {
  EdtOptions options;
  options.budget = 400;
  options.seed = 5;
  TaskDataset ds = data::MakeEdtDataset("tax", options);
  bool found_bad_rate = false;
  for (const auto& e : ds.train) {
    if (e.label == 1 && e.text.find("[COL] rate") == 0) {
      // Clean rates start "0."; corrupted ones start with 1-9.
      const size_t val = e.text.find("[VAL] ") + 6;
      if (e.text[val] != '0') found_bad_rate = true;
    }
  }
  EXPECT_TRUE(found_bad_rate);
}

}  // namespace
}  // namespace rotom
