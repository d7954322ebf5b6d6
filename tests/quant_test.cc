#include "tensor/quant.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace rotom {
namespace {

std::vector<float> RandVec(int64_t n, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = scale * static_cast<float>(rng.Normal());
  return v;
}

class QuantTest : public ::testing::Test {
 protected:
  void TearDown() override { SetComputeThreads(0); }
};

TEST_F(QuantTest, QuantizeRowsRoundTripsWithinHalfStep) {
  constexpr int64_t kRows = 13, kCols = 57;
  const auto x = RandVec(kRows * kCols, 1, 0.3f);
  const quant::QuantizedTensor q = quant::QuantizeRows(x.data(), kRows, kCols);
  ASSERT_EQ(q.rows, kRows);
  ASSERT_EQ(q.cols, kCols);
  ASSERT_EQ(q.data.size(), static_cast<size_t>(kRows * kCols));
  ASSERT_EQ(q.scales.size(), static_cast<size_t>(kRows));
  ASSERT_EQ(q.zero_points.size(), static_cast<size_t>(kRows));

  std::vector<float> deq(kRows * kCols);
  quant::Dequantize(q, deq.data());
  for (int64_t r = 0; r < kRows; ++r) {
    for (int64_t c = 0; c < kCols; ++c) {
      const int64_t i = r * kCols + c;
      // Codes stay inside the symmetric range (-128 never appears) and the
      // affine round trip is within half a quantization step everywhere.
      EXPECT_GE(q.data[i], -127);
      EXPECT_LE(q.data[i], 127);
      EXPECT_NEAR(deq[i], x[i], 0.5f * q.scales[r] + 1e-6f)
          << "row " << r << " col " << c;
    }
  }

  const quant::QuantError err = quant::MeasureError(x.data(), q);
  float want_max = 0.0f;
  double want_sum = 0.0;
  for (int64_t i = 0; i < kRows * kCols; ++i) {
    const float e = std::abs(deq[i] - x[i]);
    want_max = std::max(want_max, e);
    want_sum += e;
  }
  EXPECT_NEAR(err.max_abs, want_max, 1e-6f);
  EXPECT_NEAR(err.mean_abs, static_cast<float>(want_sum / (kRows * kCols)),
              1e-6f);
}

TEST_F(QuantTest, ConstantAndZeroRowsAreExact) {
  constexpr int64_t kCols = 9;
  const std::vector<float> x = {
      // row 0: all zero, row 1: constant positive, row 2: constant negative
      0, 0, 0, 0, 0, 0, 0, 0, 0,                              //
      2.5f, 2.5f, 2.5f, 2.5f, 2.5f, 2.5f, 2.5f, 2.5f, 2.5f,  //
      -4, -4, -4, -4, -4, -4, -4, -4, -4,
  };
  const quant::QuantizedTensor q = quant::QuantizeRows(x.data(), 3, kCols);
  std::vector<float> deq(x.size());
  quant::Dequantize(q, deq.data());
  for (size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(deq[i], x[i]) << i;
}

TEST_F(QuantTest, NonFiniteAndHugeRowsSaturateInsteadOfOverflowing) {
  // Activations of a corrupt model can be NaN, infinite or huge; codes must
  // stay in [-127, 127] with no overflowing conversion (the ASan/UBSan build
  // reports one).
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> x = {0.0f,  1.0f,  std::nanf(""), 2.0f,
                                0.0f,  1.0f,  inf,           2.0f,
                                1e30f, 1e30f, 1e30f,         -1e-30f};
  const quant::QuantizedTensor q = quant::QuantizeRows(x.data(), 3, 4);
  for (int8_t code : q.data) {
    EXPECT_GE(code, -127);
    EXPECT_LE(code, 127);
  }
}

TEST_F(QuantTest, RowSumsMatchManualSums) {
  const auto x = RandVec(7 * 31, 2);
  const quant::QuantizedTensor q = quant::QuantizeRows(x.data(), 7, 31);
  const std::vector<int32_t> sums = quant::RowSums(q);
  ASSERT_EQ(sums.size(), 7u);
  for (int64_t r = 0; r < 7; ++r) {
    int32_t want = 0;
    for (int64_t c = 0; c < 31; ++c) want += q.data[r * 31 + c];
    EXPECT_EQ(sums[r], want) << "row " << r;
  }
}

TEST_F(QuantTest, QuantizeRowsIntoMatchesQuantizeRows) {
  constexpr int64_t kRows = 5, kCols = 43;
  const auto x = RandVec(kRows * kCols, 3);
  const quant::QuantizedTensor q = quant::QuantizeRows(x.data(), kRows, kCols);

  std::vector<int8_t> codes(kRows * kCols);
  std::vector<float> scales(kRows);
  std::vector<int32_t> zps(kRows), sums(kRows);
  quant::QuantizeRowsInto(x.data(), kRows, kCols, codes.data(), scales.data(),
                          zps.data(), sums.data());
  for (int64_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(scales[r], q.scales[static_cast<size_t>(r)]);
    EXPECT_EQ(zps[r], q.zero_points[static_cast<size_t>(r)]);
    int32_t want_sum = 0;
    for (int64_t c = 0; c < kCols; ++c) {
      EXPECT_EQ(codes[r * kCols + c], q.data[r * kCols + c]);
      want_sum += codes[r * kCols + c];
    }
    EXPECT_EQ(sums[r], want_sum);
  }
}

// QLinear must reproduce, to float rounding, the arithmetic it is defined
// as: dequantized(x_q) . dequantized(W_q)^T + bias, with both operands
// quantized by the library itself. Computing that reference in double keeps
// the check independent of the zero-point-correction algebra inside the
// kernel.
TEST_F(QuantTest, QLinearMatchesDequantizedReference) {
  constexpr int64_t kM = 17, kIn = 53, kOut = 19;
  const auto x = RandVec(kM * kIn, 4, 2.0f);
  const auto w = RandVec(kOut * kIn, 5, 0.2f);
  const auto bias = RandVec(kOut, 6);

  const quant::QuantizedTensor wq = quant::QuantizeRows(w.data(), kOut, kIn);
  const std::vector<int32_t> w_sums = quant::RowSums(wq);

  std::vector<int8_t> xcodes(kM * kIn);
  std::vector<float> xscales(kM);
  std::vector<int32_t> xzps(kM), xsums(kM);
  quant::QuantizeRowsInto(x.data(), kM, kIn, xcodes.data(), xscales.data(),
                          xzps.data(), xsums.data());

  std::vector<float> y(kM * kOut);
  quant::QLinear(x.data(), wq, w_sums.data(), bias.data(), y.data(), kM);

  for (int64_t r = 0; r < kM; ++r) {
    for (int64_t o = 0; o < kOut; ++o) {
      double acc = 0.0;
      for (int64_t c = 0; c < kIn; ++c) {
        const double xv = static_cast<double>(xscales[r]) *
                          (xcodes[r * kIn + c] - xzps[r]);
        const double wv = static_cast<double>(wq.scales[o]) *
                          (wq.data[o * kIn + c] - wq.zero_points[o]);
        acc += xv * wv;
      }
      acc += bias[o];
      EXPECT_NEAR(y[r * kOut + o], static_cast<float>(acc),
                  1e-4f * (1.0f + std::abs(static_cast<float>(acc))))
          << "row " << r << " out " << o;
    }
  }

  // And the end-to-end error against the true float product is bounded by
  // quantization noise, not kernel bugs: check a loose absolute budget
  // derived from the operand scales.
  for (int64_t r = 0; r < kM; ++r) {
    for (int64_t o = 0; o < kOut; ++o) {
      double want = 0.0;
      for (int64_t c = 0; c < kIn; ++c)
        want += static_cast<double>(x[r * kIn + c]) * w[o * kIn + c];
      want += bias[o];
      const double budget =
          0.5 * kIn *
          (static_cast<double>(xscales[r]) * 0.2 * 3.0 +
           static_cast<double>(wq.scales[o]) * 2.0 * 3.0);
      EXPECT_NEAR(y[r * kOut + o], want, budget) << "row " << r;
    }
  }
}

TEST_F(QuantTest, QLinearBitIdenticalAcrossThreadCounts) {
  constexpr int64_t kM = 23, kIn = 64, kOut = 31;
  const auto x = RandVec(kM * kIn, 7);
  const auto w = RandVec(kOut * kIn, 8);
  const quant::QuantizedTensor wq = quant::QuantizeRows(w.data(), kOut, kIn);
  const std::vector<int32_t> sums = quant::RowSums(wq);

  auto run = [&](int threads) {
    SetComputeThreads(threads);
    std::vector<float> y(kM * kOut);
    quant::QLinear(x.data(), wq, sums.data(), nullptr, y.data(), kM);
    return y;
  };
  const auto serial = run(1);
  const auto quad = run(4);
  for (size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], quad[i]) << "element " << i;
}

TEST_F(QuantTest, DequantizeToTensorShapesOutput) {
  const auto x = RandVec(4 * 6, 9);
  const quant::QuantizedTensor q = quant::QuantizeRows(x.data(), 4, 6);
  const Tensor t = quant::DequantizeToTensor(q);
  ASSERT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 4);
  EXPECT_EQ(t.size(1), 6);
  std::vector<float> deq(x.size());
  quant::Dequantize(q, deq.data());
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.data()[i], deq[i]);
}

}  // namespace
}  // namespace rotom
