// Kernel-layer probes shared by every workload's traced run. Each probe
// calls the layer's public kernel entry point at a workload's shapes and
// reports a rate, so a kernel change shows here before it shows end to end.

#include <cstdint>
#include <vector>

#include "perfbench.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

struct GemmShape {
  int64_t m, k, n;
  int64_t repeat;  // independent problems of this shape per forward
  bool transposed_b;
};

// One forward of the EM classifier (batch 16, max_len 56, dim 32, ffn 64,
// 2 heads of 16): per layer, the Q/K/V/output projections and the two FFN
// GEMMs (GemmAB on [rows, in] x [in, out]) plus per-(row, head) attention
// scores Q.K^T (GemmABT).
const std::vector<GemmShape> kTrainShapes = {
    {16 * 56, 32, 32, 4, false},
    {16 * 56, 32, 64, 1, false},
    {16 * 56, 64, 32, 1, false},
    {56, 16, 56, 16 * 2, true},
};

// One fused serving forward (a 32-request batch of the dim-128, ffn-256,
// max_len-48 serving model): projections and FFN.
const std::vector<GemmShape> kServeShapes = {
    {32 * 48, 128, 128, 4, false},
    {32 * 48, 128, 256, 1, false},
    {32 * 48, 256, 128, 1, false},
};

std::vector<float> RandomFloats(size_t n, rotom::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
  return v;
}

// GFLOP/s of the f32 GEMMs of one forward at `shapes`.
double GemmGflops(const std::vector<GemmShape>& shapes) {
  rotom::Rng rng(17);
  struct Buffers {
    std::vector<float> a, b, c;
  };
  std::vector<Buffers> buffers;
  double flops = 0.0;
  for (const GemmShape& s : shapes) {
    buffers.push_back({RandomFloats(s.m * s.k, rng),
                       RandomFloats(s.k * s.n, rng),
                       std::vector<float>(s.m * s.n)});
    flops += 2.0 * s.m * s.k * s.n * s.repeat;
  }
  const double us = MedianCallUs([&] {
    for (size_t i = 0; i < shapes.size(); ++i) {
      const GemmShape& s = shapes[i];
      Buffers& buf = buffers[i];
      for (int64_t r = 0; r < s.repeat; ++r) {
        if (s.transposed_b) {
          rotom::kernels::GemmABT(buf.a.data(), buf.b.data(), buf.c.data(),
                                  s.m, s.k, s.n);
        } else {
          rotom::kernels::GemmAB(buf.a.data(), buf.b.data(), buf.c.data(),
                                 s.m, s.k, s.n);
        }
      }
    }
  });
  return flops / us * 1e-3;
}

// GOP/s of the exact int8 GEMM (QGemmABT, weights stored [out, in]) at the
// serving shapes.
double QGemmGops(const std::vector<GemmShape>& shapes) {
  rotom::Rng rng(19);
  struct Buffers {
    std::vector<int8_t> a, b;
    std::vector<int32_t> c;
  };
  std::vector<Buffers> buffers;
  double ops = 0.0;
  for (const GemmShape& s : shapes) {
    Buffers buf{std::vector<int8_t>(s.m * s.k), std::vector<int8_t>(s.n * s.k),
                std::vector<int32_t>(s.m * s.n)};
    for (int8_t& x : buf.a) x = static_cast<int8_t>(rng.UniformInt(255) - 127);
    for (int8_t& x : buf.b) x = static_cast<int8_t>(rng.UniformInt(255) - 127);
    buffers.push_back(std::move(buf));
    ops += 2.0 * s.m * s.k * s.n * s.repeat;
  }
  const double us = MedianCallUs([&] {
    for (size_t i = 0; i < shapes.size(); ++i) {
      const GemmShape& s = shapes[i];
      for (int64_t r = 0; r < s.repeat; ++r)
        rotom::quant::QGemmABT(buffers[i].a.data(), buffers[i].b.data(),
                               buffers[i].c.data(), s.m, s.k, s.n);
    }
  });
  return ops / us * 1e-3;
}

}  // namespace

void ProbeKernels(Report* report) {
  const int threads = rotom::ComputeThreads();
  report->Set("tensor.gemm_train_gflops", GemmGflops(kTrainShapes));
  rotom::SetComputeThreads(1);
  report->Set("tensor.gemm_train_gflops_1t", GemmGflops(kTrainShapes));
  rotom::SetComputeThreads(threads);
  report->Set("tensor.gemm_serve_gflops", GemmGflops(kServeShapes));
  report->Set("tensor.qgemm_serve_gops", QGemmGops(kServeShapes));
  // An empty loop split into one chunk per pool thread: the fixed cost of
  // one dispatch (the calling thread runs chunks no worker has claimed yet).
  report->Set("util.pool_dispatch_us", MedianCallUs([threads] {
                rotom::ComputePool().ParallelFor(threads, 1,
                                                 [](int64_t, int64_t) {});
              }));
}

}  // namespace perfbench
