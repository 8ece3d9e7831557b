// Paper-scale functional validation: the timing model extrapolates from
// small calibration sizes (bench/bench_util.h), but CORRECTNESS is
// validated here at the paper's actual sizes — the full 1M-element sum and the largest
// interpreted GEMM — against the CPU references, on the real VideoCore IV
// platform model ("we ... validate the results with the CPU", §V).
#include <cstdint>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "compute/ops.h"
#include "cpuref/cpuref.h"
#include "gtest/gtest.h"

namespace mgpu::compute {
namespace {

TEST(PaperScaleTest, SumInt1MElementsExact) {
  Device d;  // VideoCore IV model
  const std::size_t n = 1u << 20;  // the paper's 1024x1024 elements
  Rng rng(42);
  const auto a = rng.IntVector(n, -4'000'000, 4'000'000);
  const auto b = rng.IntVector(n, -4'000'000, 4'000'000);
  std::vector<std::int32_t> gpu(n), cpu(n);
  ops::AddI32(d, a, b, gpu);
  cpuref::AddI32(a, b, cpu);
  // The integer path must be EXACT at full scale on the lossy platform.
  ASSERT_EQ(gpu.size(), cpu.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) mismatches += gpu[i] != cpu[i];
  EXPECT_EQ(mismatches, 0u);
  const vc4::GpuWork w = d.ConsumeWork();
  EXPECT_EQ(w.fragments, n);  // one fragment per element at full scale
}

TEST(PaperScaleTest, SumFloat1MElementsWithin15Bits) {
  Device d;
  const std::size_t n = 1u << 20;
  Rng rng(43);
  std::vector<float> a(n), b(n), gpu(n), cpu(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.NextWorkloadFloat();
    b[i] = rng.NextWorkloadFloat();
  }
  ops::AddF32(d, a, b, gpu);
  cpuref::AddF32(a, b, cpu);
  // §V: accuracy within ~15 most significant mantissa bits, relative to the
  // operand magnitudes (cancellation can't beat the input error).
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float scale = std::abs(a[i]) + std::abs(b[i]);
    if (std::abs(gpu[i] - cpu[i]) > scale * 1.5e-4f) ++bad;
  }
  EXPECT_EQ(bad, 0u);
}

TEST(PaperScaleTest, Sgemm128FloatEndToEnd) {
  Device d;
  const int n = 128;  // largest GEMM interpreted in full at test speed
  const std::size_t e = static_cast<std::size_t>(n) * n;
  Rng rng(44);
  const auto a = rng.FloatVector(e, -1.0f, 1.0f);
  const auto b = rng.FloatVector(e, -1.0f, 1.0f);
  std::vector<float> gpu(e), cpu(e);
  ops::SgemmF32(d, n, a, b, gpu);
  cpuref::SgemmF32(n, a, b, cpu);
  int worst_bits = 23;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < e; ++i) {
    // Inputs carry ~2^-16 unpack error; over K=128 accumulations the
    // result keeps well over 10 significant bits vs the fp32 reference.
    const float tol = std::max(2e-3f, std::abs(cpu[i]) * 1e-3f);
    if (std::abs(gpu[i] - cpu[i]) > tol) ++bad;
    worst_bits = std::min(worst_bits, MatchingMantissaBits(cpu[i], gpu[i]));
  }
  EXPECT_EQ(bad, 0u);
  const vc4::GpuWork w = d.ConsumeWork();
  EXPECT_EQ(w.fragments, e);
  EXPECT_EQ(w.shader_ops.tmu, 2ull * n * e + 0ull);  // 2 fetches per MAC
}

TEST(PaperScaleTest, Gemm96IntExact) {
  Device d;
  const int n = 96;
  const std::size_t e = static_cast<std::size_t>(n) * n;
  Rng rng(45);
  // Bound values so dot products stay inside the 24-bit envelope:
  // 96 * 128 * 128 = 1.57M < 2^24.
  const auto a = rng.IntVector(e, -128, 128);
  const auto b = rng.IntVector(e, -128, 128);
  std::vector<std::int32_t> gpu(e), cpu(e);
  ops::GemmI32(d, n, a, b, gpu);
  cpuref::GemmI32(n, a, b, cpu);
  EXPECT_EQ(gpu, cpu);
}

TEST(PaperScaleTest, SumU8Full1MBytes) {
  Device d;
  const std::size_t n = 1u << 20;
  Rng rng(46);
  const auto a = rng.ByteVector(n);
  const auto b = rng.ByteVector(n);
  std::vector<std::uint8_t> gpu(n), cpu(n);
  ops::AddU8(d, a, b, gpu);
  cpuref::AddU8(a, b, cpu);
  EXPECT_EQ(gpu, cpu);
  // Byte kernels are 4-wide: a quarter of the fragments.
  EXPECT_EQ(d.ConsumeWork().fragments, n / 4);
}

}  // namespace
}  // namespace mgpu::compute
