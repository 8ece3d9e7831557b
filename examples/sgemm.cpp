// sgemm: the paper's second benchmark — C = A * B through the graphics
// pipeline, in both float and 24-bit-exact integer versions, validated
// against the CPU exactly as §V describes, with the modeled Raspberry Pi
// wall times printed alongside.
#include <cmath>
#include <cstdio>
#include <exception>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "compute/ops.h"
#include "cpuref/cpuref.h"
#include "vc4/timing.h"

int RunExample() {
  using namespace mgpu;
  compute::Device device;
  const int n = 48;  // interpreted simulation; the bench extrapolates to 1024

  Rng rng(7);
  const std::size_t elems = static_cast<std::size_t>(n) * n;

  // --- float version ---
  const std::vector<float> af = rng.FloatVector(elems, -2.0f, 2.0f);
  const std::vector<float> bf = rng.FloatVector(elems, -2.0f, 2.0f);
  std::vector<float> cf_gpu(elems), cf_cpu(elems);
  compute::ops::SgemmF32(device, n, af, bf, cf_gpu);
  cpuref::SgemmF32(n, af, bf, cf_cpu);
  int worst_bits = 23;
  for (std::size_t i = 0; i < elems; ++i) {
    worst_bits = std::min(worst_bits,
                          MatchingMantissaBits(cf_cpu[i], cf_gpu[i]));
  }
  std::printf("sgemm %dx%d (float): worst agreement with CPU = %d mantissa "
              "bits\n",
              n, n, worst_bits);
  std::printf("  (paper: accurate within the 15 most significant bits)\n");

  const vc4::GpuWork fwork = device.ConsumeWork();

  // --- integer version ---
  const std::vector<std::int32_t> ai = rng.IntVector(elems, -64, 64);
  const std::vector<std::int32_t> bi = rng.IntVector(elems, -64, 64);
  std::vector<std::int32_t> ci_gpu(elems), ci_cpu(elems);
  compute::ops::GemmI32(device, n, ai, bi, ci_gpu);
  cpuref::GemmI32(n, ai, bi, ci_cpu);
  std::printf("sgemm %dx%d (int):   %s\n", n, n,
              ci_gpu == ci_cpu ? "bit-exact vs CPU (24-bit envelope)"
                               : "MISMATCH");
  const vc4::GpuWork iwork = device.ConsumeWork();

  // --- modeled wall times at this size ---
  const vc4::GpuProfile gpu = device.profile();
  const vc4::CpuModel cpu = vc4::Arm1176();
  const auto tf = vc4::GpuSeconds(gpu, cpu, fwork);
  const auto ti = vc4::GpuSeconds(gpu, cpu, iwork);
  const double cf = vc4::CpuSeconds(cpu, cpuref::SgemmWorkF32(n));
  const double ci = vc4::CpuSeconds(cpu, cpuref::GemmWorkI32(n));
  std::printf("\nmodeled wall times at n=%d (Raspberry Pi):\n", n);
  std::printf("  float: GPU %.3f ms (shader %.3f, xfer %.3f, compile %.3f) "
              "vs CPU %.3f ms -> %.2fx\n",
              tf.total() * 1e3, tf.shader * 1e3,
              (tf.upload + tf.readback) * 1e3, tf.compile * 1e3, cf * 1e3,
              cf / tf.total());
  std::printf("  int:   GPU %.3f ms vs CPU %.3f ms -> %.2fx\n",
              ti.total() * 1e3, ci * 1e3, ci / ti.total());
  std::printf("  (small n is dominated by compile+transfer overhead; "
              "bench_section5_speedups reproduces the paper's 1024-point)\n");
  return ci_gpu == ci_cpu ? 0 : 1;
}

// Kernel dispatch failures (a shader trap, the draw-budget watchdog set by
// ContextConfig::draw_budget, or a pipeline resource fault) surface as
// exceptions carrying the GL error and the robustness blame; report them
// and exit nonzero instead of crashing (see README "Robustness model").
int main() {
  try {
    return RunExample();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
