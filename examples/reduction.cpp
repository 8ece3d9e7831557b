// Multi-pass reduction: sums a float array with a 4:1 kernel tree. Each
// level renders into a texture the next level samples (render-to-texture
// ping-pong), and only the final 1-element texture is read back — the
// "careful kernel ordering" answer to challenge 7 (no glGetTexImage in ES
// 2.0). Also demonstrates the multi-output min/max split (challenge 8).
#include <cstdio>
#include <exception>
#include <vector>

#include "common/rng.h"
#include "compute/ops.h"
#include "cpuref/cpuref.h"

int RunExample() {
  using namespace mgpu;
  compute::Device device;

  const std::size_t n = 100'000;
  Rng rng(3);
  // Positive integer-valued data: with mixed signs, the intermediate
  // partial sums dwarf the net result and the float path's ~15-bit relative
  // error (which applies to *intermediates*) would swamp it — the same
  // caveat any fp32 cancellation-heavy reduction carries, amplified here.
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.NextInt(0, 1000));
  }

  const float gpu_sum = compute::ops::ReduceSumF32(device, v);
  const float cpu_sum = cpuref::ReduceSumF32(v);
  const vc4::GpuWork work = device.ConsumeWork();

  std::printf("reduced %zu floats on the GPU\n", n);
  std::printf("  gpu sum: %.1f\n  cpu sum: %.1f\n", gpu_sum, cpu_sum);
  std::printf("  passes (draw calls): %d, total fragments: %llu\n",
              work.draw_calls,
              static_cast<unsigned long long>(work.fragments));
  std::printf("  bytes read back: %llu (only the final texel row — kernel "
              "ordering avoids intermediate readbacks)\n",
              static_cast<unsigned long long>(work.bytes_readback));

  const auto [mn, mx] = compute::ops::MinMaxF32(device, v);
  const auto [cmn, cmx] = cpuref::MinMaxF32(v);
  std::printf("\nmin/max via split kernels (challenge 8): gpu [%g, %g], cpu "
              "[%g, %g]\n",
              mn, mx, cmn, cmx);

  // min/max pass through one pack/unpack round trip: ~15-bit accuracy.
  const float mm_tol = 1000.0f * 1e-3f;
  const bool ok = std::abs(mn - cmn) <= mm_tol &&
                  std::abs(mx - cmx) <= mm_tol &&
                  std::abs(gpu_sum - cpu_sum) <=
                      std::abs(cpu_sum) * 1e-3f + 1e-3f;
  std::printf("validation: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
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
