// Quickstart: add two float arrays on the (simulated) low-end mobile GPU.
//
// This is the paper's core scenario: the GPU only speaks OpenGL ES 2.0 —
// byte textures, byte framebuffer, normalized coordinates — yet we push
// fp32 data through it losslessly-in-layout using the §IV numeric
// transformations. Everything below is public API; the framework hides the
// quad, the pass-through vertex shader, the pack/unpack GLSL and the FBO
// readback.
#include <cstdio>
#include <exception>
#include <vector>

#include "common/rng.h"
#include "compute/ops.h"
#include "cpuref/cpuref.h"

int RunExample() {
  using namespace mgpu;

  // A compute device over the VideoCore IV platform model (the Raspberry
  // Pi GPU the paper evaluates on).
  compute::Device device;
  std::printf("device: %s\n",
              device.gl().GetString(gles2::GL_RENDERER));
  std::printf("fragment highp float mantissa bits: %d\n\n",
              device.FragmentHighpMantissaBits());

  const std::size_t n = 4096;
  Rng rng(1);
  const std::vector<float> a = rng.FloatVector(n, -100.0f, 100.0f);
  const std::vector<float> b = rng.FloatVector(n, -100.0f, 100.0f);

  std::vector<float> gpu(n);
  compute::ops::AddF32(device, a, b, gpu);

  std::vector<float> cpu(n);
  cpuref::AddF32(a, b, cpu);

  std::size_t mismatches = 0;
  float worst = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float err = std::abs(gpu[i] - cpu[i]);
    worst = std::max(worst, err);
    // The float path is accurate to ~15 mantissa bits relative to the
    // operand magnitudes (§V); a cancelling a+b can't beat that absolutely.
    const float scale = std::abs(a[i]) + std::abs(b[i]);
    if (err > scale * 1e-4f + 1e-4f) ++mismatches;
  }
  std::printf("added %zu floats on the GPU\n", n);
  std::printf("first elements: %.3f + %.3f = %.3f (cpu %.3f)\n", a[0], b[0],
              gpu[0], cpu[0]);
  std::printf("validation vs CPU: %zu out-of-tolerance, worst abs err %.3g\n",
              mismatches, worst);

  const vc4::GpuWork work = device.ConsumeWork();
  std::printf("\nwhat the dispatch cost (timing-model inputs):\n");
  std::printf("  fragments: %llu, tmu fetches: %llu, alu ops: %llu\n",
              static_cast<unsigned long long>(work.fragments),
              static_cast<unsigned long long>(work.shader_ops.tmu),
              static_cast<unsigned long long>(work.shader_ops.alu));
  std::printf("  uploaded %llu bytes, read back %llu bytes, %d compile(s)\n",
              static_cast<unsigned long long>(work.bytes_uploaded),
              static_cast<unsigned long long>(work.bytes_readback),
              work.program_compiles);
  return mismatches == 0 ? 0 : 1;
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
