// Mandelbrot: a no-input compute kernel producing *integer* results (the
// escape-iteration count) through the §IV-C integer output path — the kind
// of non-image-processing GPGPU workload the paper argues byte framebuffers
// used to preclude. The kernel derives each pixel's complex coordinate from
// gl_FragCoord alone.
#include <cstdio>
#include <exception>
#include <vector>

#include "compute/kernel.h"

int RunExample() {
  using namespace mgpu;
  compute::Device device;

  const int w = 72, h = 36;
  const int max_iter = 96;
  compute::PackedBuffer out(device, compute::ElemType::kI32, w, h);

  compute::Kernel k(device, {
      .name = "mandelbrot",
      .inputs = {},
      .output = compute::ElemType::kI32,
      .extra_decls = "#define GP_MAX_ITER 96\n"
                     "uniform vec2 u_center;\n"
                     "uniform vec2 u_scale;",
      .body = R"(
float gp_kernel(vec2 gp_pos) {
  vec2 c = u_center + (gp_pos / gp_out_size - 0.5) * u_scale;
  vec2 z = vec2(0.0);
  for (int i = 0; i < GP_MAX_ITER; ++i) {
    z = vec2(z.x * z.x - z.y * z.y, 2.0 * z.x * z.y) + c;
    if (dot(z, z) > 4.0) { return float(i); }
  }
  return float(GP_MAX_ITER);
}
)"});
  k.SetUniform2f("u_center", -0.6f, 0.0f);
  k.SetUniform2f("u_scale", 3.0f, 2.4f);
  k.Run(out, {});

  std::vector<std::int32_t> iters(static_cast<std::size_t>(w) * h);
  out.Download(std::span<std::int32_t>(iters));

  static const char* kRamp = " .,:;i1tfLG08@";
  long total = 0;
  for (int y = h - 1; y >= 0; --y) {
    for (int x = 0; x < w; ++x) {
      const int it = iters[static_cast<std::size_t>(y) * w + x];
      total += it;
      const int shade = it >= max_iter ? 13 : it * 13 / max_iter;
      std::putchar(kRamp[shade]);
    }
    std::putchar('\n');
  }
  std::printf("\n%dx%d fragments, %d max iterations, iteration mass %ld\n",
              w, h, max_iter, total);
  std::printf("(escape counts returned as exact 24-bit integers via the "
              "paper's int output transformation)\n");
  return 0;
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
