// Image convolution on the unsigned-byte path (§IV-A): a synthetic image is
// blurred and edge-detected on the simulated GPU, 4 pixels per RGBA texel,
// and rendered as ASCII art. This is the classic "image processing fits the
// byte pipeline natively" workload the paper contrasts with the float path.
#include <cmath>
#include <cstdio>
#include <exception>
#include <vector>

#include "compute/ops.h"
#include "cpuref/cpuref.h"

namespace {

void PrintAscii(const char* title, const std::vector<std::uint8_t>& img,
                int w, int h) {
  static const char* kRamp = " .:-=+*#%@";
  std::printf("%s\n", title);
  for (int y = h - 1; y >= 0; y -= 2) {  // GL rows are bottom-up
    for (int x = 0; x < w; ++x) {
      const int v = img[static_cast<std::size_t>(y) * w + x];
      std::putchar(kRamp[v * 9 / 255]);
    }
    std::putchar('\n');
  }
  std::putchar('\n');
}

}  // namespace

int RunExample() {
  using namespace mgpu;
  compute::Device device;

  const int w = 64, h = 32;
  std::vector<std::uint8_t> img(static_cast<std::size_t>(w) * h, 0);
  // Synthetic scene: a bright disk plus a gradient background.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const float dx = static_cast<float>(x - w / 2) / (w / 4.0f);
      const float dy = static_cast<float>(y - h / 2) / (h / 4.0f);
      const bool inside = dx * dx + dy * dy < 1.0f;
      const int grad = x * 48 / w;
      img[static_cast<std::size_t>(y) * w + x] =
          static_cast<std::uint8_t>(inside ? 230 : grad);
    }
  }
  PrintAscii("input", img, w, h);

  const std::vector<float> blur = {1 / 16.f, 2 / 16.f, 1 / 16.f,
                                   2 / 16.f, 4 / 16.f, 2 / 16.f,
                                   1 / 16.f, 2 / 16.f, 1 / 16.f};
  std::vector<std::uint8_t> blurred(img.size());
  compute::ops::Conv3x3U8(device, w, h, img, blur, blurred);
  PrintAscii("gaussian blur (GPU, u8 path)", blurred, w, h);

  const std::vector<float> edges = {0, -1, 0, -1, 4, -1, 0, -1, 0};
  std::vector<std::uint8_t> edged(img.size());
  compute::ops::Conv3x3U8(device, w, h, img, edges, edged);
  PrintAscii("laplacian edges (GPU, u8 path)", edged, w, h);

  // Validate the blur against the CPU reference.
  std::vector<std::uint8_t> cpu(img.size());
  cpuref::Conv3x3U8(w, h, img, blur, cpu);
  int diff = 0;
  for (std::size_t i = 0; i < img.size(); ++i) {
    diff += std::abs(static_cast<int>(blurred[i]) - static_cast<int>(cpu[i])) > 1;
  }
  std::printf("validation vs CPU blur: %d pixels differ by more than 1/255\n",
              diff);
  return diff == 0 ? 0 : 1;
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
