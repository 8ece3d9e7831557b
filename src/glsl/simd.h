// Exists only so e2ebench's config line keeps building; the batched VM has
// a single kernel tier (the component-plane kernels).
#ifndef MGPU_GLSL_SIMD_H_
#define MGPU_GLSL_SIMD_H_

namespace mgpu::glsl::simd {

enum class Level : int { kScalar = 0 };

[[nodiscard]] inline Level Resolve(int /*knob*/) { return Level::kScalar; }

[[nodiscard]] inline const char* LevelName(Level /*level*/) {
  return "scalar";
}

}  // namespace mgpu::glsl::simd

#endif  // MGPU_GLSL_SIMD_H_
