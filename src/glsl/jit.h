// Kept only for e2ebench, which reports jit::Available() in its config line.
#ifndef MGPU_GLSL_JIT_H_
#define MGPU_GLSL_JIT_H_

namespace mgpu::glsl::jit {

// Always false: there is no compiled shader engine.
[[nodiscard]] inline bool Available() { return false; }

}  // namespace mgpu::glsl::jit

#endif  // MGPU_GLSL_JIT_H_
