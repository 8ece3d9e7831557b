// Compute kernels over the graphics pipeline (paper §II-A, §III): the user
// supplies a GLSL ES function `gp_kernel` operating on one output element;
// the framework wraps it with the pass-through vertex shader, the numeric
// pack/unpack library, input fetch helpers and the fullscreen-quad dispatch,
// and renders the result into a PackedBuffer texture.
//
// Kernel body contract:
//   * 32-bit outputs (f32/u32/i32):  `float gp_kernel(vec2 gp_pos)`
//   * byte outputs (u8/i8):          `vec4 gp_kernel(vec2 gp_pos)`
//     (byte kernels are 4-wide: one RGBA texel = 4 consecutive elements)
// Available helpers: gp_fetch_<input>(index), gp_fetch2_<input>(x, y),
// gp_linear_index(), gp_coord(), gp_out_size, and the gp_(un)pack_* library.
#ifndef MGPU_COMPUTE_KERNEL_H_
#define MGPU_COMPUTE_KERNEL_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compute/buffer.h"
#include "compute/device.h"

namespace mgpu::compute {

class Kernel {
 public:
  struct Options {
    std::string name = "kernel";
    std::vector<std::pair<std::string, ElemType>> inputs;
    ElemType output = ElemType::kF32;
    std::string extra_decls;  // extra uniforms / #defines / helpers
    std::string body;         // defines gp_kernel
  };

  // Compiles and links the program; throws std::runtime_error with the
  // driver info log on failure.
  Kernel(Device& device, Options options);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  void SetUniform1f(const std::string& name, float v);
  void SetUniform2f(const std::string& name, float x, float y);
  void SetUniform1i(const std::string& name, int v);

  // Dispatches one output element per texel of `out`. `inputs` must match
  // the declared input list in order and type.
  void Run(PackedBuffer& out, std::span<PackedBuffer* const> inputs);
  void Run(PackedBuffer& out, std::initializer_list<PackedBuffer*> inputs) {
    Run(out, std::span<PackedBuffer* const>(inputs.begin(), inputs.size()));
  }

  [[nodiscard]] const std::string& fragment_source() const {
    return fragment_source_;
  }

 private:
  Device& device_;
  Options options_;
  std::string fragment_source_;
  gles2::GLuint program_ = 0;
  gles2::GLuint vs_ = 0;
  gles2::GLuint fs_ = 0;
  gles2::GLuint fbo_ = 0;
  gles2::GLint pos_attrib_ = -1;
  // Per input: its sampler uniform and its gp_size_<name> uniform.
  struct InputLocations {
    gles2::GLint sampler = -1;
    gles2::GLint size = -1;
  };
  std::vector<InputLocations> input_locs_;
  gles2::GLint out_size_loc_ = -1;
};

// Challenge 8: a kernel with M outputs must be split into M programs, one
// per output, because a fragment shader writes a single color. The body
// defines `void gp_kernel_multi(vec2 gp_pos, out float o0, ..., out float
// o<M-1>)`; Run executes M passes (recomputing the body each time, the cost
// the ablation benchmark quantifies). Outputs must be 32-bit formats.
class MultiKernel {
 public:
  struct Options {
    std::string name = "multikernel";
    std::vector<std::pair<std::string, ElemType>> inputs;
    std::vector<ElemType> outputs;
    std::string extra_decls;
    std::string body;  // defines gp_kernel_multi
  };

  MultiKernel(Device& device, Options options);

  void Run(std::span<PackedBuffer* const> outs,
           std::span<PackedBuffer* const> inputs);
  void Run(std::initializer_list<PackedBuffer*> outs,
           std::initializer_list<PackedBuffer*> inputs) {
    Run(std::span<PackedBuffer* const>(outs.begin(), outs.size()),
        std::span<PackedBuffer* const>(inputs.begin(), inputs.size()));
  }

  [[nodiscard]] int output_count() const {
    return static_cast<int>(kernels_.size());
  }

 private:
  std::vector<std::unique_ptr<Kernel>> kernels_;
};

}  // namespace mgpu::compute

#endif  // MGPU_COMPUTE_KERNEL_H_
