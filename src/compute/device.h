// The compute device: owns a gles2::Context configured from a GPU profile,
// the VideoCore ALU model, the fullscreen two-triangle quad (challenge 2)
// and the pass-through vertex shader (challenge 1). Accumulates the
// operation/transfer/compile statistics the timing model consumes.
#ifndef MGPU_COMPUTE_DEVICE_H_
#define MGPU_COMPUTE_DEVICE_H_

#include <memory>
#include <string>

#include "gles2/context.h"
#include "glsl/alu.h"
#include "vc4/profiles.h"
#include "vc4/timing.h"

namespace mgpu::compute {

struct DeviceOptions {
  vc4::GpuProfile profile = vc4::VideoCoreIV();
  gles2::FbQuantization quantization =
      gles2::FbQuantization::kRoundNearest;
  // Shader execution engine for every kernel dispatch. The default is the
  // lane-batched VM: each kernel dispatch gathers covered fragments into
  // SoA batches and executes the lowered bytecode once per
  // instruction over all lanes, the way a VC4 QPU runs pixel groups through
  // one instruction stream. kBytecodeVm runs the same executor one lane
  // wide (one pass per fragment) and kTreeWalk the tree-walking
  // interpreter; all three produce identical output bytes and ALU/SFU/TMU
  // op counts, so either oracle can differentially check the batched path.
  // Fixed for the device's lifetime; kCompiled is an alias of kBatchedVm
  // (see gles2::ExecEngine).
  gles2::ExecEngine exec_engine = gles2::ExecEngine::kBatchedVm;
  // Fragment-shading workers for the tiled rasterizer, fixed for the
  // device's lifetime: 0 = one per hardware thread (default), 1 = serial
  // (the calling thread). Results (output bytes and ALU/SFU/TMU op counts)
  // are identical for every value; see gles2::ContextConfig::shader_threads.
  int shader_threads = 0;
  int max_texture_size = 4096;
};

class Device {
 public:
  explicit Device(const DeviceOptions& options = DeviceOptions{});

  [[nodiscard]] gles2::Context& gl() { return *ctx_; }
  [[nodiscard]] glsl::AluModel& alu() { return alu_; }
  [[nodiscard]] const vc4::GpuProfile& profile() const {
    return options_.profile;
  }
  [[nodiscard]] int max_texture_size() const {
    return options_.max_texture_size;
  }

  // Queries the float capability the paper's §IV-E prescribes
  // (glGetShaderPrecisionFormat): mantissa bits of highp float in the
  // fragment processor (0 when unsupported, e.g. Mali-400).
  [[nodiscard]] int FragmentHighpMantissaBits();

  // Vertex array of the screen-covering quad as two triangles.
  [[nodiscard]] const float* quad_vertices() const;
  [[nodiscard]] int quad_vertex_count() const { return 6; }

  // --- statistics for the timing model ---
  [[nodiscard]] vc4::GpuWork& work() { return work_; }
  // Returns the accumulated work and resets the accumulator (also resets the
  // ALU counters so successive measurements are independent).
  vc4::GpuWork ConsumeWork();
  // Folds the ALU counter delta since the previous call into work().
  void SyncShaderOps();

 private:
  DeviceOptions options_;
  glsl::AluModel alu_;
  std::unique_ptr<gles2::Context> ctx_;
  vc4::GpuWork work_;
  glsl::OpCounts last_ops_;
};

}  // namespace mgpu::compute

#endif  // MGPU_COMPUTE_DEVICE_H_
