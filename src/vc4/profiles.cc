#include "vc4/profiles.h"

namespace mgpu::vc4 {

GpuProfile VideoCoreIV() {
  GpuProfile p;
  p.name = "VideoCore IV";
  p.limits.fragment_highp_float = true;
  p.limits.max_vertex_uniform_vectors = 128;
  p.limits.max_fragment_uniform_vectors = 64;
  p.sfu_error_bits = 16;
  p.alu_mantissa_bits = 23;
  p.flush_denormals = true;
  p.shader_cores = 12;
  p.lanes_per_core = 4;
  p.clock_hz = 250e6;
  p.dual_issue = true;  // 12 * 4 * 2 * 250 MHz = 24 GFLOPS
  return p;
}

GpuProfile IeeeExact() {
  GpuProfile p = VideoCoreIV();
  p.name = "IEEE-exact reference";
  p.sfu_error_bits = 0;
  p.flush_denormals = false;
  return p;
}

GpuProfile Mali400() {
  GpuProfile p;
  p.name = "Mali-400 MP4";
  p.limits.fragment_highp_float = false;  // paper §IV-E footnote 1
  p.sfu_error_bits = 14;
  p.alu_mantissa_bits = 10;  // mediump fragment pipe (fp16)
  p.flush_denormals = true;
  p.shader_cores = 4;  // 4 fragment processors + 1 vertex processor
  p.lanes_per_core = 4;
  p.clock_hz = 265e6;
  p.dual_issue = false;
  return p;
}

glsl::AluModel ProfileAlu(const GpuProfile& profile) {
  return {{profile.flush_denormals, profile.alu_mantissa_bits},
          glsl::SfuSpec(profile.sfu_error_bits)};
}

}  // namespace mgpu::vc4
