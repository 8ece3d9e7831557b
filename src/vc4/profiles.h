// GPU platform profiles for the low-end mobile GPUs the paper names
// (VideoCore IV, and Mali-400 for its mediump-only fragment pipe): GLSL
// limits, arithmetic precision characteristics and the throughput
// parameters of the timing model.
#ifndef MGPU_VC4_PROFILES_H_
#define MGPU_VC4_PROFILES_H_

#include <string>

#include "glsl/alu.h"
#include "glsl/shader.h"

namespace mgpu::vc4 {

struct GpuProfile {
  std::string name;
  glsl::Limits limits;

  // --- arithmetic model ---
  // Relative error of the special function unit (exp2/log2): 2^-sfu_error_bits.
  // 0 means IEEE-exact. The VideoCore IV SFU delivers ~16 good bits, which is
  // what produces the paper's "accurate within the 15 most significant bits
  // of the mantissa" float result (§V); RECIP/RECIPSQRT get a Newton-Raphson
  // refinement step from the shader compiler and are near-exact.
  int sfu_error_bits = 0;
  // Mantissa bits of ALU results (23 = full fp32). Fragment pipes without
  // highp (Mali-400 class, paper §IV-E footnote 1) are mediump: 10 bits.
  int alu_mantissa_bits = 23;
  bool flush_denormals = false;

  // --- timing model (per-GPU throughput parameters) ---
  int shader_cores = 1;        // QPUs / shader processors
  int lanes_per_core = 4;      // physical SIMD lanes per core per clock
  double clock_hz = 250e6;
  bool dual_issue = true;      // separate add & mul pipes
  // Reciprocal-class SFU ops (recip/rsqrt): the shader compiler pipelines
  // the Newton-Raphson refinement, so they retire nearly every cycle.
  double sfu_cycles = 1.3;
  // Transcendental SFU ops (exp2/log2, trig lowering): SFU register write,
  // multi-cycle latency, result move — unschedulable in straight-line
  // unoptimized kernel code.
  double sfu_trans_cycles = 6.2;
  // Lane-cycles per texture fetch that HITS the texture cache.
  double tmu_cycles = 4.0;
  // Lane-cycles per texture-cache MISS: a full SDRAM round trip that the
  // QPU's thread switching only partially hides for dependent in-loop
  // fetches. Sequential GPGPU streams mostly hit (8 RGBA8 texels per 32-byte
  // line); strided matrix-column walks miss every time — this asymmetry is
  // what separates the paper's sum and sgemm speedups.
  double tmu_miss_cycles = 156.0;
  // The interpreter counts one "op" per scalar AST operation; a real shader
  // compiler emits fewer native QPU instructions (vectorized moves, folded
  // address math). Calibrated with the other machine constants against the
  // paper's four Section V speedups (bench_section5_speedups gates the fit).
  double interp_ops_per_native = 2.8;
  // The Pi's GPU owns the memory controller: texture upload/readback run as
  // burst DMA, far faster than CPU-side load/store streaming.
  double upload_bytes_per_sec = 2e9;
  double readback_bytes_per_sec = 1e9;
  double compile_seconds = 1e-3;          // per shader program
  double draw_overhead_seconds = 100e-6;  // per draw call / state setup
};

// Broadcom VideoCore IV (Raspberry Pi): 12 QPUs x 4 lanes x 2 ops @ 250 MHz
// = 24 GFLOPS, the figure the paper quotes.
[[nodiscard]] GpuProfile VideoCoreIV();
// VideoCore IV throughput with an IEEE-exact ALU/SFU: used to verify the
// shader-side transformations in isolation (the paper's observation that
// "the same transformations on the CPU are precise").
[[nodiscard]] GpuProfile IeeeExact();
// ARM Mali-400 MP: highp float unavailable in the fragment processor.
[[nodiscard]] GpuProfile Mali400();

// The ALU model of `profile`'s arithmetic, with zero counts. On the
// VideoCore IV that is IEEE fp32 add/mul pipes, denormal flush, and a
// special function unit whose EXP2/LOG2 deliver only ~16 good bits — the
// mechanistic source of the paper's float-precision result (§V).
// RECIP/RECIPSQRT are modeled near-exact (AluModel's rounded 1/x) because
// the shader compiler emits a Newton-Raphson refinement step for them (as
// the real VC4 driver does), which is also why the paper's *integer* path
// stays exact: its byte decomposition uses division but never exp2/log2.
// The profile only picks plain data — the model's RoundSpec and SfuSpec —
// so every kernel inlines the same rounding and SFU formulas.
[[nodiscard]] glsl::AluModel ProfileAlu(const GpuProfile& profile);

}  // namespace mgpu::vc4

#endif  // MGPU_VC4_PROFILES_H_
