// Timing model replacing the paper's wall-clock measurements on the
// Raspberry Pi. GPU time is derived from *measured* operation counts (the
// interpreter's AluModel counters), CPU time from analytic per-kernel
// operation counts and an ARM1176 cost table. Machine constants are
// calibrated once against the paper's published speedups (the paper reports
// no raw times); bench_section5_speedups gates the fit (`*_within_1pct`).
#ifndef MGPU_VC4_TIMING_H_
#define MGPU_VC4_TIMING_H_

#include <cstdint>
#include <string>

#include "glsl/alu.h"
#include "vc4/profiles.h"

namespace mgpu::vc4 {

// ARM1176JZF-S class CPU (the Raspberry Pi's CPU): single-issue in-order
// core with a non-pipelined-in-practice VFP11 FPU and modest cache.
// Per-op costs model the *benchmark baselines the paper measures against*:
// plain scalar C loops on the Pi, where streaming loads miss the 16 KB L1
// with no prefetcher (the Pi 1's notorious ~300 MB/s effective stream rate)
// and the loop body pays heavy per-iteration overhead (index arithmetic,
// bounds, stack traffic of unoptimized builds). The constants were
// calibrated once against the paper's four published speedups
// (bench_section5_speedups gates the fit).
struct CpuModel {
  std::string name = "ARM1176JZF-S @ 700 MHz";
  double clock_hz = 700e6;
  double int_alu_cycles = 1.0;
  double int_mul_cycles = 2.0;
  double fp_add_cycles = 3.0;   // VFP11 FADDS/FMULS effective throughput
  double fp_mul_cycles = 3.0;   // with compiler scheduling in the loop body
  double fp_div_cycles = 19.0;  // VFP11 FDIVS
  double load_cycles = 16.0;    // streaming miss-dominated
  double store_cycles = 8.0;
  double loop_overhead_cycles = 40.0;  // unoptimized loop body overhead
};

[[nodiscard]] CpuModel Arm1176();

// Operation counts of a CPU kernel (analytic formulas live in cpuref).
struct CpuWork {
  std::uint64_t int_ops = 0;
  std::uint64_t int_muls = 0;
  std::uint64_t fp_adds = 0;
  std::uint64_t fp_muls = 0;
  std::uint64_t fp_divs = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t iterations = 0;

  CpuWork& operator+=(const CpuWork& o);
};

[[nodiscard]] double CpuSeconds(const CpuModel& cpu, const CpuWork& work);

// One GPU dispatch (or a whole multi-kernel application).
struct GpuWork {
  std::uint64_t fragments = 0;
  std::uint64_t vertices = 0;
  glsl::OpCounts shader_ops;  // totals across all invocations (measured)
  std::uint64_t bytes_uploaded = 0;
  std::uint64_t bytes_readback = 0;
  int program_compiles = 0;
  int draw_calls = 0;
  CpuWork host_work;  // CPU-side pack/unpack (e.g. the float bit rotation)

  GpuWork& operator+=(const GpuWork& o);
};

struct GpuTimeBreakdown {
  double shader = 0.0;
  double upload = 0.0;
  double readback = 0.0;
  double compile = 0.0;
  double api_overhead = 0.0;
  double host = 0.0;

  [[nodiscard]] double total() const {
    return shader + upload + readback + compile + api_overhead + host;
  }
};

// Wall time of the GPU path "including time spent in data transfers and
// kernel compilations" (paper §V).
[[nodiscard]] GpuTimeBreakdown GpuSeconds(const GpuProfile& gpu,
                                          const CpuModel& cpu,
                                          const GpuWork& work);

// Peak arithmetic throughput of a profile in FLOP/s (sanity: VideoCore IV
// must report the paper's 24 GFLOPS).
[[nodiscard]] double PeakFlops(const GpuProfile& gpu);

}  // namespace mgpu::vc4

#endif  // MGPU_VC4_TIMING_H_
