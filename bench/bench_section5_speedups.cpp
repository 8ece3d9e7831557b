// Regenerates the paper's Section V results: GPU-vs-CPU speedups for the
// `sum` and `sgemm` benchmarks in integer and floating-point configurations
// at 1024-element-per-dimension scale, "including time spent in data
// transfers and kernel compilations".
//
// GPU operation counts are MEASURED by running the kernels through the
// GLES2 simulator at calibration sizes and extrapolating exactly (linear
// for sum, affine-in-K for sgemm); times come from the VideoCore IV /
// ARM1176 timing model (vc4/timing.h). CPU counts are the analytic formulas
// of cpuref, validated by tests. Machine constants were calibrated once
// against the paper's four published speedups; the `*_within_1pct` flags
// below gate that fit.
//
// Writes BENCH_section5_speedups.json: per row the measured shader ops and
// fragments, the modeled speedup and whether it is within 1% of the
// paper's, the bytecode VM's batch steps over the row's calibration runs
// (host executor work, not a modeled op), the three shape checks, and the
// sum crossover: the smallest power of two from 2^8 to 2^22 elements at
// which the GPU, fixed compile and draw costs included, beats the CPU (0
// if none). Every value is a
// deterministic function of op counts, so CI's check_bench.py gates the op
// counts, flags and crossovers exactly.
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "compute/device.h"
#include "vc4/profiles.h"

int main() {
  using namespace mgpu;
  compute::Device device;  // VideoCore IV model
  const vc4::GpuProfile gpu = device.profile();
  const vc4::CpuModel cpu = vc4::Arm1176();

  std::printf("=== Paper Section V: application wall-time speedups ===\n");
  std::printf("platform: %s vs %s\n", gpu.name.c_str(), cpu.name.c_str());
  std::printf("workload: 1024x1024 elements (sum), 1024x1024 matrices "
              "(sgemm), random values\n\n");

  constexpr std::uint64_t kSumN = 1024ull * 1024ull;
  constexpr int kGemmN = 1024;

  std::vector<bench::SpeedupRow> rows;
  std::vector<vc4::GpuWork> works;
  std::vector<std::uint64_t> vm_steps;
  std::uint64_t steps_seen = device.alu().counts().vm_steps;
  // Runs after its arguments, so the step delta is the measurement's own.
  const auto add = [&](const char* kernel, const char* type,
                       const vc4::GpuWork& w, const vc4::CpuWork& cw,
                       double paper) {
    const std::uint64_t steps_now = device.alu().counts().vm_steps;
    vm_steps.push_back(steps_now - steps_seen);
    steps_seen = steps_now;
    works.push_back(w);
    rows.push_back({kernel, type, vc4::CpuSeconds(cpu, cw),
                    vc4::GpuSeconds(gpu, cpu, w), paper});
  };

  add("sum", "int",
      bench::MeasureSumWork(device, compute::ElemType::kI32, kSumN),
      cpuref::AddWorkI32(kSumN), 7.2);
  add("sum", "float",
      bench::MeasureSumWork(device, compute::ElemType::kF32, kSumN),
      cpuref::AddWorkF32(kSumN), 6.5);
  add("sgemm", "int",
      bench::MeasureGemmWork(device, compute::ElemType::kI32, kGemmN),
      cpuref::GemmWorkI32(kGemmN), 6.5);
  add("sgemm", "float",
      bench::MeasureGemmWork(device, compute::ElemType::kF32, kGemmN),
      cpuref::SgemmWorkF32(kGemmN), 6.3);

  bench::PrintSpeedupTable(rows);

  std::printf("\nGPU time breakdown [ms]:\n");
  std::printf("%-8s %-6s %9s %9s %9s %9s %9s\n", "kernel", "type", "shader",
              "upload", "readback", "compile", "host");
  const char* names[4] = {"sum", "sum", "sgemm", "sgemm"};
  const char* types[4] = {"int", "float", "int", "float"};
  for (int i = 0; i < 4; ++i) {
    const auto& t = rows[static_cast<std::size_t>(i)].gpu;
    std::printf("%-8s %-6s %9.2f %9.2f %9.2f %9.2f %9.2f\n", names[i],
                types[i], t.shader * 1e3, t.upload * 1e3, t.readback * 1e3,
                t.compile * 1e3, t.host * 1e3);
  }

  std::printf("\nshape checks (the paper's qualitative claims):\n");
  const bool gpu_wins =
      rows[0].speedup() > 1 && rows[1].speedup() > 1 &&
      rows[2].speedup() > 1 && rows[3].speedup() > 1;
  const bool int_beats_float_sum = rows[0].speedup() > rows[1].speedup();
  const bool int_beats_float_gemm = rows[2].speedup() > rows[3].speedup();
  std::printf("  [%s] GPU faster than CPU on all four configurations\n",
              gpu_wins ? "ok" : "FAIL");
  std::printf("  [%s] int speedup > float speedup (sum):   CPU integer ALU "
              "is fast, GPU float path pays pack/unpack\n",
              int_beats_float_sum ? "ok" : "FAIL");
  std::printf("  [%s] int speedup > float speedup (sgemm)\n",
              int_beats_float_gemm ? "ok" : "FAIL");

  bench::JsonBenchWriter json("section5_speedups");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const bench::SpeedupRow& r = rows[i];
    const vc4::GpuWork& w = works[i];
    const std::string p = std::string(r.benchmark) + "_" + r.type + "_";
    json.Add(p + "alu_ops", static_cast<double>(w.shader_ops.alu), "ops");
    json.Add(p + "sfu_ops", static_cast<double>(w.shader_ops.sfu), "ops");
    json.Add(p + "tmu_ops", static_cast<double>(w.shader_ops.tmu), "ops");
    json.Add(p + "fragments", static_cast<double>(w.fragments), "ops");
    json.Add("vm_steps_" + p.substr(0, p.size() - 1),
             static_cast<double>(vm_steps[i]), "count");
    json.Add(p + "within_1pct",
             std::fabs(r.speedup() / r.paper_speedup - 1.0) <= 0.01 ? 1.0
                                                                    : 0.0,
             "bool");
    json.Add(p + "speedup", r.speedup(), "x");
  }
  // Sum crossover: scale the two measured sum rows (linear in n, fixed
  // compile and draw costs) down and up the power-of-two sizes.
  const auto crossover = [&](const vc4::GpuWork& w,
                             vc4::CpuWork (*cpu_work)(std::uint64_t)) {
    for (int lg = 8; lg <= 22; ++lg) {
      const std::uint64_t n = 1ull << lg;
      const vc4::GpuWork scaled =
          bench::ScaleLinear(w, static_cast<double>(n) / kSumN);
      if (vc4::CpuSeconds(cpu, cpu_work(n)) >
          vc4::GpuSeconds(gpu, cpu, scaled).total()) {
        return n;
      }
    }
    return std::uint64_t{0};
  };
  const std::uint64_t cross_int = crossover(works[0], cpuref::AddWorkI32);
  const std::uint64_t cross_float = crossover(works[1], cpuref::AddWorkF32);
  std::printf("\nsum crossover (GPU starts winning): int at %llu elements, "
              "float at %llu\n",
              static_cast<unsigned long long>(cross_int),
              static_cast<unsigned long long>(cross_float));

  json.Add("sum_int_crossover_elements", static_cast<double>(cross_int),
           "count");
  json.Add("sum_float_crossover_elements", static_cast<double>(cross_float),
           "count");
  json.Add("gpu_wins_all", gpu_wins ? 1.0 : 0.0, "bool");
  json.Add("int_beats_float_sum", int_beats_float_sum ? 1.0 : 0.0, "bool");
  json.Add("int_beats_float_sgemm", int_beats_float_gemm ? 1.0 : 0.0, "bool");
  if (!json.Write()) {
    std::fprintf(stderr,
                 "warning: could not write BENCH_section5_speedups.json\n");
  }
  return gpu_wins && int_beats_float_sum && int_beats_float_gemm ? 0 : 1;
}
