// Shared benchmark plumbing: runs workloads through the simulator at
// calibration sizes, measures the interpreter's operation counters, and
// extrapolates to paper-scale workloads (per-fragment cost is constant for
// streaming kernels and affine in K for GEMM, so two calibration points
// determine the paper-scale counts exactly).
#ifndef MGPU_BENCH_BENCH_UTIL_H_
#define MGPU_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compute/ops.h"
#include "compute/packing.h"
#include "cpuref/cpuref.h"
#include "vc4/timing.h"

namespace mgpu::bench {

// --- JSON capture ----------------------------------------------------------
// Benchmark mains append named metrics and write a BENCH_<name>.json next to
// the working directory, so CI (and the perf-trajectory tooling) can diff
// runs without scraping stdout.
class JsonBenchWriter {
 public:
  explicit JsonBenchWriter(std::string benchmark) : benchmark_(std::move(benchmark)) {}

  void Add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, unit, value});
  }

  // Writes BENCH_<benchmark>.json (or `path` when given). Returns false on
  // I/O failure.
  bool Write(const std::string& path = "") const {
    const std::string file =
        path.empty() ? "BENCH_" + benchmark_ + ".json" : path;
    std::FILE* f = std::fopen(file.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"metrics\": [\n",
                 benchmark_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      // %.17g round-trips any double exactly — the CI gate compares
      // deterministic metrics (op counts, 32-bit framebuffer hashes)
      // bit-exactly, so the serialization must not round them.
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"unit\": \"%s\", \"value\": %.17g}%s\n",
                   rows_[i].name.c_str(), rows_[i].unit.c_str(),
                   rows_[i].value, i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Row {
    std::string name;
    std::string unit;
    double value;
  };
  std::string benchmark_;
  std::vector<Row> rows_;
};

// Median over rounds of num[r] / den[r], where each round timed the two
// legs of a ratio back to back. On a shared host any single run may land
// in a fast or a slow spell; a ratio of per-leg minimums flips whenever only
// one leg catches a fast run, while the median of same-round ratios moves
// only if most rounds split the same way.
inline double MedianRatio(const std::vector<double>& num,
                          const std::vector<double>& den) {
  std::vector<double> r;
  for (std::size_t i = 0; i < num.size() && i < den.size(); ++i) {
    r.push_back(num[i] / den[i]);
  }
  if (r.empty()) return 0.0;
  std::sort(r.begin(), r.end());
  const std::size_t m = r.size() / 2;
  return r.size() % 2 != 0 ? r[m] : 0.5 * (r[m - 1] + r[m]);
}

// Scales the linear parts of a measured workload by `factor` (streaming
// kernels: everything except compiles and draw calls scales with n).
inline vc4::GpuWork ScaleLinear(const vc4::GpuWork& w, double factor) {
  vc4::GpuWork out = w;
  auto scale = [factor](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * factor);
  };
  out.fragments = scale(w.fragments);
  out.shader_ops.alu = scale(w.shader_ops.alu);
  out.shader_ops.sfu = scale(w.shader_ops.sfu);
  out.shader_ops.sfu_trans = scale(w.shader_ops.sfu_trans);
  out.shader_ops.tmu = scale(w.shader_ops.tmu);
  out.shader_ops.tmu_miss = scale(w.shader_ops.tmu_miss);
  out.bytes_uploaded = scale(w.bytes_uploaded);
  out.bytes_readback = scale(w.bytes_readback);
  out.host_work.int_ops = scale(w.host_work.int_ops);
  out.host_work.loads = scale(w.host_work.loads);
  out.host_work.stores = scale(w.host_work.stores);
  out.host_work.iterations = scale(w.host_work.iterations);
  return out;
}

// Measures the element-wise add ("sum") kernel at a calibration size and
// extrapolates to n elements.
inline vc4::GpuWork MeasureSumWork(compute::Device& d, compute::ElemType t,
                                   std::uint64_t n) {
  constexpr std::size_t kCal = 4096;
  Rng rng(100);
  (void)d.ConsumeWork();
  if (t == compute::ElemType::kF32) {
    const auto a = rng.FloatVector(kCal, -100.0f, 100.0f);
    const auto b = rng.FloatVector(kCal, -100.0f, 100.0f);
    std::vector<float> out(kCal);
    compute::ops::AddF32(d, a, b, out);
  } else {
    const auto a = rng.IntVector(kCal, -1'000'000, 1'000'000);
    const auto b = rng.IntVector(kCal, -1'000'000, 1'000'000);
    std::vector<std::int32_t> out(kCal);
    compute::ops::AddI32(d, a, b, out);
  }
  vc4::GpuWork w = d.ConsumeWork();
  w = ScaleLinear(w, static_cast<double>(n) / kCal);
  w.program_compiles = 1;
  w.draw_calls = 1;
  return w;
}

// Measures GEMM at two calibration sizes, fits the per-fragment cost
// c(K) = a + b*K (exact: the kernel is one loop over K), and extrapolates
// to an n x n problem.
inline vc4::GpuWork MeasureGemmWork(compute::Device& d, compute::ElemType t,
                                    int n) {
  constexpr int kCal1 = 16;
  constexpr int kCal2 = 32;
  Rng rng(101);
  auto run = [&](int m) -> vc4::GpuWork {
    (void)d.ConsumeWork();
    const std::size_t e = static_cast<std::size_t>(m) * m;
    if (t == compute::ElemType::kF32) {
      const auto a = rng.FloatVector(e, -2.0f, 2.0f);
      const auto b = rng.FloatVector(e, -2.0f, 2.0f);
      std::vector<float> out(e);
      compute::ops::SgemmF32(d, m, a, b, out);
    } else {
      const auto a = rng.IntVector(e, -64, 64);
      const auto b = rng.IntVector(e, -64, 64);
      std::vector<std::int32_t> out(e);
      compute::ops::GemmI32(d, m, a, b, out);
    }
    return d.ConsumeWork();
  };
  const vc4::GpuWork w1 = run(kCal1);
  const vc4::GpuWork w2 = run(kCal2);

  auto fit = [&](std::uint64_t c1, std::uint64_t c2) -> double {
    // Per-fragment costs at the two K values.
    const double p1 = static_cast<double>(c1) / (kCal1 * kCal1);
    const double p2 = static_cast<double>(c2) / (kCal2 * kCal2);
    const double b = (p2 - p1) / (kCal2 - kCal1);
    const double a = p1 - b * kCal1;
    // Extrapolated total at size n.
    return (a + b * n) * static_cast<double>(n) * n;
  };

  vc4::GpuWork w;
  w.fragments = static_cast<std::uint64_t>(n) * n;
  w.vertices = 6;
  w.shader_ops.alu = static_cast<std::uint64_t>(
      fit(w1.shader_ops.alu, w2.shader_ops.alu));
  w.shader_ops.sfu = static_cast<std::uint64_t>(
      fit(w1.shader_ops.sfu, w2.shader_ops.sfu));
  w.shader_ops.sfu_trans = static_cast<std::uint64_t>(
      fit(w1.shader_ops.sfu_trans, w2.shader_ops.sfu_trans));
  w.shader_ops.tmu = static_cast<std::uint64_t>(
      fit(w1.shader_ops.tmu, w2.shader_ops.tmu));
  // Texture-cache misses do NOT extrapolate from small calibration sizes:
  // at n <= 32 both matrices fit in the 4 KB texture cache, while at the
  // paper's n = 1024 a column of B walks 1024 distinct lines (full miss)
  // and each fragment's A-row walk (n/8 = 128 lines) is evicted between
  // fragments (1-in-8 miss). The analytic count:
  //   misses = n^3 (B) + n^3/8 (A).
  const double n3 = static_cast<double>(n) * n * n;
  w.shader_ops.tmu_miss = static_cast<std::uint64_t>(n3 * (1.0 + 1.0 / 8.0));
  if (w.shader_ops.tmu_miss > w.shader_ops.tmu) {
    w.shader_ops.tmu_miss = w.shader_ops.tmu;
  }
  // Three n x n matrices cross the bus; host packing for the same.
  w.bytes_uploaded = 2ull * n * n * 4ull;
  w.bytes_readback = 1ull * n * n * 4ull;
  w.host_work = compute::HostPackWork(t, 3ull * n * n);
  w.program_compiles = 1;
  w.draw_calls = 1;
  return w;
}

struct SpeedupRow {
  const char* benchmark;
  const char* type;
  double cpu_seconds;
  vc4::GpuTimeBreakdown gpu;
  double paper_speedup;

  [[nodiscard]] double speedup() const { return cpu_seconds / gpu.total(); }
};

inline void PrintSpeedupTable(const std::vector<SpeedupRow>& rows) {
  std::printf("%-8s %-6s %12s %12s %10s %10s %9s\n", "kernel", "type",
              "CPU [ms]", "GPU [ms]", "speedup", "paper", "delta");
  std::printf("%.*s\n", 74,
              "-------------------------------------------------------------"
              "-------------");
  for (const SpeedupRow& r : rows) {
    std::printf("%-8s %-6s %12.2f %12.2f %9.2fx %9.2fx %8.0f%%\n",
                r.benchmark, r.type, r.cpu_seconds * 1e3,
                r.gpu.total() * 1e3, r.speedup(), r.paper_speedup,
                (r.speedup() / r.paper_speedup - 1.0) * 100.0);
  }
}

}  // namespace mgpu::bench

#endif  // MGPU_BENCH_BENCH_UTIL_H_
