// The benchmark's workloads. Each one drives the library only through its
// public API (compute::PackedBuffer / Kernel / MultiKernel, gles2::Context),
// takes every input from a generator seeded by the command line, and checks
// every op's output against the cpuref oracle outside the timed region.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gles2/cmdstream.h"
#include "gles2/context.h"
#include "trace.h"
#include "vc4/timing.h"

namespace e2ebench {

namespace vc4 = mgpu::vc4;

// Span names: one per kind of call the benchmark makes into a layer. The
// traced run's per-layer times are these spans' totals per op.
inline constexpr char kSpanOp[] = "op";
inline constexpr char kSpanBuffer[] = "compute.buffer";
inline constexpr char kSpanUpload[] = "compute.upload";
inline constexpr char kSpanDownload[] = "compute.download";
inline constexpr char kSpanKernelBuild[] = "compute.kernel_build";
inline constexpr char kSpanUniform[] = "compute.uniform";
inline constexpr char kSpanDispatch[] = "compute.dispatch";
// The Finish the traced run adds after every compute call, so the call's own
// time and the device's execution of what it recorded land in separate spans.
inline constexpr char kSpanDeviceWait[] = "gles2.device_wait";
inline constexpr char kSpanRecord[] = "gles2.record";
inline constexpr char kSpanFlush[] = "gles2.flush";
inline constexpr char kSpanFinish[] = "gles2.finish";

// What one op did, as counted by the library. Deterministic: the same seed
// and op index give the same values in every run, traced or not.
struct OpCheck {
  bool ok = true;
  std::string error;          // first verification failure
  std::uint64_t hash = 0;     // FNV-1a of the op's output
  vc4::GpuWork work;          // fragments, shader ops, bytes, builds, draws
};

[[nodiscard]] bool SameCounts(const vc4::GpuWork& a, const vc4::GpuWork& b);

// Command-stream and shading-cache tallies, summed over the workload's
// contexts. Reading them is a sync point on each context.
struct GlStats {
  mgpu::gles2::cmd::Stats cmd;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  // Sync points the two reads themselves add to the window between a
  // reading before an op and one after it.
  std::uint64_t own_syncs = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the device or contexts (timed as part of setup_s).
  virtual void Setup() = 0;
  // Ops the warm-up runs (timed as part of setup_s): one of each kind.
  [[nodiscard]] virtual int WarmupOps() const = 0;
  // Name of op `op`'s kind (e.g. "f32"), for the per-kind summary.
  [[nodiscard]] virtual const char* OpKind(std::uint64_t op) const = 0;
  // Generates op `op`'s inputs from the seed (untimed).
  virtual void Prepare(std::uint64_t op) = 0;
  // The timed op. `tracer` is null in the untraced run.
  virtual void Run(Tracer* tracer) = 0;
  // Verifies the last op's output and collects its counts (untimed).
  virtual OpCheck Check() = 0;
  // Traced run only, around each op.
  virtual GlStats ReadGlStats() = 0;
  // Finish calls the traced run added during the last op; each is a sync
  // point the library did not ask for.
  [[nodiscard]] virtual std::uint64_t traced_finishes() const { return 0; }
  // One context of the workload, for logging the resolved configuration.
  [[nodiscard]] virtual mgpu::gles2::Context& gl() = 0;
  // False for `clients`, which drives gles2 directly: its compute.* metrics
  // do not apply, and its shader ops run across the whole frame rather
  // than inside dispatch calls.
  [[nodiscard]] virtual bool uses_compute() const { return true; }
};

// Null for an unknown name. `smoke` shrinks every size for the self-test.
[[nodiscard]] std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                                     std::uint64_t seed,
                                                     bool smoke);

// The four Section V speedups (sum/sgemm x int/float) at the paper's
// 1024-scale, from op counts measured at calibration sizes; returns the
// largest deviation from the paper's figures in percent.
[[nodiscard]] double Section5MaxDeviationPct();

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
