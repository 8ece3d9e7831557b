// End-to-end benchmark of the GPGPU-over-GLES2 stack.
//
//   e2ebench --workload <sgemm|sum|small_ops|clients> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-file <path>] [--smoke]
//   e2ebench --selftest
//
// --trace 0 measures the end-to-end metrics: per-op host wall time (p50,
// p90), ops per second, set-up time and peak memory. --trace 1 measures the
// per-layer metrics instead: it runs the same ops untraced, then again with
// a span around every call into a layer, checks that the library's
// deterministic counts repeat exactly, and writes the spans as a Chrome
// trace. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every op's output is checked against the cpuref oracle outside the timed
// region; an op that throws, raises a GL error or misses its reference
// counts as failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "glsl/jit.h"
#include "glsl/simd.h"
#include "trace.h"
#include "vc4/profiles.h"
#include "workloads.h"

extern char** environ;

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-ups per untraced run (setup_s is their median): at least
// kMinSetups, and more while they add up to under kSetupSeconds, so cheap
// set-ups get a steadier median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupSeconds = 1.0;
// A timed phase runs at least this many ops, whatever --seconds says.
constexpr std::uint64_t kMinOps = 4;
// Ops per phase in --smoke mode.
constexpr std::uint64_t kSmokeOps = 4;
// Warm-up ops use indices far from the measured ones, so their inputs differ.
constexpr std::uint64_t kWarmupBase = 1ull << 40;
// Spans written to the trace file (all of them feed the metrics).
constexpr std::size_t kMaxTraceSpans = 50000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string trace_file;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Ops of one timed phase.
struct Phase {
  std::vector<double> ms;        // host wall time per op
  std::vector<OpCheck> checks;   // by op index
  std::uint64_t failed = 0;
  std::string first_error;
  // Traced phase only: library tallies summed over the phase's ops.
  GlStats gl;
  std::uint64_t syncs = 0;  // library sync points (the benchmark's removed)
};

void Accumulate(GlStats& sum, const GlStats& before, const GlStats& after) {
  sum.cmd.recorded += after.cmd.recorded - before.cmd.recorded;
  sum.cmd.elided += after.cmd.elided - before.cmd.elided;
  sum.cmd.inline_syncs += after.cmd.inline_syncs - before.cmd.inline_syncs;
  sum.cmd.lists_submitted +=
      after.cmd.lists_submitted - before.cmd.lists_submitted;
  sum.cmd.lists_dropped += after.cmd.lists_dropped - before.cmd.lists_dropped;
  sum.cache_hits += after.cache_hits - before.cache_hits;
  sum.cache_misses += after.cache_misses - before.cache_misses;
  sum.cache_evictions += after.cache_evictions - before.cache_evictions;
}

// Runs ops 0, 1, ... until `seconds` have passed (or exactly `fixed_ops`).
// With a tracer, reads the library's tallies around each op; with a
// `reference` (the untraced phase), requires each op's counts and output
// hash to repeat exactly.
Phase RunPhase(Workload& w, Tracer* tracer, double seconds,
               std::uint64_t fixed_ops, const Phase* reference) {
  Phase p;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::uint64_t op = 0;; ++op) {
    if (fixed_ops > 0 ? op >= fixed_ops
                      : op >= kMinOps && Clock::now() >= deadline) {
      break;
    }
    w.Prepare(op);
    GlStats before;
    if (tracer != nullptr) {
      before = w.ReadGlStats();
      tracer->SetOp(op);
    }
    std::string error;
    const Clock::time_point t0 = Clock::now();
    try {
      Scope s(tracer, kSpanOp);
      w.Run(tracer);
    } catch (const std::exception& e) {
      error = e.what();
    }
    p.ms.push_back(Seconds(Clock::now() - t0) * 1e3);
    OpCheck check;
    try {
      if (tracer != nullptr) {
        const GlStats after = w.ReadGlStats();
        Accumulate(p.gl, before, after);
        const std::uint64_t own =
            after.own_syncs +
            (after.own_syncs > 0 ? w.traced_finishes() : 0);
        const std::uint64_t delta =
            after.cmd.sync_points - before.cmd.sync_points;
        p.syncs += delta > own ? delta - own : 0;
      }
      check = w.Check();
    } catch (const std::exception& e) {
      if (error.empty()) error = e.what();
    }
    if (!error.empty()) {
      check.ok = false;
      check.error = error;
    }
    if (check.ok && reference != nullptr && op < reference->checks.size()) {
      const OpCheck& ref = reference->checks[op];
      if (!SameCounts(check.work, ref.work) || check.hash != ref.hash) {
        check.ok = false;
        check.error = "op " + std::to_string(op) +
                      ": counts or output differ from the untraced run";
      }
    }
    if (!check.ok) {
      ++p.failed;
      if (p.first_error.empty()) p.first_error = check.error;
    }
    p.checks.push_back(check);
  }
  return p;
}

// Digest of the first ops' outputs and counts: runs of one seed must print
// the same digest.
std::uint64_t Digest(const Phase& p, std::size_t ops) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < std::min(ops, p.checks.size()); ++i) {
    const OpCheck& c = p.checks[i];
    const vc4::GpuWork& w = c.work;
    const std::uint64_t fields[] = {c.hash,
                                    w.fragments,
                                    w.shader_ops.alu,
                                    w.shader_ops.sfu + w.shader_ops.sfu_trans,
                                    w.shader_ops.tmu,
                                    w.shader_ops.tmu_miss,
                                    w.bytes_uploaded,
                                    w.bytes_readback};
    h = Fnv64(fields, sizeof fields, h);
  }
  return h;
}

// Per-kind op count and p50, so a mixed workload's percentiles can be read.
void PrintKinds(const Workload& w, const Phase& p) {
  std::map<std::string, std::vector<double>> by_kind;
  for (std::size_t op = 0; op < p.ms.size(); ++op) {
    by_kind[w.OpKind(op)].push_back(p.ms[op]);
  }
  for (const auto& [kind, ms] : by_kind) {
    std::printf("# kind %-8s ops=%-6zu p50_ms=%.4f p90_ms=%.4f\n",
                kind.c_str(), ms.size(), Percentile(ms, 0.5),
                Percentile(ms, 0.9));
  }
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* EngineName(mgpu::gles2::ExecEngine e) {
  switch (e) {
    case mgpu::gles2::ExecEngine::kBatchedVm:
      return "batched_vm";
    case mgpu::gles2::ExecEngine::kBytecodeVm:
      return "bytecode_vm";
    case mgpu::gles2::ExecEngine::kTreeWalk:
      return "tree_walk";
    case mgpu::gles2::ExecEngine::kCompiled:
      return "compiled";
  }
  return "?";
}

// The configuration the run measured, read through public getters.
void LogConfig(const Args& a, Workload& w) {
  mgpu::gles2::Context& ctx = w.gl();
  const int threads = ctx.shader_threads();
  std::printf(
      "# config: workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
      "build=%s nproc=%u engine=%s shader_threads=%d%s simd=%s "
      "jit_available=%d async=%d vertex_batch=%d\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, a.smoke ? 1 : 0, E2EBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), EngineName(ctx.exec_engine()),
      threads, threads <= 0 ? "(one per hardware thread)" : "",
      mgpu::glsl::simd::LevelName(mgpu::glsl::simd::Resolve(-1)),
      mgpu::glsl::jit::Available() ? 1 : 0,
      ctx.async_submit_enabled() ? 1 : 0, ctx.vertex_batch_enabled() ? 1 : 0);
}

// Builds the workload and runs its warm-up ops; returns the time both took
// (input generation and checks excluded).
double SetUp(const Args& a, std::unique_ptr<Workload>& w) {
  w = MakeWorkload(a.workload, a.seed, a.smoke);
  Clock::time_point t0 = Clock::now();
  w->Setup();
  double s = Seconds(Clock::now() - t0);
  for (int k = 0; k < w->WarmupOps(); ++k) {
    w->Prepare(kWarmupBase + static_cast<std::uint64_t>(k));
    t0 = Clock::now();
    w->Run(nullptr);
    s += Seconds(Clock::now() - t0);
    const OpCheck c = w->Check();
    if (!c.ok) throw std::runtime_error("warm-up op failed: " + c.error);
  }
  return s;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int RunUntraced(const Args& a) {
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  double spent = 0.0;
  while (setups.empty() ||
         (!a.smoke && setups.size() < kMaxSetups &&
          (setups.size() < kMinSetups || spent < kSetupSeconds))) {
    w.reset();
    setups.push_back(SetUp(a, w));
    spent += setups.back();
  }
  LogConfig(a, *w);
  const Phase p = RunPhase(*w, nullptr, a.seconds, a.smoke ? kSmokeOps : 0,
                           nullptr);
  double total_s = 0.0;
  for (const double ms : p.ms) total_s += ms * 1e-3;
  const double p90 = Percentile(p.ms, 0.9);
  std::size_t above = 0;
  for (const double ms : p.ms) above += ms > p90;
  std::printf("# ops=%zu above_p90=%zu fail_ratio=%g digest=%016llx\n",
              p.ms.size(), above,
              static_cast<double>(p.failed) / static_cast<double>(p.ms.size()),
              static_cast<unsigned long long>(Digest(p, kSmokeOps)));
  PrintKinds(*w, p);
  if (!p.first_error.empty()) {
    std::printf("# first failure: %s\n", p.first_error.c_str());
  }
  PrintResult(p.failed == 0, p.ms.size(), p.failed,
              {{"ops_per_s", static_cast<double>(p.ms.size()) / total_s, "1/s"},
               {"op_p50_ms", Percentile(p.ms, 0.5), "ms"},
               {"op_p90_ms", p90, "ms"},
               {"setup_s", Median(setups), "s"},
               {"peak_rss_mb", PeakRssMb(), "MB"}});
  return 0;
}

int RunTraced(const Args& a) {
  std::unique_ptr<Workload> w;
  (void)SetUp(a, w);
  LogConfig(a, *w);
  const double section5 = Section5MaxDeviationPct();
  const std::uint64_t fixed = a.smoke ? kSmokeOps : 0;
  const Phase untraced = RunPhase(*w, nullptr, a.seconds / 2, fixed, nullptr);
  Tracer tracer;
  const Phase traced = RunPhase(*w, &tracer, a.seconds / 2, fixed, &untraced);

  const double ops = static_cast<double>(traced.ms.size());
  const auto totals = tracer.Totals();
  auto span_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.ms / ops;
  };
  vc4::GpuWork work;
  vc4::GpuTimeBreakdown modeled;
  const vc4::GpuProfile gpu = vc4::VideoCoreIV();
  const vc4::CpuModel cpu = vc4::Arm1176();
  for (const OpCheck& c : traced.checks) {
    work += c.work;
    const vc4::GpuTimeBreakdown t = vc4::GpuSeconds(gpu, cpu, c.work);
    modeled.shader += t.shader;
    modeled.upload += t.upload;
    modeled.readback += t.readback;
    modeled.compile += t.compile;
    modeled.api_overhead += t.api_overhead;
    modeled.host += t.host;
  }
  const bool compute = w->uses_compute();
  const double shader_ops = static_cast<double>(
      work.shader_ops.alu + work.shader_ops.sfu + work.shader_ops.sfu_trans +
      work.shader_ops.tmu);
  const double dispatch_s =
      (compute ? span_ms(kSpanDispatch) : span_ms(kSpanOp)) * ops * 1e-3;
  const double recorded = static_cast<double>(traced.gl.cmd.recorded);
  const double lookups =
      static_cast<double>(traced.gl.cache_hits + traced.gl.cache_misses);
  auto per_op = [&](double v) { return v / ops; };
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  auto only_compute = [&](double v) { return compute ? v : 0.0; };

  const std::vector<Metric> metrics = {
      {"compute.buffer_ms", span_ms(kSpanBuffer), "ms"},
      {"compute.upload_ms", span_ms(kSpanUpload), "ms"},
      {"compute.download_ms", span_ms(kSpanDownload), "ms"},
      {"compute.bytes_up", per_op(n(work.bytes_uploaded)), "bytes"},
      {"compute.bytes_down", per_op(n(work.bytes_readback)), "bytes"},
      {"compute.kernel_build_ms", span_ms(kSpanKernelBuild), "ms"},
      {"compute.kernel_builds", per_op(n(static_cast<std::uint64_t>(work.program_compiles))), "count"},
      {"compute.uniform_ms", span_ms(kSpanUniform), "ms"},
      {"compute.dispatch_ms", span_ms(kSpanDispatch), "ms"},
      {"compute.dispatches", only_compute(per_op(n(static_cast<std::uint64_t>(work.draw_calls)))), "count"},
      {"glsl.alu_ops", per_op(n(work.shader_ops.alu)), "count"},
      {"glsl.sfu_ops", per_op(n(work.shader_ops.sfu + work.shader_ops.sfu_trans)), "count"},
      {"glsl.tmu_fetches", per_op(n(work.shader_ops.tmu)), "count"},
      {"glsl.sim_ops_per_s", dispatch_s > 0 ? shader_ops / dispatch_s : 0.0, "1/s"},
      {"gles2.fragments", per_op(n(work.fragments)), "count"},
      {"gles2.device_wait_ms", span_ms(kSpanDeviceWait) + span_ms(kSpanFinish), "ms"},
      {"gles2.sync_points", per_op(n(traced.syncs)), "count"},
      {"gles2.cmd_recorded", per_op(recorded), "count"},
      {"gles2.elided_ratio", recorded > 0 ? n(traced.gl.cmd.elided) / recorded : 0.0, "ratio"},
      {"gles2.lists_per_op", per_op(n(traced.gl.cmd.lists_submitted)), "count"},
      {"gles2.inline_syncs", per_op(n(traced.gl.cmd.inline_syncs)), "count"},
      {"gles2.lists_dropped", per_op(n(traced.gl.cmd.lists_dropped)), "count"},
      {"gles2.shade_cache_hit_ratio", lookups > 0 ? n(traced.gl.cache_hits) / lookups : 0.0, "ratio"},
      {"gles2.shade_cache_evictions", per_op(n(traced.gl.cache_evictions)), "count"},
      {"gles2.record_ms", span_ms(kSpanRecord), "ms"},
      {"gles2.flush_ms", span_ms(kSpanFlush), "ms"},
      {"gles2.finish_ms", span_ms(kSpanFinish), "ms"},
      {"vc4.modeled_ms", per_op(modeled.total() * 1e3), "ms"},
      {"vc4.modeled_shader_ms", per_op(modeled.shader * 1e3), "ms"},
      {"vc4.modeled_xfer_ms", per_op((modeled.upload + modeled.readback) * 1e3), "ms"},
      {"vc4.modeled_compile_ms", per_op(modeled.compile * 1e3), "ms"},
      {"vc4.modeled_host_ms", per_op((modeled.host + modeled.api_overhead) * 1e3), "ms"},
      {"vc4.tmu_miss_ratio", work.shader_ops.tmu > 0 ? n(work.shader_ops.tmu_miss) / n(work.shader_ops.tmu) : 0.0, "ratio"},
      {"vc4.section5_max_dev_pct", section5, "%"},
      {"trace.overhead_ratio", Percentile(traced.ms, 0.5) / Percentile(untraced.ms, 0.5), "ratio"},
      {"trace.unattributed_ms", totals.count(kSpanOp) ? totals.at(kSpanOp).self_ms / ops : 0.0, "ms"},
  };
  std::printf("# untraced ops=%zu traced ops=%zu digest=%016llx\n",
              untraced.ms.size(), traced.ms.size(),
              static_cast<unsigned long long>(Digest(traced, kSmokeOps)));
  std::printf("# n/a on this workload (reported as 0): %s\n",
              compute ? "gles2.record_ms gles2.flush_ms gles2.finish_ms "
                        "(no direct gles2 calls)"
                      : "compute.* (drives gles2::Context directly)");
  for (const Phase* p : {&untraced, &traced}) {
    if (!p->first_error.empty()) {
      std::printf("# first failure: %s\n", p->first_error.c_str());
    }
  }
  // The reproduction guard: the model must stay within 5% of every Section V
  // speedup the paper reports (the largest deviation is 1.3% today).
  const bool section5_ok = section5 <= 5.0;
  if (!section5_ok) std::printf("# section V speedups drifted from the paper\n");
  if (!a.trace_file.empty() &&
      !tracer.WriteChromeTrace(a.trace_file, "e2ebench " + a.workload,
                               kMaxTraceSpans)) {
    std::fprintf(stderr, "warning: could not write %s\n", a.trace_file.c_str());
  }
  const std::uint64_t failed = untraced.failed + traced.failed;
  PrintResult(failed == 0 && section5_ok,
              untraced.ms.size() + traced.ms.size(), failed, metrics);
  return 0;
}

// Unit checks of the helpers the metrics rest on.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };
  expect(near(Percentile({1, 2, 3, 4}, 0.5), 2.5), "p50 of 1..4 is 2.5");
  expect(near(Percentile({4, 3, 2, 1}, 0.5), 2.5), "percentile sorts");
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  expect(near(Percentile(ten, 0.9), 9.1), "p90 of 1..10 is 9.1");
  expect(near(Percentile(ten, 0.0), 1.0) && near(Percentile(ten, 1.0), 10.0),
         "p0 and p100 are min and max");
  expect(near(Percentile({7}, 0.9), 7.0), "percentile of one sample");
  expect(Percentile({}, 0.5) == 0.0, "percentile of no samples is 0");
  expect(near(Median({5, 1, 3}), 3.0), "median of odd count");
  expect(Fnv64("a", 1) == 0xaf63dc4c8601ec8cull, "FNV-1a 64 of \"a\"");

  // op [0, 100) with children [10, 30) and [40, 90); the second child has a
  // grandchild [50, 60). A separate root [100, 120).
  std::vector<Span> spans(5);
  spans[0] = {"op", 0, 100, -1, 0};
  spans[1] = {"a", 10, 30, 0, 0};
  spans[2] = {"b", 40, 90, 0, 0};
  spans[3] = {"c", 50, 60, 2, 0};
  spans[4] = {"op", 100, 120, -1, 1};
  const std::vector<std::int64_t> self = SelfTimes(spans);
  expect(self[0] == 30, "op self time excludes its children");
  expect(self[1] == 20, "leaf self time is its duration");
  expect(self[2] == 40, "self time excludes only direct children");
  expect(self[3] == 10 && self[4] == 20, "roots and leaves");

  Tracer t;
  const int outer = t.Begin("op");
  const int inner = t.Begin("x.y");
  t.End(inner);
  t.End(outer);
  const int next = t.Begin("op");
  t.End(next);
  expect(t.spans()[1].parent == outer && t.spans()[2].parent == -1,
         "tracer nests spans and closes them");
  const auto totals = t.Totals();
  expect(totals.at("op").count == 2 && totals.at("x.y").count == 1,
         "tracer totals count spans by name");
  expect(totals.at("op").self_ms <= totals.at("op").ms, "self time <= time");

  if (failures == 0) std::printf("selftest: all helper checks passed\n");
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--smoke") {
      a->smoke = true;
    } else if (k == "--selftest") {
      a->selftest = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-file") {
      a->trace_file = v;
    } else {
      return false;
    }
  }
  return a->selftest || (MakeWorkload(a->workload, 0, true) != nullptr &&
                         a->seconds > 0.0);
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <sgemm|sum|small_ops|clients> "
                 "--seed N --seconds S --trace 0|1 [--trace-file PATH] "
                 "[--smoke]\n       e2ebench --selftest\n");
    return 2;
  }
  if (a.selftest) return SelfTest();
  // The library reads MGPU_* knobs from the environment; a stray one would
  // silently change the program being measured.
  std::string knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MGPU_", 5) == 0) {
      knobs.append(" ").append(*e, std::strcspn(*e, "="));
    }
  }
  if (!knobs.empty()) {
    std::fprintf(stderr, "refusing to run: library knobs set in the "
                         "environment:%s\n", knobs.c_str());
    return 2;
  }
  try {
    return a.trace ? RunTraced(a) : RunUntraced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
