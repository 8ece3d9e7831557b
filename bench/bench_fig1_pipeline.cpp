// Experiment E4: the paper's Figure 1 / §II-A compute mapping — the
// graphics pipeline as a compute substrate. Verifies, across output sizes,
// that the screen-covering two-triangle quad shades exactly one fragment
// per output element and that the varying/coordinate path addresses each
// element exactly (no over/under-shading, no addressing drift at any size).
//
// Also times the sweep on both shader execution engines — the bytecode VM
// (production path) and the tree-walking interpreter (oracle) — plus a
// thread-scaling sweep over the tiled rasterizer's worker pool (1/2/4/
// hardware_concurrency shading workers), and emits
// BENCH_fig1_pipeline.json (with `fragments_n<elements>`, the exact
// fragment count of each sweep size) and BENCH_threads_scaling.json.
// Usage: bench_fig1_pipeline [--quick]
//   --quick: CI smoke size — truncated sweep and a 1/2-thread-only scaling
//   pass. Metric names match the full run, but values are size-dependent:
//   gate a run only against a baseline recorded at the same size (CI and
//   ci/bench_baseline.json both use --quick).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "compute/kernel.h"
#include "gles2/context.h"
#include "vc4/profiles.h"

namespace {

using namespace mgpu;

struct SweepRow {
  int elements = 0;
  std::uint64_t fragments = 0;
  bool one_to_one = false;
  int bad = 0;
};

struct SweepResult {
  bool ok = true;
  double seconds = 0.0;
  std::vector<SweepRow> rows;
};

// Runs the 1:1 coverage/addressing sweep on the given engine. The timed
// region covers the whole dispatch pipeline — kernel compile, upload,
// shading, readback, validation — identically for both engines (console
// output happens outside), so the reported speedup is end-to-end wall
// clock, a conservative lower bound on the pure shader-execution speedup.
SweepResult RunSweep(gles2::ExecEngine engine, int shader_threads = 1,
                     bool quick = false) {
  compute::DeviceOptions o;
  o.profile = vc4::IeeeExact();
  o.exec_engine = engine;
  o.shader_threads = shader_threads;
  compute::Device d(o);

  static const std::vector<int> kFullSizes = {1,     2,     16,    100,
                                              4096,  10000, 65536, 250000};
  static const std::vector<int> kQuickSizes = {1, 2, 16, 100, 4096, 10000, 65536};

  SweepResult result;
  const auto t0 = std::chrono::steady_clock::now();
  for (const int n : quick ? kQuickSizes : kFullSizes) {
    compute::PackedBuffer out(d, compute::ElemType::kI32,
                              static_cast<std::size_t>(n));
    compute::Kernel k(d, {.name = "self_index",
                          .inputs = {},
                          .output = compute::ElemType::kI32,
                          .extra_decls = "",
                          .body = "float gp_kernel(vec2 p) { return "
                                  "gp_linear_index(); }\n"});
    (void)d.ConsumeWork();
    k.Run(out, {});
    const vc4::GpuWork w = d.ConsumeWork();
    std::vector<std::int32_t> back(static_cast<std::size_t>(n));
    out.Download(std::span<std::int32_t>(back));
    SweepRow row;
    row.elements = n;
    row.fragments = w.fragments;
    for (int i = 0; i < n; ++i) {
      row.bad += back[static_cast<std::size_t>(i)] != i;
    }
    const std::uint64_t texels =
        static_cast<std::uint64_t>(out.tex_width()) * out.tex_height();
    row.one_to_one = w.fragments == texels;
    result.ok = result.ok && row.one_to_one && row.bad == 0;
    result.rows.push_back(row);
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

// --- vector-heavy scene: vec3 lighting in the fragment shader -------------
// The Fig. 1 sweep's self-index kernel is scalar-float-only, which the
// batched engine already fast-pathed in PR 4; this scene measures the SoA
// win where it matters — whole-vector arithmetic, normalize/dot/pow — with
// uniform control flow, so the lanes never split and the vector kernels
// run on full kVmLanes-wide batches. Byte-identical across engines by
// construction (FNV hash of the framebuffer is a gated deterministic metric).

using namespace mgpu::gles2;

constexpr char kLightVs[] = R"(
attribute vec2 a_pos;
varying vec3 v_nrm;
varying vec3 v_pos;
void main() {
  v_pos = vec3(a_pos * 2.0, a_pos.x - a_pos.y);
  v_nrm = vec3(a_pos.y, 1.0 - a_pos.x, 0.5 + a_pos.x * a_pos.y);
  gl_Position = vec4(a_pos, 0.0, 1.0);
}
)";

constexpr char kLightFs[] = R"(
precision highp float;
varying vec3 v_nrm;
varying vec3 v_pos;
uniform vec3 u_light;
uniform vec3 u_tint;
void main() {
  vec3 n = normalize(v_nrm);
  vec3 l = normalize(u_light - v_pos);
  float diff = max(dot(n, l), 0.0);
  vec3 h = normalize(l + vec3(0.0, 0.0, 1.0));
  float spec = pow(max(dot(n, h), 0.0), 16.0);
  vec3 col = u_tint * diff + cross(n, l) * 0.125 + vec3(spec);
  gl_FragColor = vec4(fract(col), 1.0);
}
)";

struct VectorHeavyResult {
  double seconds = 0.0;
  std::uint32_t fb_hash = 0;
  bool ok = true;
};

std::uint32_t Fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t h = 2166136261u;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

// Every engine must hash identically — only wall clock may move.
VectorHeavyResult RunVectorHeavy(gles2::ExecEngine engine, int size) {
  gles2::ContextConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.has_depth = false;
  cfg.shader_threads = 1;
  cfg.exec_engine = engine;
  gles2::Context ctx(cfg);

  const GLuint vs = ctx.CreateShader(GL_VERTEX_SHADER);
  ctx.ShaderSource(vs, kLightVs);
  ctx.CompileShader(vs);
  const GLuint fs = ctx.CreateShader(GL_FRAGMENT_SHADER);
  ctx.ShaderSource(fs, kLightFs);
  ctx.CompileShader(fs);
  const GLuint prog = ctx.CreateProgram();
  ctx.AttachShader(prog, vs);
  ctx.AttachShader(prog, fs);
  ctx.LinkProgram(prog);
  GLint linked = GL_FALSE;
  ctx.GetProgramiv(prog, GL_LINK_STATUS, &linked);
  VectorHeavyResult r;
  if (linked != GL_TRUE) {
    std::fprintf(stderr, "vector_heavy link failed: %s\n",
                 ctx.GetProgramInfoLog(prog).c_str());
    r.ok = false;
    return r;
  }
  ctx.UseProgram(prog);
  ctx.Uniform3f(ctx.GetUniformLocation(prog, "u_light"), 0.4f, 0.9f, 1.5f);
  ctx.Uniform3f(ctx.GetUniformLocation(prog, "u_tint"), 0.6f, 0.3f, 0.8f);

  static const float kQuad[12] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  const GLuint loc =
      static_cast<GLuint>(ctx.GetAttribLocation(prog, "a_pos"));
  ctx.EnableVertexAttribArray(loc);
  ctx.VertexAttribPointer(loc, 2, GL_FLOAT, GL_FALSE, 0, kQuad);
  ctx.ClearColor(0.0f, 0.0f, 0.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);

  const auto t0 = std::chrono::steady_clock::now();
  ctx.DrawArrays(GL_TRIANGLES, 0, 6);
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.ok = ctx.GetError() == static_cast<GLenum>(GL_NO_ERROR);

  std::vector<std::uint8_t> fb(static_cast<std::size_t>(size) * size * 4);
  ctx.ReadPixels(0, 0, size, size, GL_RGBA, GL_UNSIGNED_BYTE, fb.data());
  r.fb_hash = Fnv1a(fb);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  std::printf("=== Paper Fig. 1: one fragment per output element%s ===\n\n",
              quick ? " (quick)" : "");

  // In quick (CI-gated) mode the sweeps are short enough that scheduler
  // noise dwarfs the gate thresholds; every timed leg (the three engines'
  // sweeps and the two vector-heavy scenes below) runs interleaved, one of
  // each per round over 5 rounds, each timing is the min over the rounds,
  // and batched_speedup_vs_scalar (whose one-lane leg is also vm_sweep) is
  // the median of the per-round ratios (bench::MedianRatio). A leg is ok
  // only if it was ok in every round, and a vector-heavy scene must hash
  // the same in every round. The full run keeps single-pass timings,
  // comparable with the recorded history.
  const int rounds = quick ? 5 : 1;
  const int vh_size = quick ? 256 : 512;
  const auto keep_min = [](auto& best, auto again, int round) {
    const bool ok = round == 0 ? again.ok : best.ok && again.ok;
    if (round == 0 || again.seconds < best.seconds) best = std::move(again);
    best.ok = ok;
  };

  SweepResult batched;
  SweepResult vm;
  SweepResult tree;
  VectorHeavyResult vh_batched;
  VectorHeavyResult vh_scalar;
  std::vector<double> batched_s;
  std::vector<double> vm_s;
  for (int r = 0; r < rounds; ++r) {
    SweepResult a = RunSweep(gles2::ExecEngine::kBatchedVm, 1, quick);
    SweepResult b = RunSweep(gles2::ExecEngine::kBytecodeVm, 1, quick);
    batched_s.push_back(a.seconds);
    vm_s.push_back(b.seconds);
    keep_min(batched, std::move(a), r);
    keep_min(vm, std::move(b), r);
    keep_min(tree, RunSweep(gles2::ExecEngine::kTreeWalk, 1, quick), r);
    VectorHeavyResult vb =
        RunVectorHeavy(gles2::ExecEngine::kBatchedVm, vh_size);
    VectorHeavyResult vs =
        RunVectorHeavy(gles2::ExecEngine::kBytecodeVm, vh_size);
    if (r > 0) {
      vb.ok = vb.ok && vb.fb_hash == vh_batched.fb_hash;
      vs.ok = vs.ok && vs.fb_hash == vh_scalar.fb_hash;
    }
    keep_min(vh_batched, vb, r);
    keep_min(vh_scalar, vs, r);
  }
  const double batched_speedup = bench::MedianRatio(vm_s, batched_s);

  std::printf("%10s %10s %12s %14s\n", "elements", "fragments", "1:1?",
              "addressing");
  for (const SweepRow& r : vm.rows) {
    std::printf("%10d %10llu %12s %10d bad\n", r.elements,
                static_cast<unsigned long long>(r.fragments),
                r.one_to_one ? "yes" : "NO", r.bad);
  }

  std::printf("\npipeline stages exercised per dispatch (paper Fig. 1):\n");
  std::printf("  vertex shader (pass-through, challenge III-1) -> triangle "
              "assembly (2-triangle quad, III-2)\n");
  std::printf("  -> rasterizer (top-left fill rule, exactly-once coverage) "
              "-> fragment shader (the kernel)\n");
  std::printf("  -> framebuffer pack (Eq. 2) -> ReadPixels (challenge "
              "III-7)\n");

  std::printf("\nexecution engines (same sweep, wall clock):\n");
  std::printf("  batched VM (default):  %8.3f s  [coverage %s]\n",
              batched.seconds, batched.ok ? "ok" : "FAILURE");
  std::printf("  one-lane bytecode VM:  %8.3f s  [coverage %s]\n", vm.seconds,
              vm.ok ? "ok" : "FAILURE");
  std::printf("  tree-walking oracle:   %8.3f s  [coverage %s]\n",
              tree.seconds, tree.ok ? "ok" : "FAILURE");
  std::printf("  one-lane VM speedup vs oracle: %.2fx\n",
              tree.seconds / vm.seconds);
  std::printf("  batched speedup vs 1-lane VM:  %.2fx\n", batched_speedup);

  // --- vector-heavy lighting scene: the SoA-kernel showcase ---------------
  const bool vh_identical = vh_batched.fb_hash == vh_scalar.fb_hash;
  std::printf("\nvector-heavy scene (%dx%d vec3 lighting, "
              "normalize/dot/pow per fragment):\n",
              vh_size, vh_size);
  std::printf("  batched VM:  %8.3f s\n", vh_batched.seconds);
  std::printf("  1-lane VM:   %8.3f s  (batched speedup %.2fx, "
              "framebuffers %s)\n",
              vh_scalar.seconds, vh_scalar.seconds / vh_batched.seconds,
              vh_identical ? "identical" : "MISMATCH");

  bench::JsonBenchWriter json("fig1_pipeline");
  json.Add("vm_sweep", vm.seconds, "s");
  json.Add("tree_sweep", tree.seconds, "s");
  json.Add("batched_sweep", batched.seconds, "s");
  json.Add("batched_speedup_vs_scalar", batched_speedup, "x");
  json.Add("coverage_ok",
           batched.ok && vm.ok && tree.ok ? 1.0 : 0.0, "bool");
  for (const SweepRow& r : batched.rows) {
    json.Add("fragments_n" + std::to_string(r.elements),
             static_cast<double>(r.fragments), "count");
  }
  json.Add("vector_heavy_batched", vh_batched.seconds, "s");
  json.Add("vector_heavy_scalar", vh_scalar.seconds, "s");
  json.Add("vector_heavy_speedup", vh_scalar.seconds / vh_batched.seconds,
           "x");
  json.Add("vector_heavy_fb_hash", vh_batched.fb_hash, "hash");
  json.Add("vector_heavy_identical",
           vh_identical && vh_batched.ok && vh_scalar.ok ? 1.0 : 0.0,
           "bool");
  if (!json.Write()) {
    std::fprintf(stderr, "warning: could not write BENCH_fig1_pipeline.json\n");
  }

  // --- thread-scaling sweep over the tiled rasterizer's worker pool ---
  // Every thread count must produce byte-identical output (asserted by the
  // coverage/addressing validation inside RunSweep); only wall clock may
  // change. PR 1's recorded single-thread VM baseline was 0.248 s.
  constexpr double kPr1VmBaseline = 0.248;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf(
      "\ntiled shading worker scaling (same sweep, batched VM engine):\n");
  bench::JsonBenchWriter scaling("threads_scaling");
  scaling.Add("hardware_concurrency", hw, "threads");
  scaling.Add("pr1_vm_baseline", kPr1VmBaseline, "s");
  bool scaling_ok = true;
  double t1 = 0.0;
  std::vector<int> thread_counts{1, 2};
  if (!quick) {
    thread_counts.push_back(4);
    // hw may be 0 (unknown, per the standard) — only a real count beyond
    // the fixed sweep adds a datapoint.
    if (hw > 4) thread_counts.push_back(hw);
  }
  for (const int threads : thread_counts) {
    const SweepResult r =
        RunSweep(gles2::ExecEngine::kBatchedVm, threads, quick);
    scaling_ok = scaling_ok && r.ok;
    if (threads == 1) t1 = r.seconds;
    std::printf("  %2d thread(s): %8.3f s  (%.2fx vs 1-thread, %.2fx vs "
                "PR 1 baseline)  [coverage %s]\n",
                threads, r.seconds, t1 / r.seconds,
                kPr1VmBaseline / r.seconds, r.ok ? "ok" : "FAILURE");
    char name[32];
    std::snprintf(name, sizeof name, "vm_sweep_t%d", threads);
    scaling.Add(name, r.seconds, "s");
    if (threads == 4) {
      scaling.Add("t4_speedup_vs_pr1_baseline", kPr1VmBaseline / r.seconds,
                  "x");
    }
  }
  scaling.Add("coverage_ok", scaling_ok ? 1.0 : 0.0, "bool");
  if (!scaling.Write()) {
    std::fprintf(stderr,
                 "warning: could not write BENCH_threads_scaling.json\n");
  }

  const bool all_ok = batched.ok && vm.ok && tree.ok && scaling_ok &&
                      vh_identical && vh_batched.ok && vh_scalar.ok;
  std::printf("\nresult: %s\n", all_ok ? "every size maps 1:1" : "FAILURE");
  return all_ok ? 0 : 1;
}
