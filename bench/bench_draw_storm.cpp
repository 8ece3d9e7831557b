// Draw-storm benchmark: many *tiny* draws against a large render target.
// The Fig. 1 sweeps measure one big dispatch, where per-draw setup is noise;
// a GPGPU service at scale sees the opposite shape — thousands of small
// draws per second — and there the fixed per-draw tax dominates: tile-grid
// construction, worker-state setup, uniform mirroring. This benchmark is
// the regression guard for that tax (ISSUE 3): it times a storm of small
// uniform-repositioned triangles on the serial path and on the worker pool,
// and emits BENCH_draw_storm.json with both wall-clock and *deterministic*
// metrics (ALU op count, framebuffer checksum, serial/parallel equality)
// that CI's check_bench.py gate compares bit-exactly against the committed
// baseline.
//
// Usage: bench_draw_storm [--quick] [--draws N]
//   --quick: CI smoke size (fewer draws), same metric names.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "gles2/context.h"

namespace {

using namespace mgpu;
using namespace mgpu::gles2;

constexpr int kTargetSize = 2048;  // 32x32 tile grid: per-draw grid work is
                                   // visible, per-draw shading is tiny

constexpr char kVs[] = R"(
attribute vec2 a_pos;
uniform vec2 u_offset;
varying vec2 v_uv;
void main() {
  v_uv = a_pos * 40.0 + 0.5;
  gl_Position = vec4(a_pos + u_offset, 0.0, 1.0);
}
)";

constexpr char kFs[] = R"(
precision highp float;
varying vec2 v_uv;
uniform vec4 u_tint;
void main() {
  gl_FragColor = vec4(v_uv.x * u_tint.x, v_uv.y * u_tint.y, u_tint.z, 1.0);
}
)";

// One small triangle (~6 px legs on a 2048 target) repositioned per draw
// through u_offset.
constexpr float kTri[6] = {0.0f, 0.0f, 0.006f, 0.0f, 0.0f, 0.006f};

struct StormResult {
  double seconds = 0.0;
  std::uint64_t alu_ops = 0;
  std::uint32_t fb_hash = 0;
  bool draw_ok = true;
};

std::uint32_t Fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t h = 2166136261u;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

GLuint BuildProgram(gles2::Context& ctx) {
  const GLuint vs = ctx.CreateShader(GL_VERTEX_SHADER);
  ctx.ShaderSource(vs, kVs);
  ctx.CompileShader(vs);
  const GLuint fs = ctx.CreateShader(GL_FRAGMENT_SHADER);
  ctx.ShaderSource(fs, kFs);
  ctx.CompileShader(fs);
  const GLuint p = ctx.CreateProgram();
  ctx.AttachShader(p, vs);
  ctx.AttachShader(p, fs);
  ctx.LinkProgram(p);
  GLint ok = GL_FALSE;
  ctx.GetProgramiv(p, GL_LINK_STATUS, &ok);
  if (ok != GL_TRUE) {
    std::fprintf(stderr, "link failed: %s\n",
                 ctx.GetProgramInfoLog(p).c_str());
  }
  return p;
}

// Runs the storm: `draws` tiny triangles at deterministic pseudo-random
// positions, one GL draw call each. Timed region = the draw loop only (the
// per-draw setup tax under test), not context/program setup or readback.
StormResult RunStorm(int draws, int shader_threads,
                     gles2::ExecEngine engine = gles2::ExecEngine::kBatchedVm,
                     std::uint64_t draw_budget = 0) {
  gles2::ContextConfig cfg;
  cfg.width = kTargetSize;
  cfg.height = kTargetSize;
  cfg.has_depth = false;
  cfg.shader_threads = shader_threads;
  cfg.exec_engine = engine;
  cfg.draw_budget = draw_budget;
  gles2::Context ctx(cfg);

  const GLuint prog = BuildProgram(ctx);
  ctx.UseProgram(prog);
  const GLint a_pos = ctx.GetAttribLocation(prog, "a_pos");
  const GLint u_offset = ctx.GetUniformLocation(prog, "u_offset");
  const GLint u_tint = ctx.GetUniformLocation(prog, "u_tint");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(a_pos));
  ctx.VertexAttribPointer(static_cast<GLuint>(a_pos), 2, GL_FLOAT, GL_FALSE,
                          0, kTri);
  ctx.ClearColor(0.0f, 0.0f, 0.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);

  StormResult r;
  Rng rng(42);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < draws; ++i) {
    // Every draw moves the triangle and retints it, so cached shading state
    // must pick up fresh uniforms each draw to stay correct.
    ctx.Uniform2f(u_offset, rng.NextFloat(-0.98f, 0.95f),
                  rng.NextFloat(-0.98f, 0.95f));
    ctx.Uniform4f(u_tint, rng.NextFloat01(), rng.NextFloat01(),
                  rng.NextFloat01(), 1.0f);
    ctx.DrawArrays(GL_TRIANGLES, 0, 3);
  }
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.draw_ok = ctx.GetError() == static_cast<GLenum>(GL_NO_ERROR);
  r.alu_ops = ctx.alu().counts().alu;

  std::vector<std::uint8_t> fb(
      static_cast<std::size_t>(kTargetSize) * kTargetSize * 4);
  ctx.ReadPixels(0, 0, kTargetSize, kTargetSize, GL_RGBA, GL_UNSIGNED_BYTE,
                 fb.data());
  r.fb_hash = Fnv1a(fb);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  int draws = 30000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      draws = 10000;
    } else if (std::strcmp(argv[i], "--draws") == 0 && i + 1 < argc) {
      draws = std::atoi(argv[++i]);
    }
  }

  std::printf("=== Draw storm: %d tiny draws on a %dx%d target ===\n\n",
              draws, kTargetSize, kTargetSize);

  // Timings are the min over 3 identical runs: the storm is short enough
  // that a single scheduler preemption skews one run by far more than the
  // CI gate's thresholds, and the min is the standard de-noiser. The
  // deterministic metrics are identical across runs by construction.
  constexpr int kReps = 3;
  auto best_of = [&](int threads,
                     gles2::ExecEngine engine = gles2::ExecEngine::kBatchedVm,
                     std::uint64_t draw_budget = 0) {
    StormResult best = RunStorm(draws, threads, engine, draw_budget);
    for (int r = 1; r < kReps; ++r) {
      const StormResult again =
          RunStorm(draws, threads, engine, draw_budget);
      if (again.seconds < best.seconds) best = again;
    }
    return best;
  };

  const StormResult serial = best_of(/*shader_threads=*/1);
  std::printf("  serial (1 thread):   %8.3f s  (%8.0f draws/s, best of %d)\n",
              serial.seconds, draws / serial.seconds, kReps);

  const StormResult pooled = best_of(/*shader_threads=*/2);
  std::printf("  pooled (2 threads):  %8.3f s  (%8.0f draws/s, best of %d)\n",
              pooled.seconds, draws / pooled.seconds, kReps);

  // Same storm on the one-lane VM: the per-draw dispatch tax the
  // lane-batched engine amortizes, measured on identical hardware in the same process.
  const StormResult scalar =
      best_of(/*shader_threads=*/1, gles2::ExecEngine::kBytecodeVm);
  std::printf("  1-lane VM (1 thread):%8.3f s  (%8.0f draws/s, batched "
              "speedup %.2fx)\n",
              scalar.seconds, draws / scalar.seconds,
              scalar.seconds / serial.seconds);

  // Determinism invariants: the worker pool (and any per-draw state caching
  // behind it) must be invisible — same framebuffer bytes, same op counts —
  // and the batched engine must be byte-identical to the one-lane VM.
  const bool identical = serial.fb_hash == pooled.fb_hash &&
                         serial.alu_ops == pooled.alu_ops;
  std::printf("  serial vs pooled:    %s (hash %08x vs %08x, alu %llu vs "
              "%llu)\n",
              identical ? "identical" : "MISMATCH", serial.fb_hash,
              pooled.fb_hash, static_cast<unsigned long long>(serial.alu_ops),
              static_cast<unsigned long long>(pooled.alu_ops));
  const bool batched_identical = serial.fb_hash == scalar.fb_hash &&
                                 serial.alu_ops == scalar.alu_ops;
  std::printf("  batched vs 1-lane:   %s (hash %08x vs %08x, alu %llu vs "
              "%llu)\n",
              batched_identical ? "identical" : "MISMATCH", serial.fb_hash,
              scalar.fb_hash, static_cast<unsigned long long>(serial.alu_ops),
              static_cast<unsigned long long>(scalar.alu_ops));

  // Watchdog A/B: the robustness model keeps its transactional machinery
  // (per-pixel undo journaling) on every run, so the serial leg above IS
  // the watchdog-compiled-in-but-disabled number the CI gate tracks. This
  // leg additionally *enables* the per-draw ALU budget (set far above any
  // storm draw, so it never trips) to price the armed per-fragment budget
  // checks; it must stay byte-identical to the disabled run.
  const StormResult watchdog =
      best_of(/*shader_threads=*/1, gles2::ExecEngine::kBatchedVm,
              /*draw_budget=*/~0ull / 2);
  const bool watchdog_identical = serial.fb_hash == watchdog.fb_hash &&
                                  serial.alu_ops == watchdog.alu_ops;
  std::printf("  watchdog armed:      %s (%8.3f s, overhead %.2fx vs "
              "disabled)\n",
              watchdog_identical ? "identical" : "MISMATCH", watchdog.seconds,
              watchdog.seconds / serial.seconds);

  const bool ok = identical && batched_identical && watchdog_identical &&
                  serial.draw_ok && pooled.draw_ok && scalar.draw_ok &&
                  watchdog.draw_ok;

  bench::JsonBenchWriter json("draw_storm");
  json.Add("draws", draws, "count");
  json.Add("serial_storm", serial.seconds, "s");
  json.Add("serial_draws_per_sec", draws / serial.seconds, "/s");
  json.Add("pooled_storm", pooled.seconds, "s");
  json.Add("scalar_vm_storm", scalar.seconds, "s");
  json.Add("batched_speedup", scalar.seconds / serial.seconds, "x");
  json.Add("watchdog_storm", watchdog.seconds, "s");
  json.Add("watchdog_overhead", watchdog.seconds / serial.seconds,
           "x_lower");
  json.Add("watchdog_identical", watchdog_identical ? 1.0 : 0.0, "bool");
  json.Add("alu_ops_per_draw",
           static_cast<double>(serial.alu_ops) / draws, "ops");
  json.Add("fb_hash", serial.fb_hash, "hash");
  json.Add("serial_pooled_identical", identical ? 1.0 : 0.0, "bool");
  json.Add("batched_scalar_identical", batched_identical ? 1.0 : 0.0, "bool");
  json.Add("draw_errors_ok",
           serial.draw_ok && pooled.draw_ok && scalar.draw_ok ? 1.0 : 0.0,
           "bool");
  if (!json.Write()) {
    std::fprintf(stderr, "warning: could not write BENCH_draw_storm.json\n");
  }

  std::printf("\nresult: %s\n", ok ? "ok" : "FAILURE");
  return ok ? 0 : 1;
}
