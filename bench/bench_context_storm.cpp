// Context-storm benchmark: hundreds of independent GL contexts each queuing
// draws through the shared command-stream device (ISSUE 10). The draw-storm
// bench prices the per-draw tax inside ONE context; a GPGPU service at scale
// instead multiplexes many small clients, so the cost under test here is the
// submission layer itself — recording draws into command lists, handing them
// to the single device thread over the fair FIFO, and joining at Finish().
// The async leg must stay byte-identical to the same storm executed inline
// (MGPU_ASYNC=0 semantics via ContextConfig::async_submit), and CI's
// check_bench.py gate compares the deterministic metrics (combined
// framebuffer hash, ALU ops, identity bools) bit-exactly against the
// committed baseline.
//
// Usage: bench_context_storm [--quick] [--contexts N] [--rounds N]
//   --quick: CI smoke size (fewer rounds), same metric names.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "gles2/cmdstream.h"
#include "gles2/context.h"

namespace {

using namespace mgpu;
using namespace mgpu::gles2;

constexpr int kTargetSize = 64;  // tiny per-client target: the submission
                                 // layer, not shading, dominates

constexpr char kVs[] = R"(
attribute vec2 a_pos;
uniform vec2 u_offset;
varying vec2 v_uv;
void main() {
  v_uv = a_pos * 2.0 + 0.5;
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

// One small triangle (~1/4 of the 64px target) repositioned per draw through
// u_offset.
constexpr float kTri[6] = {0.0f, 0.0f, 0.45f, 0.0f, 0.0f, 0.45f};

struct StormResult {
  double seconds = 0.0;
  std::uint64_t alu_ops = 0;
  std::uint32_t fb_hash = 0;  // FNV over every context's framebuffer hash
  std::uint64_t lists_executed = 0;
  bool draw_ok = true;
};

std::uint32_t Fnv1a(const std::uint8_t* bytes, std::size_t n,
                    std::uint32_t h = 2166136261u) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
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

// One client: a context plus its pre-resolved uniform locations and a
// deterministic per-client RNG stream, so the async and inline legs issue
// bit-identical command sequences.
struct Client {
  std::unique_ptr<gles2::Context> ctx;
  GLint u_offset = -1;
  GLint u_tint = -1;
  Rng rng{0};
};

// Runs the storm: `contexts` clients, `rounds` rounds; each round every
// client records one retinted, repositioned draw and flushes, so the device
// FIFO interleaves hundreds of lists per round. Timed region = the
// record/submit rounds plus the Finish() joins — under async the draw loop
// alone only measures enqueue, so the joins must sit inside the clock.
StormResult RunStorm(int contexts, int rounds, int async_submit) {
  std::vector<Client> clients(static_cast<std::size_t>(contexts));
  for (int i = 0; i < contexts; ++i) {
    gles2::ContextConfig cfg;
    cfg.width = kTargetSize;
    cfg.height = kTargetSize;
    cfg.has_depth = false;
    cfg.shader_threads = 1;
    cfg.async_submit = async_submit;
    Client& c = clients[static_cast<std::size_t>(i)];
    c.ctx = std::make_unique<gles2::Context>(cfg);
    const GLuint prog = BuildProgram(*c.ctx);
    c.ctx->UseProgram(prog);
    const GLint a_pos = c.ctx->GetAttribLocation(prog, "a_pos");
    c.u_offset = c.ctx->GetUniformLocation(prog, "u_offset");
    c.u_tint = c.ctx->GetUniformLocation(prog, "u_tint");
    c.ctx->EnableVertexAttribArray(static_cast<GLuint>(a_pos));
    c.ctx->VertexAttribPointer(static_cast<GLuint>(a_pos), 2, GL_FLOAT,
                               GL_FALSE, 0, kTri);
    c.ctx->ClearColor(0.0f, 0.0f, 0.0f, 1.0f);
    c.ctx->Clear(GL_COLOR_BUFFER_BIT);
    c.ctx->Finish();  // setup executed before the clock starts
    c.rng = Rng(1000u + static_cast<std::uint32_t>(i));
  }

  StormResult r;
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (Client& c : clients) {
      c.ctx->Uniform2f(c.u_offset, c.rng.NextFloat(-0.95f, 0.5f),
                       c.rng.NextFloat(-0.95f, 0.5f));
      c.ctx->Uniform4f(c.u_tint, c.rng.NextFloat01(), c.rng.NextFloat01(),
                       c.rng.NextFloat01(), 1.0f);
      c.ctx->DrawArrays(GL_TRIANGLES, 0, 3);
      c.ctx->Flush();
    }
  }
  for (Client& c : clients) c.ctx->Finish();
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<std::uint8_t> fb(
      static_cast<std::size_t>(kTargetSize) * kTargetSize * 4);
  for (Client& c : clients) {
    r.draw_ok =
        r.draw_ok && c.ctx->GetError() == static_cast<GLenum>(GL_NO_ERROR);
    r.alu_ops += c.ctx->alu().counts().alu;
    c.ctx->ReadPixels(0, 0, kTargetSize, kTargetSize, GL_RGBA,
                      GL_UNSIGNED_BYTE, fb.data());
    const std::uint32_t h = Fnv1a(fb.data(), fb.size());
    r.fb_hash = Fnv1a(reinterpret_cast<const std::uint8_t*>(&h), sizeof(h),
                      r.fb_hash == 0 ? 2166136261u : r.fb_hash);
    r.lists_executed += c.ctx->command_stream_stats().lists_executed;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  int contexts = 384;
  int rounds = 24;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      contexts = 256;
      rounds = 8;
    } else if (std::strcmp(argv[i], "--contexts") == 0 && i + 1 < argc) {
      contexts = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::atoi(argv[++i]);
    }
  }
  const int draws = contexts * rounds;

  std::printf(
      "=== Context storm: %d contexts x %d rounds (%d queued draws) on "
      "%dx%d targets ===\n\n",
      contexts, rounds, draws, kTargetSize, kTargetSize);

  // Min over identical runs, as in the other benches: the storm is short
  // enough that one scheduler preemption skews a run by more than the CI
  // gate's thresholds. The deterministic metrics are identical across runs.
  constexpr int kReps = 2;
  auto best_of = [&](int async_submit) {
    StormResult best = RunStorm(contexts, rounds, async_submit);
    for (int r = 1; r < kReps; ++r) {
      const StormResult again = RunStorm(contexts, rounds, async_submit);
      if (again.seconds < best.seconds) best = again;
    }
    return best;
  };

  const StormResult async = best_of(/*async_submit=*/1);
  std::printf("  async submit:   %8.3f s  (%8.0f draws/s, best of %d)\n",
              async.seconds, draws / async.seconds, kReps);
  std::printf("  device lists:   %llu executed across %d contexts\n",
              static_cast<unsigned long long>(async.lists_executed), contexts);

  const StormResult inline_mode = best_of(/*async_submit=*/0);
  std::printf("  inline submit:  %8.3f s  (%8.0f draws/s)\n",
              inline_mode.seconds, draws / inline_mode.seconds);

  // The whole point of the command stream: deferred execution through the
  // device thread must be invisible — same framebuffer bytes in every one of
  // the hundreds of contexts, same total op counts, no errors.
  const bool identical = async.fb_hash == inline_mode.fb_hash &&
                         async.alu_ops == inline_mode.alu_ops;
  std::printf("  async vs inline: %s (hash %08x vs %08x, alu %llu vs %llu)\n",
              identical ? "identical" : "MISMATCH", async.fb_hash,
              inline_mode.fb_hash,
              static_cast<unsigned long long>(async.alu_ops),
              static_cast<unsigned long long>(inline_mode.alu_ops));
  std::printf("  submit overhead: %.2fx vs inline\n",
              async.seconds / inline_mode.seconds);

  const bool ok = identical && async.draw_ok && inline_mode.draw_ok &&
                  async.lists_executed > 0;

  bench::JsonBenchWriter json("context_storm");
  json.Add("contexts", contexts, "count");
  json.Add("draws", draws, "count");
  json.Add("async_storm", async.seconds, "s");
  json.Add("async_draws_per_sec", draws / async.seconds, "/s");
  json.Add("inline_storm", inline_mode.seconds, "s");
  json.Add("async_overhead_vs_inline", async.seconds / inline_mode.seconds,
           "x_lower");
  json.Add("async_inline_identical", identical ? 1.0 : 0.0, "bool");
  json.Add("fb_hash", async.fb_hash, "hash");
  json.Add("alu_ops_per_draw", static_cast<double>(async.alu_ops) / draws,
           "ops");
  json.Add("lists_executed", static_cast<double>(async.lists_executed),
           "count");
  json.Add("draw_errors_ok", async.draw_ok && inline_mode.draw_ok ? 1.0 : 0.0,
           "bool");
  if (!json.Write()) {
    std::fprintf(stderr,
                 "warning: could not write BENCH_context_storm.json\n");
  }

  std::printf("\nresult: %s\n", ok ? "ok" : "FAILURE");
  return ok ? 0 : 1;
}
