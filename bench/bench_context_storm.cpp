// Context-storm benchmark: hundreds of independent GL contexts, each
// issuing small retinted, repositioned draws round-robin. The draw-storm
// bench prices the per-draw tax inside ONE context; a GPGPU service at scale
// instead multiplexes many small clients, so the cost under test here is
// per-context draw overhead with hundreds of contexts live at once. CI's
// check_bench.py gate compares the deterministic metrics (combined
// framebuffer hash, ALU ops per draw, error bool) bit-exactly against the
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
#include "gles2/context.h"

namespace {

using namespace mgpu;
using namespace mgpu::gles2;

constexpr int kTargetSize = 64;  // tiny per-client target: per-draw
                                 // overhead, not shading, dominates

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
// deterministic per-client RNG stream, so every run issues a bit-identical
// call sequence.
struct Client {
  std::unique_ptr<gles2::Context> ctx;
  GLint u_offset = -1;
  GLint u_tint = -1;
  Rng rng{0};
};

// Runs the storm: `contexts` clients, `rounds` rounds; each round every
// client issues one retinted, repositioned draw. Timed region = the rounds.
StormResult RunStorm(int contexts, int rounds) {
  std::vector<Client> clients(static_cast<std::size_t>(contexts));
  for (int i = 0; i < contexts; ++i) {
    gles2::ContextConfig cfg;
    cfg.width = kTargetSize;
    cfg.height = kTargetSize;
    cfg.has_depth = false;
    cfg.shader_threads = 1;
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
    }
  }
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
      "=== Context storm: %d contexts x %d rounds (%d draws) on "
      "%dx%d targets ===\n\n",
      contexts, rounds, draws, kTargetSize, kTargetSize);

  // Min over identical runs, as in the other benches: the storm is short
  // enough that one scheduler preemption skews a run by more than the CI
  // gate's thresholds. The deterministic metrics are identical across runs.
  constexpr int kReps = 2;
  StormResult best = RunStorm(contexts, rounds);
  for (int r = 1; r < kReps; ++r) {
    const StormResult again = RunStorm(contexts, rounds);
    if (again.seconds < best.seconds) best = again;
  }
  std::printf("  storm:          %8.3f s  (%8.0f draws/s, best of %d)\n",
              best.seconds, draws / best.seconds, kReps);
  std::printf("  alu ops/draw:   %.2f, combined fb hash %08x\n",
              static_cast<double>(best.alu_ops) / draws, best.fb_hash);

  bench::JsonBenchWriter json("context_storm");
  json.Add("contexts", contexts, "count");
  json.Add("draws", draws, "count");
  json.Add("inline_storm", best.seconds, "s");
  json.Add("fb_hash", best.fb_hash, "hash");
  json.Add("alu_ops_per_draw", static_cast<double>(best.alu_ops) / draws,
           "ops");
  json.Add("draw_errors_ok", best.draw_ok ? 1.0 : 0.0, "bool");
  if (!json.Write()) {
    std::fprintf(stderr,
                 "warning: could not write BENCH_context_storm.json\n");
  }

  std::printf("\nresult: %s\n", best.draw_ok ? "ok" : "FAILURE");
  return best.draw_ok ? 0 : 1;
}
