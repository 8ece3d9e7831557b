// Draw-state invariants. A context keeps its shading workers (each a
// counter shard copied from the context's ALU model, a TMU-cache model,
// a batch, a TMU log and an undo journal) for its lifetime and shares
// them across programs; a program keeps its vertex views and one
// fragment-engine clone per worker across draws, refreshing only
// uniforms/globals per draw, for every engine and thread count. All of it
// must be *invisible*: a warm draw stream produces the same framebuffer
// bytes and the same ALU/SFU/TMU operation counts as cold draws (state
// rebuilt by a relink) and as a serial (one-worker) context, on every
// engine, and nothing a draw leaves in a worker (journal, TMU log, batch
// tail, error) reaches the next program's draw. The engine and the worker
// count are fixed per context, so each configuration gets its own
// context.
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gles2/context.h"
#include "gles2_test_util.h"
#include "glsl/alu.h"
#include "gtest/gtest.h"
#include "vc4/profiles.h"

namespace mgpu::gles2 {
namespace {

constexpr int kW = 256;  // 4x4 tile grid
constexpr int kH = 256;

constexpr char kVs[] = R"(
attribute vec2 a_pos;
uniform vec2 u_offset;
uniform float u_scale;
varying vec2 v_uv;
void main() {
  v_uv = a_pos * 4.0 + 0.5;
  gl_Position = vec4(a_pos * u_scale + u_offset, 0.0, 1.0);
}
)";

constexpr char kTexturedFs[] = R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_tex;
uniform vec4 u_tint;
void main() {
  gl_FragColor = texture2D(u_tex, v_uv) * u_tint;
}
)";

constexpr char kPlainFs[] = R"(
precision highp float;
varying vec2 v_uv;
uniform vec4 u_tint;
void main() {
  gl_FragColor = vec4(v_uv.x * u_tint.x, v_uv.y * u_tint.y, u_tint.z, 1.0);
}
)";

constexpr std::array<float, 6> kTri = {0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 1.0f};

struct DrawSpec {
  float scale;  // triangle size: 0.05 ~ one tile, 1.8 ~ every tile
  float ox, oy;
  std::array<float, 4> tint;
};

// A mix of tiny draws (single tile: one worker, shaded on the calling
// thread) and spanning draws (pooled shading; every worker used, including
// clones left stale by smaller draws before them). Four draws are tiny and
// four span several tiles. Whatever the draw shape, a warm context misses
// on a program's first draw and hits on every draw after.
constexpr std::size_t kSpanningDraws = 4;
constexpr std::size_t kTinyDraws = 4;
const std::vector<DrawSpec>& Corpus() {
  static const std::vector<DrawSpec> specs = {
      {0.05f, -0.9f, -0.9f, {1.0f, 0.2f, 0.1f, 1.0f}},
      {0.05f, 0.4f, 0.3f, {0.3f, 0.9f, 0.5f, 1.0f}},
      {1.8f, -0.9f, -0.9f, {0.2f, 0.4f, 0.8f, 0.5f}},
      {0.08f, -0.2f, 0.7f, {0.9f, 0.9f, 0.1f, 1.0f}},
      {1.2f, -0.5f, -0.6f, {0.1f, 0.7f, 0.6f, 0.8f}},
      {0.9f, -0.2f, -0.9f, {0.8f, 0.3f, 0.2f, 0.7f}},
      {0.05f, 0.8f, -0.8f, {0.6f, 0.1f, 0.9f, 1.0f}},
      {1.5f, -0.7f, -0.4f, {0.4f, 0.6f, 0.3f, 0.9f}},
  };
  return specs;
}

struct RunResult {
  std::vector<std::uint8_t> fb;
  glsl::OpCounts counts;
};

void ExpectSameCounts(const glsl::OpCounts& a, const glsl::OpCounts& b,
                      const char* what) {
  EXPECT_EQ(a.alu, b.alu) << what;
  EXPECT_EQ(a.sfu, b.sfu) << what;
  EXPECT_EQ(a.sfu_trans, b.sfu_trans) << what;
  EXPECT_EQ(a.tmu, b.tmu) << what;
  EXPECT_EQ(a.tmu_miss, b.tmu_miss) << what;
}

glsl::OpCounts Delta(const glsl::OpCounts& after,
                     const glsl::OpCounts& before) {
  glsl::OpCounts d;
  d.alu = after.alu - before.alu;
  d.sfu = after.sfu - before.sfu;
  d.sfu_trans = after.sfu_trans - before.sfu_trans;
  d.tmu = after.tmu - before.tmu;
  d.tmu_miss = after.tmu_miss - before.tmu_miss;
  return d;
}

class StormRig {
 public:
  // `threads`: shader thread count. `textured`: sample a texture in the
  // fragment shader so TMU / TMU-miss counts are exercised too.
  StormRig(int threads, bool textured, glsl::AluModel* alu = nullptr,
           ExecEngine engine = ExecEngine::kBatchedVm)
      : ctx_(MakeConfig(threads, engine), alu) {
    program_ = testutil::BuildProgramOrDie(
        ctx_, kVs, textured ? kTexturedFs : kPlainFs);
    ctx_.UseProgram(program_);
    if (textured) {
      GLuint tex = 0;
      ctx_.GenTextures(1, &tex);
      ctx_.ActiveTexture(GL_TEXTURE0);
      ctx_.BindTexture(GL_TEXTURE_2D, tex);
      std::vector<std::uint8_t> texels;
      for (int i = 0; i < 16 * 16; ++i) {
        texels.push_back(static_cast<std::uint8_t>(i * 7));
        texels.push_back(static_cast<std::uint8_t>(255 - i));
        texels.push_back(static_cast<std::uint8_t>(i * 3));
        texels.push_back(255);
      }
      ctx_.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 16, 16, 0, GL_RGBA,
                      GL_UNSIGNED_BYTE, texels.data());
      ctx_.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
      ctx_.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
      ctx_.Uniform1i(ctx_.GetUniformLocation(program_, "u_tex"), 0);
    }
    const GLint a_pos = ctx_.GetAttribLocation(program_, "a_pos");
    ctx_.EnableVertexAttribArray(static_cast<GLuint>(a_pos));
    ctx_.VertexAttribPointer(static_cast<GLuint>(a_pos), 2, GL_FLOAT,
                             GL_FALSE, 0, kTri.data());
    ctx_.ClearColor(0.0f, 0.0f, 0.0f, 1.0f);
    ctx_.Clear(GL_COLOR_BUFFER_BIT);
  }

  void Draw(const DrawSpec& d) {
    ctx_.Uniform2f(ctx_.GetUniformLocation(program_, "u_offset"), d.ox, d.oy);
    ctx_.Uniform1f(ctx_.GetUniformLocation(program_, "u_scale"), d.scale);
    ctx_.Uniform4f(ctx_.GetUniformLocation(program_, "u_tint"), d.tint[0],
                   d.tint[1], d.tint[2], d.tint[3]);
    ctx_.DrawArrays(GL_TRIANGLES, 0, 3);
    ASSERT_EQ(ctx_.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  }

  // Relinks the program from the same shaders, which drops its clones:
  // the next draw rebuilds its program state from scratch. The
  // shaders have no global initializers, so the link charges no ops, and
  // the sampler uniform's default (unit 0) is the value it was set to.
  void Relink() {
    ctx_.LinkProgram(program_);
    ASSERT_EQ(ctx_.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  }

  [[nodiscard]] RunResult Finish() {
    RunResult r;
    r.fb = testutil::ReadRgba(ctx_, kW, kH);
    r.counts = ctx_.alu().counts();
    return r;
  }

  [[nodiscard]] Context& ctx() { return ctx_; }
  [[nodiscard]] GLuint program() const { return program_; }

 private:
  static ContextConfig MakeConfig(int threads, ExecEngine engine) {
    ContextConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.shader_threads = threads;
    cfg.exec_engine = engine;
    return cfg;
  }

  Context ctx_;
  GLuint program_ = 0;
};

// ---------------------------------------------------------------------------
// Differential corpus: warm cache == cold state == serial reference
// ---------------------------------------------------------------------------

TEST(ShadeWorkerTest, WarmDrawsAreByteAndCountIdenticalToColdDraws) {
  StormRig warm(/*threads=*/2, /*textured=*/true);
  StormRig cold(/*threads=*/2, /*textured=*/true);
  StormRig serial(/*threads=*/1, /*textured=*/true);
  for (const DrawSpec& d : Corpus()) {
    warm.Draw(d);
    // A relink before every draw drops the program's clones: every cold
    // draw rebuilds its program state from scratch.
    cold.Relink();
    cold.Draw(d);
    serial.Draw(d);
  }
  // The warm context really did reuse state: a miss on the first draw
  // and a hit on every draw after. The cold context never hit (every
  // relink drops the program's draw state).
  EXPECT_EQ(warm.ctx().shade_state_cache().hits(),
            kSpanningDraws + kTinyDraws - 1);
  EXPECT_EQ(warm.ctx().shade_state_cache().misses(), 1u);
  EXPECT_EQ(cold.ctx().shade_state_cache().hits(), 0u);
  EXPECT_EQ(cold.ctx().shade_state_cache().misses(),
            kSpanningDraws + kTinyDraws);

  const RunResult w = warm.Finish();
  const RunResult c = cold.Finish();
  const RunResult s = serial.Finish();
  EXPECT_EQ(w.fb, c.fb) << "warm vs cold framebuffer";
  EXPECT_EQ(w.fb, s.fb) << "warm vs serial framebuffer";
  ExpectSameCounts(w.counts, c.counts, "warm vs cold counts");
  ExpectSameCounts(w.counts, s.counts, "warm vs serial counts");
}

TEST(ShadeWorkerTest, WarmDrawsMatchSerialUnderVc4Alu) {
  for (const ExecEngine engine : {ExecEngine::kBatchedVm,
                                  ExecEngine::kBytecodeVm,
                                  ExecEngine::kTreeWalk}) {
    SCOPED_TRACE(static_cast<int>(engine));
    glsl::AluModel warm_alu = vc4::ProfileAlu(vc4::VideoCoreIV());
    glsl::AluModel serial_alu = vc4::ProfileAlu(vc4::VideoCoreIV());
    StormRig warm(/*threads=*/3, /*textured=*/true, &warm_alu, engine);
    StormRig serial(/*threads=*/1, /*textured=*/true, &serial_alu, engine);
    for (const DrawSpec& d : Corpus()) {
      warm.Draw(d);
      serial.Draw(d);
    }
    const RunResult w = warm.Finish();
    const RunResult s = serial.Finish();
    EXPECT_EQ(w.fb, s.fb);
    ExpectSameCounts(w.counts, s.counts, "vc4 warm vs serial");
  }
}

// ---------------------------------------------------------------------------
// Relink
// ---------------------------------------------------------------------------

TEST(ShadeWorkerTest, RelinkUsesNewBytecode) {
  StormRig warm(/*threads=*/2, /*textured=*/false);
  StormRig serial(/*threads=*/1, /*textured=*/false);
  for (const DrawSpec& d : Corpus()) {
    warm.Draw(d);
    serial.Draw(d);
  }
  ASSERT_EQ(warm.ctx().shade_state_cache().misses(), 1u);

  // Relink both programs with a different fragment shader. The old clones
  // ran the old bytecode; the relink must drop them...
  auto relink = [](StormRig& rig) {
    Context& ctx = rig.ctx();
    const GLuint fs = testutil::CompileShaderOrDie(
        ctx, GL_FRAGMENT_SHADER,
        "precision highp float;\n"
        "varying vec2 v_uv;\n"
        "uniform vec4 u_tint;\n"
        "void main() { gl_FragColor = vec4(u_tint.y, v_uv.x * 0.5, "
        "u_tint.x, 1.0); }\n");
    ctx.AttachShader(rig.program(), fs);
    ctx.LinkProgram(rig.program());
    GLint ok = GL_FALSE;
    ctx.GetProgramiv(rig.program(), GL_LINK_STATUS, &ok);
    ASSERT_EQ(ok, GL_TRUE);
    ctx.UseProgram(rig.program());
    const GLint a_pos = ctx.GetAttribLocation(rig.program(), "a_pos");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(a_pos));
    ctx.VertexAttribPointer(static_cast<GLuint>(a_pos), 2, GL_FLOAT,
                            GL_FALSE, 0, kTri.data());
  };
  relink(warm);
  relink(serial);

  // ...so the first post-relink draw builds afresh, and every post-relink
  // draw matches the serial reference bit-for-bit (stale clones would
  // still run the old shader).
  for (const DrawSpec& d : Corpus()) {
    warm.Draw(d);
    serial.Draw(d);
  }
  EXPECT_EQ(warm.ctx().shade_state_cache().misses(), 2u);
  const RunResult w = warm.Finish();
  const RunResult s = serial.Finish();
  EXPECT_EQ(w.fb, s.fb);
  ExpectSameCounts(w.counts, s.counts, "post-relink warm vs serial");
}

// ---------------------------------------------------------------------------
// Workers shared across programs
// ---------------------------------------------------------------------------

constexpr char kTrapFs[] = R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_tex;
uniform vec4 u_tint;
float poison(float x);
void main() {
  vec4 t = texture2D(u_tex, v_uv);
  float v = t.x;
  if (v_uv.x > 1.7) { v = poison(v); }
  gl_FragColor = vec4(v, t.y * u_tint.y, v_uv.y, 1.0);
}
)";

// Heavy enough per fragment that a spanning draw costs far more ALU ops
// than any corpus draw of the plain program, so one budget trips it alone.
constexpr char kHeavyFs[] = R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_tex;
uniform vec4 u_tint;
void main() {
  vec4 acc = vec4(0.0);
  for (int i = 0; i < 48; ++i) {
    acc += texture2D(u_tex, v_uv + float(i) * 0.01) * u_tint;
  }
  gl_FragColor = fract(acc);
}
)";

constexpr std::array<ExecEngine, 3> kEngines = {
    ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk};

// One context with a 16x16 texture bound to unit 0 and any number of
// programs built from kVs and a fragment shader, all sharing the context's
// shading workers.
class SharedRig {
 public:
  SharedRig(ExecEngine engine, int threads, std::uint64_t draw_budget = 0)
      : ctx_(MakeConfig(engine, threads, draw_budget)) {
    GLuint tex = 0;
    ctx_.GenTextures(1, &tex);
    ctx_.ActiveTexture(GL_TEXTURE0);
    ctx_.BindTexture(GL_TEXTURE_2D, tex);
    std::vector<std::uint8_t> texels;
    for (int i = 0; i < 16 * 16; ++i) {
      texels.push_back(static_cast<std::uint8_t>(i * 5));
      texels.push_back(static_cast<std::uint8_t>(255 - i));
      texels.push_back(static_cast<std::uint8_t>(i * 11));
      texels.push_back(255);
    }
    ctx_.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 16, 16, 0, GL_RGBA,
                    GL_UNSIGNED_BYTE, texels.data());
    ctx_.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
    ctx_.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
    ctx_.ClearColor(0.0f, 0.0f, 0.0f, 1.0f);
    ctx_.Clear(GL_COLOR_BUFFER_BIT);
  }

  GLuint Build(const char* fs) {
    return testutil::BuildProgramOrDie(ctx_, kVs, fs);
  }

  // Draws the corpus triangle `d` with `prog`; returns the GL error.
  GLenum Draw(GLuint prog, const DrawSpec& d) {
    ctx_.UseProgram(prog);
    const GLint a_pos = ctx_.GetAttribLocation(prog, "a_pos");
    ctx_.EnableVertexAttribArray(static_cast<GLuint>(a_pos));
    ctx_.VertexAttribPointer(static_cast<GLuint>(a_pos), 2, GL_FLOAT,
                             GL_FALSE, 0, kTri.data());
    ctx_.Uniform2f(ctx_.GetUniformLocation(prog, "u_offset"), d.ox, d.oy);
    ctx_.Uniform1f(ctx_.GetUniformLocation(prog, "u_scale"), d.scale);
    ctx_.Uniform4f(ctx_.GetUniformLocation(prog, "u_tint"), d.tint[0],
                   d.tint[1], d.tint[2], d.tint[3]);
    ctx_.DrawArrays(GL_TRIANGLES, 0, 3);
    return ctx_.GetError();
  }

  [[nodiscard]] RunResult Finish() {
    return {testutil::ReadRgba(ctx_, kW, kH), ctx_.alu().counts()};
  }
  [[nodiscard]] Context& ctx() { return ctx_; }

 private:
  static ContextConfig MakeConfig(ExecEngine engine, int threads,
                                  std::uint64_t draw_budget) {
    ContextConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.exec_engine = engine;
    cfg.shader_threads = threads;
    cfg.draw_budget = draw_budget;
    return cfg;
  }

  Context ctx_;
};

TEST(ShadeWorkerTest, AlternatingProgramsMatchColdDraws) {
  for (const ExecEngine engine : kEngines) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("engine=" + std::to_string(static_cast<int>(engine)) +
                   " threads=" + std::to_string(threads));
      // Programs A and B take turns on every draw, on the same workers.
      // The cold twin relinks before every draw, so each of its draws
      // builds its program's clones afresh.
      SharedRig warm(engine, threads);
      SharedRig cold(engine, threads);
      const std::array<GLuint, 2> warm_progs = {warm.Build(kTexturedFs),
                                                warm.Build(kPlainFs)};
      const std::array<GLuint, 2> cold_progs = {cold.Build(kTexturedFs),
                                                cold.Build(kPlainFs)};
      for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < Corpus().size(); ++i) {
          const std::size_t p = i % 2;
          ASSERT_EQ(warm.Draw(warm_progs[p], Corpus()[i]),
                    static_cast<GLenum>(GL_NO_ERROR));
          cold.ctx().LinkProgram(cold_progs[p]);
          ASSERT_EQ(cold.Draw(cold_progs[p], Corpus()[i]),
                    static_cast<GLenum>(GL_NO_ERROR));
        }
      }
      EXPECT_EQ(warm.ctx().shade_state_cache().misses(), 2u);
      EXPECT_EQ(cold.ctx().shade_state_cache().hits(), 0u);
      const RunResult w = warm.Finish();
      const RunResult c = cold.Finish();
      EXPECT_EQ(w.fb, c.fb) << "alternating vs cold framebuffer";
      ExpectSameCounts(w.counts, c.counts, "alternating vs cold counts");
    }
  }
}

// A draw of program A that a shader trap or the watchdog aborts leaves its
// workers mid-draw: journal entries, a TMU log, a batch tail, an error.
// The next draw, of program B, must equal B's draw on a fresh context.
TEST(ShadeWorkerTest, AbortedDrawLeavesNothingForTheNextProgram) {
  const DrawSpec spanning = Corpus()[2];
  const DrawSpec plain_draw = Corpus()[4];
  for (const ExecEngine engine : kEngines) {
    for (const int threads : {1, 4}) {
      // The watchdog budget sits between what B's draw and A's draw cost.
      std::uint64_t budget = 0;
      {
        SharedRig probe(engine, threads);
        const GLuint heavy = probe.Build(kHeavyFs);
        const GLuint plain = probe.Build(kPlainFs);
        const std::uint64_t c0 = probe.ctx().alu().counts().alu;
        ASSERT_EQ(probe.Draw(plain, plain_draw),
                  static_cast<GLenum>(GL_NO_ERROR));
        const std::uint64_t c1 = probe.ctx().alu().counts().alu;
        ASSERT_EQ(probe.Draw(heavy, spanning),
                  static_cast<GLenum>(GL_NO_ERROR));
        const std::uint64_t c2 = probe.ctx().alu().counts().alu;
        ASSERT_GT(c2 - c1, 4 * (c1 - c0));
        budget = 2 * (c1 - c0);
      }
      for (const bool watchdog : {false, true}) {
        SCOPED_TRACE("engine=" + std::to_string(static_cast<int>(engine)) +
                     " threads=" + std::to_string(threads) +
                     (watchdog ? " watchdog" : " trap"));
        const std::uint64_t cfg_budget = watchdog ? budget : 0;
        SharedRig faulted(engine, threads, cfg_budget);
        SharedRig fresh(engine, threads, cfg_budget);
        const GLuint a = faulted.Build(watchdog ? kHeavyFs : kTrapFs);
        const GLuint b = faulted.Build(kPlainFs);
        const GLuint fresh_b = fresh.Build(kPlainFs);
        const RunResult before = faulted.Finish();
        const GLenum err = faulted.Draw(a, spanning);
        EXPECT_EQ(err, static_cast<GLenum>(watchdog ? GL_OUT_OF_MEMORY
                                                    : GL_INVALID_OPERATION));
        EXPECT_EQ(faulted.ctx().GetGraphicsResetStatus(),
                  static_cast<GLenum>(GL_GUILTY_CONTEXT_RESET));
        const RunResult aborted = faulted.Finish();
        EXPECT_EQ(aborted.fb, before.fb) << "abort restores the image";
        ExpectSameCounts(aborted.counts, before.counts, "abort restores");

        const RunResult fresh_before = fresh.Finish();
        ASSERT_EQ(faulted.Draw(b, plain_draw),
                  static_cast<GLenum>(GL_NO_ERROR));
        ASSERT_EQ(fresh.Draw(fresh_b, plain_draw),
                  static_cast<GLenum>(GL_NO_ERROR));
        EXPECT_TRUE(faulted.ctx().last_draw_error().empty());
        const RunResult f = faulted.Finish();
        const RunResult r = fresh.Finish();
        EXPECT_EQ(f.fb, r.fb) << "B after A's abort vs B on a fresh context";
        ExpectSameCounts(Delta(f.counts, aborted.counts),
                         Delta(r.counts, fresh_before.counts),
                         "B after A's abort vs fresh");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Many programs
// ---------------------------------------------------------------------------

TEST(ShadeWorkerTest, RoundRobinOverManyProgramsMatchesColdDraws) {
  // 68 programs drawn round-robin, each keeping its clones between its
  // draws, must produce exactly the bytes and counts of cold draws (each
  // program's clones dropped by a relink right after its draw).
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.shader_threads = 1;
  Context warm(cfg);
  Context cold(cfg);

  constexpr int kPrograms = 68;
  const auto build = [&](Context& ctx) {
    std::vector<GLuint> progs;
    for (int p = 0; p < kPrograms; ++p) {
      const std::string fs =
          "precision highp float;\n"
          "varying vec2 v_uv;\n"
          "uniform vec4 u_tint;\n"
          "void main() { gl_FragColor = vec4(v_uv.x * u_tint.x, " +
          std::to_string((p + 1.0) / (kPrograms + 1.0)) +
          ", v_uv.y, 1.0); }\n";
      progs.push_back(testutil::BuildProgramOrDie(ctx, kVs, fs.c_str()));
    }
    return progs;
  };
  const std::vector<GLuint> warm_progs = build(warm);
  const std::vector<GLuint> cold_progs = build(cold);

  constexpr int kRounds = 3;
  const auto draw_round_robin = [&](Context& ctx,
                                    const std::vector<GLuint>& progs,
                                    bool relink) {
    ctx.ClearColor(0.0f, 0.0f, 0.0f, 1.0f);
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    for (int round = 0; round < kRounds; ++round) {
      for (int p = 0; p < kPrograms; ++p) {
        const GLuint prog = progs[static_cast<std::size_t>(p)];
        ctx.UseProgram(prog);
        const GLint a_pos = ctx.GetAttribLocation(prog, "a_pos");
        ctx.EnableVertexAttribArray(static_cast<GLuint>(a_pos));
        ctx.VertexAttribPointer(static_cast<GLuint>(a_pos), 2, GL_FLOAT,
                                GL_FALSE, 0, kTri.data());
        ctx.Uniform2f(ctx.GetUniformLocation(prog, "u_offset"),
                      -0.9f + 0.025f * p, -0.9f + 0.3f * round);
        ctx.Uniform1f(ctx.GetUniformLocation(prog, "u_scale"), 0.3f);
        ctx.Uniform4f(ctx.GetUniformLocation(prog, "u_tint"), 1.0f, 0.5f,
                      0.25f, 1.0f);
        ctx.DrawArrays(GL_TRIANGLES, 0, 3);
        ASSERT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
        if (relink) ctx.LinkProgram(prog);
      }
    }
  };
  draw_round_robin(warm, warm_progs, /*relink=*/false);
  draw_round_robin(cold, cold_progs, /*relink=*/true);

  EXPECT_EQ(warm.shade_state_cache().hits(),
            static_cast<std::uint64_t>(kPrograms * (kRounds - 1)));
  EXPECT_EQ(cold.shade_state_cache().hits(), 0u);
  EXPECT_EQ(testutil::ReadRgba(warm, kW, kH), testutil::ReadRgba(cold, kW, kH))
      << "warm round-robin draws must be byte-identical to cold draws";
  ExpectSameCounts(warm.alu().counts(), cold.alu().counts(),
                   "warm round-robin vs cold counts");
}

}  // namespace
}  // namespace mgpu::gles2
