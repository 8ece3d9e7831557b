// Shade-state-cache invariants. The cache (gles2::ShadeStateCache) keeps
// one entry per program — the vertex stage's plane views plus worker slots
// that each own an engine clone, a forked ALU counter shard and a
// TMU-cache model — alive across draws, refreshing only uniforms/globals
// per draw, for every engine and thread count. It must be *invisible*: a
// warm-cache draw stream produces the same framebuffer bytes and the same
// ALU/SFU/TMU operation counts as cold-state draws and as a serial
// (one-slot) context, on every engine. Relinking or deleting a program must
// drop its entry without perturbing results. The engine and the worker
// count are fixed per context, so each configuration gets its own context.
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gles2/context.h"
#include "gles2_test_util.h"
#include "glsl/alu.h"
#include "gtest/gtest.h"
#include "vc4/alu.h"
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

// A mix of tiny draws (single tile: one slot, shaded on the calling
// thread) and spanning draws (pooled shading; every slot used, including
// slots left stale by smaller draws before them). Four draws are tiny and
// four span several tiles. Each program has one entry whatever the draw
// shape, so a warm context builds it on the first draw and hits on every
// draw after.
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

  // Relinks the program from the same shaders, which drops its cache
  // entry: the next draw rebuilds its shading state from scratch. The
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

TEST(ShadeStateCacheTest, WarmDrawsAreByteAndCountIdenticalToColdDraws) {
  StormRig warm(/*threads=*/2, /*textured=*/true);
  StormRig cold(/*threads=*/2, /*textured=*/true);
  StormRig serial(/*threads=*/1, /*textured=*/true);
  for (const DrawSpec& d : Corpus()) {
    warm.Draw(d);
    // A relink before every draw drops the program's entry: every cold draw
    // rebuilds its worker state from scratch, the pre-cache behaviour.
    cold.Relink();
    cold.Draw(d);
    serial.Draw(d);
  }
  // The warm context really did reuse state: one entry for the program
  // and one lookup per draw, so a miss on the first draw and a hit on
  // every draw after. The cold context never hit (its entry is dropped
  // before every draw).
  EXPECT_EQ(warm.ctx().shade_state_cache().entry_count(), 1u);
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

TEST(ShadeStateCacheTest, WarmDrawsMatchSerialUnderVc4Alu) {
  for (const ExecEngine engine : {ExecEngine::kBatchedVm,
                                  ExecEngine::kBytecodeVm,
                                  ExecEngine::kTreeWalk}) {
    SCOPED_TRACE(static_cast<int>(engine));
    vc4::Vc4Alu warm_alu(vc4::VideoCoreIV());
    vc4::Vc4Alu serial_alu(vc4::VideoCoreIV());
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
// Invalidation: relink and delete
// ---------------------------------------------------------------------------

TEST(ShadeStateCacheTest, RelinkDropsStaleEntriesAndUsesNewBytecode) {
  StormRig warm(/*threads=*/2, /*textured=*/false);
  StormRig serial(/*threads=*/1, /*textured=*/false);
  for (const DrawSpec& d : Corpus()) {
    warm.Draw(d);
    serial.Draw(d);
  }
  // One entry for the program, whatever the draw shape.
  ASSERT_EQ(warm.ctx().shade_state_cache().entry_count(), 1u);

  // Relink both programs with a different fragment shader. The cached
  // clones pin the old bytecode; the entries must be gone...
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
  EXPECT_EQ(warm.ctx().shade_state_cache().entry_count(), 0u);

  // ...and post-relink draws must match the serial reference bit-for-bit
  // (stale clones would still run the old shader).
  for (const DrawSpec& d : Corpus()) {
    warm.Draw(d);
    serial.Draw(d);
  }
  const RunResult w = warm.Finish();
  const RunResult s = serial.Finish();
  EXPECT_EQ(w.fb, s.fb);
  ExpectSameCounts(w.counts, s.counts, "post-relink warm vs serial");
}

TEST(ShadeStateCacheTest, DeleteProgramDropsItsEntries) {
  StormRig warm(/*threads=*/2, /*textured=*/false);
  warm.Draw(Corpus()[2]);  // a spanning draw, so an entry is built
  ASSERT_EQ(warm.ctx().shade_state_cache().entry_count(), 1u);
  warm.ctx().DeleteProgram(warm.program());
  EXPECT_EQ(warm.ctx().shade_state_cache().entry_count(), 0u);
}

// ---------------------------------------------------------------------------
// LRU capacity
// ---------------------------------------------------------------------------

TEST(ShadeStateCacheTest, DefaultCapacityIsSixtyFour) {
  ContextConfig cfg;
  Context ctx(cfg);
  EXPECT_EQ(ctx.shade_state_cache().capacity(), 64u);
}

TEST(ShadeStateCacheTest, LruCapEvictsLeastRecentlyDrawnAndStaysCorrect) {
  // More programs than the cache holds, drawn round-robin: every program's
  // entry is evicted before its next draw, so the stream runs at maximum
  // churn — and must still produce exactly the bytes of cold draws (each
  // program's entry dropped by a relink right after its draw).
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.shader_threads = 1;
  Context churned(cfg);
  Context cold(cfg);

  constexpr int kPrograms = static_cast<int>(ShadeStateCache::kCapacity) + 4;
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
  const std::vector<GLuint> churned_progs = build(churned);
  const std::vector<GLuint> cold_progs = build(cold);

  const auto draw_round_robin = [&](Context& ctx,
                                    const std::vector<GLuint>& progs,
                                    bool drop_cache) {
    ctx.ClearColor(0.0f, 0.0f, 0.0f, 1.0f);
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    for (int round = 0; round < 3; ++round) {
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
        // A relink drops the entry the draw built, so the cache never
        // holds another program's entry and every draw builds afresh.
        if (drop_cache) ctx.LinkProgram(prog);
      }
    }
  };
  draw_round_robin(churned, churned_progs, /*drop_cache=*/false);
  draw_round_robin(cold, cold_progs, /*drop_cache=*/true);

  EXPECT_LE(churned.shade_state_cache().entry_count(),
            ShadeStateCache::kCapacity);
  EXPECT_GT(churned.shade_state_cache().evictions(), 0u);
  EXPECT_EQ(churned.shade_state_cache().hits(), 0u)
      << "round-robin over more programs than the cap never hits";
  EXPECT_EQ(cold.shade_state_cache().evictions(), 0u);
  EXPECT_EQ(cold.shade_state_cache().hits(), 0u);
  EXPECT_EQ(testutil::ReadRgba(churned, kW, kH),
            testutil::ReadRgba(cold, kW, kH))
      << "eviction-churned draws must be byte-identical to cold draws";
}

}  // namespace
}  // namespace mgpu::gles2
