// Tiled-pipeline invariants. The two-phase rasterizer (tile binning +
// worker-pool shading) must be invisible: primitives spanning tile
// boundaries shade exactly once per pixel, and an N-thread draw is
// byte-identical to the 1-thread reference — framebuffer bytes AND
// ALU/SFU/TMU operation counts — because tiles partition the framebuffer
// and per-worker counter shards merge by summation.
#include <cstdint>
#include <string>
#include <vector>

#include "gles2/context.h"
#include "gles2/tiler.h"
#include "gles2_test_util.h"
#include "glsl/alu.h"
#include "gtest/gtest.h"
#include "vc4/alu.h"
#include "vc4/profiles.h"

namespace mgpu::gles2 {
namespace {

// ---------------------------------------------------------------------------
// TileBinner unit tests
// ---------------------------------------------------------------------------

TEST(TileBinnerTest, PartialEdgeTilesAreClampedToTarget) {
  TileBinner b(161, 131);  // 3x3 grid, right/top tiles partial
  ASSERT_EQ(b.tiles_x(), 3);
  ASSERT_EQ(b.tiles_y(), 3);
  b.BinTile(0, 2, 2);
  const TileBinner::Tile& last = b.tile(8);
  EXPECT_EQ(last.rect.x0, 128);
  EXPECT_EQ(last.rect.y0, 128);
  EXPECT_EQ(last.rect.x1, 161);
  EXPECT_EQ(last.rect.y1, 131);
}

TEST(TileBinnerTest, SpanningPrimitiveLandsInEveryTouchedBin) {
  TileBinner b(200, 200);  // 4x4 grid
  b.Bin(7, PixelRect{30, 30, 150, 90});  // spans tiles x 0..2, y 0..1
  const auto work = b.NonEmptyTiles();
  ASSERT_EQ(work.size(), 6u);
  for (const std::uint32_t t : work) {
    ASSERT_EQ(b.tile(t).prims.size(), 1u);
    EXPECT_EQ(b.tile(t).prims[0], 7u);
  }
  // Row-major: tiles (0,0) (1,0) (2,0) (0,1) (1,1) (2,1).
  EXPECT_EQ(work, (std::vector<std::uint32_t>{0, 1, 2, 4, 5, 6}));
}

TEST(TileBinnerTest, SubmissionOrderIsPreservedPerBin) {
  TileBinner b(64, 64);
  b.Bin(3, PixelRect{0, 0, 10, 10});
  b.Bin(1, PixelRect{0, 0, 64, 64});
  b.Bin(2, PixelRect{5, 5, 6, 6});
  EXPECT_EQ(b.tile(0).prims, (std::vector<std::uint32_t>{3, 1, 2}));
}

TEST(TileBinnerTest, SparseStorageScalesWithTouchedTilesNotGridSize) {
  // A huge target: the dense grid would be ~2.4M tiles. A tiny draw must
  // only materialize the bins it touches.
  TileBinner b(100'000, 100'000);
  ASSERT_EQ(b.tiles_x(), 1563);
  b.Bin(0, PixelRect{70'000, 70'000, 70'010, 70'010});
  b.BinTile(1, 0, 0);
  EXPECT_EQ(b.NonEmptyTiles().size(), 2u);
  EXPECT_LE(b.slot_capacity(), 4u);
  EXPECT_LE(b.table_capacity(), 64u);
}

TEST(TileBinnerTest, BeginDrawDropsOldBinsAndResizesGrid) {
  TileBinner b(200, 200);
  b.Bin(1, PixelRect{0, 0, 200, 200});
  ASSERT_EQ(b.NonEmptyTiles().size(), 16u);
  b.BeginDraw(65, 65);  // 2x2 grid now
  EXPECT_EQ(b.tiles_x(), 2);
  EXPECT_TRUE(b.NonEmptyTiles().empty());
  b.Bin(2, PixelRect{0, 0, 65, 65});
  const auto work = b.NonEmptyTiles();
  EXPECT_EQ(work, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  for (const std::uint32_t t : work) {
    EXPECT_EQ(b.tile(t).prims, (std::vector<std::uint32_t>{2}));
  }
}

TEST(TileBinnerTest, SteadyStateDrawLoopDoesNotGrowTheHeap) {
  TileBinner b;
  // Warm-up lap establishes the high-water mark...
  b.BeginDraw(1000, 1000);
  b.Bin(0, PixelRect{100, 100, 400, 400});
  const std::size_t slots = b.slot_capacity();
  const std::size_t table = b.table_capacity();
  ASSERT_GT(slots, 0u);
  // ...after which identical draws must not allocate: same slot count, same
  // table, and per-bin prims capacity recycled (asserted via capacity()).
  for (int draw = 0; draw < 100; ++draw) {
    b.BeginDraw(1000, 1000);
    b.Bin(0, PixelRect{100, 100, 400, 400});
    b.Bin(1, PixelRect{150, 150, 300, 300});
  }
  EXPECT_EQ(b.slot_capacity(), slots);
  EXPECT_EQ(b.table_capacity(), table);
}

// ---------------------------------------------------------------------------
// Exactly-once coverage across tile boundaries (end-to-end)
// ---------------------------------------------------------------------------

constexpr int kW = 161;  // 3x3 tiles with partial right/top tiles
constexpr int kH = 131;

constexpr char kOneFs[] = R"(
precision highp float;
void main() { gl_FragColor = vec4(1.0 / 255.0); }
)";

void ExpectCoverageCounts(Context& ctx, int max_expected,
                          const char* what) {
  const std::vector<std::uint8_t> px = testutil::ReadRgba(ctx, kW, kH);
  int covered = 0;
  int bad = 0;
  for (std::size_t i = 0; i < px.size(); i += 4) {
    covered += px[i] != 0;
    bad += px[i] > max_expected;
  }
  EXPECT_GT(covered, 0) << what;
  EXPECT_EQ(bad, 0) << what << ": some pixel shaded more than "
                    << max_expected << " time(s) (tile seam double-shade)";
}

TEST(TilingCoverageTest, QuadSpanningAllTilesShadesOncePerPixel) {
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  Context ctx(cfg);
  const GLuint prog =
      testutil::BuildProgramOrDie(ctx, testutil::kPassthroughVs, kOneFs);
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_ONE, GL_ONE);  // framebuffer counts shade events
  ctx.ClearColor(0, 0, 0, 0);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
  ASSERT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  const std::vector<std::uint8_t> px = testutil::ReadRgba(ctx, kW, kH);
  for (std::size_t i = 0; i < px.size(); i += 4) {
    ASSERT_EQ(px[i], 1) << "pixel " << (i / 4) % kW << "," << (i / 4) / kW
                        << " shaded " << int{px[i]} << " times";
  }
}

TEST(TilingCoverageTest, SkewedTriangleAcrossTileSeams) {
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  Context ctx(cfg);
  const GLuint prog =
      testutil::BuildProgramOrDie(ctx, testutil::kPassthroughVs, kOneFs);
  ctx.UseProgram(prog);
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_ONE, GL_ONE);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  // A thin, skewed triangle crossing both tile rows and all tile columns.
  const float tri[6] = {-0.95f, -0.9f, 0.98f, -0.2f, -0.4f, 0.95f};
  const GLint loc = ctx.GetAttribLocation(prog, "a_pos");
  ASSERT_GE(loc, 0);
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          tri);
  ctx.DrawArrays(GL_TRIANGLES, 0, 3);
  ASSERT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  ExpectCoverageCounts(ctx, 1, "skewed triangle");
}

TEST(TilingCoverageTest, LineCrossingTilesEmitsEachPixelOnce) {
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  Context ctx(cfg);
  const GLuint prog =
      testutil::BuildProgramOrDie(ctx, testutil::kPassthroughVs, kOneFs);
  ctx.UseProgram(prog);
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_ONE, GL_ONE);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  const float seg[4] = {-0.97f, -0.93f, 0.91f, 0.88f};
  const GLint loc = ctx.GetAttribLocation(prog, "a_pos");
  ASSERT_GE(loc, 0);
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          seg);
  ctx.DrawArrays(GL_LINES, 0, 2);
  ASSERT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  ExpectCoverageCounts(ctx, 1, "diagonal line");
}

// ---------------------------------------------------------------------------
// N-thread vs 1-thread differential over a draw-scenario corpus
// ---------------------------------------------------------------------------

struct Scenario {
  const char* name;
  void (*run)(Context& ctx);
};

void ScenarioQuadMath(Context& ctx) {
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      R"(
precision highp float;
varying vec2 v_uv;
uniform float u_gain;
void main() {
  float w = fract(v_uv.x * 7.0 + sin(v_uv.y * 13.0));
  float p = pow(v_uv.x + 0.5, 1.7) + exp(-v_uv.y);
  gl_FragColor = vec4(w * u_gain, fract(p), v_uv.y, 1.0);
}
)");
  ctx.UseProgram(prog);
  ctx.Uniform1f(ctx.GetUniformLocation(prog, "u_gain"), 0.8f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
}

void ScenarioTextured(Context& ctx) {
  // NPOT texture, repeat-wrapped scaled UVs: exercises both the sampler
  // and the per-tile TMU-cache model (misses must sum identically).
  GLuint tex = 0;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  std::vector<std::uint8_t> img(37 * 29 * 4);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xff);
  }
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 37, 29, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, img.data());
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_S, GL_CLAMP_TO_EDGE);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_T, GL_CLAMP_TO_EDGE);
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_uv * 0.9 + 0.05); }
)");
  ctx.UseProgram(prog);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_tex"), 0);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
}

// Texture state the per-draw sampler table resolves: two complete units (a
// POT texture with REPEAT/MIRRORED_REPEAT wrapping and LINEAR
// magnification, and an NPOT clamped NEAREST one sampled with a bias), an
// incomplete texture (default mipmapped min filter), a sampler on a unit
// with nothing bound, and a texture re-specified between two blended draws.
void ScenarioTexturedMultiUnit(Context& ctx) {
  const auto make_image = [](int w, int h, int salt) {
    std::vector<std::uint8_t> img(static_cast<std::size_t>(w * h * 4));
    for (std::size_t i = 0; i < img.size(); ++i) {
      img[i] = static_cast<std::uint8_t>(
          (i * 29 + static_cast<std::size_t>(salt)) & 0xff);
    }
    return img;
  };
  GLuint tex[3] = {};
  ctx.GenTextures(3, tex);
  // Unit 0: POT, repeating wrap modes, bilinear magnification.
  ctx.ActiveTexture(GL_TEXTURE0);
  ctx.BindTexture(GL_TEXTURE_2D, tex[0]);
  const std::vector<std::uint8_t> pot = make_image(16, 8, 3);
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 16, 8, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, pot.data());
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_LINEAR);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_S, GL_REPEAT);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_T, GL_MIRRORED_REPEAT);
  // Unit 1: incomplete — the default min filter wants mipmaps.
  ctx.ActiveTexture(GL_TEXTURE0 + 1);
  ctx.BindTexture(GL_TEXTURE_2D, tex[1]);
  const std::vector<std::uint8_t> inc = make_image(8, 8, 101);
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 8, 8, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, inc.data());
  // Unit 2: NPOT, clamped, nearest; re-specified before the second draw.
  ctx.ActiveTexture(GL_TEXTURE0 + 2);
  ctx.BindTexture(GL_TEXTURE_2D, tex[2]);
  const std::vector<std::uint8_t> npot = make_image(21, 13, 57);
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 21, 13, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, npot.data());
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_S, GL_CLAMP_TO_EDGE);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_T, GL_CLAMP_TO_EDGE);
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_pot;
uniform sampler2D u_incomplete;
uniform sampler2D u_npot;
uniform sampler2D u_unbound;
void main() {
  vec4 a = texture2D(u_pot, v_uv * 3.7 - vec2(1.3, 0.6));
  vec4 b = texture2D(u_incomplete, v_uv);
  vec4 c = texture2D(u_npot, v_uv.yx, 0.5);
  vec4 d = texture2D(u_unbound, v_uv + 0.25);
  gl_FragColor = vec4(a.rgb * 0.5 + c.gbr * 0.25 + b.rgb * 0.125 +
                      d.rgb * 0.125, 0.5 + a.a * 0.25);
}
)");
  ctx.UseProgram(prog);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_pot"), 0);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_incomplete"), 1);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_npot"), 2);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_unbound"), 5);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
  // Re-specify unit 2 with new size and contents, then blend a second draw
  // over the first: its samples must see the new texture.
  const std::vector<std::uint8_t> respec = make_image(5, 19, 211);
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 5, 19, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, respec.data());
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_SRC_ALPHA, GL_ONE_MINUS_SRC_ALPHA);
  testutil::DrawFullscreenQuad(ctx, prog);
  ctx.Disable(GL_BLEND);
  ctx.ActiveTexture(GL_TEXTURE0);
}

void ScenarioDepthBlend(Context& ctx) {
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx,
      R"(
attribute vec3 a_xyz;
attribute vec4 a_rgba;
varying vec4 v_rgba;
void main() { v_rgba = a_rgba; gl_Position = vec4(a_xyz, 1.0); }
)",
      R"(
precision highp float;
varying vec4 v_rgba;
void main() { gl_FragColor = v_rgba; }
)");
  ctx.UseProgram(prog);
  ctx.Enable(GL_DEPTH_TEST);
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_SRC_ALPHA, GL_ONE_MINUS_SRC_ALPHA);
  ctx.Clear(GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT);
  // Two overlapping triangles at different depths; submission order matters
  // in the overlap, so this catches any intra-tile reordering.
  const float xyz[] = {
      -0.9f, -0.9f, 0.2f, 0.9f, -0.9f, 0.2f, 0.0f, 0.9f, 0.2f,
      -0.7f, -0.7f, 0.6f, 0.9f, 0.6f,  0.6f, -0.2f, 0.8f, 0.6f,
  };
  const float rgba[] = {
      1, 0, 0, 0.8f, 1, 0, 0, 0.8f, 1, 0, 0, 0.8f,
      0, 0, 1, 0.5f, 0, 0, 1, 0.5f, 0, 0, 1, 0.5f,
  };
  const GLint lx = ctx.GetAttribLocation(prog, "a_xyz");
  const GLint lc = ctx.GetAttribLocation(prog, "a_rgba");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(lx));
  ctx.VertexAttribPointer(static_cast<GLuint>(lx), 3, GL_FLOAT, GL_FALSE, 0,
                          xyz);
  ctx.EnableVertexAttribArray(static_cast<GLuint>(lc));
  ctx.VertexAttribPointer(static_cast<GLuint>(lc), 4, GL_FLOAT, GL_FALSE, 0,
                          rgba);
  ctx.DrawArrays(GL_TRIANGLES, 0, 6);
}

void ScenarioDiscard(Context& ctx) {
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      R"(
precision highp float;
varying vec2 v_uv;
void main() {
  if (mod(floor(v_uv.x * 23.0) + floor(v_uv.y * 17.0), 2.0) < 0.5) discard;
  gl_FragColor = vec4(v_uv, 0.5, 1.0);
}
)");
  ctx.UseProgram(prog);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
}

void ScenarioPointsAndLines(Context& ctx) {
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx,
      R"(
attribute vec2 a_pos;
varying vec2 v_uv;
void main() {
  v_uv = a_pos * 0.5 + 0.5;
  gl_Position = vec4(a_pos, 0.0, 1.0);
  gl_PointSize = 9.0;
}
)",
      R"(
precision highp float;
varying vec2 v_uv;
void main() { gl_FragColor = vec4(v_uv, gl_PointCoord.x, 1.0); }
)");
  ctx.UseProgram(prog);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  // Points near tile corners (9-px sprites straddle seams) + a line loop.
  const float pts[] = {-0.8f, -0.8f, -0.21f, -0.02f, 0.02f, 0.02f,
                       0.6f,  0.7f,  0.99f,  0.99f,  -0.99f, 0.99f};
  const GLint loc = ctx.GetAttribLocation(prog, "a_pos");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          pts);
  ctx.DrawArrays(GL_POINTS, 0, 6);
  ctx.DrawArrays(GL_LINE_LOOP, 0, 6);
}

constexpr Scenario kScenarios[] = {
    {"quad_math", ScenarioQuadMath},
    {"textured", ScenarioTextured},
    {"textured_multi_unit", ScenarioTexturedMultiUnit},
    {"depth_blend", ScenarioDepthBlend},
    {"discard", ScenarioDiscard},
    {"points_and_lines", ScenarioPointsAndLines},
};

struct RunResult {
  std::vector<std::uint8_t> px;
  glsl::OpCounts counts;
};

RunResult RunScenario(const Scenario& sc, int threads) {
  // The VC4 ALU model exercises Fork() of the precision-perturbing model,
  // not just the exact one.
  vc4::Vc4Alu alu(vc4::VideoCoreIV());
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.shader_threads = threads;
  Context ctx(cfg, &alu);
  alu.ResetCounts();
  sc.run(ctx);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR))
      << sc.name << " threads=" << threads
      << " draw error: " << ctx.last_draw_error();
  RunResult r;
  r.counts = alu.counts();
  r.px = testutil::ReadRgba(ctx, kW, kH);
  return r;
}

TEST(ThreadDifferentialTest, NThreadMatchesSerialReferenceExactly) {
  for (const Scenario& sc : kScenarios) {
    const RunResult ref = RunScenario(sc, 1);
    for (const int threads : {2, 4, 0 /* hardware_concurrency */}) {
      const RunResult got = RunScenario(sc, threads);
      EXPECT_EQ(got.px, ref.px)
          << sc.name << ": framebuffer differs at threads=" << threads;
      EXPECT_EQ(got.counts.alu, ref.counts.alu) << sc.name << " t=" << threads;
      EXPECT_EQ(got.counts.sfu, ref.counts.sfu) << sc.name << " t=" << threads;
      EXPECT_EQ(got.counts.sfu_trans, ref.counts.sfu_trans)
          << sc.name << " t=" << threads;
      EXPECT_EQ(got.counts.tmu, ref.counts.tmu) << sc.name << " t=" << threads;
      EXPECT_EQ(got.counts.tmu_miss, ref.counts.tmu_miss)
          << sc.name << " t=" << threads;
    }
    // Work was actually performed.
    EXPECT_GT(ref.counts.alu, 0u) << sc.name;
  }
}

// ---------------------------------------------------------------------------
// Engine differential: batched VM vs one-lane VM vs tree-walking oracle
// ---------------------------------------------------------------------------

RunResult RunScenarioOnEngine(const Scenario& sc, ExecEngine engine,
                              int threads, bool vc4_alu) {
  vc4::Vc4Alu vc4(vc4::VideoCoreIV());
  glsl::ExactAlu exact;
  glsl::AluModel& alu = vc4_alu ? static_cast<glsl::AluModel&>(vc4) : exact;
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.shader_threads = threads;
  cfg.exec_engine = engine;
  Context ctx(cfg, &alu);
  alu.ResetCounts();
  sc.run(ctx);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR))
      << sc.name << " engine=" << static_cast<int>(engine)
      << " draw error: " << ctx.last_draw_error();
  RunResult r;
  r.counts = alu.counts();
  r.px = testutil::ReadRgba(ctx, kW, kH);
  return r;
}

void ExpectEngineAgreement(const Scenario& sc, bool vc4_alu) {
  SCOPED_TRACE(std::string(sc.name) + (vc4_alu ? " vc4" : " exact"));
  // One-lane VM, serial: the reference.
  const RunResult ref =
      RunScenarioOnEngine(sc, ExecEngine::kBytecodeVm, 1, vc4_alu);
  struct Config {
    ExecEngine engine;
    int threads;
    const char* what;
  };
  const Config configs[] = {
      {ExecEngine::kBatchedVm, 1, "batched serial"},
      {ExecEngine::kBatchedVm, 3, "batched threaded"},
      {ExecEngine::kBytecodeVm, 3, "scalar threaded"},
      {ExecEngine::kTreeWalk, 1, "tree-walk oracle"},
      {ExecEngine::kTreeWalk, 3, "tree-walk threaded"},
  };
  for (const Config& c : configs) {
    const RunResult got =
        RunScenarioOnEngine(sc, c.engine, c.threads, vc4_alu);
    EXPECT_EQ(got.px, ref.px) << c.what << ": framebuffer differs";
    EXPECT_EQ(got.counts.alu, ref.counts.alu) << c.what;
    EXPECT_EQ(got.counts.sfu, ref.counts.sfu) << c.what;
    EXPECT_EQ(got.counts.sfu_trans, ref.counts.sfu_trans) << c.what;
    EXPECT_EQ(got.counts.tmu, ref.counts.tmu) << c.what;
    EXPECT_EQ(got.counts.tmu_miss, ref.counts.tmu_miss) << c.what;
  }
  EXPECT_GT(ref.counts.alu, 0u);
}

TEST(EngineDifferentialTest, AllEnginesAgreeOnScenarioCorpusExactAlu) {
  for (const Scenario& sc : kScenarios) ExpectEngineAgreement(sc, false);
}

TEST(EngineDifferentialTest, AllEnginesAgreeOnScenarioCorpusVc4Alu) {
  for (const Scenario& sc : kScenarios) ExpectEngineAgreement(sc, true);
}

// Divergence-heavy scenario: per-pixel branches, varying loop trip counts,
// calls inside divergent branches, divergent discard, and texture fetches
// in one branch side — the diverged phase's whole menu in one draw.
void ScenarioDivergent(Context& ctx) {
  GLuint tex = 0;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  std::vector<std::uint8_t> img(16 * 16 * 4);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::uint8_t>((i * 13 + 5) & 0xff);
  }
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 16, 16, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, img.data());
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_tex;
float weight(float x) {
  if (x > 0.6) return sin(x * 9.0);
  return cos(x * 5.0) * 0.5;
}
void main() {
  if (fract(v_uv.x * 13.0 + v_uv.y * 7.0) < 0.15) discard;
  float acc = 0.0;
  int n = int(mod(v_uv.x * 37.0, 6.0)) + 1;
  for (int i = 0; i < 8; ++i) {
    if (i >= n) break;
    acc += weight(v_uv.y + float(i) * 0.09);
  }
  vec4 t = vec4(0.25);
  if (v_uv.y > 0.5) t = texture2D(u_tex, v_uv * 3.0);
  gl_FragColor = vec4(fract(acc), t.xy, 1.0);
}
)");
  ctx.UseProgram(prog);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_tex"), 0);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
}

TEST(EngineDifferentialTest, DivergentControlFlowAgreesAcrossEngines) {
  const Scenario sc{"divergent", ScenarioDivergent};
  ExpectEngineAgreement(sc, /*vc4_alu=*/false);
  ExpectEngineAgreement(sc, /*vc4_alu=*/true);
}

// Batch-tail coverage: draws of exactly n pixels for every n in
// [1, kFragBatchWidth + 1] — each ends in a RunBatch tail of size
// n % width — must match the one-lane engine bit for bit, bytes and counts.
TEST(EngineDifferentialTest, EveryBatchTailSizeMatchesScalar) {
  for (int n = 1; n <= kFragBatchWidth + 1; ++n) {
    SCOPED_TRACE("pixels=" + std::to_string(n));
    auto run = [&](ExecEngine engine) {
      glsl::ExactAlu alu;
      ContextConfig cfg;
      cfg.width = kW;
      cfg.height = kH;
      cfg.shader_threads = 1;
      cfg.exec_engine = engine;
      Context ctx(cfg, &alu);
      const GLuint prog = testutil::BuildProgramOrDie(
          ctx, testutil::kPassthroughVs,
          R"(
precision highp float;
varying vec2 v_uv;
void main() {
  float pick = v_uv.x > 0.001 ? sin(v_uv.x * 40.0) : 0.5;
  gl_FragColor = vec4(fract(pick), v_uv.x, v_uv.y, 1.0);
}
)");
      ctx.UseProgram(prog);
      ctx.Clear(GL_COLOR_BUFFER_BIT);
      // Shrink the viewport so the fullscreen quad rasterizes to exactly an
      // n x 1 pixel strip — the draw's whole fragment stream is one batch
      // tail of n lanes.
      ctx.Viewport(3, 5, n, 1);
      testutil::DrawFullscreenQuad(ctx, prog);
      EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
      RunResult r;
      r.counts = alu.counts();
      r.px = testutil::ReadRgba(ctx, kW, kH);
      return r;
    };
    const RunResult batched = run(ExecEngine::kBatchedVm);
    const RunResult scalar = run(ExecEngine::kBytecodeVm);
    EXPECT_EQ(batched.px, scalar.px);
    EXPECT_EQ(batched.counts.alu, scalar.counts.alu);
    EXPECT_EQ(batched.counts.sfu_trans, scalar.counts.sfu_trans);
  }
}

// The tree-walking oracle clones per worker like the VMs: a multithreaded
// tree-walk context shades on the pool and must match the parallel VM.
TEST(ThreadDifferentialTest, TreeWalkOracleMatchesParallelVm) {
  const Scenario& sc = kScenarios[0];
  const RunResult vm = RunScenario(sc, 4);
  vc4::Vc4Alu alu(vc4::VideoCoreIV());
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.shader_threads = 4;
  cfg.exec_engine = ExecEngine::kTreeWalk;
  Context ctx(cfg, &alu);
  alu.ResetCounts();
  sc.run(ctx);
  const std::vector<std::uint8_t> px = testutil::ReadRgba(ctx, kW, kH);
  EXPECT_EQ(px, vm.px);
  EXPECT_EQ(alu.counts().alu, vm.counts.alu);
  EXPECT_EQ(alu.counts().tmu_miss, vm.counts.tmu_miss);
}

// A shader trap mid-parallel-draw must abort the draw transactionally and
// leave the context as good as new: counters restored to their pre-draw
// values, and the NEXT draw byte-identical — framebuffer and op counts —
// to a context that never trapped. This composes the pool-level guarantee
// (a throwing worker task neither deadlocks RunOn nor poisons later jobs;
// see threadpool_test.cc) with the context's transactional abort, across
// thread counts on the multi-tile target.
TEST(ThreadDifferentialTest, TrapMidDrawDoesNotPoisonSubsequentDraws) {
  // Right-half lanes call a declared-but-undefined function: a
  // lane-divergent runtime trap that fires only once shading is well under
  // way across several tiles.
  static const char* kTrapFs = R"(
precision highp float;
varying vec2 v_uv;
float poison(float x);
void main() {
  float v = v_uv.x;
  if (v_uv.x > 0.5) { v = poison(v); }
  gl_FragColor = vec4(v, 0.0, 0.0, 1.0);
}
)";
  const Scenario& sc = kScenarios[0];  // quad_math
  const RunResult ref = RunScenario(sc, 1);  // never-trapped reference
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    vc4::Vc4Alu alu(vc4::VideoCoreIV());
    ContextConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.shader_threads = threads;
    Context ctx(cfg, &alu);
    const GLuint bad =
        testutil::BuildProgramOrDie(ctx, testutil::kPassthroughVs, kTrapFs);
    ctx.UseProgram(bad);
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    const glsl::OpCounts before = alu.counts();
    testutil::DrawFullscreenQuad(ctx, bad);
    EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_INVALID_OPERATION))
        << "trapping draw must flag GL_INVALID_OPERATION";
    EXPECT_NE(ctx.last_draw_error().find("undefined function"),
              std::string::npos)
        << "unexpected draw error: " << ctx.last_draw_error();
    EXPECT_EQ(alu.counts().alu, before.alu)
        << "aborted draw leaked ALU counter state";
    // Recovery: the clean scenario on the survivor context must match the
    // never-trapped reference bit for bit.
    alu.ResetCounts();
    sc.run(ctx);
    EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR))
        << "recovery draw error: " << ctx.last_draw_error();
    EXPECT_EQ(testutil::ReadRgba(ctx, kW, kH), ref.px);
    EXPECT_EQ(alu.counts().alu, ref.counts.alu);
    EXPECT_EQ(alu.counts().sfu, ref.counts.sfu);
    EXPECT_EQ(alu.counts().tmu, ref.counts.tmu);
  }
}

}  // namespace
}  // namespace mgpu::gles2
