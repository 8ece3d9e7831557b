// Command-stream tests: recorded, asynchronously submitted execution must be
// byte-identical to immediate mode — framebuffer bytes, ALU/SFU/TMU counts,
// GL errors and trap/abort semantics — on every engine and worker count.
// Also covers the recording machinery itself: error order, record-time
// client-array snapshots, the Flush/Finish contract, fair multi-context
// submission, and the knob that turns the whole thing off.
#include <array>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "gles2/cmdstream.h"
#include "gles2/context.h"
#include "gles2_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::gles2 {
namespace {

using testutil::BuildProgramOrDie;
using testutil::DrawFullscreenQuad;
using testutil::kPassthroughVs;
using testutil::kQuad;
using testutil::ReadRgba;

constexpr int kW = 128;  // 2x2 tile grid: parallel configs engage the pool
constexpr int kH = 128;

constexpr char kGradientFs[] = R"(
precision highp float;
varying vec2 v_uv;
uniform vec4 u_tint;
void main() {
  gl_FragColor = vec4(v_uv.x * u_tint.x, v_uv.y * u_tint.y, u_tint.z, 1.0);
}
)";

// Traps on the right half of the screen ("call to undefined function").
constexpr char kTrapFs[] = R"(
precision mediump float;
varying vec2 v_uv;
float poison(float x);
void main() {
  float v = v_uv.x;
  if (v_uv.x > 0.5) { v = poison(v); }
  gl_FragColor = vec4(v, v_uv.y, 0.25, 1.0);
}
)";

ContextConfig MakeConfig(int async, ExecEngine engine = ExecEngine::kBatchedVm,
                         int threads = 1, int w = kW, int h = kH) {
  ContextConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.exec_engine = engine;
  cfg.shader_threads = threads;
  cfg.async_submit = async;
  return cfg;
}

const char* EngineName(ExecEngine e) {
  switch (e) {
    case ExecEngine::kBatchedVm: return "batched";
    case ExecEngine::kBytecodeVm: return "scalar-vm";
    case ExecEngine::kTreeWalk: return "tree";
    case ExecEngine::kCompiled: return "compiled";
  }
  return "?";
}

struct Observed {
  std::vector<std::uint8_t> fb;
  std::uint64_t alu = 0, sfu = 0, tmu = 0;
  GLenum error = GL_NO_ERROR;
};

// A state-churning scene: clear, gradient quad, uniform change, scissored
// second quad, plus redundant setter calls.
Observed RunScene(Context& ctx) {
  const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
  ctx.UseProgram(p);
  const GLint tint = ctx.GetUniformLocation(p, "u_tint");
  ctx.ClearColor(0.1f, 0.2f, 0.3f, 1.0f);
  ctx.ClearColor(0.1f, 0.2f, 0.3f, 1.0f);  // redundant
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  ctx.Uniform4f(tint, 1.0f, 0.5f, 0.25f, 1.0f);
  DrawFullscreenQuad(ctx, p);
  ctx.Enable(GL_SCISSOR_TEST);
  ctx.Enable(GL_SCISSOR_TEST);  // redundant
  ctx.Scissor(8, 8, 48, 48);
  ctx.Uniform4f(tint, 0.25f, 1.0f, 0.5f, 1.0f);
  DrawFullscreenQuad(ctx, p);
  ctx.Disable(GL_SCISSOR_TEST);

  Observed o;
  o.fb = ReadRgba(ctx, kW, kH);
  const glsl::OpCounts c = ctx.alu().counts();
  o.alu = c.alu;
  o.sfu = c.sfu;
  o.tmu = c.tmu;
  o.error = ctx.GetError();
  return o;
}

// The tentpole invariant: recorded + asynchronously executed scenes are
// byte-identical to immediate mode on every engine and worker count.
TEST(CmdStream, AsyncMatchesImmediateAcrossEnginesAndThreads) {
  const std::array<ExecEngine, 4> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk,
      ExecEngine::kCompiled};
  for (const ExecEngine engine : engines) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " threads=" +
                   std::to_string(threads));
      Context async_ctx(MakeConfig(/*async=*/1, engine, threads));
      Context inline_ctx(MakeConfig(/*async=*/0, engine, threads));
      ASSERT_TRUE(async_ctx.async_submit_enabled());
      ASSERT_FALSE(inline_ctx.async_submit_enabled());
      const Observed a = RunScene(async_ctx);
      const Observed b = RunScene(inline_ctx);
      EXPECT_EQ(a.fb, b.fb) << "framebuffer differs from immediate mode";
      EXPECT_EQ(a.alu, b.alu);
      EXPECT_EQ(a.sfu, b.sfu);
      EXPECT_EQ(a.tmu, b.tmu);
      EXPECT_EQ(a.error, b.error);
    }
  }
}

TEST(CmdStream, KnobResolution) {
  {
    Context ctx(MakeConfig(/*async=*/0));
    EXPECT_FALSE(ctx.async_submit_enabled());
  }
  {
    Context ctx(MakeConfig(/*async=*/1));
    EXPECT_TRUE(ctx.async_submit_enabled());
  }
  // auto (-1): the MGPU_ASYNC env var decides; unset means on.
  ::setenv("MGPU_ASYNC", "0", 1);
  {
    Context ctx(MakeConfig(/*async=*/-1));
    EXPECT_FALSE(ctx.async_submit_enabled());
  }
  ::setenv("MGPU_ASYNC", "1", 1);
  {
    Context ctx(MakeConfig(/*async=*/-1));
    EXPECT_TRUE(ctx.async_submit_enabled());
  }
  ::unsetenv("MGPU_ASYNC");
  {
    Context ctx(MakeConfig(/*async=*/-1));
    EXPECT_TRUE(ctx.async_submit_enabled());
  }
  // Config wins over env when not auto.
  ::setenv("MGPU_ASYNC", "1", 1);
  {
    Context ctx(MakeConfig(/*async=*/0));
    EXPECT_FALSE(ctx.async_submit_enabled());
  }
  ::unsetenv("MGPU_ASYNC");
}

// Invalid setter calls are recorded like any other, so their GL errors
// surface at execution, in call order: the first error is latched by the
// time the sync point returns.
TEST(CmdStream, InvalidSetterErrorSurfacesInCallOrder) {
  Context ctx(MakeConfig(/*async=*/1));
  ctx.Finish();
  const cmd::Stats s0 = ctx.command_stream_stats();
  ctx.Enable(0xDEAD);
  ctx.Viewport(0, 0, -1, kH);  // GL_INVALID_VALUE, but the enum error won
  ctx.Enable(0xDEAD);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_INVALID_ENUM));
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  const cmd::Stats s1 = ctx.command_stream_stats();
  EXPECT_EQ(s1.recorded - s0.recorded, 3u);
}

TEST(CmdStream, StatsCountSubmissionLifecycle) {
  Context ctx(MakeConfig(/*async=*/1));
  const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
  ctx.UseProgram(p);
  const GLint tint = ctx.GetUniformLocation(p, "u_tint");
  ctx.Uniform4f(tint, 1.0f, 1.0f, 1.0f, 1.0f);
  DrawFullscreenQuad(ctx, p);
  ctx.Flush();   // submit without waiting
  ctx.Finish();  // join
  const cmd::Stats s = ctx.command_stream_stats();
  EXPECT_GT(s.recorded, 0u);
  EXPECT_GE(s.draws, 1u);
  EXPECT_GE(s.lists_submitted, 1u);
  EXPECT_EQ(s.lists_executed, s.lists_submitted);
  EXPECT_EQ(s.lists_dropped, 0u);
  EXPECT_GT(s.sync_points, 0u);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
}

// Client vertex arrays are snapshotted when the draw is *recorded*: mutating
// the array after the call but before Finish must not change the result —
// exactly the bytes immediate mode would have read at call time.
TEST(CmdStream, ClientArraySnapshotTakenAtRecordTime) {
  Context async_ctx(MakeConfig(/*async=*/1));
  Context inline_ctx(MakeConfig(/*async=*/0));
  std::vector<std::uint8_t> want;
  {
    Context& ctx = inline_ctx;
    const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
    ctx.UseProgram(p);
    ctx.Uniform4f(ctx.GetUniformLocation(p, "u_tint"), 1.0f, 1.0f, 1.0f, 1.0f);
    DrawFullscreenQuad(ctx, p);
    want = ReadRgba(ctx, kW, kH);
  }
  {
    Context& ctx = async_ctx;
    const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
    ctx.UseProgram(p);
    ctx.Uniform4f(ctx.GetUniformLocation(p, "u_tint"), 1.0f, 1.0f, 1.0f, 1.0f);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    ASSERT_GE(loc, 0);
    std::array<float, 12> quad = kQuad;
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                            quad.data());
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    // Clobber the client memory before the deferred draw executes.
    quad.fill(0.0f);
    EXPECT_EQ(ReadRgba(ctx, kW, kH), want)
        << "deferred draw read post-record client bytes";
  }
  EXPECT_EQ(async_ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
}

// Same contract for client-memory index arrays on DrawElements.
TEST(CmdStream, ClientIndexSnapshotTakenAtRecordTime) {
  Context ctx(MakeConfig(/*async=*/1));
  const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
  ctx.UseProgram(p);
  ctx.Uniform4f(ctx.GetUniformLocation(p, "u_tint"), 1.0f, 0.5f, 0.25f, 1.0f);
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  ASSERT_GE(loc, 0);
  // 4-vertex strip order; two triangles via indices.
  const std::array<float, 8> verts = {-1.0f, -1.0f, 1.0f, -1.0f,
                                      -1.0f, 1.0f,  1.0f, 1.0f};
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          verts.data());
  std::array<std::uint16_t, 6> idx = {0, 1, 2, 2, 1, 3};
  ctx.DrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_SHORT, idx.data());
  idx.fill(0);  // clobber before deferred execution
  const auto got = ReadRgba(ctx, kW, kH);
  ASSERT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));

  Context twin(MakeConfig(/*async=*/0));
  const GLuint tp = BuildProgramOrDie(twin, kPassthroughVs, kGradientFs);
  twin.UseProgram(tp);
  twin.Uniform4f(twin.GetUniformLocation(tp, "u_tint"), 1.0f, 0.5f, 0.25f,
                 1.0f);
  const GLint tloc = twin.GetAttribLocation(tp, "a_pos");
  twin.EnableVertexAttribArray(static_cast<GLuint>(tloc));
  twin.VertexAttribPointer(static_cast<GLuint>(tloc), 2, GL_FLOAT, GL_FALSE, 0,
                           verts.data());
  const std::array<std::uint16_t, 6> tidx = {0, 1, 2, 2, 1, 3};
  twin.DrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_SHORT, tidx.data());
  EXPECT_EQ(got, ReadRgba(twin, kW, kH));
}

// Deleting a VBO after recording a draw that uses it must not disturb the
// draw: commands execute in record order, so the deferred delete lands
// after the deferred draw — exactly as immediate mode ordered them.
TEST(CmdStream, DeleteBufferBetweenRecordAndExecute) {
  Observed got[2];
  for (const int async : {1, 0}) {
    Context ctx(MakeConfig(async));
    const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
    ctx.UseProgram(p);
    ctx.Uniform4f(ctx.GetUniformLocation(p, "u_tint"), 0.5f, 1.0f, 0.75f,
                  1.0f);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    GLuint vbo = 0;
    ctx.GenBuffers(1, &vbo);
    ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
    ctx.BufferData(GL_ARRAY_BUFFER,
                   static_cast<GLsizeiptr>(sizeof(float) * kQuad.size()),
                   kQuad.data(), GL_STATIC_DRAW);
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                            nullptr);
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    ctx.DeleteBuffers(1, &vbo);  // recorded after the draw: draw unaffected
    Observed& o = got[async];
    o.fb = ReadRgba(ctx, kW, kH);
    o.alu = ctx.alu().counts().alu;
    o.error = ctx.GetError();
  }
  EXPECT_EQ(got[1].fb, got[0].fb);
  EXPECT_EQ(got[1].alu, got[0].alu);
  EXPECT_EQ(got[1].error, got[0].error);
  EXPECT_EQ(got[0].error, static_cast<GLenum>(GL_NO_ERROR));
}

// A deferred trapping draw latches its error/reset/diagnostic state for the
// client's next sync point, identically to immediate mode.
TEST(CmdStream, TrapLatchesAtSyncPoint) {
  Observed got[2];
  std::string msg[2];
  GLenum reset[2] = {GL_NO_ERROR, GL_NO_ERROR};
  for (const int async : {1, 0}) {
    Context ctx(MakeConfig(async));
    const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
    const GLuint trap = BuildProgramOrDie(ctx, kPassthroughVs, kTrapFs);
    ctx.UseProgram(clean);
    ctx.Uniform4f(ctx.GetUniformLocation(clean, "u_tint"), 1.0f, 1.0f, 1.0f,
                  1.0f);
    DrawFullscreenQuad(ctx, clean);
    DrawFullscreenQuad(ctx, trap);  // aborts transactionally
    Observed& o = got[async];
    o.error = ctx.GetError();
    reset[async] = ctx.GetGraphicsResetStatus();
    msg[async] = ctx.last_draw_error();
    o.fb = ReadRgba(ctx, kW, kH);
    o.alu = ctx.alu().counts().alu;
  }
  EXPECT_EQ(got[1].error, static_cast<GLenum>(GL_INVALID_OPERATION));
  EXPECT_EQ(got[1].error, got[0].error);
  EXPECT_EQ(reset[1], static_cast<GLenum>(GL_GUILTY_CONTEXT_RESET));
  EXPECT_EQ(reset[1], reset[0]);
  EXPECT_EQ(msg[1], msg[0]);
  EXPECT_NE(msg[1].find("undefined function"), std::string::npos) << msg[1];
  EXPECT_EQ(got[1].fb, got[0].fb);
  EXPECT_EQ(got[1].alu, got[0].alu);
}

// Many live contexts share the one device: interleaved recorded work from
// all of them executes correctly (each context's own list order preserved,
// results independent).
TEST(CmdStream, MultiContextSubmissionIsIsolated) {
  constexpr int kContexts = 8;
  constexpr int kSide = 16;
  std::vector<std::unique_ptr<Context>> ctxs;
  std::vector<GLuint> progs;
  std::vector<GLint> tints;
  for (int i = 0; i < kContexts; ++i) {
    ctxs.push_back(std::make_unique<Context>(
        MakeConfig(/*async=*/1, ExecEngine::kBatchedVm, 1, kSide, kSide)));
    progs.push_back(BuildProgramOrDie(*ctxs.back(), kPassthroughVs,
                                      "precision mediump float;\n"
                                      "uniform vec4 u_tint;\n"
                                      "void main() { gl_FragColor = u_tint; "
                                      "}"));
    ctxs.back()->UseProgram(progs.back());
    tints.push_back(ctxs.back()->GetUniformLocation(progs.back(), "u_tint"));
  }
  // Interleave: every context records one draw per round, nobody joins
  // until the end.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kContexts; ++i) {
      const float v = (i + 1) / static_cast<float>(kContexts);
      ctxs[static_cast<std::size_t>(i)]->Uniform4f(
          tints[static_cast<std::size_t>(i)], v, 1.0f - v, 0.0f, 1.0f);
      DrawFullscreenQuad(*ctxs[static_cast<std::size_t>(i)],
                         progs[static_cast<std::size_t>(i)]);
      ctxs[static_cast<std::size_t>(i)]->Flush();
    }
  }
  for (int i = 0; i < kContexts; ++i) {
    Context& ctx = *ctxs[static_cast<std::size_t>(i)];
    const float v = (i + 1) / static_cast<float>(kContexts);
    const auto px = ReadRgba(ctx, kSide, kSide);
    const int want_r = static_cast<int>(v * 255.0f + 0.5f);
    const int want_g = static_cast<int>((1.0f - v) * 255.0f + 0.5f);
    EXPECT_EQ(px[0], want_r) << "context " << i;
    EXPECT_EQ(px[1], want_g) << "context " << i;
    EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
    const cmd::Stats s = ctx.command_stream_stats();
    EXPECT_EQ(s.lists_executed, s.lists_submitted);
    EXPECT_EQ(s.lists_dropped, 0u);
  }
}

// A draw the recorder cannot capture faithfully (first > 0 over client
// arrays: the snapshot would read bytes immediate mode never touches) falls
// back to sync + inline execution, bit-identically.
TEST(CmdStream, UnrecordableDrawFallsBackInline) {
  Observed got[2];
  cmd::Stats stats{};
  for (const int async : {1, 0}) {
    Context ctx(MakeConfig(async));
    const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
    ctx.UseProgram(p);
    ctx.Uniform4f(ctx.GetUniformLocation(p, "u_tint"), 1.0f, 1.0f, 1.0f, 1.0f);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    // One junk leading vertex; the draw starts at 1.
    const std::array<float, 8> verts = {9.0f, 9.0f, -1.0f, -1.0f,
                                        1.0f, -1.0f, 0.0f,  1.0f};
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                            verts.data());
    ctx.DrawArrays(GL_TRIANGLES, 1, 3);
    Observed& o = got[async];
    o.fb = ReadRgba(ctx, kW, kH);
    o.alu = ctx.alu().counts().alu;
    o.error = ctx.GetError();
    if (async == 1) stats = ctx.command_stream_stats();
  }
  EXPECT_EQ(got[1].fb, got[0].fb);
  EXPECT_EQ(got[1].alu, got[0].alu);
  EXPECT_EQ(got[1].error, got[0].error);
  EXPECT_EQ(got[0].error, static_cast<GLenum>(GL_NO_ERROR));
  EXPECT_GE(stats.inline_syncs, 1u);
}

}  // namespace
}  // namespace mgpu::gles2
