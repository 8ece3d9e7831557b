// End-to-end GL pipeline through the Context API: state, errors, draws,
// uniforms, textures-in-shaders, and the ES 2.0 restrictions the paper
// enumerates (no GL_QUADS, no float data, single output).
#include "gles2/context.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "gles2_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::gles2 {
namespace {

using testutil::BuildProgramOrDie;
using testutil::CompileShaderOrDie;
using testutil::DrawFullscreenQuad;
using testutil::ReadRgba;

ContextConfig SmallConfig(int w = 4, int h = 4) {
  ContextConfig c;
  c.width = w;
  c.height = h;
  return c;
}

TEST(ContextTest, ClearAndReadPixels) {
  Context ctx(SmallConfig());
  ctx.ClearColor(1.0f, 0.5f, 0.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 255);
  EXPECT_EQ(px[1], 128);  // round(0.5 * 255)
  EXPECT_EQ(px[2], 0);
  EXPECT_EQ(px[3], 255);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(ContextTest, SolidColorQuadFillsFramebuffer) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(0.0, "
      "1.0, 0.0, 1.0); }");
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 4, 4);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(px[i * 4 + 0], 0);
    EXPECT_EQ(px[i * 4 + 1], 255);
    EXPECT_EQ(px[i * 4 + 3], 255);
  }
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(ContextTest, VaryingGradientMatchesPixelCenters) {
  Context ctx(SmallConfig(8, 8));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision highp float;\nvarying vec2 v_uv;\nvoid main() { "
      "gl_FragColor = vec4(v_uv, 0.0, 1.0); }");
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const float u = (x + 0.5f) / 8.0f;
      const float v = (y + 0.5f) / 8.0f;
      const int r = px[(y * 8 + x) * 4];
      const int g = px[(y * 8 + x) * 4 + 1];
      EXPECT_EQ(r, static_cast<int>(std::floor(u * 255.0f + 0.5f)));
      EXPECT_EQ(g, static_cast<int>(std::floor(v * 255.0f + 0.5f)));
    }
  }
}

TEST(ContextTest, UniformsAffectDraw) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nuniform vec4 u_color;\nvoid main() { "
      "gl_FragColor = u_color; }");
  ctx.UseProgram(p);
  const GLint loc = ctx.GetUniformLocation(p, "u_color");
  ASSERT_GE(loc, 0);
  ctx.Uniform4f(loc, 0.2f, 0.4f, 0.6f, 0.8f);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 51);
  EXPECT_EQ(px[1], 102);
  EXPECT_EQ(px[2], 153);
  EXPECT_EQ(px[3], 204);
}

TEST(ContextTest, UniformArrayElements) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nuniform float u_k[3];\nvoid main() { "
      "gl_FragColor = vec4(u_k[0], u_k[1], u_k[2], 1.0); }");
  ctx.UseProgram(p);
  const GLint base = ctx.GetUniformLocation(p, "u_k");
  const GLint e2 = ctx.GetUniformLocation(p, "u_k[2]");
  ASSERT_GE(base, 0);
  ASSERT_EQ(e2, base + 2);
  const float all[3] = {0.1f, 0.2f, 0.3f};
  ctx.Uniform1fv(base, 3, all);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 26);
  EXPECT_EQ(px[1], 51);
  EXPECT_EQ(px[2], 77);
}

// ES 2.0 §2.10.4: Uniform*f loads bool and bvec uniforms too, 0.0f (and
// -0.0f) as false and anything else as true; int and sampler uniforms
// still take only Uniform*i.
TEST(ContextTest, FloatSettersLoadBoolUniforms) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nuniform bool u_on;\nuniform bvec2 u_mask;\n"
      "uniform int u_n;\nuniform sampler2D u_tex;\nvoid main() {\n"
      "  float a = texture2D(u_tex, vec2(0.5)).a * float(u_n);\n"
      "  gl_FragColor = vec4(u_on ? 1.0 : 0.0, u_mask.x ? 1.0 : 0.0,\n"
      "                      u_mask.y ? 1.0 : 0.0, a);\n}\n");
  ctx.UseProgram(p);
  const GLint on = ctx.GetUniformLocation(p, "u_on");
  const GLint mask = ctx.GetUniformLocation(p, "u_mask");
  const GLint n = ctx.GetUniformLocation(p, "u_n");
  const GLint tex = ctx.GetUniformLocation(p, "u_tex");
  ASSERT_GE(on, 0);
  ASSERT_GE(mask, 0);
  ASSERT_GE(n, 0);
  ASSERT_GE(tex, 0);
  ctx.Uniform1i(n, 1);
  ctx.Uniform1f(on, 0.5f);
  ctx.Uniform2f(mask, 0.0f, -2.0f);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  DrawFullscreenQuad(ctx, p);
  auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 255);
  EXPECT_EQ(px[1], 0);
  EXPECT_EQ(px[2], 255);
  EXPECT_EQ(px[3], 255);

  ctx.Uniform1f(on, -0.0f);
  const float fv[2] = {std::numeric_limits<float>::quiet_NaN(), 0.0f};
  ctx.Uniform2fv(mask, 1, fv);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  DrawFullscreenQuad(ctx, p);
  px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 0);
  EXPECT_EQ(px[1], 255);
  EXPECT_EQ(px[2], 0);

  ctx.Uniform1i(on, 1);  // the int setter still loads a bool
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  ctx.Uniform1f(n, 1.0f);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  ctx.Uniform1f(tex, 0.0f);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  ctx.Uniform2f(on, 1.0f, 1.0f);  // component count still has to match
  EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
}

TEST(ContextTest, TextureSamplingInFragmentShader) {
  Context ctx(SmallConfig(2, 2));
  GLuint tex;
  ctx.GenTextures(1, &tex);
  ctx.ActiveTexture(GL_TEXTURE0 + 1);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  const std::vector<std::uint8_t> data = {
      10, 0, 0, 255, 20, 0, 0, 255,
      30, 0, 0, 255, 40, 0, 0, 255,
  };
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 2, 2, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, data.data());
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvarying vec2 v_uv;\nuniform sampler2D "
      "u_tex;\nvoid main() { gl_FragColor = texture2D(u_tex, v_uv); }");
  ctx.UseProgram(p);
  ctx.Uniform1i(ctx.GetUniformLocation(p, "u_tex"), 1);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 2, 2);
  EXPECT_EQ(px[0 * 4], 10);
  EXPECT_EQ(px[1 * 4], 20);
  EXPECT_EQ(px[2 * 4], 30);
  EXPECT_EQ(px[3 * 4], 40);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(ContextTest, QuadPrimitiveRejected) {
  // Paper limitation #2: only triangles (and points/lines) exist in ES 2.0.
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  constexpr GLenum kDesktopGlQuads = 0x0007;
  ctx.DrawArrays(kDesktopGlQuads, 0, 4);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
}

TEST(ContextTest, FloatTextureUploadSetsError) {
  Context ctx(SmallConfig());
  GLuint tex;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  const float data[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 1, 1, 0, GL_RGBA, GL_FLOAT, data);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
}

TEST(ContextTest, ReadPixelsOnlyRgbaUnsignedByte) {
  // Paper limitation #7 context: the readback path is byte-RGBA only.
  Context ctx(SmallConfig());
  std::vector<float> fdata(16 * 4);
  ctx.ReadPixels(0, 0, 4, 4, GL_RGBA, GL_FLOAT, fdata.data());
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);

  // Negative sizes are GL_INVALID_VALUE and write nothing.
  ctx.ClearColor(1.0f, 1.0f, 1.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  std::vector<std::uint8_t> out(16, 0xab);
  ctx.ReadPixels(0, 0, -1, 2, GL_RGBA, GL_UNSIGNED_BYTE, out.data());
  EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE);
  ctx.ReadPixels(0, 0, 2, -1, GL_RGBA, GL_UNSIGNED_BYTE, out.data());
  EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE);
  EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0xab));

  // A window whose far edge lies past INT_MAX reads as outside the
  // framebuffer (zeros), without int overflow.
  ctx.ReadPixels(std::numeric_limits<GLint>::max() - 1, 0, 4, 1, GL_RGBA,
                 GL_UNSIGNED_BYTE, out.data());
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0));
}

TEST(ContextTest, MissingVertexShaderFailsLink) {
  // Paper challenge 1: ES 2.0 requires BOTH programmable stages.
  Context ctx(SmallConfig());
  const GLuint fs = CompileShaderOrDie(
      ctx, GL_FRAGMENT_SHADER,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  const GLuint p = ctx.CreateProgram();
  ctx.AttachShader(p, fs);
  ctx.LinkProgram(p);
  GLint ok = GL_TRUE;
  ctx.GetProgramiv(p, GL_LINK_STATUS, &ok);
  EXPECT_EQ(ok, GL_FALSE);
  EXPECT_TRUE(Contains(ctx.GetProgramInfoLog(p), "vertex"));
}

TEST(ContextTest, VaryingTypeMismatchFailsLink) {
  Context ctx(SmallConfig());
  const GLuint vs = CompileShaderOrDie(
      ctx, GL_VERTEX_SHADER,
      "attribute vec2 a_pos;\nvarying vec2 v_x;\nvoid main() { v_x = a_pos; "
      "gl_Position = vec4(a_pos, 0.0, 1.0); }");
  const GLuint fs = CompileShaderOrDie(
      ctx, GL_FRAGMENT_SHADER,
      "precision mediump float;\nvarying vec3 v_x;\nvoid main() { "
      "gl_FragColor = vec4(v_x, 1.0); }");
  const GLuint p = ctx.CreateProgram();
  ctx.AttachShader(p, vs);
  ctx.AttachShader(p, fs);
  ctx.LinkProgram(p);
  GLint ok = GL_TRUE;
  ctx.GetProgramiv(p, GL_LINK_STATUS, &ok);
  EXPECT_EQ(ok, GL_FALSE);
}

// ES 2.0: an index at or past GL_MAX_VERTEX_ATTRIBS is GL_INVALID_VALUE at
// the call and records no binding, so it cannot fail the link later.
TEST(ContextTest, BindAttribLocationRejectsOutOfRangeIndex) {
  Context ctx(SmallConfig());
  GLint max_attribs = 0;
  ctx.GetIntegerv(GL_MAX_VERTEX_ATTRIBS, &max_attribs);
  const GLuint vs =
      CompileShaderOrDie(ctx, GL_VERTEX_SHADER, testutil::kPassthroughVs);
  const GLuint fs = CompileShaderOrDie(
      ctx, GL_FRAGMENT_SHADER,
      "precision mediump float;\nvarying vec2 v_uv;\nvoid main() { "
      "gl_FragColor = vec4(v_uv, 0.0, 1.0); }");
  const GLuint p = ctx.CreateProgram();
  ctx.AttachShader(p, vs);
  ctx.AttachShader(p, fs);
  ctx.BindAttribLocation(p, 3, "a_pos");
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  ctx.BindAttribLocation(p, static_cast<GLuint>(max_attribs), "a_pos");
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_INVALID_VALUE));
  ctx.LinkProgram(p);
  GLint ok = GL_FALSE;
  ctx.GetProgramiv(p, GL_LINK_STATUS, &ok);
  EXPECT_EQ(ok, GL_TRUE) << ctx.GetProgramInfoLog(p);
  EXPECT_EQ(ctx.GetAttribLocation(p, "a_pos"), 3);
}

TEST(ContextTest, CompileErrorReportedInInfoLog) {
  Context ctx(SmallConfig());
  const GLuint s = ctx.CreateShader(GL_FRAGMENT_SHADER);
  ctx.ShaderSource(s, "void main() { gl_FragColor = 1.0; }");
  ctx.CompileShader(s);
  GLint ok = GL_TRUE;
  ctx.GetShaderiv(s, GL_COMPILE_STATUS, &ok);
  EXPECT_EQ(ok, GL_FALSE);
  EXPECT_FALSE(ctx.GetShaderInfoLog(s).empty());
}

TEST(ContextTest, GlFragDataZeroWorksAsOutput) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragData[0] = vec4(0.0, "
      "0.0, 1.0, 1.0); }");
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[2], 255);
}

// Paper challenge 8: one fragment output. Static use decides, so a use in
// a function main never calls counts too.
TEST(ContextTest, BothFragmentOutputsFailToLink) {
  for (const char* fs : {
           "precision mediump float;\nvoid main() { gl_FragColor = "
           "vec4(1.0); gl_FragData[0] = vec4(0.5); }",
           "precision mediump float;\nvoid unused() { gl_FragData[0] = "
           "vec4(0.5); }\nvoid main() { gl_FragColor = vec4(1.0); }",
       }) {
    SCOPED_TRACE(fs);
    Context ctx(SmallConfig());
    const GLuint p = ctx.CreateProgram();
    ctx.AttachShader(p, CompileShaderOrDie(ctx, GL_VERTEX_SHADER,
                                           testutil::kPassthroughVs));
    ctx.AttachShader(p, CompileShaderOrDie(ctx, GL_FRAGMENT_SHADER, fs));
    ctx.LinkProgram(p);
    GLint ok = GL_TRUE;
    ctx.GetProgramiv(p, GL_LINK_STATUS, &ok);
    EXPECT_EQ(ok, GL_FALSE);
    EXPECT_TRUE(Contains(ctx.GetProgramInfoLog(p), "gl_FragData"))
        << ctx.GetProgramInfoLog(p);
  }
}

TEST(ContextTest, FragDataAloneLinksAndDraws) {
  Context ctx(SmallConfig());
  const GLuint p = ctx.CreateProgram();
  ctx.AttachShader(p, CompileShaderOrDie(ctx, GL_VERTEX_SHADER,
                                         testutil::kPassthroughVs));
  ctx.AttachShader(
      p, CompileShaderOrDie(ctx, GL_FRAGMENT_SHADER,
                            "precision mediump float;\nvoid main() { "
                            "gl_FragData[0] = vec4(0.0, 1.0, 0.0, 1.0); }"));
  ctx.LinkProgram(p);
  GLint ok = GL_FALSE;
  ctx.GetProgramiv(p, GL_LINK_STATUS, &ok);
  ASSERT_EQ(ok, GL_TRUE) << ctx.GetProgramInfoLog(p);
  DrawFullscreenQuad(ctx, p);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  const auto px = ReadRgba(ctx, 4, 4);
  for (std::size_t i = 0; i < px.size(); i += 4) {
    EXPECT_EQ(px[i + 0], 0);
    EXPECT_EQ(px[i + 1], 255);
    EXPECT_EQ(px[i + 3], 255);
  }
}

// A line with a vertex a billion viewport widths away walks only the
// columns that can land a pixel in the target, and lights every one.
TEST(ContextTest, LinesFarOutsideViewportDrawOnlyTheirVisibleRows) {
  Context ctx(SmallConfig(8, 8));
  const GLuint p = BuildProgramOrDie(
      ctx,
      "attribute vec2 a_pos;\nvoid main() { gl_Position = vec4(a_pos, 0.0, "
      "1.0); }",
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  // NDC y -0.5, 0 and 0.5 are window rows 2, 4 and 6; each horizontal
  // line gets one pixel in every column it crosses.
  constexpr float kFar = 1073741824.0f;  // 2^30
  const std::array<float, 12> lines = {-1.0f, 0.0f,  1e9f,  0.0f,
                                       -1e9f, -0.5f, 1.0f,  -0.5f,
                                       -kFar, 0.5f,  kFar,  0.5f};
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          lines.data());
  ctx.DrawArrays(GL_LINES, 0, 6);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  const auto px = ReadRgba(ctx, 8, 8);
  for (int y = 0; y < 8; ++y) {
    int lit = 0;
    for (int x = 0; x < 8; ++x) {
      lit += px[static_cast<std::size_t>((y * 8 + x) * 4)] == 255 ? 1 : 0;
    }
    SCOPED_TRACE(StrFormat("row %d", y));
    if (y == 2 || y == 4 || y == 6) {
      EXPECT_EQ(lit, 8);
    } else {
      EXPECT_EQ(lit, 0);
    }
  }
}

TEST(ContextTest, ScissorRestrictsDraw) {
  Context ctx(SmallConfig(4, 4));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.Enable(GL_SCISSOR_TEST);
  ctx.Scissor(0, 0, 2, 2);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[(0 * 4 + 0) * 4], 255);
  EXPECT_EQ(px[(0 * 4 + 1) * 4], 255);
  EXPECT_EQ(px[(0 * 4 + 2) * 4], 0);
  EXPECT_EQ(px[(3 * 4 + 3) * 4], 0);
}

// A scissor box whose end lies past INT_MAX holds no framebuffer pixel:
// neither a Clear nor a draw may touch one (nor overflow computing it).
TEST(ContextTest, ScissorBoxEndingPastIntMaxTouchesNoPixel) {
  Context ctx(SmallConfig(8, 8));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.ClearColor(0.0f, 0.0f, 1.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  const auto before = ReadRgba(ctx, 8, 8);
  constexpr GLint kMax = std::numeric_limits<GLint>::max();
  ctx.Enable(GL_SCISSOR_TEST);
  ctx.ClearColor(1.0f, 0.0f, 0.0f, 1.0f);
  for (const std::array<GLint, 4>& box :
       {std::array<GLint, 4>{kMax - 1, 0, kMax, 8},
        std::array<GLint, 4>{0, kMax - 1, 8, kMax}}) {
    SCOPED_TRACE(StrFormat("scissor %d %d %d %d", box[0], box[1], box[2],
                           box[3]));
    ctx.Scissor(box[0], box[1], box[2], box[3]);
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    EXPECT_EQ(ReadRgba(ctx, 8, 8), before) << "Clear";
    DrawFullscreenQuad(ctx, p);
    EXPECT_EQ(ReadRgba(ctx, 8, 8), before) << "draw";
  }
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

// Viewport clamps its size to GL_MAX_VIEWPORT_DIMS, and a viewport whose
// device coordinates lie past INT_MAX draws nothing instead of casting them
// to int out of range.
TEST(ContextTest, ViewportPastIntMaxIsClampedAndDrawsNothing) {
  Context ctx(SmallConfig(8, 8));
  GLint dims[2] = {0, 0};
  ctx.GetIntegerv(GL_MAX_VIEWPORT_DIMS, dims);
  EXPECT_GE(dims[0], 8);
  EXPECT_EQ(dims[0], dims[1]);
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.ClearColor(0.0f, 0.0f, 1.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  const auto before = ReadRgba(ctx, 8, 8);
  constexpr GLint kMax = std::numeric_limits<GLint>::max();
  for (const std::array<GLint, 4>& box :
       {std::array<GLint, 4>{kMax - 1, 0, kMax, 8},
        std::array<GLint, 4>{0, kMax - 1, 8, kMax}}) {
    SCOPED_TRACE(StrFormat("viewport %d %d %d %d", box[0], box[1], box[2],
                           box[3]));
    ctx.Viewport(box[0], box[1], box[2], box[3]);
    GLint vp[4] = {0, 0, 0, 0};
    ctx.GetIntegerv(GL_VIEWPORT, vp);
    EXPECT_EQ(vp[0], box[0]);
    EXPECT_EQ(vp[1], box[1]);
    EXPECT_EQ(vp[2], std::min(box[2], dims[0]));
    EXPECT_EQ(vp[3], std::min(box[3], dims[1]));
    DrawFullscreenQuad(ctx, p);
    EXPECT_EQ(ReadRgba(ctx, 8, 8), before);
  }
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(ContextTest, DepthTestKeepsNearestFragment) {
  Context ctx(SmallConfig(2, 2));
  const GLuint p = BuildProgramOrDie(
      ctx,
      "attribute vec3 a_pos;\nvoid main() { gl_Position = vec4(a_pos, 1.0); "
      "}",
      "precision mediump float;\nuniform vec4 u_c;\nvoid main() { "
      "gl_FragColor = u_c; }");
  ctx.UseProgram(p);
  ctx.Enable(GL_DEPTH_TEST);
  ctx.Clear(GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT);
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  const GLint c = ctx.GetUniformLocation(p, "u_c");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  // Near quad (z = 0) drawn first, red.
  const float near_quad[] = {-1, -1, 0, 1, -1, 0, 1, 1, 0,
                             -1, -1, 0, 1, 1, 0, -1, 1, 0};
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 3, GL_FLOAT, GL_FALSE, 0,
                          near_quad);
  ctx.Uniform4f(c, 1.0f, 0.0f, 0.0f, 1.0f);
  ctx.DrawArrays(GL_TRIANGLES, 0, 6);
  // Far quad (z = 0.5) drawn second, blue: must lose the depth test.
  const float far_quad[] = {-1, -1, 0.5f, 1, -1, 0.5f, 1, 1, 0.5f,
                            -1, -1, 0.5f, 1, 1, 0.5f, -1, 1, 0.5f};
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 3, GL_FLOAT, GL_FALSE, 0,
                          far_quad);
  ctx.Uniform4f(c, 0.0f, 0.0f, 1.0f, 1.0f);
  ctx.DrawArrays(GL_TRIANGLES, 0, 6);
  const auto px = ReadRgba(ctx, 2, 2);
  EXPECT_EQ(px[0], 255);
  EXPECT_EQ(px[2], 0);
}

TEST(ContextTest, BlendingAdds) {
  Context ctx(SmallConfig(1, 1));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nuniform vec4 u_c;\nvoid main() { "
      "gl_FragColor = u_c; }");
  ctx.UseProgram(p);
  const GLint c = ctx.GetUniformLocation(p, "u_c");
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_ONE, GL_ONE);
  ctx.Uniform4f(c, 0.25f, 0.0f, 0.0f, 1.0f);
  DrawFullscreenQuad(ctx, p);
  ctx.Uniform4f(c, 0.25f, 0.0f, 0.0f, 1.0f);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 1, 1);
  EXPECT_NEAR(px[0], 128, 1);
}

TEST(ContextTest, ColorMaskSuppressesChannels) {
  Context ctx(SmallConfig(1, 1));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.ColorMask(GL_TRUE, GL_FALSE, GL_TRUE, GL_FALSE);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 1, 1);
  EXPECT_EQ(px[0], 255);
  EXPECT_EQ(px[1], 0);
  EXPECT_EQ(px[2], 255);
  EXPECT_EQ(px[3], 0);
}

// Client vertex and index arrays are read during the call: clobbering them
// after it returns leaves the framebuffer untouched.
TEST(ContextTest, DrawElementsWithIndices) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  std::array<float, 8> verts = {-1, -1, 1, -1, 1, 1, -1, 1};
  std::array<std::uint8_t, 6> idx = {0, 1, 2, 0, 2, 3};
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          verts.data());
  ctx.DrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_BYTE, idx.data());
  verts.fill(0.0f);
  idx.fill(0);
  const auto px = ReadRgba(ctx, 4, 4);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(px[i * 4], 255) << i;
}

TEST(ContextTest, VboVertexFetch) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  GLuint vbo;
  ctx.GenBuffers(1, &vbo);
  ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
  ctx.BufferData(GL_ARRAY_BUFFER, sizeof(float) * 12,
                 testutil::kQuad.data(), GL_STATIC_DRAW);
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          nullptr);  // offset 0 into VBO
  ctx.DrawArrays(GL_TRIANGLES, 0, 6);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 255);
}

const char* EngineName(ExecEngine engine) {
  switch (engine) {
    case ExecEngine::kBatchedVm: return "batched";
    case ExecEngine::kBytecodeVm: return "scalar-vm";
    case ExecEngine::kTreeWalk: return "tree";
    default: return "other";
  }
}

constexpr ExecEngine kEngines[] = {ExecEngine::kBatchedVm,
                                   ExecEngine::kBytecodeVm,
                                   ExecEngine::kTreeWalk};

// ES 2.0 §3.7.7 with no derivatives: the level of detail is the vertex
// stage's explicit lod or the fragment stage's bias, and a positive one
// minifies (MIN_FILTER) while any other magnifies (MAG_FILTER). The 2x1
// texture (red 0 and 200) is MIN LINEAR / MAG NEAREST, read at its center:
// the bilinear blend is 100, the nearest texel 200. Every engine and
// worker count agrees; the 128x128 target is four tiles, so four workers
// all shade.
TEST(ContextTest, LodAndBiasPickMinOrMagFilter) {
  constexpr char kLodVs[] = R"(
attribute vec2 a_pos;
uniform sampler2D u_tex;
uniform float u_lod;
varying vec4 v_texel;
void main() {
  v_texel = texture2DLod(u_tex, vec2(0.5, 0.5), u_lod);
  gl_Position = vec4(a_pos, 0.0, 1.0);
}
)";
  constexpr char kLodFs[] =
      "precision mediump float;\nvarying vec4 v_texel;\n"
      "void main() { gl_FragColor = v_texel; }";
  constexpr char kBiasFs[] =
      "precision mediump float;\nuniform sampler2D u_tex;\n"
      "uniform float u_bias;\nvoid main() {\n"
      "  gl_FragColor = texture2D(u_tex, vec2(0.5, 0.5), u_bias);\n}";
  constexpr int kSize = 128;
  const std::vector<std::uint8_t> texels = {0, 0, 0, 255, 200, 0, 0, 255};
  for (const ExecEngine engine : kEngines) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(StrFormat("%s threads=%d", EngineName(engine), threads));
      ContextConfig cfg = SmallConfig(kSize, kSize);
      cfg.exec_engine = engine;
      cfg.shader_threads = threads;
      Context ctx(cfg);
      GLuint tex;
      ctx.GenTextures(1, &tex);
      ctx.BindTexture(GL_TEXTURE_2D, tex);
      ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 2, 1, 0, GL_RGBA,
                     GL_UNSIGNED_BYTE, texels.data());
      ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_LINEAR);
      ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
      const GLuint lod_prog = BuildProgramOrDie(ctx, kLodVs, kLodFs);
      const GLuint bias_prog =
          BuildProgramOrDie(ctx, testutil::kPassthroughVs, kBiasFs);
      // Draws `prog` with `level` as its lod or bias and checks every
      // pixel's red byte.
      const auto expect_red = [&](GLuint prog, const char* uniform,
                                  float level, std::uint8_t red) {
        SCOPED_TRACE(StrFormat("%s=%g", uniform, level));
        ctx.UseProgram(prog);
        ctx.Uniform1f(ctx.GetUniformLocation(prog, uniform), level);
        DrawFullscreenQuad(ctx, prog);
        EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
        const std::vector<std::uint8_t> px = ReadRgba(ctx, kSize, kSize);
        int wrong = 0;
        for (std::size_t i = 0; i < px.size(); i += 4) wrong += px[i] != red;
        EXPECT_EQ(wrong, 0) << "first pixel reads " << int{px[0]};
      };
      expect_red(lod_prog, "u_lod", 2.0f, 100);
      expect_red(bias_prog, "u_bias", 1.0f, 100);
      for (const float level : {0.0f, -1.0f}) {
        expect_red(lod_prog, "u_lod", level, 200);
        expect_red(bias_prog, "u_bias", level, 200);
      }
    }
  }
}

// Attribute fetches from a VBO must be validated against the buffer store
// at draw time: a range that runs past the end fails the draw with
// GL_INVALID_OPERATION instead of reading out-of-bounds heap memory. Every
// engine runs the same gather at its own lane width and must agree.
TEST(ContextTest, VboDrawBeyondBufferSetsErrorNotOob) {
  for (const ExecEngine engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    ContextConfig cfg = SmallConfig();
    cfg.exec_engine = engine;
    Context ctx(cfg);
    const GLuint p = BuildProgramOrDie(
        ctx, testutil::kPassthroughVs,
        "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
    ctx.UseProgram(p);
    GLuint vbo;
    ctx.GenBuffers(1, &vbo);
    ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
    // Room for exactly 4 vec2 vertices (32 bytes).
    ctx.BufferData(GL_ARRAY_BUFFER, sizeof(float) * 8, testutil::kQuad.data(),
                   GL_STATIC_DRAW);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE,
                            0, nullptr);
    ctx.ClearColor(0.0f, 0.0f, 1.0f, 1.0f);
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    const auto before = ReadRgba(ctx, 4, 4);

    // 6 vertices from a 4-vertex store: vertex 4 would read past the end.
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
    EXPECT_EQ(ReadRgba(ctx, 4, 4), before) << "aborted draw touched pixels";

    // The last in-bounds window still draws.
    ctx.DrawArrays(GL_TRIANGLES, 0, 3);
    EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  }
}

// An attribute offset past the end of the store must fail the same way —
// the offset alone can place every fetch out of bounds.
TEST(ContextTest, VboAttribOffsetBeyondBufferSetsError) {
  for (const ExecEngine engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    ContextConfig cfg = SmallConfig();
    cfg.exec_engine = engine;
    Context ctx(cfg);
    const GLuint p = BuildProgramOrDie(
        ctx, testutil::kPassthroughVs,
        "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
    ctx.UseProgram(p);
    GLuint vbo;
    ctx.GenBuffers(1, &vbo);
    ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
    ctx.BufferData(GL_ARRAY_BUFFER, sizeof(float) * 12,
                   testutil::kQuad.data(), GL_STATIC_DRAW);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(
        static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
        reinterpret_cast<const void*>(static_cast<std::uintptr_t>(1 << 20)));
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  }
}

// The bounds gate runs before any vertex shades, so a too-short VBO wins
// over a vertex shader that would trap: every engine reports the fetch
// failure alone — GL_INVALID_OPERATION, no reset, no draw error — and
// leaves the framebuffer untouched.
TEST(ContextTest, ShortVboBeatsVertexTrapOnEveryEngine) {
  // `poison` is declared but never defined: calling it traps.
  constexpr char kTrapVs[] = R"(
attribute vec2 a_pos;
varying vec2 v_uv;
float poison(float x);
void main() {
  v_uv = a_pos * 0.5 + 0.5;
  gl_Position = vec4(a_pos * poison(a_pos.x), 0.0, 1.0);
}
)";
  for (const ExecEngine engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    ContextConfig cfg = SmallConfig();
    cfg.exec_engine = engine;
    Context ctx(cfg);
    const GLuint p = BuildProgramOrDie(
        ctx, kTrapVs,
        "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
    ctx.UseProgram(p);
    GLuint vbo;
    ctx.GenBuffers(1, &vbo);
    ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
    // Room for exactly 4 vec2 vertices; the draw reads 6.
    ctx.BufferData(GL_ARRAY_BUFFER, sizeof(float) * 8, testutil::kQuad.data(),
                   GL_STATIC_DRAW);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE,
                            0, nullptr);
    ctx.ClearColor(0.0f, 0.0f, 1.0f, 1.0f);
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    const auto before = ReadRgba(ctx, 4, 4);

    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
    EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_NO_ERROR);
    EXPECT_EQ(ctx.last_draw_error(), "");
    EXPECT_EQ(ReadRgba(ctx, 4, 4), before) << "aborted draw touched pixels";
  }
}

// Index fetches from an element-array VBO get the same draw-time check.
TEST(ContextTest, DrawElementsIndexRangeBeyondBufferSetsError) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  const float verts[] = {-1, -1, 1, -1, 1, 1, -1, 1};
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          verts);
  GLuint ibo;
  ctx.GenBuffers(1, &ibo);
  ctx.BindBuffer(GL_ELEMENT_ARRAY_BUFFER, ibo);
  const std::uint8_t idx[] = {0, 1, 2};
  ctx.BufferData(GL_ELEMENT_ARRAY_BUFFER, 3, idx, GL_STATIC_DRAW);
  // 6 indices from a 3-byte store.
  ctx.DrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_BYTE, nullptr);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  // In-bounds count is fine.
  ctx.DrawElements(GL_TRIANGLES, 3, GL_UNSIGNED_BYTE, nullptr);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

// Deleting a buffer detaches it from every attribute binding: a later draw
// fails cleanly (GL_INVALID_OPERATION, no fetch through the stale id), while
// pixels an earlier draw wrote from it stay.
TEST(ContextTest, DeletedBufferDetachesFromAttribBinding) {
  for (const ExecEngine engine :
       {ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm}) {
    SCOPED_TRACE(engine == ExecEngine::kBatchedVm ? "batched" : "scalar-vm");
    ContextConfig cfg = SmallConfig();
    cfg.exec_engine = engine;
    Context ctx(cfg);
    const GLuint p = BuildProgramOrDie(
        ctx, testutil::kPassthroughVs,
        "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
    ctx.UseProgram(p);
    GLuint vbo;
    ctx.GenBuffers(1, &vbo);
    ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
    ctx.BufferData(GL_ARRAY_BUFFER, sizeof(float) * 12,
                   testutil::kQuad.data(), GL_STATIC_DRAW);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE,
                            0, nullptr);
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    const auto drawn = ReadRgba(ctx, 4, 4);
    ASSERT_EQ(drawn[0], 255);
    ctx.DeleteBuffers(1, &vbo);
    EXPECT_EQ(ReadRgba(ctx, 4, 4), drawn);
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  }
}

// Deleting a texture detaches it from framebuffer attachments: the FBO
// reports missing-attachment instead of resolving the stale id (which a
// later GenTextures could otherwise recycle into the wrong image).
TEST(ContextTest, DeletedTextureDetachesFromFramebuffer) {
  Context ctx(SmallConfig());
  GLuint tex;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  std::vector<std::uint8_t> texels(4 * 4 * 4, 200);
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 4, 4, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, texels.data());
  GLuint fbo;
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex, 0);
  ASSERT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            static_cast<GLenum>(GL_FRAMEBUFFER_COMPLETE));
  ctx.DeleteTextures(1, &tex);
  EXPECT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            static_cast<GLenum>(GL_FRAMEBUFFER_INCOMPLETE_MISSING_ATTACHMENT));
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

// Same detach contract for renderbuffer attachments.
TEST(ContextTest, DeletedRenderbufferDetachesFromFramebuffer) {
  Context ctx(SmallConfig());
  GLuint rb;
  ctx.GenRenderbuffers(1, &rb);
  ctx.BindRenderbuffer(GL_RENDERBUFFER, rb);
  ctx.RenderbufferStorage(GL_RENDERBUFFER, GL_RGB565, 4, 4);
  GLuint fbo;
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  ctx.FramebufferRenderbuffer(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                              GL_RENDERBUFFER, rb);
  ASSERT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            static_cast<GLenum>(GL_FRAMEBUFFER_COMPLETE));
  ctx.DeleteRenderbuffers(1, &rb);
  EXPECT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            static_cast<GLenum>(GL_FRAMEBUFFER_INCOMPLETE_MISSING_ATTACHMENT));
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

// BufferSubData's range check must not overflow: a range whose end lies
// past INTPTR_MAX is GL_INVALID_VALUE and leaves the store untouched.
TEST(ContextTest, BufferSubDataHugeRangeSetsInvalidValue) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  GLuint vbo;
  ctx.GenBuffers(1, &vbo);
  ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
  constexpr GLsizeiptr kBytes = sizeof(float) * 12;
  ctx.BufferData(GL_ARRAY_BUFFER, kBytes, testutil::kQuad.data(),
                 GL_STATIC_DRAW);
  const std::vector<std::uint8_t> junk(16, 0xff);
  constexpr GLintptr kMax = std::numeric_limits<GLintptr>::max();
  ctx.BufferSubData(GL_ARRAY_BUFFER, kMax, 1, junk.data());
  EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE);
  ctx.BufferSubData(GL_ARRAY_BUFFER, 1, kMax, junk.data());
  EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE);
  ctx.BufferSubData(GL_ARRAY_BUFFER, kBytes, 1, junk.data());
  EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE);
  ctx.BufferSubData(GL_ARRAY_BUFFER, kBytes, 0, junk.data());
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);

  // The untouched quad still covers every pixel.
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          nullptr);
  ctx.DrawArrays(GL_TRIANGLES, 0, 6);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  const auto px = ReadRgba(ctx, 4, 4);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(px[i * 4], 255) << "pixel " << i;
}

// A buffer call names GL_ARRAY_BUFFER or GL_ELEMENT_ARRAY_BUFFER, and
// BufferData one of the three usage hints; anything else is
// GL_INVALID_ENUM and leaves both bound stores as they were.
TEST(ContextTest, BufferCallsRejectBadTargetAndUsageWithoutEffect) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  GLuint bufs[2];
  ctx.GenBuffers(2, bufs);
  ctx.BindBuffer(GL_ARRAY_BUFFER, bufs[0]);
  ctx.BufferData(GL_ARRAY_BUFFER, sizeof(float) * 12, testutil::kQuad.data(),
                 GL_STATIC_DRAW);
  ctx.BindBuffer(GL_ELEMENT_ARRAY_BUFFER, bufs[1]);
  const std::uint8_t idx[] = {0, 1, 2, 3, 4, 5};
  ctx.BufferData(GL_ELEMENT_ARRAY_BUFFER, sizeof idx, idx, GL_DYNAMIC_DRAW);
  ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);

  const std::vector<std::uint8_t> junk(64, 0xff);
  ctx.BufferData(GL_TEXTURE_2D, 64, junk.data(), GL_STATIC_DRAW);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
  ctx.BufferSubData(GL_TEXTURE_2D, 0, 4, junk.data());
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
  ctx.BufferData(GL_ARRAY_BUFFER, 64, junk.data(), GL_TEXTURE_2D);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
  ctx.BufferData(GL_ELEMENT_ARRAY_BUFFER, 64, junk.data(), 0);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);

  // Both stores are intact: the indexed quad still covers every pixel.
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          nullptr);
  ctx.DrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_BYTE, nullptr);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  const auto px = ReadRgba(ctx, 4, 4);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(px[i * 4], 255) << "pixel " << i;
}

// A negative size, or one above the implementation's maximum, is
// GL_INVALID_VALUE and leaves the renderbuffer's storage and contents as
// they were.
TEST(ContextTest, RenderbufferStorageRejectsBadSizesWithoutEffect) {
  ContextConfig cfg = SmallConfig();
  cfg.max_texture_size = 64;
  Context ctx(cfg);
  GLuint rb;
  ctx.GenRenderbuffers(1, &rb);
  ctx.BindRenderbuffer(GL_RENDERBUFFER, rb);
  ctx.RenderbufferStorage(GL_RENDERBUFFER, GL_RGBA4, 4, 4);
  GLuint fbo;
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  ctx.FramebufferRenderbuffer(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                              GL_RENDERBUFFER, rb);
  ctx.ClearColor(1.0f, 0.0f, 0.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
  const auto before = ReadRgba(ctx, 4, 4);

  constexpr GLsizei kMin = std::numeric_limits<GLsizei>::min();
  const std::array<std::pair<GLsizei, GLsizei>, 5> sizes = {
      {{-1, 1}, {1, -1}, {kMin, 4}, {65, 1}, {1, 65}}};
  for (const GLenum format : {GL_RGBA4, GL_DEPTH_COMPONENT16}) {
    for (const auto& [w, h] : sizes) {
      SCOPED_TRACE(StrFormat("format 0x%x, %d x %d", format, w, h));
      ctx.RenderbufferStorage(GL_RENDERBUFFER, format, w, h);
      EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE);
    }
  }
  // The 4x4 storage and its contents survive every rejected call.
  EXPECT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            static_cast<GLenum>(GL_FRAMEBUFFER_COMPLETE));
  EXPECT_EQ(ReadRgba(ctx, 4, 4), before);
  ctx.RenderbufferStorage(GL_RENDERBUFFER, GL_RGBA4, 64, 64);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR) << "the maximum itself is valid";
}

// ES 2.0: a negative count is GL_INVALID_VALUE, and the call changes no
// state — no ids written, no object deleted, no uniform stored.
TEST(ContextTest, NegativeCountsSetInvalidValueWithoutEffect) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nuniform vec4 u_color;\nvoid main() { "
      "gl_FragColor = u_color; }");
  ctx.UseProgram(p);
  const GLint loc = ctx.GetUniformLocation(p, "u_color");
  ASSERT_GE(loc, 0);
  ctx.Uniform4f(loc, 0.2f, 0.4f, 0.6f, 0.8f);
  GLuint buf, tex, rb, fb_tex, fb_rb;
  ctx.GenBuffers(1, &buf);
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 4, 4, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, nullptr);
  ctx.GenRenderbuffers(1, &rb);
  ctx.BindRenderbuffer(GL_RENDERBUFFER, rb);
  ctx.RenderbufferStorage(GL_RENDERBUFFER, GL_RGB565, 4, 4);
  ctx.GenFramebuffers(1, &fb_tex);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fb_tex);
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex, 0);
  ctx.GenFramebuffers(1, &fb_rb);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fb_rb);
  ctx.FramebufferRenderbuffer(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                              GL_RENDERBUFFER, rb);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, 0);
  ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);

  constexpr GLuint kSentinel = 0xdeadbeefu;
  GLuint out = kSentinel;
  const std::array<float, 16> junk{};
  const std::pair<const char*, std::function<void()>> calls[] = {
      {"Uniform1fv", [&] { ctx.Uniform1fv(loc, -1, junk.data()); }},
      {"Uniform2fv", [&] { ctx.Uniform2fv(loc, -1, junk.data()); }},
      {"Uniform4fv", [&] { ctx.Uniform4fv(loc, -1, junk.data()); }},
      {"UniformMatrix4fv",
       [&] { ctx.UniformMatrix4fv(loc, -1, GL_FALSE, junk.data()); }},
      {"GenBuffers", [&] { ctx.GenBuffers(-1, &out); }},
      {"GenTextures", [&] { ctx.GenTextures(-1, &out); }},
      {"GenRenderbuffers", [&] { ctx.GenRenderbuffers(-1, &out); }},
      {"GenFramebuffers", [&] { ctx.GenFramebuffers(-1, &out); }},
      {"DeleteBuffers", [&] { ctx.DeleteBuffers(-1, &buf); }},
      {"DeleteTextures", [&] { ctx.DeleteTextures(-1, &tex); }},
      {"DeleteRenderbuffers", [&] { ctx.DeleteRenderbuffers(-1, &rb); }},
      {"DeleteFramebuffers", [&] { ctx.DeleteFramebuffers(-1, &fb_tex); }},
  };
  for (const auto& [name, call] : calls) {
    call();
    EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE) << name;
    EXPECT_EQ(out, kSentinel) << name << " wrote an id";
  }

  // Every object survived, and the uniform kept its value.
  for (const GLuint fb : {fb_tex, fb_rb}) {
    ctx.BindFramebuffer(GL_FRAMEBUFFER, fb);
    EXPECT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
              static_cast<GLenum>(GL_FRAMEBUFFER_COMPLETE))
        << "framebuffer " << fb;
  }
  ctx.BindFramebuffer(GL_FRAMEBUFFER, 0);
  DrawFullscreenQuad(ctx, p);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 51);
  EXPECT_EQ(px[1], 102);
  EXPECT_EQ(px[2], 153);
  EXPECT_EQ(px[3], 204);
}

TEST(ContextTest, RunawayShaderSetsDrawError) {
  Context ctx(SmallConfig(1, 1));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { float a = 0.0; while (a < "
      "1.0) { a *= 1.0; } gl_FragColor = vec4(a); }");
  DrawFullscreenQuad(ctx, p);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  EXPECT_FALSE(ctx.last_draw_error().empty());
}

TEST(ContextTest, PrecisionFormatQueriesMatchProfile) {
  Context ctx(SmallConfig());
  GLint range[2] = {0, 0};
  GLint precision = 0;
  // The query the paper (§IV-E) prescribes for discovering GPU float format.
  ctx.GetShaderPrecisionFormat(GL_FRAGMENT_SHADER, GL_HIGH_FLOAT, range,
                               &precision);
  EXPECT_EQ(precision, 23);
  EXPECT_EQ(range[0], 127);

  ContextConfig mali = SmallConfig();
  mali.limits.fragment_highp_float = false;  // Mali-400 class
  Context ctx2(mali);
  ctx2.GetShaderPrecisionFormat(GL_FRAGMENT_SHADER, GL_HIGH_FLOAT, range,
                                &precision);
  EXPECT_EQ(precision, 0);  // highp unsupported in the fragment stage
  ctx2.GetShaderPrecisionFormat(GL_VERTEX_SHADER, GL_HIGH_FLOAT, range,
                                &precision);
  EXPECT_EQ(precision, 23);  // ...but supported in the vertex stage
}

TEST(ContextTest, GetStringAndIntegerQueries) {
  Context ctx(SmallConfig());
  EXPECT_EQ(std::string(ctx.GetString(GL_SHADING_LANGUAGE_VERSION)),
            "OpenGL ES GLSL ES 1.00");
  EXPECT_EQ(std::string(ctx.GetString(GL_EXTENSIONS)), "");
  GLint v = 0;
  ctx.GetIntegerv(GL_MAX_VERTEX_ATTRIBS, &v);
  EXPECT_EQ(v, 8);
  ctx.GetIntegerv(GL_MAX_TEXTURE_SIZE, &v);
  EXPECT_EQ(v, 4096);
  // kCompiled is an alias: a context built with it reports the batched VM.
  ContextConfig cfg = SmallConfig();
  cfg.exec_engine = ExecEngine::kCompiled;
  EXPECT_EQ(Context(cfg).exec_engine(), ExecEngine::kBatchedVm);
}

// Errors latch in call order: later invalid calls cannot displace the first.
TEST(ContextTest, ErrorStateIsStickyUntilRead) {
  Context ctx(SmallConfig());
  ctx.Enable(0xDEAD);
  ctx.Viewport(0, 0, -1, -1);  // would be INVALID_VALUE, but first error wins
  ctx.Enable(0xDEAD);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(ContextTest, PaperQuantizationModeFloors) {
  ContextConfig cfg = SmallConfig(1, 1);
  cfg.quantization = FbQuantization::kFloorPaper;
  Context ctx(cfg);
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = "
      "vec4(0.9999); }");
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 1, 1);
  EXPECT_EQ(px[0], 254);  // floor(0.9999 * 255) per the paper's Eq. (2)
}

// Two live contexts with interleaved calls never see each other's state:
// each keeps its own program, uniforms, framebuffer and error latch.
TEST(ContextTest, InterleavedContextsAreIndependent) {
  constexpr int kContexts = 2;
  std::array<std::unique_ptr<Context>, kContexts> ctxs;
  std::array<GLuint, kContexts> progs{};
  std::array<GLint, kContexts> tints{};
  for (int i = 0; i < kContexts; ++i) {
    ctxs[i] = std::make_unique<Context>(SmallConfig());
    progs[i] = BuildProgramOrDie(
        *ctxs[i], testutil::kPassthroughVs,
        "precision mediump float;\nuniform vec4 u_tint;\n"
        "void main() { gl_FragColor = u_tint; }");
    tints[i] = ctxs[i]->GetUniformLocation(progs[i], "u_tint");
  }
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kContexts; ++i) {
      const float v = (i + 1) / static_cast<float>(kContexts + 1);
      ctxs[i]->UseProgram(progs[i]);
      ctxs[i]->Uniform4f(tints[i], v, 1.0f - v, 0.0f, 1.0f);
      DrawFullscreenQuad(*ctxs[i], progs[i]);
    }
  }
  ctxs[0]->Enable(0xDEAD);
  for (int i = 0; i < kContexts; ++i) {
    const float v = (i + 1) / static_cast<float>(kContexts + 1);
    const auto px = ReadRgba(*ctxs[i], 4, 4);
    EXPECT_EQ(px[0], static_cast<int>(v * 255.0f + 0.5f)) << "context " << i;
    EXPECT_EQ(px[1], static_cast<int>((1.0f - v) * 255.0f + 0.5f))
        << "context " << i;
    EXPECT_EQ(ctxs[i]->GetError(), i == 0 ? GL_INVALID_ENUM : GL_NO_ERROR)
        << "context " << i;
  }
}

}  // namespace
}  // namespace mgpu::gles2
