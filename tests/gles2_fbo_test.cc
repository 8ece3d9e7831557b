// Framebuffer objects and render-to-texture: the substrate for the paper's
// challenge 7 (the only way to read results back is via the framebuffer) and
// for multi-pass kernels (reduction, ping-pong).
#include <vector>

#include "gles2/context.h"
#include "gles2_test_util.h"
#include "glsl/alu.h"
#include "gtest/gtest.h"
#include "vc4/profiles.h"

namespace mgpu::gles2 {
namespace {

using testutil::BuildProgramOrDie;
using testutil::DrawFullscreenQuad;

ContextConfig Cfg(int w = 4, int h = 4) {
  ContextConfig c;
  c.width = w;
  c.height = h;
  return c;
}

GLuint MakeTargetTexture(Context& ctx, int w, int h) {
  GLuint tex;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, w, h, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, nullptr);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_S, GL_CLAMP_TO_EDGE);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_T, GL_CLAMP_TO_EDGE);
  return tex;
}

TEST(FboTest, RenderToTextureAndReadBack) {
  Context ctx(Cfg());
  const GLuint tex = MakeTargetTexture(ctx, 4, 4);
  GLuint fbo;
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex, 0);
  ASSERT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            GL_FRAMEBUFFER_COMPLETE);
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0, "
      "0.0, 1.0, 1.0); }");
  ctx.Viewport(0, 0, 4, 4);
  DrawFullscreenQuad(ctx, p);
  // Challenge 7: ReadPixels from the FBO is how texture data reaches the CPU.
  std::vector<std::uint8_t> px(4 * 4 * 4);
  ctx.ReadPixels(0, 0, 4, 4, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(px[i * 4 + 0], 255);
    EXPECT_EQ(px[i * 4 + 1], 0);
    EXPECT_EQ(px[i * 4 + 2], 255);
  }
  // The texture object itself holds the rendered data.
  EXPECT_EQ(ctx.GetTextureObject(tex)->TexelAt(2, 2),
            (std::array<std::uint8_t, 4>{255, 0, 255, 255}));
}

TEST(FboTest, MissingAttachmentIncomplete) {
  Context ctx(Cfg());
  GLuint fbo;
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  EXPECT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            GL_FRAMEBUFFER_INCOMPLETE_MISSING_ATTACHMENT);
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  DrawFullscreenQuad(ctx, p);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_FRAMEBUFFER_OPERATION);
}

TEST(FboTest, TextureWithoutStorageIncomplete) {
  Context ctx(Cfg());
  GLuint tex;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);  // no TexImage2D
  GLuint fbo;
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex, 0);
  EXPECT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            GL_FRAMEBUFFER_INCOMPLETE_ATTACHMENT);
}

TEST(FboTest, RenderbufferColorTarget) {
  Context ctx(Cfg());
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
            GL_FRAMEBUFFER_COMPLETE);
  ctx.ClearColor(0.0f, 1.0f, 0.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  std::vector<std::uint8_t> px(4 * 4 * 4);
  ctx.ReadPixels(0, 0, 4, 4, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
  EXPECT_EQ(px[1], 255);
}

TEST(FboTest, FloatRenderbufferRejected) {
  // Paper limitation #6: no float framebuffer storage exists in ES 2.0.
  Context ctx(Cfg());
  GLuint rb;
  ctx.GenRenderbuffers(1, &rb);
  ctx.BindRenderbuffer(GL_RENDERBUFFER, rb);
  constexpr GLenum kDesktopRgba32f = 0x8814;
  ctx.RenderbufferStorage(GL_RENDERBUFFER, kDesktopRgba32f, 4, 4);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
}

TEST(FboTest, PingPongBetweenTextures) {
  // Multi-pass pattern used by the reduction kernel: render into B reading
  // A, then render into A reading B.
  Context ctx(Cfg(2, 2));
  const GLuint tex_a = MakeTargetTexture(ctx, 2, 2);
  const GLuint tex_b = MakeTargetTexture(ctx, 2, 2);
  GLuint fbo;
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  // Seed A with 10 via clear.
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex_a, 0);
  ctx.ClearColor(10.0f / 255.0f, 0.0f, 0.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvarying vec2 v_uv;\nuniform sampler2D "
      "u_src;\nvoid main() { vec4 t = texture2D(u_src, v_uv); gl_FragColor "
      "= vec4(t.r + 10.0 / 255.0, t.gba); }");
  ctx.UseProgram(p);
  ctx.Viewport(0, 0, 2, 2);
  const GLint u_src = ctx.GetUniformLocation(p, "u_src");
  // Pass 1: read A, write B.
  ctx.ActiveTexture(GL_TEXTURE0);
  ctx.BindTexture(GL_TEXTURE_2D, tex_a);
  ctx.Uniform1i(u_src, 0);
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex_b, 0);
  DrawFullscreenQuad(ctx, p);
  // Pass 2: read B, write A.
  ctx.BindTexture(GL_TEXTURE_2D, tex_b);
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex_a, 0);
  DrawFullscreenQuad(ctx, p);
  std::vector<std::uint8_t> px(2 * 2 * 4);
  ctx.ReadPixels(0, 0, 2, 2, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
  EXPECT_EQ(px[0], 30);  // 10 + 10 + 10
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(FboTest, SwitchingBackToDefaultFramebuffer) {
  Context ctx(Cfg(2, 2));
  const GLuint tex = MakeTargetTexture(ctx, 2, 2);
  GLuint fbo;
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex, 0);
  ctx.ClearColor(1.0f, 0.0f, 0.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, 0);
  ctx.ClearColor(0.0f, 1.0f, 0.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  std::vector<std::uint8_t> px(2 * 2 * 4);
  ctx.ReadPixels(0, 0, 2, 2, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
  EXPECT_EQ(px[0], 0);
  EXPECT_EQ(px[1], 255);
  EXPECT_EQ(ctx.GetTextureObject(tex)->TexelAt(0, 0)[0], 255);
}

TEST(FboTest, PassThroughCopyPreservesEveryTexelByte) {
  // Challenge 7: an intermediate texture reaches ReadPixels only through an
  // extra pass-through copy into an FBO-attached texture. That pass must
  // not perturb a single byte, under the exact ALU or the VC4 model.
  constexpr int kSize = 16;
  std::vector<std::uint8_t> src(kSize * kSize * 4);
  for (int i = 0; i < kSize * kSize; ++i) {
    // Each channel is a bijection of the texel index: every byte value
    // appears once per channel.
    src[i * 4 + 0] = static_cast<std::uint8_t>(i);
    src[i * 4 + 1] = static_cast<std::uint8_t>(255 - i);
    src[i * 4 + 2] = static_cast<std::uint8_t>(i * 7);
    src[i * 4 + 3] = static_cast<std::uint8_t>(i + 128);
  }
  for (glsl::AluModel alu :
       {glsl::AluModel{}, vc4::ProfileAlu(vc4::VideoCoreIV())}) {
    Context ctx(Cfg(kSize, kSize), &alu);
    const GLuint src_tex = MakeTargetTexture(ctx, kSize, kSize);
    ctx.TexSubImage2D(GL_TEXTURE_2D, 0, 0, 0, kSize, kSize, GL_RGBA,
                      GL_UNSIGNED_BYTE, src.data());
    const GLuint dst_tex = MakeTargetTexture(ctx, kSize, kSize);
    GLuint fbo;
    ctx.GenFramebuffers(1, &fbo);
    ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
    ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                             GL_TEXTURE_2D, dst_tex, 0);
    ASSERT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
              GL_FRAMEBUFFER_COMPLETE);
    const GLuint p = BuildProgramOrDie(
        ctx, testutil::kPassthroughVs,
        "precision mediump float;\nvarying vec2 v_uv;\nuniform sampler2D "
        "u_src;\nvoid main() { gl_FragColor = texture2D(u_src, v_uv); }");
    ctx.UseProgram(p);
    ctx.Viewport(0, 0, kSize, kSize);
    ctx.ActiveTexture(GL_TEXTURE0);
    ctx.BindTexture(GL_TEXTURE_2D, src_tex);
    ctx.Uniform1i(ctx.GetUniformLocation(p, "u_src"), 0);
    DrawFullscreenQuad(ctx, p);
    EXPECT_EQ(testutil::ReadRgba(ctx, kSize, kSize), src);
    EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  }
}

TEST(FboTest, DepthRenderbufferWithFbo) {
  Context ctx(Cfg(2, 2));
  const GLuint tex = MakeTargetTexture(ctx, 2, 2);
  GLuint rb, fbo;
  ctx.GenRenderbuffers(1, &rb);
  ctx.BindRenderbuffer(GL_RENDERBUFFER, rb);
  ctx.RenderbufferStorage(GL_RENDERBUFFER, GL_DEPTH_COMPONENT16, 2, 2);
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex, 0);
  ctx.FramebufferRenderbuffer(GL_FRAMEBUFFER, GL_DEPTH_ATTACHMENT,
                              GL_RENDERBUFFER, rb);
  EXPECT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            GL_FRAMEBUFFER_COMPLETE);
}

TEST(FboTest, MismatchedDepthSizeIncomplete) {
  Context ctx(Cfg(2, 2));
  const GLuint tex = MakeTargetTexture(ctx, 2, 2);
  GLuint rb, fbo;
  ctx.GenRenderbuffers(1, &rb);
  ctx.BindRenderbuffer(GL_RENDERBUFFER, rb);
  ctx.RenderbufferStorage(GL_RENDERBUFFER, GL_DEPTH_COMPONENT16, 4, 4);
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex, 0);
  ctx.FramebufferRenderbuffer(GL_FRAMEBUFFER, GL_DEPTH_ATTACHMENT,
                              GL_RENDERBUFFER, rb);
  EXPECT_NE(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            GL_FRAMEBUFFER_COMPLETE);
}

}  // namespace
}  // namespace mgpu::gles2
