// Texture storage, format conversion, completeness rules and sampling — the
// substrate behaviour the paper's buffer mapping (challenges 3/4/5) depends
// on.
#include "gles2/texture.h"

#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"

namespace mgpu::gles2 {
namespace {

Texture MakeRgba(int w, int h, const std::vector<std::uint8_t>& data) {
  Texture t;
  EXPECT_EQ(t.TexImage2D(0, GL_RGBA, w, h, GL_RGBA, GL_UNSIGNED_BYTE,
                         data.empty() ? nullptr : data.data(), 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_MIN_FILTER, GL_NEAREST), GL_NO_ERROR);
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_MAG_FILTER, GL_NEAREST), GL_NO_ERROR);
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, GL_CLAMP_TO_EDGE), GL_NO_ERROR);
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_WRAP_T, GL_CLAMP_TO_EDGE), GL_NO_ERROR);
  return t;
}

// One lane of Texture::SampleRow at (s, t) and level of detail `lod`: the
// color, and the addressed texel's index.
struct Sampled {
  std::array<float, 4> rgba;
  long long index;
};
Sampled SampleAt(const Texture& tex, float s, float t, float lod = 0.0f) {
  long long index = 0;
  Texture::RgbaRow rgba;
  tex.SampleRow(&s, &t, &lod, 1, 1u, &index, rgba);
  return {{rgba[0][0], rgba[1][0], rgba[2][0], rgba[3][0]}, index};
}

TEST(TextureTest, FloatUploadRejected) {
  // Limitation #5 of the paper: ES 2.0 has no float textures.
  Texture t;
  std::vector<float> data(4, 1.0f);
  EXPECT_EQ(t.TexImage2D(0, GL_RGBA, 1, 1, GL_RGBA, GL_FLOAT, data.data(), 1),
            GL_INVALID_ENUM);
}

TEST(TextureTest, RgbaUploadRoundTrips) {
  const std::vector<std::uint8_t> px = {1, 2, 3, 4, 250, 251, 252, 253};
  Texture t = MakeRgba(2, 1, px);
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{1, 2, 3, 4}));
  EXPECT_EQ(t.TexelAt(1, 0),
            (std::array<std::uint8_t, 4>{250, 251, 252, 253}));
}

TEST(TextureTest, RgbExpandsAlphaToOpaque) {
  Texture t;
  const std::vector<std::uint8_t> px = {10, 20, 30};
  ASSERT_EQ(t.TexImage2D(0, GL_RGB, 1, 1, GL_RGB, GL_UNSIGNED_BYTE, px.data(),
                         1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{10, 20, 30, 255}));
}

TEST(TextureTest, LuminanceReplicates) {
  Texture t;
  const std::vector<std::uint8_t> px = {77};
  ASSERT_EQ(t.TexImage2D(0, GL_LUMINANCE, 1, 1, GL_LUMINANCE,
                         GL_UNSIGNED_BYTE, px.data(), 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{77, 77, 77, 255}));
}

TEST(TextureTest, AlphaOnly) {
  Texture t;
  const std::vector<std::uint8_t> px = {99};
  ASSERT_EQ(t.TexImage2D(0, GL_ALPHA, 1, 1, GL_ALPHA, GL_UNSIGNED_BYTE,
                         px.data(), 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{0, 0, 0, 99}));
}

TEST(TextureTest, Packed565Expansion) {
  Texture t;
  // R=31, G=63, B=31 -> white.
  const std::uint16_t white = 0xFFFF;
  ASSERT_EQ(t.TexImage2D(0, GL_RGB, 1, 1, GL_RGB, GL_UNSIGNED_SHORT_5_6_5,
                         &white, 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0),
            (std::array<std::uint8_t, 4>{255, 255, 255, 255}));
}

TEST(TextureTest, Packed4444Expansion) {
  Texture t;
  const std::uint16_t px = 0xF081;  // r=15, g=0, b=8, a=1
  ASSERT_EQ(t.TexImage2D(0, GL_RGBA, 1, 1, GL_RGBA,
                         GL_UNSIGNED_SHORT_4_4_4_4, &px, 1),
            GL_NO_ERROR);
  const auto texel = t.TexelAt(0, 0);
  EXPECT_EQ(texel[0], 255);
  EXPECT_EQ(texel[1], 0);
  EXPECT_EQ(texel[2], 136);  // 8/15 expanded
  EXPECT_EQ(texel[3], 17);   // 1/15 expanded
}

TEST(TextureTest, Packed5551Alpha) {
  Texture t;
  const std::uint16_t px = 0x0001;  // only alpha bit set
  ASSERT_EQ(t.TexImage2D(0, GL_RGBA, 1, 1, GL_RGBA,
                         GL_UNSIGNED_SHORT_5_5_5_1, &px, 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0)[3], 255);
}

TEST(TextureTest, TexSubImageUpdatesRegion) {
  Texture t = MakeRgba(4, 4, std::vector<std::uint8_t>(64, 0));
  const std::vector<std::uint8_t> patch = {9, 8, 7, 6};
  ASSERT_EQ(t.TexSubImage2D(0, 2, 3, 1, 1, GL_RGBA, GL_UNSIGNED_BYTE,
                            patch.data(), 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(2, 3), (std::array<std::uint8_t, 4>{9, 8, 7, 6}));
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{0, 0, 0, 0}));
}

TEST(TextureTest, TexSubImageOutOfBoundsRejected) {
  const std::vector<std::uint8_t> texels(4 * 4 * 4, 7);
  Texture t = MakeRgba(4, 4, texels);
  const std::vector<std::uint8_t> patch(16, 0);
  EXPECT_EQ(t.TexSubImage2D(0, 3, 3, 2, 2, GL_RGBA, GL_UNSIGNED_BYTE,
                            patch.data(), 1),
            GL_INVALID_VALUE);
  // Negative sizes are invalid, not empty uploads.
  EXPECT_EQ(t.TexSubImage2D(0, 0, 0, -1, 2, GL_RGBA, GL_UNSIGNED_BYTE,
                            patch.data(), 1),
            GL_INVALID_VALUE);
  EXPECT_EQ(t.TexSubImage2D(0, 0, 0, 2, -1, GL_RGBA, GL_UNSIGNED_BYTE,
                            patch.data(), 1),
            GL_INVALID_VALUE);
  // offset + size past INT_MAX must not wrap around into range.
  EXPECT_EQ(t.TexSubImage2D(0, 2, 0, std::numeric_limits<int>::max(), 1,
                            GL_RGBA, GL_UNSIGNED_BYTE, patch.data(), 1),
            GL_INVALID_VALUE);
  EXPECT_EQ(t.TexSubImage2D(0, 0, 2, 1, std::numeric_limits<int>::max(),
                            GL_RGBA, GL_UNSIGNED_BYTE, patch.data(), 1),
            GL_INVALID_VALUE);
  EXPECT_EQ(t.storage(), texels);
}

TEST(TextureTest, DefaultMinFilterMakesIncomplete) {
  // The ES 2.0 default min filter mipmaps; without mipmaps the texture is
  // incomplete and samples black — the classic GPGPU setup bug.
  Texture t;
  const std::vector<std::uint8_t> px = {200, 100, 50, 25};
  ASSERT_EQ(t.TexImage2D(0, GL_RGBA, 1, 1, GL_RGBA, GL_UNSIGNED_BYTE,
                         px.data(), 1),
            GL_NO_ERROR);
  EXPECT_FALSE(t.IsComplete());
  const auto s = SampleAt(t, 0.5f, 0.5f).rgba;
  EXPECT_FLOAT_EQ(s[0], 0.0f);
  EXPECT_FLOAT_EQ(s[3], 1.0f);
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_MIN_FILTER, GL_NEAREST), GL_NO_ERROR);
  EXPECT_TRUE(t.IsComplete());
}

TEST(TextureTest, NpotRequiresClampToEdge) {
  Texture t;
  ASSERT_EQ(t.TexImage2D(0, GL_RGBA, 3, 5, GL_RGBA, GL_UNSIGNED_BYTE, nullptr,
                         1),
            GL_NO_ERROR);
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_MIN_FILTER, GL_NEAREST), GL_NO_ERROR);
  // Default wrap is REPEAT: incomplete for NPOT.
  EXPECT_FALSE(t.IsComplete());
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, GL_CLAMP_TO_EDGE), GL_NO_ERROR);
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_WRAP_T, GL_CLAMP_TO_EDGE), GL_NO_ERROR);
  EXPECT_TRUE(t.IsComplete());
}

TEST(TextureTest, NearestSamplingAddressesTexelCenters) {
  // 4 texels; normalized coordinate (i + 0.5) / 4 must hit texel i exactly —
  // the addressing rule the paper's 1D->2D coordinate mapping (challenge 4)
  // relies on.
  std::vector<std::uint8_t> px;
  for (int i = 0; i < 4; ++i) {
    px.insert(px.end(), {static_cast<std::uint8_t>(i * 10), 0, 0, 255});
  }
  Texture t = MakeRgba(4, 1, px);
  for (int i = 0; i < 4; ++i) {
    const float s = (static_cast<float>(i) + 0.5f) / 4.0f;
    const auto texel = SampleAt(t, s, 0.5f).rgba;
    EXPECT_FLOAT_EQ(texel[0], static_cast<float>(i * 10) / 255.0f) << i;
  }
}

TEST(TextureTest, SampleValuesAreExactlyCOver255) {
  // Eq. (1) of the paper: the shader sees f = c / 255 exactly.
  std::vector<std::uint8_t> px = {0, 1, 128, 255};
  Texture t = MakeRgba(1, 1, px);
  const auto s = SampleAt(t, 0.5f, 0.5f).rgba;
  EXPECT_EQ(s[0], 0.0f / 255.0f);
  EXPECT_EQ(s[1], 1.0f / 255.0f);
  EXPECT_EQ(s[2], 128.0f / 255.0f);
  EXPECT_EQ(s[3], 255.0f / 255.0f);
}

TEST(TextureTest, WrapModes) {
  std::vector<std::uint8_t> px;
  for (int i = 0; i < 2; ++i) {
    px.insert(px.end(), {static_cast<std::uint8_t>(i * 200), 0, 0, 255});
  }
  Texture t = MakeRgba(2, 1, px);
  // CLAMP_TO_EDGE: out-of-range sticks to the border texel.
  EXPECT_FLOAT_EQ(SampleAt(t, -0.3f, 0.5f).rgba[0], 0.0f);
  EXPECT_FLOAT_EQ(SampleAt(t, 1.3f, 0.5f).rgba[0], 200.0f / 255.0f);
  // REPEAT (power-of-two texture, so still complete).
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, GL_REPEAT), GL_NO_ERROR);
  EXPECT_FLOAT_EQ(SampleAt(t, 1.25f, 0.5f).rgba[0],
                  SampleAt(t, 0.25f, 0.5f).rgba[0]);
  // MIRRORED_REPEAT.
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, GL_MIRRORED_REPEAT),
            GL_NO_ERROR);
  EXPECT_FLOAT_EQ(SampleAt(t, 1.25f, 0.5f).rgba[0],
                  SampleAt(t, 0.75f, 0.5f).rgba[0]);
}

// Shader-controlled coordinates far outside the texture: s * width past the
// int range, infinities and NaN address a defined texel under every wrap
// mode (the texel index is derived before any float-to-int conversion).
TEST(TextureTest, CoordinatesOutsideIntRangeAreDefined) {
  // 4x4 texture; texel (x, y) has red = 10 + 50x.
  std::vector<std::uint8_t> px;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      px.insert(px.end(), {static_cast<std::uint8_t>(10 + 50 * x),
                           static_cast<std::uint8_t>(10 + 50 * y), 0, 255});
    }
  }
  const auto red = [](int x) {
    return static_cast<float>(10 + 50 * x) / 255.0f;
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const int row = 2 * 4;  // t = 0.5 addresses row 2
  for (const GLenum wrap : {GL_CLAMP_TO_EDGE, GL_REPEAT, GL_MIRRORED_REPEAT}) {
    SCOPED_TRACE(wrap);
    Texture t = MakeRgba(4, 4, px);
    ASSERT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, static_cast<GLint>(wrap)),
              GL_NO_ERROR);
    // In range, for reference: s * 4 = 6 clamps to 3, repeats to 2 and
    // mirrors to 1.
    const int in_range = wrap == GL_CLAMP_TO_EDGE ? 3
                         : wrap == GL_REPEAT      ? 2
                                                  : 1;
    EXPECT_EQ(SampleAt(t, 1.5f, 0.5f).index, row + in_range);
    // Far positive: the right edge under CLAMP_TO_EDGE. Under the repeating
    // modes s * 4 is a multiple of the period there (every float past 2^31
    // is a multiple of 256), and +inf takes that limit: texel 0.
    const int right = wrap == GL_CLAMP_TO_EDGE ? 3 : 0;
    for (const float s : {1e9f, 1e30f, inf}) {
      SCOPED_TRACE(s);
      EXPECT_EQ(SampleAt(t, s, 0.5f).index, row + right);
      EXPECT_FLOAT_EQ(SampleAt(t, s, 0.5f).rgba[0], red(right));
    }
    // Far negative: the left edge under every mode.
    for (const float s : {-1e30f, -inf}) {
      SCOPED_TRACE(s);
      EXPECT_EQ(SampleAt(t, s, 0.5f).index, row);
      EXPECT_FLOAT_EQ(SampleAt(t, s, 0.5f).rgba[0], red(0));
    }
    // NaN addresses texel 0 of its axis.
    EXPECT_EQ(SampleAt(t, nan, 0.5f).index, row);
    EXPECT_EQ(SampleAt(t, 0.5f, nan).index, 2);
    EXPECT_FLOAT_EQ(SampleAt(t, nan, 0.5f).rgba[0], red(0));

    // Bilinear: a non-finite coordinate samples its corner texel (no NaN
    // blend weight); huge finite ones blend nothing past the edge.
    ASSERT_EQ(t.SetParameter(GL_TEXTURE_MAG_FILTER, GL_LINEAR), GL_NO_ERROR);
    EXPECT_FLOAT_EQ(SampleAt(t, inf, 0.5f).rgba[0], red(right));
    EXPECT_FLOAT_EQ(SampleAt(t, 1e30f, 0.5f).rgba[0], red(right));
    EXPECT_FLOAT_EQ(SampleAt(t, -inf, 0.5f).rgba[0], red(0));
    EXPECT_FLOAT_EQ(SampleAt(t, nan, 0.5f).rgba[0], red(0));
  }
}

TEST(TextureTest, BilinearInterpolatesMidpoint) {
  std::vector<std::uint8_t> px = {0, 0, 0, 255, 200, 0, 0, 255};
  Texture t = MakeRgba(2, 1, px);
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_MAG_FILTER, GL_LINEAR), GL_NO_ERROR);
  const auto s = SampleAt(t, 0.5f, 0.5f).rgba;
  EXPECT_NEAR(s[0], 100.0f / 255.0f, 1e-5f);
}

TEST(TextureTest, LodPicksMinOrMagFilterPerLane) {
  // One row, three lanes at the center of a MIN LINEAR / MAG NEAREST 2x1
  // texture: lod > 0 minifies (the bilinear blend, 100), lod <= 0
  // magnifies (the nearest texel, 200). Every lane addresses texel 1.
  Texture t = MakeRgba(2, 1, {0, 0, 0, 255, 200, 0, 0, 255});
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_MIN_FILTER, GL_LINEAR), GL_NO_ERROR);
  const float s[3] = {0.5f, 0.5f, 0.5f};
  const float tc[3] = {0.5f, 0.5f, 0.5f};
  const float lod[3] = {1.0f, 0.0f, -2.0f};
  long long index[3];
  Texture::RgbaRow rgba;
  ASSERT_TRUE(t.SampleRow(s, tc, lod, 3, 0b111u, index, rgba));
  EXPECT_NEAR(rgba[0][0], 100.0f / 255.0f, 1e-5f);
  EXPECT_FLOAT_EQ(rgba[0][1], 200.0f / 255.0f);
  EXPECT_FLOAT_EQ(rgba[0][2], 200.0f / 255.0f);
  for (int l = 0; l < 3; ++l) EXPECT_EQ(index[l], 1) << l;
  // Only the lanes of the mask get a color.
  rgba[0].fill(-1.0f);
  ASSERT_TRUE(t.SampleRow(s, tc, lod, 3, 0b101u, index, rgba));
  EXPECT_NEAR(rgba[0][0], 100.0f / 255.0f, 1e-5f);
  EXPECT_EQ(rgba[0][1], -1.0f);
  EXPECT_FLOAT_EQ(rgba[0][2], 200.0f / 255.0f);
}

TEST(TextureTest, InvalidFilterEnumRejected) {
  Texture t;
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_MIN_FILTER, GL_REPEAT),
            GL_INVALID_ENUM);
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, GL_NEAREST), GL_INVALID_ENUM);
}

TEST(TextureTest, UnpackAlignmentHonored) {
  // 3-byte RGB rows with alignment 4: row stride is padded to 4.
  Texture t;
  const std::uint8_t data[] = {10, 20, 30, 0 /*pad*/, 40, 50, 60, 0 /*pad*/};
  ASSERT_EQ(t.TexImage2D(0, GL_RGB, 1, 2, GL_RGB, GL_UNSIGNED_BYTE, data, 4),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{10, 20, 30, 255}));
  EXPECT_EQ(t.TexelAt(0, 1), (std::array<std::uint8_t, 4>{40, 50, 60, 255}));
}

}  // namespace
}  // namespace mgpu::gles2
