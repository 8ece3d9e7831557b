// Texture objects: RGBA8 internal storage (the only storage class OpenGL ES
// 2.0 guarantees — the paper's limitation #5: no float textures), upload
// conversion from the ES 2.0 external formats, completeness rules (mipmap
// and NPOT restrictions) and normalized-coordinate sampling (limitation #4).
#ifndef MGPU_GLES2_TEXTURE_H_
#define MGPU_GLES2_TEXTURE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "gles2/enums.h"

namespace mgpu::gles2 {

class Texture {
 public:
  // Uploads level-0 storage, converting from (format, type) to RGBA8.
  // Returns GL_NO_ERROR or the error the API must raise. `data` may be null
  // (undefined contents, zero-filled here for determinism).
  GLenum TexImage2D(GLint level, GLenum internal_format, GLsizei width,
                    GLsizei height, GLenum format, GLenum type,
                    const void* data, GLint unpack_alignment);
  GLenum TexSubImage2D(GLint level, GLint xoffset, GLint yoffset,
                       GLsizei width, GLsizei height, GLenum format,
                       GLenum type, const void* data, GLint unpack_alignment);
  GLenum SetParameter(GLenum pname, GLint value);

  [[nodiscard]] GLsizei width() const { return width_; }
  [[nodiscard]] GLsizei height() const { return height_; }
  [[nodiscard]] bool has_storage() const { return width_ > 0 && height_ > 0; }
  [[nodiscard]] GLenum format() const { return format_; }

  // ES 2.0 completeness: non-mipmap filters only (we expose no mipmapping),
  // and NPOT textures require CLAMP_TO_EDGE wrapping. Incomplete textures
  // sample as opaque black, matching real drivers.
  [[nodiscard]] bool IsComplete() const;

  // One texture fetch of lanes [0, n), n <= kMaxTexelRow, at normalized
  // coordinates (s[l], t[l]) with level of detail lod[l]: the whole
  // sampling rule, in one place for every engine and stage. It writes
  // index[l] for every lane of [0, n) and rgba[c][l] for the lanes of the
  // mask `lanes` only, so a caller can sample lane groups of different
  // textures into one row.
  //   * No storage: returns false, index[l] is -1 and every lane reads
  //     (0, 0, 0, 1).
  //   * Otherwise index[l] is the linear index of the texel a nearest
  //     sample addresses (the texture-cache model's address whatever the
  //     filter), each axis's wrap mode resolved once for the whole row.
  //   * An incomplete texture reads (0, 0, 0, 1). A complete one filters
  //     each lane by ES 2.0 §3.7.7: lod > 0 minifies (MIN_FILTER), else it
  //     magnifies (MAG_FILTER). lod is the vertex stage's explicit level or
  //     the fragment stage's bias: with no derivatives the base level of
  //     detail is 0, and no complete texture here is mipmapped, so the
  //     switch point is 0. Each channel of a NEAREST sample is c/255
  //     exactly (Eq. (1) of the paper); LINEAR blends the four texels
  //     around (s, t).
  // Any float coordinate is defined: CLAMP_TO_EDGE clamps far and infinite
  // coordinates to the edge texel, the repeating modes wrap them, and NaN
  // addresses texel 0; a bilinear sample at a non-finite coordinate reads
  // its corner texel.
  static constexpr int kMaxTexelRow = 32;
  using RgbaRow = std::array<std::array<float, kMaxTexelRow>, 4>;
  bool SampleRow(const float* s, const float* t, const float* lod, int n,
                 std::uint32_t lanes, long long* index, RgbaRow& rgba) const;

  // Eq. (1) of the paper, f = c / (2^8 - 1), for every byte c: decoding an
  // RGBA8 texel is four table loads, with the division's exact values.
  static constexpr std::array<float, 256> kUnitOfByte = [] {
    std::array<float, 256> unit{};
    for (int c = 0; c < 256; ++c) unit[c] = static_cast<float>(c) / 255.0f;
    return unit;
  }();

  // Direct texel access for tests and ReadPixels-through-FBO.
  [[nodiscard]] std::array<std::uint8_t, 4> TexelAt(int x, int y) const;
  [[nodiscard]] const std::vector<std::uint8_t>& storage() const {
    return rgba8_;
  }
  [[nodiscard]] std::vector<std::uint8_t>& mutable_storage() { return rgba8_; }

 private:
  [[nodiscard]] std::array<float, 4> TexelColor(long long index) const {
    const std::uint8_t* p = &rgba8_[static_cast<std::size_t>(index) * 4];
    return {kUnitOfByte[p[0]], kUnitOfByte[p[1]], kUnitOfByte[p[2]],
            kUnitOfByte[p[3]]};
  }
  [[nodiscard]] std::array<float, 4> FetchTexel(int x, int y) const;
  // The bilinear sample at (s, t).
  [[nodiscard]] std::array<float, 4> SampleLinear(float s, float t) const;
  // SampleRow's texel indices of lanes [0, n). Requires storage.
  void NearestTexelIndices(const float* s, const float* t, int n,
                           long long* index) const;
  [[nodiscard]] static int WrapCoord(int c, int size, GLenum mode);
  // Converts a floored texel coordinate (any float: NaN, +-inf, past the
  // int range) to an int that WrapCoord maps like the unbounded integer:
  // CLAMP_TO_EDGE clamps to [-1, size] in float, the repeating modes reduce
  // modulo their period with std::fmod. NaN maps to 0, and so do +-inf
  // under the repeating modes (the limit of the period multiples every
  // float past 2^24 is for a power-of-two size).
  [[nodiscard]] static int ReduceTexelCoord(float c, int size, GLenum mode);
  // Texel index along one axis for texel-space coordinate c (nearest).
  [[nodiscard]] static int TexelCoord(float c, int size, GLenum mode);
  // TexelCoord(c[l] * size, size, mode) for lanes [0, n).
  static void TexelCoords(const float* c, int n, int size, GLenum mode,
                          int* out);

  GLsizei width_ = 0;
  GLsizei height_ = 0;
  GLenum format_ = GL_RGBA;
  GLenum min_filter_ = GL_NEAREST_MIPMAP_LINEAR;  // ES 2.0 default!
  GLenum mag_filter_ = GL_LINEAR;
  GLenum wrap_s_ = GL_REPEAT;
  GLenum wrap_t_ = GL_REPEAT;
  std::vector<std::uint8_t> rgba8_;
};

// Converts one external-format pixel row into RGBA8. Exposed for tests.
// Returns false for unsupported (format, type) combinations — notably
// GL_FLOAT, which ES 2.0 does not support (paper limitation #5).
[[nodiscard]] bool ConvertRowToRgba8(GLenum format, GLenum type,
                                     const std::uint8_t* src, GLsizei width,
                                     std::uint8_t* dst);

// Bytes per pixel of an external format/type combination; 0 if unsupported.
[[nodiscard]] int ExternalBytesPerPixel(GLenum format, GLenum type);

}  // namespace mgpu::gles2

#endif  // MGPU_GLES2_TEXTURE_H_
