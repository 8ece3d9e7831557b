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

  // Samples with normalized coordinates; returns RGBA in [0,1] (each channel
  // is c/255 exactly, Eq. (1) of the paper). Honors wrap modes and
  // mag filter (nearest / bilinear). `lod` is accepted for API completeness
  // but ignored (single-level textures). Any float coordinate is defined:
  // CLAMP_TO_EDGE clamps far and infinite coordinates to the edge texel,
  // the repeating modes wrap them, and NaN addresses texel 0.
  [[nodiscard]] std::array<float, 4> Sample(float s, float t, float lod) const;

  // The two halves of Sample for a complete texture, so a caller that
  // already needs the nearest texel index (the context's texture-cache
  // model) computes it once: the color of texel `index` (a
  // NearestTexelIndex result), and the bilinear sample at (s, t).
  [[nodiscard]] std::array<float, 4> TexelColor(long long index) const {
    const std::uint8_t* p = &rgba8_[static_cast<std::size_t>(index) * 4];
    return {kUnitOfByte[p[0]], kUnitOfByte[p[1]], kUnitOfByte[p[2]],
            kUnitOfByte[p[3]]};
  }
  [[nodiscard]] std::array<float, 4> SampleLinear(float s, float t) const;

  // Linear index of the texel a nearest-filter sample at (s, t) addresses;
  // used by the context's texture-cache model. -1 when there is no storage.
  [[nodiscard]] long long NearestTexelIndex(float s, float t) const;
  // NearestTexelIndex of lanes [0, n), n <= kMaxTexelRow, at (s[l], t[l])
  // into index[l], with each axis's wrap mode resolved once for the whole
  // row, so the TMU model computes a batch's texels in plain loops.
  // Requires storage.
  static constexpr int kMaxTexelRow = 32;
  void NearestTexelIndices(const float* s, const float* t, int n,
                           long long* index) const;

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

  [[nodiscard]] GLenum min_filter() const { return min_filter_; }
  [[nodiscard]] GLenum mag_filter() const { return mag_filter_; }
  [[nodiscard]] GLenum wrap_s() const { return wrap_s_; }
  [[nodiscard]] GLenum wrap_t() const { return wrap_t_; }

 private:
  [[nodiscard]] std::array<float, 4> FetchTexel(int x, int y) const;
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
