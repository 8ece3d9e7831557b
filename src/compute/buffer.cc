#include "compute/buffer.h"

#include <cassert>
#include <stdexcept>

#include "common/strings.h"

namespace mgpu::compute {

using gles2::GLuint;

PackedBuffer::PackedBuffer(Device& device, ElemType type, std::size_t n)
    : device_(device), type_(type), n_(n) {
  const int per_texel = ElemsPerTexel(type);
  const std::size_t texels =
      (n + static_cast<std::size_t>(per_texel) - 1) / per_texel;
  const int max = device_.max_texture_size();
  // Challenge 3: 1D arrays must live in 2D textures; choose a tight layout.
  tex_w_ = static_cast<int>(texels < static_cast<std::size_t>(max)
                                ? (texels == 0 ? 1 : texels)
                                : static_cast<std::size_t>(max));
  tex_h_ = static_cast<int>((texels + tex_w_ - 1) / tex_w_);
  if (tex_h_ > max) {
    throw std::length_error("PackedBuffer: array exceeds texture capacity");
  }
  if (tex_h_ == 0) tex_h_ = 1;
  Init();
}

PackedBuffer::PackedBuffer(Device& device, ElemType type, int width,
                           int height)
    : device_(device), type_(type),
      n_(static_cast<std::size_t>(width) * height) {
  const int per_texel = ElemsPerTexel(type);
  if (width % per_texel != 0) {
    throw std::invalid_argument(
        "PackedBuffer: matrix width must be divisible by elements-per-texel");
  }
  tex_w_ = width / per_texel;
  tex_h_ = height;
  if (tex_w_ > device_.max_texture_size() ||
      tex_h_ > device_.max_texture_size()) {
    throw std::length_error("PackedBuffer: matrix exceeds texture capacity");
  }
  Init();
}

void PackedBuffer::Init() {
  gles2::Context& gl = device_.gl();
  gl.GenTextures(1, &tex_);
  gl.ActiveTexture(gles2::GL_TEXTURE0);
  gl.BindTexture(gles2::GL_TEXTURE_2D, tex_);
  gl.TexImage2D(gles2::GL_TEXTURE_2D, 0, gles2::GL_RGBA, tex_w_, tex_h_, 0,
                gles2::GL_RGBA, gles2::GL_UNSIGNED_BYTE, nullptr);
  // Challenge 4 discipline: NEAREST filtering + CLAMP_TO_EDGE so normalized
  // texel-center coordinates address elements exactly (and NPOT sizes stay
  // complete).
  gl.TexParameteri(gles2::GL_TEXTURE_2D, gles2::GL_TEXTURE_MIN_FILTER,
                   gles2::GL_NEAREST);
  gl.TexParameteri(gles2::GL_TEXTURE_2D, gles2::GL_TEXTURE_MAG_FILTER,
                   gles2::GL_NEAREST);
  gl.TexParameteri(gles2::GL_TEXTURE_2D, gles2::GL_TEXTURE_WRAP_S,
                   gles2::GL_CLAMP_TO_EDGE);
  gl.TexParameteri(gles2::GL_TEXTURE_2D, gles2::GL_TEXTURE_WRAP_T,
                   gles2::GL_CLAMP_TO_EDGE);
}

PackedBuffer::~PackedBuffer() {
  gles2::Context& gl = device_.gl();
  if (fbo_ != 0) gl.DeleteFramebuffers(1, &fbo_);
  if (tex_ != 0) gl.DeleteTextures(1, &tex_);
}

void PackedBuffer::UploadTexels(const std::vector<std::uint8_t>& texels,
                                ElemType t, std::uint64_t n) {
  if (t != type_) {
    throw std::invalid_argument(StrFormat(
        "PackedBuffer: upload type %s does not match buffer type %s",
        ElemTypeName(t), ElemTypeName(type_)));
  }
  std::vector<std::uint8_t> padded = texels;
  padded.resize(static_cast<std::size_t>(tex_w_) * tex_h_ * 4, 0);
  gles2::Context& gl = device_.gl();
  gl.ActiveTexture(gles2::GL_TEXTURE0);
  gl.BindTexture(gles2::GL_TEXTURE_2D, tex_);
  gl.TexSubImage2D(gles2::GL_TEXTURE_2D, 0, 0, 0, tex_w_, tex_h_,
                   gles2::GL_RGBA, gles2::GL_UNSIGNED_BYTE, padded.data());
  device_.work().bytes_uploaded += padded.size();
  device_.work().host_work += HostPackWork(type_, n);
}

void PackedBuffer::Upload(std::span<const std::uint8_t> v) {
  UploadTexels(PackU8(v), ElemType::kU8, v.size());
}
void PackedBuffer::Upload(std::span<const std::int8_t> v) {
  UploadTexels(PackI8(v), ElemType::kI8, v.size());
}
void PackedBuffer::Upload(std::span<const std::uint32_t> v) {
  UploadTexels(PackU32(v), ElemType::kU32, v.size());
}
void PackedBuffer::Upload(std::span<const std::int32_t> v) {
  UploadTexels(PackI32(v), ElemType::kI32, v.size());
}
void PackedBuffer::Upload(std::span<const float> v) {
  UploadTexels(PackF32(v), ElemType::kF32, v.size());
}

std::vector<std::uint8_t> PackedBuffer::ReadTexels() {
  gles2::Context& gl = device_.gl();
  if (fbo_ == 0) gl.GenFramebuffers(1, &fbo_);
  gl.BindFramebuffer(gles2::GL_FRAMEBUFFER, fbo_);
  gl.FramebufferTexture2D(gles2::GL_FRAMEBUFFER, gles2::GL_COLOR_ATTACHMENT0,
                          gles2::GL_TEXTURE_2D, tex_, 0);
  std::vector<std::uint8_t> texels(
      static_cast<std::size_t>(tex_w_) * tex_h_ * 4);
  gl.ReadPixels(0, 0, tex_w_, tex_h_, gles2::GL_RGBA,
                gles2::GL_UNSIGNED_BYTE, texels.data());
  gl.BindFramebuffer(gles2::GL_FRAMEBUFFER, 0);
  device_.work().bytes_readback += texels.size();
  return texels;
}

void PackedBuffer::Download(std::span<std::uint8_t> out) {
  UnpackU8(ReadTexels(), out);
  device_.work().host_work += HostPackWork(type_, out.size());
}
void PackedBuffer::Download(std::span<std::int8_t> out) {
  UnpackI8(ReadTexels(), out);
  device_.work().host_work += HostPackWork(type_, out.size());
}
void PackedBuffer::Download(std::span<std::uint32_t> out) {
  UnpackU32(ReadTexels(), out);
  device_.work().host_work += HostPackWork(type_, out.size());
}
void PackedBuffer::Download(std::span<std::int32_t> out) {
  UnpackI32(ReadTexels(), out);
  device_.work().host_work += HostPackWork(type_, out.size());
}
void PackedBuffer::Download(std::span<float> out) {
  UnpackF32(ReadTexels(), out);
  device_.work().host_work += HostPackWork(type_, out.size());
}

}  // namespace mgpu::compute
