// Typed device buffers over RGBA8 textures (paper challenges 3/4/5): a 1D
// array of any C numeric format becomes a 2D byte texture; matrices map one
// element per texel row-major. Downloads go through the only readback path
// ES 2.0 offers — attach the texture to an FBO and glReadPixels (challenge
// 7).
#ifndef MGPU_COMPUTE_BUFFER_H_
#define MGPU_COMPUTE_BUFFER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "compute/device.h"
#include "compute/packing.h"

namespace mgpu::compute {

class PackedBuffer {
 public:
  // 1D array of n elements; texture dimensions are chosen automatically.
  PackedBuffer(Device& device, ElemType type, std::size_t n);
  // 2D matrix (width x height elements, row-major). Byte formats require
  // width divisible by 4.
  PackedBuffer(Device& device, ElemType type, int width, int height);
  ~PackedBuffer();

  PackedBuffer(const PackedBuffer&) = delete;
  PackedBuffer& operator=(const PackedBuffer&) = delete;

  [[nodiscard]] ElemType type() const { return type_; }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] int tex_width() const { return tex_w_; }
  [[nodiscard]] int tex_height() const { return tex_h_; }
  [[nodiscard]] gles2::GLuint texture() const { return tex_; }

  // --- uploads (host -> texture); type must match the buffer's ElemType ---
  void Upload(std::span<const std::uint8_t> v);
  void Upload(std::span<const std::int8_t> v);
  void Upload(std::span<const std::uint32_t> v);
  void Upload(std::span<const std::int32_t> v);
  void Upload(std::span<const float> v);

  // --- downloads (texture -> host) via FBO + ReadPixels ---
  void Download(std::span<std::uint8_t> out);
  void Download(std::span<std::int8_t> out);
  void Download(std::span<std::uint32_t> out);
  void Download(std::span<std::int32_t> out);
  void Download(std::span<float> out);

 private:
  void Init();
  void UploadTexels(const std::vector<std::uint8_t>& texels, ElemType t,
                    std::uint64_t n);
  [[nodiscard]] std::vector<std::uint8_t> ReadTexels();

  Device& device_;
  ElemType type_;
  std::size_t n_ = 0;
  int tex_w_ = 0;
  int tex_h_ = 0;
  gles2::GLuint tex_ = 0;
  gles2::GLuint fbo_ = 0;  // lazily created for downloads
};

}  // namespace mgpu::compute

#endif  // MGPU_COMPUTE_BUFFER_H_
