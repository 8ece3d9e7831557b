// The kernel framework end to end: buffer round trips through the GL
// pipeline (the shader-side transformations of §IV running on the simulated
// GPU), identity kernels for every element type, coordinate addressing, and
// framework error handling.
#include "compute/kernel.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compute/shaderlib.h"
#include "gtest/gtest.h"

namespace mgpu::compute {
namespace {

DeviceOptions ExactOptions() {
  DeviceOptions o;
  o.profile = vc4::IeeeExact();
  return o;
}

// Runs an identity kernel: out[i] = in[i] through texture fetch, unpack in
// the shader, repack into the framebuffer, ReadPixels and host unpack.
template <typename T>
std::vector<T> RoundTrip(Device& d, ElemType t, const std::vector<T>& v) {
  PackedBuffer in(d, t, v.size());
  PackedBuffer out(d, t, v.size());
  in.Upload(std::span<const T>(v));
  const bool is_byte = ElemsPerTexel(t) == 4;
  Kernel k(d, {.name = "identity",
               .inputs = {{"u_src", t}},
               .output = t,
               .extra_decls = "",
               .body = is_byte ? "vec4 gp_kernel(vec2 p) { return "
                                 "gp_fetch_u_src(gp_linear_index()); }\n"
                               : "float gp_kernel(vec2 p) { return "
                                 "gp_fetch_u_src(gp_linear_index()); }\n"});
  k.Run(out, {&in});
  std::vector<T> back(v.size());
  out.Download(std::span<T>(back));
  return back;
}

TEST(KernelTest, IdentityU8) {
  Device d(ExactOptions());
  Rng rng(1);
  const auto v = rng.ByteVector(777);
  EXPECT_EQ(RoundTrip(d, ElemType::kU8, v), v);
}

TEST(KernelTest, IdentityI8) {
  Device d(ExactOptions());
  std::vector<std::int8_t> v(256);
  for (int i = 0; i < 256; ++i) v[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i - 128);
  EXPECT_EQ(RoundTrip(d, ElemType::kI8, v), v);
}

TEST(KernelTest, IdentityU32Within24Bits) {
  // Paper §IV-C: fp32 reconstruction is exact up to 2^24.
  Device d(ExactOptions());
  Rng rng(2);
  std::vector<std::uint32_t> v(512);
  for (auto& x : v) {
    x = static_cast<std::uint32_t>(rng.NextInt(0, kExactIntRange - 1));
  }
  v.push_back(0);
  v.push_back(kExactIntRange - 1);
  EXPECT_EQ(RoundTrip(d, ElemType::kU32, v), v);
}

TEST(KernelTest, IdentityI32SignedRange) {
  Device d(ExactOptions());
  Rng rng(3);
  std::vector<std::int32_t> v(512);
  for (auto& x : v) {
    x = static_cast<std::int32_t>(
        rng.NextInt(-(kExactIntRange - 1), kExactIntRange - 1));
  }
  v.push_back(-1);
  v.push_back(0);
  v.push_back(-(kExactIntRange - 1));
  EXPECT_EQ(RoundTrip(d, ElemType::kI32, v), v);
}

TEST(KernelTest, IdentityF32BitExactOnExactAlu) {
  // With an IEEE-exact ALU the shader-side float algebra must be lossless
  // for normal values — this isolates the *transformations* from the
  // *platform*, exactly the paper's CPU-verification argument.
  Device d(ExactOptions());
  Rng rng(4);
  std::vector<float> v(2048);
  for (auto& x : v) x = rng.NextWorkloadFloat();
  v.push_back(1.0f);
  v.push_back(-1.0f);
  v.push_back(0.0f);
  v.push_back(3.14159265f);
  v.push_back(1e-20f);
  v.push_back(1e20f);
  const auto back = RoundTrip(d, ElemType::kF32, v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(FloatToBits(back[i]), FloatToBits(v[i])) << v[i];
  }
}

TEST(KernelTest, IdentityF32WorksUnderPaperQuantization) {
  // The pack offset must survive the floor conversion of Eq. (2) as well as
  // round-to-nearest drivers.
  DeviceOptions o = ExactOptions();
  o.quantization = gles2::FbQuantization::kFloorPaper;
  Device d(o);
  Rng rng(5);
  std::vector<float> v(1024);
  for (auto& x : v) x = rng.NextWorkloadFloat();
  const auto back = RoundTrip(d, ElemType::kF32, v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(FloatToBits(back[i]), FloatToBits(v[i])) << v[i];
  }
}

TEST(KernelTest, LargeBufferSpansMultipleRows) {
  Device d(ExactOptions());
  Rng rng(6);
  // > max_texture_size texels so the buffer wraps onto several rows.
  std::vector<float> v(10000);
  for (auto& x : v) x = rng.NextWorkloadFloat();
  const auto back = RoundTrip(d, ElemType::kF32, v);
  int mismatches = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    mismatches += FloatToBits(back[i]) != FloatToBits(v[i]) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(KernelTest, CoordinateMappingAddressesEveryElement) {
  // out[i] = in[n - 1 - i]: a permutation exercises gp_coord addressing.
  Device d(ExactOptions());
  const int n = 300;
  std::vector<std::int32_t> v(n);
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i * 7 - 1000;
  PackedBuffer in(d, ElemType::kI32, v.size());
  PackedBuffer out(d, ElemType::kI32, v.size());
  in.Upload(std::span<const std::int32_t>(v));
  Kernel k(d, {.name = "reverse",
               .inputs = {{"u_src", ElemType::kI32}},
               .output = ElemType::kI32,
               .extra_decls = StrFormat("#define GP_N %d.0", n),
               .body = R"(
float gp_kernel(vec2 p) {
  return gp_fetch_u_src(GP_N - 1.0 - gp_linear_index());
}
)"});
  k.Run(out, {&in});
  std::vector<std::int32_t> back(v.size());
  out.Download(std::span<std::int32_t>(back));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(back[static_cast<std::size_t>(i)],
              v[static_cast<std::size_t>(n - 1 - i)]) << i;
  }
}

TEST(KernelTest, UniformsReachTheKernel) {
  Device d(ExactOptions());
  PackedBuffer out(d, ElemType::kF32, 16);
  Kernel k(d, {.name = "fill",
               .inputs = {},
               .output = ElemType::kF32,
               .extra_decls = "uniform float u_value;",
               .body = "float gp_kernel(vec2 p) { return u_value; }\n"});
  k.SetUniform1f("u_value", 42.5f);
  k.Run(out, {});
  std::vector<float> back(16);
  out.Download(std::span<float>(back));
  for (const float x : back) EXPECT_EQ(x, 42.5f);
}

TEST(KernelTest, MatrixBufferFetch2) {
  Device d(ExactOptions());
  const int n = 8;
  std::vector<float> m(static_cast<std::size_t>(n) * n);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = static_cast<float>(i);
  PackedBuffer in(d, ElemType::kF32, n, n);
  PackedBuffer out(d, ElemType::kF32, n, n);
  in.Upload(std::span<const float>(m));
  // Transpose through 2D addressing.
  Kernel k(d, {.name = "transpose",
               .inputs = {{"u_m", ElemType::kF32}},
               .output = ElemType::kF32,
               .extra_decls = "",
               .body = R"(
float gp_kernel(vec2 p) { return gp_fetch2_u_m(p.y, p.x); }
)"});
  k.Run(out, {&in});
  std::vector<float> back(m.size());
  out.Download(std::span<float>(back));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(back[static_cast<std::size_t>(r * n + c)],
                m[static_cast<std::size_t>(c * n + r)]);
    }
  }
}

TEST(KernelTest, CompileErrorThrowsWithLog) {
  Device d(ExactOptions());
  EXPECT_THROW(Kernel(d, {.name = "broken",
                          .inputs = {},
                          .output = ElemType::kF32,
                          .extra_decls = "",
                          .body = "float gp_kernel(vec2 p) { return 1; }\n"}),
               std::runtime_error);
}

TEST(KernelTest, InputCountMismatchThrows) {
  Device d(ExactOptions());
  PackedBuffer out(d, ElemType::kF32, 4);
  Kernel k(d, {.name = "nullary",
               .inputs = {},
               .output = ElemType::kF32,
               .extra_decls = "",
               .body = "float gp_kernel(vec2 p) { return 0.0; }\n"});
  PackedBuffer extra(d, ElemType::kF32, 4);
  EXPECT_THROW(k.Run(out, {&extra}), std::invalid_argument);
}

TEST(KernelTest, OutputTypeMismatchThrows) {
  Device d(ExactOptions());
  PackedBuffer wrong(d, ElemType::kI32, 4);
  Kernel k(d, {.name = "f32_out",
               .inputs = {},
               .output = ElemType::kF32,
               .extra_decls = "",
               .body = "float gp_kernel(vec2 p) { return 0.0; }\n"});
  EXPECT_THROW(k.Run(wrong, {}), std::invalid_argument);
}

TEST(KernelTest, WorkAccountingTracksDispatch) {
  Device d(ExactOptions());
  (void)d.ConsumeWork();
  std::vector<float> v(64, 1.0f);
  (void)RoundTrip(d, ElemType::kF32, v);
  const vc4::GpuWork w = d.ConsumeWork();
  EXPECT_EQ(w.fragments, 64u);
  EXPECT_EQ(w.draw_calls, 1);
  EXPECT_EQ(w.program_compiles, 1);
  EXPECT_GT(w.shader_ops.alu, 0u);
  EXPECT_EQ(w.shader_ops.tmu, 64u);  // one fetch per fragment
  EXPECT_EQ(w.bytes_uploaded, 64u * 4u);
  EXPECT_EQ(w.bytes_readback, 64u * 4u);
  // Consuming resets.
  EXPECT_EQ(d.ConsumeWork().fragments, 0u);
}

TEST(KernelTest, MultiKernelSplitsOutputs) {
  Device d(ExactOptions());
  std::vector<float> v = {3.0f, -1.0f, 7.0f, 2.0f};
  PackedBuffer in(d, ElemType::kF32, v.size());
  in.Upload(std::span<const float>(v));
  PackedBuffer sum(d, ElemType::kF32, 1);
  PackedBuffer prod(d, ElemType::kF32, 1);
  const std::string body = R"(
void gp_kernel_multi(vec2 p, out float o0, out float o1) {
  float a = gp_fetch_u_src(0.0);
  float b = gp_fetch_u_src(1.0);
  float c = gp_fetch_u_src(2.0);
  float e = gp_fetch_u_src(3.0);
  o0 = a + b + c + e;
  o1 = a * b * c * e;
}
)";
  MultiKernel mk(d, {.name = "sumprod",
                     .inputs = {{"u_src", ElemType::kF32}},
                     .outputs = {ElemType::kF32, ElemType::kF32},
                     .extra_decls = "",
                     .body = body});
  Kernel one(d, {.name = "sum_only",
                 .inputs = {{"u_src", ElemType::kF32}},
                 .output = ElemType::kF32,
                 .extra_decls = "",
                 .body = body + "float gp_kernel(vec2 p) { float o0; float "
                                "o1; gp_kernel_multi(p, o0, o1); return o0; "
                                "}\n"});
  EXPECT_EQ(mk.output_count(), 2);
  (void)d.ConsumeWork();
  one.Run(sum, {&in});
  const vc4::GpuWork single = d.ConsumeWork();
  mk.Run({&sum, &prod}, {&in});
  const vc4::GpuWork split = d.ConsumeWork();
  float s = 0.0f, p = 0.0f;
  sum.Download(std::span<float>(&s, 1));
  prod.Download(std::span<float>(&p, 1));
  EXPECT_EQ(s, 11.0f);
  EXPECT_EQ(p, -42.0f);
  // §III-8: ES 2.0 has one fragment output, so each output re-runs the
  // whole body: the split costs exactly twice one output's fragments and
  // texture fetches.
  EXPECT_GT(single.fragments, 0u);
  EXPECT_EQ(split.fragments, 2 * single.fragments);
  EXPECT_EQ(split.shader_ops.tmu, 2 * single.shader_ops.tmu);
}

TEST(KernelTest, MultiKernelRejectsByteOutputs) {
  Device d(ExactOptions());
  EXPECT_THROW(
      MultiKernel(d, {.name = "bad",
                      .inputs = {},
                      .outputs = {ElemType::kU8},
                      .extra_decls = "",
                      .body = "void gp_kernel_multi(vec2 p, out float o0) { "
                              "o0 = 0.0; }\n"}),
      std::invalid_argument);
}

TEST(KernelTest, MatrixWidthMustMatchTexelGranularity) {
  Device d(ExactOptions());
  EXPECT_THROW(PackedBuffer(d, ElemType::kU8, 7, 3), std::invalid_argument);
}

TEST(KernelTest, GeneratedSourceContainsLibrary) {
  Device d(ExactOptions());
  Kernel k(d, {.name = "probe",
               .inputs = {{"u_x", ElemType::kF32}},
               .output = ElemType::kI32,
               .extra_decls = "",
               .body = "float gp_kernel(vec2 p) { return "
                       "gp_fetch_u_x(gp_linear_index()); }\n"});
  const std::string& src = k.fragment_source();
  EXPECT_TRUE(Contains(src, "precision highp float;"));
  EXPECT_TRUE(Contains(src, "gp_unpack_f32"));
  EXPECT_TRUE(Contains(src, "gp_pack_i32"));
  EXPECT_TRUE(Contains(src, "gp_fetch_u_x"));
  EXPECT_TRUE(Contains(src, "void main()"));
}

// Device::ConsumeWork folds in every draw on the device context, not just
// the ones Kernel::Run issues: a raw draw re-running the kernel's bound
// program is counted, its texture fetch included.
TEST(KernelTest, ConsumeWorkCountsRawDraws) {
  Device d(ExactOptions());
  PackedBuffer in(d, ElemType::kF32, 64);
  PackedBuffer out(d, ElemType::kF32, 64);
  in.Upload(std::span<const float>(std::vector<float>(64, 1.5f)));
  Kernel k(d, {.name = "twice",
               .inputs = {{"u_src", ElemType::kF32}},
               .output = ElemType::kF32,
               .extra_decls = "",
               .body = "float gp_kernel(vec2 p) { return 2.0 * "
                       "gp_fetch_u_src(gp_linear_index()); }\n"});
  // Run leaves the kernel's program, input texture and quad bound.
  k.Run(out, {&in});
  (void)d.ConsumeWork();
  d.gl().DrawArrays(gles2::GL_TRIANGLES, 0, d.quad_vertex_count());
  const glsl::OpCounts raw = d.ConsumeWork().shader_ops;
  EXPECT_GT(raw.alu, 0u);
  EXPECT_GT(raw.tmu, 0u);
}

}  // namespace
}  // namespace mgpu::compute
