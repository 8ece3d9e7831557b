// The paper's §V precision experiment as a test: float values round-tripped
// through the GPU pipeline are accurate within ~15 most-significant mantissa
// bits on the VideoCore IV model, exactly reproducible on the IEEE-exact
// model, and collapse on a mediump-only fragment pipe (Mali-400 class, §IV-E
// footnote 1).
#include <cmath>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "compute/kernel.h"
#include "gtest/gtest.h"

namespace mgpu::compute {
namespace {

std::vector<float> RoundTripF32(Device& d, const std::vector<float>& v) {
  PackedBuffer in(d, ElemType::kF32, v.size());
  PackedBuffer out(d, ElemType::kF32, v.size());
  in.Upload(std::span<const float>(v));
  Kernel k(d, {.name = "identity_f32",
               .inputs = {{"u_src", ElemType::kF32}},
               .output = ElemType::kF32,
               .extra_decls = "",
               .body = "float gp_kernel(vec2 p) { return "
                       "gp_fetch_u_src(gp_linear_index()); }\n"});
  k.Run(out, {&in});
  std::vector<float> back(v.size());
  out.Download(std::span<float>(back));
  return back;
}

std::vector<float> Workload(std::size_t n) {
  Rng rng(2026);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.NextWorkloadFloat();
  return v;
}

int MinMatchingBits(const std::vector<float>& expected,
                    const std::vector<float>& actual) {
  int worst = 23;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    worst = std::min(worst, MatchingMantissaBits(expected[i], actual[i]));
  }
  return worst;
}

double MeanMatchingBits(const std::vector<float>& expected,
                        const std::vector<float>& actual) {
  double sum = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    sum += MatchingMantissaBits(expected[i], actual[i]);
  }
  return sum / static_cast<double>(expected.size());
}

TEST(PrecisionTest, VideoCoreRoundTripKeepsAbout15MantissaBits) {
  DeviceOptions o;  // VideoCore IV
  Device d(o);
  const auto v = Workload(4096);
  const auto back = RoundTripF32(d, v);
  const double mean = MeanMatchingBits(v, back);
  // Paper §V: "accurate with respect to the fp32 format ... within the 15
  // most significant bits of the mantissa".
  EXPECT_GE(mean, 14.0) << "VideoCore model too lossy";
  EXPECT_LE(mean, 19.0) << "VideoCore model suspiciously exact";
  EXPECT_GE(MinMatchingBits(v, back), 12);
}

TEST(PrecisionTest, ExactAluRoundTripIsBitExact) {
  DeviceOptions o;
  o.profile = vc4::IeeeExact();
  Device d(o);
  const auto v = Workload(4096);
  const auto back = RoundTripF32(d, v);
  EXPECT_EQ(MinMatchingBits(v, back), 23);
}

TEST(PrecisionTest, BetterThanHalfFloatWorseThanFp32) {
  // The paper positions the achieved precision between fp16 (10 mantissa
  // bits) and fp32 (23).
  Device d;
  const auto v = Workload(2048);
  const auto back = RoundTripF32(d, v);
  const double mean = MeanMatchingBits(v, back);
  EXPECT_GT(mean, 10.0);  // better than half float
  EXPECT_LT(mean, 23.0);  // not full fp32
}

TEST(PrecisionTest, ArithmeticThroughKernelKeepsPrecisionBand) {
  // Not just a round trip: an actual computation (x*2 + 1) through the
  // pipeline stays within the same accuracy band.
  Device d;
  const auto v = Workload(2048);
  PackedBuffer in(d, ElemType::kF32, v.size());
  PackedBuffer out(d, ElemType::kF32, v.size());
  in.Upload(std::span<const float>(v));
  Kernel k(d, {.name = "fma",
               .inputs = {{"u_src", ElemType::kF32}},
               .output = ElemType::kF32,
               .extra_decls = "",
               .body = "float gp_kernel(vec2 p) { return "
                       "gp_fetch_u_src(gp_linear_index()) * 2.0 + 1.0; }\n"});
  k.Run(out, {&in});
  std::vector<float> back(v.size());
  out.Download(std::span<float>(back));
  std::vector<float> expected(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) expected[i] = v[i] * 2.0f + 1.0f;
  EXPECT_GE(MeanMatchingBits(expected, back), 13.0);
}

TEST(PrecisionTest, MediumpFragmentPipeCollapsesFloatPath) {
  // A4 ablation: on Mali-400-class hardware the fragment stage lacks highp;
  // the float transformations degrade far below the VideoCore result.
  DeviceOptions o;
  o.profile = vc4::Mali400();
  Device d(o);
  const auto v = Workload(512);
  const auto back = RoundTripF32(d, v);
  const double mali_mean = MeanMatchingBits(v, back);
  EXPECT_LT(mali_mean, 13.0);  // ~mediump: clearly below the 15-bit result
}

TEST(PrecisionTest, IntegerPathUnaffectedByPlatformModel) {
  // The asymmetry at the heart of §V: integers validate exactly on the same
  // platform model that degrades floats.
  Device d;
  Rng rng(7);
  std::vector<std::int32_t> v(2048);
  for (auto& x : v) {
    x = static_cast<std::int32_t>(rng.NextInt(-(1 << 23), (1 << 23)));
  }
  PackedBuffer in(d, ElemType::kI32, v.size());
  PackedBuffer out(d, ElemType::kI32, v.size());
  in.Upload(std::span<const std::int32_t>(v));
  Kernel k(d, {.name = "identity_i32",
               .inputs = {{"u_src", ElemType::kI32}},
               .output = ElemType::kI32,
               .extra_decls = "",
               .body = "float gp_kernel(vec2 p) { return "
                       "gp_fetch_u_src(gp_linear_index()); }\n"});
  k.Run(out, {&in});
  std::vector<std::int32_t> back(v.size());
  out.Download(std::span<std::int32_t>(back));
  EXPECT_EQ(back, v);
}

}  // namespace
}  // namespace mgpu::compute
