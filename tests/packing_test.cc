// Host-side packing (paper §IV + Fig. 2): bit-rotation correctness and
// pack/unpack round-trips for all five C formats, exhaustive where feasible.
#include "compute/packing.h"

#include <cmath>
#include <limits>

#include "common/bits.h"
#include "common/rng.h"
#include "gtest/gtest.h"

namespace mgpu::compute {
namespace {

TEST(PackingTest, ElemTraits) {
  EXPECT_EQ(ElemBytes(ElemType::kU8), 1);
  EXPECT_EQ(ElemBytes(ElemType::kF32), 4);
  EXPECT_EQ(ElemsPerTexel(ElemType::kI8), 4);
  EXPECT_EQ(ElemsPerTexel(ElemType::kI32), 1);
}

TEST(PackingTest, FloatRotationFieldPlacement) {
  // 1.0f = sign 0, biased exponent 127, mantissa 0.
  const std::uint32_t g = RotateFloatBitsForGpu(FloatToBits(1.0f));
  EXPECT_EQ(g >> 24, 127u);            // byte3 = biased exponent
  EXPECT_EQ((g >> 23) & 1u, 0u);       // sign bit at byte2's MSB
  EXPECT_EQ(g & 0x7fffffu, 0u);        // mantissa
  // -1.0f flips only the sign bit.
  const std::uint32_t gn = RotateFloatBitsForGpu(FloatToBits(-1.0f));
  EXPECT_EQ(gn >> 24, 127u);
  EXPECT_EQ((gn >> 23) & 1u, 1u);
}

TEST(PackingTest, FloatRotationRoundTripExhaustiveExponents) {
  // Every (sign, exponent) pair with assorted mantissas; each lands in the
  // Fig. 2 texel bytes: byte3 = exponent, bit 23 = sign, low 23 = mantissa.
  for (std::uint32_t s = 0; s <= 1; ++s) {
    for (std::uint32_t e = 0; e <= 255; ++e) {
      for (const std::uint32_t m : {0u, 1u, 0x2aaaaau, 0x7fffffu}) {
        const std::uint32_t bits = MakeFloatBits(s, e, m);
        const std::uint32_t g = RotateFloatBitsForGpu(bits);
        EXPECT_EQ(g >> 24, e);
        EXPECT_EQ((g >> 23) & 1u, s);
        EXPECT_EQ(g & 0x7fffffu, m);
        EXPECT_EQ(RotateFloatBitsFromGpu(g), bits);
      }
    }
  }
}

TEST(PackingTest, FloatRotationIsBijectiveOnRandomBits) {
  Rng rng(123);
  for (int i = 0; i < 100000; ++i) {
    const std::uint32_t bits = rng.NextU32();
    EXPECT_EQ(RotateFloatBitsFromGpu(RotateFloatBitsForGpu(bits)), bits);
    EXPECT_EQ(RotateFloatBitsForGpu(RotateFloatBitsFromGpu(bits)), bits);
  }
}

TEST(PackingTest, PackF32ByteLayoutMatchesFig2) {
  // 1.5f: sign 0, exponent 127, mantissa 0x400000 (m22 set).
  const auto texels = PackF32(std::array<float, 1>{1.5f});
  ASSERT_EQ(texels.size(), 4u);
  EXPECT_EQ(texels[3], 127);        // byte3: biased exponent
  EXPECT_EQ(texels[2], 0x40);       // byte2: sign(0) | m22..16 = 100'0000
  EXPECT_EQ(texels[1], 0);
  EXPECT_EQ(texels[0], 0);
  const auto neg = PackF32(std::array<float, 1>{-1.5f});
  EXPECT_EQ(neg[2], 0xC0);          // sign bit joins the high mantissa bits
  EXPECT_EQ(neg[3], 127);
}

TEST(PackingTest, U32LittleEndianLayout) {
  const auto texels = PackU32(std::array<std::uint32_t, 1>{0x04030201u});
  ASSERT_EQ(texels.size(), 4u);
  EXPECT_EQ(texels[0], 1);  // least significant byte in channel R (Eq. 6)
  EXPECT_EQ(texels[1], 2);
  EXPECT_EQ(texels[2], 3);
  EXPECT_EQ(texels[3], 4);
}

TEST(PackingTest, I32TwosComplementUnmodified) {
  // The paper's §VI point vs. Strzodka: the memory format is plain 2's
  // complement, so -1 packs as FF FF FF FF.
  const auto texels = PackI32(std::array<std::int32_t, 1>{-1});
  EXPECT_EQ(texels[0], 0xFF);
  EXPECT_EQ(texels[1], 0xFF);
  EXPECT_EQ(texels[2], 0xFF);
  EXPECT_EQ(texels[3], 0xFF);
}

TEST(PackingTest, RoundTripU8) {
  Rng rng(1);
  const auto v = rng.ByteVector(1001);  // odd size: tail texel padded
  const auto texels = PackU8(v);
  EXPECT_EQ(texels.size() % 4, 0u);
  std::vector<std::uint8_t> back(v.size());
  UnpackU8(texels, back);
  EXPECT_EQ(back, v);
}

TEST(PackingTest, RoundTripI8AllValues) {
  std::vector<std::int8_t> v(256);
  for (int i = 0; i < 256; ++i) v[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i - 128);
  const auto texels = PackI8(v);
  std::vector<std::int8_t> back(v.size());
  UnpackI8(texels, back);
  EXPECT_EQ(back, v);
}

TEST(PackingTest, RoundTripU32AndI32) {
  Rng rng(2);
  std::vector<std::uint32_t> u(4096);
  std::vector<std::int32_t> s(4096);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = rng.NextU32();
    s[i] = static_cast<std::int32_t>(rng.NextU32());
  }
  std::vector<std::uint32_t> ub(u.size());
  std::vector<std::int32_t> sb(s.size());
  UnpackU32(PackU32(u), ub);
  UnpackI32(PackI32(s), sb);
  EXPECT_EQ(ub, u);
  EXPECT_EQ(sb, s);
}

TEST(PackingTest, RoundTripF32IncludesSpecials) {
  std::vector<float> v = {
      0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 255.0f, 1.0f / 3.0f,
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
  };
  Rng rng(3);
  for (int i = 0; i < 4096; ++i) v.push_back(rng.NextWorkloadFloat());
  std::vector<float> back(v.size());
  UnpackF32(PackF32(v), back);
  for (std::size_t i = 0; i < v.size(); ++i) {
    // Host-side round trip is bit-exact ("the same transformations on the
    // CPU are precise", §V).
    EXPECT_EQ(FloatToBits(back[i]), FloatToBits(v[i])) << v[i];
  }
}

TEST(PackingTest, NanSurvivesRotation) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> back(1);
  UnpackF32(PackF32(std::array<float, 1>{nan}), back);
  EXPECT_TRUE(std::isnan(back[0]));
}

TEST(PackingTest, HostWorkModelsFusedRotation) {
  // §V: floats need the CPU-side bit re-arrangement, but its ALU ops hide
  // in the copy loop's load-use stalls on the ARM1176, so the model charges
  // zero marginal host work for every format (the transfer-bandwidth term
  // carries the copy itself); the Section V speedups were calibrated with
  // this zero and bench_section5_speedups gates them.
  const auto wf = HostPackWork(ElemType::kF32, 1000);
  const auto wi = HostPackWork(ElemType::kI32, 1000);
  EXPECT_EQ(vc4::CpuSeconds(vc4::Arm1176(), wf), 0.0);
  EXPECT_EQ(vc4::CpuSeconds(vc4::Arm1176(), wi), 0.0);
}

class PackingExhaustiveByte : public ::testing::TestWithParam<int> {};

TEST_P(PackingExhaustiveByte, U8SingleValue) {
  const auto b = static_cast<std::uint8_t>(GetParam());
  std::vector<std::uint8_t> back(1);
  UnpackU8(PackU8(std::array<std::uint8_t, 1>{b}), back);
  EXPECT_EQ(back[0], b);
}

INSTANTIATE_TEST_SUITE_P(AllBoundaries, PackingExhaustiveByte,
                         ::testing::Values(0, 1, 127, 128, 129, 254, 255));

}  // namespace
}  // namespace mgpu::compute
