// Platform model tests: SFU precision characteristics, denormal flush,
// mediump rounding, profile parameters and the timing formulas.
#include <cmath>

#include "common/bits.h"
#include "common/rng.h"
#include "vc4/profiles.h"
#include "vc4/timing.h"

#include "gtest/gtest.h"

namespace mgpu::vc4 {
namespace {

TEST(ProfileTest, VideoCoreIvPeaksAt24GFlops) {
  // The paper's headline hardware number.
  EXPECT_DOUBLE_EQ(PeakFlops(VideoCoreIV()), 24e9);
}

TEST(ProfileTest, Mali400LacksFragmentHighp) {
  EXPECT_FALSE(Mali400().limits.fragment_highp_float);
  EXPECT_TRUE(VideoCoreIV().limits.fragment_highp_float);
}

TEST(Vc4AluTest, Exp2ErrorBoundedBySfuBits) {
  glsl::AluModel alu = ProfileAlu(VideoCoreIV());
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const float x = rng.NextFloat(-20.0f, 20.0f);
    const float got = alu.Exp2(x);
    const float exact = std::exp2(x);
    const float rel = std::fabs(got - exact) / exact;
    EXPECT_LE(rel, std::ldexp(1.0f, -15)) << x;  // |eta| <= 2^-16, margin 2x
  }
}

TEST(Vc4AluTest, Exp2ErrorIsDeterministic) {
  glsl::AluModel alu = ProfileAlu(VideoCoreIV());
  EXPECT_EQ(alu.Exp2(3.7f), alu.Exp2(3.7f));
}

TEST(Vc4AluTest, Exp2IsNotExactOnVc4) {
  // The mechanism behind the paper's 15-bit result: exp2 of even integer
  // arguments carries SFU error.
  glsl::AluModel alu = ProfileAlu(VideoCoreIV());
  int inexact = 0;
  for (int e = -100; e <= 100; ++e) {
    if (alu.Exp2(static_cast<float>(e)) !=
        std::exp2(static_cast<float>(e))) {
      ++inexact;
    }
  }
  EXPECT_GT(inexact, 150);  // nearly all integer exp2 results are perturbed
}

TEST(Vc4AluTest, RecipNearExact) {
  // Newton-Raphson refined: the integer path (which divides by powers of
  // 256) must stay exact — that is why the paper's int results validate.
  glsl::AluModel alu = ProfileAlu(VideoCoreIV());
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const float x = rng.NextWorkloadFloat();
    EXPECT_EQ(alu.Recip(x), 1.0f / x);
  }
}

TEST(Vc4AluTest, Log2ErrorBounded) {
  glsl::AluModel alu = ProfileAlu(VideoCoreIV());
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const float x = rng.NextFloat(1e-3f, 1e6f);
    const float got = alu.Log2(x);
    EXPECT_LE(std::fabs(got - std::log2(x)), std::ldexp(1.0f, -15)) << x;
  }
}

TEST(Vc4AluTest, DenormalsFlushToZero) {
  glsl::AluModel alu = ProfileAlu(VideoCoreIV());
  const float denormal = 1e-40f;
  EXPECT_EQ(alu.Add(denormal, 0.0f), 0.0f);
  EXPECT_EQ(alu.Add(1.0f, 1.0f), 2.0f);
}

TEST(Vc4AluTest, MediumpAluRoundsTo10Bits) {
  glsl::AluModel alu = ProfileAlu(Mali400());
  const float x = alu.Add(1.0f, 1.0f / 4096.0f);  // needs 12 mantissa bits
  EXPECT_EQ(x, 1.0f);  // rounded away at 10 bits
  const float y = alu.Add(1.0f, 1.0f / 256.0f);  // needs 8 bits: survives
  EXPECT_GT(y, 1.0f);
}

TEST(Vc4AluTest, ExactAluIsExact) {
  glsl::AluModel alu;
  EXPECT_EQ(alu.Exp2(7.0f), 128.0f);
  EXPECT_EQ(alu.Div(1.0f, 3.0f), 1.0f / 3.0f);
}

TEST(Vc4AluTest, TwoNanOperandsKeepTheFirstOperandsNan) {
  // Which NaN a two-NaN operation returns must not depend on the operand
  // order the compiler emits: the first operand's, quieted, always.
  const float neg = BitsToFloat(0xffc00000u);  // x86's default NaN
  const float pos = BitsToFloat(0x7fc00000u);
  const float snan = BitsToFloat(0x7fa00000u);
  for (const bool vc4 : {false, true}) {
    glsl::AluModel alu = vc4 ? ProfileAlu(VideoCoreIV()) : glsl::AluModel{};
    EXPECT_EQ(FloatToBits(alu.Add(neg, pos)), 0xffc00000u);
    EXPECT_EQ(FloatToBits(alu.Add(pos, neg)), 0x7fc00000u);
    EXPECT_EQ(FloatToBits(alu.Sub(pos, neg)), 0x7fc00000u);
    EXPECT_EQ(FloatToBits(alu.Mul(neg, pos)), 0xffc00000u);
    EXPECT_EQ(FloatToBits(alu.Mul(snan, neg)), 0x7fe00000u);
    EXPECT_EQ(FloatToBits(alu.Div(pos, neg)), 0x7fc00000u);
  }
}

TEST(Vc4AluTest, OpCountsAccumulateAcrossKinds) {
  glsl::AluModel alu = ProfileAlu(VideoCoreIV());
  (void)alu.Add(1.0f, 2.0f);
  (void)alu.Mul(1.0f, 2.0f);
  (void)alu.Exp2(1.0f);       // transcendental SFU class
  (void)alu.Div(1.0f, 2.0f);  // 1 alu + 1 reciprocal SFU
  alu.CountTmu(3);
  EXPECT_EQ(alu.counts().alu, 3u);
  EXPECT_EQ(alu.counts().sfu, 1u);
  EXPECT_EQ(alu.counts().sfu_trans, 1u);
  EXPECT_EQ(alu.counts().tmu, 3u);
  alu.ResetCounts();
  EXPECT_EQ(alu.counts().alu, 0u);
}

TEST(TimingTest, CpuSecondsMatchesCostTable) {
  CpuModel cpu = Arm1176();
  CpuWork w;
  w.fp_adds = 700;
  EXPECT_NEAR(CpuSeconds(cpu, w), 700.0 * cpu.fp_add_cycles / cpu.clock_hz,
              1e-12);
  CpuWork mem;
  mem.loads = 100;
  mem.stores = 50;
  EXPECT_NEAR(CpuSeconds(cpu, mem),
              (100.0 * cpu.load_cycles + 50.0 * cpu.store_cycles) /
                  cpu.clock_hz,
              1e-12);
}

TEST(TimingTest, IntOpsCheaperThanFpOnArm1176) {
  // The asymmetry the paper cites to explain why float speedups are lower:
  // "in the CPU the integer operations are faster than the fp ones".
  CpuModel cpu = Arm1176();
  CpuWork int_work, fp_work;
  int_work.int_ops = 1000;
  fp_work.fp_adds = 1000;
  EXPECT_LT(CpuSeconds(cpu, int_work), CpuSeconds(cpu, fp_work));
}

TEST(TimingTest, GpuBreakdownComponents) {
  const GpuProfile gpu = VideoCoreIV();
  const CpuModel cpu = Arm1176();
  GpuWork w;
  w.shader_ops.alu = 48'000'000;  // 48M ALU ops, dual-issued over 48 lanes
  w.bytes_uploaded = 8'000'000;
  w.bytes_readback = 4'000'000;
  w.program_compiles = 2;
  w.draw_calls = 1;
  const GpuTimeBreakdown t = GpuSeconds(gpu, cpu, w);
  EXPECT_NEAR(t.shader,
              48e6 / 2.0 / gpu.interp_ops_per_native / (48.0 * 250e6), 1e-9);
  EXPECT_NEAR(t.upload, 8e6 / gpu.upload_bytes_per_sec, 1e-9);
  EXPECT_NEAR(t.readback, 4e6 / gpu.readback_bytes_per_sec, 1e-9);
  EXPECT_NEAR(t.compile, 2.0 * gpu.compile_seconds, 1e-12);
  EXPECT_GT(t.total(), t.shader);
}

TEST(TimingTest, TextureCacheMissesCostMore) {
  const GpuProfile gpu = VideoCoreIV();
  const CpuModel cpu = Arm1176();
  GpuWork streaming, strided;
  streaming.shader_ops.tmu = 1000;
  streaming.shader_ops.tmu_miss = 125;  // 1-in-8 sequential miss rate
  strided.shader_ops.tmu = 1000;
  strided.shader_ops.tmu_miss = 1000;   // column walk: every fetch misses
  EXPECT_LT(GpuSeconds(gpu, cpu, streaming).shader,
            GpuSeconds(gpu, cpu, strided).shader / 4.0);
}

TEST(TimingTest, SfuAndTmuCostMoreThanAlu) {
  const GpuProfile gpu = VideoCoreIV();
  const CpuModel cpu = Arm1176();
  GpuWork alu_work, sfu_work, tmu_work;
  alu_work.shader_ops.alu = 1000;
  sfu_work.shader_ops.sfu = 1000;
  tmu_work.shader_ops.tmu = 1000;
  const double ta = GpuSeconds(gpu, cpu, alu_work).total();
  const double ts = GpuSeconds(gpu, cpu, sfu_work).total();
  const double tt = GpuSeconds(gpu, cpu, tmu_work).total();
  EXPECT_LT(ta, ts);
  EXPECT_LT(ts, tt);
}

TEST(TimingTest, WorkAccumulation) {
  GpuWork a, b;
  a.fragments = 10;
  a.shader_ops.alu = 100;
  a.program_compiles = 1;
  b.fragments = 20;
  b.shader_ops.alu = 50;
  b.host_work.loads = 7;
  a += b;
  EXPECT_EQ(a.fragments, 30u);
  EXPECT_EQ(a.shader_ops.alu, 150u);
  EXPECT_EQ(a.host_work.loads, 7u);
  EXPECT_EQ(a.program_compiles, 1);
}

TEST(TimingTest, MatchingMantissaBitsMetric) {
  // The metric used for the paper's §V precision claim.
  EXPECT_EQ(MatchingMantissaBits(1.0f, 1.0f), 23);
  const float perturbed = BitsToFloat(FloatToBits(1.5f) + 0x100);  // 8 low bits
  EXPECT_LE(MatchingMantissaBits(1.5f, perturbed), 15);
  EXPECT_GE(MatchingMantissaBits(1.5f, perturbed), 14);
}

}  // namespace
}  // namespace mgpu::vc4
