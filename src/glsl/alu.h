// The ALU model abstracts the GPU's arithmetic behaviour. Every float
// operation the engines perform follows an AluModel, which serves two
// purposes central to this reproduction:
//   1. precision modeling — a model is plain data: a RoundSpec (register
//      precision) and an SfuSpec (the special function unit's exp2/log2
//      error). The VideoCore IV model (vc4::ProfileAlu) has an SFU error of
//      2^-16, which is what produces the paper's "accurate within the 15
//      most significant bits of the mantissa" result;
//   2. operation counting — ALU/SFU/TMU counts feed the timing model that
//      regenerates the paper's speedup table without hardware.
// The arithmetic itself is the inline formulas below (PinNan and the FAdd
// family, RoundSpec, SfuExp2/SfuLog2/SfuSqrt, FFloor, the integer
// helpers): the scalar AluModel entry points and the batch kernels of
// evalcore.h and builtins.cc call the same definitions, so the engines
// cannot drift apart.
#ifndef MGPU_GLSL_ALU_H_
#define MGPU_GLSL_ALU_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace mgpu::glsl {

struct OpCounts {
  std::uint64_t alu = 0;  // simple float/int ALU operations
  std::uint64_t sfu = 0;  // reciprocal-class SFU ops (recip, rsqrt)
  std::uint64_t sfu_trans = 0;  // transcendental SFU ops (exp2, log2, trig)
  std::uint64_t tmu = 0;  // texture fetches (total)
  std::uint64_t tmu_miss = 0;  // fetches that missed the texture cache
  // Host-side cost of the bytecode VM, not a modeled GPU op: batch steps
  // dispatched (one instruction over one lane group). It depends on the
  // engine and lane width, so it is the one field the engines do not share;
  // the tree walker never counts it.
  std::uint64_t vm_steps = 0;

  OpCounts& operator+=(const OpCounts& o) {
    alu += o.alu;
    sfu += o.sfu;
    sfu_trans += o.sfu_trans;
    tmu += o.tmu;
    tmu_miss += o.tmu_miss;
    vm_steps += o.vm_steps;
    return *this;
  }
};

// Integer ALU semantics, total on every input: signed add, subtract,
// multiply and negate wrap in two's complement, x / 0 == 0 and
// INT_MIN / -1 == INT_MIN (the wrapped quotient), so no operand pair
// traps or is undefined. Float-to-int conversion truncates toward zero;
// NaN and values outside the int range give INT_MIN, which is what x86's
// cvttss2si returns for them. Both engines route every integer op and
// conversion through these, and the batch kernels may evaluate them on
// inactive lanes' stale cells.
[[nodiscard]] inline std::int32_t IAdd(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}
[[nodiscard]] inline std::int32_t ISub(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}
[[nodiscard]] inline std::int32_t IMul(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) *
                                   static_cast<std::uint32_t>(b));
}
[[nodiscard]] inline std::int32_t INeg(std::int32_t a) { return ISub(0, a); }
[[nodiscard]] inline std::int32_t IDiv(std::int32_t a, std::int32_t b) {
  if (b == 0) return 0;
  return b == -1 ? INeg(a) : a / b;
}
[[nodiscard]] inline std::int32_t FloatToInt(float f) {
  return f >= -2147483648.0f && f < 2147483648.0f
             ? static_cast<std::int32_t>(f)
             : std::numeric_limits<std::int32_t>::min();
}

// True when the float with bit pattern `u` is a NaN.
[[nodiscard]] inline bool IsNanBits(std::uint32_t u) {
  return (u & 0x7fffffffu) > 0x7f800000u;
}

// Float add/sub/mul with the NaN they return pinned. When both operands
// are NaN, IEEE 754 leaves the result's payload open and SSE returns the
// first operand's, but a compiler may emit either operand order in each
// inlined or vectorized copy of `a + b` — so two engines evaluating the
// same expression could disagree in a NaN's sign. These always return the
// first operand's NaN, quieted. (With one NaN operand, or an invalid
// operation such as inf - inf, the result is order-independent already.)
// PinNan is a bit select on two unordered compares, with no branch, so a
// lane loop over it stays a straight vector loop (compare, and, blend).
[[nodiscard]] inline float PinNan(float r, float a, float b) {
  // All ones when both operands are NaN, else zero.
  const std::uint32_t both = (0u - static_cast<std::uint32_t>(a != a)) &
                             (0u - static_cast<std::uint32_t>(b != b));
  return std::bit_cast<float>(
      (std::bit_cast<std::uint32_t>(r) & ~both) |
      ((std::bit_cast<std::uint32_t>(a) | 0x00400000u) & both));
}
[[nodiscard]] inline float FAdd(float a, float b) {
  return PinNan(a + b, a, b);
}
[[nodiscard]] inline float FSub(float a, float b) {
  return PinNan(a - b, a, b);
}
[[nodiscard]] inline float FMul(float a, float b) {
  return PinNan(a * b, a, b);
}

// floor(x), with the bits of the inline floor GCC emits for baseline
// x86-64 — -0 stays -0, and a value of magnitude 2^23 or more (already
// integral), an infinity or a NaN comes back as is — written as a
// branch-free formula, so that every compiler gives the same bits and a
// lane loop over it vectorizes.
[[nodiscard]] inline float FFloor(float x) {
  const std::uint32_t u = std::bit_cast<std::uint32_t>(x);
  // All ones when |x| < 2^23, else zero: selects without branches.
  const std::uint32_t small =
      0u - static_cast<std::uint32_t>((u & 0x7fffffffu) < 0x4b000000u);
  const float xs = std::bit_cast<float>(u & small);
  const float t = static_cast<float>(static_cast<std::int32_t>(xs));
  // Truncation rounds negative non-integers up; floor keeps x's sign, so
  // -0 and (-1, 0) keep theirs.
  const float one_if_up = std::bit_cast<float>(
      std::bit_cast<std::uint32_t>(1.0f) &
      (0u - static_cast<std::uint32_t>(t > xs)));
  const std::uint32_t f =
      std::bit_cast<std::uint32_t>(t - one_if_up) | (u & 0x80000000u);
  return std::bit_cast<float>((f & small) | (u & ~small));
}

// Register-precision rounding as plain data: a denormal flush and a
// mantissa width, folded at construction into three masks so that
// rounding one value is a fixed bit formula with no branch on the spec or
// the value. A full-fp32 spec (no flush, 23 bits) is the identity.
//   * flush: a denormal (not a zero) becomes a zero of the same sign;
//   * mantissa: a finite value's mantissa rounds to `mantissa_bits` bits
//     (round half away from zero on the field; a carry moves into the
//     exponent, so the largest values may round to inf); NaNs keep their
//     payload. The flush applies first, as on the hardware.
// Hot kernels pick the identity or FlushDenormal alone when the spec is
// one of those (identity(), flush_only()), which saves the mantissa
// formula's work; all three give the same bits.
struct RoundSpec {
  RoundSpec() = default;
  RoundSpec(bool flush_denormals, int mantissa_bits) {
    if (flush_denormals) denormal_keep_ = 0x80000000u;
    if (mantissa_bits < 23) {
      const int drop = 23 - std::max(mantissa_bits, 0);
      round_half_ = 1u << (drop - 1);
      round_keep_ = ~((1u << drop) - 1u);
    }
  }

  [[nodiscard]] bool identity() const {
    return denormal_keep_ == ~0u && round_keep_ == ~0u;
  }
  [[nodiscard]] bool flush_only() const {
    return denormal_keep_ != ~0u && round_keep_ == ~0u;
  }
  [[nodiscard]] float operator()(float x) const {
    const std::uint32_t u = std::bit_cast<std::uint32_t>(x);
    // (u + half) & keep leaves zeros and infinities unchanged; a NaN's
    // payload is kept. A denormal's exponent field is zero; zeros pass the
    // flush mask unchanged (it keeps the sign).
    const std::uint32_t rounded =
        IsNanBits(u) ? u : (u + round_half_) & round_keep_;
    return std::bit_cast<float>((u & 0x7f800000u) == 0
                                    ? rounded & denormal_keep_
                                    : rounded);
  }
  // Denormals (not zeros) become a zero of the same sign: a bit select.
  [[nodiscard]] static float FlushDenormal(float x) {
    const std::uint32_t u = std::bit_cast<std::uint32_t>(x);
    return std::bit_cast<float>((u & 0x7f800000u) == 0 ? u & 0x80000000u
                                                        : u);
  }

 private:
  std::uint32_t denormal_keep_ = ~0u;  // the sign bit alone when flushing
  std::uint32_t round_half_ = 0;
  std::uint32_t round_keep_ = ~0u;
};

// The special function unit's error model as plain data. exp2 and log2
// carry a deterministic signed error of at most 2^-error_bits — relative
// for exp2, absolute in the output fraction for log2 (the integer part
// comes straight from the exponent field) — derived from a hash of the
// input's bits, so the same input reproduces the same hardware error, as
// on silicon. error_bits == 0 is an exact SFU. The formulas below are the
// only definition; the scalar AluModel calls and the batch kernels inline
// the same ones.
struct SfuSpec {
  SfuSpec() = default;
  explicit SfuSpec(int bits)
      : error_bits(bits), scale(bits > 0 ? std::ldexp(1.0f, -bits) : 0.0f) {}

  int error_bits = 0;
  // 2^-error_bits, or 0 for an exact SFU: the error term is unit * scale.
  float scale = 0.0f;
};

// A reproducible "hardware" error in [-1, 1), a multiple of 2^-15, from
// an xorshift-multiply hash of `bits`. Multiplying it by a power-of-two
// scale of at least 2^-100 is exact (the product stays a normal float).
[[nodiscard]] inline float SfuErrorUnit(std::uint32_t bits) {
  bits ^= bits >> 16;
  bits *= 0x7feb352du;
  bits ^= bits >> 15;
  bits *= 0x846ca68bu;
  bits ^= bits >> 16;
  return static_cast<float>(bits & 0xffffu) / 32768.0f - 1.0f;
}

// The SFU's exp2 and log2 for an SfuSpec of scale `scale`, rounded to
// register precision. A non-finite or zero exp2 and a non-finite log2 are
// exact. sqrt is x * rsqrt(x) on the QPU, the reciprocal square root
// modeled near-exact (a Newton-Raphson step follows the SFU estimate),
// with a sqrt(0) = 0 fixup that skips the multiply.
[[nodiscard]] inline float SfuExp2(float x, float scale,
                                   const RoundSpec& round) {
  const float exact = std::exp2(x);
  const float eta = SfuErrorUnit(std::bit_cast<std::uint32_t>(x)) * scale;
  const bool perturb = std::isfinite(exact) && exact != 0.0f;
  return round(perturb ? exact * (1.0f + eta) : exact);
}
[[nodiscard]] inline float SfuLog2(float x, float scale,
                                   const RoundSpec& round) {
  const float exact = std::log2(x);
  const float err =
      SfuErrorUnit(std::bit_cast<std::uint32_t>(x) ^ 0x9e3779b9u) * scale;
  return round(std::isfinite(exact) ? exact + err : exact);
}
template <typename Round>
[[nodiscard]] inline float SfuSqrt(float x, const Round& round) {
  return x == 0.0f ? 0.0f : round(FMul(x, round(1.0f / std::sqrt(x))));
}

// The ALU model: a copyable value of its precision (a RoundSpec and an
// SfuSpec, fixed at construction) and its op counters. The default model
// is IEEE-exact, the reference the paper's CPU-side verification uses
// ("the same transformations on the CPU are precise", §V); a GPU profile's
// model comes from vc4::ProfileAlu. A copy with its counts reset is an
// independent counter shard with the same precision: the gles2 shading
// workers each keep one.
class AluModel final {
 public:
  AluModel() = default;
  AluModel(const RoundSpec& round, const SfuSpec& sfu)
      : round_(round), sfu_(sfu) {}

  // --- basic float ALU (counted as `alu`) ---
  float Add(float a, float b) {
    Count(1);
    return Round(FAdd(a, b));
  }
  float Sub(float a, float b) {
    Count(1);
    return Round(FSub(a, b));
  }
  float Mul(float a, float b) {
    Count(1);
    return Round(FMul(a, b));
  }
  // Division: GPUs implement a/b as a * recip(b); the cost and precision of
  // the reciprocal belong to the SFU.
  float Div(float a, float b) {
    Count(1);
    return Round(FMul(a, Recip(b)));
  }

  // --- special functions (counted as `sfu`) ---
  // The reciprocal is modeled near-exact on every profile (the compiler
  // emits a Newton-Raphson step after the SFU estimate), so it is the
  // rounded IEEE result.
  float Recip(float x) {
    CountSfu(1);
    return Round(1.0f / x);
  }
  // The SFU's transcendentals, with the model's SfuSpec error.
  float Exp2(float x) {
    CountSfuTrans(1);
    return SfuExp2(x, sfu_.scale, round_);
  }
  float Log2(float x) {
    CountSfuTrans(1);
    return SfuLog2(x, sfu_.scale, round_);
  }
  // x * rsqrt(x): an SFU op, and an ALU op unless x is zero.
  float Sqrt(float x) {
    CountSfu(1);
    if (x != 0.0f) Count(1);
    return SfuSqrt(x, round_);
  }

  // --- counting hooks ---
  void Count(int alu_ops) { counts_.alu += static_cast<std::uint64_t>(alu_ops); }
  void CountSfu(int n) { counts_.sfu += static_cast<std::uint64_t>(n); }
  void CountSfuTrans(int n) {
    counts_.sfu_trans += static_cast<std::uint64_t>(n);
  }
  void CountTmu(int n) { counts_.tmu += static_cast<std::uint64_t>(n); }
  void CountTmuMiss(int n) {
    counts_.tmu_miss += static_cast<std::uint64_t>(n);
  }
  void CountVmSteps(std::uint64_t n) { counts_.vm_steps += n; }

  [[nodiscard]] const OpCounts& counts() const { return counts_; }
  void ResetCounts() { counts_ = OpCounts{}; }
  // Folds a counter shard's counts into this model (the tiled renderer
  // sums its workers' shards at commit; the sum over disjoint tiles is
  // order-independent, so totals are identical to a serial run).
  void AddCounts(const OpCounts& c) { counts_ += c; }

  // Rounds an ALU result to the modeled register precision (the model's
  // RoundSpec): the identity for full-fp32 models, denormal flush and/or
  // mantissa rounding for reduced-precision profiles (e.g. a mediump-only
  // fragment pipe, paper §IV-E footnote 1). The spec's kind is one
  // predictable branch; each kind is the formula the batch kernels use.
  [[nodiscard]] float Round(float x) const {
    if (round_.identity()) return x;
    return round_.flush_only() ? RoundSpec::FlushDenormal(x) : round_(x);
  }
  [[nodiscard]] const RoundSpec& round_spec() const { return round_; }
  [[nodiscard]] const SfuSpec& sfu_spec() const { return sfu_; }

 private:
  OpCounts counts_;
  RoundSpec round_;
  SfuSpec sfu_;
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_ALU_H_
