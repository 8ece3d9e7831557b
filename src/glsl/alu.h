// The ALU model abstracts the GPU's arithmetic behaviour. Every float
// operation the interpreter performs is routed through an AluModel, which
// serves two purposes central to this reproduction:
//   1. precision modeling — the VideoCore IV model (vc4::Vc4Alu) implements
//      SFU functions (exp2/log2/recip/rsqrt) with the reduced accuracy of the
//      real special function unit, which is what produces the paper's
//      "accurate within the 15 most significant bits of the mantissa" result;
//   2. operation counting — ALU/SFU/TMU counts feed the timing model that
//      regenerates the paper's speedup table without hardware.
#ifndef MGPU_GLSL_ALU_H_
#define MGPU_GLSL_ALU_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/bits.h"

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

// Float add/sub/mul with the NaN they return pinned. When both operands
// are NaN, IEEE 754 leaves the result's payload open and SSE returns the
// first operand's, but a compiler may emit either operand order in each
// inlined or vectorized copy of `a + b` — so two engines evaluating the
// same expression could disagree in a NaN's sign. These always return the
// first operand's NaN, quieted. (With one NaN operand, or an invalid
// operation such as inf - inf, the result is order-independent already.)
[[nodiscard]] inline float PinNan(float r, float a, float b) {
  return a != a && b != b
             ? std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) |
                                    0x00400000u)
             : r;
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

// Register-precision rounding as plain data: denormal flush and a mantissa
// width. Kernels copy it into a local so the per-element rounding is an
// inline branch on two values instead of a call.
struct RoundSpec {
  bool flush_denormals = false;
  int mantissa_bits = 23;

  [[nodiscard]] bool identity() const {
    return !flush_denormals && mantissa_bits >= 23;
  }
  [[nodiscard]] float operator()(float x) const {
    if (flush_denormals) x = FlushDenormal(x);
    return mantissa_bits >= 23 ? x : RoundToMantissaBits(x, mantissa_bits);
  }
  // Denormals (not zeros) become a zero of the same sign.
  [[nodiscard]] static float FlushDenormal(float x) {
    return x != 0.0f && std::fabs(x) < 1.17549435e-38f
               ? (x < 0.0f ? -0.0f : 0.0f)
               : x;
  }
};


class AluModel {
 public:
  virtual ~AluModel() = default;

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
  // The reciprocals are modeled near-exact on every profile (the compiler
  // emits a Newton-Raphson step after the SFU estimate), so they are the
  // rounded IEEE result.
  float Recip(float x) {
    CountSfu(1);
    return Round(1.0f / x);
  }
  float RecipSqrt(float x) {
    CountSfu(1);
    return Round(1.0f / std::sqrt(x));
  }
  // Precision model hooks: a profile's transcendental error lives here.
  virtual float Exp2(float x);
  virtual float Log2(float x);
  // Derived functions, implemented on top of the primitives the way mobile
  // shader compilers lower them.
  float Sqrt(float x);
  float Pow(float x, float y);
  float Exp(float x);
  float Log(float x);
  // Trigonometry is lowered to polynomial ALU sequences by mobile compilers;
  // modeled as exact with an SFU-equivalent cost.
  float Sin(float x);
  float Cos(float x);
  float Tan(float x);
  float Asin(float x);
  float Acos(float x);
  float Atan(float x);
  float Atan2(float y, float x);

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
  // Folds a worker shard's counters into this model (the tiled renderer
  // gives each shading worker a Fork()ed model and sums them at join; the
  // sum over disjoint tiles is order-independent, so totals are identical
  // to a serial run).
  void AddCounts(const OpCounts& c) { counts_ += c; }
  // Restores a snapshot taken via counts(). Used by the bytecode VM to keep
  // its one-time constant-initializer evaluation out of the counters (the
  // tree-walking oracle already charged those ops at construction).
  void SetCounts(const OpCounts& c) { counts_ = c; }

  // Rounds an ALU result to the modeled register precision (the model's
  // RoundSpec): the identity for full-fp32 models, denormal flush and/or
  // mantissa rounding for reduced-precision profiles (e.g. a mediump-only
  // fragment pipe, paper §IV-E footnote 1).
  [[nodiscard]] float Round(float x) const { return round_(x); }
  [[nodiscard]] const RoundSpec& round_spec() const { return round_; }
  // True when Round() is the identity function.
  [[nodiscard]] bool round_identity() const { return round_.identity(); }

  // Creates an independent model with the same precision behaviour and zeroed
  // counters, for use as a per-worker counter shard by the fragment
  // pipeline (every shading slot, serial or pooled, owns one).
  //
  // Shard reuse contract: the gles2 shade-state cache keeps a Fork()ed
  // shard alive across draws and re-arms it per draw with ResetCounts()
  // instead of re-forking. A subclass must therefore keep all non-counter
  // state immutable after construction (precision behaviour a pure
  // function of inputs), so that a reset shard is indistinguishable from a
  // fresh fork.
  [[nodiscard]] virtual std::unique_ptr<AluModel> Fork() const = 0;

 protected:
  // Set once by the subclass constructor; defaults to full fp32.
  void SetRoundSpec(const RoundSpec& spec) { round_ = spec; }

 private:
  OpCounts counts_;
  RoundSpec round_;
};

// IEEE-exact ALU: reference behaviour, used for the CPU-side verification the
// paper performs ("the same transformations on the CPU are precise", §V).
class ExactAlu final : public AluModel {
 public:
  [[nodiscard]] std::unique_ptr<AluModel> Fork() const override {
    return std::make_unique<ExactAlu>();
  }
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_ALU_H_
