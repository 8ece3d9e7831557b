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

#include <cstdint>
#include <memory>

namespace mgpu::glsl {

struct OpCounts {
  std::uint64_t alu = 0;  // simple float/int ALU operations
  std::uint64_t sfu = 0;  // reciprocal-class SFU ops (recip, rsqrt)
  std::uint64_t sfu_trans = 0;  // transcendental SFU ops (exp2, log2, trig)
  std::uint64_t tmu = 0;  // texture fetches (total)
  std::uint64_t tmu_miss = 0;  // fetches that missed the texture cache

  OpCounts& operator+=(const OpCounts& o) {
    alu += o.alu;
    sfu += o.sfu;
    sfu_trans += o.sfu_trans;
    tmu += o.tmu;
    tmu_miss += o.tmu_miss;
    return *this;
  }
};

class AluModel {
 public:
  virtual ~AluModel() = default;

  // --- basic float ALU (counted as `alu`) ---
  // The identity-round flag lets these inline helpers skip the virtual
  // Round() on the hot path when the model's register precision is full
  // fp32 (ExactAlu always; Vc4Alu for IEEE-exact profiles) — bit-identical
  // by definition of the flag.
  float Add(float a, float b) {
    Count(1);
    const float r = a + b;
    return round_identity_ ? r : Round(r);
  }
  float Sub(float a, float b) {
    Count(1);
    const float r = a - b;
    return round_identity_ ? r : Round(r);
  }
  float Mul(float a, float b) {
    Count(1);
    const float r = a * b;
    return round_identity_ ? r : Round(r);
  }
  // Division: GPUs implement a/b as a * recip(b); the cost and precision of
  // the reciprocal belong to the SFU.
  float Div(float a, float b) {
    Count(1);
    const float r = a * Recip(b);
    return round_identity_ ? r : Round(r);
  }

  // --- special functions (counted as `sfu`, precision model hooks) ---
  virtual float Recip(float x);
  virtual float RecipSqrt(float x);
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

  // Rounds an ALU result to the modeled register precision. The exact model
  // returns x unchanged; reduced-precision profiles (e.g. a mediump-only
  // fragment pipe, paper §IV-E footnote 1) override this.
  virtual float Round(float x) { return x; }

  // Creates an independent model with the same precision behaviour and zeroed
  // counters, for use as a per-worker counter shard by the multithreaded
  // fragment pipeline. Returns nullptr when the subclass does not support
  // forking (the draw then falls back to single-threaded shading).
  //
  // Shard reuse contract: the gles2 shade-state cache keeps a Fork()ed
  // shard alive across draws and re-arms it per draw with ResetCounts()
  // instead of re-forking. A subclass that supports Fork() must therefore
  // keep all non-counter state immutable after construction (precision
  // behaviour a pure function of inputs), so that a reset shard is
  // indistinguishable from a fresh fork.
  [[nodiscard]] virtual std::unique_ptr<AluModel> Fork() const {
    return nullptr;
  }

  [[nodiscard]] bool round_identity() const { return round_identity_; }

 protected:
  // Subclasses whose Round() is the identity function declare it here to
  // enable the inline fast path above. Defaults to false (conservative for
  // unknown subclasses that override Round()).
  void SetRoundIdentity(bool identity) { round_identity_ = identity; }

 private:
  OpCounts counts_;
  bool round_identity_ = false;
};

// IEEE-exact ALU: reference behaviour, used for the CPU-side verification the
// paper performs ("the same transformations on the CPU are precise", §V).
class ExactAlu final : public AluModel {
 public:
  ExactAlu() { SetRoundIdentity(true); }
  [[nodiscard]] std::unique_ptr<AluModel> Fork() const override {
    return std::make_unique<ExactAlu>();
  }
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_ALU_H_
