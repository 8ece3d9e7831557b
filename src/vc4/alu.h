// The VideoCore-class ALU model: IEEE fp32 add/mul pipes, denormal flush,
// and a special function unit whose EXP2/LOG2 deliver only ~16 good bits —
// the mechanistic source of the paper's float-precision result (§V).
// RECIP/RECIPSQRT are modeled near-exact (AluModel's rounded 1/x) because
// the shader compiler emits a Newton-Raphson refinement step for them (as
// the real VC4 driver does), which is also why the paper's *integer* path
// stays exact: its byte decomposition uses division but never exp2/log2.
// The profile only sets plain data on the AluModel — its RoundSpec and
// SfuSpec — so every kernel inlines the same rounding and SFU formulas.
#ifndef MGPU_VC4_ALU_H_
#define MGPU_VC4_ALU_H_

#include "glsl/alu.h"
#include "vc4/profiles.h"

namespace mgpu::vc4 {

class Vc4Alu final : public glsl::AluModel {
 public:
  explicit Vc4Alu(const GpuProfile& profile) : profile_(profile) {
    SetRoundSpec({profile_.flush_denormals, profile_.alu_mantissa_bits});
    SetSfuSpec(glsl::SfuSpec(profile_.sfu_error_bits));
  }

  // Precision behaviour is pure (a deterministic function of the inputs and
  // the profile), so a fork with fresh counters is exactly equivalent — and
  // a cached fork re-armed with ResetCounts() is equivalent to a fresh one,
  // which is what lets the gles2 shade-state cache reuse shards across
  // draws instead of re-forking (see AluModel::Fork's reuse contract).
  [[nodiscard]] std::unique_ptr<glsl::AluModel> Fork() const override {
    return std::make_unique<Vc4Alu>(profile_);
  }

  [[nodiscard]] const GpuProfile& profile() const { return profile_; }

 private:
  GpuProfile profile_;
};

}  // namespace mgpu::vc4

#endif  // MGPU_VC4_ALU_H_
