#include "vc4/alu.h"

#include <cmath>

#include "common/bits.h"

namespace mgpu::vc4 {
namespace {

// Small integer hash (xorshift-multiply) used to derive a reproducible
// per-input "hardware" error.
std::uint32_t Hash32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352du;
  x ^= x >> 15;
  x *= 0x846ca68bu;
  x ^= x >> 16;
  return x;
}

}  // namespace

float Vc4Alu::SfuPerturb(float exact, float input) const {
  if (profile_.sfu_error_bits <= 0) return exact;
  if (!std::isfinite(exact) || exact == 0.0f) return exact;
  const std::uint32_t h = Hash32(mgpu::FloatToBits(input));
  // eta in [-2^-bits, 2^-bits), deterministic in the input.
  const float unit =
      (static_cast<float>(h & 0xffffu) / 32768.0f) - 1.0f;  // [-1, 1)
  const float eta = std::ldexp(unit, -profile_.sfu_error_bits);
  return exact * (1.0f + eta);
}

float Vc4Alu::Exp2(float x) {
  CountSfuTrans(1);
  return Round(SfuPerturb(std::exp2(x), x));
}

float Vc4Alu::Log2(float x) {
  CountSfuTrans(1);
  const float exact = std::log2(x);
  if (!std::isfinite(exact)) return exact;
  // The SFU error is absolute in the output fraction (the integer part comes
  // straight from the exponent field and is exact).
  const std::uint32_t h = Hash32(mgpu::FloatToBits(x) ^ 0x9e3779b9u);
  const float unit = (static_cast<float>(h & 0xffffu) / 32768.0f) - 1.0f;
  const float err = profile_.sfu_error_bits > 0
                        ? std::ldexp(unit, -profile_.sfu_error_bits)
                        : 0.0f;
  return Round(exact + err);
}

}  // namespace mgpu::vc4
