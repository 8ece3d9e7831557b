// Bit-level helpers shared by the packing code, the GLSL interpreter and the
// VideoCore ALU model. All float<->bit conversions in the project go through
// these functions so that tests can reason about exact IEEE-754 layouts.
#ifndef MGPU_COMMON_BITS_H_
#define MGPU_COMMON_BITS_H_

#include <bit>
#include <cstdint>

namespace mgpu {

[[nodiscard]] constexpr std::uint32_t FloatToBits(float f) {
  return std::bit_cast<std::uint32_t>(f);
}

[[nodiscard]] constexpr float BitsToFloat(std::uint32_t u) {
  return std::bit_cast<float>(u);
}

// Assembles an IEEE-754 binary32 from its fields.
[[nodiscard]] constexpr std::uint32_t MakeFloatBits(std::uint32_t sign,
                                                    std::uint32_t biased_exp,
                                                    std::uint32_t mantissa) {
  return (sign << 31) | ((biased_exp & 0xffu) << 23) | (mantissa & 0x7fffffu);
}

// Number of most-significant mantissa bits on which two finite floats of the
// same sign/exponent agree; the paper's Section V reports GPU float outputs
// "accurate within the 15 most significant bits of the mantissa", which this
// function quantifies. Returns 23 for bit-identical values. If sign or
// exponent differ, returns the (possibly negative) log-scaled agreement via
// the absolute ULP distance, clamped to [0, 23].
[[nodiscard]] int MatchingMantissaBits(float expected, float actual);

// Absolute distance in ULPs between two finite floats (order-preserving
// integer mapping of the float line).
[[nodiscard]] std::int64_t UlpDistance(float a, float b);

}  // namespace mgpu

#endif  // MGPU_COMMON_BITS_H_
