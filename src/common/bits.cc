#include "common/bits.h"

#include <algorithm>
#include <cstdlib>

namespace mgpu {
namespace {

// Maps the float line onto integers such that consecutive floats map to
// consecutive integers (standard ULP trick; negative floats are mirrored).
std::int64_t FloatToOrderedInt(float f) {
  const auto bits = static_cast<std::int64_t>(FloatToBits(f));
  return (bits & 0x80000000ll) != 0 ? 0x80000000ll - bits : bits;
}

}  // namespace

std::int64_t UlpDistance(float a, float b) {
  return std::llabs(FloatToOrderedInt(a) - FloatToOrderedInt(b));
}

int MatchingMantissaBits(float expected, float actual) {
  if (FloatToBits(expected) == FloatToBits(actual)) return 23;
  const std::int64_t ulp = UlpDistance(expected, actual);
  // An error of `ulp` ULPs corrupts roughly log2(ulp) low mantissa bits.
  int corrupted = 0;
  while ((1ll << corrupted) < ulp) ++corrupted;
  return std::clamp(23 - corrupted, 0, 23);
}

}  // namespace mgpu
