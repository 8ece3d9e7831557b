// Deterministic PRNG used by tests, examples and benchmark workload
// generators, so that every gated bench metric and test is reproducible
// bit-for-bit across runs.
#ifndef MGPU_COMMON_RNG_H_
#define MGPU_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace mgpu {

// SplitMix64: tiny, high-quality, fully deterministic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  [[nodiscard]] std::uint64_t NextU64();
  [[nodiscard]] std::uint32_t NextU32() {
    return static_cast<std::uint32_t>(NextU64() >> 32);
  }
  // Uniform in [0, 1).
  [[nodiscard]] float NextFloat01();
  // Uniform in [lo, hi).
  [[nodiscard]] float NextFloat(float lo, float hi);
  // Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t NextInt(std::int64_t lo, std::int64_t hi);
  // A "random-value" float as the paper's Section V uses: uniform magnitude
  // over several binades, both signs; avoids denormals/infinities.
  [[nodiscard]] float NextWorkloadFloat();

  [[nodiscard]] std::vector<float> FloatVector(std::size_t n, float lo,
                                               float hi);
  [[nodiscard]] std::vector<std::int32_t> IntVector(std::size_t n,
                                                    std::int32_t lo,
                                                    std::int32_t hi);
  [[nodiscard]] std::vector<std::uint8_t> ByteVector(std::size_t n);

 private:
  std::uint64_t state_;
};

}  // namespace mgpu

#endif  // MGPU_COMMON_RNG_H_
