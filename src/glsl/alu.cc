#include "glsl/alu.h"

#include <cmath>

namespace mgpu::glsl {

float AluModel::Exp2(float x) {
  CountSfuTrans(1);
  return Round(std::exp2(x));
}

float AluModel::Log2(float x) {
  CountSfuTrans(1);
  return Round(std::log2(x));
}

float AluModel::Sqrt(float x) {
  // Lowered as x * rsqrt(x) (with sqrt(0) = 0 fixup), as on the QPU.
  if (x == 0.0f) {
    CountSfu(1);
    return 0.0f;
  }
  return Mul(x, RecipSqrt(x));
}

float AluModel::Pow(float x, float y) {
  // Lowered as exp2(y * log2(x)).
  return Exp2(Mul(y, Log2(x)));
}

float AluModel::Exp(float x) {
  constexpr float kLog2E = 1.4426950408889634f;
  return Exp2(Mul(x, kLog2E));
}

float AluModel::Log(float x) {
  constexpr float kLn2 = 0.6931471805599453f;
  return Mul(Log2(x), kLn2);
}

float AluModel::Sin(float x) { CountSfuTrans(1); return Round(std::sin(x)); }
float AluModel::Cos(float x) { CountSfuTrans(1); return Round(std::cos(x)); }
float AluModel::Tan(float x) { CountSfuTrans(1); return Round(std::tan(x)); }
float AluModel::Asin(float x) { CountSfuTrans(1); return Round(std::asin(x)); }
float AluModel::Acos(float x) { CountSfuTrans(1); return Round(std::acos(x)); }
float AluModel::Atan(float x) { CountSfuTrans(1); return Round(std::atan(x)); }
float AluModel::Atan2(float y, float x) {
  CountSfuTrans(1);
  return Round(std::atan2(y, x));
}

}  // namespace mgpu::glsl
