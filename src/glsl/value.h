// Runtime values for the GLSL interpreter. A Value is a fixed-size bag of
// scalar cells typed by a glsl::Type; floats live in IEEE binary32 exactly as
// they would in GPU registers, ints/bools/samplers in 32-bit integers.
#ifndef MGPU_GLSL_VALUE_H_
#define MGPU_GLSL_VALUE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "glsl/alu.h"
#include "glsl/type.h"

namespace mgpu::glsl {

union Cell {
  float f;
  std::int32_t i;
};

class Value {
 public:
  Value() : type_{BaseType::kVoid, kNotArray}, count_(0) {}
  explicit Value(Type t) : type_(t), count_(t.CellCount()) {
    if (count_ > kInline) heap_.resize(static_cast<std::size_t>(count_));
    for (int k = 0; k < count_; ++k) data()[k].i = 0;
  }

  [[nodiscard]] static Value MakeFloat(float f) {
    Value v(MakeType(BaseType::kFloat));
    v.data()[0].f = f;
    return v;
  }
  [[nodiscard]] static Value MakeInt(std::int32_t i) {
    Value v(MakeType(BaseType::kInt));
    v.data()[0].i = i;
    return v;
  }
  [[nodiscard]] static Value MakeBool(bool b) {
    Value v(MakeType(BaseType::kBool));
    v.data()[0].i = b ? 1 : 0;
    return v;
  }

  [[nodiscard]] const Type& type() const { return type_; }
  [[nodiscard]] int count() const { return count_; }

  [[nodiscard]] Cell* data() {
    return count_ > kInline ? heap_.data() : inline_.data();
  }
  [[nodiscard]] const Cell* data() const {
    return count_ > kInline ? heap_.data() : inline_.data();
  }

  [[nodiscard]] float F(int i) const { return data()[i].f; }
  [[nodiscard]] std::int32_t I(int i) const { return data()[i].i; }
  [[nodiscard]] bool B(int i) const { return data()[i].i != 0; }
  void SetF(int i, float f) { data()[i].f = f; }
  void SetI(int i, std::int32_t v) { data()[i].i = v; }
  void SetB(int i, bool b) { data()[i].i = b ? 1 : 0; }

  // Scalar category of the stored components.
  [[nodiscard]] BaseType scalar() const { return ScalarOf(type_.base); }

  // Reads component i converted to float regardless of category (bool->0/1).
  [[nodiscard]] float AsFloat(int i) const {
    return scalar() == BaseType::kFloat ? F(i) : static_cast<float>(I(i));
  }
  // Writes component i from a float, converting to this value's category
  // (bool gets the != 0 semantics of GLSL constructors).
  void SetFromFloat(int i, float f) {
    switch (scalar()) {
      case BaseType::kFloat:
        SetF(i, f);
        break;
      case BaseType::kBool:
        SetB(i, f != 0.0f);
        break;
      default:
        SetI(i, FloatToInt(f));
        break;
    }
  }
  // Copies component `src_i` of `src` into component i, converting category.
  void SetConverted(int i, const Value& src, int src_i) {
    if (src.scalar() == BaseType::kFloat) {
      SetFromFloat(i, src.F(src_i));
    } else {
      switch (scalar()) {
        case BaseType::kFloat:
          SetF(i, static_cast<float>(src.I(src_i)));
          break;
        case BaseType::kBool:
          SetB(i, src.I(src_i) != 0);
          break;
        default:
          SetI(i, src.I(src_i));
          break;
      }
    }
  }

  // Inline-cell capacity (largest non-array type: mat4). Values at or under
  // this never spill to the heap.
  static constexpr int kInline = 16;

 private:
  Type type_;
  int count_;
  std::array<Cell, kInline> inline_{};
  std::vector<Cell> heap_;
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_VALUE_H_
