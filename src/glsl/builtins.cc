#include "glsl/builtins.h"

#include <bit>
#include <cmath>
#include <set>

#include "common/strings.h"

namespace mgpu::glsl {
namespace {

bool IsGen(const Type& t) {
  if (t.IsArray()) return false;
  return t.base == BaseType::kFloat || t.base == BaseType::kVec2 ||
         t.base == BaseType::kVec3 || t.base == BaseType::kVec4;
}
bool IsFloatVec(const Type& t) {
  return !t.IsArray() && IsVector(t.base) &&
         ScalarOf(t.base) == BaseType::kFloat;
}
bool IsIntVec(const Type& t) {
  return !t.IsArray() && IsVector(t.base) && ScalarOf(t.base) == BaseType::kInt;
}
bool IsBoolVec(const Type& t) {
  return !t.IsArray() && IsVector(t.base) &&
         ScalarOf(t.base) == BaseType::kBool;
}
bool IsMat(const Type& t) { return !t.IsArray() && IsMatrix(t.base); }
bool IsFloatScalar(const Type& t) {
  return !t.IsArray() && t.base == BaseType::kFloat;
}

const std::set<std::string>& BuiltinNames() {
  static const std::set<std::string> kNames = {
      "radians", "degrees", "sin", "cos", "tan", "asin", "acos", "atan",
      "pow", "exp", "log", "exp2", "log2", "sqrt", "inversesqrt",
      "abs", "sign", "floor", "ceil", "fract", "mod", "min", "max", "clamp",
      "mix", "step", "smoothstep",
      "length", "distance", "dot", "cross", "normalize", "faceforward",
      "reflect", "refract", "matrixCompMult",
      "lessThan", "lessThanEqual", "greaterThan", "greaterThanEqual", "equal",
      "notEqual", "any", "all", "not",
      "texture2D", "texture2DProj", "texture2DLod", "texture2DProjLod",
      "textureCube", "textureCubeLod",
  };
  return kNames;
}

BuiltinResolution Ok(Builtin b, Type result) {
  BuiltinResolution r;
  r.ok = true;
  r.builtin = b;
  r.result_type = result;
  return r;
}

BuiltinResolution Mismatch(const std::string& name,
                           const std::vector<Type>& args) {
  BuiltinResolution r;
  r.ok = false;
  std::string sig = name + "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) sig += ", ";
    sig += args[i].ToString();
  }
  sig += ")";
  r.error = StrFormat("no matching overload for %s", sig.c_str());
  return r;
}

}  // namespace

bool IsBuiltinName(const std::string& name) {
  return BuiltinNames().count(name) != 0;
}

BuiltinResolution ResolveBuiltin(const std::string& name,
                                 const std::vector<Type>& args, Stage stage) {
  const auto n = args.size();
  auto mismatch = [&] { return Mismatch(name, args); };

  // Component-wise genType -> genType (single argument).
  struct Gen1 {
    const char* name;
    Builtin b;
  };
  static constexpr Gen1 kGen1[] = {
      {"radians", Builtin::kRadians}, {"degrees", Builtin::kDegrees},
      {"sin", Builtin::kSin},         {"cos", Builtin::kCos},
      {"tan", Builtin::kTan},         {"asin", Builtin::kAsin},
      {"acos", Builtin::kAcos},       {"exp", Builtin::kExp},
      {"log", Builtin::kLog},         {"exp2", Builtin::kExp2},
      {"log2", Builtin::kLog2},       {"sqrt", Builtin::kSqrt},
      {"inversesqrt", Builtin::kInverseSqrt},
      {"abs", Builtin::kAbs},         {"sign", Builtin::kSign},
      {"floor", Builtin::kFloor},     {"ceil", Builtin::kCeil},
      {"fract", Builtin::kFract},
  };
  for (const auto& g : kGen1) {
    if (name == g.name) {
      if (n == 1 && IsGen(args[0])) return Ok(g.b, args[0]);
      return mismatch();
    }
  }

  if (name == "atan") {
    if (n == 1 && IsGen(args[0])) return Ok(Builtin::kAtan, args[0]);
    if (n == 2 && IsGen(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kAtan2, args[0]);
    }
    return mismatch();
  }
  if (name == "pow") {
    if (n == 2 && IsGen(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kPow, args[0]);
    }
    return mismatch();
  }
  if (name == "mod") {
    if (n == 2 && IsGen(args[0]) &&
        (args[1] == args[0] || IsFloatScalar(args[1]))) {
      return Ok(Builtin::kMod, args[0]);
    }
    return mismatch();
  }
  if (name == "min" || name == "max") {
    const Builtin b = name == "min" ? Builtin::kMin : Builtin::kMax;
    if (n == 2 && IsGen(args[0]) &&
        (args[1] == args[0] || IsFloatScalar(args[1]))) {
      return Ok(b, args[0]);
    }
    return mismatch();
  }
  if (name == "clamp") {
    if (n == 3 && IsGen(args[0]) &&
        ((args[1] == args[0] && args[2] == args[0]) ||
         (IsFloatScalar(args[1]) && IsFloatScalar(args[2])))) {
      return Ok(Builtin::kClamp, args[0]);
    }
    return mismatch();
  }
  if (name == "mix") {
    if (n == 3 && IsGen(args[0]) && args[1] == args[0] &&
        (args[2] == args[0] || IsFloatScalar(args[2]))) {
      return Ok(Builtin::kMix, args[0]);
    }
    return mismatch();
  }
  if (name == "step") {
    if (n == 2 && IsGen(args[1]) &&
        (args[0] == args[1] || IsFloatScalar(args[0]))) {
      return Ok(Builtin::kStep, args[1]);
    }
    return mismatch();
  }
  if (name == "smoothstep") {
    if (n == 3 && IsGen(args[2]) &&
        ((args[0] == args[2] && args[1] == args[2]) ||
         (IsFloatScalar(args[0]) && IsFloatScalar(args[1])))) {
      return Ok(Builtin::kSmoothstep, args[2]);
    }
    return mismatch();
  }

  if (name == "length") {
    if (n == 1 && IsGen(args[0])) {
      return Ok(Builtin::kLength, MakeType(BaseType::kFloat));
    }
    return mismatch();
  }
  if (name == "distance") {
    if (n == 2 && IsGen(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kDistance, MakeType(BaseType::kFloat));
    }
    return mismatch();
  }
  if (name == "dot") {
    if (n == 2 && IsGen(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kDot, MakeType(BaseType::kFloat));
    }
    return mismatch();
  }
  if (name == "cross") {
    if (n == 2 && args[0] == MakeType(BaseType::kVec3) && args[1] == args[0]) {
      return Ok(Builtin::kCross, MakeType(BaseType::kVec3));
    }
    return mismatch();
  }
  if (name == "normalize") {
    if (n == 1 && IsGen(args[0])) return Ok(Builtin::kNormalize, args[0]);
    return mismatch();
  }
  if (name == "faceforward") {
    if (n == 3 && IsGen(args[0]) && args[1] == args[0] && args[2] == args[0]) {
      return Ok(Builtin::kFaceforward, args[0]);
    }
    return mismatch();
  }
  if (name == "reflect") {
    if (n == 2 && IsGen(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kReflect, args[0]);
    }
    return mismatch();
  }
  if (name == "refract") {
    if (n == 3 && IsGen(args[0]) && args[1] == args[0] &&
        IsFloatScalar(args[2])) {
      return Ok(Builtin::kRefract, args[0]);
    }
    return mismatch();
  }
  if (name == "matrixCompMult") {
    if (n == 2 && IsMat(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kMatrixCompMult, args[0]);
    }
    return mismatch();
  }

  // Vector relational functions.
  if (name == "lessThan" || name == "lessThanEqual" || name == "greaterThan" ||
      name == "greaterThanEqual") {
    const Builtin b = name == "lessThan" ? Builtin::kLessThan
                      : name == "lessThanEqual" ? Builtin::kLessThanEqual
                      : name == "greaterThan" ? Builtin::kGreaterThan
                                              : Builtin::kGreaterThanEqual;
    if (n == 2 && (IsFloatVec(args[0]) || IsIntVec(args[0])) &&
        args[1] == args[0]) {
      return Ok(b, MakeType(VectorOf(BaseType::kBool,
                                     ComponentCount(args[0].base))));
    }
    return mismatch();
  }
  if (name == "equal" || name == "notEqual") {
    const Builtin b = name == "equal" ? Builtin::kEqual : Builtin::kNotEqual;
    if (n == 2 &&
        (IsFloatVec(args[0]) || IsIntVec(args[0]) || IsBoolVec(args[0])) &&
        args[1] == args[0]) {
      return Ok(b, MakeType(VectorOf(BaseType::kBool,
                                     ComponentCount(args[0].base))));
    }
    return mismatch();
  }
  if (name == "any" || name == "all") {
    const Builtin b = name == "any" ? Builtin::kAny : Builtin::kAll;
    if (n == 1 && IsBoolVec(args[0])) {
      return Ok(b, MakeType(BaseType::kBool));
    }
    return mismatch();
  }
  if (name == "not") {
    if (n == 1 && IsBoolVec(args[0])) return Ok(Builtin::kNot, args[0]);
    return mismatch();
  }

  // Texture lookups.
  const Type vec4 = MakeType(BaseType::kVec4);
  if (name == "texture2D") {
    if (n >= 1 && args[0].base == BaseType::kSampler2D && !args[0].IsArray()) {
      if (n == 2 && args[1] == MakeType(BaseType::kVec2)) {
        return Ok(Builtin::kTexture2D, vec4);
      }
      if (n == 3 && args[1] == MakeType(BaseType::kVec2) &&
          IsFloatScalar(args[2])) {
        if (stage != Stage::kFragment) {
          BuiltinResolution r;
          r.error = "texture2D with bias is only available in fragment "
                    "shaders";
          return r;
        }
        return Ok(Builtin::kTexture2DBias, vec4);
      }
    }
    return mismatch();
  }
  if (name == "texture2DProj") {
    if (n >= 2 && args[0].base == BaseType::kSampler2D) {
      const bool v3 = args[1] == MakeType(BaseType::kVec3);
      const bool v4 = args[1] == vec4;
      if ((v3 || v4) && n == 2) {
        return Ok(v3 ? Builtin::kTexture2DProj3 : Builtin::kTexture2DProj4,
                  vec4);
      }
      if ((v3 || v4) && n == 3 && IsFloatScalar(args[2])) {
        if (stage != Stage::kFragment) {
          BuiltinResolution r;
          r.error = "texture2DProj with bias is only available in fragment "
                    "shaders";
          return r;
        }
        return Ok(v3 ? Builtin::kTexture2DProj3Bias
                     : Builtin::kTexture2DProj4Bias,
                  vec4);
      }
    }
    return mismatch();
  }
  if (name == "texture2DLod" || name == "texture2DProjLod") {
    if (stage != Stage::kVertex) {
      BuiltinResolution r;
      r.error = StrFormat("%s is only available in vertex shaders",
                          name.c_str());
      return r;
    }
    if (name == "texture2DLod" && n == 3 &&
        args[0].base == BaseType::kSampler2D &&
        args[1] == MakeType(BaseType::kVec2) && IsFloatScalar(args[2])) {
      return Ok(Builtin::kTexture2DLod, vec4);
    }
    if (name == "texture2DProjLod" && n == 3 &&
        args[0].base == BaseType::kSampler2D && IsFloatScalar(args[2])) {
      if (args[1] == MakeType(BaseType::kVec3)) {
        return Ok(Builtin::kTexture2DProjLod3, vec4);
      }
      if (args[1] == vec4) return Ok(Builtin::kTexture2DProjLod4, vec4);
    }
    return mismatch();
  }
  if (name == "textureCube" || name == "textureCubeLod") {
    BuiltinResolution r;
    r.error = StrFormat("%s: cube maps are not supported by this "
                        "implementation (documented subset)",
                        name.c_str());
    return r;
  }

  BuiltinResolution r;
  r.error = StrFormat("unknown function '%s'", name.c_str());
  return r;
}

namespace {

// Scalar min/max with pinned-down bit behaviour, modeled on glibc's
// x86-64 fminf/fmaxf (ucomiss + MINSS/MAXSS + quiet-bit probe):
//   * both operands ordered  -> MINSS/MAXSS semantics: strict compare,
//     SECOND operand on equality — which is what yields
//     fmin(+0,-0) == -0 and fmin(-0,+0) == +0;
//   * exactly one *quiet* NaN -> the other operand;
//   * a signaling NaN or two NaNs -> the ADDSS result, i.e. the first NaN
//     operand with the quiet bit set (computed bitwise here: spelling it
//     `x + y` would let the compiler commute the operands and change which
//     payload survives between compilations).
// The builtins route min/max/clamp through these helpers instead of libm so
// every engine gets the same bits on any libc — the semantics are defined
// HERE, not by whatever fminf the host links. On glibc/x86-64 they are
// bit-identical to the libm calls they replace.
inline bool NanBits(std::uint32_t u) {
  return (u & 0x7fffffffu) > 0x7f800000u;
}
inline float QuietFirstNan(std::uint32_t ux, std::uint32_t uy) {
  return std::bit_cast<float>((NanBits(ux) ? ux : uy) | 0x00400000u);
}
inline float FminScalar(float x, float y) {
  const std::uint32_t ux = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t uy = std::bit_cast<std::uint32_t>(y);
  if (!NanBits(ux) && !NanBits(uy)) return x < y ? x : y;
  if (!NanBits(uy) && (ux & 0x00400000u) != 0) return y;
  if (!NanBits(ux) && (uy & 0x00400000u) != 0) return x;
  return QuietFirstNan(ux, uy);
}
inline float FmaxScalar(float x, float y) {
  const std::uint32_t ux = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t uy = std::bit_cast<std::uint32_t>(y);
  if (!NanBits(ux) && !NanBits(uy)) return x > y ? x : y;
  if (!NanBits(uy) && (ux & 0x00400000u) != 0) return y;
  if (!NanBits(ux) && (uy & 0x00400000u) != 0) return x;
  return QuietFirstNan(ux, uy);
}

// Applies `fn` component-wise over the float components of `a`, writing the
// results into `dst` (pre-typed with the result type, which for these
// builtins always matches `a`'s shape).
template <typename F>
void MapUnaryInto(Value& dst, const Value& a, F&& fn) {
  for (int i = 0; i < a.count(); ++i) dst.SetF(i, fn(a.F(i)));
}

// Applies `fn` component-wise over `a` and `b`, broadcasting `b` when it is a
// scalar and `a` is a vector.
template <typename F>
void MapBinaryInto(Value& dst, const Value& a, const Value& b, F&& fn) {
  const bool broadcast = b.count() == 1 && a.count() > 1;
  for (int i = 0; i < a.count(); ++i) {
    dst.SetF(i, fn(a.F(i), b.F(broadcast ? 0 : i)));
  }
}

// --- lane-batched map helpers ---------------------------------------------
// Shape flags (component counts, broadcast) are hoisted out of the lane
// loop; the per-lane component loop applies the same `fn` in the same order
// a lane-sequential scalar evaluation would.

template <typename F>
void MapUnaryBatch(const BatchDst& dst, const BatchSrc& a, std::uint32_t mask,
                   F&& fn) {
  const int n = a.base->count();
  ForEachLane(mask, [&](int l) {
    const Value& av = a.at(l);
    Value& d = dst.at(l);
    for (int i = 0; i < n; ++i) d.SetF(i, fn(av.F(i)));
  });
}

template <typename F>
void MapBinaryBatch(const BatchDst& dst, const BatchSrc& a, const BatchSrc& b,
                    std::uint32_t mask, F&& fn) {
  const int n = a.base->count();
  const int bs = b.base->count() == 1 && n > 1 ? 0 : 1;
  ForEachLane(mask, [&](int l) {
    const Value& av = a.at(l);
    const Value& bv = b.at(l);
    Value& d = dst.at(l);
    for (int i = 0; i < n; ++i) d.SetF(i, fn(av.F(i), bv.F(i * bs)));
  });
}

template <typename F>
void MapTernaryBatch(const BatchDst& dst, const BatchSrc& a,
                     const BatchSrc& b, const BatchSrc& c, std::uint32_t mask,
                     F&& fn) {
  const int n = a.base->count();
  const int bs = b.base->count() == 1 && n > 1 ? 0 : 1;
  const int cs = c.base->count() == 1 && n > 1 ? 0 : 1;
  ForEachLane(mask, [&](int l) {
    const Value& av = a.at(l);
    const Value& bv = b.at(l);
    const Value& cv = c.at(l);
    Value& d = dst.at(l);
    for (int i = 0; i < n; ++i) {
      d.SetF(i, fn(av.F(i), bv.F(i * bs), cv.F(i * cs)));
    }
  });
}

void CopyCellsInto(Value& dst, const Value& src) {
  for (int i = 0; i < src.count(); ++i) dst.data()[i] = src.data()[i];
}

float DotProduct(const Value& a, const Value& b, AluModel& alu) {
  float acc = alu.Mul(a.F(0), b.F(0));
  for (int i = 1; i < a.count(); ++i) {
    acc = alu.Add(acc, alu.Mul(a.F(i), b.F(i)));
  }
  return acc;
}

void TextureFetchInto(Value& dst, const TextureFn& texture, AluModel& alu,
                      int unit, float s, float t, float lod) {
  alu.CountTmu(1);
  std::array<float, 4> rgba{0.0f, 0.0f, 0.0f, 1.0f};
  if (texture) rgba = texture(unit, s, t, lod);
  for (int i = 0; i < 4; ++i) dst.SetF(i, rgba[static_cast<std::size_t>(i)]);
}

}  // namespace

bool IsSoaBuiltin(Builtin b) { return b < Builtin::kTexture2D; }

void EvalBuiltinBatch(Builtin b, Type result_type,
                      std::span<const BatchSrc> argp, AluModel& alu,
                      const TextureFn& texture, const BatchDst& dst,
                      std::uint32_t mask) {
  (void)result_type;  // dst carries it; kept for signature symmetry
  // Convenience view: args(i) is the i-th argument's lane plane.
  const auto args = [&](std::size_t i) -> const BatchSrc& { return argp[i]; };
  constexpr float kPi = 3.14159265358979323846f;
  switch (b) {
    case Builtin::kRadians:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Mul(x, kPi / 180.0f); });
    case Builtin::kDegrees:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Mul(x, 180.0f / kPi); });
    case Builtin::kSin:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Sin(x); });
    case Builtin::kCos:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Cos(x); });
    case Builtin::kTan:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Tan(x); });
    case Builtin::kAsin:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Asin(x); });
    case Builtin::kAcos:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Acos(x); });
    case Builtin::kAtan:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Atan(x); });
    case Builtin::kAtan2:
      return MapBinaryBatch(dst, args(0), args(1), mask,
                            [&](float y, float x) { return alu.Atan2(y, x); });
    case Builtin::kPow:
      return MapBinaryBatch(dst, args(0), args(1), mask,
                            [&](float x, float y) { return alu.Pow(x, y); });
    case Builtin::kExp:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Exp(x); });
    case Builtin::kLog:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Log(x); });
    case Builtin::kExp2:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Exp2(x); });
    case Builtin::kLog2:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Log2(x); });
    case Builtin::kSqrt:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.Sqrt(x); });
    case Builtin::kInverseSqrt:
      return MapUnaryBatch(dst, args(0), mask,
                           [&](float x) { return alu.RecipSqrt(x); });

    case Builtin::kAbs:
      return MapUnaryBatch(dst, args(0), mask, [&](float x) {
        alu.Count(1);
        return std::fabs(x);
      });
    case Builtin::kSign:
      return MapUnaryBatch(dst, args(0), mask, [&](float x) {
        alu.Count(1);
        return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
      });
    case Builtin::kFloor:
      return MapUnaryBatch(dst, args(0), mask, [&](float x) {
        alu.Count(1);
        return std::floor(x);
      });
    case Builtin::kCeil:
      return MapUnaryBatch(dst, args(0), mask, [&](float x) {
        alu.Count(1);
        return std::ceil(x);
      });
    case Builtin::kFract:
      // x - floor(x), one ALU op for the floor and one for the subtract.
      return MapUnaryBatch(dst, args(0), mask, [&](float x) {
        alu.Count(1);
        return alu.Sub(x, std::floor(x));
      });
    case Builtin::kMod:
      // mod(x, y) = x - y * floor(x / y), per spec.
      return MapBinaryBatch(dst, args(0), args(1), mask, [&](float x, float y) {
        const float q = alu.Div(x, y);
        alu.Count(1);
        return alu.Sub(x, alu.Mul(y, std::floor(q)));
      });
    case Builtin::kMin:
      return MapBinaryBatch(dst, args(0), args(1), mask, [&](float x, float y) {
        alu.Count(1);
        return FminScalar(x, y);
      });
    case Builtin::kMax:
      return MapBinaryBatch(dst, args(0), args(1), mask, [&](float x, float y) {
        alu.Count(1);
        return FmaxScalar(x, y);
      });
    case Builtin::kClamp:
      return MapTernaryBatch(dst, args(0), args(1), args(2), mask,
                             [&](float x, float lo, float hi) {
                               alu.Count(2);
                               return FminScalar(FmaxScalar(x, lo), hi);
                             });
    case Builtin::kMix:
      return MapTernaryBatch(dst, args(0), args(1), args(2), mask,
                             [&](float x, float y, float a) {
                               return alu.Add(alu.Mul(x, alu.Sub(1.0f, a)),
                                              alu.Mul(y, a));
                             });
    case Builtin::kStep:
      // step(edge, x): note argument order (edge first).
      return MapBinaryBatch(dst, args(1), args(0), mask,
                            [&](float x, float edge) {
                              alu.Count(1);
                              return x < edge ? 0.0f : 1.0f;
                            });
    case Builtin::kSmoothstep: {
      // t = clamp((x-e0)/(e1-e0), 0, 1); t*t*(3-2t).
      const BatchSrc& e0 = args(0);
      const BatchSrc& e1 = args(1);
      const BatchSrc& x = args(2);
      const int n = x.base->count();
      const int es = e0.base->count() == 1 && n > 1 ? 0 : 1;
      ForEachLane(mask, [&](int l) {
        const Value& e0v = e0.at(l);
        const Value& e1v = e1.at(l);
        const Value& xv = x.at(l);
        Value& out = dst.at(l);
        for (int i = 0; i < n; ++i) {
          const float a = e0v.F(i * es);
          const float bb = e1v.F(i * es);
          float t = alu.Div(alu.Sub(xv.F(i), a), alu.Sub(bb, a));
          alu.Count(2);
          t = FminScalar(FmaxScalar(t, 0.0f), 1.0f);
          out.SetF(i,
                   alu.Mul(alu.Mul(t, t), alu.Sub(3.0f, alu.Mul(2.0f, t))));
        }
      });
      return;
    }

    case Builtin::kLength:
      ForEachLane(mask, [&](int l) {
        const float d = DotProduct(args(0).at(l), args(0).at(l), alu);
        dst.at(l).SetF(0, alu.Sqrt(d));
      });
      return;
    case Builtin::kDistance: {
      // The difference scratch is hoisted and reused per lane (its cells
      // are fully overwritten each lane).
      Value diff(args(0).base->type());
      ForEachLane(mask, [&](int l) {
        MapBinaryInto(diff, args(0).at(l), args(1).at(l),
                      [&](float x, float y) { return alu.Sub(x, y); });
        dst.at(l).SetF(0, alu.Sqrt(DotProduct(diff, diff, alu)));
      });
      return;
    }
    case Builtin::kDot:
      ForEachLane(mask, [&](int l) {
        dst.at(l).SetF(0, DotProduct(args(0).at(l), args(1).at(l), alu));
      });
      return;
    case Builtin::kCross:
      ForEachLane(mask, [&](int l) {
        const Value& a = args(0).at(l);
        const Value& c = args(1).at(l);
        Value& out = dst.at(l);
        out.SetF(0,
                 alu.Sub(alu.Mul(a.F(1), c.F(2)), alu.Mul(a.F(2), c.F(1))));
        out.SetF(1,
                 alu.Sub(alu.Mul(a.F(2), c.F(0)), alu.Mul(a.F(0), c.F(2))));
        out.SetF(2,
                 alu.Sub(alu.Mul(a.F(0), c.F(1)), alu.Mul(a.F(1), c.F(0))));
      });
      return;
    case Builtin::kNormalize:
      ForEachLane(mask, [&](int l) {
        const Value& a = args(0).at(l);
        const float inv = alu.RecipSqrt(DotProduct(a, a, alu));
        MapUnaryInto(dst.at(l), a, [&](float x) { return alu.Mul(x, inv); });
      });
      return;
    case Builtin::kFaceforward:
      ForEachLane(mask, [&](int l) {
        const float d = DotProduct(args(2).at(l), args(1).at(l), alu);
        alu.Count(1);
        if (d < 0.0f) {
          CopyCellsInto(dst.at(l), args(0).at(l));
        } else {
          MapUnaryInto(dst.at(l), args(0).at(l),
                       [&](float x) { return alu.Sub(0.0f, x); });
        }
      });
      return;
    case Builtin::kReflect:
      ForEachLane(mask, [&](int l) {
        const float d = DotProduct(args(1).at(l), args(0).at(l), alu);
        const float two_d = alu.Mul(2.0f, d);
        MapBinaryInto(dst.at(l), args(0).at(l), args(1).at(l),
                      [&](float i, float nn) {
                        return alu.Sub(i, alu.Mul(two_d, nn));
                      });
      });
      return;
    case Builtin::kRefract:
      ForEachLane(mask, [&](int l) {
        const float eta = args(2).at(l).F(0);
        const float d = DotProduct(args(1).at(l), args(0).at(l), alu);
        const float k = alu.Sub(
            1.0f,
            alu.Mul(alu.Mul(eta, eta), alu.Sub(1.0f, alu.Mul(d, d))));
        alu.Count(1);
        Value& out = dst.at(l);
        if (k < 0.0f) {
          // Zero vector; written explicitly because the VM's destination
          // register may hold a stale value.
          for (int i = 0; i < args(0).at(l).count(); ++i) out.SetF(i, 0.0f);
          return;
        }
        const float coeff = alu.Add(alu.Mul(eta, d), alu.Sqrt(k));
        MapBinaryInto(out, args(0).at(l), args(1).at(l),
                      [&](float i, float nn) {
                        return alu.Sub(alu.Mul(eta, i), alu.Mul(coeff, nn));
                      });
      });
      return;
    case Builtin::kMatrixCompMult:
      return MapBinaryBatch(dst, args(0), args(1), mask,
                            [&](float x, float y) { return alu.Mul(x, y); });

    case Builtin::kLessThan:
    case Builtin::kLessThanEqual:
    case Builtin::kGreaterThan:
    case Builtin::kGreaterThanEqual:
    case Builtin::kEqual:
    case Builtin::kNotEqual: {
      const int n = args(0).base->count();
      const bool is_float = args(0).base->scalar() == BaseType::kFloat;
      ForEachLane(mask, [&](int l) {
        const Value& a = args(0).at(l);
        const Value& c = args(1).at(l);
        Value& out = dst.at(l);
        for (int i = 0; i < n; ++i) {
          alu.Count(1);
          bool r = false;
          if (is_float) {
            const float x = a.F(i);
            const float y = c.F(i);
            switch (b) {
              case Builtin::kLessThan: r = x < y; break;
              case Builtin::kLessThanEqual: r = x <= y; break;
              case Builtin::kGreaterThan: r = x > y; break;
              case Builtin::kGreaterThanEqual: r = x >= y; break;
              case Builtin::kEqual: r = x == y; break;
              default: r = x != y; break;
            }
          } else {
            const std::int32_t x = a.I(i);
            const std::int32_t y = c.I(i);
            switch (b) {
              case Builtin::kLessThan: r = x < y; break;
              case Builtin::kLessThanEqual: r = x <= y; break;
              case Builtin::kGreaterThan: r = x > y; break;
              case Builtin::kGreaterThanEqual: r = x >= y; break;
              case Builtin::kEqual: r = x == y; break;
              default: r = x != y; break;
            }
          }
          out.SetB(i, r);
        }
      });
      return;
    }
    case Builtin::kAny: {
      const int n = args(0).base->count();
      ForEachLane(mask, [&](int l) {
        const Value& a = args(0).at(l);
        bool r = false;
        for (int i = 0; i < n; ++i) r = r || a.B(i);
        alu.Count(n);
        dst.at(l).SetB(0, r);
      });
      return;
    }
    case Builtin::kAll: {
      const int n = args(0).base->count();
      ForEachLane(mask, [&](int l) {
        const Value& a = args(0).at(l);
        bool r = true;
        for (int i = 0; i < n; ++i) r = r && a.B(i);
        alu.Count(n);
        dst.at(l).SetB(0, r);
      });
      return;
    }
    case Builtin::kNot: {
      const int n = args(0).base->count();
      ForEachLane(mask, [&](int l) {
        const Value& a = args(0).at(l);
        Value& out = dst.at(l);
        for (int i = 0; i < n; ++i) out.SetB(i, !a.B(i));
        alu.Count(n);
      });
      return;
    }

    // Texture builtins are reachable only through the single-lane scalar
    // wrapper (EvalBuiltinInto): the batched VM replays them per lane to
    // keep TMU cache-access order fragment-sequential (IsSoaBuiltin).
    case Builtin::kTexture2D:
      ForEachLane(mask, [&](int l) {
        TextureFetchInto(dst.at(l), texture, alu, args(0).at(l).I(0),
                         args(1).at(l).F(0), args(1).at(l).F(1), 0.0f);
      });
      return;
    case Builtin::kTexture2DBias:
    case Builtin::kTexture2DLod:
      ForEachLane(mask, [&](int l) {
        TextureFetchInto(dst.at(l), texture, alu, args(0).at(l).I(0),
                         args(1).at(l).F(0), args(1).at(l).F(1),
                         args(2).at(l).F(0));
      });
      return;
    case Builtin::kTexture2DProj3:
    case Builtin::kTexture2DProj3Bias:
    case Builtin::kTexture2DProjLod3:
      ForEachLane(mask, [&](int l) {
        const Value& uv = args(1).at(l);
        const float q = uv.F(2);
        const float lod = argp.size() > 2 ? args(2).at(l).F(0) : 0.0f;
        TextureFetchInto(dst.at(l), texture, alu, args(0).at(l).I(0),
                         alu.Div(uv.F(0), q), alu.Div(uv.F(1), q), lod);
      });
      return;
    case Builtin::kTexture2DProj4:
    case Builtin::kTexture2DProj4Bias:
    case Builtin::kTexture2DProjLod4:
      ForEachLane(mask, [&](int l) {
        const Value& uv = args(1).at(l);
        const float q = uv.F(3);
        const float lod = argp.size() > 2 ? args(2).at(l).F(0) : 0.0f;
        TextureFetchInto(dst.at(l), texture, alu, args(0).at(l).I(0),
                         alu.Div(uv.F(0), q), alu.Div(uv.F(1), q), lod);
      });
      return;
  }
}

void EvalBuiltinInto(Builtin b, Type result_type,
                     std::span<const Value* const> argp, AluModel& alu,
                     const TextureFn& texture, Value& dst) {
  // Single-lane view over the batch kernel: one implementation of builtin
  // semantics serves the tree-walking oracle, the scalar VM, and the
  // batched VM alike.
  std::array<BatchSrc, kMaxBuiltinArgs> av;
  for (std::size_t i = 0; i < argp.size(); ++i) av[i] = BatchSrc{argp[i], 0};
  EvalBuiltinBatch(b, result_type,
                   std::span<const BatchSrc>(av.data(), argp.size()), alu,
                   texture, BatchDst{&dst, 0}, 0x1u);
}

Value EvalBuiltin(Builtin b, Type result_type,
                  std::span<const Value* const> args, AluModel& alu,
                  const TextureFn& texture) {
  Value out(result_type);
  EvalBuiltinInto(b, result_type, args, alu, texture, out);
  return out;
}

}  // namespace mgpu::glsl
