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

// Component-wise float maps over a result's cells, in the masked loop
// shape (evalcore.h's MapLanes): cell c of lane l is fn(a(c), b(c), ...),
// with a scalar b/c broadcasting against a vector a. `fn` is a pure
// formula — it also runs on inactive lanes below the top one — and the
// callers charge its per-cell costs once per instruction.
template <typename F>
void MapUnaryBatch(const PlaneDst& dst, const PlaneSrc& a, std::uint32_t mask,
                   F fn) {
  MapLanes(dst, a.count(), mask, [fn](Cell x) { return FCell(fn(x.f)); },
           LaneOperand{a});
}

template <typename F>
void MapBinaryBatch(const PlaneDst& dst, const PlaneSrc& a, const PlaneSrc& b,
                    std::uint32_t mask, F fn) {
  const int n = a.count();
  const int bs = b.count() == 1 && n > 1 ? 0 : 1;
  MapLanes(
      dst, n, mask, [fn](Cell x, Cell y) { return FCell(fn(x.f, y.f)); },
      LaneOperand{a}, LaneOperand{b, bs});
}

template <typename F>
void MapTernaryBatch(const PlaneDst& dst, const PlaneSrc& a, const PlaneSrc& b,
                     const PlaneSrc& c, std::uint32_t mask, F fn) {
  const int n = a.count();
  const int bs = b.count() == 1 && n > 1 ? 0 : 1;
  const int cs = c.count() == 1 && n > 1 ? 0 : 1;
  MapLanes(
      dst, n, mask,
      [fn](Cell x, Cell y, Cell z) { return FCell(fn(x.f, y.f, z.f)); },
      LaneOperand{a}, LaneOperand{b, bs}, LaneOperand{c, cs});
}

// Lane `l`'s dot product of a and b, accumulated in component order.
float DotLane(const PlaneSrc& a, const PlaneSrc& b, int l, AluModel& alu) {
  float acc = alu.Mul(a.at(0, l).f, b.at(0, l).f);
  for (int i = 1; i < a.count(); ++i) {
    acc = alu.Add(acc, alu.Mul(a.at(i, l).f, b.at(i, l).f));
  }
  return acc;
}

// A row of per-lane float accumulators.
using FloatRow = std::array<float, kVmLanes>;

// Lanes [0, top) of dot(a, b) into acc, accumulated in component order and
// rounded as DotLane's AluModel calls are.
template <typename Round>
void DotRows(const PlaneSrc& a, const PlaneSrc& b, int top, Round rs,
             FloatRow& acc) {
  LaneRow ba, bb;
  const Cell* x = RowOf(a, 0, top, ba);
  const Cell* y = RowOf(b, 0, top, bb);
  for (int l = 0; l < top; ++l) acc[l] = rs(FMul(x[l].f, y[l].f));
  for (int i = 1; i < a.count(); ++i) {
    x = RowOf(a, i, top, ba);
    y = RowOf(b, i, top, bb);
    for (int l = 0; l < top; ++l) {
      acc[l] = rs(FAdd(acc[l], rs(FMul(x[l].f, y[l].f))));
    }
  }
}

// dst = sqrt(row) for the mask's lanes, counted as AluModel::Sqrt: an SFU
// op per lane and an ALU op per lane whose operand is not zero.
template <typename Round>
void SqrtRow(AluModel& alu, const FloatRow& row, Round rs,
             const PlaneDst& dst, std::uint32_t mask, int top) {
  alu.CountSfu(LaneCount(mask));
  int nonzero = 0;
  ForEachLane(mask, [&](int l) { nonzero += row[l] != 0.0f; });
  alu.Count(nonzero);
  CommitLanes(dst, 0, mask, top,
              [&](int l) { return FCell(SfuSqrt(row[l], rs)); });
}

// Issues `fetch` (coordinates already filled for lanes [0, top)) and
// commits the texels into dst's four components under its mask.
void FetchTexels(TexelFetch& fetch, const TextureFn& texture, AluModel& alu,
                 const PlaneDst& dst) {
  alu.CountTmu(LaneCount(fetch.mask));
  const int top = TopLane(fetch.mask);
  if (texture) {
    texture(fetch);
  } else {
    for (std::size_t c = 0; c < 4; ++c) {
      std::fill_n(fetch.rgba[c].begin(), top, c == 3 ? 1.0f : 0.0f);
    }
  }
  for (int c = 0; c < 4; ++c) {
    const auto& texel = fetch.rgba[static_cast<std::size_t>(c)];
    CommitLanes(dst, c, fetch.mask, top,
                [&texel](int l) { return FCell(texel[l]); });
  }
}

// The geometric builtins in rows, for one rounding functor: each lane
// rounds and counts exactly as the AluModel calls of its scalar lowering
// would (a dot product is n multiplies and n - 1 adds, in component order).
template <typename Round>
void GeometricBatch(Builtin b, std::span<const PlaneSrc> argp, AluModel& alu,
                    const PlaneDst& dst, std::uint32_t mask, Round rs) {
  const auto args = [&](std::size_t i) -> const PlaneSrc& { return argp[i]; };
  const int lanes = LaneCount(mask);
  const int top = TopLane(mask);
  switch (b) {
    case Builtin::kLength: {
      const int n = args(0).count();
      alu.Count(lanes * (2 * n - 1));
      FloatRow d;
      DotRows(args(0), args(0), top, rs, d);
      return SqrtRow(alu, d, rs, dst, mask, top);
    }
    case Builtin::kDistance: {
      // (a - b) . (a - b), the differences rounded first.
      const int n = args(0).count();
      alu.Count(lanes * (3 * n - 1));
      LaneRow ba, bb;
      FloatRow acc;
      for (int i = 0; i < n; ++i) {
        const Cell* x = RowOf(args(0), i, top, ba);
        const Cell* y = RowOf(args(1), i, top, bb);
        for (int l = 0; l < top; ++l) {
          const float diff = rs(FSub(x[l].f, y[l].f));
          const float sq = rs(FMul(diff, diff));
          acc[l] = i == 0 ? sq : rs(FAdd(acc[l], sq));
        }
      }
      return SqrtRow(alu, acc, rs, dst, mask, top);
    }
    case Builtin::kDot: {
      alu.Count(lanes * (2 * args(0).count() - 1));
      FloatRow d;
      DotRows(args(0), args(1), top, rs, d);
      return CommitLanes(dst, 0, mask, top,
                         [&d](int l) { return FCell(d[l]); });
    }
    case Builtin::kCross: {
      alu.Count(lanes * 9);
      std::array<LaneRow, 6> bufs;
      std::array<const Cell*, 6> r;  // a.xyz, c.xyz
      for (int i = 0; i < 3; ++i) {
        r[static_cast<std::size_t>(i)] = RowOf(args(0), i, top, bufs[i]);
        r[static_cast<std::size_t>(i + 3)] =
            RowOf(args(1), i, top, bufs[static_cast<std::size_t>(i + 3)]);
      }
      std::array<LaneRow, 3> out;
      for (int i = 0; i < 3; ++i) {
        const Cell* a1 = r[static_cast<std::size_t>((i + 1) % 3)];
        const Cell* a2 = r[static_cast<std::size_t>((i + 2) % 3)];
        const Cell* c1 = r[static_cast<std::size_t>(3 + (i + 1) % 3)];
        const Cell* c2 = r[static_cast<std::size_t>(3 + (i + 2) % 3)];
        for (int l = 0; l < top; ++l) {
          out[static_cast<std::size_t>(i)][l].f =
              rs(FSub(rs(FMul(a1[l].f, c2[l].f)), rs(FMul(a2[l].f, c1[l].f))));
        }
      }
      for (int i = 0; i < 3; ++i) {
        CommitRow(dst, i, out[static_cast<std::size_t>(i)].data(), mask, top);
      }
      return;
    }
    case Builtin::kNormalize: {
      // a * rsqrt(a . a): the reciprocal square root on the SFU.
      const PlaneSrc& a = args(0);
      const int n = a.count();
      alu.Count(lanes * (3 * n - 1));
      alu.CountSfu(lanes);
      FloatRow inv;
      LaneRow buf;
      DotRows(a, a, top, rs, inv);
      for (int l = 0; l < top; ++l) inv[l] = rs(1.0f / std::sqrt(inv[l]));
      for (int i = 0; i < n; ++i) {
        const Cell* x = RowOf(a, i, top, buf);
        CommitLanes(dst, i, mask, top, [&](int l) {
          return FCell(rs(FMul(x[l].f, inv[l])));
        });
      }
      return;
    }
    case Builtin::kReflect: {
      // i - 2 * (n . i) * n.
      const PlaneSrc& in = args(0);
      const int n = in.count();
      alu.Count(lanes * (4 * n));
      FloatRow two_d;
      LaneRow bi, bn;
      DotRows(args(1), in, top, rs, two_d);
      for (int l = 0; l < top; ++l) two_d[l] = rs(FMul(2.0f, two_d[l]));
      for (int i = 0; i < n; ++i) {
        const Cell* x = RowOf(in, i, top, bi);
        const Cell* nv = RowOf(args(1), i, top, bn);
        CommitLanes(dst, i, mask, top, [&](int l) {
          return FCell(rs(FSub(x[l].f, rs(FMul(two_d[l], nv[l].f)))));
        });
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace

void EvalBuiltinBatch(Builtin b, std::span<const PlaneSrc> argp,
                      AluModel& alu, const TextureFn& texture,
                      const PlaneDst& dst, std::uint32_t mask) {
  const auto args = [&](std::size_t i) -> const PlaneSrc& { return argp[i]; };
  constexpr float kPi = 3.14159265358979323846f;
  const RoundSpec rs = alu.round_spec();
  const float sfu = alu.sfu_spec().scale;
  const int lanes = LaneCount(mask);
  const int top = TopLane(mask);
  // Result cells this instruction produces; per-cell ALU costs scale it.
  const int cells = lanes * dst.count();
  // A unary libm function the mobile compilers lower to a polynomial:
  // exact, with an SFU-equivalent cost.
  const auto trans = [&](auto fn) {
    alu.CountSfuTrans(cells);
    MapUnaryBatch(dst, args(0), mask, [rs, fn](float x) { return rs(fn(x)); });
  };
  switch (b) {
    case Builtin::kRadians:
      alu.Count(cells);
      return MapUnaryBatch(dst, args(0), mask,
                           [rs](float x) { return rs(x * (kPi / 180.0f)); });
    case Builtin::kDegrees:
      alu.Count(cells);
      return MapUnaryBatch(dst, args(0), mask,
                           [rs](float x) { return rs(x * (180.0f / kPi)); });
    case Builtin::kSin:
      return trans([](float x) { return std::sin(x); });
    case Builtin::kCos:
      return trans([](float x) { return std::cos(x); });
    case Builtin::kTan:
      return trans([](float x) { return std::tan(x); });
    case Builtin::kAsin:
      return trans([](float x) { return std::asin(x); });
    case Builtin::kAcos:
      return trans([](float x) { return std::acos(x); });
    case Builtin::kAtan:
      return trans([](float x) { return std::atan(x); });
    case Builtin::kAtan2:
      alu.CountSfuTrans(cells);
      return MapBinaryBatch(dst, args(0), args(1), mask,
                            [rs](float y, float x) {
                              return rs(std::atan2(y, x));
                            });
    // The AluModel's lowerings, inlined: pow(x, y) = exp2(y * log2(x)),
    // exp(x) = exp2(x * log2(e)), log(x) = log2(x) * ln(2).
    case Builtin::kPow:
      alu.CountSfuTrans(2 * cells);
      alu.Count(cells);
      return MapBinaryBatch(dst, args(0), args(1), mask,
                            [rs, sfu](float x, float y) {
                              return SfuExp2(rs(FMul(y, SfuLog2(x, sfu, rs))),
                                             sfu, rs);
                            });
    case Builtin::kExp:
      alu.CountSfuTrans(cells);
      alu.Count(cells);
      return MapUnaryBatch(dst, args(0), mask, [rs, sfu](float x) {
        return SfuExp2(rs(FMul(x, 1.4426950408889634f)), sfu, rs);
      });
    case Builtin::kLog:
      alu.CountSfuTrans(cells);
      alu.Count(cells);
      return MapUnaryBatch(dst, args(0), mask, [rs, sfu](float x) {
        return rs(FMul(SfuLog2(x, sfu, rs), 0.6931471805599453f));
      });
    case Builtin::kExp2:
      alu.CountSfuTrans(cells);
      return MapUnaryBatch(dst, args(0), mask,
                           [rs, sfu](float x) { return SfuExp2(x, sfu, rs); });
    case Builtin::kLog2:
      alu.CountSfuTrans(cells);
      return MapUnaryBatch(dst, args(0), mask,
                           [rs, sfu](float x) { return SfuLog2(x, sfu, rs); });
    case Builtin::kSqrt: {
      // SfuSqrt: one SFU op per cell, one ALU op per non-zero cell.
      alu.CountSfu(cells);
      int nonzero = 0;
      for (int c = 0; c < dst.count(); ++c) {
        ForEachLane(mask,
                    [&](int l) { nonzero += args(0).at(c, l).f != 0.0f; });
      }
      alu.Count(nonzero);
      return MapUnaryBatch(dst, args(0), mask,
                           [rs](float x) { return SfuSqrt(x, rs); });
    }
    case Builtin::kInverseSqrt:
      alu.CountSfu(cells);
      return MapUnaryBatch(dst, args(0), mask, [rs](float x) {
        return rs(1.0f / std::sqrt(x));
      });

    case Builtin::kAbs:
      alu.Count(cells);
      return MapUnaryBatch(dst, args(0), mask,
                           [](float x) { return std::fabs(x); });
    case Builtin::kSign:
      alu.Count(cells);
      return MapUnaryBatch(dst, args(0), mask, [](float x) {
        return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
      });
    case Builtin::kFloor:
      alu.Count(cells);
      return MapUnaryBatch(dst, args(0), mask,
                           [](float x) { return FFloor(x); });
    case Builtin::kCeil:
      alu.Count(cells);
      return MapUnaryBatch(dst, args(0), mask,
                           [](float x) { return std::ceil(x); });
    case Builtin::kFract:
      // x - floor(x), one ALU op for the floor and one for the subtract.
      alu.Count(2 * cells);
      return MapUnaryBatch(dst, args(0), mask,
                           [rs](float x) { return rs(x - FFloor(x)); });
    case Builtin::kMod:
      // mod(x, y) = x - y * floor(x / y), per spec: div (ALU + SFU
      // reciprocal), floor, mul, sub.
      alu.Count(4 * cells);
      alu.CountSfu(cells);
      return MapBinaryBatch(dst, args(0), args(1), mask,
                            [rs](float x, float y) {
                              const float q = rs(FMul(x, rs(1.0f / y)));
                              return rs(FSub(x, rs(FMul(y, FFloor(q)))));
                            });
    case Builtin::kMin:
      alu.Count(cells);
      return MapBinaryBatch(dst, args(0), args(1), mask,
                            [](float x, float y) { return FminScalar(x, y); });
    case Builtin::kMax:
      alu.Count(cells);
      return MapBinaryBatch(dst, args(0), args(1), mask,
                            [](float x, float y) { return FmaxScalar(x, y); });
    case Builtin::kClamp:
      alu.Count(2 * cells);
      return MapTernaryBatch(dst, args(0), args(1), args(2), mask,
                             [](float x, float lo, float hi) {
                               return FminScalar(FmaxScalar(x, lo), hi);
                             });
    case Builtin::kMix:
      // x * (1 - a) + y * a: sub, two muls, add.
      alu.Count(4 * cells);
      return MapTernaryBatch(dst, args(0), args(1), args(2), mask,
                             [rs](float x, float y, float a) {
                               return rs(FAdd(rs(FMul(x, rs(1.0f - a))),
                                              rs(FMul(y, a))));
                             });
    case Builtin::kStep:
      // step(edge, x): note argument order (edge first).
      alu.Count(cells);
      return MapBinaryBatch(dst, args(1), args(0), mask,
                            [](float x, float edge) {
                              return x < edge ? 0.0f : 1.0f;
                            });
    case Builtin::kSmoothstep:
      // t = clamp((x-e0)/(e1-e0), 0, 1); t*t*(3-2t): two subs, a div (ALU
      // + SFU), the clamp's two ops, then mul, mul, sub, mul.
      alu.Count(9 * cells);
      alu.CountSfu(cells);
      return MapTernaryBatch(dst, args(2), args(0), args(1), mask,
                             [rs](float x, float a, float bb) {
                               float t = rs(FMul(rs(FSub(x, a)),
                                                 rs(1.0f / rs(FSub(bb, a)))));
                               t = FminScalar(FmaxScalar(t, 0.0f), 1.0f);
                               return rs(FMul(rs(t * t),
                                              rs(3.0f - rs(2.0f * t))));
                             });

    case Builtin::kLength:
    case Builtin::kDistance:
    case Builtin::kDot:
    case Builtin::kCross:
    case Builtin::kNormalize:
    case Builtin::kReflect:
      return WithRounding(rs, [&](auto round) {
        GeometricBatch(b, argp, alu, dst, mask, round);
      });
    case Builtin::kFaceforward:
      ForEachLane(mask, [&](int l) {
        const PlaneSrc& n = args(0);
        const float d = DotLane(args(2), args(1), l, alu);
        alu.Count(1);
        for (int i = 0; i < n.count(); ++i) {
          if (d < 0.0f) {
            dst.at(i, l) = n.at(i, l);
          } else {
            dst.at(i, l).f = alu.Sub(0.0f, n.at(i, l).f);
          }
        }
      });
      return;
    case Builtin::kRefract:
      ForEachLane(mask, [&](int l) {
        const PlaneSrc& in = args(0);
        const float eta = args(2).at(0, l).f;
        const float d = DotLane(args(1), in, l, alu);
        const float k = alu.Sub(
            1.0f, alu.Mul(alu.Mul(eta, eta), alu.Sub(1.0f, alu.Mul(d, d))));
        alu.Count(1);
        if (k < 0.0f) {
          for (int i = 0; i < in.count(); ++i) dst.at(i, l).f = 0.0f;
          return;
        }
        const float coeff = alu.Add(alu.Mul(eta, d), alu.Sqrt(k));
        for (int i = 0; i < in.count(); ++i) {
          dst.at(i, l).f = alu.Sub(alu.Mul(eta, in.at(i, l).f),
                                   alu.Mul(coeff, args(1).at(i, l).f));
        }
      });
      return;
    case Builtin::kMatrixCompMult:
      alu.Count(cells);
      return MapBinaryBatch(dst, args(0), args(1), mask,
                            [rs](float x, float y) { return rs(FMul(x, y)); });

    case Builtin::kLessThan:
    case Builtin::kLessThanEqual:
    case Builtin::kGreaterThan:
    case Builtin::kGreaterThanEqual:
    case Builtin::kEqual:
    case Builtin::kNotEqual: {
      alu.Count(cells);
      const PlaneSrc& a = args(0);
      const PlaneSrc& c = args(1);
      const bool is_float = a.scalar() == BaseType::kFloat;
      const auto compare = [&](auto pred) {
        if (is_float) {
          MapLanes(
              dst, a.count(), mask,
              [pred](Cell x, Cell y) { return ICell(pred(x.f, y.f)); },
              LaneOperand{a}, LaneOperand{c});
        } else {
          MapLanes(
              dst, a.count(), mask,
              [pred](Cell x, Cell y) { return ICell(pred(x.i, y.i)); },
              LaneOperand{a}, LaneOperand{c});
        }
      };
      switch (b) {
        case Builtin::kLessThan:
          return compare([](auto x, auto y) { return x < y; });
        case Builtin::kLessThanEqual:
          return compare([](auto x, auto y) { return x <= y; });
        case Builtin::kGreaterThan:
          return compare([](auto x, auto y) { return x > y; });
        case Builtin::kGreaterThanEqual:
          return compare([](auto x, auto y) { return x >= y; });
        case Builtin::kEqual:
          return compare([](auto x, auto y) { return x == y; });
        default:
          return compare([](auto x, auto y) { return x != y; });
      }
    }
    case Builtin::kAny:
    case Builtin::kAll: {
      // any: the OR of the components' truth, all: the AND.
      const PlaneSrc& a = args(0);
      const bool any = b == Builtin::kAny;
      alu.Count(lanes * a.count());
      LaneRow buf, acc;
      for (int l = 0; l < top; ++l) acc[l].i = any ? 0 : 1;
      for (int i = 0; i < a.count(); ++i) {
        const Cell* x = RowOf(a, i, top, buf);
        for (int l = 0; l < top; ++l) {
          const std::int32_t t = x[l].i != 0 ? 1 : 0;
          acc[l].i = any ? (acc[l].i | t) : (acc[l].i & t);
        }
      }
      CommitRow(dst, 0, acc.data(), mask, top);
      return;
    }
    case Builtin::kNot:
      alu.Count(cells);
      return MapLanes(
          dst, args(0).count(), mask,
          [](Cell x) { return ICell(x.i == 0 ? 1 : 0); },
          LaneOperand{args(0)});

    // Texture builtins: one batched TMU fetch for the whole mask.
    case Builtin::kTexture2D:
    case Builtin::kTexture2DBias:
    case Builtin::kTexture2DLod:
    case Builtin::kTexture2DProj3:
    case Builtin::kTexture2DProj3Bias:
    case Builtin::kTexture2DProjLod3:
    case Builtin::kTexture2DProj4:
    case Builtin::kTexture2DProj4Bias:
    case Builtin::kTexture2DProjLod4: {
      // Projective forms divide s and t by the coordinate's last component.
      const bool proj3 = b == Builtin::kTexture2DProj3 ||
                         b == Builtin::kTexture2DProj3Bias ||
                         b == Builtin::kTexture2DProjLod3;
      const bool proj4 = b == Builtin::kTexture2DProj4 ||
                         b == Builtin::kTexture2DProj4Bias ||
                         b == Builtin::kTexture2DProjLod4;
      const int q = proj3 ? 2 : 3;
      const PlaneSrc& uv = args(1);
      TexelFetch fetch;
      fetch.mask = mask;
      LaneRow bs, bt, bq, bu, bl;
      const Cell* unit = RowOf(args(0), 0, top, bu);
      const Cell* s = RowOf(uv, 0, top, bs);
      const Cell* t = RowOf(uv, 1, top, bt);
      for (int l = 0; l < top; ++l) fetch.unit[l] = unit[l].i;
      if (proj3 || proj4) {
        // s / q and t / q, each a division: an ALU op and an SFU
        // reciprocal per lane.
        alu.Count(2 * lanes);
        alu.CountSfu(2 * lanes);
        const Cell* w = RowOf(uv, q, top, bq);
        for (int l = 0; l < top; ++l) {
          fetch.s[l] = rs(FMul(s[l].f, rs(1.0f / w[l].f)));
          fetch.t[l] = rs(FMul(t[l].f, rs(1.0f / w[l].f)));
        }
      } else {
        for (int l = 0; l < top; ++l) {
          fetch.s[l] = s[l].f;
          fetch.t[l] = t[l].f;
        }
      }
      if (argp.size() > 2) {
        const Cell* lod = RowOf(args(2), 0, top, bl);
        for (int l = 0; l < top; ++l) fetch.lod[l] = lod[l].f;
      } else {
        std::fill_n(fetch.lod.begin(), top, 0.0f);
      }
      FetchTexels(fetch, texture, alu, dst);
      return;
    }
  }
}

Value EvalBuiltin(Builtin b, Type result_type,
                  std::span<const Value* const> args, AluModel& alu,
                  const TextureFn& texture) {
  // One-lane views over the batch kernel: one implementation of builtin
  // semantics serves the tree-walking oracle and the VM alike.
  std::array<PlaneSrc, kMaxBuiltinArgs> av;
  for (std::size_t i = 0; i < args.size(); ++i) av[i] = ValuePlane(*args[i]);
  Value out(result_type);
  EvalBuiltinBatch(b, std::span<const PlaneSrc>(av.data(), args.size()), alu,
                   texture, ValuePlane(out), 0x1u);
  return out;
}

}  // namespace mgpu::glsl
