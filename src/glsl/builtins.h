// The GLSL ES 1.00 built-in function library (spec chapter 8): resolution of
// overloads during semantic analysis and evaluation during interpretation.
#ifndef MGPU_GLSL_BUILTINS_H_
#define MGPU_GLSL_BUILTINS_H_

#include <array>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "glsl/alu.h"
#include "glsl/evalcore.h"
#include "glsl/type.h"
#include "glsl/value.h"

namespace mgpu::glsl {

enum class Builtin : int {
  kRadians, kDegrees, kSin, kCos, kTan, kAsin, kAcos, kAtan, kAtan2,
  kPow, kExp, kLog, kExp2, kLog2, kSqrt, kInverseSqrt,
  kAbs, kSign, kFloor, kCeil, kFract, kMod, kMin, kMax, kClamp, kMix,
  kStep, kSmoothstep,
  kLength, kDistance, kDot, kCross, kNormalize, kFaceforward, kReflect,
  kRefract,
  kMatrixCompMult,
  kLessThan, kLessThanEqual, kGreaterThan, kGreaterThanEqual, kEqual,
  kNotEqual, kAny, kAll, kNot,
  kTexture2D, kTexture2DBias, kTexture2DProj3, kTexture2DProj4,
  kTexture2DProj3Bias, kTexture2DProj4Bias, kTexture2DLod,
  kTexture2DProjLod3, kTexture2DProjLod4,
};

// Largest argument count across the builtin table (texture2D with bias /
// clamp / smoothstep take 3; callers size fixed pointer buffers with this).
inline constexpr int kMaxBuiltinArgs = 4;

// True if `name` is a built-in function name (used to reject user
// redefinitions, as GLSL ES 1.00 reserves them).
[[nodiscard]] bool IsBuiltinName(const std::string& name);

struct BuiltinResolution {
  bool ok = false;
  Builtin builtin{};
  Type result_type;
  std::string error;  // set when ok == false and the name matched but the
                      // argument types did not
};

// Resolves `name(arg_types...)` against the builtin library for `stage`
// (texture bias is fragment-only, texture*Lod is vertex-only).
[[nodiscard]] BuiltinResolution ResolveBuiltin(
    const std::string& name, const std::vector<Type>& arg_types, Stage stage);

// One batched texture fetch: the TMU request of a whole instruction. Every
// lane l in `mask` samples texture unit unit[l] at (s[l], t[l]) with lod
// bias (fragment) or level (vertex) lod[l]; the callback writes the texel's
// RGBA in [0,1] to rgba[c][l]. Entries of lanes outside `mask` are
// unspecified and must not be read. The tree walker issues one-lane
// fetches (mask 1). Callbacks that model per-fragment state (the gles2
// texture-cache log) keep it per lane, in the order fetches arrive — which
// is each lane's program order.
struct TexelFetch {
  std::uint32_t mask = 0;
  std::array<std::int32_t, kVmLanes> unit;
  std::array<float, kVmLanes> s;
  std::array<float, kVmLanes> t;
  std::array<float, kVmLanes> lod;
  std::array<std::array<float, kVmLanes>, 4> rgba;
};

// Texture fetch callback, installed by the gles2 draw pipeline. Without one
// every fetch reads (0, 0, 0, 1).
using TextureFn = std::function<void(TexelFetch& fetch)>;

// Evaluates a resolved builtin for the tree walker. `args` are pointers to
// already-evaluated argument values.
[[nodiscard]] Value EvalBuiltin(Builtin b, Type result_type,
                                std::span<const Value* const> args,
                                AluModel& alu, const TextureFn& texture);

// Lane-batched evaluation over component planes: builtin and shape
// dispatch run once per instruction, then loops over components and the
// mask's lanes. This is the ONLY implementation of builtin semantics —
// EvalBuiltin calls it with one-lane views — so the tree-walking oracle and
// the VM at every width share one code path and cannot drift in results or
// AluModel counts. Texture builtins issue one
// TexelFetch for the whole mask.
void EvalBuiltinBatch(Builtin b, std::span<const PlaneSrc> args,
                      AluModel& alu, const TextureFn& texture,
                      const PlaneDst& dst, std::uint32_t mask);

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_BUILTINS_H_
