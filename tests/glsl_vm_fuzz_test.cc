// Seeded differential fuzz harness for the shader execution engines.
//
// A deterministic generator (SplitMix64-seeded, reproducible bit-for-bit)
// produces random-but-valid GLSL ES 1.00 fragment shaders over vector
// arithmetic, builtins, control flow, helper functions, arrays and dynamic
// indexing. Every program runs through all THREE engines — the tree-walking
// ShaderExec oracle, the bytecode VmExec one lane wide (RunBatch(1) per
// invocation), and the same VmExec lane-batched at every tail size
// 1..kVmLanes — and must produce byte-identical gl_FragColor bits,
// identical per-lane discard decisions, and identical ALU/SFU/TMU op
// counts (ExactAlu and Vc4Alu).
//
// The same generator also emits VERTEX-stage programs (attribute input,
// gl_Position output, no discard) for the identical engine sweep, and a
// whole-draw corpus: seeded (vertex shader, fragment shader, attribute
// buffer) triples drawn through a real gles2::Context under all three
// engines × both ALU profiles, asserting
// bit-identical framebuffer bytes, op counts, and draw-abort diagnostics
// (trap message, GL error, reset status). That covers attribute decode for
// every GL type, varying interpolation and the TMU cache model end-to-end.
//
// This is the lockdown for the SoA evaluation core and the lane masks: the
// tree walker runs the AST through the scalar evalcore, the one-lane VM runs
// the bytecode with no divergence, and the batched VM splits and re-joins
// lanes, so any drift between them shows up here as a bit mismatch with the
// seed printed.
//
// Usage: glsl_vm_fuzz_test [--fuzz_iters=N] [--draw_iters=M] [gtest flags]
//   N defaults to 200; CI passes 200 on the build matrix and 50 under
//   TSan/ASan (see CMakeLists.txt / MGPU_FUZZ_ITERS). M defaults to
//   max(8, N / 8).
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/strings.h"
#include "gles2/context.h"
#include "gles2_test_util.h"
#include "glsl/compile.h"
#include "glsl/interp.h"
#include "glsl/ir.h"
#include "glsl/vm.h"
#include "glsl_test_util.h"
#include "vc4/alu.h"
#include "vc4/profiles.h"

#include "gtest/gtest.h"

namespace {
int g_fuzz_iters = 200;
// Whole-draw differential iterations (each seed links and draws through
// ~5 full contexts, so the budget is a fraction of --fuzz_iters). -1 =
// derive from g_fuzz_iters in main(); --draw_iters overrides.
int g_draw_iters = -1;
}  // namespace

namespace mgpu::glsl {
namespace {

// ---------------------------------------------------------------------------
// Program generator
// ---------------------------------------------------------------------------

enum class GType { kF, kV2, kV3, kV4, kI, kB, kM2 };

const char* TypeName(GType t) {
  switch (t) {
    case GType::kF: return "float";
    case GType::kV2: return "vec2";
    case GType::kV3: return "vec3";
    case GType::kV4: return "vec4";
    case GType::kI: return "int";
    case GType::kB: return "bool";
    case GType::kM2: return "mat2";
  }
  return "float";
}

int VecWidth(GType t) {
  switch (t) {
    case GType::kV2: return 2;
    case GType::kV3: return 3;
    case GType::kV4: return 4;
    default: return 1;
  }
}

class GlslFuzzer {
 public:
  // `stage` selects the program kind: fragment (default, the original
  // corpus) or vertex — same expression/statement machinery, but the lane
  // input `v_in` becomes an attribute, `discard` is never emitted (sema
  // rejects it outside fragment shaders) and main ends with an
  // unconditional gl_Position write instead of gl_FragColor.
  // `whole_draw` further shapes vertex programs for linking into a real
  // program: the input attribute is renamed a_in, a second vec2 attribute
  // a_mix joins the scope (so generated code reads two differently-typed
  // arrays), a varying `v_in` is written for the fragment stage, and
  // texture2D is suppressed (the gles2 vertex stage has no sampler).
  explicit GlslFuzzer(std::uint64_t seed, Stage stage = Stage::kFragment,
                      bool whole_draw = false)
      : rng_(seed),
        stage_(stage),
        whole_draw_(whole_draw),
        in_name_(stage == Stage::kVertex && whole_draw ? "a_in" : "v_in") {}

  std::string Generate() {
    std::string src = "precision highp float;\n";
    if (stage_ == Stage::kVertex) {
      src += StrFormat("attribute vec4 %s;\n", in_name_);
      if (whole_draw_) src += "attribute vec2 a_mix;\nvarying vec4 v_in;\n";
    } else {
      src += "varying vec4 v_in;\n";
    }
    src +=
        "uniform float u_s0;\n"
        "uniform float u_s1;\n"
        "uniform vec4 u_v0;\n";
    if (allow_texture()) src += "uniform sampler2D u_tex;\n";
    // 0-2 helper functions, generated before main so calls never recurse.
    const int n_helpers = static_cast<int>(rng_.NextInt(0, 2));
    for (int h = 0; h < n_helpers; ++h) src += GenHelper();
    std::string main_src = GenMain();
    // A share of programs also carry a call chain one frame past the budget
    // behind a condition no lane takes (u_s1 is -1.5 everywhere): its static
    // depth turns inlining off, so the helpers run through kCall/kRet, in
    // step and split. Decided last, so the rest of the program is the one
    // the seed generated without it.
    if (Chance(20)) {
      src += testutil::DeepCallChain(65);
      main_src.insert(std::strlen("void main() {\n"),
                      "  float deep_guard = u_s1 > 1.0 ? deep64(u_s0) : 0.0;\n");
    }
    return src + main_src;
  }

 private:
  struct Var {
    std::string name;
    GType type;
    bool is_array = false;    // float[4]
    bool assignable = true;   // false for loop counters: assigning to one
                              // inside its own loop can defeat the bound
  };

  [[nodiscard]] bool allow_texture() const {
    return !(stage_ == Stage::kVertex && whole_draw_);
  }

  std::string NewName(const char* prefix) {
    return StrFormat("%s%d", prefix, next_id_++);
  }

  [[nodiscard]] bool Chance(int percent) {
    return rng_.NextInt(0, 99) < percent;
  }

  std::string FloatLit() {
    const float v = rng_.NextFloat(-4.0f, 4.0f);
    return StrFormat("(%.5f)", static_cast<double>(v));
  }

  std::vector<const Var*> VarsOf(GType t, bool arrays,
                                 bool assignable_only) const {
    std::vector<const Var*> out;
    for (const Var& v : scope_) {
      if (v.is_array == arrays && v.type == t &&
          (!assignable_only || v.assignable)) {
        out.push_back(&v);
      }
    }
    return out;
  }

  const Var* PickVar(GType t, bool arrays = false,
                     bool assignable_only = false) {
    const auto vars = VarsOf(t, arrays, assignable_only);
    if (vars.empty()) return nullptr;
    return vars[static_cast<std::size_t>(
        rng_.NextInt(0, static_cast<std::int64_t>(vars.size()) - 1))];
  }

  // --- expressions --------------------------------------------------------

  // Index expression for a value with `limit` elements. Sema range-checks
  // bare integer literals at compile time; any other int expression is
  // runtime-clamped (identically by every engine), so out-of-range values
  // are legal — and worth generating — as long as they are not literals.
  std::string GenIndex(int limit, int d) {
    std::string e;
    if (!Chance(40)) e = GenInt(d);
    if (e.empty() ||
        e.find_first_not_of("0123456789") == std::string::npos) {
      return StrFormat("%d", static_cast<int>(rng_.NextInt(0, limit - 1)));
    }
    return e;
  }

  std::string GenFloat(int d) {
    const int c = static_cast<int>(rng_.NextInt(0, d <= 0 ? 4 : 15));
    switch (c) {
      case 0: return FloatLit();
      case 1: {
        static const char* kComp[] = {"x", "y", "z", "w"};
        return StrFormat("%s.%s", in_name_, kComp[rng_.NextInt(0, 3)]);
      }
      case 2: return Chance(50) ? "u_s0" : "u_s1";
      case 3: {
        if (const Var* v = PickVar(GType::kF)) return v->name;
        return FloatLit();
      }
      case 4: {
        // A component of a vector (or an array element / mat2 cell).
        if (const Var* a = PickVar(GType::kF, /*arrays=*/true); a && d > 0) {
          return StrFormat("%s[%s]", a->name.c_str(), GenIndex(4, 1).c_str());
        }
        if (const Var* m = PickVar(GType::kM2)) {
          // RNG-consuming subexpressions are hoisted into named locals
          // everywhere in this generator: function-argument evaluation
          // order is unspecified in C++, and the reproduce-by-seed
          // contract requires the RNG stream to be consumed in one
          // compiler-independent order.
          const int col = static_cast<int>(rng_.NextInt(0, 1));
          const int row = static_cast<int>(rng_.NextInt(0, 1));
          return StrFormat("%s[%d][%d]", m->name.c_str(), col, row);
        }
        static const char* kComp[] = {"x", "y", "z", "w"};
        const GType vt = Chance(50) ? GType::kV3 : GType::kV2;
        if (const Var* v = PickVar(vt)) {
          return StrFormat("%s.%s", v->name.c_str(),
                           kComp[rng_.NextInt(0, VecWidth(vt) - 1)]);
        }
        return StrFormat("%s.%s", in_name_, kComp[rng_.NextInt(0, 3)]);
      }
      case 5:
      case 6:
      case 7: {
        static const char* kOp[] = {"+", "-", "*", "/"};
        const std::string lhs = GenFloat(d - 1);
        const char* op = kOp[rng_.NextInt(0, 3)];
        const std::string rhs = GenFloat(d - 1);
        return StrFormat("(%s %s %s)", lhs.c_str(), op, rhs.c_str());
      }
      case 8:
        return StrFormat("(-%s)", GenFloat(d - 1).c_str());
      case 9: {
        static const char* kFn[] = {"sin",  "cos",   "sqrt",  "abs",
                                    "floor", "fract", "sign",  "ceil",
                                    "exp2",  "log2",  "inversesqrt", "exp",
                                    "log",   "tan",   "radians", "degrees"};
        const char* fn = kFn[rng_.NextInt(0, 15)];
        const std::string arg = GenFloat(d - 1);
        return StrFormat("%s(%s)", fn, arg.c_str());
      }
      case 10: {
        static const char* kFn[] = {"pow", "mod", "min", "max", "atan",
                                    "step", "distance"};
        const char* fn = kFn[rng_.NextInt(0, 6)];
        if (std::strcmp(fn, "distance") == 0) {
          const int w = static_cast<int>(rng_.NextInt(2, 4));
          const std::string a = GenVec(w, d - 1);
          const std::string b = GenVec(w, d - 1);
          return StrFormat("distance(%s, %s)", a.c_str(), b.c_str());
        }
        const std::string a = GenFloat(d - 1);
        const std::string b = GenFloat(d - 1);
        return StrFormat("%s(%s, %s)", fn, a.c_str(), b.c_str());
      }
      case 11: {
        static const char* kFn[] = {"clamp", "mix", "smoothstep"};
        const char* fn = kFn[rng_.NextInt(0, 2)];
        const std::string a = GenFloat(d - 1);
        const std::string b = GenFloat(d - 1);
        const std::string c3 = GenFloat(d - 1);
        return StrFormat("%s(%s, %s, %s)", fn, a.c_str(), b.c_str(),
                         c3.c_str());
      }
      case 12: {
        const int w = static_cast<int>(rng_.NextInt(2, 4));
        if (Chance(50)) {
          return StrFormat("length(%s)", GenVec(w, d - 1).c_str());
        }
        const std::string a = GenVec(w, d - 1);
        const std::string b = GenVec(w, d - 1);
        return StrFormat("dot(%s, %s)", a.c_str(), b.c_str());
      }
      case 13: {
        const std::string cond = GenBool(d - 1);
        const std::string a = GenFloat(d - 1);
        const std::string b = GenFloat(d - 1);
        return StrFormat("(%s ? %s : %s)", cond.c_str(), a.c_str(),
                         b.c_str());
      }
      case 14: {
        if (!helpers_sigs_.empty() && Chance(60)) {
          const std::size_t h = static_cast<std::size_t>(rng_.NextInt(
              0, static_cast<std::int64_t>(helpers_sigs_.size()) - 1));
          const std::string a = GenFloat(d - 1);
          const std::string b = GenVec(3, d - 1);
          return StrFormat("h%zu(%s, %s)", h, a.c_str(), b.c_str());
        }
        return StrFormat("float(%s)", GenInt(d - 1).c_str());
      }
      default: {
        static const char* kComp[] = {"x", "y", "z", "w"};
        const std::string uv = GenVec(2, d - 1);
        const char* comp = kComp[rng_.NextInt(0, 3)];
        if (!allow_texture()) return StrFormat("dot(%s, u_v0.xy)", uv.c_str());
        return StrFormat("texture2D(u_tex, %s).%s", uv.c_str(), comp);
      }
    }
  }

  std::string GenVec(int w, int d) {
    const int c = static_cast<int>(rng_.NextInt(0, d <= 0 ? 2 : 9));
    const GType vt = w == 2 ? GType::kV2 : (w == 3 ? GType::kV3 : GType::kV4);
    switch (c) {
      case 0: {
        // Swizzle of v_in (or a whole vec4 read for w == 4).
        static const char* kSw2[] = {"xy", "zw", "wz", "yx", "xw"};
        static const char* kSw3[] = {"xyz", "wzy", "yzw", "xxw"};
        static const char* kSw4[] = {"wzyx", "xyzw", "yxwz"};
        const char* sw = w == 2   ? kSw2[rng_.NextInt(0, 4)]
                         : w == 3 ? kSw3[rng_.NextInt(0, 3)]
                                  : kSw4[rng_.NextInt(0, 2)];
        const Var* v = PickVar(GType::kV4);
        const char* base = v != nullptr && Chance(60) ? v->name.c_str()
                                                      : in_name_;
        if (w == 4 && Chance(30)) return base;
        return StrFormat("%s.%s", base, sw);
      }
      case 1: {
        if (const Var* v = PickVar(vt)) return v->name;
        return StrFormat("%s(%s)", TypeName(vt), FloatLit().c_str());
      }
      case 2: {
        // Constructor from scalars (the all-float gather path) or a splat.
        if (Chance(30)) {
          return StrFormat("%s(%s)", TypeName(vt), GenFloat(d - 1).c_str());
        }
        std::string s = StrFormat("%s(", TypeName(vt));
        for (int i = 0; i < w; ++i) {
          if (i != 0) s += ", ";
          s += GenFloat(d - 1);
        }
        return s + ")";
      }
      case 3:
      case 4: {
        static const char* kOp[] = {"+", "-", "*", "/"};
        const char* op = kOp[rng_.NextInt(0, 3)];
        const bool broadcast = Chance(35);  // vector op scalar
        const std::string lhs = GenVec(w, d - 1);
        const std::string rhs = broadcast ? GenFloat(d - 1)
                                          : GenVec(w, d - 1);
        return StrFormat("(%s %s %s)", lhs.c_str(), op, rhs.c_str());
      }
      case 5:
        return StrFormat("(-%s)", GenVec(w, d - 1).c_str());
      case 6: {
        static const char* kFn[] = {"normalize", "abs", "floor", "fract",
                                    "sin", "cos", "sqrt", "exp2"};
        const char* fn = kFn[rng_.NextInt(0, 7)];
        const std::string arg = GenVec(w, d - 1);
        return StrFormat("%s(%s)", fn, arg.c_str());
      }
      case 7: {
        if (w == 3 && Chance(30)) {
          const std::string a = GenVec(3, d - 1);
          const std::string b = GenVec(3, d - 1);
          return StrFormat("cross(%s, %s)", a.c_str(), b.c_str());
        }
        static const char* kFn[] = {"min", "max", "pow", "reflect", "mod"};
        const char* fn = kFn[rng_.NextInt(0, 4)];
        const std::string a = GenVec(w, d - 1);
        const std::string b = GenVec(w, d - 1);
        return StrFormat("%s(%s, %s)", fn, a.c_str(), b.c_str());
      }
      case 8: {
        if (Chance(50)) {
          const std::string a = GenVec(w, d - 1);
          const std::string b = GenVec(w, d - 1);
          const std::string t = GenFloat(d - 1);
          return StrFormat("mix(%s, %s, %s)", a.c_str(), b.c_str(),
                           t.c_str());
        }
        const std::string x = GenVec(w, d - 1);
        const std::string lo = GenFloat(d - 1);
        const std::string hi = GenFloat(d - 1);
        return StrFormat("clamp(%s, %s, %s)", x.c_str(), lo.c_str(),
                         hi.c_str());
      }
      default: {
        if (w == 2) {
          if (const Var* m = PickVar(GType::kM2)) {
            return StrFormat("(%s * %s)", m->name.c_str(),
                             GenVec(2, d - 1).c_str());
          }
        }
        if (allow_texture() && w == 4 && Chance(50)) {
          return StrFormat("texture2D(u_tex, %s)", GenVec(2, d - 1).c_str());
        }
        return StrFormat("%s(%s)", TypeName(vt), GenFloat(d - 1).c_str());
      }
    }
  }

  std::string GenInt(int d) {
    const int c = static_cast<int>(rng_.NextInt(0, d <= 0 ? 1 : 5));
    switch (c) {
      case 0: return StrFormat("%d", static_cast<int>(rng_.NextInt(0, 7)));
      case 1: {
        if (const Var* v = PickVar(GType::kI)) return v->name;
        return StrFormat("%d", static_cast<int>(rng_.NextInt(0, 7)));
      }
      case 2:
      case 3: {
        static const char* kOp[] = {"+", "-", "*"};
        const std::string lhs = GenInt(d - 1);
        const char* op = kOp[rng_.NextInt(0, 2)];
        const std::string rhs = GenInt(d - 1);
        return StrFormat("(%s %s %s)", lhs.c_str(), op, rhs.c_str());
      }
      case 4:
        // clamp() maps NaN/inf to the finite range before the int cast.
        return StrFormat("int(clamp(%s, -8.0, 8.0))", GenFloat(d - 1).c_str());
      default: {
        const std::string cond = GenBool(d - 1);
        const std::string a = GenInt(d - 1);
        const std::string b = GenInt(d - 1);
        return StrFormat("(%s ? %s : %s)", cond.c_str(), a.c_str(),
                         b.c_str());
      }
    }
  }

  std::string GenBool(int d) {
    const int c = static_cast<int>(rng_.NextInt(0, d <= 0 ? 1 : 6));
    switch (c) {
      case 0: return Chance(50) ? "true" : "false";
      case 1: {
        if (const Var* v = PickVar(GType::kB)) return v->name;
        static const char* kCmp[] = {"<", ">", "<=", ">="};
        const char* cmp = kCmp[rng_.NextInt(0, 3)];
        const float edge = rng_.NextFloat01();
        return StrFormat("(%s.x %s %.5f)", in_name_, cmp,
                         static_cast<double>(edge));
      }
      case 2: {
        static const char* kCmp[] = {"<", ">", "<=", ">=", "==", "!="};
        const std::string lhs = GenFloat(d - 1);
        const char* cmp = kCmp[rng_.NextInt(0, 5)];
        const std::string rhs = GenFloat(d - 1);
        return StrFormat("(%s %s %s)", lhs.c_str(), cmp, rhs.c_str());
      }
      case 3: {
        static const char* kCmp[] = {"<", ">", "<=", ">=", "==", "!="};
        const std::string lhs = GenInt(d - 1);
        const char* cmp = kCmp[rng_.NextInt(0, 5)];
        const std::string rhs = GenInt(d - 1);
        return StrFormat("(%s %s %s)", lhs.c_str(), cmp, rhs.c_str());
      }
      case 4: {
        const int w = static_cast<int>(rng_.NextInt(2, 4));
        if (Chance(40)) {
          static const char* kRel[] = {"lessThan", "greaterThanEqual",
                                       "notEqual"};
          const char* reduce = Chance(50) ? "any" : "all";
          const char* rel = kRel[rng_.NextInt(0, 2)];
          const std::string a = GenVec(w, d - 1);
          const std::string b = GenVec(w, d - 1);
          return StrFormat("%s(%s(%s, %s))", reduce, rel, a.c_str(),
                           b.c_str());
        }
        const std::string a = GenVec(w, d - 1);
        const char* cmp = Chance(50) ? "==" : "!=";
        const std::string b = GenVec(w, d - 1);
        return StrFormat("(%s %s %s)", a.c_str(), cmp, b.c_str());
      }
      default: {
        static const char* kOp[] = {"&&", "||", "^^"};
        if (Chance(25)) return StrFormat("(!%s)", GenBool(d - 1).c_str());
        const std::string lhs = GenBool(d - 1);
        const char* op = kOp[rng_.NextInt(0, 2)];
        const std::string rhs = GenBool(d - 1);
        return StrFormat("(%s %s %s)", lhs.c_str(), op, rhs.c_str());
      }
    }
  }

  // --- statements ---------------------------------------------------------

  std::string GenExprOf(GType t, int d) {
    switch (t) {
      case GType::kF: return GenFloat(d);
      case GType::kV2: return GenVec(2, d);
      case GType::kV3: return GenVec(3, d);
      case GType::kV4: return GenVec(4, d);
      case GType::kI: return GenInt(d);
      case GType::kB: return GenBool(d);
      case GType::kM2: {
        const std::string a = GenFloat(d - 1);
        const std::string b = GenFloat(d - 1);
        const std::string c = GenFloat(d - 1);
        const std::string e = GenFloat(d - 1);
        return StrFormat("mat2(%s, %s, %s, %s)", a.c_str(), b.c_str(),
                         c.c_str(), e.c_str());
      }
    }
    return GenFloat(d);
  }

  // One statement appended to `out`. `depth` bounds statement nesting,
  // `in_helper` enables early `return`.
  void GenStmt(std::string& out, int depth, bool in_helper) {
    const int c = static_cast<int>(rng_.NextInt(0, depth <= 0 ? 5 : 9));
    switch (c) {
      case 0: case 1: {  // declaration
        static const GType kDeclTypes[] = {GType::kF,  GType::kV2,
                                           GType::kV3, GType::kV4,
                                           GType::kI,  GType::kB,
                                           GType::kM2};
        const GType t = kDeclTypes[rng_.NextInt(0, 6)];
        Var v{NewName("t"), t, false};
        out += StrFormat("  %s %s = %s;\n", TypeName(t), v.name.c_str(),
                         GenExprOf(t, 3).c_str());
        scope_.push_back(v);
        break;
      }
      case 2: case 3: {  // assignment / compound assignment
        static const GType kMut[] = {GType::kF, GType::kV2, GType::kV3,
                                     GType::kV4, GType::kI, GType::kM2};
        const GType t = kMut[rng_.NextInt(0, 5)];
        const Var* v = PickVar(t, /*arrays=*/false, /*assignable_only=*/true);
        if (v == nullptr) {
          Var nv{NewName("t"), GType::kF, false};
          out += StrFormat("  float %s = %s;\n", nv.name.c_str(),
                           GenFloat(3).c_str());
          scope_.push_back(nv);
          break;
        }
        if (t == GType::kI) {
          const char* op = Chance(50) ? "+" : "";
          const std::string rhs = GenInt(2);
          out += StrFormat("  %s %s= %s;\n", v->name.c_str(), op,
                           rhs.c_str());
        } else if (t == GType::kF || t == GType::kM2) {
          const char* op = Chance(40) ? "+" : "";
          const std::string rhs = GenExprOf(t, 3);
          out += StrFormat("  %s %s= %s;\n", v->name.c_str(), op,
                           rhs.c_str());
        } else {
          const int w = VecWidth(t);
          const int kind = static_cast<int>(rng_.NextInt(0, 2));
          if (kind == 0 && w >= 3) {
            // Swizzled store.
            static const char* kSw[] = {"xy", "yz", "xz"};
            const char* sw = kSw[rng_.NextInt(0, 2)];
            const std::string rhs = GenVec(2, 2);
            out += StrFormat("  %s.%s = %s;\n", v->name.c_str(), sw,
                             rhs.c_str());
          } else if (kind == 1) {
            // Dynamic-index store through a ref.
            const std::string idx = GenIndex(w, 2);
            const std::string rhs = GenFloat(2);
            out += StrFormat("  %s[%s] = %s;\n", v->name.c_str(),
                             idx.c_str(), rhs.c_str());
          } else {
            const char* op = Chance(40) ? (Chance(50) ? "+" : "*") : "";
            const std::string rhs = GenVec(w, 3);
            out += StrFormat("  %s %s= %s;\n", v->name.c_str(), op,
                             rhs.c_str());
          }
        }
        break;
      }
      case 4: {  // array block: declare + loop-fill (+ later indexed reads)
        const std::string a = NewName("a");
        const std::string i = NewName("i");
        out += StrFormat("  float %s[4];\n", a.c_str());
        out += StrFormat("  for (int %s = 0; %s < 4; ++%s) { %s[%s] = %s + "
                         "float(%s); }\n",
                         i.c_str(), i.c_str(), i.c_str(), a.c_str(),
                         i.c_str(), GenFloat(2).c_str(), i.c_str());
        scope_.push_back(Var{a, GType::kF, /*is_array=*/true});
        break;
      }
      case 5: {  // if / if-else
        const std::size_t mark = scope_.size();
        std::string body;
        const int n = static_cast<int>(rng_.NextInt(1, 2));
        for (int s = 0; s < n; ++s) GenStmt(body, depth - 1, in_helper);
        scope_.resize(mark);
        out += StrFormat("  if (%s) {\n%s  }", GenBool(2).c_str(),
                         body.c_str());
        if (Chance(50)) {
          std::string ebody;
          for (int s = 0; s < n; ++s) GenStmt(ebody, depth - 1, in_helper);
          scope_.resize(mark);
          out += StrFormat(" else {\n%s  }", ebody.c_str());
        }
        out += "\n";
        break;
      }
      case 6: {  // bounded for loop, fixed or lane-varying trip count
        const std::string i = NewName("i");
        const std::size_t mark = scope_.size();
        scope_.push_back(Var{i, GType::kI, false, /*assignable=*/false});
        std::string body;
        if (Chance(40)) {
          // Lane-varying trip count through a data-dependent break.
          body += StrFormat("    if (%s >= %s) break;\n", i.c_str(),
                            GenInt(2).c_str());
        } else if (Chance(25)) {
          body += StrFormat("    if (%s) continue;\n", GenBool(1).c_str());
        }
        const int n = static_cast<int>(rng_.NextInt(1, 2));
        for (int s = 0; s < n; ++s) GenStmt(body, depth - 1, in_helper);
        scope_.resize(mark);
        out += StrFormat("  for (int %s = 0; %s < %d; ++%s) {\n%s  }\n",
                         i.c_str(), i.c_str(),
                         static_cast<int>(rng_.NextInt(1, 8)), i.c_str(),
                         body.c_str());
        break;
      }
      case 7: {  // lane-divergent discard (rare; fragment-only per sema)
        if (stage_ == Stage::kFragment && Chance(25)) {
          out += StrFormat("  if (%s) discard;\n", GenBool(2).c_str());
        } else {
          out += StrFormat("  %s %s = %s;\n", "float", NewName("t").c_str(),
                           GenFloat(3).c_str());
          scope_.push_back(Var{"t" + std::to_string(next_id_ - 1), GType::kF,
                               false});
        }
        break;
      }
      default: {  // early return inside a helper (rare), else declaration
        if (in_helper && Chance(30)) {
          const std::string cond = GenBool(2);
          const std::string ret = GenFloat(2);
          out += StrFormat("  if (%s) { return %s; }\n", cond.c_str(),
                           ret.c_str());
        } else {
          Var v{NewName("t"), GType::kV3, false};
          out += StrFormat("  vec3 %s = %s;\n", v.name.c_str(),
                           GenVec(3, 3).c_str());
          scope_.push_back(v);
        }
        break;
      }
    }
  }

  std::string GenHelper() {
    const std::size_t idx = helpers_sigs_.size();
    scope_.clear();
    scope_.push_back(Var{"x", GType::kF, false});
    scope_.push_back(Var{"w", GType::kV3, false});
    std::string body;
    const int n = static_cast<int>(rng_.NextInt(1, 3));
    for (int s = 0; s < n; ++s) GenStmt(body, 1, /*in_helper=*/true);
    body += StrFormat("  return %s;\n", GenFloat(3).c_str());
    scope_.clear();
    helpers_sigs_.push_back(idx);
    return StrFormat("float h%zu(float x, vec3 w) {\n%s}\n", idx,
                     body.c_str());
  }

  // A straight-line run of float vector arithmetic: a burst of
  // component-wise +,-,*,/ and float-dense builtins over same-width vector
  // locals, with no control flow in between. These are exactly the
  // statements the SoA batch kernels cover whole, so weighting them into
  // most generated programs keeps those kernels (not just the per-lane
  // paths) under continuous differential pressure.
  void GenVecRun(std::string& out) {
    const int w = static_cast<int>(rng_.NextInt(2, 4));
    const GType t = w == 2 ? GType::kV2 : (w == 3 ? GType::kV3 : GType::kV4);
    // Seed the run with two fresh vectors so every later statement has
    // same-type operands in scope.
    for (int k = 0; k < 2; ++k) {
      Var v{NewName("t"), t, false};
      const std::string init = GenVec(w, 2);
      out += StrFormat("  %s %s = %s;\n", TypeName(t), v.name.c_str(),
                       init.c_str());
      scope_.push_back(v);
    }
    const int n = static_cast<int>(rng_.NextInt(6, 12));
    for (int s = 0; s < n; ++s) {
      const Var* a = PickVar(t);
      // `b` may be assigned below, so it must skip read-only scope entries
      // (the whole-draw vertex mode seeds the attribute a_mix into scope).
      const Var* b = PickVar(t, /*arrays=*/false, /*assignable_only=*/true);
      std::string rhs;
      switch (static_cast<int>(rng_.NextInt(0, 9))) {
        case 0: case 1: case 2: case 3: {
          static const char* kOp[] = {"+", "-", "*", "/"};
          const char* op = kOp[rng_.NextInt(0, 3)];
          rhs = StrFormat("(%s %s %s)", a->name.c_str(), op,
                          b->name.c_str());
          break;
        }
        case 4:
          rhs = StrFormat("min(%s, %s)", a->name.c_str(), b->name.c_str());
          break;
        case 5:
          rhs = StrFormat("max(%s, %s)", a->name.c_str(), b->name.c_str());
          break;
        case 6: {
          const std::string lo = FloatLit();
          const std::string hi = FloatLit();
          rhs = StrFormat("clamp(%s, min(%s, %s), max(%s, %s))",
                          a->name.c_str(), lo.c_str(), hi.c_str(),
                          lo.c_str(), hi.c_str());
          break;
        }
        case 7: {
          const std::string tl = FloatLit();
          rhs = StrFormat("mix(%s, %s, %s)", a->name.c_str(),
                          b->name.c_str(), tl.c_str());
          break;
        }
        case 8: {
          static const char* kFn[] = {"abs", "floor", "fract", "ceil"};
          const char* fn = kFn[rng_.NextInt(0, 3)];
          rhs = StrFormat("%s(%s)", fn, a->name.c_str());
          break;
        }
        default:
          rhs = StrFormat("(normalize(%s) * %s)", a->name.c_str(),
                          FloatLit().c_str());
          break;
      }
      if (Chance(60)) {
        out += StrFormat("  %s = %s;\n", b->name.c_str(), rhs.c_str());
      } else {
        Var v{NewName("t"), t, false};
        out += StrFormat("  %s %s = %s;\n", TypeName(t), v.name.c_str(),
                         rhs.c_str());
        scope_.push_back(v);
      }
    }
  }

  std::string GenMain() {
    scope_.clear();
    if (stage_ == Stage::kVertex && whole_draw_) {
      // The second attribute reads like any vec2 local, but assigning to
      // an attribute is a sema error, so it enters scope read-only.
      scope_.push_back(Var{"a_mix", GType::kV2, /*is_array=*/false,
                           /*assignable=*/false});
    }
    std::string body;
    // Most programs open with a long straight-line vector-arithmetic run
    // (see GenVecRun), and many get a second one after the general
    // statement mix so runs also appear downstream of control flow.
    if (Chance(60)) GenVecRun(body);
    const int n = static_cast<int>(rng_.NextInt(3, 7));
    for (int s = 0; s < n; ++s) GenStmt(body, 2, /*in_helper=*/false);
    if (Chance(35)) GenVecRun(body);
    if (stage_ == Stage::kVertex) {
      if (whole_draw_) {
        // Feed the fragment stage and place the vertex: the position is
        // anchored to a_in so every draw has lane-varying geometry, with a
        // bounded random perturbation (clamp maps NaN/inf identically in
        // every engine).
        body += StrFormat("  v_in = %s;\n", GenVec(4, 3).c_str());
        const std::string px = GenFloat(3);
        const std::string py = GenFloat(3);
        const std::string pz = GenFloat(3);
        body += StrFormat(
            "  gl_Position = vec4(a_in.x + clamp(%s, -0.25, 0.25), "
            "a_in.y + clamp(%s, -0.25, 0.25), clamp(%s, -1.0, 1.0), 1.0);\n",
            px.c_str(), py.c_str(), pz.c_str());
        if (Chance(30)) {
          body += StrFormat("  gl_PointSize = clamp(%s, 1.0, 8.0);\n",
                            GenFloat(2).c_str());
        }
      } else if (Chance(50)) {
        const std::string x = GenFloat(3);
        const std::string y = GenFloat(3);
        const std::string z = GenFloat(3);
        const std::string w = GenFloat(3);
        body += StrFormat("  gl_Position = vec4(%s, %s, %s, %s);\n",
                          x.c_str(), y.c_str(), z.c_str(), w.c_str());
      } else {
        body += StrFormat("  gl_Position = %s;\n", GenVec(4, 3).c_str());
      }
    } else if (Chance(50)) {
      const std::string r = GenFloat(3);
      const std::string g = GenFloat(3);
      const std::string b = GenFloat(3);
      const std::string a = GenFloat(3);
      body += StrFormat("  gl_FragColor = vec4(%s, %s, %s, %s);\n",
                        r.c_str(), g.c_str(), b.c_str(), a.c_str());
    } else {
      body += StrFormat("  gl_FragColor = %s;\n", GenVec(4, 3).c_str());
    }
    return "void main() {\n" + body + "}\n";
  }

  Rng rng_;
  Stage stage_ = Stage::kFragment;
  bool whole_draw_ = false;
  const char* in_name_ = "v_in";
  std::vector<Var> scope_;
  std::vector<std::size_t> helpers_sigs_;
  int next_id_ = 0;
};

// ---------------------------------------------------------------------------
// Three-engine differential runner
// ---------------------------------------------------------------------------

struct LaneRef {
  bool kept = false;
  std::array<std::uint32_t, 4> color{};
  OpCounts delta;  // ops this lane alone spent
};

void ExpectCountsEq(const OpCounts& got, const OpCounts& want,
                    const char* what) {
  EXPECT_EQ(got.alu, want.alu) << what << " alu";
  EXPECT_EQ(got.sfu, want.sfu) << what << " sfu";
  EXPECT_EQ(got.sfu_trans, want.sfu_trans) << what << " sfu_trans";
  EXPECT_EQ(got.tmu, want.tmu) << what << " tmu";
  EXPECT_EQ(got.tmu_miss, want.tmu_miss) << what << " tmu_miss";
}

OpCounts Minus(const OpCounts& a, const OpCounts& b) {
  OpCounts d;
  d.alu = a.alu - b.alu;
  d.sfu = a.sfu - b.sfu;
  d.sfu_trans = a.sfu_trans - b.sfu_trans;
  d.tmu = a.tmu - b.tmu;
  d.tmu_miss = a.tmu_miss - b.tmu_miss;
  return d;
}

template <typename Engine>
void SetUniforms(Engine& e) {
  if (const int s = e.GlobalSlot("u_s0"); s >= 0) {
    e.GlobalAt(s).SetF(0, 0.8125f);
  }
  if (const int s = e.GlobalSlot("u_s1"); s >= 0) {
    e.GlobalAt(s).SetF(0, -1.5f);
  }
  if (const int s = e.GlobalSlot("u_v0"); s >= 0) {
    Value& v = e.GlobalAt(s);
    v.SetF(0, 0.25f);
    v.SetF(1, -0.5f);
    v.SetF(2, 1.5f);
    v.SetF(3, 0.125f);
  }
  if (const int s = e.GlobalSlot("u_tex"); s >= 0) {
    e.GlobalAt(s).SetI(0, 2);
  }
  e.SetTextureFn(
      testutil::PerTexel([](int unit, float s, float t, float lod) {
        return std::array<float, 4>{
            s * 0.5f + static_cast<float>(unit) * 0.125f, t * 0.25f, s + t,
            lod + 0.75f};
      }));
}

// Runs one generated program through all the engines; any mismatch is a
// test failure tagged with the seed. Vertex-stage programs run the
// identical sweep with gl_Position as the compared output (no lane ever
// discards).
// ALU models of the seeded-program sweep: IEEE-exact, the VideoCore IV
// (denormal flush, 23-bit mantissa) and the Mali-400 (denormal flush,
// 10-bit mantissa — RoundSpec's mantissa-rounding branch).
enum class FuzzAlu { kExact, kVc4, kMali400 };

const char* FuzzAluName(FuzzAlu kind) {
  switch (kind) {
    case FuzzAlu::kVc4: return "vc4";
    case FuzzAlu::kMali400: return "mali400";
    default: return "exact";
  }
}

std::unique_ptr<AluModel> MakeFuzzAlu(FuzzAlu kind) {
  switch (kind) {
    case FuzzAlu::kVc4:
      return std::make_unique<vc4::Vc4Alu>(vc4::VideoCoreIV());
    case FuzzAlu::kMali400:
      return std::make_unique<vc4::Vc4Alu>(vc4::Mali400());
    default:
      return std::make_unique<ExactAlu>();
  }
}

void RunFuzzCase(std::uint64_t seed, FuzzAlu kind, Stage stage) {
  GlslFuzzer gen(seed, stage);
  const std::string src = gen.Generate();
  SCOPED_TRACE(StrFormat("seed=%llu alu=%s stage=%s",
                         static_cast<unsigned long long>(seed),
                         FuzzAluName(kind),
                         stage == Stage::kVertex ? "vertex" : "fragment"));

  CompileResult cr = CompileGlsl(src, stage);
  ASSERT_TRUE(cr.ok) << "generated shader failed to compile (seed " << seed
                     << "):\n" << cr.info_log << "\nsource:\n" << src;
  std::shared_ptr<const VmProgram> prog = LowerToBytecode(*cr.shader);

  const std::unique_ptr<AluModel> alu_t_owned = MakeFuzzAlu(kind);
  const std::unique_ptr<AluModel> alu_s_owned = MakeFuzzAlu(kind);
  const std::unique_ptr<AluModel> alu_b_owned = MakeFuzzAlu(kind);
  AluModel& alu_t = *alu_t_owned;
  AluModel& alu_s = *alu_s_owned;
  AluModel& alu_b = *alu_b_owned;

  ShaderExec tree(*cr.shader, alu_t);
  VmExec one_lane(prog, alu_s);
  VmExec batch(prog, alu_b);
  SetUniforms(tree);
  SetUniforms(one_lane);
  SetUniforms(batch);

  const char* out_name =
      stage == Stage::kVertex ? "gl_Position" : "gl_FragColor";
  const int in_slot = one_lane.GlobalSlot("v_in");
  ASSERT_GE(in_slot, 0);
  const int color_slot = one_lane.GlobalSlot(out_name);
  ASSERT_GE(color_slot, 0);
  const int tree_in = tree.GlobalSlot("v_in");
  const int tree_color = tree.GlobalSlot(out_name);

  // Deterministic per-lane inputs; a fresh sub-seed per program so the lane
  // data co-varies with the program shape.
  Rng lane_rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::array<std::array<float, 4>, kVmLanes> lane_in;
  for (auto& lane : lane_in) {
    for (float& f : lane) f = lane_rng.NextFloat01();
  }

  // One-lane references: tree walk and the one-lane VM, fragment-
  // sequential, with per-lane count deltas (prefix sums give the expected
  // totals for every batch tail size).
  std::array<LaneRef, kVmLanes> ref;
  alu_t.ResetCounts();
  alu_s.ResetCounts();
  const PlaneDst sv = one_lane.LaneGlobal(in_slot);
  const PlaneDst sc = one_lane.LaneGlobal(color_slot);
  try {
    for (int l = 0; l < kVmLanes; ++l) {
      const OpCounts before_t = alu_t.counts();
      const OpCounts before_s = alu_s.counts();
      Value& tv = tree.GlobalAt(tree_in);
      for (int k = 0; k < 4; ++k) {
        tv.SetF(k, lane_in[static_cast<std::size_t>(l)]
                          [static_cast<std::size_t>(k)]);
        sv.at(k, 0).f = lane_in[static_cast<std::size_t>(l)]
                               [static_cast<std::size_t>(k)];
      }
      const bool tree_kept = tree.Run();
      LaneRef& r = ref[static_cast<std::size_t>(l)];
      r.kept = one_lane.RunBatch(1) != 0;
      r.delta = Minus(alu_s.counts(), before_s);

      // Tree oracle vs one-lane VM, per lane.
      EXPECT_EQ(tree_kept, r.kept) << "lane " << l << " discard (tree vs vm)";
      const Value& tc = tree.GlobalAt(tree_color);
      for (int k = 0; k < 4; ++k) {
        r.color[static_cast<std::size_t>(k)] = FloatToBits(sc.at(k, 0).f);
        if (r.kept) {
          EXPECT_EQ(FloatToBits(tc.F(k)), FloatToBits(sc.at(k, 0).f))
              << "lane " << l << " comp " << k << " (tree vs vm)";
        }
      }
      ExpectCountsEq(Minus(alu_t.counts(), before_t), r.delta,
                     "tree vs vm lane");
    }
  } catch (const ShaderRuntimeError& e) {
    FAIL() << "one-lane engines threw (seed " << seed << "): " << e.what()
           << "\nsource:\n" << src;
  }

  // The batched engine at every tail size, against the one-lane per-lane
  // references.
  auto check_tails = [&](VmExec& eng, AluModel& alu_e, const char* what) {
    for (int n = 1; n <= kVmLanes; ++n) {
      SCOPED_TRACE(StrFormat("%s tail=%d", what, n));
      alu_e.ResetCounts();
      const PlaneDst in = eng.LaneGlobal(in_slot);
      for (int l = 0; l < n; ++l) {
        for (int k = 0; k < 4; ++k) {
          in.at(k, l).f = lane_in[static_cast<std::size_t>(l)]
                                 [static_cast<std::size_t>(k)];
        }
      }
      std::uint32_t kept = 0;
      try {
        kept = eng.RunBatch(n);
      } catch (const ShaderRuntimeError& e) {
        FAIL() << what << " engine threw (seed " << seed << "): " << e.what()
               << "\nsource:\n" << src;
      }
      OpCounts want;
      for (int l = 0; l < n; ++l) {
        want += ref[static_cast<std::size_t>(l)].delta;
      }
      const PlaneDst color = eng.LaneGlobal(color_slot);
      for (int l = 0; l < n; ++l) {
        const LaneRef& r = ref[static_cast<std::size_t>(l)];
        EXPECT_EQ(((kept >> static_cast<unsigned>(l)) & 1u) != 0, r.kept)
            << "lane " << l << " discard (" << what << ")";
        if (!r.kept) continue;
        for (int k = 0; k < 4; ++k) {
          EXPECT_EQ(FloatToBits(color.at(k, l).f),
                    r.color[static_cast<std::size_t>(k)])
              << "lane " << l << " comp " << k << " (" << what << ")";
        }
      }
      ExpectCountsEq(alu_e.counts(), want, what);
    }
  };
  check_tails(batch, alu_b, "batch vs vm");
}

void RunFuzzSweep(FuzzAlu kind, Stage stage, std::uint64_t seed_base) {
  for (int i = 0; i < g_fuzz_iters; ++i) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    RunFuzzCase(seed, kind, stage);
    if (::testing::Test::HasFailure()) {
      // Stop at the first failing seed and log everything needed to
      // reproduce it: the seed drives both the program generator and the
      // per-lane inputs, so one integer replays the whole case.
      GlslFuzzer gen(seed, stage);
      std::fprintf(stderr,
                   "[fuzz] FAILURE seed=%llu (%s alu, %s stage) — "
                   "source:\n%s\n",
                   static_cast<unsigned long long>(seed),
                   FuzzAluName(kind),
                   stage == Stage::kVertex ? "vertex" : "fragment",
                   gen.Generate().c_str());
      FAIL() << "fuzz differential failed at seed " << seed
             << " (iteration " << i << " of " << g_fuzz_iters << ")";
    }
  }
}

constexpr std::uint64_t kFragSeedBase = 20260727;
constexpr std::uint64_t kVertSeedBase = 20260815;

TEST(VmFuzzDifferentialTest, SeededProgramsExactAlu) {
  RunFuzzSweep(FuzzAlu::kExact, Stage::kFragment, kFragSeedBase);
}

TEST(VmFuzzDifferentialTest, SeededProgramsVc4Alu) {
  RunFuzzSweep(FuzzAlu::kVc4, Stage::kFragment, kFragSeedBase);
}

TEST(VmFuzzDifferentialTest, SeededProgramsMali400Alu) {
  RunFuzzSweep(FuzzAlu::kMali400, Stage::kFragment, kFragSeedBase);
}

// The vertex corpus through the same three-engine, every-tail sweep: this is
// the VM-level half of the vertex-batching lockdown (the whole-draw corpus
// below covers the gles2 gather/scatter plumbing around it).
TEST(VmFuzzDifferentialTest, SeededVertexProgramsExactAlu) {
  RunFuzzSweep(FuzzAlu::kExact, Stage::kVertex, kVertSeedBase);
}

TEST(VmFuzzDifferentialTest, SeededVertexProgramsVc4Alu) {
  RunFuzzSweep(FuzzAlu::kVc4, Stage::kVertex, kVertSeedBase);
}

// ---------------------------------------------------------------------------
// Trap parity: budget-exceeding and trapping programs
// ---------------------------------------------------------------------------
//
// The robustness counterpart of the differential sweep above: a seeded
// generator emits programs whose LANES diverge on whether they trap —
// loop-budget exhaustion under a deliberately tiny SetLoopBudget, and calls
// to a declared-but-undefined function behind a lane-varying condition. All
// three engines must agree per lane on trap-vs-complete AND on the exact
// trap message, and the batched VM must attribute its trap to the smallest
// trapping lane index at every tail size 1..kVmLanes (the first fragment a
// one-lane engine would have trapped on). Tails whose lanes all complete fall
// through to the usual color/discard/op-count byte comparison, so the trap
// machinery is also shown not to perturb clean lanes.

struct TrapProgram {
  std::string src;
  std::uint64_t budget;  // loop budget installed on all three engines
};

// Deterministic trappy-program generator. Four shapes:
//   0: lane-varying loop trip count, tiny budget (some lanes exhaust it)
//   1: same loop plus an undefined call behind a lane-varying condition
//   2: no loop; undefined call behind a lane-varying condition (the
//      diverged phase, trap only — generous budget)
//   3: uniform control flow that traps every lane identically (an
//      unconditional undefined call, or a uniform loop longer than the
//      budget) — every lane traps in the converged phase, attributed to
//      lane 0
TrapProgram GenTrapProgram(std::uint64_t seed) {
  Rng rng(seed);
  static const char* kComp[] = {"x", "y", "z", "w"};
  const int kind = static_cast<int>(rng.NextInt(0, 99));
  const char* c0 = kComp[rng.NextInt(0, 3)];
  const char* c1 = kComp[rng.NextInt(0, 3)];
  const int trip_scale = static_cast<int>(rng.NextInt(8, 64));
  const float thresh = rng.NextFloat(0.15f, 0.85f);

  TrapProgram out;
  std::string body = "  float acc = u_s0;\n";
  bool declare_poison = false;
  if (kind < 70) {  // shapes 0 (40%) and 1 (30%): lane-varying loop
    body += StrFormat(
        "  int n = int(clamp(v_in.%s * %d.0, 0.0, 63.0));\n"
        "  for (int i = 0; i < 64; ++i) {\n"
        "    if (i >= n) break;\n"
        "    acc += fract(acc * 1.3) + 0.0625;\n"
        "  }\n",
        c0, trip_scale);
    out.budget = static_cast<std::uint64_t>(rng.NextInt(4, 96));
    if (kind >= 40) {  // shape 1: also a divergent undefined call
      declare_poison = true;
      body += StrFormat("  if (v_in.%s > %.5f) { acc += poison(acc); }\n",
                        c1, static_cast<double>(thresh));
    }
  } else if (kind < 85) {  // shape 2: divergent undefined call only
    declare_poison = true;
    out.budget = 1u << 20;
    body += StrFormat("  if (v_in.%s > %.5f) { acc += poison(acc); }\n",
                      c1, static_cast<double>(thresh));
  } else {  // shape 3: uniform trap — every lane trips identically
    if (rng.NextInt(0, 1) == 0) {
      declare_poison = true;
      out.budget = 1u << 20;
      body += "  acc += poison(acc);\n";
    } else {
      // Uniform loop with more iterations than the budget allows.
      out.budget = static_cast<std::uint64_t>(rng.NextInt(1, 30));
      body +=
          "  for (int i = 0; i < 64; ++i) {\n"
          "    acc += fract(acc * 1.3) + 0.0625;\n"
          "  }\n";
    }
  }
  body += "  gl_FragColor = vec4(acc * 0.015625, v_in.y, v_in.z, 1.0);\n";

  out.src =
      "precision highp float;\n"
      "varying vec4 v_in;\n"
      "uniform float u_s0;\n";
  if (declare_poison) out.src += "float poison(float x);\n";
  out.src += "void main() {\n" + body + "}\n";
  return out;
}

struct TrapLaneRef {
  bool trapped = false;
  std::string message;                   // valid when trapped
  bool kept = false;                     // valid when !trapped
  std::array<std::uint32_t, 4> color{};  // valid when !trapped
  OpCounts delta;                        // valid when !trapped
};

// Runs one trappy program through all three engines and asserts per-lane
// trap parity plus min-trapping-lane attribution at every batch tail.
// Increments *trap_lanes / *clean_lanes so the sweep can assert the seeded
// corpus actually produced both outcomes.
// `seed` also drives the per-lane inputs.
void RunTrapParityCase(const TrapProgram& tp, std::uint64_t seed,
                       bool vc4_alu, int* trap_lanes, int* clean_lanes) {
  SCOPED_TRACE(StrFormat("trap seed=%llu alu=%s budget=%llu",
                         static_cast<unsigned long long>(seed),
                         vc4_alu ? "vc4" : "exact",
                         static_cast<unsigned long long>(tp.budget)));

  CompileResult cr = CompileGlsl(tp.src, Stage::kFragment);
  ASSERT_TRUE(cr.ok) << "trap shader failed to compile (seed " << seed
                     << "):\n" << cr.info_log << "\nsource:\n" << tp.src;
  std::shared_ptr<const VmProgram> prog = LowerToBytecode(*cr.shader);

  const vc4::GpuProfile profile = vc4::VideoCoreIV();
  ExactAlu exact_t, exact_s, exact_b;
  vc4::Vc4Alu vc4_t(profile), vc4_s(profile), vc4_b(profile);
  AluModel& alu_t = vc4_alu ? static_cast<AluModel&>(vc4_t) : exact_t;
  AluModel& alu_s = vc4_alu ? static_cast<AluModel&>(vc4_s) : exact_s;
  AluModel& alu_b = vc4_alu ? static_cast<AluModel&>(vc4_b) : exact_b;

  ShaderExec tree(*cr.shader, alu_t);
  VmExec one_lane(prog, alu_s);
  VmExec batch(prog, alu_b);
  tree.SetLoopBudget(tp.budget);
  one_lane.SetLoopBudget(tp.budget);
  batch.SetLoopBudget(tp.budget);
  SetUniforms(tree);
  SetUniforms(one_lane);
  SetUniforms(batch);

  const int in_slot = one_lane.GlobalSlot("v_in");
  ASSERT_GE(in_slot, 0);
  const int color_slot = one_lane.GlobalSlot("gl_FragColor");
  ASSERT_GE(color_slot, 0);
  const int tree_in = tree.GlobalSlot("v_in");
  const int tree_color = tree.GlobalSlot("gl_FragColor");

  Rng lane_rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::array<std::array<float, 4>, kVmLanes> lane_in;
  for (auto& lane : lane_in) {
    for (float& f : lane) f = lane_rng.NextFloat01();
  }

  // One-lane references: both per-invocation engines, per lane, recording
  // trap-vs-complete and the message. A trapped run must leave the engine
  // reusable for the next lane (loop/call-depth state resets per run).
  std::array<TrapLaneRef, kVmLanes> ref;
  const PlaneDst sv = one_lane.LaneGlobal(in_slot);
  const PlaneDst sc = one_lane.LaneGlobal(color_slot);
  for (int l = 0; l < kVmLanes; ++l) {
    Value& tv = tree.GlobalAt(tree_in);
    for (int k = 0; k < 4; ++k) {
      tv.SetF(k, lane_in[static_cast<std::size_t>(l)]
                        [static_cast<std::size_t>(k)]);
      sv.at(k, 0).f = lane_in[static_cast<std::size_t>(l)]
                             [static_cast<std::size_t>(k)];
    }
    bool tree_trapped = false;
    bool tree_kept = false;
    std::string tree_msg;
    try {
      tree_kept = tree.Run();
    } catch (const ShaderRuntimeError& e) {
      tree_trapped = true;
      tree_msg = e.what();
      EXPECT_EQ(e.lane, -1) << "scalar tree trap carries no lane";
    }
    TrapLaneRef& r = ref[static_cast<std::size_t>(l)];
    const OpCounts before_s = alu_s.counts();
    try {
      r.kept = one_lane.RunBatch(1) != 0;
    } catch (const ShaderRuntimeError& e) {
      r.trapped = true;
      r.message = e.what();
      EXPECT_EQ(e.lane, 0) << "one-lane vm trap is attributed to lane 0";
    }
    EXPECT_EQ(tree_trapped, r.trapped)
        << "lane " << l << " trap-vs-complete (tree vs vm)";
    if (r.trapped) {
      ++*trap_lanes;
      if (tree_trapped) {
        EXPECT_EQ(tree_msg, r.message)
            << "lane " << l << " trap message (tree vs vm)";
      }
      continue;
    }
    ++*clean_lanes;
    r.delta = Minus(alu_s.counts(), before_s);
    EXPECT_EQ(tree_kept, r.kept) << "lane " << l << " discard (tree vs vm)";
    const Value& tc = tree.GlobalAt(tree_color);
    for (int k = 0; k < 4; ++k) {
      r.color[static_cast<std::size_t>(k)] = FloatToBits(sc.at(k, 0).f);
      if (r.kept) {
        EXPECT_EQ(FloatToBits(tc.F(k)), FloatToBits(sc.at(k, 0).f))
            << "lane " << l << " comp " << k << " (tree vs vm)";
      }
    }
  }

  // The batched engine at every tail: must throw iff some lane < n
  // trapped one lane wide, attributing the min trapping lane and its exact
  // message; trap-free tails must stay byte-identical to the one-lane
  // references.
  auto check_tails = [&](VmExec& eng, AluModel& alu_e, const char* what) {
    for (int n = 1; n <= kVmLanes; ++n) {
      SCOPED_TRACE(StrFormat("%s tail=%d", what, n));
      int min_trap = -1;
      for (int l = 0; l < n; ++l) {
        if (ref[static_cast<std::size_t>(l)].trapped) {
          min_trap = l;
          break;
        }
      }
      const PlaneDst in = eng.LaneGlobal(in_slot);
      for (int l = 0; l < n; ++l) {
        for (int k = 0; k < 4; ++k) {
          in.at(k, l).f = lane_in[static_cast<std::size_t>(l)]
                                 [static_cast<std::size_t>(k)];
        }
      }
      alu_e.ResetCounts();
      try {
        const std::uint32_t kept = eng.RunBatch(n);
        EXPECT_EQ(min_trap, -1)
            << what << " completed but one-lane engines trapped at lane "
            << min_trap;
        if (min_trap != -1) continue;
        OpCounts want;
        for (int l = 0; l < n; ++l) {
          want += ref[static_cast<std::size_t>(l)].delta;
        }
        const PlaneDst color = eng.LaneGlobal(color_slot);
        for (int l = 0; l < n; ++l) {
          const TrapLaneRef& r = ref[static_cast<std::size_t>(l)];
          EXPECT_EQ(((kept >> static_cast<unsigned>(l)) & 1u) != 0, r.kept)
              << "lane " << l << " discard (" << what << ")";
          if (!r.kept) continue;
          for (int k = 0; k < 4; ++k) {
            EXPECT_EQ(FloatToBits(color.at(k, l).f),
                      r.color[static_cast<std::size_t>(k)])
                << "lane " << l << " comp " << k << " (" << what << ")";
          }
        }
        ExpectCountsEq(alu_e.counts(), want, what);
      } catch (const ShaderRuntimeError& e) {
        if (min_trap == -1) {
          ADD_FAILURE() << what << " trapped but no one-lane run did: "
                        << e.what();
          continue;
        }
        EXPECT_EQ(e.lane, min_trap) << what << " trap lane attribution";
        EXPECT_EQ(std::string(e.what()),
                  ref[static_cast<std::size_t>(min_trap)].message)
            << what << " trap message (expected min trapping lane's)";
      }
    }
  };
  check_tails(batch, alu_b, "batch vs vm");
}

void RunTrapParitySweep(bool vc4_alu) {
  constexpr std::uint64_t kTrapSeedBase = 20260808;
  int trap_lanes = 0;
  int clean_lanes = 0;
  for (int i = 0; i < g_fuzz_iters; ++i) {
    const std::uint64_t seed = kTrapSeedBase + static_cast<std::uint64_t>(i);
    RunTrapParityCase(GenTrapProgram(seed), seed, vc4_alu, &trap_lanes,
                      &clean_lanes);
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "[trap-parity] FAILURE seed=%llu (%s alu, budget=%llu) — "
                   "source:\n%s\n",
                   static_cast<unsigned long long>(seed),
                   vc4_alu ? "vc4" : "exact",
                   static_cast<unsigned long long>(GenTrapProgram(seed).budget),
                   GenTrapProgram(seed).src.c_str());
      FAIL() << "trap parity failed at seed " << seed << " (iteration " << i
             << " of " << g_fuzz_iters << ")";
    }
  }
  // The corpus is only meaningful if it actually mixes outcomes: some lanes
  // must trap and some must complete across the sweep (guarded so a tiny
  // --fuzz_iters smoke run cannot fail spuriously).
  if (g_fuzz_iters >= 10) {
    EXPECT_GT(trap_lanes, 0) << "trap corpus produced no trapping lane";
    EXPECT_GT(clean_lanes, 0) << "trap corpus produced no completing lane";
  }
}

TEST(VmTrapParityTest, SeededTrapProgramsExactAlu) {
  RunTrapParitySweep(/*vc4_alu=*/false);
}

TEST(VmTrapParityTest, SeededTrapProgramsVc4Alu) {
  RunTrapParitySweep(/*vc4_alu=*/true);
}

// Call-depth traps: main enters a chain of 65 nested user calls, one past
// the frame budget, so the lowerer keeps every call as kCall/kRet and the
// innermost call traps. With the chain before main, the lanes that take a
// lane-varying branch into it trap while the others wait at the join; with
// the chain after main, the other lanes finish first and the calling lanes
// trap on their own; an unconditional call traps every lane at once.
TEST(VmTrapParityTest, CallDepthTrapsInSomeOrAllLanes) {
  const std::string head =
      "precision highp float;\n"
      "varying vec4 v_in;\n"
      "uniform float u_s0;\n";
  const std::string chain = testutil::DeepCallChain(65);
  const auto main_calling = [](const char* call) {
    return StrFormat(
        "void main() {\n"
        "  float acc = u_s0 + v_in.x;\n"
        "  %s\n"
        "  gl_FragColor = vec4(acc, v_in.y, v_in.z, 1.0);\n"
        "}\n",
        call);
  };
  const char* some = "if (v_in.y > 0.5) { acc = deep64(acc); }";
  const std::vector<TrapProgram> programs = {
      {head + chain + main_calling(some), 1u << 20},
      {head + "float deep64(float x);\n" + main_calling(some) + chain,
       1u << 20},
      {head + chain + main_calling("acc = deep64(acc);"), 1u << 20},
  };
  for (std::size_t i = 0; i < programs.size(); ++i) {
    int trap_lanes = 0;
    int clean_lanes = 0;
    RunTrapParityCase(programs[i], 20261017 + i, /*vc4_alu=*/false,
                      &trap_lanes, &clean_lanes);
    EXPECT_GT(trap_lanes, 0) << "program " << i;
    if (i < 2) {
      EXPECT_GT(clean_lanes, 0) << "program " << i;
    }
  }
}

// The kVmInstruction fault site fires at a loop guard. Lane 0 leaves the loop
// in its first iteration and the other lanes keep looping, so the first
// guard runs with every lane in step and each later guard only with lanes
// 1.. — an injected trap there is attributed to the smallest lane the guard
// ran for, and after disarming the same engine shades the batch cleanly.
TEST(VmTrapParityTest, InjectedLoopGuardTrapInEachPhase) {
  CompileResult cr = CompileGlsl(R"(precision highp float;
varying vec4 v_in;
void main() {
  float acc = 0.0;
  for (int i = 0; i < 8; ++i) {
    if (float(i) >= v_in.x * 8.0) break;
    acc += v_in.y;
  }
  gl_FragColor = vec4(acc, v_in.y, 0.0, 1.0);
})",
                                 Stage::kFragment);
  ASSERT_TRUE(cr.ok) << cr.info_log;
  ExactAlu alu;
  VmExec batch(LowerToBytecode(*cr.shader), alu);
  const int in_slot = batch.GlobalSlot("v_in");
  const int color_slot = batch.GlobalSlot("gl_FragColor");
  const PlaneDst in = batch.LaneGlobal(in_slot);
  for (int l = 0; l < kVmLanes; ++l) {
    in.at(0, l).f = l == 0 ? 0.0f : 1.0f;
    in.at(1, l).f = 0.25f * static_cast<float>(l);
  }
  fault::Arm(fault::Site::kVmInstruction, ~0ull);
  ASSERT_EQ(batch.RunBatch(kVmLanes), ~0u);
  const std::uint64_t guards = fault::Hits(fault::Site::kVmInstruction);
  ASSERT_EQ(guards, 9u);  // lanes 1.. run eight iterations and the exit test
  for (std::uint64_t nth = 0; nth < guards; ++nth) {
    SCOPED_TRACE(StrFormat("nth=%llu", static_cast<unsigned long long>(nth)));
    fault::Arm(fault::Site::kVmInstruction, nth);
    try {
      (void)batch.RunBatch(kVmLanes);
      ADD_FAILURE() << "armed loop guard did not trap";
    } catch (const ShaderRuntimeError& e) {
      EXPECT_EQ(e.lane, nth == 0 ? 0 : 1);
      EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos)
          << e.what();
    }
  }
  fault::DisarmAll();
  ASSERT_EQ(batch.RunBatch(kVmLanes), ~0u);
  const PlaneDst color = batch.LaneGlobal(color_slot);
  EXPECT_EQ(color.at(0, 0).f, 0.0f);
  for (int l = 1; l < kVmLanes; ++l) {
    EXPECT_EQ(color.at(0, l).f, 8.0f * 0.25f * static_cast<float>(l))
        << "lane " << l;
  }
}

}  // namespace
}  // namespace mgpu::glsl

// ---------------------------------------------------------------------------
// Whole-draw three-engine differentials
// ---------------------------------------------------------------------------
//
// The VM-level sweeps above prove engine agreement for one stage in
// isolation. The whole-draw corpus closes the loop: a seeded (vertex
// shader, fragment shader, attribute buffer) triple is drawn through a
// real gles2::Context — attribute decode for every GL type (normalized and
// not, strided and tight, buffer-object and client-pointer), varying
// interpolation, point sprites, the depth test and the TMU cache model —
// and the framebuffer bytes, ALU/SFU/TMU totals and error state must be
// byte-identical across kTreeWalk / kBytecodeVm / kBatchedVm and at more
// than one fragment worker count. The reference leg is the bytecode VM,
// which runs the shared vertex stage and fragment flush one lane at a
// time, so every other configuration — including the batched engine's
// 32-lane vertex chunks — is measured against per-vertex, per-fragment
// reference semantics.

namespace mgpu::gles2 {
namespace {

using glsl::ExactAlu;
using glsl::ExpectCountsEq;
using glsl::GlslFuzzer;
using glsl::OpCounts;
using glsl::Stage;

constexpr int kDrawW = 48;
constexpr int kDrawH = 48;

struct DrawScene {
  std::string vs;
  std::string fs;
  int tri_verts = 0;    // GL_TRIANGLES draw over vertices [0, tri_verts)
  int point_verts = 0;  // GL_POINTS draw over [tri_verts, total)
  int threads = 1;
  bool use_buffers = false;  // buffer objects vs client pointers
  bool short_vbo = false;    // a_in's buffer store one vertex short
  bool mix_enabled = true;   // a_mix as array vs constant attribute
  GLenum mix_type = GL_FLOAT;
  bool mix_normalized = false;
  int mix_stride = 0;  // bytes as passed to VertexAttribPointer; 0 = tight
  std::vector<float> a_in;          // 4 floats per vertex
  std::vector<std::uint8_t> a_mix;  // strided raw bytes, 2 components
};

int MixElemSize(GLenum type) {
  switch (type) {
    case GL_FLOAT: return 4;
    case GL_SHORT: case GL_UNSIGNED_SHORT: return 2;
    default: return 1;
  }
}

int MixRowBytes(const DrawScene& sc) {
  return sc.mix_stride != 0 ? sc.mix_stride : 2 * MixElemSize(sc.mix_type);
}

// The scene — both shader sources, the draw shape and every attribute byte
// — is a pure function of the seed, so each engine leg replays bit-equal
// inputs from its own fresh context.
DrawScene GenDrawScene(std::uint64_t seed) {
  DrawScene sc;
  sc.vs = GlslFuzzer(seed * 2 + 1, Stage::kVertex, /*whole_draw=*/true)
              .Generate();
  sc.fs = GlslFuzzer(seed * 2 + 2).Generate();
  Rng rng(seed ^ 0xd1cefacedull);
  // 3..90 triangle vertices and 1..40 points: chunk counts above and below
  // kVmLanes, every residue of batch tail across the sweep, and a nonzero
  // `first` for the point draw.
  sc.tri_verts = 3 * static_cast<int>(rng.NextInt(1, 30));
  sc.point_verts = static_cast<int>(rng.NextInt(1, 40));
  sc.threads = rng.NextInt(0, 1) == 0 ? 1 : 3;
  sc.use_buffers = rng.NextInt(0, 1) == 0;
  sc.mix_enabled = rng.NextInt(0, 99) < 80;
  static const GLenum kTypes[] = {GL_FLOAT, GL_BYTE, GL_UNSIGNED_BYTE,
                                  GL_SHORT, GL_UNSIGNED_SHORT};
  sc.mix_type = kTypes[rng.NextInt(0, 4)];
  sc.mix_normalized = rng.NextInt(0, 1) == 1;
  const int tight = 2 * MixElemSize(sc.mix_type);
  sc.mix_stride = rng.NextInt(0, 1) == 0
                      ? 0
                      : tight + static_cast<int>(rng.NextInt(1, 6));
  const int total = sc.tri_verts + sc.point_verts;
  sc.a_in.resize(static_cast<std::size_t>(total) * 4);
  for (float& f : sc.a_in) f = rng.NextFloat(-1.4f, 1.4f);
  const int row = MixRowBytes(sc);
  sc.a_mix.resize(static_cast<std::size_t>(total) *
                  static_cast<std::size_t>(row));
  if (sc.mix_type == GL_FLOAT) {
    for (int v = 0; v < total; ++v) {
      for (int c = 0; c < 2; ++c) {
        const float f = rng.NextFloat(-2.0f, 2.0f);
        std::memcpy(sc.a_mix.data() + v * row + c * 4, &f, 4);
      }
    }
  } else {
    // Any bit pattern is a valid integer attribute; random bytes cover the
    // whole normalized/unnormalized decode range.
    for (std::uint8_t& b : sc.a_mix) {
      b = static_cast<std::uint8_t>(rng.NextInt(0, 255));
    }
  }
  return sc;
}

struct DrawOutcome {
  std::vector<std::uint8_t> fb;
  OpCounts counts;
  GLenum err = GL_NO_ERROR;
  GLenum reset = GL_NO_ERROR;
  std::string draw_error;
};

DrawOutcome RunWholeDraw(const DrawScene& sc, ExecEngine engine,
                         bool vc4_alu, std::uint64_t draw_budget) {
  ContextConfig cfg;
  cfg.width = kDrawW;
  cfg.height = kDrawH;
  cfg.exec_engine = engine;
  cfg.shader_threads = sc.threads;
  cfg.draw_budget = draw_budget;
  const vc4::GpuProfile profile = vc4::VideoCoreIV();
  ExactAlu exact;
  vc4::Vc4Alu vc4a(profile);
  glsl::AluModel& alu = vc4_alu ? static_cast<glsl::AluModel&>(vc4a) : exact;
  Context ctx(cfg, &alu);

  // Deterministic NPOT texture for the fragment stage's u_tex.
  GLuint tex = 0;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  std::vector<std::uint8_t> img(19 * 13 * 4);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::uint8_t>((i * 31 + 7) & 0xff);
  }
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 19, 13, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, img.data());
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_S, GL_CLAMP_TO_EDGE);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_T, GL_CLAMP_TO_EDGE);

  const GLuint prog = testutil::BuildProgramOrDie(ctx, sc.vs, sc.fs);
  ctx.UseProgram(prog);
  if (const GLint u = ctx.GetUniformLocation(prog, "u_s0"); u >= 0) {
    ctx.Uniform1f(u, 0.8125f);
  }
  if (const GLint u = ctx.GetUniformLocation(prog, "u_s1"); u >= 0) {
    ctx.Uniform1f(u, -1.5f);
  }
  if (const GLint u = ctx.GetUniformLocation(prog, "u_v0"); u >= 0) {
    ctx.Uniform4f(u, 0.25f, -0.5f, 1.5f, 0.125f);
  }
  if (const GLint u = ctx.GetUniformLocation(prog, "u_tex"); u >= 0) {
    ctx.Uniform1i(u, 0);
  }

  const GLint in_loc = ctx.GetAttribLocation(prog, "a_in");
  const GLint mix_loc = ctx.GetAttribLocation(prog, "a_mix");
  GLuint bufs[2] = {0, 0};
  if (sc.use_buffers) ctx.GenBuffers(2, bufs);
  if (in_loc >= 0) {
    const GLuint loc = static_cast<GLuint>(in_loc);
    ctx.EnableVertexAttribArray(loc);
    if (sc.use_buffers) {
      const std::size_t floats = sc.a_in.size() - (sc.short_vbo ? 4 : 0);
      ctx.BindBuffer(GL_ARRAY_BUFFER, bufs[0]);
      ctx.BufferData(GL_ARRAY_BUFFER,
                     static_cast<GLsizeiptr>(floats * sizeof(float)),
                     sc.a_in.data(), GL_STATIC_DRAW);
      ctx.VertexAttribPointer(loc, 4, GL_FLOAT, GL_FALSE, 0, nullptr);
      ctx.BindBuffer(GL_ARRAY_BUFFER, 0);
    } else {
      ctx.VertexAttribPointer(loc, 4, GL_FLOAT, GL_FALSE, 0, sc.a_in.data());
    }
  }
  if (mix_loc >= 0) {
    const GLuint loc = static_cast<GLuint>(mix_loc);
    if (!sc.mix_enabled) {
      // Disabled array: the constant-attribute fill path.
      ctx.VertexAttrib4f(loc, 0.3f, -0.7f, 0.0f, 1.0f);
    } else {
      ctx.EnableVertexAttribArray(loc);
      const GLboolean norm = sc.mix_normalized ? GL_TRUE : GL_FALSE;
      if (sc.use_buffers) {
        ctx.BindBuffer(GL_ARRAY_BUFFER, bufs[1]);
        ctx.BufferData(GL_ARRAY_BUFFER,
                       static_cast<GLsizeiptr>(sc.a_mix.size()),
                       sc.a_mix.data(), GL_STATIC_DRAW);
        ctx.VertexAttribPointer(loc, 2, sc.mix_type, norm, sc.mix_stride,
                                nullptr);
        ctx.BindBuffer(GL_ARRAY_BUFFER, 0);
      } else {
        ctx.VertexAttribPointer(loc, 2, sc.mix_type, norm, sc.mix_stride,
                                sc.a_mix.data());
      }
    }
  }

  ctx.ClearColor(0.06f, 0.12f, 0.25f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT);
  ctx.DrawArrays(GL_TRIANGLES, 0, sc.tri_verts);
  if (sc.point_verts > 0) {
    ctx.DrawArrays(GL_POINTS, sc.tri_verts, sc.point_verts);
  }

  DrawOutcome out;
  out.err = ctx.GetError();
  out.reset = ctx.GetGraphicsResetStatus();
  out.draw_error = ctx.last_draw_error();
  out.counts = alu.counts();
  out.fb = testutil::ReadRgba(ctx, kDrawW, kDrawH);
  return out;
}

struct EngineLeg {
  ExecEngine engine;
  const char* what;
};

// Every non-reference configuration.
constexpr EngineLeg kDrawLegs[] = {
    {ExecEngine::kTreeWalk, "tree"},
    {ExecEngine::kBatchedVm, "batched"},
};

void CompareOutcome(const DrawOutcome& got, const DrawOutcome& ref,
                    const char* what) {
  EXPECT_EQ(got.err, ref.err) << what << " GL error";
  EXPECT_EQ(got.reset, ref.reset) << what << " reset status";
  EXPECT_EQ(got.draw_error, ref.draw_error) << what << " draw error";
  ExpectCountsEq(got.counts, ref.counts, what);
  ASSERT_EQ(got.fb.size(), ref.fb.size());
  if (got.fb != ref.fb) {
    std::size_t first = 0;
    while (first < got.fb.size() && got.fb[first] == ref.fb[first]) ++first;
    const std::size_t px = first / 4;
    ADD_FAILURE() << what << " framebuffer differs first at byte " << first
                  << " (pixel " << px % kDrawW << "," << px / kDrawW << "): "
                  << static_cast<int>(got.fb[first]) << " vs "
                  << static_cast<int>(ref.fb[first]);
  }
}

// True when the framebuffer holds more than one distinct pixel value — the
// sweep-level guard that the corpus actually rasterizes something.
bool HasCoverage(const std::vector<std::uint8_t>& fb) {
  for (std::size_t i = 4; i + 3 < fb.size(); i += 4) {
    if (std::memcmp(fb.data(), fb.data() + i, 4) != 0) return true;
  }
  return false;
}

void RunWholeDrawCase(std::uint64_t seed, bool vc4_alu, int* rasterized) {
  const DrawScene sc = GenDrawScene(seed);
  SCOPED_TRACE(StrFormat(
      "draw seed=%llu alu=%s tris=%d points=%d threads=%d mix=0x%x%s%s%s",
      static_cast<unsigned long long>(seed), vc4_alu ? "vc4" : "exact",
      sc.tri_verts, sc.point_verts, sc.threads,
      static_cast<unsigned>(sc.mix_type), sc.mix_normalized ? " norm" : "",
      sc.use_buffers ? " vbo" : "", sc.mix_enabled ? "" : " mix-const"));
  const DrawOutcome ref =
      RunWholeDraw(sc, ExecEngine::kBytecodeVm, vc4_alu, 0);
  EXPECT_EQ(ref.err, GL_NO_ERROR) << "clean corpus drew with an error";
  EXPECT_TRUE(ref.draw_error.empty()) << ref.draw_error;
  *rasterized += HasCoverage(ref.fb);
  for (const EngineLeg& leg : kDrawLegs) {
    const DrawOutcome got =
        RunWholeDraw(sc, leg.engine, vc4_alu, 0);
    CompareOutcome(got, ref, leg.what);
  }
}

void RunWholeDrawSweep(bool vc4_alu) {
  constexpr std::uint64_t kDrawSeedBase = 20260901;
  int rasterized = 0;
  for (int i = 0; i < g_draw_iters; ++i) {
    const std::uint64_t seed = kDrawSeedBase + static_cast<std::uint64_t>(i);
    RunWholeDrawCase(seed, vc4_alu, &rasterized);
    if (::testing::Test::HasFailure()) {
      const DrawScene sc = GenDrawScene(seed);
      std::fprintf(stderr,
                   "[whole-draw] FAILURE seed=%llu (%s alu) — vertex:\n%s\n"
                   "fragment:\n%s\n",
                   static_cast<unsigned long long>(seed),
                   vc4_alu ? "vc4" : "exact", sc.vs.c_str(), sc.fs.c_str());
      FAIL() << "whole-draw differential failed at seed " << seed
             << " (iteration " << i << " of " << g_draw_iters << ")";
    }
  }
  if (g_draw_iters >= 10) {
    EXPECT_GT(rasterized, 0) << "whole-draw corpus never covered a pixel";
  }
}

TEST(WholeDrawFuzzTest, ThreeEngineDifferentialExactAlu) {
  RunWholeDrawSweep(/*vc4_alu=*/false);
}

TEST(WholeDrawFuzzTest, ThreeEngineDifferentialVc4Alu) {
  RunWholeDrawSweep(/*vc4_alu=*/true);
}

// Tallies of one trap sweep, per outcome.
struct TrapTally {
  int aborted = 0;        // shader trap or watchdog trip
  int completed = 0;      // drew without error
  int vbo_aborted = 0;    // VBO shape, short store: the bounds gate failed
  int vbo_completed = 0;  // VBO shape, full store: drew without error
};

// Vertex-stage abort parity end-to-end: a draw whose VERTEX stage traps
// (declared-but-undefined call behind a lane-varying condition) or trips
// the draw_budget watchdog must abort transactionally with the identical
// GL error, reset status and message — every leg reports the FIRST
// trapping vertex's message — and a clean seed must render identically,
// across every engine leg. The short-VBO shape feeds a_in from a buffer
// object whose store is one vertex short on some seeds: the bounds gate
// must fail those draws before any vertex shades, identically on every
// leg, even when a vertex would also trap or trip the watchdog.
void RunWholeDrawTrapCase(std::uint64_t seed, bool vc4_alu, TrapTally* tally) {
  Rng rng(seed ^ 0x7e57ab1eull);
  DrawScene sc;
  sc.tri_verts = 3 * static_cast<int>(rng.NextInt(1, 25));
  sc.point_verts = 0;
  sc.threads = 1;
  std::uint64_t budget = 0;
  const bool budget_shape = rng.NextInt(0, 99) < 45;
  const float thresh = rng.NextFloat(0.2f, 1.6f);
  if (budget_shape) {
    // Watchdog shape: uniform control flow with an ALU total that scales
    // with the vertex count; the budget lands near it so some seeds trip
    // and some complete.
    sc.vs =
        "attribute vec4 a_in;\n"
        "varying vec4 v_in;\n"
        "void main() {\n"
        "  float acc = 0.0;\n"
        "  for (int i = 0; i < 24; ++i) { acc += fract(acc + a_in.x) + "
        "0.03125; }\n"
        "  v_in = vec4(acc * 0.01, a_in.y, 0.5, 1.0);\n"
        "  gl_Position = vec4(a_in.x, a_in.y, 0.0, 1.0);\n"
        "}\n";
    budget = static_cast<std::uint64_t>(rng.NextInt(200, 40000));
  } else {
    // Divergent trap shape: non-uniform control flow, so the batched leg
    // splits into per-lane pcs.
    sc.vs = StrFormat(
        "attribute vec4 a_in;\n"
        "varying vec4 v_in;\n"
        "float poison(float x);\n"
        "void main() {\n"
        "  float acc = a_in.w;\n"
        "  if (a_in.z > %.5f) { acc += poison(acc); }\n"
        "  v_in = vec4(acc, a_in.y, 0.5, 1.0);\n"
        "  gl_Position = vec4(a_in.x, a_in.y, 0.0, 1.0);\n"
        "}\n",
        static_cast<double>(thresh));
  }
  sc.fs =
      "precision highp float;\n"
      "varying vec4 v_in;\n"
      "void main() { gl_FragColor = fract(v_in); }\n";
  sc.a_in.resize(static_cast<std::size_t>(sc.tri_verts) * 4);
  for (float& f : sc.a_in) f = rng.NextFloat(-1.2f, 1.8f);
  // Drawn after every other input, so the shaders and vertex data of each
  // seed do not depend on the shape.
  const int vbo_roll = static_cast<int>(rng.NextInt(0, 99));
  sc.use_buffers = vbo_roll < 50;
  sc.short_vbo = vbo_roll < 25;

  SCOPED_TRACE(StrFormat(
      "trap-draw seed=%llu alu=%s shape=%s%s tris=%d budget=%llu",
      static_cast<unsigned long long>(seed), vc4_alu ? "vc4" : "exact",
      budget_shape ? "budget" : "poison",
      sc.short_vbo ? "+short-vbo" : (sc.use_buffers ? "+vbo" : ""),
      sc.tri_verts, static_cast<unsigned long long>(budget)));
  const DrawOutcome ref =
      RunWholeDraw(sc, ExecEngine::kBytecodeVm, vc4_alu, budget);
  if (sc.short_vbo) {
    EXPECT_EQ(ref.err, GL_INVALID_OPERATION) << "short VBO drew";
    EXPECT_EQ(ref.reset, GL_NO_ERROR);
    EXPECT_EQ(ref.draw_error, "");
    ++tally->vbo_aborted;
  } else if (!ref.draw_error.empty()) {
    ++tally->aborted;
  } else {
    ++tally->completed;
    if (sc.use_buffers) ++tally->vbo_completed;
  }
  for (const EngineLeg& leg : kDrawLegs) {
    const DrawOutcome got =
        RunWholeDraw(sc, leg.engine, vc4_alu, budget);
    CompareOutcome(got, ref, leg.what);
  }
}

void RunWholeDrawTrapSweep(bool vc4_alu) {
  constexpr std::uint64_t kTrapDrawSeedBase = 20260921;
  TrapTally tally;
  for (int i = 0; i < g_draw_iters; ++i) {
    const std::uint64_t seed =
        kTrapDrawSeedBase + static_cast<std::uint64_t>(i);
    RunWholeDrawTrapCase(seed, vc4_alu, &tally);
    if (::testing::Test::HasFailure()) {
      FAIL() << "whole-draw trap parity failed at seed " << seed
             << " (iteration " << i << " of " << g_draw_iters << ")";
    }
  }
  // The corpus must mix outcomes: some draws abort, some complete (guarded
  // so a tiny --draw_iters smoke run cannot fail spuriously).
  if (g_draw_iters >= 10) {
    EXPECT_GT(tally.aborted, 0) << "trap-draw corpus produced no aborted draw";
    EXPECT_GT(tally.completed, 0) << "trap-draw corpus produced no clean draw";
    EXPECT_GT(tally.vbo_aborted, 0) << "short-VBO shape never failed a draw";
    EXPECT_GT(tally.vbo_completed, 0) << "VBO shape never drew cleanly";
  }
}

TEST(WholeDrawFuzzTest, VertexTrapAndWatchdogParityExactAlu) {
  RunWholeDrawTrapSweep(/*vc4_alu=*/false);
}

TEST(WholeDrawFuzzTest, VertexTrapAndWatchdogParityVc4Alu) {
  RunWholeDrawTrapSweep(/*vc4_alu=*/true);
}

}  // namespace
}  // namespace mgpu::gles2

// Custom main: gtest_main cannot parse --fuzz_iters. InitGoogleTest strips
// gtest's own flags first, leaving ours.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fuzz_iters=", 13) == 0) {
      g_fuzz_iters = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--draw_iters=", 13) == 0) {
      g_draw_iters = std::atoi(argv[i] + 13);
    }
  }
  if (g_draw_iters < 0) {
    // Each whole-draw seed spins up ~5 full contexts (link + two draws
    // each), so the default budget tracks --fuzz_iters at a fraction —
    // which also scales it down automatically under sanitizers.
    g_draw_iters = std::max(8, g_fuzz_iters / 8);
  }
  std::printf(
      "fuzz harness: %d seeded programs per stage and ALU model, %d "
      "whole-draw scenes\n",
      g_fuzz_iters, g_draw_iters);
  return RUN_ALL_TESTS();
}
