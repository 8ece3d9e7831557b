// Differential harness for the bytecode VM: every shader in the corpus runs
// through BOTH engines — the tree-walking ShaderExec oracle and the bytecode
// VmExec, one lane wide — and must produce bit-identical outputs and
// identical AluModel op counts. The lane-batched section below then checks
// the VM at every width 1..kVmLanes against its own one-lane runs. The corpus covers the same ground as the conformance suite
// (expressions, control flow, functions, arrays, swizzled stores) plus
// VM-specific hazards (register clobbering across calls, side effects in
// argument lists, discard inside helpers).
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/strings.h"
#include "gles2/context.h"
#include "glsl/compile.h"
#include "glsl/interp.h"
#include "glsl/ir.h"
#include "glsl/vm.h"
#include "vc4/alu.h"
#include "vc4/profiles.h"

#include "glsl_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::glsl {
namespace {

struct EngineRun {
  bool ok = false;            // compiled and ran
  bool kept = false;          // not discarded
  std::array<std::uint32_t, 4> color{};  // gl_FragColor bit patterns
  OpCounts counts;
};

// Uniform assignments applied before the run: name -> up to 16 float cells
// (or int for samplers/ints via the int flag).
struct UniformF {
  const char* name;
  std::vector<float> cells;
};
struct UniformI {
  const char* name;
  std::vector<std::int32_t> cells;
};

struct Case {
  const char* label;
  std::string source;
  std::vector<UniformF> funiforms;
  std::vector<UniformI> iuniforms;
  bool with_texture = false;
};

// One lane through the common engine interface: uniforms go through the
// shared store (GlobalAt), the output through lane 0 of its plane.
EngineRun RunEngine(ShaderEngine& exec, AluModel& alu, const Case& c) {
  EngineRun r;
  for (const UniformF& u : c.funiforms) {
    const int slot = exec.GlobalSlot(u.name);
    if (slot < 0) continue;
    Value& v = exec.GlobalAt(slot);
    for (std::size_t i = 0; i < u.cells.size(); ++i) {
      v.SetF(static_cast<int>(i), u.cells[i]);
    }
  }
  for (const UniformI& u : c.iuniforms) {
    const int slot = exec.GlobalSlot(u.name);
    if (slot < 0) continue;
    Value& v = exec.GlobalAt(slot);
    for (std::size_t i = 0; i < u.cells.size(); ++i) {
      v.SetI(static_cast<int>(i), u.cells[i]);
    }
  }
  if (c.with_texture) {
    exec.SetTextureFn(
        testutil::PerTexel([](int unit, float s, float t, float lod) {
          return std::array<float, 4>{
              s * 0.5f + static_cast<float>(unit) * 0.125f, t * 0.25f, s + t,
              lod + 0.75f};
        }));
  }
  alu.ResetCounts();
  r.kept = exec.RunBatch(1) != 0;
  r.counts = alu.counts();
  r.ok = true;
  const int slot = exec.GlobalSlot("gl_FragColor");
  if (slot >= 0) {
    const PlaneDst v = exec.LaneGlobal(slot);
    for (int i = 0; i < 4; ++i) r.color[static_cast<std::size_t>(i)] =
        FloatToBits(v.at(i, 0).f);
  }
  return r;
}

// Runs `c` through both engines on fresh ALUs of identical model and
// asserts bit-identical color and identical op counts.
void ExpectEnginesAgree(const Case& c, bool vc4_alu = false) {
  SCOPED_TRACE(c.label);
  CompileResult cr = CompileGlsl(c.source, Stage::kFragment);
  ASSERT_TRUE(cr.ok) << "compile failed [" << c.label << "]:\n"
                     << cr.info_log << "\nsource:\n" << c.source;

  const vc4::GpuProfile profile = vc4::VideoCoreIV();
  ExactAlu exact_a, exact_b;
  vc4::Vc4Alu vc4_a(profile), vc4_b(profile);
  AluModel& alu_interp = vc4_alu ? static_cast<AluModel&>(vc4_a) : exact_a;
  AluModel& alu_vm = vc4_alu ? static_cast<AluModel&>(vc4_b) : exact_b;

  ShaderExec interp(*cr.shader, alu_interp);
  VmExec vm(LowerToBytecode(*cr.shader), alu_vm);

  const EngineRun a = RunEngine(interp, alu_interp, c);
  const EngineRun b = RunEngine(vm, alu_vm, c);

  EXPECT_EQ(a.kept, b.kept) << "discard disagreement";
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.color[static_cast<std::size_t>(i)],
              b.color[static_cast<std::size_t>(i)])
        << "component " << i << " differs: interp="
        << BitsToFloat(a.color[static_cast<std::size_t>(i)])
        << " vm=" << BitsToFloat(b.color[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(a.counts.alu, b.counts.alu) << "alu op count";
  EXPECT_EQ(a.counts.sfu, b.counts.sfu) << "sfu op count";
  EXPECT_EQ(a.counts.sfu_trans, b.counts.sfu_trans) << "sfu_trans op count";
  EXPECT_EQ(a.counts.tmu, b.counts.tmu) << "tmu op count";
}

std::string Frag(const std::string& body) {
  return "precision highp float;\nvoid main() {\n" + body + "\n}\n";
}

// --- the conformance corpus (mirrors glsl_conformance_test + more) --------

std::vector<Case> ConformanceCorpus() {
  std::vector<Case> cases;
  auto add = [&](const char* label, std::string src) {
    Case c;
    c.label = label;
    c.source = std::move(src);
    cases.push_back(std::move(c));
  };

  add("deeply_nested_expressions", Frag(
      "gl_FragColor = vec4(((((1.0 + 2.0) * (3.0 - 1.0)) / ((2.0))) - "
      "((1.0 + (1.0 * (1.0))))), 0.0, 0.0, 0.0);"));
  add("chained_swizzle", Frag(R"(
vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
gl_FragColor = vec4(v.wzyx.xy.y, v.rgba.ba, 0.0);)"));
  add("matrix_algebra_chain", Frag(R"(
mat3 rot = mat3(0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0);
vec3 v = vec3(1.0, 0.0, 0.0);
vec3 once = rot * v;
vec3 four = rot * rot * rot * rot * v;
gl_FragColor = vec4(once.xy, four.xy);)"));
  add("matrix_scalar_division", Frag(R"(
mat2 m = mat2(2.0, 4.0, 6.0, 8.0);
mat2 half_m = m / 2.0;
mat2 plus = m + mat2(1.0);
gl_FragColor = vec4(half_m[1][1], plus[0][0], plus[0][1], 2.0 * half_m[0][0]);)"));
  add("arrays_of_vectors", Frag(R"(
vec2 pts[3];
pts[0] = vec2(1.0, 2.0);
pts[1] = vec2(3.0, 4.0);
pts[2] = pts[0] + pts[1];
gl_FragColor = vec4(pts[2], pts[1].y, pts[0].x);)"));
  add("dynamic_matrix_trace", Frag(R"(
mat3 m = mat3(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0);
float acc = 0.0;
for (int i = 0; i < 3; ++i) { acc += m[i][i]; }
gl_FragColor = vec4(acc);)"));
  add("function_overloads", R"(
precision highp float;
float total(vec2 v) { return v.x + v.y; }
float total(vec3 v) { return v.x + v.y + v.z; }
float total(float v) { return v; }
void main() {
  gl_FragColor = vec4(total(vec2(1.0, 2.0)), total(vec3(1.0, 2.0, 3.0)),
                      total(7.0), 0.0);
}
)");
  add("helpers_calling_helpers", R"(
precision highp float;
float sq(float x) { return x * x; }
float quart(float x) { return sq(sq(x)); }
float poly(float x) { return quart(x) + sq(x) + x; }
void main() { gl_FragColor = vec4(poly(2.0)); }
)");
  add("const_global_and_macro_array", R"(
#define N 4
precision highp float;
const float kWeights = 0.25;
void main() {
  float acc = 0.0;
  float tbl[N];
  for (int i = 0; i < N; ++i) { tbl[i] = kWeights; }
  for (int i = 0; i < N; ++i) { acc += tbl[i]; }
  gl_FragColor = vec4(acc);
}
)");
  add("integer_division", Frag(R"(
int a = 17; int b = 5;
int q = a / b;
int r = a - q * b;
gl_FragColor = vec4(float(q), float(r), float(-17 / 5), 0.0);)"));
  add("bool_vector_ctor", Frag(R"(
bvec3 b = bvec3(1.0, 0.0, 5.0);
gl_FragColor = vec4(b.x ? 1.0 : 0.0, b.y ? 1.0 : 0.0, b.z ? 1.0 : 0.0, 0.0);)"));
  add("compound_assign_swizzle", Frag(R"(
vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
v.yz *= 10.0;
v.x += v.w;
gl_FragColor = v;)"));
  add("for_comma_step", Frag(R"(
float a = 0.0; float b = 0.0;
for (int i = 0; i < 4; a += 1.0, ++i) { b += 2.0; }
gl_FragColor = vec4(a, b, 0.0, 0.0);)"));
  add("numeric_edge_infinity", Frag(R"(
float inf = 1.0 / 0.0;
float ninf = -1.0 / 0.0;
gl_FragColor = vec4(inf > 1e30 ? 1.0 : 0.0, ninf < -1e30 ? 1.0 : 0.0,
                    clamp(inf, 0.0, 2.0), 0.0);)"));

  // --- control-flow corners ----------------------------------------------
  add("while_break_continue", Frag(R"(
float acc = 0.0;
int i = 0;
while (i < 10) {
  ++i;
  if (i == 3) { continue; }
  if (i == 8) { break; }
  acc += float(i);
}
gl_FragColor = vec4(acc);)"));
  add("do_while_continue", Frag(R"(
float acc = 0.0;
int i = 0;
do {
  i += 2;
  if (i == 4) { continue; }
  acc += float(i);
} while (i < 9);
gl_FragColor = vec4(acc, float(i), 0.0, 0.0);)"));
  add("nested_loops_break", Frag(R"(
float acc = 0.0;
for (int i = 0; i < 4; ++i) {
  for (int j = 0; j < 4; ++j) {
    if (j > i) { break; }
    acc += 1.0;
  }
}
gl_FragColor = vec4(acc);)"));
  add("return_from_loop_in_main", Frag(R"(
gl_FragColor = vec4(0.0);
for (int i = 0; i < 10; ++i) {
  if (i == 3) { gl_FragColor = vec4(float(i)); return; }
}
gl_FragColor = vec4(99.0);)"));
  add("ternary_short_circuit", Frag(R"(
float x = 2.0;
float y = x > 1.0 ? (x += 10.0, x) : (x += 100.0, x);
gl_FragColor = vec4(x, y, 0.0, 0.0);)"));
  add("logical_short_circuit_effects", Frag(R"(
float a = 0.0;
bool t1 = (a += 1.0) > 0.0 || (a += 10.0) > 0.0;   // rhs skipped
bool t2 = (a += 1.0) < 0.0 && (a += 100.0) > 0.0;  // rhs skipped
bool t3 = (a += 1.0) > 0.0 ^^ (a += 1000.0) > 0.0; // both evaluated
gl_FragColor = vec4(a, t1 ? 1.0 : 0.0, t2 ? 1.0 : 0.0, t3 ? 1.0 : 0.0);)"));

  // --- functions: parameters, clobbering hazards -------------------------
  add("out_inout_params", R"(
precision highp float;
void split(in float v, out float lo, inout float acc) {
  lo = v - 1.0;
  acc += v;
}
void main() {
  float lo = 99.0;
  float acc = 0.5;
  split(4.0, lo, acc);
  gl_FragColor = vec4(lo, acc, 0.0, 0.0);
}
)");
  add("out_param_into_swizzle", R"(
precision highp float;
void pick(out vec2 dst) { dst = vec2(7.0, 8.0); }
void main() {
  vec4 v = vec4(0.0);
  pick(v.yw);
  gl_FragColor = v;
}
)");
  add("nested_call_same_function", R"(
precision highp float;
float sq(float x) { return x * x; }
void main() {
  gl_FragColor = vec4(sq(sq(2.0)), sq(1.0) + sq(3.0), 0.0, 0.0);
}
)");
  add("call_in_arg_clobbers", R"(
precision highp float;
float g_state = 1.0;
float bump(float v) { g_state += v; return g_state; }
void main() {
  // Both arguments call bump(); evaluation is left to right.
  gl_FragColor = vec4(bump(1.0) + bump(10.0), g_state, 0.0, 0.0);
}
)");
  add("function_falls_off_end", R"(
precision highp float;
float maybe(float x) { if (x > 0.0) { return x * 2.0; } }
void main() { gl_FragColor = vec4(maybe(3.0), maybe(-3.0), 0.0, 0.0); }
)");
  add("discard_inside_helper_is_early_return", R"(
precision highp float;
float risky(float x) { if (x > 0.0) { discard; } return 5.0; }
void main() {
  float r = risky(1.0);   // discard inside a helper returns zero
  gl_FragColor = vec4(r, risky(-1.0), 0.0, 1.0);
}
)");
  add("prototype_then_definition", R"(
precision highp float;
float twice(float x);
void main() { gl_FragColor = vec4(twice(21.0)); }
float twice(float x) { return x * 2.0; }
)");
  add("lvalue_index_mutates_rhs_var", R"(
precision highp float;
float x = 0.0;
float arr[2];
float bump() { x = 5.0; return 0.0; }
void main() {
  x = 1.0;
  arr[1] = 9.0;
  // The RHS (x == 1.0) must be snapshotted before the index call sets x=5.
  arr[int(bump())] = x;
  gl_FragColor = vec4(arr[0], arr[1], x, 0.0);
}
)");
  add("lvalue_index_mutates_rhs_compound", R"(
precision highp float;
float x = 0.0;
float arr[2];
float bump() { x = 100.0; return 1.0; }
void main() {
  x = 3.0;
  arr[0] = 10.0; arr[1] = 20.0;
  arr[int(bump()) - 1] += x;  // snapshot of x (3.0) added to arr[0]
  gl_FragColor = vec4(arr[0], arr[1], x, 0.0);
}
)");

  // --- state: globals with initializers, inc/dec, comma ------------------
  add("plain_global_reinit", R"(
precision highp float;
float counter = 3.0;
void main() {
  counter += 1.0;
  gl_FragColor = vec4(counter);
}
)");
  add("incdec_on_array_element", Frag(R"(
float a[3];
a[0] = 5.0; a[1] = 6.0; a[2] = 7.0;
int i = 1;
float pre = ++a[i];
float post = a[i]--;
gl_FragColor = vec4(a[1], pre, post, float(i++));)"));
  add("comma_expression_value", Frag(R"(
float a = 1.0;
float b = (a += 1.0, a * 2.0);
gl_FragColor = vec4(a, b, 0.0, 0.0);)"));
  add("index_clamp_out_of_range", Frag(R"(
vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
int big = 7;
int neg = -2;
gl_FragColor = vec4(v[big], v[neg], 0.0, 0.0);)"));
  add("matrix_from_matrix_ctor", Frag(R"(
mat2 small_m = mat2(1.0, 2.0, 3.0, 4.0);
mat4 big = mat4(small_m);
mat2 back = mat2(big);
gl_FragColor = vec4(big[2][2], big[3][1], back[0][1], back[1][1]);)"));
  add("vec_eq_compare", Frag(R"(
vec3 a = vec3(1.0, 2.0, 4.0);
vec3 b = vec3(1.0, 2.0, 4.0);
vec3 d = vec3(1.0, 2.0, 5.0);
gl_FragColor = vec4(a == b ? 1.0 : 0.0, a == d ? 1.0 : 0.0,
                    a != d ? 1.0 : 0.0, 0.0);)"));

  // --- builtins ----------------------------------------------------------
  add("builtin_sweep_math", Frag(R"(
float x = 0.7;
gl_FragColor = vec4(sin(x) + cos(x), pow(x, 2.3) + exp2(x),
                    inversesqrt(x + 1.0) + fract(x * 10.0),
                    mod(7.3, 2.0) + sign(-x));)"));
  add("builtin_sweep_geometry", Frag(R"(
vec3 a = vec3(1.0, 2.0, 2.0);
vec3 b = vec3(0.0, 1.0, 0.0);
gl_FragColor = vec4(length(a), dot(a, b), distance(a, b),
                    normalize(a).y + cross(a, b).z);)"));
  add("builtin_sweep_relational", Frag(R"(
vec3 a = vec3(1.0, 5.0, 3.0);
vec3 b = vec3(2.0, 4.0, 3.0);
bvec3 lt = lessThan(a, b);
bvec3 ge = greaterThanEqual(a, b);
gl_FragColor = vec4(any(lt) ? 1.0 : 0.0, all(ge) ? 1.0 : 0.0,
                    not(lt).y ? 1.0 : 0.0, equal(a, b).z ? 1.0 : 0.0);)"));
  add("builtin_mix_step_smoothstep", Frag(R"(
gl_FragColor = vec4(mix(1.0, 5.0, 0.25), step(2.0, vec2(1.0, 3.0)).y,
                    smoothstep(0.0, 4.0, 1.0), clamp(vec3(-1.0, 0.5, 2.0),
                    0.0, 1.0).z);)"));

  return cases;
}

TEST(VmDifferentialTest, ConformanceCorpusExactAlu) {
  for (const Case& c : ConformanceCorpus()) {
    ExpectEnginesAgree(c, /*vc4_alu=*/false);
  }
}

TEST(VmDifferentialTest, ConformanceCorpusVc4Alu) {
  // The reduced-precision VideoCore ALU model exercises Round()/SFU error
  // paths; engines must still agree bit for bit.
  for (const Case& c : ConformanceCorpus()) {
    ExpectEnginesAgree(c, /*vc4_alu=*/true);
  }
}

TEST(VmDifferentialTest, UniformsAndSamplers) {
  Case c;
  c.label = "uniforms_and_samplers";
  c.source = R"(
precision highp float;
uniform float u_scale;
uniform vec2 u_offset;
uniform float u_lut[8];
uniform sampler2D u_tex;
void main() {
  float acc = 0.0;
  for (int i = 0; i < 8; ++i) { acc += u_lut[i]; }
  vec4 t = texture2D(u_tex, u_offset);
  gl_FragColor = vec4(u_scale * acc, t.xy + u_offset, t.w);
}
)";
  c.funiforms = {{"u_scale", {0.5f}},
                 {"u_offset", {0.25f, 0.75f}},
                 {"u_lut", {1, 2, 3, 4, 5, 6, 7, 8}}};
  c.iuniforms = {{"u_tex", {3}}};
  c.with_texture = true;
  ExpectEnginesAgree(c);
  ExpectEnginesAgree(c, /*vc4_alu=*/true);
}

TEST(VmDifferentialTest, DiscardAgreement) {
  for (const float kill : {0.0f, 1.0f}) {
    Case c;
    c.label = kill > 0.5f ? "discard_taken" : "discard_not_taken";
    c.source = R"(
precision highp float;
uniform float u_kill;
void main() {
  if (u_kill > 0.5) discard;
  gl_FragColor = vec4(1.0);
}
)";
    c.funiforms = {{"u_kill", {kill}}};
    ExpectEnginesAgree(c);
  }
}

// --- targeted VM behaviour ------------------------------------------------

// Builds a helper-call chain main -> f1 -> ... -> fN returning N.
// main calls a chain of `depth` nested user functions.
std::string DeepCallProgram(int depth) {
  return "precision highp float;\n" + testutil::DeepCallChain(depth) +
         StrFormat("void main() { gl_FragColor = vec4(deep%d(1.0)); }\n",
                   depth - 1);
}

TEST(VmDifferentialTest, CallDepthLimitMatchesInterpreter) {
  // 64 concurrently active user calls are allowed; 65 throw. Both engines
  // must sit on the same boundary.
  {
    auto shader = testutil::MustCompile(DeepCallProgram(64));
    ExactAlu alu_a, alu_b;
    ShaderExec interp(*shader, alu_a);
    VmExec vm(LowerToBytecode(*shader), alu_b);
    ASSERT_TRUE(interp.Run());
    ASSERT_EQ(vm.RunBatch(1), 1u);
    EXPECT_EQ(interp.GlobalAt(interp.GlobalSlot("gl_FragColor")).F(0),
              vm.LaneGlobal(vm.GlobalSlot("gl_FragColor")).at(0, 0).f);
  }
  {
    auto shader = testutil::MustCompile(DeepCallProgram(65));
    ExactAlu alu_a, alu_b;
    ShaderExec interp(*shader, alu_a);
    VmExec vm(LowerToBytecode(*shader), alu_b);
    EXPECT_THROW(interp.Run(), ShaderRuntimeError);
    EXPECT_THROW(vm.RunBatch(1), ShaderRuntimeError);
  }
}

// Drawing code journals framebuffer writes only for trap-capable programs.
// A call chain within the 64-frame budget is inlined and cannot trap; one
// past it keeps its kCall/kRet and traps at run time, so it must count.
TEST(VmProgramTest, CanTrapCountsCallChainsPastTheFrameBudget) {
  EXPECT_FALSE(LowerToBytecode(*testutil::MustCompile(DeepCallProgram(64)))
                   ->CanTrap());
  EXPECT_TRUE(LowerToBytecode(*testutil::MustCompile(DeepCallProgram(65)))
                  ->CanTrap());
  auto helper = testutil::MustCompile(R"(
precision highp float;
float twice(float x) { return x * 2.0; }
void main() { gl_FragColor = vec4(twice(gl_FragCoord.x)); }
)");
  EXPECT_FALSE(LowerToBytecode(*helper)->CanTrap());
}

TEST(VmExecTest, RunawayLoopRaisesRuntimeError) {
  auto shader = testutil::MustCompile(
      "precision highp float;\nvoid main() { float a = 0.0; while (true) { a "
      "+= 1.0; } gl_FragColor = vec4(a); }");
  ExactAlu alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  EXPECT_THROW(vm.RunBatch(1), ShaderRuntimeError);
}

TEST(VmExecTest, UndefinedPrototypeTrapsOnlyWhenCalled) {
  auto shader = testutil::MustCompile(R"(
precision highp float;
float ghost(float x);
uniform float u_sel;
void main() {
  if (u_sel > 0.5) { gl_FragColor = vec4(ghost(1.0)); }
  else { gl_FragColor = vec4(2.0); }
}
)");
  ExactAlu alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  vm.GlobalAt(vm.GlobalSlot("u_sel")).SetF(0, 0.0f);
  EXPECT_EQ(vm.RunBatch(1), 1u);
  EXPECT_FLOAT_EQ(vm.LaneGlobal(vm.GlobalSlot("gl_FragColor")).at(0, 0).f,
                  2.0f);
  vm.GlobalAt(vm.GlobalSlot("u_sel")).SetF(0, 1.0f);
  EXPECT_THROW(vm.RunBatch(1), ShaderRuntimeError);
}

TEST(VmExecTest, RunIsRepeatableAfterStateChange) {
  auto shader = testutil::MustCompile(
      "precision highp float;\nuniform float u_x;\nvoid main() { "
      "gl_FragColor = vec4(u_x * u_x); }");
  ExactAlu alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  for (float x : {1.0f, 2.0f, 3.0f, 4.0f}) {
    vm.GlobalAt(vm.GlobalSlot("u_x")).SetF(0, x);
    ASSERT_EQ(vm.RunBatch(1), 1u);
    EXPECT_FLOAT_EQ(vm.LaneGlobal(vm.GlobalSlot("gl_FragColor")).at(0, 0).f,
                    x * x);
  }
}

TEST(VmExecTest, VertexStageWritesPosition) {
  auto shader = testutil::MustCompile(
      "attribute vec4 a_pos;\nvoid main() { gl_Position = a_pos * 2.0; }",
      Stage::kVertex);
  ExactAlu alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  const PlaneDst attr = vm.LaneGlobal(vm.GlobalSlot("a_pos"));
  attr.at(0, 0).f = 0.5f;
  attr.at(1, 0).f = -0.5f;
  attr.at(2, 0).f = 0.0f;
  attr.at(3, 0).f = 1.0f;
  ASSERT_EQ(vm.RunBatch(1), 1u);
  const PlaneDst pos = vm.LaneGlobal(vm.GlobalSlot("gl_Position"));
  EXPECT_FLOAT_EQ(pos.at(0, 0).f, 1.0f);
  EXPECT_FLOAT_EQ(pos.at(1, 0).f, -1.0f);
}

TEST(VmExecTest, ConstructionDoesNotChargeAluCounters) {
  auto shader = testutil::MustCompile(R"(
precision highp float;
const float kA = 1.0 + 2.0;
float plain = kA * 3.0;
void main() { gl_FragColor = vec4(plain); }
)");
  ExactAlu alu;
  const OpCounts before = alu.counts();
  VmExec vm(LowerToBytecode(*shader), alu);
  EXPECT_EQ(alu.counts().alu, before.alu);
  // And the per-run re-initialization of `plain` IS charged, matching the
  // oracle's Run().
  ExactAlu oracle_alu;
  ShaderExec oracle(*shader, oracle_alu);
  oracle_alu.ResetCounts();
  ASSERT_TRUE(oracle.Run());
  alu.ResetCounts();
  ASSERT_EQ(vm.RunBatch(1), 1u);
  EXPECT_EQ(alu.counts().alu, oracle_alu.counts().alu);
}

// --- full gles2 draw path: the ExecEngine switch ---------------------------

TEST(VmGles2Test, DrawsAreByteIdenticalAcrossEngines) {
  using namespace mgpu::gles2;
  const vc4::GpuProfile profile = vc4::VideoCoreIV();
  vc4::Vc4Alu alu(profile);
  ContextConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  Context gl(cfg, &alu);

  const char* vs_src =
      "attribute vec2 a_pos;\n"
      "varying vec2 v_uv;\n"
      "void main() { v_uv = a_pos * 0.5 + 0.5; gl_Position = vec4(a_pos, "
      "0.0, 1.0); }\n";
  const char* fs_src =
      "precision highp float;\n"
      "varying vec2 v_uv;\n"
      "uniform float u_gain;\n"
      "void main() {\n"
      "  float w = fract(v_uv.x * 7.0 + sin(v_uv.y * 13.0));\n"
      "  gl_FragColor = vec4(w * u_gain, v_uv, 1.0);\n"
      "}\n";
  const GLuint vs = gl.CreateShader(GL_VERTEX_SHADER);
  gl.ShaderSource(vs, vs_src);
  gl.CompileShader(vs);
  const GLuint fs = gl.CreateShader(GL_FRAGMENT_SHADER);
  gl.ShaderSource(fs, fs_src);
  gl.CompileShader(fs);
  const GLuint prog = gl.CreateProgram();
  gl.AttachShader(prog, vs);
  gl.AttachShader(prog, fs);
  gl.LinkProgram(prog);
  GLint ok = GL_FALSE;
  gl.GetProgramiv(prog, GL_LINK_STATUS, &ok);
  ASSERT_EQ(ok, GL_TRUE) << gl.GetProgramInfoLog(prog);
  gl.UseProgram(prog);
  gl.Uniform1f(gl.GetUniformLocation(prog, "u_gain"), 0.8f);

  const float quad[12] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  const GLuint loc = static_cast<GLuint>(gl.GetAttribLocation(prog, "a_pos"));
  gl.EnableVertexAttribArray(loc);
  gl.VertexAttribPointer(loc, 2, GL_FLOAT, GL_FALSE, 0, quad);

  auto draw_and_read = [&](ExecEngine engine, glsl::OpCounts* counts) {
    gl.SetExecEngine(engine);
    gl.ClearColor(0, 0, 0, 0);
    gl.Clear(GL_COLOR_BUFFER_BIT);
    alu.ResetCounts();
    gl.DrawArrays(GL_TRIANGLES, 0, 6);
    *counts = alu.counts();
    std::vector<std::uint8_t> px(32 * 32 * 4);
    gl.ReadPixels(0, 0, 32, 32, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
    EXPECT_EQ(gl.GetError(), static_cast<GLenum>(GL_NO_ERROR));
    return px;
  };

  glsl::OpCounts vm_counts, tree_counts;
  const auto vm_px = draw_and_read(ExecEngine::kBytecodeVm, &vm_counts);
  const auto tree_px = draw_and_read(ExecEngine::kTreeWalk, &tree_counts);
  EXPECT_EQ(vm_px, tree_px);
  EXPECT_EQ(vm_counts.alu, tree_counts.alu);
  EXPECT_EQ(vm_counts.sfu, tree_counts.sfu);
  EXPECT_EQ(vm_counts.sfu_trans, tree_counts.sfu_trans);
  EXPECT_EQ(vm_counts.tmu, tree_counts.tmu);
  EXPECT_EQ(vm_counts.tmu_miss, tree_counts.tmu_miss);
  EXPECT_GT(vm_counts.alu, 0u);
}

// ---------------------------------------------------------------------------
// Lane-batched execution: RunBatch(n) vs n one-lane RunBatch(1) runs
// ---------------------------------------------------------------------------
//
// Every shader below reads the varying `v_in`, so lanes carry distinct data;
// the divergent cases branch/loop/discard/call on it. For each batch size n
// in [1, kVmLanes] the batched engine must reproduce a one-lane engine's
// per-lane gl_FragColor bits, per-lane discard decisions, and the summed
// ALU/SFU/TMU counts exactly.

struct BatchCase {
  const char* label;
  std::string source;
  bool with_texture = false;
};

std::vector<BatchCase> BatchCorpus() {
  std::vector<BatchCase> cases;
  cases.push_back(
      {"straight_line_math",
       R"(precision highp float;
varying vec4 v_in;
uniform vec4 u_bias;
void main() {
  vec4 a = v_in * 2.0 + u_bias;
  float s = sin(a.x) + cos(a.y) * sqrt(abs(a.z) + 1.0);
  gl_FragColor = vec4(fract(s), a.y * 0.25, pow(abs(a.w) + 0.5, 1.3), 1.0);
})"});
  cases.push_back(
      {"uniform_branch_and_loop",
       R"(precision highp float;
varying vec4 v_in;
uniform float u_mode;
void main() {
  float acc = v_in.x;
  // Branch + trip count depend only on the uniform: lanes never split.
  if (u_mode > 0.5) { acc += 3.0; } else { acc -= 1.0; }
  for (int i = 0; i < 5; ++i) acc += v_in.y * float(i);
  gl_FragColor = vec4(acc, v_in.z, 0.0, 1.0);
})"});
  cases.push_back(
      {"divergent_if_else",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  vec4 c;
  if (v_in.x > 0.5) {
    c = vec4(v_in.x * 2.0, sin(v_in.y), 0.25, 1.0);
  } else {
    c = vec4(cos(v_in.x), v_in.y * -3.0, 0.75, 1.0);
  }
  gl_FragColor = c;
})"});
  cases.push_back(
      {"divergent_loop_trip_counts",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  float acc = 0.0;
  // Per-lane trip count: lanes leave the loop at different iterations.
  int n = int(mod(v_in.x * 16.0, 7.0));
  for (int i = 0; i < 16; ++i) {
    if (i >= n) break;
    acc += sqrt(float(i) + v_in.y);
  }
  gl_FragColor = vec4(acc * 0.125, float(n) * 0.1, v_in.z, 1.0);
})"});
  cases.push_back(
      {"divergent_nested_with_calls",
       R"(precision highp float;
varying vec4 v_in;
float helper(float x, out float extra) {
  extra = x * 0.5;
  if (x > 0.25) return sin(x);
  return cos(x) + 1.0;
}
void main() {
  float e = 0.0;
  float r;
  if (v_in.x > 0.3) {
    if (v_in.y > 0.6) { r = helper(v_in.x, e); }
    else { r = helper(v_in.y, e) * 2.0; }
  } else {
    r = helper(v_in.x + v_in.y, e) - 0.5;
  }
  gl_FragColor = vec4(r, e, v_in.w, 1.0);
})"});
  cases.push_back(
      {"divergent_discard",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  if (fract(v_in.x * 5.0) < 0.4) discard;
  gl_FragColor = vec4(v_in.xy, fract(v_in.z * 3.0), 1.0);
})"});
  cases.push_back(
      {"lockstep_dynamic_index_stores",
       // Lane-varying *indices* are data, not control: the loop bounds are
       // uniform and there is no varying branch, so the lanes never split
       // while every lane writes a different array element through a
       // per-lane ref.
       R"(precision highp float;
varying vec4 v_in;
void main() {
  float tbl[4];
  for (int i = 0; i < 4; ++i) tbl[i] = 0.125 * float(i);
  int j = int(mod(v_in.x * 11.0, 4.0));
  tbl[j] += v_in.y;           // lane-varying write index through a ref
  vec4 v = vec4(0.1, 0.2, 0.3, 0.4);
  v[int(mod(v_in.z * 7.0, 4.0))] = v_in.w;
  gl_FragColor = vec4(tbl[j], tbl[3 - j], v.x + v.w, 1.0);
})"});
  cases.push_back(
      {"texture_in_divergent_if",
       R"(precision highp float;
varying vec4 v_in;
uniform sampler2D u_tex;
void main() {
  vec4 t = vec4(0.5);
  if (v_in.x > 0.45) t = texture2D(u_tex, v_in.xy);
  gl_FragColor = t + texture2D(u_tex, v_in.zw) * 0.25;
})",
       /*with_texture=*/true});
  cases.push_back(
      {"divergent_early_return_and_ternary",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  float pick = v_in.x > 0.5 ? sin(v_in.y) : cos(v_in.y);
  bool both = v_in.x > 0.2 && v_in.y > 0.2;
  if (v_in.z > 0.7) {
    gl_FragColor = vec4(pick, both ? 1.0 : 0.0, 0.0, 1.0);
    return;
  }
  gl_FragColor = vec4(pick * 0.5, 0.25, both ? 0.5 : 0.125, 1.0);
})"});
  // --- vector ops inside divergent flow: the diverged phase must invoke
  // the SoA kernels with partial lane masks, not just full batches ---------
  cases.push_back(
      {"normalize_in_varying_trip_loop",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  vec3 acc = vec3(0.0);
  int n = int(mod(v_in.x * 16.0, 6.0)) + 1;
  for (int i = 0; i < 8; ++i) {
    if (i >= n) break;
    // Whole-vector work under a lane-varying trip count: normalize/dot/
    // cross run with a different active mask each iteration.
    vec3 v = normalize(vec3(v_in.y + float(i), v_in.z, 0.25));
    acc += cross(v, vec3(0.0, 1.0, v_in.w)) * (1.0 / float(n));
  }
  gl_FragColor = vec4(acc, 1.0);
})"});
  cases.push_back(
      {"dot_after_divergent_discard",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  // Some lanes discard; survivors keep doing vector work under a reduced
  // mask, so SoA kernels see a hole-punched lane set.
  if (fract(v_in.x * 7.0) < 0.35) discard;
  vec3 a = vec3(v_in.xy, 1.5);
  vec3 b = normalize(vec3(0.5, v_in.z, v_in.w + 0.1));
  float d = dot(a, b);
  vec4 c = mix(vec4(a, 1.0), vec4(b, 1.0), clamp(d, 0.0, 1.0));
  gl_FragColor = c * c;
})"});
  cases.push_back(
      {"vector_compare_in_divergent_if",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  vec3 probe = v_in.xyz * 3.0;
  vec4 c;
  if (v_in.w > 0.5) {
    bvec3 lt = lessThan(probe, vec3(1.5));
    c = vec4(any(lt) ? 1.0 : 0.25, all(lt) ? 1.0 : 0.5,
             probe == v_in.xyz ? 1.0 : 0.0, 1.0);
  } else {
    c = vec4(not(greaterThanEqual(probe, vec3(0.75))).y ? 0.75 : 0.125,
             length(probe), pow(abs(probe.x) + 0.5, 2.0), 1.0);
  }
  gl_FragColor = c;
})"});
  cases.push_back(
      {"matrix_algebra_in_divergent_if",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  // mat*vec / mat*mat and mat+mat / mat*scalar run under the partial
  // lane masks of the diverged phase.
  mat2 m = mat2(v_in.x, 1.0, -0.5, v_in.y + 0.25);
  vec2 r;
  if (v_in.z > 0.4) {
    mat2 mm = m * m + m * 0.5;
    r = mm * v_in.xy;
  } else {
    r = (m + m) * v_in.zw;
  }
  gl_FragColor = vec4(r, v_in.w, 1.0);
})"});
  // --- the float-dense builtin set (normalize/dot/mix/clamp/floor/fract/
  // ceil/min/max/abs/step) chained on vec4s with uniform operands ---------
  cases.push_back(
      {"vector_heavy_builtins",
       R"(precision highp float;
varying vec4 v_in;
uniform vec4 u_bias;
uniform float u_mode;
void main() {
  vec4 a = v_in * u_bias + vec4(0.25);
  vec3 n = normalize(a.xyz + vec3(0.5, u_mode, 1.5));
  float d = dot(n, vec3(a.y, a.z, a.w));
  vec4 m = mix(a, vec4(d), clamp(a, 0.0, 1.0));
  vec4 f = floor(m * 7.5) - fract(m) + ceil(m * 0.5);
  vec4 mn = min(max(f, -a), abs(m));
  gl_FragColor = mn + vec4(step(0.5, d)) * 0.125 - a * 0.5;
})"});
  // --- products below FLT_MIN (flushed under the VC4/Mali models) and
  // values whose mantissas round at reduced precision, through arithmetic,
  // negation, constructors, a matrix product and rounding builtins ------
  cases.push_back(
      {"denormal_flush_and_mediump",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  vec4 tiny = v_in * 1.0e-20 + vec4(1.0e-25);
  vec4 sub = tiny * vec4(1.0e-19, 3.0e-19, 1.0e-18, 7.0e-20);
  vec4 neg = -sub;
  vec4 r = v_in * 1.2345678 + vec4(0.3333333, 1.0 / 3.0, 2.7182818, 3.1415926);
  vec4 q = r / (v_in + vec4(1.7));
  mat2 m = mat2(r.xy, q.zw) * mat2(1.1, 0.3, -0.7, 2.9);
  float s = smoothstep(0.0, 2.0, r.x) + mod(r.y, 0.7) + inversesqrt(r.z);
  gl_FragColor = vec4(sub.x * 1.0e30, neg.y * 1.0e30 + q.x,
                      m[0][0] + m[1][1] * s,
                      dot(r, q) + float(sub.z == 0.0) + mix(r.w, q.w, v_in.x));
})"});
  // --- NaNs of both signs meeting in two-NaN operations (arithmetic, a
  // matrix product, mix, mod): the batch kernels and the scalar path must
  // return the same NaN bits whatever operand order each copy compiles to
  cases.push_back(
      {"nan_operand_order",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  float z = v_in.x * 0.0;
  float qn = z / z;
  float pn = -qn;
  vec4 a = vec4(qn, pn, qn + v_in.y, pn * v_in.z);
  vec4 b = vec4(pn, qn, pn, qn);
  mat2 m = mat2(a.xy, b.zw) * mat2(b.xy, a.zw);
  gl_FragColor = vec4(a.x + b.x, b.y * a.y, mix(a.z, b.z, a.w) - m[1][0],
                      mod(b.w, a.x) + m[0][1]);
})"});
  // --- inlining off: a reachable call chain deeper than the 64-frame
  // budget keeps every user call as kCall/kRet. One helper (before main)
  // runs its calls and returns split across a divergent if; the other
  // (after main) is entered by both sides, so the lanes reconverge inside
  // it and its ret pops different return pcs for the two groups ---------
  cases.push_back(
      {"calls_inlining_off_from_both_sides_of_divergent_if",
       "precision highp float;\n"
       "varying vec4 v_in;\n"
       "uniform float u_mode;\n" +
           testutil::DeepCallChain(65) + R"(
float before_main(float x, out float extra) {
  extra = x * 0.5;
  if (x > 0.25) return sin(x);
  return cos(x) + 1.0;
}
float after_main(float x);
void main() {
  float e = 0.0;
  float r = 0.0;
  // Never taken (u_mode is 0.75), but its static depth turns inlining off.
  if (u_mode > 2.0) r = deep64(v_in.x);
  if (v_in.x > 0.5) {
    r += before_main(v_in.y, e) + after_main(v_in.z);
  } else {
    r += before_main(v_in.z, e) * 2.0 + after_main(v_in.w) * 0.5;
  }
  gl_FragColor = vec4(r, e, v_in.w, 1.0);
}
float after_main(float x) { return fract(x * 7.0) + x; }
)"});
  return cases;
}

float fract_helper(float x) { return x - std::floor(x); }

// Deterministic per-lane varying values in a range that exercises every
// branch side across a kVmLanes-wide batch.
std::array<float, 4> LaneInput(int lane) {
  const float f = static_cast<float>(lane);
  return {fract_helper(f * 0.37f + 0.11f), fract_helper(f * 0.53f + 0.29f),
          fract_helper(f * 0.71f + 0.05f), fract_helper(f * 0.13f + 0.61f)};
}

// The ALU models the batch differential runs under: IEEE-exact, the
// VideoCore IV (denormal flush, 23-bit mantissa) and the Mali-400 (denormal
// flush, 10-bit mantissa — the mantissa-rounding branch of RoundSpec).
enum class BatchAlu { kExact, kVc4, kMali400 };

std::unique_ptr<AluModel> MakeBatchAlu(BatchAlu kind) {
  switch (kind) {
    case BatchAlu::kVc4:
      return std::make_unique<vc4::Vc4Alu>(vc4::VideoCoreIV());
    case BatchAlu::kMali400:
      return std::make_unique<vc4::Vc4Alu>(vc4::Mali400());
    default:
      return std::make_unique<ExactAlu>();
  }
}

void ExpectBatchMatchesScalar(const BatchCase& c, int lanes, BatchAlu kind) {
  SCOPED_TRACE(std::string(c.label) + " lanes=" + std::to_string(lanes) +
               " alu=" + std::to_string(static_cast<int>(kind)));
  CompileResult cr = CompileGlsl(c.source, Stage::kFragment);
  ASSERT_TRUE(cr.ok) << cr.info_log;
  std::shared_ptr<const VmProgram> prog = LowerToBytecode(*cr.shader);

  const std::unique_ptr<AluModel> alu_s_owned = MakeBatchAlu(kind);
  const std::unique_ptr<AluModel> alu_b_owned = MakeBatchAlu(kind);
  AluModel& alu_s = *alu_s_owned;
  AluModel& alu_b = *alu_b_owned;
  VmExec one_lane(prog, alu_s);
  VmExec batch(prog, alu_b);

  const TextureFn texture =
      testutil::PerTexel([](int unit, float s, float t, float lod) {
        return std::array<float, 4>{
            s * 0.5f + static_cast<float>(unit) * 0.125f, t * 0.25f, s + t,
            lod + 0.75f};
      });
  if (c.with_texture) {
    one_lane.SetTextureFn(texture);
    batch.SetTextureFn(texture);
  }
  const int in_slot = one_lane.GlobalSlot("v_in");
  ASSERT_GE(in_slot, 0);
  const int bias_slot = one_lane.GlobalSlot("u_bias");
  const int mode_slot = one_lane.GlobalSlot("u_mode");
  const int color_slot = one_lane.GlobalSlot("gl_FragColor");
  ASSERT_GE(color_slot, 0);

  // Uniforms land in the shared store of both engines, which every lane
  // reads (as the gles2 sync path does too).
  for (VmExec* e : {&one_lane, &batch}) {
    if (bias_slot >= 0) {
      Value& v = e->GlobalAt(bias_slot);
      v.SetF(0, 0.25f); v.SetF(1, -0.5f); v.SetF(2, 1.5f); v.SetF(3, 0.125f);
    }
    if (mode_slot >= 0) e->GlobalAt(mode_slot).SetF(0, 0.75f);
  }

  // One-lane reference: one RunBatch(1) per lane, fragment-sequential.
  alu_s.ResetCounts();
  std::vector<bool> ref_kept;
  std::vector<std::array<std::uint32_t, 4>> ref_color;
  const PlaneDst s_in = one_lane.LaneGlobal(in_slot);
  const PlaneDst s_color = one_lane.LaneGlobal(color_slot);
  for (int l = 0; l < lanes; ++l) {
    const std::array<float, 4> in = LaneInput(l);
    for (int k = 0; k < 4; ++k) {
      s_in.at(k, 0).f = in[static_cast<std::size_t>(k)];
    }
    ref_kept.push_back(one_lane.RunBatch(1) != 0);
    ref_color.push_back(
        {FloatToBits(s_color.at(0, 0).f), FloatToBits(s_color.at(1, 0).f),
         FloatToBits(s_color.at(2, 0).f), FloatToBits(s_color.at(3, 0).f)});
  }
  const OpCounts want = alu_s.counts();

  // Batched: same lanes in one RunBatch.
  alu_b.ResetCounts();
  const PlaneDst in_plane = batch.LaneGlobal(in_slot);
  for (int l = 0; l < lanes; ++l) {
    const std::array<float, 4> in = LaneInput(l);
    for (int k = 0; k < 4; ++k) {
      in_plane.at(k, l).f = in[static_cast<std::size_t>(k)];
    }
  }
  const std::uint32_t kept = batch.RunBatch(lanes);
  const OpCounts got = alu_b.counts();

  const PlaneDst color = batch.LaneGlobal(color_slot);
  for (int l = 0; l < lanes; ++l) {
    const bool lane_kept = ((kept >> static_cast<unsigned>(l)) & 1u) != 0;
    EXPECT_EQ(lane_kept, ref_kept[static_cast<std::size_t>(l)])
        << "lane " << l << " discard disagreement";
    if (!lane_kept) continue;
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(FloatToBits(color.at(k, l).f),
                ref_color[static_cast<std::size_t>(l)]
                         [static_cast<std::size_t>(k)])
          << "lane " << l << " component " << k;
    }
  }
  EXPECT_EQ(got.alu, want.alu) << "alu count";
  EXPECT_EQ(got.sfu, want.sfu) << "sfu count";
  EXPECT_EQ(got.sfu_trans, want.sfu_trans) << "sfu_trans count";
  EXPECT_EQ(got.tmu, want.tmu) << "tmu count";
}

TEST(VmBatchDifferentialTest, AllTailSizesMatchScalarExactAlu) {
  for (const BatchCase& c : BatchCorpus()) {
    for (int lanes = 1; lanes <= kVmLanes; ++lanes) {
      ExpectBatchMatchesScalar(c, lanes, BatchAlu::kExact);
    }
  }
}

TEST(VmBatchDifferentialTest, AllTailSizesMatchScalarVc4Alu) {
  for (const BatchCase& c : BatchCorpus()) {
    for (int lanes = 1; lanes <= kVmLanes; ++lanes) {
      ExpectBatchMatchesScalar(c, lanes, BatchAlu::kVc4);
    }
  }
}

TEST(VmBatchDifferentialTest, AllTailSizesMatchScalarMali400Alu) {
  for (const BatchCase& c : BatchCorpus()) {
    for (int lanes = 1; lanes <= kVmLanes; ++lanes) {
      ExpectBatchMatchesScalar(c, lanes, BatchAlu::kMali400);
    }
  }
}

TEST(VmBatchDifferentialTest, RepeatedBatchesReuseStateCorrectly) {
  // Back-to-back batches on one engine (the steady-state draw-loop shape):
  // later batches must not see residue from earlier ones.
  const BatchCase c = BatchCorpus()[3];  // divergent loop trip counts
  for (int round = 0; round < 3; ++round) {
    ExpectBatchMatchesScalar(c, kVmLanes, BatchAlu::kExact);
  }
  CompileResult cr = CompileGlsl(c.source, Stage::kFragment);
  ASSERT_TRUE(cr.ok);
  std::shared_ptr<const VmProgram> prog = LowerToBytecode(*cr.shader);
  ExactAlu alu_s, alu_b;
  VmExec one_lane(prog, alu_s);
  VmExec batch(prog, alu_b);
  const int in_slot = one_lane.GlobalSlot("v_in");
  const int color_slot = one_lane.GlobalSlot("gl_FragColor");
  for (int round = 0; round < 4; ++round) {
    const int lanes = 1 + (round * 5) % kVmLanes;  // varying tails per round
    const PlaneDst bv = batch.LaneGlobal(in_slot);
    for (int l = 0; l < lanes; ++l) {
      const float base = static_cast<float>(round) * 0.21f;
      for (int k = 0; k < 4; ++k) {
        bv.at(k, l).f =
            fract_helper(base + static_cast<float>(l * 4 + k) * 0.17f);
      }
    }
    const std::uint32_t kept = batch.RunBatch(lanes);
    const PlaneDst bc = batch.LaneGlobal(color_slot);
    const PlaneDst sv = one_lane.LaneGlobal(in_slot);
    const PlaneDst sc = one_lane.LaneGlobal(color_slot);
    for (int l = 0; l < lanes; ++l) {
      for (int k = 0; k < 4; ++k) sv.at(k, 0).f = bv.at(k, l).f;
      const bool ref_kept = one_lane.RunBatch(1) != 0;
      EXPECT_EQ(((kept >> static_cast<unsigned>(l)) & 1u) != 0, ref_kept);
      if (!ref_kept) continue;
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(FloatToBits(bc.at(k, l).f), FloatToBits(sc.at(k, 0).f))
            << "round " << round << " lane " << l << " comp " << k;
      }
    }
  }
}

// The constructor runs the const-init chunk one lane wide with every global
// in the shared store, and only then fills the lane planes from it. `g_acc`
// has an initializer and main() writes it, so it owns a lane plane that must
// hold the initializer in every lane before the first batch, in the engine
// and in a clone. `kRows` is a const table that main() indexes
// dynamically, so it stays in the shared store. At widths 1 and kVmLanes the
// lanes must match the tree walker lane by lane, run after run.
TEST(VmExecTest, ConstInitFillsLanePlanesBeforeTheFirstBatch) {
  auto shader = testutil::MustCompile(R"(precision highp float;
varying vec4 v_in;
const mat3 kRows = mat3(0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5);
float g_acc = 0.75 * 3.0;
void main() {
  int j = int(mod(v_in.x * 11.0, 3.0));
  g_acc += kRows[j].y * v_in.y;
  gl_FragColor = vec4(g_acc, kRows[j].x, v_in.z, 1.0);
})");
  const std::shared_ptr<const VmProgram> prog = LowerToBytecode(*shader);
  const int acc_slot = prog->GlobalSlot("g_acc");
  const int rows_slot = prog->GlobalSlot("kRows");
  ASSERT_GE(acc_slot, 0);
  ASSERT_GE(rows_slot, 0);
  ASSERT_NE(prog->lane_global[static_cast<std::size_t>(acc_slot)], 0);
  ASSERT_EQ(prog->lane_global[static_cast<std::size_t>(rows_slot)], 0);

  ExactAlu alu_base, alu_clone;
  VmExec base(prog, alu_base);
  const std::unique_ptr<ShaderEngine> clone = base.Clone(alu_clone);
  for (ShaderEngine* e : {static_cast<ShaderEngine*>(&base), clone.get()}) {
    const PlaneDst acc = e->LaneGlobal(acc_slot);
    const PlaneDst rows = e->LaneGlobal(rows_slot);
    for (int l = 0; l < kVmLanes; ++l) {
      EXPECT_EQ(acc.at(0, l).f, 2.25f) << "g_acc lane " << l;
      for (int c = 0; c < 9; ++c) {
        EXPECT_EQ(rows.at(c, l).f, 0.5f + static_cast<float>(c))
            << "kRows cell " << c << " lane " << l;
      }
    }
  }

  for (const int width : {1, kVmLanes}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    ExactAlu alu_t, alu_v;
    ShaderExec tree(*shader, alu_t);
    VmExec vm(prog, alu_v);
    const PlaneDst v_in = vm.LaneGlobal(vm.GlobalSlot("v_in"));
    const PlaneDst color = vm.LaneGlobal(vm.GlobalSlot("gl_FragColor"));
    const PlaneDst t_in = tree.LaneGlobal(tree.GlobalSlot("v_in"));
    const PlaneDst t_color = tree.LaneGlobal(tree.GlobalSlot("gl_FragColor"));
    const std::uint32_t all = width == kVmLanes ? ~0u : 1u;
    for (int round = 0; round < 3; ++round) {
      alu_t.ResetCounts();
      alu_v.ResetCounts();
      for (int lo = 0; lo < kVmLanes; lo += width) {
        for (int l = 0; l < width; ++l) {
          const std::array<float, 4> in = LaneInput(lo + l + round * 7);
          for (int k = 0; k < 4; ++k) {
            v_in.at(k, l).f = in[static_cast<std::size_t>(k)];
          }
        }
        ASSERT_EQ(vm.RunBatch(width), all);
        for (int l = 0; l < width; ++l) {
          const std::array<float, 4> in = LaneInput(lo + l + round * 7);
          for (int k = 0; k < 4; ++k) {
            t_in.at(k, 0).f = in[static_cast<std::size_t>(k)];
          }
          ASSERT_EQ(tree.RunBatch(1), 1u);
          for (int k = 0; k < 4; ++k) {
            EXPECT_EQ(FloatToBits(color.at(k, l).f),
                      FloatToBits(t_color.at(k, 0).f))
                << "round " << round << " lane " << lo + l << " comp " << k;
          }
        }
      }
      EXPECT_EQ(alu_v.counts().alu, alu_t.counts().alu) << "round " << round;
      EXPECT_EQ(alu_v.counts().sfu, alu_t.counts().sfu) << "round " << round;
    }
  }
}

// The lane pass gives a global per-lane planes iff a fragment supplies it
// or the run chunk writes it; everything else stays in the shared store.
TEST(VmLaneStorageTest, PerLaneGlobalsAreInputsAndWrittenGlobals) {
  const std::string src = R"(precision highp float;
varying vec4 v_in;
uniform vec4 u_bias;
const vec4 kRead = vec4(0.5, 1.5, 2.5, 3.5);
float g_reinit = 0.25;
float g_tbl[4];
void main() {
  int j = int(mod(v_in.x * 11.0, 4.0));
  g_tbl[j] = v_in.y;
  g_reinit += kRead[j] + gl_FragCoord.x;
  gl_FragColor = vec4(g_tbl[j], g_reinit, 0.0, 1.0) + u_bias;
})";
  CompileResult cr = CompileGlsl(src, Stage::kFragment);
  ASSERT_TRUE(cr.ok) << cr.info_log;
  std::shared_ptr<const VmProgram> prog = LowerToBytecode(*cr.shader);
  ASSERT_EQ(prog->lane_global.size(), prog->globals.size());
  const auto per_lane = [&](const char* name) {
    const int slot = prog->GlobalSlot(name);
    EXPECT_GE(slot, 0) << name;
    return slot >= 0 && prog->lane_global[static_cast<std::size_t>(slot)] != 0;
  };
  EXPECT_TRUE(per_lane("v_in")) << "varying";
  EXPECT_TRUE(per_lane("gl_FragCoord")) << "per-fragment builtin input";
  EXPECT_TRUE(per_lane("gl_FragColor")) << "output";
  EXPECT_TRUE(per_lane("g_reinit")) << "re-initialized plain global";
  EXPECT_TRUE(per_lane("g_tbl")) << "table written through a dynamic index";
  EXPECT_FALSE(per_lane("u_bias")) << "uniform";
  EXPECT_FALSE(per_lane("kRead")) << "const table only read";
}

}  // namespace
}  // namespace mgpu::glsl
