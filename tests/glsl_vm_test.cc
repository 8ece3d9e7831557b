// Differential harness for the bytecode VM: every shader in the corpus runs
// through BOTH engines — the tree-walking ShaderExec oracle and the bytecode
// VmExec, one lane wide — and must produce bit-identical outputs and
// identical AluModel op counts. The lane-batched section below then checks
// the VM at every width 1..kVmLanes against its own one-lane runs. The corpus covers the same ground as the conformance suite
// (expressions, control flow, functions, arrays, swizzled stores) plus
// VM-specific hazards (register clobbering across calls, side effects in
// argument lists, discard inside helpers).
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/strings.h"
#include "gles2/context.h"
#include "glsl/compile.h"
#include "glsl/interp.h"
#include "glsl/ir.h"
#include "glsl/vm.h"
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
  TextureFn texture;
  if (c.with_texture) {
    texture = testutil::PerTexel([](int unit, float s, float t, float lod) {
      return std::array<float, 4>{s * 0.5f + static_cast<float>(unit) * 0.125f,
                                  t * 0.25f, s + t, lod + 0.75f};
    });
  }
  alu.ResetCounts();
  r.kept = exec.RunBatch(1, alu, texture) != 0;
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

  const AluModel model =
      vc4_alu ? vc4::ProfileAlu(vc4::VideoCoreIV()) : AluModel{};
  AluModel alu_interp = model;
  AluModel alu_vm = model;

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

  // Component aliases (one-component and contiguous swizzles read in
  // place) must still see the value from before a later sibling's store.
  add("alias_read_before_later_argument_stores", R"(
precision highp float;
float bump(inout vec4 q) { q = q.wxyz + vec4(1.0); return q.y; }
float pair(float a, float b) { return a * 2.0 - b; }
void main() {
  vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
  float r = pair(v.x, bump(v));
  float s = pair(v.yz.y, v.w += 0.5);
  v += v.x;
  v.yz = v.xy;
  gl_FragColor = vec4(r, s, v.y, v.z);
}
)");
  // Global initializers read component aliases of other globals in the
  // construction-time chunk (shared store) and again in the per-run
  // re-initialization (lane planes).
  add("global_initializers_read_aliases", R"(
precision highp float;
const vec4 K = vec4(1.0, 2.0, 3.0, 4.0);
vec4 g_a = K * 0.5;
float g_b = g_a.z;
vec3 g_tail = K.yzw + g_a.xyz;
void main() {
  g_tail.y += g_b;
  gl_FragColor = vec4(g_tail.xy, g_b, g_a.w + K.x);
}
)");
  // An `in` parameter reads its argument in place only when nothing in
  // the body can change it: here the body stores into the argument's
  // global first.
  add("in_param_keeps_global_argument_value", R"(
precision highp float;
vec4 g = vec4(1.0, 2.0, 3.0, 4.0);
float h(float x, vec3 w) { g = g.wzyx * 2.0; return x + w.y * 10.0; }
void main() {
  float r = h(g.x, g.yzw);
  gl_FragColor = vec4(r, g.x, g.w, 1.0);
}
)");
  // The first argument must not land in the parameter register before a
  // later argument's call into the same function has used it.
  add("argument_outlives_nested_call_of_same_function", R"(
precision highp float;
uniform vec4 u_v;
float f(float x, float y) { x = x * 0.5; return x + y; }
void main() {
  float r = f(u_v.x * 3.0 + 1.0, f(u_v.y + 5.0, 1.0));
  gl_FragColor = vec4(r, 0.0, 0.0, 1.0);
}
)");
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

TEST(VmDifferentialTest, CallDepthLimitIsACompileError) {
  // 64 nested user calls compile, inline and run identically on both
  // engines; 65 are rejected by sema, for every engine alike.
  {
    auto shader = testutil::MustCompile(DeepCallProgram(64));
    AluModel alu_a, alu_b;
    ShaderExec interp(*shader, alu_a);
    VmExec vm(LowerToBytecode(*shader), alu_b);
    ASSERT_TRUE(interp.Run(alu_a, {}));
    ASSERT_EQ(vm.RunBatch(1, alu_b, {}), 1u);
    EXPECT_EQ(interp.GlobalAt(interp.GlobalSlot("gl_FragColor")).F(0),
              vm.LaneGlobal(vm.GlobalSlot("gl_FragColor")).at(0, 0).f);
    EXPECT_EQ(alu_a.counts().alu, alu_b.counts().alu);
  }
  const CompileResult deep =
      CompileGlsl(DeepCallProgram(65), Stage::kFragment);
  EXPECT_FALSE(deep.ok);
  EXPECT_NE(deep.info_log.find("user function calls nest 65 deep, past the "
                               "limit of 64"),
            std::string::npos)
      << deep.info_log;
}

// A call graph that doubles at every level inlines to 2^31 copies of its
// leaf; sema's memoized walk rejects it without visiting them.
TEST(VmDifferentialTest, ExponentialInlinedSizeIsACompileError) {
  const CompileResult r = CompileGlsl(
      "precision highp float;\n" + testutil::FanOutCalls(32) +
          "void main() { gl_FragColor = vec4(fan31(1.0)); }\n",
      Stage::kFragment);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.info_log.find("shader too large"), std::string::npos)
      << r.info_log;
}

// Drawing code journals framebuffer writes only for trap-capable programs.
// Every call is inlined, so no call chain the compiler accepts can trap,
// not even one at the depth limit.
TEST(VmProgramTest, CallChainsCannotTrap) {
  EXPECT_FALSE(LowerToBytecode(*testutil::MustCompile(DeepCallProgram(64)))
                   ->CanTrap());
  auto helper = testutil::MustCompile(R"(
precision highp float;
float twice(float x) { return x * 2.0; }
void main() { gl_FragColor = vec4(twice(gl_FragCoord.x)); }
)");
  EXPECT_FALSE(LowerToBytecode(*helper)->CanTrap());
}

// A function nothing calls emits no code: a loop in a helper nothing calls
// cannot make the program trap-capable.
TEST(VmProgramTest, UncalledHelperLoopDoesNotMakeProgramTrapCapable) {
  auto shader = testutil::MustCompile(R"(
precision highp float;
float unused(float x) { for (int i = 0; i < 4; ++i) { x += 1.0; } return x; }
void main() { gl_FragColor = vec4(gl_FragCoord.x); }
)");
  EXPECT_FALSE(LowerToBytecode(*shader)->CanTrap());
}

// The shape the lowering passes leave a gemm-like kernel in: an unpack
// with early returns inside a fetch, both inlined twice per iteration of
// a loop over K.
const char kGemmLike[] = R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_a;
float unpack(vec4 t) {
  vec4 b = floor(t * 255.0 + vec4(0.5));
  if (b.a == 0.0) { return 0.0; }
  float hi = b.b < 128.0 ? b.b : b.b - 128.0;
  return b.r + b.g * 256.0 + hi * 65536.0;
}
float fetch(float x, float y) {
  return unpack(texture2D(u_a, (vec2(x, y) + 0.5) / 16.0));
}
void main() {
  float acc = 0.0;
  for (int k = 0; k < 16; ++k) {
    acc += fetch(float(k), v_uv.y) * fetch(v_uv.x, float(k));
  }
  gl_FragColor = vec4(acc, v_uv.xy, 1.0);
}
)";

TEST(VmLoweringShapeTest, NoJumpToTheNextInstruction) {
  auto prog = LowerToBytecode(*testutil::MustCompile(kGemmLike));
  for (std::size_t pc = 0; pc < prog->code.size(); ++pc) {
    const VmInst& in = prog->code[pc];
    if (in.op == VmOp::kJump || in.op == VmOp::kJumpIfFalse ||
        in.op == VmOp::kJumpIfTrue) {
      EXPECT_NE(in.aux, pc + 1) << "pc " << pc;
    }
  }
}

TEST(VmLoweringShapeTest, OnlyPermutingSwizzlesShuffle) {
  auto prog = LowerToBytecode(*testutil::MustCompile(kGemmLike));
  EXPECT_FALSE(prog->aliases.empty());  // b.a, b.b, v_uv.xy, ...
  for (const VmInst& in : prog->code) {
    if (in.op != VmOp::kShuffle) continue;
    bool contiguous = true;
    for (int k = 1; k < in.n; ++k) {
      contiguous = contiguous && ((in.aux >> (8 * k)) & 0xffu) ==
                                     (in.aux & 0xffu) + static_cast<unsigned>(k);
    }
    EXPECT_FALSE(contiguous) << "shuffle of " << in.n << " component(s)";
  }
}

TEST(VmLoweringShapeTest, ResultZeroOnlyWhenAPathFallsOffTheEnd) {
  // unpack and fetch return on every path and the kernel declares no
  // uninitialized local, so nothing is zeroed.
  auto gemm = LowerToBytecode(*testutil::MustCompile(kGemmLike));
  for (const VmInst& in : gemm->code) EXPECT_NE(in.op, VmOp::kZero);
  for (const char* src : {R"(
precision highp float;
float maybe(float x) { if (x > 0.0) { return x * 2.0; } }
void main() { gl_FragColor = vec4(maybe(3.0), maybe(-3.0), 0.0, 0.0); }
)", R"(
precision highp float;
float risky(float x) { if (x > 0.0) { discard; } return 5.0; }
void main() { gl_FragColor = vec4(risky(1.0), risky(-1.0), 0.0, 1.0); }
)"}) {
    auto prog = LowerToBytecode(*testutil::MustCompile(src));
    int zeros = 0;
    for (const VmInst& in : prog->code) zeros += in.op == VmOp::kZero;
    EXPECT_EQ(zeros, 2) << src;  // one per call site
  }
}

// A local nothing stores into after its initializer reads the
// initializer's operand in place when nothing in its scope stores into
// that operand (the f32 unpack's `float expo = b.a;`); a local stored to
// later, or one whose source is stored to while it lives, keeps its copy.
TEST(VmLoweringShapeTest, UnwrittenLocalReadsItsInitializerInPlace) {
  const auto copies_of_alias = [](const std::string& body) {
    auto prog = LowerToBytecode(*testutil::MustCompile(
        "precision highp float;\nvarying vec4 v_in;\n" + body));
    int n = 0;
    for (const VmInst& in : prog->code) {
      n += in.op == VmOp::kCopy && (in.a & (3u << 30)) == kSpaceAlias;
    }
    return n;
  };
  EXPECT_EQ(copies_of_alias(R"(
float unpack(vec4 t) {
  vec4 b = floor(t * 255.0 + vec4(0.5));
  float expo = b.a;
  if (expo == 0.0) { return 0.0; }
  return expo * 2.0 + b.r;
}
void main() { gl_FragColor = vec4(unpack(v_in), unpack(v_in.wzyx), 0.0, 1.0); }
)"),
            0);
  EXPECT_EQ(copies_of_alias(R"(
void main() {
  vec4 b = v_in * 2.0;
  float e = b.a;
  e += 1.0;
  gl_FragColor = vec4(e);
}
)"),
            1);
  EXPECT_EQ(copies_of_alias(R"(
void main() {
  vec4 b = v_in * 2.0;
  float e = b.a;
  b.a = 3.0;
  gl_FragColor = vec4(e, b.a, 0.0, 1.0);
}
)"),
            1);
}

TEST(VmDifferentialTest, LocalsReadInPlaceKeepTheirValues) {
  for (const char* body : {R"(
  vec4 b = vec4(1.5, 2.5, 3.5, 4.5);
  float e = b.a;
  b.a = 3.0;
  float k = 2.0;
  vec2 uv = b.xy;
  for (int i = 0; i < 3; ++i) {
    float f = e + float(i);
    b.x += f * k;
  }
  gl_FragColor = vec4(e, b.a, b.x, uv.y);)",
                           R"(
  float s = 0.0;
  for (int i = 0; i < 4; ++i) {
    vec2 v = vec2(float(i), 1.0);
    float w = v.x;
    s += w * v.y;
  }
  gl_FragColor = vec4(s);)"}) {
    ExpectEnginesAgree({"in-place locals", Frag(body), {}, {}});
  }
}

TEST(VmExecTest, RunawayLoopRaisesRuntimeError) {
  auto shader = testutil::MustCompile(
      "precision highp float;\nvoid main() { float a = 0.0; while (true) { a "
      "+= 1.0; } gl_FragColor = vec4(a); }");
  AluModel alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  EXPECT_THROW(vm.RunBatch(1, alu, {}), ShaderRuntimeError);
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
  AluModel alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  vm.GlobalAt(vm.GlobalSlot("u_sel")).SetF(0, 0.0f);
  EXPECT_EQ(vm.RunBatch(1, alu, {}), 1u);
  EXPECT_FLOAT_EQ(vm.LaneGlobal(vm.GlobalSlot("gl_FragColor")).at(0, 0).f,
                  2.0f);
  vm.GlobalAt(vm.GlobalSlot("u_sel")).SetF(0, 1.0f);
  EXPECT_THROW(vm.RunBatch(1, alu, {}), ShaderRuntimeError);
}

TEST(VmExecTest, RunIsRepeatableAfterStateChange) {
  auto shader = testutil::MustCompile(
      "precision highp float;\nuniform float u_x;\nvoid main() { "
      "gl_FragColor = vec4(u_x * u_x); }");
  AluModel alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  for (float x : {1.0f, 2.0f, 3.0f, 4.0f}) {
    vm.GlobalAt(vm.GlobalSlot("u_x")).SetF(0, x);
    ASSERT_EQ(vm.RunBatch(1, alu, {}), 1u);
    EXPECT_FLOAT_EQ(vm.LaneGlobal(vm.GlobalSlot("gl_FragColor")).at(0, 0).f,
                    x * x);
  }
}

TEST(VmExecTest, VertexStageWritesPosition) {
  auto shader = testutil::MustCompile(
      "attribute vec4 a_pos;\nvoid main() { gl_Position = a_pos * 2.0; }",
      Stage::kVertex);
  AluModel alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  const PlaneDst attr = vm.LaneGlobal(vm.GlobalSlot("a_pos"));
  attr.at(0, 0).f = 0.5f;
  attr.at(1, 0).f = -0.5f;
  attr.at(2, 0).f = 0.0f;
  attr.at(3, 0).f = 1.0f;
  ASSERT_EQ(vm.RunBatch(1, alu, {}), 1u);
  const PlaneDst pos = vm.LaneGlobal(vm.GlobalSlot("gl_Position"));
  EXPECT_FLOAT_EQ(pos.at(0, 0).f, 1.0f);
  EXPECT_FLOAT_EQ(pos.at(1, 0).f, -1.0f);
}

// Construction runs the global initializers once and charges their ops
// exactly as the oracle's construction does, without counting VM steps.
TEST(VmExecTest, ConstructionChargesInitializerOpsLikeTheOracle) {
  auto shader = testutil::MustCompile(R"(
precision highp float;
const float kA = 1.0 + 2.0;
float plain = kA * 3.0;
float root = sqrt(kA);
void main() { gl_FragColor = vec4(plain, root, 0.0, 1.0); }
)");
  AluModel alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  AluModel oracle_alu;
  ShaderExec oracle(*shader, oracle_alu);
  EXPECT_GT(alu.counts().alu, 0u);
  EXPECT_EQ(alu.counts().alu, oracle_alu.counts().alu);
  EXPECT_EQ(alu.counts().sfu, oracle_alu.counts().sfu);
  EXPECT_EQ(alu.counts().sfu_trans, oracle_alu.counts().sfu_trans);
  EXPECT_EQ(alu.counts().tmu, oracle_alu.counts().tmu);
  EXPECT_EQ(alu.counts().vm_steps, 0u);
  // And the per-run re-initialization of `plain` IS charged, matching the
  // oracle's Run().
  oracle_alu.ResetCounts();
  ASSERT_TRUE(oracle.Run(oracle_alu, {}));
  alu.ResetCounts();
  ASSERT_EQ(vm.RunBatch(1, alu, {}), 1u);
  EXPECT_EQ(alu.counts().alu, oracle_alu.counts().alu);
}

// --- full gles2 draw path: one context per engine ---------------------------

// Compiles and links `vs_src` + `fs_src` on `gl`; 0 when either fails.
gles2::GLuint LinkOnContext(gles2::Context& gl, const char* vs_src,
                            const char* fs_src) {
  using namespace mgpu::gles2;
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
  EXPECT_EQ(ok, GL_TRUE) << gl.GetProgramInfoLog(prog);
  return ok == GL_TRUE ? prog : 0;
}

TEST(VmGles2Test, DrawsAreByteIdenticalAcrossEngines) {
  using namespace mgpu::gles2;
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
  const float quad[12] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};

  // The engine is fixed per context, so each engine draws on its own.
  auto draw_and_read = [&](ExecEngine engine, glsl::OpCounts* counts) {
    glsl::AluModel alu = vc4::ProfileAlu(vc4::VideoCoreIV());
    ContextConfig cfg;
    cfg.width = 32;
    cfg.height = 32;
    cfg.exec_engine = engine;
    Context gl(cfg, &alu);
    const GLuint prog = LinkOnContext(gl, vs_src, fs_src);
    gl.UseProgram(prog);
    gl.Uniform1f(gl.GetUniformLocation(prog, "u_gain"), 0.8f);
    const GLuint loc =
        static_cast<GLuint>(gl.GetAttribLocation(prog, "a_pos"));
    gl.EnableVertexAttribArray(loc);
    gl.VertexAttribPointer(loc, 2, GL_FLOAT, GL_FALSE, 0, quad);
    alu.ResetCounts();
    gl.DrawArrays(GL_TRIANGLES, 0, 6);
    *counts = alu.counts();
    std::vector<std::uint8_t> px(32 * 32 * 4);
    gl.ReadPixels(0, 0, 32, 32, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
    EXPECT_EQ(gl.GetError(), static_cast<GLenum>(GL_NO_ERROR));
    return px;
  };

  glsl::OpCounts tree_counts;
  const auto tree_px = draw_and_read(ExecEngine::kTreeWalk, &tree_counts);
  EXPECT_GT(tree_counts.alu, 0u);
  for (const ExecEngine engine :
       {ExecEngine::kBytecodeVm, ExecEngine::kBatchedVm}) {
    SCOPED_TRACE(static_cast<int>(engine));
    glsl::OpCounts vm_counts;
    const auto vm_px = draw_and_read(engine, &vm_counts);
    EXPECT_EQ(vm_px, tree_px);
    EXPECT_EQ(vm_counts.alu, tree_counts.alu);
    EXPECT_EQ(vm_counts.sfu, tree_counts.sfu);
    EXPECT_EQ(vm_counts.sfu_trans, tree_counts.sfu_trans);
    EXPECT_EQ(vm_counts.tmu, tree_counts.tmu);
    EXPECT_EQ(vm_counts.tmu_miss, tree_counts.tmu_miss);
  }
}

// A link builds only the context's engine for each stage, and that
// engine's construction charges the global initializers' ops: the same
// ALU/SFU/TMU counts on every engine, and no VM batch steps.
TEST(VmGles2Test, LinkChargesGlobalInitializersEquallyOnEveryEngine) {
  using namespace mgpu::gles2;
  const char* vs_src =
      "attribute vec2 a_pos;\n"
      "float g_scale = 3.0 / 7.0 + sqrt(2.0);\n"
      "void main() { gl_Position = vec4(a_pos * g_scale, 0.0, 1.0); }\n";
  const char* fs_src =
      "precision highp float;\n"
      "const vec3 kDir = normalize(vec3(1.0, 2.0, 2.0));\n"
      "float g_gain = exp2(1.5) * kDir.y + 0.25;\n"
      "void main() { gl_FragColor = vec4(kDir, g_gain); }\n";

  auto link_counts = [&](ExecEngine engine) {
    SCOPED_TRACE(static_cast<int>(engine));
    glsl::AluModel alu = vc4::ProfileAlu(vc4::VideoCoreIV());
    ContextConfig cfg;
    cfg.exec_engine = engine;
    Context gl(cfg, &alu);
    // Compiling never touches the ALU model: every op counted is the link's.
    EXPECT_NE(LinkOnContext(gl, vs_src, fs_src), 0u);
    return alu.counts();
  };

  const glsl::OpCounts tree = link_counts(ExecEngine::kTreeWalk);
  EXPECT_GT(tree.alu, 0u);
  EXPECT_GT(tree.sfu, 0u);
  EXPECT_GT(tree.sfu_trans, 0u);
  EXPECT_EQ(tree.vm_steps, 0u);
  for (const ExecEngine engine :
       {ExecEngine::kBytecodeVm, ExecEngine::kBatchedVm}) {
    SCOPED_TRACE(static_cast<int>(engine));
    const glsl::OpCounts vm = link_counts(engine);
    EXPECT_EQ(vm.alu, tree.alu);
    EXPECT_EQ(vm.sfu, tree.sfu);
    EXPECT_EQ(vm.sfu_trans, tree.sfu_trans);
    EXPECT_EQ(vm.tmu, tree.tmu);
    EXPECT_EQ(vm.vm_steps, 0u) << "a link runs no VM batch steps";
  }
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
  // --- helpers called from both sides of a divergent if: each side
  // inlines its own instances, one helper (before main) with an out
  // parameter and an early return, the other (declared before main and
  // defined after it) through its prototype -------------------------------
  cases.push_back(
      {"calls_from_both_sides_of_divergent_if",
       R"(precision highp float;
varying vec4 v_in;
uniform float u_mode;
float before_main(float x, out float extra) {
  extra = x * 0.5;
  if (x > 0.25) return sin(x);
  return cos(x) + 1.0;
}
float after_main(float x);
void main() {
  float e = 0.0;
  float r = 0.0;
  if (v_in.x > 0.5) {
    r += before_main(v_in.y, e) + after_main(v_in.z);
  } else {
    r += before_main(v_in.z, e) * 2.0 + after_main(v_in.w) * 0.5;
  }
  gl_FragColor = vec4(r, e, v_in.w, 1.0);
}
float after_main(float x) { return fract(x * 7.0) + x; }
)"});
  cases.push_back(
      {"alias_argument_before_later_store",
       R"(precision highp float;
varying vec4 v_in;
float bump(inout vec4 q) { q = q.wxyz * 1.5 + vec4(v_in.x); return q.y; }
float pair(float a, float b) { return a * 2.0 - b; }
void main() {
  vec4 v = v_in;
  // v.x is read in place; the later argument stores into v first.
  float r = pair(v.x, bump(v));
  float s = pair(v.yz.y, v.w += v_in.z);
  v += v.x;
  gl_FragColor = vec4(r, s, v.y, v.w);
})"});
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

AluModel MakeBatchAlu(BatchAlu kind) {
  switch (kind) {
    case BatchAlu::kVc4:
      return vc4::ProfileAlu(vc4::VideoCoreIV());
    case BatchAlu::kMali400:
      return vc4::ProfileAlu(vc4::Mali400());
    default:
      return AluModel{};
  }
}

void ExpectBatchMatchesScalar(const BatchCase& c, int lanes, BatchAlu kind) {
  SCOPED_TRACE(std::string(c.label) + " lanes=" + std::to_string(lanes) +
               " alu=" + std::to_string(static_cast<int>(kind)));
  CompileResult cr = CompileGlsl(c.source, Stage::kFragment);
  ASSERT_TRUE(cr.ok) << cr.info_log;
  std::shared_ptr<const VmProgram> prog = LowerToBytecode(*cr.shader);

  AluModel alu_s = MakeBatchAlu(kind);
  AluModel alu_b = MakeBatchAlu(kind);
  VmExec one_lane(prog, alu_s);
  VmExec batch(prog, alu_b);

  TextureFn texture;
  if (c.with_texture) {
    texture = testutil::PerTexel([](int unit, float s, float t, float lod) {
      return std::array<float, 4>{s * 0.5f + static_cast<float>(unit) * 0.125f,
                                  t * 0.25f, s + t, lod + 0.75f};
    });
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
    ref_kept.push_back(one_lane.RunBatch(1, alu_s, texture) != 0);
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
  const std::uint32_t kept = batch.RunBatch(lanes, alu_b, texture);
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
  AluModel alu_s, alu_b;
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
    const std::uint32_t kept = batch.RunBatch(lanes, alu_b, {});
    const PlaneDst bc = batch.LaneGlobal(color_slot);
    const PlaneDst sv = one_lane.LaneGlobal(in_slot);
    const PlaneDst sc = one_lane.LaneGlobal(color_slot);
    for (int l = 0; l < lanes; ++l) {
      for (int k = 0; k < 4; ++k) sv.at(k, 0).f = bv.at(k, l).f;
      const bool ref_kept = one_lane.RunBatch(1, alu_s, {}) != 0;
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

  AluModel alu_base;
  VmExec base(prog, alu_base);
  const std::unique_ptr<ShaderEngine> clone = base.Clone();
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
    AluModel alu_t, alu_v;
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
        ASSERT_EQ(vm.RunBatch(width, alu_v, {}), all);
        for (int l = 0; l < width; ++l) {
          const std::array<float, 4> in = LaneInput(lo + l + round * 7);
          for (int k = 0; k < 4; ++k) {
            t_in.at(k, 0).f = in[static_cast<std::size_t>(k)];
          }
          ASSERT_EQ(tree.RunBatch(1, alu_t, {}), 1u);
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

// A global that only an uncalled helper stores into is never written by
// the lowered code, so it stays in the shared store.
TEST(VmLaneStorageTest, GlobalWrittenOnlyByUncalledHelperStaysShared) {
  auto shader = testutil::MustCompile(R"(precision highp float;
float g_t;
void unused() { g_t = 1.0; }
void main() { gl_FragColor = vec4(g_t); }
)");
  std::shared_ptr<const VmProgram> prog = LowerToBytecode(*shader);
  const int slot = prog->GlobalSlot("g_t");
  ASSERT_GE(slot, 0);
  EXPECT_EQ(prog->lane_global[static_cast<std::size_t>(slot)], 0);
}

// ---------------------------------------------------------------------------
// Integer ops and conversions are total
// ---------------------------------------------------------------------------
//
// Two's-complement wrap for + - * and negation, INT_MIN / -1 == INT_MIN,
// x / 0 == 0, and INT_MIN for a float-to-int conversion of NaN or a value
// outside the int range — on both engines, so neither can trap the host.

constexpr std::int32_t kIntMin = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kIntMax = std::numeric_limits<std::int32_t>::max();

TEST(IntSemanticsTest, HelpersWrapAndDivideTotally) {
  EXPECT_EQ(IAdd(kIntMax, 1), kIntMin);
  EXPECT_EQ(ISub(kIntMin, 1), kIntMax);
  EXPECT_EQ(IMul(kIntMin, -1), kIntMin);
  EXPECT_EQ(IMul(65536, 65536), 0);
  EXPECT_EQ(INeg(kIntMin), kIntMin);
  EXPECT_EQ(IDiv(kIntMin, -1), kIntMin);
  EXPECT_EQ(IDiv(7, 0), 0);
  EXPECT_EQ(IDiv(-7, 2), -3);
  EXPECT_EQ(FloatToInt(std::numeric_limits<float>::quiet_NaN()), kIntMin);
  EXPECT_EQ(FloatToInt(3.0e9f), kIntMin);
  EXPECT_EQ(FloatToInt(-3.0e9f), kIntMin);
  EXPECT_EQ(FloatToInt(2147483648.0f), kIntMin);
  EXPECT_EQ(FloatToInt(-2147483648.0f), kIntMin);
  EXPECT_EQ(FloatToInt(2147483520.0f), 2147483520);
  EXPECT_EQ(FloatToInt(-7.9f), -7);
}

TEST(IntSemanticsTest, IntMinOverMinusOneRunsOnBothEngines) {
  Case c{"int_min_div", R"(precision highp float;
uniform int u_m;
uniform int u_d;
uniform float u_f;
void main() {
  int m = u_m - 1;
  int q = m / u_d;
  int n = -m;
  int w = u_m + u_m;
  int k = m;
  k--;
  int z = m / (u_d + 1);
  int c = int(u_f);
  gl_FragColor = vec4(float(q), float(n), float(w + k), float(z + c));
})",
         {{"u_f", {std::numeric_limits<float>::quiet_NaN()}}},
         {{"u_m", {-2147483647}}, {"u_d", {-1}}}};
  ExpectEnginesAgree(c);
  ExpectEnginesAgree(c, /*vc4_alu=*/true);

  CompileResult cr = CompileGlsl(c.source, Stage::kFragment);
  ASSERT_TRUE(cr.ok) << cr.info_log;
  AluModel alu;
  VmExec vm(LowerToBytecode(*cr.shader), alu);
  const EngineRun r = RunEngine(vm, alu, c);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(BitsToFloat(r.color[0]), -2147483648.0f);  // INT_MIN / -1
  EXPECT_EQ(BitsToFloat(r.color[1]), -2147483648.0f);  // -INT_MIN
  // (-2147483647 * 2 wraps to 2) + (INT_MIN - 1 wraps to INT_MAX).
  EXPECT_EQ(BitsToFloat(r.color[2]), static_cast<float>(IAdd(2, kIntMax)));
  // INT_MIN / 0 == 0, plus int(NaN) == INT_MIN.
  EXPECT_EQ(BitsToFloat(r.color[3]), -2147483648.0f);
}

// The constant initializer runs while the engines are built, i.e. while
// the program links.
TEST(IntSemanticsTest, ConstIntMinOverMinusOneLinks) {
  const std::string fs = R"(precision highp float;
const int k = (-2147483647 - 1) / -1;
void main() { gl_FragColor = vec4(float(k), 0.0, 0.0, 1.0); }
)";
  ExpectEnginesAgree({"const_int_min_div", fs, {}, {}});

  using namespace mgpu::gles2;
  glsl::AluModel alu = vc4::ProfileAlu(vc4::VideoCoreIV());
  ContextConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  Context gl(cfg, &alu);
  const GLuint vs = gl.CreateShader(GL_VERTEX_SHADER);
  gl.ShaderSource(vs, "attribute vec2 a_pos;\n"
                      "void main() { gl_Position = vec4(a_pos, 0.0, 1.0); }\n");
  gl.CompileShader(vs);
  const GLuint frag = gl.CreateShader(GL_FRAGMENT_SHADER);
  gl.ShaderSource(frag, fs.c_str());
  gl.CompileShader(frag);
  const GLuint prog = gl.CreateProgram();
  gl.AttachShader(prog, vs);
  gl.AttachShader(prog, frag);
  gl.LinkProgram(prog);
  GLint ok = GL_FALSE;
  gl.GetProgramiv(prog, GL_LINK_STATUS, &ok);
  EXPECT_EQ(ok, GL_TRUE) << gl.GetProgramInfoLog(prog);
}

// ---------------------------------------------------------------------------
// Kernel differential: batch kernels against the scalar evaluation core
// ---------------------------------------------------------------------------
//
// Every plane kernel runs once over a lane mask and must give, on each lane
// of the mask, the bits the scalar oracle (EvalArithInto, EvalNegInto,
// EvalCtorInto, EvalBuiltin) gives for that lane's operands, and the summed
// op counts; cells of lanes outside the mask are poisoned and must come
// back untouched. The operands mix special values — NaNs of both signs
// with different payloads (quiet and signaling), denormals of both signs,
// +-0, +-inf, the int range edges and -1 — with ordinary ones.

constexpr std::uint32_t kPoison = 0x7fbadbadu;

// Special bit patterns for float operands, then for int operands.
constexpr std::uint32_t kFloatSpecials[] = {
    0x7fc00000u, 0xffc00001u, 0x7fa00005u, 0xff800007u,  // NaNs
    0x00000001u, 0x80000001u, 0x007fffffu, 0x807fffffu,  // denormals
    0x00400000u, 0x80400000u, 0x00000000u, 0x80000000u,  // denormal, +-0
    0x7f800000u, 0xff800000u, 0x3f800000u, 0xbf800000u,  // +-inf, +-1
    0x7f7fffffu, 0x00800000u, 0x80800001u, 0x4b000000u,  // FLT_MAX, FLT_MIN
    0xcb000001u, 0x4f000000u, 0xcf000000u, 0x4effffffu,  // int range edges
    0xcf000001u, 0x3f000000u, 0xbf000000u, 0xbeffffffu,  // +-0.5
    0x00c00000u, 0x80c00000u, 0x42fe0000u, 0x437f0000u,  // near-denormal
};
constexpr std::int32_t kIntSpecials[] = {kIntMin, -1, 0,  1, kIntMax,
                                         -2,      2,  -7, 1000000};

class CellSource {
 public:
  explicit CellSource(std::uint64_t seed) : state_(seed) {}
  Cell Next(bool is_float) {
    const std::uint64_t r = NextBits();
    Cell c;
    if (is_float) {
      if ((r & 1u) != 0) {
        c.i = static_cast<std::int32_t>(
            kFloatSpecials[(r >> 8) % std::size(kFloatSpecials)]);
      } else {
        // Ordinary values of mixed magnitude, and sometimes one whose
        // products or quotients land in the denormal range.
        const float unit =
            static_cast<float>((r >> 16) & 0xffffu) / 32768.0f - 1.0f;
        const float scale = (r & 6u) == 6u ? 1.0e-20f : 64.0f;
        c.f = unit * scale;
      }
    } else {
      c.i = (r & 1u) != 0
                ? kIntSpecials[(r >> 8) % std::size(kIntSpecials)]
                : static_cast<std::int32_t>((r >> 16) % 2001u) - 1000;
    }
    return c;
  }

 private:
  std::uint64_t NextBits() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t state_;
};

// One kernel operand: a lane plane (kVmLanes cells per component) or
// storage shared by every lane (one cell per component, lane stride 0).
struct KernelOperand {
  Type type;
  bool shared = false;
  std::vector<Cell> cells;

  KernelOperand(Type t, bool is_shared, CellSource& src)
      : type(t), shared(is_shared) {
    const bool is_float = ScalarOf(t.base) == BaseType::kFloat;
    cells.resize(static_cast<std::size_t>(t.CellCount()) *
                 (shared ? 1 : kVmLanes));
    for (Cell& c : cells) c = src.Next(is_float);
  }
  [[nodiscard]] PlaneSrc View() const {
    return shared ? PlaneSrc{cells.data(), 1, 0, type}
                  : PlaneSrc{cells.data(), kVmLanes, 1, type};
  }
  [[nodiscard]] Value Lane(int lane) const {
    Value v(type);
    const PlaneSrc p = View();
    for (int c = 0; c < v.count(); ++c) v.data()[c] = p.at(c, lane);
    return v;
  }
};

// Where the kernel writes: a fresh poisoned plane, operand 0's own plane
// (in place), or poisoned storage shared by every lane.
enum class KernelDst { kPlane, kInPlace, kShared };

using BatchKernel = std::function<void(AluModel&, std::span<const PlaneSrc>,
                                       const PlaneDst&, std::uint32_t)>;
using ScalarKernel = std::function<void(
    AluModel&, std::span<const Value* const>, Value&)>;

void ExpectKernelMatchesScalar(const std::string& what, BatchAlu kind,
                               std::vector<KernelOperand> ops,
                               const Type& out_type, std::uint32_t mask,
                               KernelDst dst_kind, const BatchKernel& batch,
                               const ScalarKernel& scalar) {
  SCOPED_TRACE(what + " alu=" + std::to_string(static_cast<int>(kind)) +
               " mask=" + std::to_string(mask) +
               " dst=" + std::to_string(static_cast<int>(dst_kind)));
  AluModel oracle_alu = MakeBatchAlu(kind);
  AluModel batch_alu = MakeBatchAlu(kind);
  const int n = out_type.CellCount();

  // The oracle, lane by lane, on the operands' values before the kernel.
  std::array<Value, kVmLanes> expected;
  for (int l = 0; l < kVmLanes; ++l) {
    if ((mask >> l & 1u) == 0) continue;
    std::vector<Value> args;
    for (const KernelOperand& op : ops) args.push_back(op.Lane(l));
    std::vector<const Value*> ptrs;
    for (const Value& a : args) ptrs.push_back(&a);
    expected[static_cast<std::size_t>(l)] = Value(out_type);
    scalar(oracle_alu, ptrs, expected[static_cast<std::size_t>(l)]);
  }

  std::vector<Cell> own(static_cast<std::size_t>(n) *
                            (dst_kind == KernelDst::kShared ? 1 : kVmLanes),
                        Cell{});
  for (Cell& c : own) c.i = static_cast<std::int32_t>(kPoison);
  std::vector<Cell>& dst_cells =
      dst_kind == KernelDst::kInPlace ? ops[0].cells : own;
  const std::vector<Cell> before = dst_cells;
  const PlaneDst dst =
      dst_kind == KernelDst::kShared
          ? PlaneDst{dst_cells.data(), 1, 0, out_type}
          : PlaneDst{dst_cells.data(), kVmLanes, 1, out_type};
  std::vector<PlaneSrc> views;
  for (const KernelOperand& op : ops) views.push_back(op.View());
  batch(batch_alu, views, dst, mask);

  const int top = kVmLanes - std::countl_zero(mask);
  for (int l = 0; l < kVmLanes; ++l) {
    for (int c = 0; c < n; ++c) {
      const std::uint32_t got = static_cast<std::uint32_t>(dst.at(c, l).i);
      if (dst_kind == KernelDst::kShared) {
        const Value& want = expected[static_cast<std::size_t>(top - 1)];
        EXPECT_EQ(got, static_cast<std::uint32_t>(want.data()[c].i))
            << "shared destination, comp " << c;
        continue;
      }
      if ((mask >> l & 1u) == 0) {
        EXPECT_EQ(got, static_cast<std::uint32_t>(
                           before[static_cast<std::size_t>(c * kVmLanes +
                                                           l)]
                               .i))
            << "stored outside the mask: lane " << l << " comp " << c;
        continue;
      }
      const Value& want = expected[static_cast<std::size_t>(l)];
      EXPECT_EQ(got, static_cast<std::uint32_t>(want.data()[c].i))
          << "lane " << l << " comp " << c << ": batch "
          << BitsToFloat(got) << " scalar " << want.F(c);
    }
    if (dst_kind == KernelDst::kShared) break;
  }
  const OpCounts& a = batch_alu.counts();
  const OpCounts& b = oracle_alu.counts();
  EXPECT_EQ(a.alu, b.alu);
  EXPECT_EQ(a.sfu, b.sfu);
  EXPECT_EQ(a.sfu_trans, b.sfu_trans);
}

constexpr std::uint32_t kKernelMasks[] = {
    0xffffffffu,  // dense
    0x5a3c96a5u,  // sparse
    1u << 13,     // a single lane
    0x80000000u,  // the top lane only
    0x1u,         // one lane wide (the oracle engines' width)
};
constexpr BatchAlu kKernelAlus[] = {BatchAlu::kExact, BatchAlu::kVc4,
                                    BatchAlu::kMali400};

Type T(BaseType b) { return MakeType(b); }

// Calls f(kind, mask, src) for every ALU model and mask, with a fresh
// operand source per combination.
template <typename F>
void ForEachKernelRun(std::uint64_t seed, F f) {
  for (const BatchAlu kind : kKernelAlus) {
    for (const std::uint32_t mask : kKernelMasks) {
      CellSource src(seed++ * 0x100000001b3ull);
      f(kind, mask, src);
    }
  }
}

TEST(KernelDifferentialTest, ArithMatchesScalarOnEveryLane) {
  const auto batch = [](BinOp op) -> BatchKernel {
    return [op](AluModel& alu, std::span<const PlaneSrc> a,
                const PlaneDst& d, std::uint32_t m) {
      EvalArithBatch(alu, op, a[0], a[1], d, m);
    };
  };
  const auto scalar = [](BinOp op) -> ScalarKernel {
    return [op](AluModel& alu, std::span<const Value* const> a, Value& out) {
      EvalArithInto(alu, op, *a[0], *a[1], out);
    };
  };
  struct Shape {
    const char* name;
    BaseType l, r;
    bool l_shared, r_shared;
  };
  const Shape kShapes[] = {
      {"plane f", BaseType::kFloat, BaseType::kFloat, false, false},
      {"plane vec4", BaseType::kVec4, BaseType::kVec4, false, false},
      {"vec3 op broadcast f", BaseType::kVec3, BaseType::kFloat, false, false},
      {"shared vec2 op plane", BaseType::kVec2, BaseType::kVec2, true, false},
      {"plane f op shared", BaseType::kFloat, BaseType::kFloat, false, true},
      {"plane int", BaseType::kInt, BaseType::kInt, false, false},
      {"ivec3 op broadcast int", BaseType::kIVec3, BaseType::kInt, false,
       false},
      {"plane int op shared", BaseType::kInt, BaseType::kInt, false, true},
  };
  std::uint64_t seed = 1;
  for (const BinOp op : {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv}) {
    for (const Shape& sh : kShapes) {
      ForEachKernelRun(seed++, [&](BatchAlu kind, std::uint32_t mask,
                                   CellSource& src) {
        std::vector<KernelOperand> ops;
        ops.emplace_back(T(sh.l), sh.l_shared, src);
        ops.emplace_back(T(sh.r), sh.r_shared, src);
        const std::string what =
            std::string(sh.name) + " op " + std::to_string(static_cast<int>(op));
        for (const KernelDst dk :
             {KernelDst::kPlane, KernelDst::kInPlace, KernelDst::kShared}) {
          // In place needs a plane left operand of the result's shape.
          if (dk == KernelDst::kInPlace && sh.l_shared) continue;
          ExpectKernelMatchesScalar(what, kind, ops, T(sh.l), mask, dk,
                                    batch(op), scalar(op));
        }
      });
    }
  }
  // Comparisons: one bool per lane; ==/!= over whole vectors.
  for (const BinOp op : {BinOp::kLt, BinOp::kGt, BinOp::kLe, BinOp::kGe,
                         BinOp::kEq, BinOp::kNe}) {
    for (const BaseType b : {BaseType::kFloat, BaseType::kInt}) {
      ForEachKernelRun(seed++, [&](BatchAlu kind, std::uint32_t mask,
                                   CellSource& src) {
        std::vector<KernelOperand> ops;
        ops.emplace_back(T(b), false, src);
        ops.emplace_back(T(b), (mask & 1u) != 0, src);
        ExpectKernelMatchesScalar("compare", kind, ops, T(BaseType::kBool),
                                  mask, KernelDst::kPlane, batch(op),
                                  scalar(op));
      });
    }
  }
  for (const BinOp op : {BinOp::kEq, BinOp::kNe}) {
    ForEachKernelRun(seed++, [&](BatchAlu kind, std::uint32_t mask,
                                 CellSource& src) {
      std::vector<KernelOperand> ops;
      ops.emplace_back(T(BaseType::kVec3), false, src);
      ops.emplace_back(T(BaseType::kVec3), false, src);
      // Equal lanes too, or == would be false almost everywhere.
      for (std::size_t i = 0; i < ops[0].cells.size(); i += 3) {
        ops[1].cells[i] = ops[0].cells[i];
      }
      ExpectKernelMatchesScalar("vec3 equality", kind, ops,
                                T(BaseType::kBool), mask, KernelDst::kPlane,
                                batch(op), scalar(op));
    });
  }
  // The linear-algebra multiplies.
  const struct {
    BaseType l, r, out;
  } kLinalg[] = {{BaseType::kMat2, BaseType::kVec2, BaseType::kVec2},
                 {BaseType::kVec3, BaseType::kMat3, BaseType::kVec3},
                 {BaseType::kMat2, BaseType::kMat2, BaseType::kMat2}};
  for (const auto& la : kLinalg) {
    ForEachKernelRun(seed++, [&](BatchAlu kind, std::uint32_t mask,
                                 CellSource& src) {
      std::vector<KernelOperand> ops;
      ops.emplace_back(T(la.l), false, src);
      ops.emplace_back(T(la.r), (mask & 2u) != 0, src);
      ExpectKernelMatchesScalar("linalg", kind, ops, T(la.out), mask,
                                KernelDst::kPlane, batch(BinOp::kMul),
                                scalar(BinOp::kMul));
    });
  }
}

TEST(KernelDifferentialTest, NegAndCtorMatchScalarOnEveryLane) {
  std::uint64_t seed = 1000;
  for (const BaseType b : {BaseType::kFloat, BaseType::kVec4, BaseType::kInt,
                           BaseType::kIVec2}) {
    ForEachKernelRun(seed++, [&](BatchAlu kind, std::uint32_t mask,
                                 CellSource& src) {
      std::vector<KernelOperand> ops;
      ops.emplace_back(T(b), false, src);
      for (const KernelDst dk : {KernelDst::kPlane, KernelDst::kInPlace}) {
        ExpectKernelMatchesScalar(
            "neg", kind, ops, T(b), mask, dk,
            [](AluModel& alu, std::span<const PlaneSrc> a, const PlaneDst& d,
               std::uint32_t m) { EvalNegBatch(alu, a[0], d, m); },
            [](AluModel& alu, std::span<const Value* const> a, Value& out) {
              EvalNegInto(alu, *a[0], out);
            });
      }
    });
  }
  const BatchKernel ctor = [](AluModel& alu, std::span<const PlaneSrc> a,
                              const PlaneDst& d, std::uint32_t m) {
    EvalCtorBatch(alu, a, d, m);
  };
  const ScalarKernel ctor_scalar = [](AluModel& alu,
                                      std::span<const Value* const> a,
                                      Value& out) { EvalCtorInto(alu, a, out); };
  const struct {
    const char* name;
    BaseType out;
    std::vector<BaseType> args;
  } kCtors[] = {
      {"int(float)", BaseType::kInt, {BaseType::kFloat}},
      {"float(int)", BaseType::kFloat, {BaseType::kInt}},
      {"bool(float)", BaseType::kBool, {BaseType::kFloat}},
      {"ivec2(vec2)", BaseType::kIVec2, {BaseType::kVec2}},
      {"vec4(f, f, vec2)",
       BaseType::kVec4,
       {BaseType::kFloat, BaseType::kFloat, BaseType::kVec2}},
      {"vec3(int)", BaseType::kVec3, {BaseType::kInt}},
      {"vec2(f, int)", BaseType::kVec2, {BaseType::kFloat, BaseType::kInt}},
      {"mat2(f)", BaseType::kMat2, {BaseType::kFloat}},
      {"mat3(mat2)", BaseType::kMat3, {BaseType::kMat2}},
  };
  for (const auto& ct : kCtors) {
    ForEachKernelRun(seed++, [&](BatchAlu kind, std::uint32_t mask,
                                 CellSource& src) {
      std::vector<KernelOperand> ops;
      bool shared = (mask & 4u) != 0;
      for (const BaseType a : ct.args) {
        ops.emplace_back(T(a), shared, src);
        shared = !shared;
      }
      for (const KernelDst dk : {KernelDst::kPlane, KernelDst::kShared}) {
        ExpectKernelMatchesScalar(ct.name, kind, ops, T(ct.out), mask, dk,
                                  ctor, ctor_scalar);
      }
    });
  }
}

TEST(KernelDifferentialTest, BuiltinsMatchScalarOnEveryLane) {
  const auto batch = [](Builtin b) -> BatchKernel {
    return [b](AluModel& alu, std::span<const PlaneSrc> a, const PlaneDst& d,
               std::uint32_t m) { EvalBuiltinBatch(b, a, alu, {}, d, m); };
  };
  const auto scalar = [](Builtin b, Type result) -> ScalarKernel {
    return [b, result](AluModel& alu, std::span<const Value* const> a,
                       Value& out) {
      out = EvalBuiltin(b, result, a, alu, {});
    };
  };
  std::uint64_t seed = 2000;
  const struct {
    const char* name;
    Builtin b;
    std::vector<BaseType> args;
    BaseType out;
  } kBuiltins[] = {
      {"exp2", Builtin::kExp2, {BaseType::kVec2}, BaseType::kVec2},
      {"log2", Builtin::kLog2, {BaseType::kFloat}, BaseType::kFloat},
      {"floor", Builtin::kFloor, {BaseType::kVec4}, BaseType::kVec4},
      {"step(f, vec3)",
       Builtin::kStep,
       {BaseType::kFloat, BaseType::kVec3},
       BaseType::kVec3},
      {"step(vec2, vec2)",
       Builtin::kStep,
       {BaseType::kVec2, BaseType::kVec2},
       BaseType::kVec2},
      {"pow", Builtin::kPow, {BaseType::kFloat, BaseType::kFloat},
       BaseType::kFloat},
      {"sqrt", Builtin::kSqrt, {BaseType::kVec2}, BaseType::kVec2},
      {"dot", Builtin::kDot, {BaseType::kVec3, BaseType::kVec3},
       BaseType::kFloat},
      {"length", Builtin::kLength, {BaseType::kVec2}, BaseType::kFloat},
      {"distance", Builtin::kDistance, {BaseType::kVec4, BaseType::kVec4},
       BaseType::kFloat},
      {"cross", Builtin::kCross, {BaseType::kVec3, BaseType::kVec3},
       BaseType::kVec3},
      {"normalize", Builtin::kNormalize, {BaseType::kVec3}, BaseType::kVec3},
      {"reflect", Builtin::kReflect, {BaseType::kVec2, BaseType::kVec2},
       BaseType::kVec2},
      {"faceforward",
       Builtin::kFaceforward,
       {BaseType::kVec2, BaseType::kVec2, BaseType::kVec2},
       BaseType::kVec2},
      {"refract",
       Builtin::kRefract,
       {BaseType::kVec3, BaseType::kVec3, BaseType::kFloat},
       BaseType::kVec3},
  };
  for (const auto& bi : kBuiltins) {
    ForEachKernelRun(seed++, [&](BatchAlu kind, std::uint32_t mask,
                                 CellSource& src) {
      std::vector<KernelOperand> ops;
      for (const BaseType a : bi.args) {
        ops.emplace_back(T(a), (mask & 8u) != 0 && ops.empty(), src);
      }
      for (const KernelDst dk : {KernelDst::kPlane, KernelDst::kShared}) {
        ExpectKernelMatchesScalar(bi.name, kind, ops, T(bi.out), mask, dk,
                                  batch(bi.b), scalar(bi.b, T(bi.out)));
      }
    });
  }
}

// The formulas the kernels inline against their reference definitions:
// FFloor against std::floor (which returns a NaN as is when GCC inlines it
// and quiets a signaling one when it calls libm, so NaNs are checked
// against the definition), and the SFU error model against the std::ldexp
// form it replaces.
TEST(KernelDifferentialTest, InlineFormulasMatchTheirReferences) {
  CellSource src(77);
  std::vector<std::uint32_t> inputs(std::begin(kFloatSpecials),
                                    std::end(kFloatSpecials));
  for (std::uint32_t e = 0; e < 256; ++e) {  // every exponent, both signs
    for (std::uint32_t k = 0; k < 64; ++k) {
      const std::uint32_t mant =
          static_cast<std::uint32_t>(src.Next(false).i) & 0x7fffffu;
      inputs.push_back((e << 23) | mant | (k & 1u) << 31);
    }
  }
  // Two NaNs: the first operand's payload, quieted, in either order.
  EXPECT_EQ(FloatToBits(FAdd(BitsToFloat(0x7fa00005u),
                             BitsToFloat(0xffc00001u))),
            0x7fe00005u);
  EXPECT_EQ(FloatToBits(FMul(BitsToFloat(0xffc00001u),
                             BitsToFloat(0x7fa00005u))),
            0xffc00001u);
  // The flush keeps a denormal's sign; the mantissa rounding keeps NaNs.
  EXPECT_EQ(FloatToBits(RoundSpec::FlushDenormal(BitsToFloat(0x807fffffu))),
            0x80000000u);
  EXPECT_EQ(FloatToBits(RoundSpec(true, 23)(BitsToFloat(0x00000001u))),
            0x00000000u);
  EXPECT_EQ(FloatToBits(RoundSpec(false, 10)(BitsToFloat(0x7f800001u))),
            0x7f800001u);
  EXPECT_EQ(FloatToBits(RoundSpec(false, 10)(BitsToFloat(0x3f801000u))),
            0x3f802000u);

  const RoundSpec flush(true, 23);
  for (const int bits : {0, 14, 16}) {
    const SfuSpec sfu(bits);
    for (const std::uint32_t u : inputs) {
      const float x = BitsToFloat(u);
      ASSERT_EQ(FloatToBits(FFloor(x)),
                IsNanBits(u) ? u : FloatToBits(std::floor(x)))
          << u;
      // exp2: exact * (1 + eta) for finite non-zero results.
      const float e = std::exp2(x);
      const float unit = SfuErrorUnit(u);
      const float eta = bits > 0 ? std::ldexp(unit, -bits) : 0.0f;
      const float want_exp2 =
          std::isfinite(e) && e != 0.0f ? e * (1.0f + eta) : e;
      ASSERT_EQ(FloatToBits(SfuExp2(x, sfu.scale, flush)),
                FloatToBits(flush(want_exp2)))
          << u << " bits " << bits;
      // log2: an absolute error in the output, non-finite results exact.
      const float lg = std::log2(x);
      const float unit2 = SfuErrorUnit(u ^ 0x9e3779b9u);
      const float err = bits > 0 ? std::ldexp(unit2, -bits) : 0.0f;
      const float want_log2 = std::isfinite(lg) ? flush(lg + err) : lg;
      ASSERT_EQ(FloatToBits(SfuLog2(x, sfu.scale, flush)),
                FloatToBits(want_log2))
          << u << " bits " << bits;
    }
  }
}

}  // namespace
}  // namespace mgpu::glsl
