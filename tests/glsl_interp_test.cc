// Interpreter semantics: expression evaluation, control flow, functions,
// uniforms, varyings, textures and the op-counting hooks.
#include "glsl/interp.h"

#include <array>
#include <cmath>
#include <string>

#include "glsl/compile.h"
#include "glsl_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::glsl {
namespace {

using testutil::MustCompile;
using testutil::PerTexel;
using testutil::RunFragment;
using testutil::RunFragmentSource;

TEST(InterpTest, AssignLiteralVec4) {
  const auto c = RunFragment("gl_FragColor = vec4(0.1, 0.2, 0.3, 0.4);");
  EXPECT_FLOAT_EQ(c[0], 0.1f);
  EXPECT_FLOAT_EQ(c[1], 0.2f);
  EXPECT_FLOAT_EQ(c[2], 0.3f);
  EXPECT_FLOAT_EQ(c[3], 0.4f);
}

TEST(InterpTest, ScalarBroadcastCtor) {
  const auto c = RunFragment("gl_FragColor = vec4(0.5);");
  for (const float v : c) EXPECT_FLOAT_EQ(v, 0.5f);
}

TEST(InterpTest, ArithmeticPrecedence) {
  const auto c = RunFragment("gl_FragColor = vec4(1.0 + 2.0 * 3.0, (1.0 + "
                             "2.0) * 3.0, 7.0 / 2.0, 1.0 - 2.0 - 3.0);");
  EXPECT_FLOAT_EQ(c[0], 7.0f);
  EXPECT_FLOAT_EQ(c[1], 9.0f);
  EXPECT_FLOAT_EQ(c[2], 3.5f);
  EXPECT_FLOAT_EQ(c[3], -4.0f);
}

TEST(InterpTest, IntegerArithmeticTruncates) {
  const auto c = RunFragment(
      "int a = 7 / 2; int b = -7 / 2; gl_FragColor = vec4(float(a), "
      "float(b), 0.0, 0.0);");
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], -3.0f);
}

TEST(InterpTest, IntFromFloatTruncatesTowardZero) {
  const auto c = RunFragment(
      "gl_FragColor = vec4(float(int(2.9)), float(int(-2.9)), 0.0, 0.0);");
  EXPECT_FLOAT_EQ(c[0], 2.0f);
  EXPECT_FLOAT_EQ(c[1], -2.0f);
}

TEST(InterpTest, SwizzleReadAndWrite) {
  const auto c = RunFragment(R"(
vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
v.xy = v.zw;
gl_FragColor = v.wzyx;)");
  EXPECT_FLOAT_EQ(c[0], 4.0f);
  EXPECT_FLOAT_EQ(c[1], 3.0f);
  EXPECT_FLOAT_EQ(c[2], 4.0f);
  EXPECT_FLOAT_EQ(c[3], 3.0f);
}

TEST(InterpTest, MatrixColumnMajorIndexing) {
  const auto c = RunFragment(R"(
mat2 m = mat2(1.0, 2.0, 3.0, 4.0);  // columns: (1,2), (3,4)
gl_FragColor = vec4(m[0][0], m[0][1], m[1][0], m[1][1]);)");
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 2.0f);
  EXPECT_FLOAT_EQ(c[2], 3.0f);
  EXPECT_FLOAT_EQ(c[3], 4.0f);
}

TEST(InterpTest, MatrixVectorMultiply) {
  // m * v with column-major m: result r = c0*v.x + c1*v.y.
  const auto c = RunFragment(R"(
mat2 m = mat2(1.0, 2.0, 3.0, 4.0);
vec2 v = vec2(5.0, 6.0);
vec2 mv = m * v;   // (1*5+3*6, 2*5+4*6) = (23, 34)
vec2 vm = v * m;   // (dot(v,c0), dot(v,c1)) = (17, 39)
gl_FragColor = vec4(mv, vm);)");
  EXPECT_FLOAT_EQ(c[0], 23.0f);
  EXPECT_FLOAT_EQ(c[1], 34.0f);
  EXPECT_FLOAT_EQ(c[2], 17.0f);
  EXPECT_FLOAT_EQ(c[3], 39.0f);
}

TEST(InterpTest, MatrixMatrixMultiply) {
  const auto c = RunFragment(R"(
mat2 a = mat2(1.0, 2.0, 3.0, 4.0);
mat2 b = mat2(5.0, 6.0, 7.0, 8.0);
mat2 m = a * b;
gl_FragColor = vec4(m[0][0], m[0][1], m[1][0], m[1][1]);)");
  // col0 = a*(5,6) = (23, 34); col1 = a*(7,8) = (31, 46)
  EXPECT_FLOAT_EQ(c[0], 23.0f);
  EXPECT_FLOAT_EQ(c[1], 34.0f);
  EXPECT_FLOAT_EQ(c[2], 31.0f);
  EXPECT_FLOAT_EQ(c[3], 46.0f);
}

TEST(InterpTest, MatrixDiagonalCtor) {
  const auto c = RunFragment(R"(
mat3 m = mat3(2.0);
gl_FragColor = vec4(m[0][0], m[1][1], m[0][1], m[2][2]);)");
  EXPECT_FLOAT_EQ(c[0], 2.0f);
  EXPECT_FLOAT_EQ(c[1], 2.0f);
  EXPECT_FLOAT_EQ(c[2], 0.0f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

TEST(InterpTest, ForLoopAccumulates) {
  const auto c = RunFragment(R"(
float acc = 0.0;
for (int i = 0; i < 10; ++i) { acc += float(i); }
gl_FragColor = vec4(acc);)");
  EXPECT_FLOAT_EQ(c[0], 45.0f);
}

TEST(InterpTest, WhileBreakContinue) {
  const auto c = RunFragment(R"(
float acc = 0.0;
int i = 0;
while (true) {
  i++;
  if (i > 10) break;
  if (i == 3) continue;
  acc += float(i);
}
gl_FragColor = vec4(acc);)");
  EXPECT_FLOAT_EQ(c[0], 55.0f - 3.0f);
}

TEST(InterpTest, DoWhileRunsAtLeastOnce) {
  const auto c = RunFragment(R"(
float acc = 0.0;
do { acc += 1.0; } while (false);
gl_FragColor = vec4(acc);)");
  EXPECT_FLOAT_EQ(c[0], 1.0f);
}

TEST(InterpTest, NestedLoopBreakOnlyInner) {
  const auto c = RunFragment(R"(
float acc = 0.0;
for (int i = 0; i < 3; ++i) {
  for (int j = 0; j < 10; ++j) {
    if (j == 2) break;
    acc += 1.0;
  }
}
gl_FragColor = vec4(acc);)");
  EXPECT_FLOAT_EQ(c[0], 6.0f);
}

TEST(InterpTest, FunctionCallWithReturn) {
  AluModel alu;
  const auto c = RunFragmentSource(R"(
precision highp float;
float sq(float x) { return x * x; }
void main() { gl_FragColor = vec4(sq(3.0), sq(sq(2.0)), 0.0, 1.0); }
)",
                                   alu);
  EXPECT_FLOAT_EQ(c[0], 9.0f);
  EXPECT_FLOAT_EQ(c[1], 16.0f);
}

TEST(InterpTest, OutParamsWriteBack) {
  AluModel alu;
  const auto c = RunFragmentSource(R"(
precision highp float;
void decompose(float v, out float ipart, out float fpart) {
  ipart = floor(v);
  fpart = v - ipart;
}
void main() {
  float i; float f;
  decompose(3.25, i, f);
  gl_FragColor = vec4(i, f, 0.0, 1.0);
}
)",
                                   alu);
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 0.25f);
}

TEST(InterpTest, InoutParamModifies) {
  AluModel alu;
  const auto c = RunFragmentSource(R"(
precision highp float;
void bump(inout float x) { x += 1.0; }
void main() {
  float a = 1.0;
  bump(a); bump(a);
  gl_FragColor = vec4(a);
}
)",
                                   alu);
  EXPECT_FLOAT_EQ(c[0], 3.0f);
}

TEST(InterpTest, OutParamSwizzleTarget) {
  AluModel alu;
  const auto c = RunFragmentSource(R"(
precision highp float;
void pair(out vec2 p) { p = vec2(7.0, 8.0); }
void main() {
  vec4 v = vec4(0.0);
  pair(v.yz);
  gl_FragColor = v;
}
)",
                                   alu);
  EXPECT_FLOAT_EQ(c[0], 0.0f);
  EXPECT_FLOAT_EQ(c[1], 7.0f);
  EXPECT_FLOAT_EQ(c[2], 8.0f);
}

TEST(InterpTest, IncrementDecrementSemantics) {
  const auto c = RunFragment(R"(
float a = 1.0;
float pre = ++a;   // a=2, pre=2
float post = a++;  // post=2, a=3
int i = 5;
i--;
gl_FragColor = vec4(pre, post, a, float(i));)");
  EXPECT_FLOAT_EQ(c[0], 2.0f);
  EXPECT_FLOAT_EQ(c[1], 2.0f);
  EXPECT_FLOAT_EQ(c[2], 3.0f);
  EXPECT_FLOAT_EQ(c[3], 4.0f);
}

TEST(InterpTest, TernaryLazyEvaluation) {
  const auto c = RunFragment(R"(
float x = 4.0;
float r = x > 0.0 ? sqrt(x) : sqrt(-x);
gl_FragColor = vec4(r);)");
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

TEST(InterpTest, ShortCircuitAndOr) {
  const auto c = RunFragment(R"(
float a = 0.0;
bool t = (a > -1.0) || (1.0 / a > 0.0);  // rhs not evaluated
bool u = (a > 1.0) && (1.0 / a > 0.0);
gl_FragColor = vec4(t ? 1.0 : 0.0, u ? 1.0 : 0.0, 0.0, 0.0);)");
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 0.0f);
}

TEST(InterpTest, ArrayReadWriteLoop) {
  const auto c = RunFragment(R"(
float tbl[8];
for (int i = 0; i < 8; ++i) { tbl[i] = float(i) * 2.0; }
float sum = 0.0;
for (int i = 0; i < 8; ++i) { sum += tbl[i]; }
gl_FragColor = vec4(sum);)");
  EXPECT_FLOAT_EQ(c[0], 56.0f);
}

TEST(InterpTest, GlobalConstAndInitializer) {
  AluModel alu;
  const auto c = RunFragmentSource(R"(
precision highp float;
const float kScale = 3.0;
float g_offset = kScale * 2.0;
void main() { gl_FragColor = vec4(kScale, g_offset, 0.0, 1.0); }
)",
                                   alu);
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 6.0f);
}

TEST(InterpTest, VectorEqualityIsAggregate) {
  const auto c = RunFragment(R"(
vec3 a = vec3(1.0, 2.0, 3.0);
vec3 b = vec3(1.0, 2.0, 3.0);
vec3 d = vec3(1.0, 2.0, 4.0);
gl_FragColor = vec4(a == b ? 1.0 : 0.0, a == d ? 1.0 : 0.0,
                    a != d ? 1.0 : 0.0, 0.0);)");
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 0.0f);
  EXPECT_FLOAT_EQ(c[2], 1.0f);
}

TEST(InterpTest, UniformsSettableFromHost) {
  auto shader = MustCompile(
      "precision highp float;\nuniform float u_scale;\nuniform vec2 "
      "u_offset;\nvoid main() { gl_FragColor = vec4(u_scale * 2.0, "
      "u_offset, 1.0); }");
  AluModel alu;
  ShaderExec exec(*shader, alu);
  exec.GlobalAt(exec.GlobalSlot("u_scale")).SetF(0, 5.0f);
  Value& off = exec.GlobalAt(exec.GlobalSlot("u_offset"));
  off.SetF(0, 0.25f);
  off.SetF(1, 0.75f);
  ASSERT_TRUE(exec.Run(alu, {}));
  const Value& c = exec.GlobalAt(exec.GlobalSlot("gl_FragColor"));
  EXPECT_FLOAT_EQ(c.F(0), 10.0f);
  EXPECT_FLOAT_EQ(c.F(1), 0.25f);
  EXPECT_FLOAT_EQ(c.F(2), 0.75f);
}

TEST(InterpTest, DiscardReturnsFalse) {
  auto shader = MustCompile(
      "precision highp float;\nuniform float u_kill;\nvoid main() { if "
      "(u_kill > 0.5) discard; gl_FragColor = vec4(1.0); }");
  AluModel alu;
  ShaderExec exec(*shader, alu);
  exec.GlobalAt(exec.GlobalSlot("u_kill")).SetF(0, 1.0f);
  EXPECT_FALSE(exec.Run(alu, {}));
  exec.GlobalAt(exec.GlobalSlot("u_kill")).SetF(0, 0.0f);
  EXPECT_TRUE(exec.Run(alu, {}));
}

TEST(InterpTest, TextureFetchGoesThroughCallback) {
  auto shader = MustCompile(
      "precision highp float;\nuniform sampler2D u_tex;\nvoid main() { "
      "gl_FragColor = texture2D(u_tex, vec2(0.25, 0.75)); }");
  AluModel alu;
  ShaderExec exec(*shader, alu);
  exec.GlobalAt(exec.GlobalSlot("u_tex")).SetI(0, 3);
  int seen_unit = -1;
  float seen_s = -1.0f, seen_t = -1.0f;
  const TextureFn texture = PerTexel([&](int unit, float s, float t, float) {
    seen_unit = unit;
    seen_s = s;
    seen_t = t;
    return std::array<float, 4>{0.1f, 0.2f, 0.3f, 0.4f};
  });
  ASSERT_TRUE(exec.Run(alu, texture));
  EXPECT_EQ(seen_unit, 3);
  EXPECT_FLOAT_EQ(seen_s, 0.25f);
  EXPECT_FLOAT_EQ(seen_t, 0.75f);
  const Value& c = exec.GlobalAt(exec.GlobalSlot("gl_FragColor"));
  EXPECT_FLOAT_EQ(c.F(2), 0.3f);
  EXPECT_EQ(alu.counts().tmu, 1u);
}

TEST(InterpTest, RunawayLoopRaisesRuntimeError) {
  auto shader = MustCompile(
      "precision highp float;\nvoid main() { float a = 0.0; while (true) { a "
      "+= 1.0; } gl_FragColor = vec4(a); }");
  AluModel alu;
  ShaderExec exec(*shader, alu);
  EXPECT_THROW(exec.Run(alu, {}), ShaderRuntimeError);
}

TEST(InterpTest, OpCountsAccumulate) {
  AluModel alu;
  (void)RunFragment("gl_FragColor = vec4(1.0 + 2.0, 3.0 * 4.0, 5.0 - 1.0, "
                    "8.0 / 2.0);",
                    alu);
  // 1 add + 1 mul + 1 sub + 1 div(mul) >= 4 ALU ops, and the div costs an SFU
  // reciprocal.
  EXPECT_GE(alu.counts().alu, 4u);
  EXPECT_EQ(alu.counts().sfu, 1u);
}

TEST(InterpTest, RunIsRepeatableAfterStateChange) {
  auto shader = MustCompile(
      "precision highp float;\nuniform float u_x;\nvoid main() { "
      "gl_FragColor = vec4(u_x * u_x); }");
  AluModel alu;
  ShaderExec exec(*shader, alu);
  for (float x : {1.0f, 2.0f, 3.0f, 4.0f}) {
    exec.GlobalAt(exec.GlobalSlot("u_x")).SetF(0, x);
    ASSERT_TRUE(exec.Run(alu, {}));
    EXPECT_FLOAT_EQ(exec.GlobalAt(exec.GlobalSlot("gl_FragColor")).F(0),
                    x * x);
  }
}

TEST(InterpTest, VertexStageWritesPosition) {
  auto shader = MustCompile(
      "attribute vec4 a_pos;\nvoid main() { gl_Position = a_pos * 2.0; }",
      Stage::kVertex);
  AluModel alu;
  ShaderExec exec(*shader, alu);
  Value& attr = exec.GlobalAt(exec.GlobalSlot("a_pos"));
  attr.SetF(0, 0.5f);
  attr.SetF(1, -0.5f);
  attr.SetF(2, 0.0f);
  attr.SetF(3, 1.0f);
  ASSERT_TRUE(exec.Run(alu, {}));
  const Value& pos = exec.GlobalAt(exec.GlobalSlot("gl_Position"));
  EXPECT_FLOAT_EQ(pos.F(0), 1.0f);
  EXPECT_FLOAT_EQ(pos.F(1), -1.0f);
  EXPECT_FLOAT_EQ(pos.F(3), 2.0f);
}

}  // namespace
}  // namespace mgpu::glsl
