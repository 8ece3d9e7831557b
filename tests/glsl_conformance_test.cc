// Broader GLSL ES 1.00 conformance sweeps: awkward-but-legal programs,
// numeric edge cases, and constructs near the spec's corners — beyond the
// targeted unit tests in the other glsl_* files.
#include <cmath>
#include <string>

#include "common/strings.h"
#include "glsl_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::glsl {
namespace {

using testutil::MustCompile;
using testutil::MustFail;
using testutil::RunFragment;

TEST(ConformanceTest, DeeplyNestedExpressions) {
  const auto c = RunFragment(
      "gl_FragColor = vec4(((((1.0 + 2.0) * (3.0 - 1.0)) / ((2.0))) - "
      "((1.0 + (1.0 * (1.0))))), 0.0, 0.0, 0.0);");
  EXPECT_FLOAT_EQ(c[0], 1.0f);
}

TEST(ConformanceTest, ChainedSwizzleOfSwizzle) {
  const auto c = RunFragment(R"(
vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
gl_FragColor = vec4(v.wzyx.xy.y, v.rgba.ba, 0.0);)");
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 3.0f);
  EXPECT_FLOAT_EQ(c[2], 4.0f);
}

TEST(ConformanceTest, MatrixFullAlgebraChain) {
  const auto c = RunFragment(R"(
mat3 rot = mat3(0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0);  // 90 deg
vec3 v = vec3(1.0, 0.0, 0.0);
vec3 once = rot * v;
vec3 four = rot * rot * rot * rot * v;  // identity
gl_FragColor = vec4(once.xy, four.xy);)");
  EXPECT_NEAR(c[0], 0.0f, 1e-6f);
  EXPECT_NEAR(c[1], 1.0f, 1e-6f);
  EXPECT_NEAR(c[2], 1.0f, 1e-6f);
  EXPECT_NEAR(c[3], 0.0f, 1e-6f);
}

TEST(ConformanceTest, MatrixScalarAndDivision) {
  const auto c = RunFragment(R"(
mat2 m = mat2(2.0, 4.0, 6.0, 8.0);
mat2 half_m = m / 2.0;
mat2 plus = m + mat2(1.0);
gl_FragColor = vec4(half_m[1][1], plus[0][0], plus[0][1], 2.0 * half_m[0][0]);)");
  EXPECT_FLOAT_EQ(c[0], 4.0f);
  EXPECT_FLOAT_EQ(c[1], 3.0f);
  EXPECT_FLOAT_EQ(c[2], 4.0f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

TEST(ConformanceTest, ArraysOfVectors) {
  const auto c = RunFragment(R"(
vec2 pts[3];
pts[0] = vec2(1.0, 2.0);
pts[1] = vec2(3.0, 4.0);
pts[2] = pts[0] + pts[1];
gl_FragColor = vec4(pts[2], pts[1].y, pts[0].x);)");
  EXPECT_FLOAT_EQ(c[0], 4.0f);
  EXPECT_FLOAT_EQ(c[1], 6.0f);
  EXPECT_FLOAT_EQ(c[2], 4.0f);
  EXPECT_FLOAT_EQ(c[3], 1.0f);
}

TEST(ConformanceTest, DynamicIndexIntoMatrixColumn) {
  const auto c = RunFragment(R"(
mat3 m = mat3(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0);
float acc = 0.0;
for (int i = 0; i < 3; ++i) { acc += m[i][i]; }  // trace
gl_FragColor = vec4(acc);)");
  EXPECT_FLOAT_EQ(c[0], 15.0f);
}

TEST(ConformanceTest, FunctionOverloadSelectsBySize) {
  AluModel alu;
  const auto c = testutil::RunFragmentSource(R"(
precision highp float;
float total(vec2 v) { return v.x + v.y; }
float total(vec3 v) { return v.x + v.y + v.z; }
float total(float v) { return v; }
void main() {
  gl_FragColor = vec4(total(vec2(1.0, 2.0)), total(vec3(1.0, 2.0, 3.0)),
                      total(7.0), 0.0);
}
)",
                                             alu);
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 6.0f);
  EXPECT_FLOAT_EQ(c[2], 7.0f);
}

TEST(ConformanceTest, HelperFunctionsCallingHelpers) {
  AluModel alu;
  const auto c = testutil::RunFragmentSource(R"(
precision highp float;
float sq(float x) { return x * x; }
float quart(float x) { return sq(sq(x)); }
float poly(float x) { return quart(x) + sq(x) + x; }
void main() { gl_FragColor = vec4(poly(2.0)); }
)",
                                             alu);
  EXPECT_FLOAT_EQ(c[0], 16.0f + 4.0f + 2.0f);
}

TEST(ConformanceTest, ConstGlobalsFoldIntoArraySizesViaMacro) {
  AluModel alu;
  const auto c = testutil::RunFragmentSource(R"(
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
)",
                                             alu);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
}

TEST(ConformanceTest, IntegerDivisionAndNegativeMod) {
  const auto c = RunFragment(R"(
int a = 17; int b = 5;
int q = a / b;
int r = a - q * b;
gl_FragColor = vec4(float(q), float(r), float(-17 / 5), 0.0);)");
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 2.0f);
  EXPECT_FLOAT_EQ(c[2], -3.0f);
}

TEST(ConformanceTest, BoolVectorConstructionAndSelection) {
  const auto c = RunFragment(R"(
bvec3 b = bvec3(1.0, 0.0, 5.0);  // nonzero -> true
gl_FragColor = vec4(b.x ? 1.0 : 0.0, b.y ? 1.0 : 0.0, b.z ? 1.0 : 0.0, 0.0);)");
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 0.0f);
  EXPECT_FLOAT_EQ(c[2], 1.0f);
}

TEST(ConformanceTest, CompoundAssignOnSwizzledLValue) {
  const auto c = RunFragment(R"(
vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
v.yz *= 10.0;
v.x += v.w;
gl_FragColor = v;)");
  EXPECT_FLOAT_EQ(c[0], 5.0f);
  EXPECT_FLOAT_EQ(c[1], 20.0f);
  EXPECT_FLOAT_EQ(c[2], 30.0f);
  EXPECT_FLOAT_EQ(c[3], 4.0f);
}

TEST(ConformanceTest, ForLoopWithCommaStep) {
  const auto c = RunFragment(R"(
float a = 0.0; float b = 0.0;
for (int i = 0; i < 4; a += 1.0, ++i) { b += 2.0; }
gl_FragColor = vec4(a, b, 0.0, 0.0);)");
  EXPECT_FLOAT_EQ(c[0], 4.0f);
  EXPECT_FLOAT_EQ(c[1], 8.0f);
}

TEST(ConformanceTest, LargeUniformArrayIndexedByLoop) {
  auto shader = MustCompile(R"(
precision highp float;
uniform float u_lut[16];
void main() {
  float acc = 0.0;
  for (int i = 0; i < 16; ++i) { acc += u_lut[i]; }
  gl_FragColor = vec4(acc / 16.0);
}
)");
  AluModel alu;
  ShaderExec exec(*shader, alu);
  Value& lut = exec.GlobalAt(exec.GlobalSlot("u_lut"));
  for (int i = 0; i < 16; ++i) lut.SetF(i, static_cast<float>(i));
  ASSERT_TRUE(exec.Run(alu, {}));
  EXPECT_FLOAT_EQ(exec.GlobalAt(exec.GlobalSlot("gl_FragColor")).F(0),
                  120.0f / 16.0f);
}

// --- error-path sweeps -----------------------------------------------------

TEST(ConformanceTest, ErrorSweepRejectsIllFormedPrograms) {
  const char* kBad[] = {
      // vec = mat
      "precision highp float;\nvoid main() { vec3 v = mat3(1.0); }",
      // calling an undefined prototype is a link/run error, but calling an
      // unknown name is a compile error
      "precision highp float;\nvoid main() { gl_FragColor = vec4(nosuch()); }",
      // assignment to a call result
      "precision highp float;\nvoid main() { sin(1.0) = 2.0; }",
      // void in expression
      "precision highp float;\nvoid f() {}\nvoid main() { float x = f(); }",
      // sampler arithmetic
      "precision highp float;\nuniform sampler2D s;\nvoid main() { "
      "gl_FragColor = vec4(0.0); float x = float(s); }",
      // too many ctor args for scalar
      "precision highp float;\nvoid main() { float x = float(1.0, 2.0); }",
      // continue at global scope is a parse error
      "continue;",
      // matrix from matrix + scalar mix
      "precision highp float;\nvoid main() { mat2 m = mat2(mat2(1.0), 1.0); }",
  };
  for (const char* src : kBad) {
    MustFail(src);
  }
}

TEST(ConformanceTest, NumericEdgeCasesThroughPipeline) {
  // Division by zero produces infinity (IEEE), usable downstream.
  const auto c = RunFragment(R"(
float inf = 1.0 / 0.0;
float ninf = -1.0 / 0.0;
gl_FragColor = vec4(inf > 1e30 ? 1.0 : 0.0, ninf < -1e30 ? 1.0 : 0.0,
                    clamp(inf, 0.0, 2.0), 0.0);)");
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 1.0f);
  EXPECT_FLOAT_EQ(c[2], 2.0f);
}

TEST(ConformanceTest, FragCoordVisibleAndPositive) {
  auto shader = MustCompile(
      "precision highp float;\nvoid main() { gl_FragColor = "
      "vec4(gl_FragCoord.xy, gl_FragCoord.zw); }");
  AluModel alu;
  ShaderExec exec(*shader, alu);
  Value& fc = exec.GlobalAt(exec.GlobalSlot("gl_FragCoord"));
  fc.SetF(0, 10.5f);
  fc.SetF(1, 3.5f);
  fc.SetF(2, 0.5f);
  fc.SetF(3, 1.0f);
  ASSERT_TRUE(exec.Run(alu, {}));
  EXPECT_FLOAT_EQ(exec.GlobalAt(exec.GlobalSlot("gl_FragColor")).F(0), 10.5f);
}

}  // namespace
}  // namespace mgpu::glsl
