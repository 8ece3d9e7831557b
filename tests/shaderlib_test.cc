// The generated GLSL library in isolation: structure of the emitted source,
// and the equivalence of the paper-literal delta byte transform (Eq. 3-5,
// with the errata-corrected delta = 1/65280) to the robust rounding form —
// executed through the interpreter for every byte value.
#include "compute/shaderlib.h"

#include <string>

#include "common/strings.h"
#include "glsl_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::compute {
namespace {

using glsl::testutil::RunFragment;

TEST(ShaderLibTest, PassthroughVertexShaderCompiles) {
  glsl::CompileResult r = glsl::CompileGlsl(PassthroughVertexShader(),
                                            glsl::Stage::kVertex);
  EXPECT_TRUE(r.ok) << r.info_log;
}

TEST(ShaderLibTest, AllUnpackPackFunctionsCompileTogether) {
  std::string src = KernelPreamble();
  for (const ElemType t : {ElemType::kU8, ElemType::kI8, ElemType::kU32,
                           ElemType::kI32, ElemType::kF32}) {
    src += UnpackFunction(t);
    src += PackFunction(t);
  }
  src += DeltaByteFunctions();
  src += "void main() { gl_FragColor = gp_pack_f32(gp_unpack_f32(vec4(0.5)));"
         " }\n";
  glsl::CompileResult r = glsl::CompileGlsl(src, glsl::Stage::kFragment);
  EXPECT_TRUE(r.ok) << r.info_log;
}

TEST(ShaderLibTest, NamesMatchTypes) {
  EXPECT_EQ(UnpackName(ElemType::kF32), "gp_unpack_f32");
  EXPECT_EQ(PackName(ElemType::kI8), "gp_pack_i8");
  EXPECT_TRUE(Contains(FetchFunctions("u_src", ElemType::kU32),
                       "gp_fetch_u_src"));
  EXPECT_TRUE(Contains(FetchFunctions("u_src", ElemType::kU32),
                       "gp_fetch2_u_src"));
}

// The paper-literal delta form must agree with the robust form for every
// byte value c: both must recover c from the quantized texture value c/255.
class DeltaEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DeltaEquivalence, UnpackRecoversExactByte) {
  const int c = GetParam();
  const std::string src = StrFormat(
      "float f = %d.0 / 255.0;\n"
      "%s"
      "gl_FragColor = vec4(gp_unpack_u8_delta(f) / 255.0,\n"
      "                    floor(f * 255.0 + 0.5) / 255.0, 0.0, 0.0);",
      c, "");
  // Inject the library ahead of the body via a full-source run.
  const std::string full = "precision highp float;\n" + DeltaByteFunctions() +
                           "void main() {\n" + src + "\n}\n";
  glsl::AluModel alu;
  const auto out = glsl::testutil::RunFragmentSource(full, alu);
  const float delta_byte = out[0] * 255.0f;
  const float robust_byte = out[1] * 255.0f;
  EXPECT_NEAR(delta_byte, static_cast<float>(c), 0.01f) << "delta form";
  EXPECT_NEAR(robust_byte, static_cast<float>(c), 0.01f) << "robust form";
  EXPECT_NEAR(delta_byte, robust_byte, 0.01f) << "equivalence";
}

INSTANTIATE_TEST_SUITE_P(AllBoundaryBytes, DeltaEquivalence,
                         ::testing::Values(0, 1, 2, 63, 64, 127, 128, 129,
                                           191, 253, 254, 255));

TEST(ShaderLibTest, DeltaPackLandsOnByteUnderFloorConversion) {
  // M^-1 of Eq. (5): b/255 - delta (delta negative, so + 1/65280) must
  // floor-quantize back to b for every byte.
  for (int b = 0; b <= 255; ++b) {
    const std::string full = StrFormat(
        "precision highp float;\n%svoid main() {\n"
        "  float f = gp_pack_u8_delta(%d.0);\n"
        "  gl_FragColor = vec4(floor(clamp(f, 0.0, 1.0) * 255.0) / 255.0,\n"
        "                      0.0, 0.0, 0.0);\n}\n",
        DeltaByteFunctions().c_str(), b);
    glsl::AluModel alu;
    const auto out = glsl::testutil::RunFragmentSource(full, alu);
    EXPECT_NEAR(out[0] * 255.0f, static_cast<float>(b), 0.01f) << b;
  }
}

TEST(ShaderLibTest, PreambleHelpersBehave) {
  // gp_coord must address texel centers; gp_byte/gp_unbyte must invert.
  const std::string full =
      "precision highp float;\nuniform vec2 gp_out_size_unused;\n" +
      std::string("vec2 gp_coord(float index, vec2 size) {\n"
                  "  float y = floor((index + 0.5) / size.x);\n"
                  "  float x = index - y * size.x;\n"
                  "  return (vec2(x, y) + 0.5) / size;\n}\n") +
      "void main() {\n"
      "  vec2 c = gp_coord(5.0, vec2(4.0, 2.0));\n"  // index 5 -> (1, 1)
      "  gl_FragColor = vec4(c, 0.0, 0.0);\n}\n";
  glsl::AluModel alu;
  const auto out = glsl::testutil::RunFragmentSource(full, alu);
  EXPECT_FLOAT_EQ(out[0], 1.5f / 4.0f);
  EXPECT_FLOAT_EQ(out[1], 1.5f / 2.0f);
}

TEST(ShaderLibTest, GeneratedSourceIsValidGlslEs100) {
  // Every generated function must survive the strict front end (no implicit
  // conversions, default precision discipline).
  for (const ElemType t : {ElemType::kU8, ElemType::kI8, ElemType::kU32,
                           ElemType::kI32, ElemType::kF32}) {
    const std::string src =
        KernelPreamble() + UnpackFunction(t) + PackFunction(t) +
        FetchFunctions("u_in", t) +
        "void main() { gl_FragColor = vec4(0.0); }\n";
    glsl::CompileResult r = glsl::CompileGlsl(src, glsl::Stage::kFragment);
    EXPECT_TRUE(r.ok) << ElemTypeName(t) << ":\n" << r.info_log;
  }
}

}  // namespace
}  // namespace mgpu::compute
