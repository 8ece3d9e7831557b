// Compiled-engine (glsl/jit.h) unit tests: eligibility, the content-hash
// module cache, and end-to-end fallback through the gles2 context. The
// heavy bit-identity lockdown lives in glsl_vm_fuzz_test.cc and
// gles2_tiling_test.cc; this file pins the plumbing around it.
#include <memory>
#include <vector>

#include "gles2/context.h"
#include "gles2_test_util.h"
#include "glsl/compile.h"
#include "glsl/jit.h"
#include "glsl/vm.h"
#include "gtest/gtest.h"

namespace mgpu::glsl {
namespace {

constexpr char kUniformFs[] = R"(
precision highp float;
varying vec4 v_in;
uniform float u_s0;
void main() {
  vec3 a = v_in.xyz * 2.0 + u_s0;
  vec3 b = a * a - v_in.wzy;
  gl_FragColor = vec4(a.x + b.y, b.z, a.y * 0.5, 1.0);
}
)";

// Lane-varying branch: the transpiler must decline (uniform lockstep only)
// and CompileProgram must return null, which IS the batched-VM fallback.
constexpr char kDivergentFs[] = R"(
precision highp float;
varying vec4 v_in;
void main() {
  float v = 0.25;
  if (v_in.x > 0.5) { v = v_in.y; }
  gl_FragColor = vec4(v, 0.0, 0.0, 1.0);
}
)";

std::shared_ptr<const VmProgram> Lower(const char* src) {
  CompileResult cr = CompileGlsl(src, Stage::kFragment);
  EXPECT_TRUE(cr.ok) << cr.info_log;
  if (!cr.ok) return nullptr;
  return LowerToBytecode(*cr.shader);
}

TEST(JitCompileTest, DivergentProgramIsDeclined) {
  const std::shared_ptr<const VmProgram> prog = Lower(kDivergentFs);
  ASSERT_NE(prog, nullptr);
  ASSERT_FALSE(prog->uniform_control_flow);
  EXPECT_EQ(jit::CompileProgram(*prog), nullptr);
}

TEST(JitCompileTest, UniformProgramCompilesAndCacheHitsOnRecompile) {
  if (!jit::Available()) GTEST_SKIP() << "no host compiler";
  const std::shared_ptr<const VmProgram> prog = Lower(kUniformFs);
  ASSERT_NE(prog, nullptr);
  ASSERT_TRUE(prog->uniform_control_flow);
  const std::shared_ptr<const jit::Module> a = jit::CompileProgram(*prog);
  ASSERT_NE(a, nullptr);
  EXPECT_NE(a->entry(), nullptr);
  // Same program, second compile: served from the content-hash .so cache
  // (observable here only as "still works"; the fuzz harness relies on the
  // cache to keep its per-seed compile cost a one-time charge).
  const std::shared_ptr<const jit::Module> b = jit::CompileProgram(*prog);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(b->entry(), nullptr);
}

TEST(JitCompileTest, AttachedModuleMatchesInterpreterBitForBit) {
  if (!jit::Available()) GTEST_SKIP() << "no host compiler";
  const std::shared_ptr<const VmProgram> prog = Lower(kUniformFs);
  ASSERT_NE(prog, nullptr);
  const std::shared_ptr<const jit::Module> mod = jit::CompileProgram(*prog);
  ASSERT_NE(mod, nullptr);

  ExactAlu alu_ref, alu_jit;
  VmExec ref(prog, alu_ref);
  VmExec jitted(prog, alu_jit);
  jitted.SetJit(mod);
  EXPECT_TRUE(jitted.has_jit());

  const int in_slot = ref.GlobalSlot("v_in");
  const int u_slot = ref.GlobalSlot("u_s0");
  const int color_slot = ref.GlobalSlot("gl_FragColor");
  ASSERT_GE(in_slot, 0);
  ASSERT_GE(color_slot, 0);
  for (VmExec* e : {&ref, &jitted}) {
    if (u_slot >= 0) e->GlobalAt(u_slot).SetF(0, 0.375f);
  }
  for (int n = 1; n <= kVmLanes; ++n) {
    for (int l = 0; l < n; ++l) {
      for (int k = 0; k < 4; ++k) {
        const float f = 0.0625f * static_cast<float>(l + 1) +
                        0.25f * static_cast<float>(k);
        ref.LaneGlobalAt(in_slot, l).SetF(k, f);
        jitted.LaneGlobalAt(in_slot, l).SetF(k, f);
      }
    }
    alu_ref.ResetCounts();
    alu_jit.ResetCounts();
    EXPECT_EQ(jitted.RunBatch(n), ref.RunBatch(n)) << "tail " << n;
    EXPECT_EQ(alu_jit.counts().alu, alu_ref.counts().alu) << "tail " << n;
    for (int l = 0; l < n; ++l) {
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(jitted.LaneGlobalAt(color_slot, l).F(k),
                  ref.LaneGlobalAt(color_slot, l).F(k))
            << "tail " << n << " lane " << l << " comp " << k;
      }
    }
  }
}

}  // namespace
}  // namespace mgpu::glsl

namespace mgpu::gles2 {
namespace {

// End-to-end fallback: a divergent fragment program is declined by the
// transpiler, so kCompiled must draw it through the batched interpreter —
// byte- and count-identical to kBatchedVm.
TEST(JitFallbackTest, CompiledEngineFallsBackOnDivergentProgram) {
  struct Result {
    std::vector<std::uint8_t> rgba;
    glsl::OpCounts counts;
  };
  auto run = [](ExecEngine engine) {
    ContextConfig cfg;
    cfg.width = 64;
    cfg.height = 64;
    cfg.exec_engine = engine;
    Context ctx(cfg);
    const GLuint prog = testutil::BuildProgramOrDie(
        ctx, testutil::kPassthroughVs,
        R"(
precision highp float;
varying vec2 v_uv;
void main() {
  vec4 c = vec4(v_uv, 0.25, 1.0);
  if (v_uv.x > 0.5) { c.xy = fract(v_uv * 9.0); }
  gl_FragColor = c;
}
)");
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    testutil::DrawFullscreenQuad(ctx, prog);
    EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
    return Result{testutil::ReadRgba(ctx, 64, 64), ctx.alu().counts()};
  };
  const Result batched = run(ExecEngine::kBatchedVm);
  const Result compiled = run(ExecEngine::kCompiled);
  EXPECT_EQ(compiled.rgba, batched.rgba);
  EXPECT_EQ(compiled.counts.alu, batched.counts.alu);
  EXPECT_EQ(compiled.counts.sfu, batched.counts.sfu);
  EXPECT_EQ(compiled.counts.tmu, batched.counts.tmu);
}

}  // namespace
}  // namespace mgpu::gles2
