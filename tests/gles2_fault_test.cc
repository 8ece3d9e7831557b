// Fault-injection harness for the robustness model: draws are transactional.
// Any failure mid-draw — a shader trap, the per-draw watchdog, an injected
// allocation / pool-task fault — must abort the *entire draw* so that the
// framebuffer, depth plane and ALU/TMU counters hold exactly the pre-draw
// state, byte for byte, on every engine and worker count; and
// the next draw must behave exactly as if the aborted one was never issued.
//
// Usage: gles2_fault_test [--fault_iters=N] [gtest flags]
// The sweep test runs N seeded scenarios (default 60; CI's ASan job raises
// it). Seeds are deterministic (seed base + index), so any failure line
// reproduces standalone.

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/fault.h"
#include "gles2/context.h"
#include "gles2_test_util.h"
#include "glsl_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::gles2 {
namespace {

using fault::Site;
using testutil::BuildProgramOrDie;
using testutil::DrawFullscreenQuad;
using testutil::kPassthroughVs;
using testutil::ReadRgba;

int g_fault_iters = 60;

// 128x128 = a 2x2 grid of 64x64 tiles, so parallel configurations really
// engage the worker pool (a single-tile target shades on the calling
// thread and never reaches the pool-task fault site).
constexpr int kW = 128;
constexpr int kH = 128;
constexpr std::uint64_t kSeedBase = 20260808;

// Trap-free gradient shader with a loop, so the kVmInstruction site (which
// fires at loop-guard checks) has deterministic places to inject.
constexpr char kCleanFs[] = R"(
precision mediump float;
varying vec2 v_uv;
void main() {
  float acc = 0.0;
  for (int i = 0; i < 6; ++i) {
    acc += fract(v_uv.x * float(i + 1) + v_uv.y);
  }
  gl_FragColor = vec4(fract(acc), v_uv.x, v_uv.y, 1.0);
}
)";

// Traps on the right half of the screen: `poison` is declared but never
// defined, and calling it raises a deterministic shader trap ("call to
// undefined function") — the same divergent-capable trap on all engines.
constexpr char kTrapFs[] = R"(
precision mediump float;
varying vec2 v_uv;
float poison(float x);
void main() {
  float v = v_uv.x;
  if (v_uv.x > 0.5) { v = poison(v); }
  gl_FragColor = vec4(v, v_uv.y, 0.25, 1.0);
}
)";

// Vertex shader that traps (every vertex): exercises the vertex-stage
// abort path, which must restore counters even though no pixel was shaded.
constexpr char kTrapVs[] = R"(
attribute vec2 a_pos;
varying vec2 v_uv;
float poison(float x);
void main() {
  v_uv = a_pos * 0.5 + 0.5;
  gl_Position = vec4(a_pos * poison(a_pos.x), 0.0, 1.0);
}
)";

struct Snapshot {
  std::vector<std::uint8_t> fb;
  glsl::OpCounts counts;
};

Snapshot Snap(Context& ctx) {
  return {ReadRgba(ctx, kW, kH), ctx.alu().counts()};
}

void ExpectSnapshotEq(const Snapshot& a, const Snapshot& b,
                      const std::string& what) {
  EXPECT_EQ(a.fb, b.fb) << what << ": framebuffer differs";
  EXPECT_EQ(a.counts.alu, b.counts.alu) << what << ": alu count differs";
  EXPECT_EQ(a.counts.sfu, b.counts.sfu) << what << ": sfu count differs";
  EXPECT_EQ(a.counts.sfu_trans, b.counts.sfu_trans) << what;
  EXPECT_EQ(a.counts.tmu, b.counts.tmu) << what << ": tmu count differs";
  EXPECT_EQ(a.counts.tmu_miss, b.counts.tmu_miss) << what;
}

ContextConfig MakeConfig(ExecEngine engine, int threads) {
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.exec_engine = engine;
  cfg.shader_threads = threads;
  return cfg;
}

const char* EngineName(ExecEngine e) {
  switch (e) {
    case ExecEngine::kBatchedVm: return "batched";
    case ExecEngine::kBytecodeVm: return "scalar-vm";
    case ExecEngine::kTreeWalk: return "tree";
    default: return "?";
  }
}

// A shader trap must abort transactionally on every engine and worker
// count, and all configurations must converge on byte-identical
// post-abort state (trivially: the pre-draw state, which clean draws make
// engine-identical already).
TEST(FaultInjection, TrapAbortRestoresPreDrawStateEverywhere) {
  std::vector<std::uint8_t> reference_fb;
  const std::array<ExecEngine, 3> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk};
  for (const ExecEngine engine : engines) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " threads=" +
                   std::to_string(threads));
      Context ctx(MakeConfig(engine, threads));
      const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
      const GLuint trap = BuildProgramOrDie(ctx, kPassthroughVs, kTrapFs);
      DrawFullscreenQuad(ctx, clean);
      ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
      EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_NO_ERROR);
      const Snapshot before = Snap(ctx);

      DrawFullscreenQuad(ctx, trap);
      EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
      EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_GUILTY_CONTEXT_RESET);
      // Observe-and-clear: a second query reads clean.
      EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_NO_ERROR);
      EXPECT_NE(ctx.last_draw_error().find("undefined function"),
                std::string::npos)
          << ctx.last_draw_error();
      ExpectSnapshotEq(Snap(ctx), before, "post-abort");

      // Recovery: the next draw is byte-identical to a context that
      // never issued the trapped draw.
      DrawFullscreenQuad(ctx, clean);
      ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
      if (reference_fb.empty()) {
        reference_fb = ReadRgba(ctx, kW, kH);
      } else {
        EXPECT_EQ(ReadRgba(ctx, kW, kH), reference_fb)
            << "recovery framebuffer differs across configurations";
      }
    }
  }
}

TEST(FaultInjection, VertexStageTrapAbortsBeforeAnyPixel) {
  Context ctx(MakeConfig(ExecEngine::kBatchedVm, 1));
  const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
  const GLuint trap_vs = BuildProgramOrDie(ctx, kTrapVs, kCleanFs);
  DrawFullscreenQuad(ctx, clean);
  ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
  const Snapshot before = Snap(ctx);
  DrawFullscreenQuad(ctx, trap_vs);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_GUILTY_CONTEXT_RESET);
  ExpectSnapshotEq(Snap(ctx), before, "post-vertex-trap");
}

// Every engine inlines every call, so the call-graph limits are compile
// errors, the same on every engine and worker count. A chain of 64 nested
// calls, entered by the top half of the screen, compiles and draws the same
// bytes and counts everywhere. A chain of 65, and a call graph whose
// inlined size doubles at each of 32 levels, fail CompileShader with one
// info log and no GL error, and leave the framebuffer, the counters and
// the reset status as they were; the fan-out is rejected without being
// expanded.
TEST(FaultInjection, CallGraphLimitsAreCompileErrorsEverywhere) {
  const auto fs_calling = [](const std::string& functions,
                             const std::string& call) {
    return "precision mediump float;\nvarying vec2 v_uv;\n" + functions +
           "void main() {\n  float v = v_uv.x;\n  if (v_uv.y > 0.5) { v = " +
           call + "; }\n  gl_FragColor = vec4(v, v_uv.y, 0.25, 1.0);\n}\n";
  };
  const std::string deep64_fs =
      fs_calling(glsl::testutil::DeepCallChain(64), "deep63(v)");
  const std::array<std::string, 2> rejected = {
      fs_calling(glsl::testutil::DeepCallChain(65), "deep64(v)"),
      fs_calling(glsl::testutil::FanOutCalls(32), "fan31(v)")};
  const std::array<const char*, 2> rejected_why = {
      "user function calls nest 65 deep, past the limit of 64",
      "shader too large"};
  std::array<std::string, 2> logs;
  Snapshot reference;
  const std::array<ExecEngine, 3> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk};
  for (const ExecEngine engine : engines) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " threads=" +
                   std::to_string(threads));
      Context ctx(MakeConfig(engine, threads));
      const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
      const GLuint deep = BuildProgramOrDie(ctx, kPassthroughVs, deep64_fs);
      DrawFullscreenQuad(ctx, clean);
      DrawFullscreenQuad(ctx, deep);
      ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
      const Snapshot drawn = Snap(ctx);
      if (reference.fb.empty()) {
        reference = drawn;
      } else {
        ExpectSnapshotEq(drawn, reference, "depth-64 draw");
      }

      for (std::size_t i = 0; i < rejected.size(); ++i) {
        const GLuint fs = ctx.CreateShader(GL_FRAGMENT_SHADER);
        ctx.ShaderSource(fs, rejected[i]);
        ctx.CompileShader(fs);
        GLint ok = GL_TRUE;
        ctx.GetShaderiv(fs, GL_COMPILE_STATUS, &ok);
        EXPECT_EQ(ok, GL_FALSE) << rejected_why[i];
        const std::string log = ctx.GetShaderInfoLog(fs);
        EXPECT_NE(log.find(rejected_why[i]), std::string::npos) << log;
        if (logs[i].empty()) logs[i] = log;
        EXPECT_EQ(log, logs[i]);
        EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
      }
      EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_NO_ERROR);
      ExpectSnapshotEq(Snap(ctx), drawn, "after the rejected compiles");
    }
  }
}

// The watchdog trips iff the draw's total modeled ALU ops exceed the
// budget; the total is engine- and thread-invariant, so the trip decision
// must be too. Budget == exact total must NOT trip (the check is strict).
TEST(FaultInjection, WatchdogBudgetTripsDeterministically) {
  // Measure the draw's exact ALU total on a reference context.
  std::uint64_t total = 0;
  {
    Context ctx(MakeConfig(ExecEngine::kBatchedVm, 1));
    const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
    const std::uint64_t before = ctx.alu().counts().alu;
    DrawFullscreenQuad(ctx, clean);
    ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
    total = ctx.alu().counts().alu - before;
    ASSERT_GT(total, 0u);
  }
  const std::array<ExecEngine, 3> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk};
  for (const ExecEngine engine : engines) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " threads=" +
                   std::to_string(threads));
      ContextConfig cfg = MakeConfig(engine, threads);

      // Exactly at the total: every draw completes.
      cfg.draw_budget = total;
      {
        Context ctx(cfg);
        const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
        for (int draw = 0; draw < 2; ++draw) {
          DrawFullscreenQuad(ctx, clean);
          EXPECT_EQ(ctx.GetError(), GL_NO_ERROR) << ctx.last_draw_error();
          EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_NO_ERROR);
        }
      }

      // One op short: every draw aborts with the watchdog mapping, leaving
      // the framebuffer (cleared to a colour the draw overwrites) and the
      // counters as they were.
      cfg.draw_budget = total - 1;
      {
        Context ctx(cfg);
        const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
        ctx.ClearColor(0.25f, 0.5f, 0.75f, 1.0f);
        ctx.Clear(GL_COLOR_BUFFER_BIT);
        const Snapshot pre_trip = Snap(ctx);
        for (int draw = 0; draw < 2; ++draw) {
          DrawFullscreenQuad(ctx, clean);
          EXPECT_EQ(ctx.GetError(), GL_OUT_OF_MEMORY);
          EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_GUILTY_CONTEXT_RESET);
          EXPECT_NE(ctx.last_draw_error().find("watchdog"), std::string::npos)
              << ctx.last_draw_error();
          ExpectSnapshotEq(Snap(ctx), pre_trip, "post-watchdog-abort");
        }
      }
    }
  }
}

// Seeded sweep over fault sites x engines x thread counts:
// every injected fault must produce either a byte-exact transactional abort
// (with the resource-failure error mapping) or an unaffected successful
// draw (site never reached), and the context must then recover to byte-
// identity with a never-faulted twin.
TEST(FaultInjection, InjectedFaultSweepAbortsCleanlyAndRecovers) {
  const std::array<Site, 4> sites = {Site::kBinnerGrow, Site::kShadeCacheAlloc,
                                     Site::kVmInstruction, Site::kPoolTask};
  const std::array<ExecEngine, 3> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk};
  for (int iter = 0; iter < g_fault_iters; ++iter) {
    std::mt19937_64 rng(kSeedBase + static_cast<std::uint64_t>(iter));
    const Site site = sites[rng() % sites.size()];
    const ExecEngine engine = engines[rng() % engines.size()];
    const int threads = std::array<int, 3>{1, 2, 4}[rng() % 3];
    SCOPED_TRACE("iter=" + std::to_string(iter) + " site=" +
                 std::to_string(static_cast<int>(site)) + " engine=" +
                 EngineName(engine) + " threads=" + std::to_string(threads));

    const ContextConfig cfg = MakeConfig(engine, threads);
    // Build-path sites only fire while a context's shading state / binner
    // tables are being built — steady-state draws allocate nothing — so
    // those scenarios arm the context's *first* draw.
    const bool build_site =
        site == Site::kBinnerGrow || site == Site::kShadeCacheAlloc;

    // Probe on a throwaway context: a huge nth counts how often the site
    // is reached by this exact draw without ever failing.
    std::uint64_t reach = 0;
    {
      Context probe(cfg);
      const GLuint p = BuildProgramOrDie(probe, kPassthroughVs, kCleanFs);
      if (!build_site) DrawFullscreenQuad(probe, p);  // warm caches
      fault::Arm(site, ~0ull);
      DrawFullscreenQuad(probe, p);
      reach = fault::Hits(site);
      fault::Disarm(site);
      ASSERT_EQ(probe.GetError(), GL_NO_ERROR);
    }

    Context ctx(cfg);
    Context twin(cfg);  // never faulted
    const GLuint prog = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
    const GLuint twin_prog = BuildProgramOrDie(twin, kPassthroughVs, kCleanFs);
    if (!build_site) {
      DrawFullscreenQuad(ctx, prog);
      DrawFullscreenQuad(twin, twin_prog);
      ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
    }

    if (reach > 0) {
      const std::uint64_t nth = rng() % reach;
      const Snapshot pre = Snap(ctx);
      fault::Arm(site, nth);
      DrawFullscreenQuad(ctx, prog);
      fault::Disarm(site);
      // The armed draw must have failed (nth < reach) and aborted cleanly.
      if (site == Site::kVmInstruction) {
        // Injected as a shader trap: guilty, GL_INVALID_OPERATION.
        EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
        EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_GUILTY_CONTEXT_RESET);
      } else {
        // Implementation resource failure: innocent, GL_OUT_OF_MEMORY.
        EXPECT_EQ(ctx.GetError(), GL_OUT_OF_MEMORY);
        EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_INNOCENT_CONTEXT_RESET);
      }
      EXPECT_FALSE(ctx.last_draw_error().empty());
      ExpectSnapshotEq(Snap(ctx), pre, "post-fault abort");
    }

    // Recovery: the next draw on the faulted context must match the
    // never-faulted twin byte for byte, at identical per-draw counter
    // cost — no residue from the aborted draw.
    const std::uint64_t ctx_before = ctx.alu().counts().alu;
    const std::uint64_t twin_before = twin.alu().counts().alu;
    DrawFullscreenQuad(ctx, prog);
    DrawFullscreenQuad(twin, twin_prog);
    ASSERT_EQ(ctx.GetError(), GL_NO_ERROR) << ctx.last_draw_error();
    ASSERT_EQ(twin.GetError(), GL_NO_ERROR);
    EXPECT_EQ(ReadRgba(ctx, kW, kH), ReadRgba(twin, kW, kH))
        << "recovery draw differs from never-faulted twin";
    EXPECT_EQ(ctx.alu().counts().alu - ctx_before,
              twin.alu().counts().alu - twin_before)
        << "recovery draw cost differs from never-faulted twin";
  }
  fault::DisarmAll();
}

// MGPU_DRAW_BUDGET wiring: the config knob resolves into draw_budget().
TEST(FaultInjection, DrawBudgetConfigKnob) {
  ContextConfig cfg = MakeConfig(ExecEngine::kBatchedVm, 1);
  cfg.draw_budget = 12345;
  Context ctx(cfg);
  // The env var (unset in tests) must not clobber the config value.
  EXPECT_EQ(ctx.draw_budget(), 12345u);
  // MGPU_DRAW_BUDGET overrides the config only when it is a whole decimal
  // number; anything else keeps the configured budget.
  for (const char* bad : {"abc", "-1", "12x"}) {
    SCOPED_TRACE(bad);
    setenv("MGPU_DRAW_BUDGET", bad, /*overwrite=*/1);
    EXPECT_EQ(Context(cfg).draw_budget(), 12345u);
  }
  setenv("MGPU_DRAW_BUDGET", "77", /*overwrite=*/1);
  EXPECT_EQ(Context(cfg).draw_budget(), 77u);
  unsetenv("MGPU_DRAW_BUDGET");
}

}  // namespace
}  // namespace mgpu::gles2

// Custom main: gtest_main cannot parse --fault_iters. InitGoogleTest strips
// the flags it owns; ours is consumed here.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fault_iters=", 14) == 0) {
      mgpu::gles2::g_fault_iters = std::atoi(argv[i] + 14);
    }
  }
  std::printf("fault-injection sweep: %d seeded scenarios\n",
              mgpu::gles2::g_fault_iters);
  return RUN_ALL_TESTS();
}
