// Shared helpers for GLSL front-end and interpreter tests.
#ifndef MGPU_TESTS_GLSL_TEST_UTIL_H_
#define MGPU_TESTS_GLSL_TEST_UTIL_H_

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>

#include "glsl/alu.h"
#include "glsl/builtins.h"
#include "glsl/compile.h"
#include "glsl/interp.h"

#include "gtest/gtest.h"

namespace mgpu::glsl::testutil {

// Compiles and expects success; fails the test with the info log otherwise.
inline std::unique_ptr<CompiledShader> MustCompile(
    const std::string& src, Stage stage = Stage::kFragment,
    const Limits& limits = Limits{}) {
  CompileResult r = CompileGlsl(src, stage, limits);
  EXPECT_TRUE(r.ok) << "compile failed:\n" << r.info_log << "\nsource:\n"
                    << src;
  return std::move(r.shader);
}

// Compiles and expects failure; returns the info log.
inline std::string MustFail(const std::string& src,
                            Stage stage = Stage::kFragment,
                            const Limits& limits = Limits{}) {
  CompileResult r = CompileGlsl(src, stage, limits);
  EXPECT_FALSE(r.ok) << "expected compile error for:\n" << src;
  return r.info_log;
}

// Runs a fragment shader body that assigns gl_FragColor and returns the
// resulting vec4. The body is wrapped with highp default precision.
inline std::array<float, 4> RunFragment(const std::string& body,
                                        AluModel& alu) {
  const std::string src = "precision highp float;\nvoid main() {\n" + body +
                          "\n}\n";
  auto shader = MustCompile(src, Stage::kFragment);
  if (shader == nullptr) return {};
  ShaderExec exec(*shader, alu);
  EXPECT_TRUE(exec.Run(alu, {}));
  const int slot = exec.GlobalSlot("gl_FragColor");
  EXPECT_GE(slot, 0);
  const Value& v = exec.GlobalAt(slot);
  return {v.F(0), v.F(1), v.F(2), v.F(3)};
}

inline std::array<float, 4> RunFragment(const std::string& body) {
  AluModel alu;
  return RunFragment(body, alu);
}

// Runs a full fragment shader (caller provides precision + main) and returns
// gl_FragColor.
inline std::array<float, 4> RunFragmentSource(const std::string& src,
                                              AluModel& alu) {
  auto shader = MustCompile(src, Stage::kFragment);
  if (shader == nullptr) return {};
  ShaderExec exec(*shader, alu);
  EXPECT_TRUE(exec.Run(alu, {}));
  const Value& v = exec.GlobalAt(exec.GlobalSlot("gl_FragColor"));
  return {v.F(0), v.F(1), v.F(2), v.F(3)};
}

// Adapts a per-texel callback (unit, s, t, lod) -> RGBA into a batched
// TextureFn that serves each lane of a fetch's mask in turn (and reads
// zeros for the other lanes below its top one). The callback stays
// behind a std::function so one-lane and batched fetches run the same
// machine code for it: inlined into the lane loop it could be vectorized,
// and when both operands of, say, `s + t` are NaN, which payload survives
// depends on the operand order the compiler picks for each copy.
using TexelCallback =
    std::function<std::array<float, 4>(int unit, float s, float t, float lod)>;
inline TextureFn PerTexel(TexelCallback texel) {
  return [texel = std::move(texel)](TexelFetch& fetch) {
    for (auto& row : fetch.rgba) {
      std::fill_n(row.begin(), TopLane(fetch.mask), 0.0f);
    }
    ForEachLane(fetch.mask, [&](int l) {
      const std::size_t li = static_cast<std::size_t>(l);
      const std::array<float, 4> rgba =
          texel(fetch.unit[li], fetch.s[li], fetch.t[li], fetch.lod[li]);
      for (std::size_t c = 0; c < 4; ++c) fetch.rgba[c][li] = rgba[c];
    });
  };
}

// GLSL source of a call chain deep0 .. deep<depth-1>, each deep<k> calling
// deep<k-1>, so a call to deep<depth-1> nests `depth` user calls. A shader
// whose main calls deep64 nests 65 and fails to compile (sema's
// kMaxCallDepth is 64). Needs a default float precision in scope.
inline std::string DeepCallChain(int depth) {
  std::string src = "float deep0(float x) { return x * 0.5 + 0.25; }\n";
  for (int k = 1; k < depth; ++k) {
    src += "float deep" + std::to_string(k) + "(float x) { return deep" +
           std::to_string(k - 1) + "(x) + 0.125; }\n";
  }
  return src;
}

// GLSL source of fan0 .. fan<n-1>, each fan<k> calling fan<k-1> twice, so a
// call to fan<n-1> inlines 2^(n-1) copies of fan0: a shader far past sema's
// kMaxInlinedNodes from a few lines of source. Needs a default float
// precision in scope.
inline std::string FanOutCalls(int n) {
  std::string src = "float fan0(float x) { return x * 0.5; }\n";
  for (int k = 1; k < n; ++k) {
    const std::string prev = "fan" + std::to_string(k - 1);
    src += "float fan" + std::to_string(k) + "(float x) { return " + prev +
           "(x) + " + prev + "(x * 0.5); }\n";
  }
  return src;
}

}  // namespace mgpu::glsl::testutil

#endif  // MGPU_TESTS_GLSL_TEST_UTIL_H_
