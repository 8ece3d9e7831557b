// Semantic analysis for GLSL ES 1.00: symbol resolution (variables to global
// or frame slots), full type checking with the ES rules (notably: *no*
// implicit int->float conversions), l-value and storage-qualifier
// enforcement, recursion ban, call-graph and resource-limit checks, and
// the mandatory default-precision rule for fragment shaders.
#ifndef MGPU_GLSL_SEMA_H_
#define MGPU_GLSL_SEMA_H_

#include <cstdint>
#include <memory>

#include "glsl/ast.h"
#include "glsl/diag.h"
#include "glsl/shader.h"

namespace mgpu::glsl {

// Every engine inlines every user call, so sema rejects a shader whose user
// calls nest deeper than kMaxCallDepth (main's own body is depth 0), or
// whose AST, once every call is inlined, holds more than kMaxInlinedNodes
// nodes, the way a driver rejects a shader too large for its compiler. The
// largest shader of the repository's kernels, tests, benches and examples
// inlines to 1,015 nodes, 16x below the limit.
inline constexpr int kMaxCallDepth = 64;
inline constexpr std::uint64_t kMaxInlinedNodes = 1 << 14;

// Consumes the parsed translation unit and produces a CompiledShader with all
// annotations filled in. On error, diagnostics are recorded in `diags` and
// the returned shader must not be executed.
[[nodiscard]] std::unique_ptr<CompiledShader> Analyze(
    std::unique_ptr<TranslationUnit> tu, Stage stage, const Limits& limits,
    DiagSink& diags);

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_SEMA_H_
