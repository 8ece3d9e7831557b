// Tree-walking evaluator for analyzed GLSL ES 1.00 shaders. One ShaderExec
// holds the mutable state of a shader stage (uniforms, attributes/varyings,
// gl_* registers); Run() executes main() once per vertex or fragment. All
// float arithmetic is routed through the AluModel the run is given
// (precision + op counting) via the evaluation core shared with the
// bytecode VM (evalcore.h).
//
// This engine is the semantic reference oracle; the production fragment path
// runs the bytecode VM (vm.h), which is proven byte-identical — outputs and
// op counts — against this interpreter by the differential conformance
// harness (tests/glsl_vm_test.cc).
#ifndef MGPU_GLSL_INTERP_H_
#define MGPU_GLSL_INTERP_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "glsl/alu.h"
#include "glsl/builtins.h"
#include "glsl/engine.h"
#include "glsl/evalcore.h"
#include "glsl/shader.h"
#include "glsl/value.h"

namespace mgpu::glsl {

class ShaderExec final : public ShaderEngine {
 public:
  // Evaluates the global initializers, charging their ops to `alu`.
  ShaderExec(const CompiledShader& cs, AluModel& alu);
  // A copy is a worker clone (ShaderEngine::Clone): it shares the analyzed
  // shader and copies the globals; initializers are not re-evaluated.
  ShaderExec(const ShaderExec&) = default;

  [[nodiscard]] std::unique_ptr<ShaderEngine> Clone() const override {
    return std::make_unique<ShaderExec>(*this);
  }
  // `base` must be a ShaderExec.
  void SyncGlobalsFrom(const ShaderEngine& base) override;

  [[nodiscard]] int GlobalSlot(const std::string& name) const override;
  [[nodiscard]] Value& GlobalAt(int slot) override {
    return globals_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const Value& GlobalAt(int slot) const {
    return globals_[static_cast<std::size_t>(slot)];
  }

  // Executes main(), counting on `alu` and fetching texels through
  // `texture`. Returns false if the invocation was discarded.
  bool Run(AluModel& alu, const TextureFn& texture);
  std::uint32_t RunBatch([[maybe_unused]] int n, AluModel& alu,
                         const TextureFn& texture) override {
    assert(n == 1 && "the tree walker runs one lane at a time");
    return Run(alu, texture) ? 1u : 0u;
  }
  [[nodiscard]] PlaneDst LaneGlobal(int slot) override {
    return ValuePlane(GlobalAt(slot));
  }

  // Loop-iteration budget (default kDefaultLoopBudget), same semantics as
  // VmExec::SetLoopBudget, so a differential test that builds this engine
  // and a VmExec side by side trips the same trap cheaply on each.
  void SetLoopBudget(std::uint64_t steps) { loop_budget_ = steps; }
  [[nodiscard]] std::uint64_t loop_budget() const { return loop_budget_; }

  [[nodiscard]] const CompiledShader& shader() const { return cs_; }

 private:
  enum class Flow { kNormal, kBreak, kContinue, kReturn, kDiscard };

  // One function activation, with the run's counter model and texture
  // fetch.
  struct Frame {
    Frame(AluModel& a, const TextureFn& t) : alu(a), texture(t) {}
    AluModel& alu;
    const TextureFn& texture;
    std::vector<Value> slots;
    Value ret;
    bool returned = false;
  };

  void InitGlobals(AluModel& alu);

  Value Eval(const Expr& e, Frame& f);
  Flow Exec(const Stmt& s, Frame& f);
  Flow ExecBlock(const BlockStmt& b, Frame& f);

  LRef EvalLValue(const Expr& e, Frame& f);

  Value EvalArith(AluModel& alu, BinOp op, const Value& l, const Value& r,
                  Type result);
  Value EvalCtor(const CtorExpr& c, Frame& f);
  Value CallFunction(const FunctionDecl& fn, const CallExpr& call, Frame& f);

  void CheckLoopGuard();

  const CompiledShader& cs_;
  std::vector<Value> globals_;
  std::vector<int> reinit_slots_;  // plain globals with initializers
  std::uint64_t loop_steps_ = 0;
  std::uint64_t loop_budget_ = kDefaultLoopBudget;
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_INTERP_H_
