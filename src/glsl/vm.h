// Bytecode VM executor: the default execution engine for shader
// invocations. A VmExec instantiates the register file / globals / ref
// slots of a lowered VmProgram once, then Run() executes the flat
// instruction stream with a tight dispatch loop — no recursion, no
// per-invocation allocation. All float math routes through the AluModel via
// the evaluation core shared with the tree-walking oracle (evalcore.h), so
// results and op counts are identical to ShaderExec by construction.
#ifndef MGPU_GLSL_VM_H_
#define MGPU_GLSL_VM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "glsl/alu.h"
#include "glsl/builtins.h"
#include "glsl/engine.h"
#include "glsl/evalcore.h"
#include "glsl/ir.h"

namespace mgpu::glsl {

class VmExec final : public ShaderEngine {
 public:
  // Evaluates the program's constant-initializer chunk once; the ops it
  // spends are excluded from `alu`'s counters (the oracle charged the same
  // work at its own construction, so per-Run counts stay comparable).
  VmExec(std::shared_ptr<const VmProgram> program, AluModel& alu);

  // Worker clone (ShaderEngine::Clone): shares the immutable program and
  // copies the primed globals (constant initializers + uniforms already
  // mirrored into `base`). The constant-initializer chunk is NOT re-run.
  VmExec(const VmExec& base, AluModel& alu);

  [[nodiscard]] std::unique_ptr<ShaderEngine> Clone(
      AluModel& alu) const override {
    return std::make_unique<VmExec>(*this, alu);
  }
  // `base` must be a VmExec. Each Value's storage is reused, so a draw loop
  // that recycles clones performs no allocation here.
  void SyncGlobalsFrom(const ShaderEngine& base) override;

  bool Run() override;

  // --- lane-batched execution over component planes ---
  // Executes the run chunk once for lanes [0, n), n <= kVmLanes, looping
  // lanes *inside* each instruction instead of instructions inside each
  // invocation: instruction fetch, dispatch and operand resolution are paid
  // once per instruction per batch, not once per fragment. One executor
  // (ExecuteBatch, one switch over the opcodes) runs every program: each
  // step executes the instruction at the smallest pc any lane waits on, for
  // the lanes parked there, so lanes that agree share one pc and a branch
  // whose condition differs between lanes runs both sides, each with the
  // lanes that took it, like the QPU's per-element condition flags. Every
  // lane performs exactly the evalcore operations a scalar Run() would, so
  // results and AluModel op counts are byte-identical to n scalar runs by
  // construction — with one caveat: a global that carries state *between*
  // invocations without being re-initialized per run (a read GLSL leaves
  // undefined, e.g. an initializer-less accumulator or an unwritten
  // gl_FragColor) carries per-lane-slot history here versus per-engine
  // history in a scalar sequence, so such shaders read different garbage.
  // Returns the bitmask of lanes NOT killed by `discard`. Throws
  // ShaderRuntimeError iff a scalar run of any lane would, attributing the
  // trap (ShaderRuntimeError::lane, and its message) to the smallest
  // trapping lane — the fragment a scalar engine sequence would have
  // aborted the draw on first. Trapping lanes park while surviving lanes
  // run to completion before the throw.
  //
  // Per-fragment inputs/outputs live in per-lane component planes accessed
  // via LaneGlobal; uniforms and other lane-invariant globals stay in the
  // scalar store shared by all lanes (so per-draw uniform sync cost is
  // independent of the lane width).
  std::uint32_t RunBatch(int n);

  // Component-plane view of global `slot` for the batch executor: a
  // lane-varying global's arena plane (component stride kVmLanes, lane
  // stride 1), or the shared scalar storage (1, 0) of a lane-invariant
  // global, which is never written per lane. Allocates the lane state on
  // first use; the view stays valid for the engine's lifetime.
  [[nodiscard]] PlaneDst LaneGlobal(int slot);

  [[nodiscard]] int GlobalSlot(const std::string& name) const override {
    return prog_->GlobalSlot(name);
  }
  [[nodiscard]] Value& GlobalAt(int slot) override {
    return globals_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const Value& GlobalAt(int slot) const {
    return globals_[static_cast<std::size_t>(slot)];
  }
  void SetTextureFn(TextureFn fn) override { texture_ = std::move(fn); }

  [[nodiscard]] const VmProgram& program() const { return *prog_; }
  [[nodiscard]] AluModel& alu() { return alu_; }

  // Loop-iteration budget (the "a real GPU would hang or be reset" ceiling,
  // shared semantics with the tree-walk oracle's ShaderExec::SetLoopBudget).
  // Default kDefaultLoopBudget; tests lower it so runaway shaders trap
  // quickly. Worker clones inherit the base engine's budget.
  void SetLoopBudget(std::uint64_t steps) { loop_budget_ = steps; }
  [[nodiscard]] std::uint64_t loop_budget() const { return loop_budget_; }

 private:
  bool Execute(std::uint32_t pc);

  // Resolves operands to component-plane views (defined in vm.cc).
  struct LaneViews;
  [[nodiscard]] LaneViews Views();
  void EnsureBatchState();
  std::uint32_t ExecuteBatch(int n);
  // Executes one non-control-flow instruction for the lanes in `mask`, with
  // operand resolution hoisted out of the lane loop.
  void ExecBatchOp(const VmInst& in, std::uint32_t mask,
                   const LaneViews& views);

  std::shared_ptr<const VmProgram> prog_;
  AluModel& alu_;
  TextureFn texture_;
  std::vector<Value> globals_;
  std::vector<Value> regs_;
  std::vector<LRef> refs_;
  std::uint64_t loop_steps_ = 0;
  std::uint64_t loop_budget_ = kDefaultLoopBudget;

  // --- lane state of the batch executor, allocated lazily on the first
  // RunBatch ---
  // One arena of 32-bit cells laid out as component planes, one plane per
  // component of every register and lane-varying global: component c of
  // lane l of a value at plane offset o sits at arena_[(o + c) * kVmLanes +
  // l]. reg_plane_/global_plane_ hold each value's offset (kNoPlane for a
  // lane-invariant global, which lives in globals_ only).
  static constexpr std::uint32_t kNoPlane = ~0u;
  bool batch_ready_ = false;
  std::vector<Cell> arena_;
  std::vector<std::uint32_t> reg_plane_;
  std::vector<std::uint32_t> global_plane_;
  // Per-lane l-value refs (slot s of lane l at s * kVmLanes + l), pointing
  // into the arena with stride kVmLanes or into the shared store.
  std::vector<LRef> lane_refs_;
  // Per-lane control state (members so batches allocate nothing): pc /
  // call stack / loop budget.
  std::array<std::uint32_t, kVmLanes> lane_pc_{};
  std::array<int, kVmLanes> lane_sp_{};
  std::array<std::uint64_t, kVmLanes> lane_steps_{};
  std::vector<std::uint32_t> lane_ret_stack_;
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_VM_H_
