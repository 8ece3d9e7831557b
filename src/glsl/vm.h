// Bytecode VM executor: runs the flat instruction stream of a lowered
// VmProgram over up to kVmLanes invocations at a time, with no recursion and
// no per-invocation allocation. The production engine (kBatchedVm) runs it
// kVmLanes wide; the kBytecodeVm oracle runs the same executor one lane
// wide. All float math routes through the AluModel via the evaluation core
// shared with the tree-walking oracle (evalcore.h), so results and op
// counts are identical to ShaderExec by construction.
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
  // Lays out the lane planes and evaluates the program's constant-
  // initializer chunk once, one lane wide on the shared store. Its ALU/SFU/
  // TMU ops are charged to `alu`, the same counts the oracle's construction
  // charges; its batch steps are not added to vm_steps.
  VmExec(std::shared_ptr<const VmProgram> program, AluModel& alu);

  // A copy is a worker clone (ShaderEngine::Clone): it shares the immutable
  // program and copies the primed globals (constant initializers + uniforms
  // already written into `base`), then lays out and fills its own lane
  // planes, since the operand views point into each engine's own storage.
  // The constant-initializer chunk is NOT re-run.
  VmExec(const VmExec& base);
  VmExec& operator=(const VmExec&) = delete;

  [[nodiscard]] std::unique_ptr<ShaderEngine> Clone() const override {
    return std::make_unique<VmExec>(*this);
  }
  // `base` must be a VmExec. Each Value's storage is reused, so a draw loop
  // that recycles clones performs no allocation here.
  void SyncGlobalsFrom(const ShaderEngine& base) override;

  // Executes the run chunk once for lanes [0, n), n <= kVmLanes, looping
  // lanes *inside* each instruction instead of instructions inside each
  // invocation: instruction fetch, dispatch and operand resolution are paid
  // once per instruction per batch, not once per fragment. One executor
  // (ExecuteBatch, one switch over the opcodes) runs every program. Lanes
  // move in groups that share a pc, held as (pc, lane mask) pairs; each
  // step executes the instruction of the group at the smallest pc, so a
  // branch whose condition differs between lanes runs both sides, each
  // with the lanes that took it, like the QPU's per-element condition
  // flags, and the two groups merge again where their pcs meet. There is
  // no call stack: every call is inlined (ir.h). Every
  // lane performs exactly the evalcore operations a one-lane run would, so
  // results and AluModel op counts are byte-identical to n one-lane runs by
  // construction — with one caveat: a global that carries state *between*
  // invocations without being re-initialized per run (a read GLSL leaves
  // undefined, e.g. an initializer-less accumulator or an unwritten
  // gl_FragColor) carries per-lane-slot history, so such shaders read
  // different garbage at different widths. Returns the bitmask of lanes
  // NOT killed by `discard`. Throws ShaderRuntimeError iff a one-lane run of
  // any lane would, attributing the trap (ShaderRuntimeError::lane, and its
  // message) to the smallest trapping lane — the fragment a one-lane
  // sequence would have aborted the draw on first. Trapping lanes stop
  // while surviving lanes run to completion before the throw.
  //
  // Each step (one instruction over one lane group) adds one to `alu`'s
  // vm_steps counter.
  //
  // Per-fragment inputs/outputs live in per-lane component planes accessed
  // via LaneGlobal; uniforms and other lane-invariant globals stay in the
  // scalar store shared by all lanes (so per-draw uniform sync cost is
  // independent of the lane width).
  std::uint32_t RunBatch(int n, AluModel& alu,
                         const TextureFn& texture) override;

  // Component-plane view of global `slot`: a lane-varying global's arena
  // plane (component stride kVmLanes, lane stride 1), or the shared scalar
  // storage (1, 0) of a lane-invariant global, which is never written per
  // lane. The view stays valid for the engine's lifetime.
  [[nodiscard]] PlaneDst LaneGlobal(int slot) override;

  [[nodiscard]] int GlobalSlot(const std::string& name) const override {
    return prog_->GlobalSlot(name);
  }
  [[nodiscard]] Value& GlobalAt(int slot) override {
    return globals_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const Value& GlobalAt(int slot) const {
    return globals_[static_cast<std::size_t>(slot)];
  }

  [[nodiscard]] const VmProgram& program() const { return *prog_; }

  // Loop-iteration budget (the "a real GPU would hang or be reset" ceiling,
  // shared semantics with the tree-walk oracle's ShaderExec::SetLoopBudget).
  // Default kDefaultLoopBudget; tests lower it so runaway shaders trap
  // quickly. Worker clones inherit the base engine's budget.
  void SetLoopBudget(std::uint64_t steps) { loop_budget_ = steps; }
  [[nodiscard]] std::uint64_t loop_budget() const { return loop_budget_; }

 private:
  // Resolves operands to component-plane views (defined in vm.cc).
  struct LaneViews;
  [[nodiscard]] LaneViews Views() const;
  // Sizes the arena and the per-lane refs, and resolves the view of every
  // register, global, constant and alias.
  void LayOutPlanes();
  // Copies the shared store's value of every lane-varying global into all
  // of its lanes.
  void FillLaneGlobals();
  std::uint32_t ExecuteBatch(std::uint32_t entry, int n, LaneViews views,
                             AluModel& alu, const TextureFn& texture);

  std::shared_ptr<const VmProgram> prog_;
  std::vector<Value> globals_;
  std::uint64_t loop_budget_ = kDefaultLoopBudget;

  // --- lane state, built at construction (base and clones alike) ---
  // One arena of 32-bit cells laid out as component planes, one plane per
  // component of every register and lane-varying global: component c of
  // lane l sits at plane c's cell l (views (kVmLanes, 1)). A lane-invariant
  // global lives in globals_ only and a constant in the program's pool;
  // their views are the shared Value (1, 0), so neither ever resizes. An
  // alias's view is its base's, moved on to its first component.
  std::vector<Cell> arena_;
  std::vector<PlaneSrc> reg_views_;
  std::vector<PlaneSrc> global_views_;
  std::vector<PlaneSrc> const_views_;
  std::vector<PlaneSrc> alias_views_;
  // Per-lane l-value refs (slot s of lane l at s * kVmLanes + l), pointing
  // into the arena with stride kVmLanes or into the shared store.
  std::vector<LRef> lane_refs_;
  // Loop-budget steps per lane: lanes re-joined from unequal trip counts
  // share a group but not a count.
  std::array<std::uint64_t, kVmLanes> lane_steps_{};
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_VM_H_
