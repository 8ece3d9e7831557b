#include "glsl/vm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>

#include "common/fault.h"

namespace mgpu::glsl {
namespace {

// Same budget (and messages) as the tree-walking interpreter. The loop
// budget itself is a member (loop_budget_, default kDefaultLoopBudget) so
// tests can trip the trap path without 100M iterations.
constexpr int kMaxCallDepth = 64;

constexpr char kLoopBudgetMsg[] =
    "shader exceeded the loop iteration budget (a real GPU would hang or be "
    "reset here)";
constexpr char kCallDepthMsg[] = "shader call depth exceeded";
// Message of the kVmInstruction fault site (fires at a guarded step).
constexpr char kInjectedTrapMsg[] = "injected fault: shader trap";

}  // namespace

// The one place operands resolve to component-plane views — value ops and
// branch conditions go through the same tables, so the encodings cannot
// drift apart. Every register, global and constant has its view resolved
// once, when the engine lays out its storage (none of the storage moves
// afterwards), so reading an operand is one table load and a one-lane pass
// pays no more per operand than a full batch.
static_assert(kSpaceReg >> 30 == 0 && kSpaceGlobal >> 30 == 1 &&
              kSpaceConst >> 30 == 2);
struct VmExec::LaneViews {
  // Indexed by an operand's space tag: registers, globals, constants.
  std::array<const PlaneSrc*, 3> space;

  [[nodiscard]] const PlaneSrc& Read(std::uint32_t operand) const {
    return space[operand >> 30][operand & kOperandIndexMask];
  }
  // Registers and globals live in the engine's own, writable storage. A
  // lane-invariant global destination resolves to its shared storage:
  // every lane stores into it and the last lane wins, identical to a
  // one-lane sequence storing it once per fragment.
  [[nodiscard]] PlaneDst Dst(std::uint32_t operand) const {
    const PlaneSrc& v = Read(operand);
    return {const_cast<Cell*>(v.base), v.comp_stride, v.lane_stride, v.type};
  }
};

VmExec::VmExec(std::shared_ptr<const VmProgram> program, AluModel& alu)
    : prog_(std::move(program)), alu_(alu) {
  globals_.reserve(prog_->globals.size());
  for (const VmGlobal& g : prog_->globals) globals_.emplace_back(g.type);
  LayOutPlanes();

  // One-time global initialization (consts and initial values of plain
  // globals), one lane wide with every global resolved to the shared store;
  // only then do the lane-varying globals' planes take those values. The
  // oracle counts this work at its own construction, so the counter
  // snapshot keeps link-time totals unchanged when both engines are
  // instantiated side by side.
  std::vector<PlaneSrc> shared;
  shared.reserve(globals_.size());
  for (const Value& g : globals_) shared.push_back(ValuePlane(g));
  const OpCounts saved = alu_.counts();
  (void)ExecuteBatch(
      prog_->const_init_entry, 1,
      {{reg_views_.data(), shared.data(), const_views_.data()}});
  alu_.SetCounts(saved);
  FillLaneGlobals();
}

VmExec::VmExec(const VmExec& base, AluModel& alu)
    : prog_(base.prog_), alu_(alu), globals_(base.globals_),
      loop_budget_(base.loop_budget_) {
  LayOutPlanes();
  FillLaneGlobals();
}

void VmExec::SyncGlobalsFrom(const ShaderEngine& engine) {
  const VmExec& base = static_cast<const VmExec&>(engine);
  assert(prog_ == base.prog_ && "a clone syncs from its own base engine");
  // Element-wise copy-assign: Value reuses its existing cell storage when
  // the layout matches, so this is a flat copy with no allocation (the
  // cheap per-draw path the shade-state cache relies on), and the resolved
  // views of the shared globals stay valid.
  for (std::size_t i = 0; i < globals_.size(); ++i) {
    globals_[i] = base.globals_[i];
  }
}

// ---------------------------------------------------------------------------
// Lane-batched execution over component planes
// ---------------------------------------------------------------------------

void VmExec::LayOutPlanes() {
  std::size_t planes = 0;
  for (const Type& t : prog_->reg_types) planes += t.CellCount();
  for (std::size_t g = 0; g < globals_.size(); ++g) {
    if (prog_->lane_global[g] != 0) planes += globals_[g].count();
  }
  arena_.assign(planes * kVmLanes, Cell{});
  // Hands out the next planes of the arena, one per cell of type `t`.
  Cell* next = arena_.data();
  const auto plane = [&next](const Type& t) {
    const PlaneSrc v{next, kVmLanes, 1, t};
    next += static_cast<std::size_t>(t.CellCount()) * kVmLanes;
    return v;
  };
  for (const Type& t : prog_->reg_types) reg_views_.push_back(plane(t));
  for (std::size_t g = 0; g < globals_.size(); ++g) {
    global_views_.push_back(prog_->lane_global[g] != 0
                                ? plane(globals_[g].type())
                                : ValuePlane(std::as_const(globals_[g])));
  }
  for (const Value& c : prog_->consts) const_views_.push_back(ValuePlane(c));
  lane_refs_.assign(
      static_cast<std::size_t>(prog_->ref_slot_count) * kVmLanes, LRef{});
  lane_ret_stack_.assign(
      static_cast<std::size_t>(kVmLanes) * (kMaxCallDepth + 1), 0);
}

void VmExec::FillLaneGlobals() {
  // The shared store holds the const-init results and current uniforms.
  // Globals the run chunk re-initializes are overwritten per batch anyway;
  // const tables that user code may write keep their correct initial value
  // per lane.
  for (std::size_t g = 0; g < globals_.size(); ++g) {
    if (prog_->lane_global[g] == 0) continue;
    const Value& v = globals_[g];
    const PlaneDst plane = LaneGlobal(static_cast<int>(g));
    for (int c = 0; c < v.count(); ++c) {
      std::fill_n(&plane.at(c, 0), kVmLanes, v.data()[c]);
    }
  }
}

PlaneDst VmExec::LaneGlobal(int slot) {
  return Views().Dst(kSpaceGlobal | static_cast<std::uint32_t>(slot));
}

VmExec::LaneViews VmExec::Views() const {
  return {{reg_views_.data(), global_views_.data(), const_views_.data()}};
}

std::uint32_t VmExec::RunBatch(int n) {
  if (n <= 0) return 0;
  return ExecuteBatch(prog_->run_entry, n, Views());
}

std::uint32_t VmExec::ExecuteBatch(std::uint32_t entry, int n,
                                   const LaneViews views) {
  const VmInst* const code = prog_->code.data();
  const std::uint32_t full =
      n >= 32 ? ~0u : ((1u << static_cast<unsigned>(n)) - 1u);
  constexpr std::size_t kStackStride = kMaxCallDepth + 1;
  for (int l = 0; l < n; ++l) {
    lane_sp_[static_cast<std::size_t>(l)] = 0;
    lane_steps_[static_cast<std::size_t>(l)] = 0;
  }
  const auto ref_at = [this](std::uint32_t slot, int lane) -> LRef& {
    return lane_refs_[static_cast<std::size_t>(slot) * kVmLanes +
                      static_cast<std::size_t>(lane)];
  };
  // Resolves instruction `in`'s argument list (ctor/builtin operands).
  const auto args = [&](const VmInst& in, std::span<PlaneSrc> av) {
    for (std::size_t i = 0; i < av.size(); ++i) {
      av[i] = views.Read(prog_->arg_ops[in.aux + i]);
    }
    return std::span<const PlaneSrc>(av);
  };

  std::uint32_t running = full;
  std::uint32_t kept = full;

  // Pending-trap state. A trapping lane does not unwind the batch on the
  // spot: min-pc scheduling executes lanes out of lane order, so the lane
  // that traps *first in scheduling order* need not be the lane a one-lane
  // fragment sequence would have trapped on first. Instead the trapping
  // lanes are parked (removed from `running`), the surviving lanes run to
  // completion, and the batch then throws the minimum trapping lane's trap —
  // exactly the fragment the oracles would have aborted the draw on.
  int trap_lane = -1;
  std::string trap_msg;
  const auto trap = [&](std::uint32_t lanes, const std::string& msg) {
    const int l = std::countr_zero(lanes);
    if (trap_lane < 0 || l < trap_lane) {
      trap_lane = l;
      trap_msg = msg;
    }
    running &= ~lanes;
    kept &= ~lanes;
  };

  // Each step executes the instruction at the smallest pc any running lane
  // waits on, for exactly the lanes parked there (`mask`). While every
  // running lane is in that group the batch is converged: the lanes share
  // `pc` and no per-lane pc is scanned or stored. A branch (or ret) whose
  // outcome differs between the group's lanes splits it into per-lane pcs
  // (lane_pc_). Structured lowering places a branch's taken-earlier block
  // before its taken-later block and loop bodies before their exits, so
  // split lanes re-join at the join point's pc, where the group covers every
  // running lane again. Both sides of a divergent branch thus execute, each
  // under its own lane mask, and every lane performs exactly its one-lane
  // instruction sequence — per-lane op counts and TMU access order stay
  // exact.
  bool converged = true;
  std::uint32_t pc = entry;
  std::uint32_t mask = running;
  // The group continues at `next`.
  const auto go = [&](std::uint32_t next) {
    if (converged) {
      pc = next;
    } else {
      ForEachLane(mask, [&](int l) {
        lane_pc_[static_cast<std::size_t>(l)] = next;
      });
    }
  };
  while (running != 0) {
    mask = running;
    if (!converged) {
      pc = ~0u;
      for (std::uint32_t m = running; m != 0; m &= m - 1) {
        pc = std::min(pc, lane_pc_[static_cast<std::size_t>(
                              std::countr_zero(m))]);
      }
      mask = 0;
      for (std::uint32_t m = running; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        if (lane_pc_[static_cast<std::size_t>(l)] == pc) {
          mask |= 1u << static_cast<unsigned>(l);
        }
      }
      converged = mask == running;
    }
    const VmInst& in = code[pc];
    switch (in.op) {
      case VmOp::kJump:
        go(in.aux);
        continue;
      case VmOp::kJumpIfFalse:
      case VmOp::kJumpIfTrue: {
        const PlaneSrc& cond = views.Read(in.a);
        const bool jump_on = in.op == VmOp::kJumpIfTrue;
        std::uint32_t taken = 0;
        ForEachLane(mask, [&](int l) {
          if ((cond.at(0, l).i != 0) == jump_on) {
            taken |= 1u << static_cast<unsigned>(l);
          }
        });
        if (taken == 0 || taken == mask) {
          go(taken == 0 ? pc + 1 : in.aux);
        } else {
          ForEachLane(mask, [&](int l) {
            lane_pc_[static_cast<std::size_t>(l)] =
                ((taken >> static_cast<unsigned>(l)) & 1u) != 0 ? in.aux
                                                                : pc + 1;
          });
          converged = false;
        }
        continue;
      }
      case VmOp::kLoopGuard: {
        if (fault::ShouldFail(fault::Site::kVmInstruction)) {
          trap(mask, kInjectedTrapMsg);
          continue;
        }
        // Lanes may carry different step counts into one guard (re-joined
        // from unequal trip counts), so the budget is checked per lane.
        std::uint32_t over = 0;
        ForEachLane(mask, [&](int l) {
          if (++lane_steps_[static_cast<std::size_t>(l)] > loop_budget_) {
            over |= 1u << static_cast<unsigned>(l);
          }
        });
        if (over != 0) trap(over, kLoopBudgetMsg);
        break;
      }
      case VmOp::kCall: {
        std::uint32_t deep = 0;
        ForEachLane(mask, [&](int l) {
          const std::size_t li = static_cast<std::size_t>(l);
          if (lane_sp_[li] > kMaxCallDepth) {
            deep |= 1u << static_cast<unsigned>(l);
            return;
          }
          lane_ret_stack_[li * kStackStride +
                          static_cast<std::size_t>(lane_sp_[li]++)] = pc + 1;
        });
        if (deep != 0) trap(deep, kCallDepthMsg);
        go(prog_->functions[in.aux].entry);
        continue;
      }
      case VmOp::kRet: {
        // Every kRet runs inside a function its chunk entered through kCall
        // (the run chunk enters main that way; both chunks end in kHalt),
        // so each lane pops a return pc. Lanes re-joined from different
        // call sites pop different pcs and split.
        std::uint32_t next = ~0u;
        bool same = true;
        ForEachLane(mask, [&](int l) {
          const std::size_t li = static_cast<std::size_t>(l);
          const std::uint32_t ret =
              lane_ret_stack_[li * kStackStride +
                              static_cast<std::size_t>(--lane_sp_[li])];
          lane_pc_[li] = ret;
          same = same && (next == ~0u || ret == next);
          next = ret;
        });
        if (same) {
          go(next);
        } else {
          converged = false;
        }
        continue;
      }
      case VmOp::kDiscard:
        kept &= ~mask;
        running &= ~mask;
        continue;
      case VmOp::kHalt:
        running &= ~mask;
        continue;
      case VmOp::kTrap:
        trap(mask, prog_->messages[in.aux]);
        continue;
      // Data ops run for the lanes in `mask` with their operands resolved
      // once, outside the lane loop; the group then moves on to pc + 1.
      case VmOp::kCopy: {
        const PlaneDst d = views.Dst(in.dst);
        const PlaneSrc& s = views.Read(in.a);
        for (int c = 0; c < d.count(); ++c) CopyLanes(d, c, s, c, mask);
        break;
      }
      case VmOp::kZero: {
        const PlaneDst d = views.Dst(in.dst);
        const Cell zero{};
        for (int c = 0; c < d.count(); ++c) {
          CopyLanes(d, c, {&zero, 0, 0, d.type}, 0, mask);
        }
        break;
      }
      case VmOp::kShuffle: {
        const PlaneDst d = views.Dst(in.dst);
        const PlaneSrc& s = views.Read(in.a);
        for (int k = 0; k < in.n; ++k) {
          CopyLanes(d, k, s, static_cast<int>((in.aux >> (8 * k)) & 0xffu),
                    mask);
        }
        break;
      }
      case VmOp::kExtract: {
        // a[clamp(b)], the index per lane.
        const PlaneDst d = views.Dst(in.dst);
        const PlaneSrc& a = views.Read(in.a);
        const PlaneSrc& b = views.Read(in.b);
        const int limit = static_cast<int>(in.aux);
        ForEachLane(mask, [&](int l) {
          const int i = std::min(std::max(b.at(0, l).i, 0), limit - 1);
          for (int k = 0; k < in.n; ++k) d.at(k, l) = a.at(i * in.n + k, l);
        });
        break;
      }
      case VmOp::kArith:
        EvalArithBatch(alu_, static_cast<BinOp>(in.u8), views.Read(in.a),
                       views.Read(in.b), views.Dst(in.dst), mask);
        break;
      case VmOp::kNeg:
        EvalNegBatch(alu_, views.Read(in.a), views.Dst(in.dst), mask);
        break;
      case VmOp::kNot:
        EvalNotBatch(alu_, views.Read(in.a), views.Dst(in.dst), mask);
        break;
      case VmOp::kXor: {
        const PlaneDst d = views.Dst(in.dst);
        const PlaneSrc& a = views.Read(in.a);
        const PlaneSrc& b = views.Read(in.b);
        ForEachLane(mask, [&](int l) {
          d.at(0, l).i = (a.at(0, l).i != 0) != (b.at(0, l).i != 0) ? 1 : 0;
        });
        break;
      }
      case VmOp::kBoolNorm: {
        const PlaneDst d = views.Dst(in.dst);
        const PlaneSrc& a = views.Read(in.a);
        ForEachLane(mask,
                    [&](int l) { d.at(0, l).i = a.at(0, l).i != 0 ? 1 : 0; });
        break;
      }
      case VmOp::kCtor: {
        std::array<PlaneSrc, 16> av;
        EvalCtorBatch(alu_, args(in, std::span<PlaneSrc>(av.data(), in.n)),
                      views.Dst(in.dst), mask);
        break;
      }
      case VmOp::kBuiltin: {
        std::array<PlaneSrc, kMaxBuiltinArgs> av;
        EvalBuiltinBatch(static_cast<Builtin>(in.u8),
                         args(in, std::span<PlaneSrc>(av.data(), in.n)), alu_,
                         texture_, views.Dst(in.dst), mask);
        break;
      }
      case VmOp::kRefVar: {
        const PlaneDst v = views.Dst(in.a);
        ForEachLane(mask, [&](int l) {
          ref_at(in.dst, l) = RefWhole(&v.at(0, l), v.comp_stride, in.type);
        });
        break;
      }
      case VmOp::kRefIndex: {
        IndexStep step;
        step.limit = static_cast<int>(in.aux);
        step.elem_cells = in.n;
        step.elem_type = in.type;
        const PlaneSrc& b = views.Read(in.b);
        ForEachLane(mask, [&](int l) {
          ref_at(in.dst, l) = RefIndex(ref_at(in.a, l), step, b.at(0, l).i);
        });
        break;
      }
      case VmOp::kRefSwizzle: {
        std::array<std::uint8_t, 4> comps{};
        for (int k = 0; k < in.n; ++k) {
          comps[static_cast<std::size_t>(k)] =
              static_cast<std::uint8_t>((in.aux >> (8 * k)) & 0xffu);
        }
        ForEachLane(mask, [&](int l) {
          ref_at(in.dst, l) =
              RefSwizzle(ref_at(in.a, l), in.type, comps.data(), in.n);
        });
        break;
      }
      case VmOp::kReadRef: {
        const PlaneDst d = views.Dst(in.dst);
        ForEachLane(mask, [&](int l) {
          const LRef& r = ref_at(in.a, l);
          for (int k = 0; k < r.size(); ++k) d.at(k, l) = r.cell(k);
        });
        break;
      }
      case VmOp::kWriteRef: {
        const PlaneSrc& a = views.Read(in.a);
        ForEachLane(mask, [&](int l) {
          const LRef& r = ref_at(in.dst, l);
          for (int k = 0; k < r.size(); ++k) r.cell(k) = a.at(k, l);
        });
        break;
      }
      case VmOp::kIncDec: {
        // Rare (++ on an indexed or swizzled l-value): each lane runs the
        // scalar EvalIncDecInto through its ref into a scratch Value, which
        // is scattered into the lane's destination plane.
        const PlaneDst d = views.Dst(in.dst);
        Value out(d.type);
        ForEachLane(mask, [&](int l) {
          EvalIncDecInto(alu_, ref_at(in.a, l), (in.u8 & 1) != 0,
                         (in.u8 & 2) != 0, out);
          for (int k = 0; k < out.count(); ++k) d.at(k, l) = out.data()[k];
        });
        break;
      }
      case VmOp::kIncDecVar: {
        // Whole-variable ++/-- (loop counters): EvalIncDecInto's arithmetic
        // and counts, minus the ref.
        const PlaneDst v = views.Dst(in.a);
        const PlaneDst d = views.Dst(in.dst);
        const bool post = (in.u8 & 2) != 0;
        const int step = (in.u8 & 1) != 0 ? 1 : -1;
        alu_.Count(LaneCount(mask) * v.count());
        if (v.scalar() == BaseType::kFloat) {
          const RoundSpec rs = alu_.round_spec();
          ForEachCell(v.count(), mask, [&](int c, int l) {
            const float old = v.at(c, l).f;
            const float updated = rs(old + static_cast<float>(step));
            v.at(c, l).f = updated;
            d.at(c, l).f = post ? old : updated;
          });
        } else {
          ForEachCell(v.count(), mask, [&](int c, int l) {
            const std::int32_t old = v.at(c, l).i;
            const std::int32_t updated = old + step;
            v.at(c, l).i = updated;
            d.at(c, l).i = post ? old : updated;
          });
        }
        break;
      }
    }
    go(pc + 1);
  }
  if (trap_lane >= 0) throw ShaderRuntimeError(trap_msg, trap_lane);
  return kept;
}

}  // namespace mgpu::glsl
