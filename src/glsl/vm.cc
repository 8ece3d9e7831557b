#include "glsl/vm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
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
// branch conditions of the batch executor go through the same space
// dispatch, so the encodings cannot drift apart. Built once per batch from
// the engine's storage base pointers (none of the vectors resize during
// execution). Registers and lane-varying globals resolve to
// their arena planes (kVmLanes, 1); constants, uniforms and other
// lane-invariant globals to their shared Value (1, 0). Keeping resolution
// out of the lane loop is the point of batching: the scalar engine
// re-decodes operands once per fragment per instruction.
struct VmExec::LaneViews {
  Cell* arena;
  const std::uint32_t* reg_plane;
  const std::uint32_t* global_plane;
  const Type* reg_types;
  const VmGlobal* global_decls;
  Value* globals;
  const Value* consts;

  [[nodiscard]] PlaneDst Plane(std::uint32_t offset, const Type& t) const {
    return {arena + static_cast<std::size_t>(offset) * kVmLanes, kVmLanes, 1,
            t};
  }
  // Destination view. A lane-invariant global destination resolves to its
  // shared storage: every lane stores into it and the last lane wins,
  // identical to the scalar engine storing it once per fragment.
  [[nodiscard]] PlaneDst Dst(std::uint32_t operand) const {
    const std::uint32_t idx = operand & kOperandIndexMask;
    if ((operand & ~kOperandIndexMask) == kSpaceReg) {
      return Plane(reg_plane[idx], reg_types[idx]);
    }
    const std::uint32_t plane = global_plane[idx];
    return plane != kNoPlane ? Plane(plane, global_decls[idx].type)
                             : ValuePlane(globals[idx]);
  }
  [[nodiscard]] PlaneSrc Read(std::uint32_t operand) const {
    if ((operand & ~kOperandIndexMask) == kSpaceConst) {
      return ValuePlane(consts[operand & kOperandIndexMask]);
    }
    return Dst(operand);
  }
};

VmExec::VmExec(std::shared_ptr<const VmProgram> program, AluModel& alu)
    : prog_(std::move(program)), alu_(alu) {
  globals_.reserve(prog_->globals.size());
  for (const VmGlobal& g : prog_->globals) globals_.emplace_back(g.type);
  regs_.reserve(prog_->reg_types.size());
  for (const Type& t : prog_->reg_types) regs_.emplace_back(t);
  refs_.resize(prog_->ref_slot_count);

  // One-time global initialization (consts and initial values of plain
  // globals). The oracle counts this work at its own construction, so the
  // counter snapshot keeps link-time totals unchanged when both engines are
  // instantiated side by side.
  const OpCounts saved = alu_.counts();
  loop_steps_ = 0;
  (void)Execute(prog_->const_init_entry);
  alu_.SetCounts(saved);
}

VmExec::VmExec(const VmExec& base, AluModel& alu)
    : prog_(base.prog_), alu_(alu), globals_(base.globals_),
      regs_(base.regs_), loop_budget_(base.loop_budget_) {
  // Refs are rebuilt before use by every invocation; fresh ones avoid
  // aliasing the base engine's storage.
  refs_.resize(prog_->ref_slot_count);
}

void VmExec::SyncGlobalsFrom(const ShaderEngine& engine) {
  const VmExec& base = static_cast<const VmExec&>(engine);
  assert(prog_ == base.prog_ && "a clone syncs from its own base engine");
  // Element-wise copy-assign: Value reuses its existing cell storage when
  // the layout matches, so this is a flat copy with no allocation — the
  // cheap per-draw path the shade-state cache relies on.
  for (std::size_t i = 0; i < globals_.size(); ++i) {
    globals_[i] = base.globals_[i];
  }
}

bool VmExec::Run() {
  loop_steps_ = 0;
  return Execute(prog_->run_entry);
}

bool VmExec::Execute(std::uint32_t pc) {
  const VmInst* const code = prog_->code.data();
  const std::uint32_t* const arg_ops = prog_->arg_ops.data();
  // Local copies of the storage base pointers: none of these vectors are
  // resized during execution, and keeping them in locals lets the compiler
  // hold them in registers across the opaque Eval* calls (member pointers
  // would be reloaded after every call).
  Value* const regs = regs_.data();
  Value* const globals = globals_.data();
  const Value* const consts = prog_->consts.data();
  const auto At = [regs, globals](std::uint32_t operand) -> Value& {
    const std::uint32_t idx = operand & kOperandIndexMask;
    return (operand & ~kOperandIndexMask) == kSpaceReg ? regs[idx]
                                                       : globals[idx];
  };
  const auto Read = [regs, globals,
                     consts](std::uint32_t operand) -> const Value& {
    const std::uint32_t idx = operand & kOperandIndexMask;
    switch (operand & ~kOperandIndexMask) {
      case kSpaceReg: return regs[idx];
      case kSpaceGlobal: return globals[idx];
      default: return consts[idx];
    }
  };
  // One extra slot: the run chunk's call into main occupies the stack but
  // does not count against the interpreter's user-call depth limit.
  std::array<std::uint32_t, kMaxCallDepth + 1> ret_stack;
  int sp = 0;

  while (true) {
    const VmInst& in = code[pc];
    switch (in.op) {
      case VmOp::kCopy: {
        Value& d = At(in.dst);
        const Value& s = Read(in.a);
        const int n = d.count();
        if (n <= 4) {
          for (int k = 0; k < n; ++k) d.data()[k] = s.data()[k];
        } else {
          std::memmove(d.data(), s.data(),
                       static_cast<std::size_t>(n) * sizeof(Cell));
        }
        break;
      }
      case VmOp::kZero: {
        Value& d = At(in.dst);
        const int n = d.count();
        if (n <= 4) {
          for (int k = 0; k < n; ++k) d.data()[k].i = 0;
        } else {
          std::memset(d.data(), 0,
                      static_cast<std::size_t>(n) * sizeof(Cell));
        }
        break;
      }
      case VmOp::kShuffle: {
        Value& d = At(in.dst);
        const Value& s = Read(in.a);
        for (int k = 0; k < in.n; ++k) {
          d.data()[k] = s.data()[(in.aux >> (8 * k)) & 0xffu];
        }
        break;
      }
      case VmOp::kExtract: {
        IndexStep step;
        step.limit = static_cast<int>(in.aux);
        step.elem_cells = in.n;
        EvalExtractInto(Read(in.a), step, Read(in.b).I(0), At(in.dst));
        break;
      }
      case VmOp::kArith:
        EvalArithInto(alu_, static_cast<BinOp>(in.u8), Read(in.a), Read(in.b),
                      At(in.dst));
        break;
      case VmOp::kNeg:
        EvalNegInto(alu_, Read(in.a), At(in.dst));
        break;
      case VmOp::kNot:
        EvalNotInto(alu_, Read(in.a), At(in.dst));
        break;
      case VmOp::kXor:
        At(in.dst).SetB(0, Read(in.a).B(0) != Read(in.b).B(0));
        break;
      case VmOp::kBoolNorm:
        At(in.dst).SetB(0, Read(in.a).B(0));
        break;
      case VmOp::kCtor: {
        std::array<const Value*, 16> ptrs;
        for (int i = 0; i < in.n; ++i) ptrs[i] = &Read(arg_ops[in.aux + i]);
        Value& d = At(in.dst);
        // Fresh-value semantics: the interpreter constructs into a zeroed
        // Value; clear so partially-covering (malformed) ctors still match.
        std::memset(d.data(), 0,
                    static_cast<std::size_t>(d.count()) * sizeof(Cell));
        EvalCtorInto(alu_,
                     std::span<const Value* const>(ptrs.data(), in.n), d);
        break;
      }
      case VmOp::kBuiltin: {
        std::array<const Value*, kMaxBuiltinArgs> ptrs;
        for (int i = 0; i < in.n; ++i) ptrs[i] = &Read(arg_ops[in.aux + i]);
        EvalBuiltinInto(static_cast<Builtin>(in.u8), in.type,
                        std::span<const Value* const>(ptrs.data(), in.n),
                        alu_, texture_, At(in.dst));
        break;
      }
      case VmOp::kJump:
        pc = in.aux;
        continue;
      case VmOp::kJumpIfFalse:
        if (!Read(in.a).B(0)) {
          pc = in.aux;
          continue;
        }
        break;
      case VmOp::kJumpIfTrue:
        if (Read(in.a).B(0)) {
          pc = in.aux;
          continue;
        }
        break;
      case VmOp::kLoopGuard:
        if (fault::ShouldFail(fault::Site::kVmInstruction)) {
          throw ShaderRuntimeError(kInjectedTrapMsg);
        }
        if (++loop_steps_ > loop_budget_) {
          throw ShaderRuntimeError(kLoopBudgetMsg);
        }
        break;
      case VmOp::kCall:
        if (sp > kMaxCallDepth) {
          throw ShaderRuntimeError(kCallDepthMsg);
        }
        ret_stack[static_cast<std::size_t>(sp++)] = pc + 1;
        pc = prog_->functions[in.aux].entry;
        continue;
      case VmOp::kRet:
        if (sp == 0) return true;  // main returned
        pc = ret_stack[static_cast<std::size_t>(--sp)];
        continue;
      case VmOp::kDiscard:
        return false;
      case VmOp::kHalt:
        return true;
      case VmOp::kTrap:
        throw ShaderRuntimeError(prog_->messages[in.aux]);
      case VmOp::kRefVar:
        refs_[in.dst] = RefWhole(At(in.a), in.type);
        break;
      case VmOp::kRefIndex: {
        IndexStep step;
        step.limit = static_cast<int>(in.aux);
        step.elem_cells = in.n;
        step.elem_type = in.type;
        refs_[in.dst] = RefIndex(refs_[in.a], step, Read(in.b).I(0));
        break;
      }
      case VmOp::kRefSwizzle: {
        std::array<std::uint8_t, 4> comps{};
        for (int k = 0; k < in.n; ++k) {
          comps[static_cast<std::size_t>(k)] =
              static_cast<std::uint8_t>((in.aux >> (8 * k)) & 0xffu);
        }
        refs_[in.dst] = RefSwizzle(refs_[in.a], in.type, comps.data(), in.n);
        break;
      }
      case VmOp::kReadRef:
        ReadRefInto(refs_[in.a], At(in.dst));
        break;
      case VmOp::kWriteRef:
        WriteRef(refs_[in.dst], Read(in.a));
        break;
      case VmOp::kIncDec:
        EvalIncDecInto(alu_, refs_[in.a], (in.u8 & 1) != 0, (in.u8 & 2) != 0,
                       At(in.dst));
        break;
      case VmOp::kIncDecVar:
        EvalIncDecVar(alu_, At(in.a), (in.u8 & 1) != 0, (in.u8 & 2) != 0,
                      At(in.dst));
        break;
    }
    ++pc;
  }
}

// ---------------------------------------------------------------------------
// Lane-batched execution over component planes
// ---------------------------------------------------------------------------

void VmExec::EnsureBatchState() {
  if (batch_ready_) return;
  std::uint32_t planes = 0;
  reg_plane_.resize(prog_->reg_types.size());
  for (std::size_t r = 0; r < reg_plane_.size(); ++r) {
    reg_plane_[r] = planes;
    planes += static_cast<std::uint32_t>(prog_->reg_types[r].CellCount());
  }
  global_plane_.assign(prog_->globals.size(), kNoPlane);
  for (std::size_t g = 0; g < global_plane_.size(); ++g) {
    if (prog_->lane_global[g] == 0) continue;
    global_plane_[g] = planes;
    planes += static_cast<std::uint32_t>(prog_->globals[g].type.CellCount());
  }
  arena_.assign(static_cast<std::size_t>(planes) * kVmLanes, Cell{});
  // Per-lane globals start as copies of the shared store, which at this
  // point holds the const-init results and current uniforms. Globals the
  // run chunk re-initializes are overwritten per batch anyway; const tables
  // that user code may write keep their correct initial value per lane.
  for (std::size_t g = 0; g < global_plane_.size(); ++g) {
    if (global_plane_[g] == kNoPlane) continue;
    const Value& v = globals_[g];
    for (int c = 0; c < v.count(); ++c) {
      std::fill_n(&arena_[(global_plane_[g] + static_cast<std::size_t>(c)) *
                          kVmLanes],
                  kVmLanes, v.data()[c]);
    }
  }
  lane_refs_.assign(
      static_cast<std::size_t>(prog_->ref_slot_count) * kVmLanes, LRef{});
  lane_ret_stack_.assign(
      static_cast<std::size_t>(kVmLanes) * (kMaxCallDepth + 1), 0);
  batch_ready_ = true;
}

PlaneDst VmExec::LaneGlobal(int slot) {
  EnsureBatchState();
  return Views().Dst(kSpaceGlobal | static_cast<std::uint32_t>(slot));
}

VmExec::LaneViews VmExec::Views() {
  return {arena_.data(),           reg_plane_.data(),
          global_plane_.data(),     prog_->reg_types.data(),
          prog_->globals.data(),    globals_.data(),
          prog_->consts.data()};
}

std::uint32_t VmExec::RunBatch(int n) {
  if (n <= 0) return 0;
  EnsureBatchState();
  return ExecuteBatch(n);
}

void VmExec::ExecBatchOp(const VmInst& in, std::uint32_t mask,
                         const LaneViews& views) {
  const auto ref_at = [this](std::uint32_t slot, int lane) -> LRef& {
    return lane_refs_[static_cast<std::size_t>(slot) * kVmLanes +
                      static_cast<std::size_t>(lane)];
  };
  const auto args = [&](std::span<PlaneSrc> av) {
    for (std::size_t i = 0; i < av.size(); ++i) {
      av[i] = views.Read(prog_->arg_ops[in.aux + i]);
    }
    return std::span<const PlaneSrc>(av);
  };

  switch (in.op) {
    case VmOp::kCopy: {
      const PlaneDst d = views.Dst(in.dst);
      const PlaneSrc s = views.Read(in.a);
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
      const PlaneSrc s = views.Read(in.a);
      for (int k = 0; k < in.n; ++k) {
        CopyLanes(d, k, s, static_cast<int>((in.aux >> (8 * k)) & 0xffu),
                  mask);
      }
      break;
    }
    case VmOp::kExtract: {
      // a[clamp(b)], the index per lane.
      const PlaneDst d = views.Dst(in.dst);
      const PlaneSrc a = views.Read(in.a);
      const PlaneSrc b = views.Read(in.b);
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
      const PlaneSrc a = views.Read(in.a);
      const PlaneSrc b = views.Read(in.b);
      ForEachLane(mask, [&](int l) {
        d.at(0, l).i = (a.at(0, l).i != 0) != (b.at(0, l).i != 0) ? 1 : 0;
      });
      break;
    }
    case VmOp::kBoolNorm: {
      const PlaneDst d = views.Dst(in.dst);
      const PlaneSrc a = views.Read(in.a);
      ForEachLane(mask,
                  [&](int l) { d.at(0, l).i = a.at(0, l).i != 0 ? 1 : 0; });
      break;
    }
    case VmOp::kCtor: {
      std::array<PlaneSrc, 16> av;
      EvalCtorBatch(alu_, args(std::span<PlaneSrc>(av.data(), in.n)),
                    views.Dst(in.dst), mask);
      break;
    }
    case VmOp::kBuiltin: {
      std::array<PlaneSrc, kMaxBuiltinArgs> av;
      EvalBuiltinBatch(static_cast<Builtin>(in.u8),
                       args(std::span<PlaneSrc>(av.data(), in.n)), alu_,
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
      const PlaneSrc b = views.Read(in.b);
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
      const PlaneSrc a = views.Read(in.a);
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
      // Whole-variable ++/-- (loop counters): EvalIncDecVar per cell.
      const PlaneDst v = views.Dst(in.a);
      const PlaneDst d = views.Dst(in.dst);
      const bool post = (in.u8 & 2) != 0;
      const int step = (in.u8 & 1) != 0 ? 1 : -1;
      alu_.Count(std::popcount(mask) * v.count());
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
    default:
      break;  // control-flow ops are handled by ExecuteBatch
  }
}

std::uint32_t VmExec::ExecuteBatch(int n) {
  const VmInst* const code = prog_->code.data();
  const std::uint32_t full =
      n >= 32 ? ~0u : ((1u << static_cast<unsigned>(n)) - 1u);
  constexpr std::size_t kStackStride = kMaxCallDepth + 1;
  for (int l = 0; l < n; ++l) {
    lane_sp_[static_cast<std::size_t>(l)] = 0;
    lane_steps_[static_cast<std::size_t>(l)] = 0;
  }
  std::uint32_t running = full;
  std::uint32_t kept = full;

  // Pending-trap state. A trapping lane does not unwind the batch on the
  // spot: min-pc scheduling executes lanes out of lane order, so the lane
  // that traps *first in scheduling order* need not be the lane a scalar
  // fragment sequence would have trapped on first. Instead the trapping
  // lanes are parked (removed from `running`), the surviving lanes run to
  // completion, and the batch then throws the minimum trapping lane's trap —
  // exactly the fragment the scalar engines would have aborted the draw on.
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
  // under its own lane mask, and every lane performs exactly its scalar
  // instruction sequence — per-lane op counts and TMU access order stay
  // exact.
  const LaneViews views = Views();
  bool converged = true;
  std::uint32_t pc = prog_->run_entry;
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
        const PlaneSrc cond = views.Read(in.a);
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
        // Every lane is inside main or deeper (the run chunk enters main
        // through kCall), so each pops a return pc. Lanes re-joined from
        // different call sites pop different pcs and split.
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
      default:
        ExecBatchOp(in, mask, views);
        break;
    }
    go(pc + 1);
  }
  if (trap_lane >= 0) throw ShaderRuntimeError(trap_msg, trap_lane);
  return kept;
}

}  // namespace mgpu::glsl
