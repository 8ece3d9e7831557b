// AST -> bytecode lowering. Translates the annotated tree the semantic
// analyzer produced into the flat VmInst stream of ir.h. The lowering
// preserves the tree-walking interpreter's evaluation order *exactly* —
// including argument evaluation order, l-value timing, and short-circuit
// behaviour — so the VM's results and AluModel op counts are identical.
#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/strings.h"
#include "glsl/builtins.h"
#include "glsl/evalcore.h"
#include "glsl/ir.h"

namespace mgpu::glsl {
namespace {

// True when evaluating `e` can mutate shader state (assignments, ++/--, or
// a call into user code, which may write globals or out-parameters). Used to
// decide when an already-lowered operand must be materialized into a
// temporary before a sibling expression executes — mirroring the
// interpreter, which always evaluates sub-expressions into copies.
bool HasSideEffects(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kBoolLit:
    case ExprKind::kVarRef:
      return false;
    case ExprKind::kAssign:
      return true;
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      if (u.op == UnOp::kPreInc || u.op == UnOp::kPreDec ||
          u.op == UnOp::kPostInc || u.op == UnOp::kPostDec) {
        return true;
      }
      return HasSideEffects(*u.operand);
    }
    case ExprKind::kCall: {
      const auto& c = static_cast<const CallExpr&>(e);
      if (c.fn != nullptr) return true;  // user call: may write globals
      for (const auto& a : c.args) {
        if (HasSideEffects(*a)) return true;
      }
      return false;
    }
    case ExprKind::kCtor: {
      const auto& c = static_cast<const CtorExpr&>(e);
      for (const auto& a : c.args) {
        if (HasSideEffects(*a)) return true;
      }
      return false;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      return HasSideEffects(*b.lhs) || HasSideEffects(*b.rhs);
    }
    case ExprKind::kTernary: {
      const auto& t = static_cast<const TernaryExpr&>(e);
      return HasSideEffects(*t.cond) || HasSideEffects(*t.then_expr) ||
             HasSideEffects(*t.else_expr);
    }
    case ExprKind::kIndex: {
      const auto& ix = static_cast<const IndexExpr&>(e);
      return HasSideEffects(*ix.base) || HasSideEffects(*ix.index);
    }
    case ExprKind::kSwizzle:
      return HasSideEffects(*static_cast<const SwizzleExpr&>(e).base);
    case ExprKind::kComma: {
      const auto& c = static_cast<const CommaExpr&>(e);
      return HasSideEffects(*c.lhs) || HasSideEffects(*c.rhs);
    }
  }
  return true;  // unknown node: be conservative
}

std::uint32_t PackComps(const std::uint8_t* comps, int count) {
  std::uint32_t packed = 0;
  for (int i = 0; i < count; ++i) {
    packed |= static_cast<std::uint32_t>(comps[i]) << (8 * i);
  }
  return packed;
}

// later[i] is true when some argument after i has side effects, i.e. the
// operand of argument i must be snapshotted before those arguments run.
std::vector<bool> LaterEffects(const std::vector<ExprPtr>& args) {
  std::vector<bool> later(args.size());
  bool any = false;
  for (std::size_t i = args.size(); i-- > 0;) {
    later[i] = any;
    if (HasSideEffects(*args[i])) any = true;
  }
  return later;
}

class Lowerer {
 public:
  explicit Lowerer(const CompiledShader& cs)
      : cs_(cs), prog_(std::make_shared<VmProgram>()) {}

  std::shared_ptr<const VmProgram> Lower() {
    prog_->stage = cs_.stage;
    for (const VarDecl* g : cs_.globals) {
      prog_->globals.push_back({g->name, g->type});
    }
    PrepassFunctions();

    // Inlining must not change the call-depth boundary the interpreter
    // enforces (64 concurrently active user calls; the 65th throws). Call
    // depth is fully static in GLSL ES (no recursion), so: if every path
    // stays within the budget, the interpreter never throws and inlining
    // is invisible; otherwise (deeper, or malformed recursive input)
    // disable inlining entirely so the runtime kCall path reproduces the
    // oracle's behaviour exactly.
    int depth = cs_.main != nullptr && cs_.main->body != nullptr
                    ? FnCallDepth(cs_.main)
                    : 0;
    for (const VarDecl* g : cs_.globals) {
      if (g->init != nullptr) depth = std::max(depth, ExprCallDepth(*g->init));
    }
    prog_->deep_calls = depth > kMaxStaticCallDepth;
    inline_enabled_ = !prog_->deep_calls;

    // Chunk 1: construction-time initialization of every global with an
    // initializer (slot order), mirroring ShaderExec::InitGlobals.
    prog_->const_init_entry = Pc();
    for (const VarDecl* g : cs_.globals) {
      if (g->init != nullptr) {
        const std::uint32_t v = LowerExpr(*g->init);
        EmitCopy(GlobalOperand(g->slot), v);
      }
    }
    Emit(MakeInst(VmOp::kHalt));

    // Chunk 2: the per-Run prologue — re-initialize plain globals, then run
    // main — mirroring ShaderExec::Run.
    prog_->run_entry = Pc();
    for (const VarDecl* g : cs_.globals) {
      if (g->init != nullptr && !g->is_builtin &&
          g->qual == Qualifier::kNone) {
        const std::uint32_t v = LowerExpr(*g->init);
        EmitCopy(GlobalOperand(g->slot), v);
      }
    }
    const FunctionDecl* main_def =
        cs_.main != nullptr && cs_.main->body != nullptr ? cs_.main : nullptr;
    if (main_def == nullptr) {
      EmitTrap("shader has no executable main()");
    } else {
      VmInst call = MakeInst(VmOp::kCall);
      call.aux = fn_index_.at(main_def);
      Emit(call);
    }
    Emit(MakeInst(VmOp::kHalt));

    // Function bodies (iterate the TU so the emission order is stable).
    for (const auto& fn : cs_.tu->functions) {
      const auto it = fn_index_.find(fn.get());
      if (it != fn_index_.end()) LowerFunction(*fn, it->second);
    }
    return prog_;
  }

 private:
  struct LoopCtx {
    std::vector<std::uint32_t> break_fixups;
    std::vector<std::uint32_t> continue_fixups;
  };

  [[nodiscard]] std::uint32_t Pc() const {
    return static_cast<std::uint32_t>(prog_->code.size());
  }

  std::uint32_t Emit(const VmInst& inst) {
    prog_->code.push_back(inst);
    return Pc() - 1;
  }

  void Patch(std::uint32_t at, std::uint32_t target) {
    prog_->code[at].aux = target;
  }

  [[nodiscard]] std::uint32_t NewReg(const Type& t) {
    prog_->reg_types.push_back(t);
    return kSpaceReg |
           static_cast<std::uint32_t>(prog_->reg_types.size() - 1);
  }

  [[nodiscard]] static std::uint32_t GlobalOperand(int slot) {
    return kSpaceGlobal | static_cast<std::uint32_t>(slot);
  }

  [[nodiscard]] std::uint32_t NewConst(Value v) {
    prog_->consts.push_back(std::move(v));
    return kSpaceConst |
           static_cast<std::uint32_t>(prog_->consts.size() - 1);
  }

  [[nodiscard]] std::uint32_t NewRefSlot() { return prog_->ref_slot_count++; }

  [[nodiscard]] std::uint32_t NewMessage(std::string text) {
    prog_->messages.push_back(std::move(text));
    return static_cast<std::uint32_t>(prog_->messages.size() - 1);
  }

  void EmitTrap(std::string text) {
    VmInst t = MakeInst(VmOp::kTrap);
    t.aux = NewMessage(std::move(text));
    Emit(t);
  }

  void EmitCopy(std::uint32_t dst, std::uint32_t src) {
    if (dst == src) return;
    VmInst c = MakeInst(VmOp::kCopy);
    c.dst = dst;
    c.a = src;
    Emit(c);
  }

  // Copies `op` into a fresh temporary of type `t` so later side effects
  // cannot change its value. Constants are immutable already.
  [[nodiscard]] std::uint32_t Materialize(std::uint32_t op, const Type& t) {
    if ((op & ~kOperandIndexMask) == kSpaceConst) return op;
    const std::uint32_t tmp = NewReg(t);
    EmitCopy(tmp, op);
    return tmp;
  }

  // --- functions ---------------------------------------------------------

  void PrepassFunctions() {
    for (const auto& fn : cs_.tu->functions) {
      if (fn->body == nullptr) continue;
      VmFunction f;
      if (fn->return_type.base != BaseType::kVoid) {
        f.ret_reg = NewReg(fn->return_type);
      }
      const std::uint32_t idx =
          static_cast<std::uint32_t>(prog_->functions.size());
      prog_->functions.push_back(f);
      fn_index_[fn.get()] = idx;
      auto& params = param_regs_[fn.get()];
      for (const auto& p : fn->params) {
        if (p->type.base == BaseType::kVoid) continue;
        const std::uint32_t r = NewReg(p->type);
        params.push_back(r);
        var_regs_[p.get()] = r;
      }
    }
  }

  // Resolves a call target to its *definition*, the way the interpreter
  // does at runtime; returns nullptr when only a prototype exists.
  [[nodiscard]] const FunctionDecl* ResolveDef(const FunctionDecl& fn) const {
    if (fn.body != nullptr) return &fn;
    for (const auto& other : cs_.tu->functions) {
      if (other->name == fn.name && other->body != nullptr &&
          other->params.size() == fn.params.size()) {
        bool same = true;
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
          if (!(other->params[i]->type == fn.params[i]->type)) {
            same = false;
            break;
          }
        }
        if (same) return other.get();
      }
    }
    return nullptr;
  }

  void LowerFunction(const FunctionDecl& fn, std::uint32_t idx) {
    current_fn_ = &fn;
    prog_->functions[idx].entry = Pc();
    // Fell-off-the-end semantics: a non-void function that never executes
    // `return` yields a zero value, so the return register starts zeroed.
    if (prog_->functions[idx].ret_reg != kOperandNone) {
      VmInst z = MakeInst(VmOp::kZero);
      z.dst = prog_->functions[idx].ret_reg;
      Emit(z);
    }
    LowerStmt(*fn.body);
    Emit(MakeInst(VmOp::kRet));
    current_fn_ = nullptr;
  }

  // --- statements --------------------------------------------------------

  void LowerStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock: {
        for (const StmtPtr& c : static_cast<const BlockStmt&>(s).stmts) {
          LowerStmt(*c);
        }
        return;
      }
      case StmtKind::kExpr: {
        const auto& es = static_cast<const ExprStmt&>(s);
        if (es.expr) (void)LowerExpr(*es.expr);
        return;
      }
      case StmtKind::kDecl: {
        const auto& ds = static_cast<const DeclStmt&>(s);
        for (const auto& vd : ds.decls) {
          const std::uint32_t reg = NewReg(vd->type);
          var_regs_[vd.get()] = reg;
          if (vd->init) {
            const std::uint32_t v = LowerExpr(*vd->init);
            EmitCopy(reg, v);
          } else {
            VmInst z = MakeInst(VmOp::kZero);
            z.dst = reg;
            Emit(z);
          }
        }
        return;
      }
      case StmtKind::kIf: {
        const auto& is = static_cast<const IfStmt&>(s);
        const std::uint32_t cond = LowerExpr(*is.cond);
        VmInst jf = MakeInst(VmOp::kJumpIfFalse);
        jf.a = cond;
        const std::uint32_t to_else = Emit(jf);
        LowerStmt(*is.then_stmt);
        if (is.else_stmt) {
          const std::uint32_t to_end = Emit(MakeInst(VmOp::kJump));
          Patch(to_else, Pc());
          LowerStmt(*is.else_stmt);
          Patch(to_end, Pc());
        } else {
          Patch(to_else, Pc());
        }
        return;
      }
      case StmtKind::kFor: {
        const auto& fs = static_cast<const ForStmt&>(s);
        if (fs.init) LowerStmt(*fs.init);
        loops_.emplace_back();
        const std::uint32_t head = Pc();
        Emit(MakeInst(VmOp::kLoopGuard));
        std::uint32_t exit_jump = kOperandNone;
        if (fs.cond) {
          const std::uint32_t cond = LowerExpr(*fs.cond);
          VmInst jf = MakeInst(VmOp::kJumpIfFalse);
          jf.a = cond;
          exit_jump = Emit(jf);
        }
        LowerStmt(*fs.body);
        const std::uint32_t step_pc = Pc();  // `continue` lands here
        if (fs.step) (void)LowerExpr(*fs.step);
        VmInst jb = MakeInst(VmOp::kJump);
        jb.aux = head;
        Emit(jb);
        const std::uint32_t end = Pc();
        if (exit_jump != kOperandNone) Patch(exit_jump, end);
        for (const std::uint32_t fx : loops_.back().break_fixups) {
          Patch(fx, end);
        }
        for (const std::uint32_t fx : loops_.back().continue_fixups) {
          Patch(fx, step_pc);
        }
        loops_.pop_back();
        return;
      }
      case StmtKind::kWhile: {
        const auto& ws = static_cast<const WhileStmt&>(s);
        loops_.emplace_back();
        const std::uint32_t head = Pc();
        Emit(MakeInst(VmOp::kLoopGuard));
        const std::uint32_t cond = LowerExpr(*ws.cond);
        VmInst jf = MakeInst(VmOp::kJumpIfFalse);
        jf.a = cond;
        const std::uint32_t exit_jump = Emit(jf);
        LowerStmt(*ws.body);
        VmInst jb = MakeInst(VmOp::kJump);
        jb.aux = head;
        Emit(jb);
        const std::uint32_t end = Pc();
        Patch(exit_jump, end);
        for (const std::uint32_t fx : loops_.back().break_fixups) {
          Patch(fx, end);
        }
        for (const std::uint32_t fx : loops_.back().continue_fixups) {
          Patch(fx, head);
        }
        loops_.pop_back();
        return;
      }
      case StmtKind::kDoWhile: {
        const auto& ds = static_cast<const DoWhileStmt&>(s);
        loops_.emplace_back();
        const std::uint32_t head = Pc();
        Emit(MakeInst(VmOp::kLoopGuard));
        LowerStmt(*ds.body);
        const std::uint32_t cond_pc = Pc();  // `continue` lands here
        const std::uint32_t cond = LowerExpr(*ds.cond);
        VmInst jt = MakeInst(VmOp::kJumpIfTrue);
        jt.a = cond;
        jt.aux = head;
        Emit(jt);
        const std::uint32_t end = Pc();
        for (const std::uint32_t fx : loops_.back().break_fixups) {
          Patch(fx, end);
        }
        for (const std::uint32_t fx : loops_.back().continue_fixups) {
          Patch(fx, cond_pc);
        }
        loops_.pop_back();
        return;
      }
      case StmtKind::kReturn: {
        const auto& rs = static_cast<const ReturnStmt&>(s);
        if (!inline_stack_.empty()) {
          // Inlined body: `return` copies into the function's return
          // register and jumps to the end of this inline instance. (Read
          // ret_reg by value and re-fetch back() after LowerExpr — nested
          // inlining inside the return expression may grow the stack.)
          const std::uint32_t ret_reg = inline_stack_.back().ret_reg;
          if (rs.value) {
            const std::uint32_t v = LowerExpr(*rs.value);
            if (ret_reg != kOperandNone) EmitCopy(ret_reg, v);
          }
          inline_stack_.back().end_fixups.push_back(
              Emit(MakeInst(VmOp::kJump)));
          return;
        }
        if (rs.value) {
          const std::uint32_t v = LowerExpr(*rs.value);
          const std::uint32_t ret_reg =
              prog_->functions[fn_index_.at(current_fn_)].ret_reg;
          if (ret_reg != kOperandNone) EmitCopy(ret_reg, v);
        }
        Emit(MakeInst(VmOp::kRet));
        return;
      }
      case StmtKind::kBreak: {
        const std::uint32_t fx = Emit(MakeInst(VmOp::kJump));
        if (!loops_.empty()) loops_.back().break_fixups.push_back(fx);
        return;
      }
      case StmtKind::kContinue: {
        const std::uint32_t fx = Emit(MakeInst(VmOp::kJump));
        if (!loops_.empty()) loops_.back().continue_fixups.push_back(fx);
        return;
      }
      case StmtKind::kDiscard: {
        // Inside main, `discard` kills the fragment. Inside a helper
        // function the interpreter's call layer swallows the discard flow —
        // it behaves as an early return — and the VM matches that.
        if (current_fn_ == cs_.main) {
          Emit(MakeInst(VmOp::kDiscard));
        } else if (!inline_stack_.empty()) {
          inline_stack_.back().end_fixups.push_back(
              Emit(MakeInst(VmOp::kJump)));
        } else {
          Emit(MakeInst(VmOp::kRet));
        }
        return;
      }
    }
  }

  // --- expressions -------------------------------------------------------

  // Lowers `e` and returns the operand holding its value. The operand may
  // alias a variable; callers that consume it after lowering a sibling with
  // side effects must Materialize() it first.
  std::uint32_t LowerExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return NewConst(
            Value::MakeInt(static_cast<const IntLitExpr&>(e).value));
      case ExprKind::kFloatLit:
        return NewConst(
            Value::MakeFloat(static_cast<const FloatLitExpr&>(e).value));
      case ExprKind::kBoolLit:
        return NewConst(
            Value::MakeBool(static_cast<const BoolLitExpr&>(e).value));
      case ExprKind::kVarRef: {
        const auto& v = static_cast<const VarRefExpr&>(e);
        if (v.scope == VarScope::kGlobal) return GlobalOperand(v.slot);
        return var_regs_.at(v.decl);
      }
      case ExprKind::kCall: {
        const auto& call = static_cast<const CallExpr&>(e);
        if (call.fn != nullptr) return LowerUserCall(call);
        return LowerArgListOp(VmOp::kBuiltin,
                              static_cast<std::uint8_t>(call.builtin),
                              call.args, call.type);
      }
      case ExprKind::kCtor: {
        const auto& c = static_cast<const CtorExpr&>(e);
        return LowerArgListOp(VmOp::kCtor, 0, c.args, c.ctor_type);
      }
      case ExprKind::kBinary:
        return LowerBinary(static_cast<const BinaryExpr&>(e));
      case ExprKind::kUnary:
        return LowerUnary(static_cast<const UnaryExpr&>(e));
      case ExprKind::kAssign:
        return LowerAssign(static_cast<const AssignExpr&>(e));
      case ExprKind::kTernary: {
        const auto& t = static_cast<const TernaryExpr&>(e);
        const std::uint32_t dst = NewReg(t.type);
        const std::uint32_t cond = LowerExpr(*t.cond);
        VmInst jf = MakeInst(VmOp::kJumpIfFalse);
        jf.a = cond;
        const std::uint32_t to_else = Emit(jf);
        EmitCopy(dst, LowerExpr(*t.then_expr));
        const std::uint32_t to_end = Emit(MakeInst(VmOp::kJump));
        Patch(to_else, Pc());
        EmitCopy(dst, LowerExpr(*t.else_expr));
        Patch(to_end, Pc());
        return dst;
      }
      case ExprKind::kIndex: {
        const auto& ix = static_cast<const IndexExpr&>(e);
        std::uint32_t base = LowerExpr(*ix.base);
        if (HasSideEffects(*ix.index)) {
          base = Materialize(base, ix.base->type);
        }
        const std::uint32_t index = LowerExpr(*ix.index);
        const IndexStep step = IndexStepOf(ix.base->type);
        VmInst x = MakeInst(VmOp::kExtract);
        x.dst = NewReg(ix.type);
        x.a = base;
        x.b = index;
        x.n = static_cast<std::uint16_t>(step.elem_cells);
        x.aux = static_cast<std::uint32_t>(step.limit);
        Emit(x);
        return x.dst;
      }
      case ExprKind::kSwizzle: {
        const auto& sw = static_cast<const SwizzleExpr&>(e);
        const std::uint32_t base = LowerExpr(*sw.base);
        VmInst sh = MakeInst(VmOp::kShuffle);
        sh.dst = NewReg(sw.type);
        sh.a = base;
        sh.n = static_cast<std::uint16_t>(sw.count);
        sh.aux = PackComps(sw.comps.data(), sw.count);
        Emit(sh);
        return sh.dst;
      }
      case ExprKind::kComma: {
        const auto& c = static_cast<const CommaExpr&>(e);
        (void)LowerExpr(*c.lhs);
        return LowerExpr(*c.rhs);
      }
    }
    EmitTrap("internal error: unlowerable expression");
    return NewConst(Value::MakeInt(0));
  }

  std::uint32_t LowerBinary(const BinaryExpr& b) {
    switch (b.op) {
      case BinOp::kLogicalAnd: {
        const std::uint32_t dst = NewReg(MakeType(BaseType::kBool));
        VmInst norm = MakeInst(VmOp::kBoolNorm);
        norm.dst = dst;
        norm.a = LowerExpr(*b.lhs);
        Emit(norm);
        VmInst jf = MakeInst(VmOp::kJumpIfFalse);
        jf.a = dst;
        const std::uint32_t skip = Emit(jf);
        VmInst norm2 = MakeInst(VmOp::kBoolNorm);
        norm2.dst = dst;
        norm2.a = LowerExpr(*b.rhs);
        Emit(norm2);
        Patch(skip, Pc());
        return dst;
      }
      case BinOp::kLogicalOr: {
        const std::uint32_t dst = NewReg(MakeType(BaseType::kBool));
        VmInst norm = MakeInst(VmOp::kBoolNorm);
        norm.dst = dst;
        norm.a = LowerExpr(*b.lhs);
        Emit(norm);
        VmInst jt = MakeInst(VmOp::kJumpIfTrue);
        jt.a = dst;
        const std::uint32_t skip = Emit(jt);
        VmInst norm2 = MakeInst(VmOp::kBoolNorm);
        norm2.dst = dst;
        norm2.a = LowerExpr(*b.rhs);
        Emit(norm2);
        Patch(skip, Pc());
        return dst;
      }
      case BinOp::kLogicalXor: {
        std::uint32_t l = LowerExpr(*b.lhs);
        if (HasSideEffects(*b.rhs)) l = Materialize(l, b.lhs->type);
        const std::uint32_t r = LowerExpr(*b.rhs);
        VmInst x = MakeInst(VmOp::kXor);
        x.dst = NewReg(MakeType(BaseType::kBool));
        x.a = l;
        x.b = r;
        Emit(x);
        return x.dst;
      }
      default: {
        std::uint32_t l = LowerExpr(*b.lhs);
        if (HasSideEffects(*b.rhs)) l = Materialize(l, b.lhs->type);
        const std::uint32_t r = LowerExpr(*b.rhs);
        VmInst a = MakeInst(VmOp::kArith);
        a.u8 = static_cast<std::uint8_t>(b.op);
        a.dst = NewReg(b.type);
        a.a = l;
        a.b = r;
        Emit(a);
        return a.dst;
      }
    }
  }

  std::uint32_t LowerUnary(const UnaryExpr& u) {
    switch (u.op) {
      case UnOp::kPlus:
        return LowerExpr(*u.operand);
      case UnOp::kNeg: {
        VmInst n = MakeInst(VmOp::kNeg);
        n.a = LowerExpr(*u.operand);
        n.dst = NewReg(u.type);
        Emit(n);
        return n.dst;
      }
      case UnOp::kNot: {
        VmInst n = MakeInst(VmOp::kNot);
        n.a = LowerExpr(*u.operand);
        n.dst = NewReg(MakeType(BaseType::kBool));
        Emit(n);
        return n.dst;
      }
      case UnOp::kPreInc:
      case UnOp::kPreDec:
      case UnOp::kPostInc:
      case UnOp::kPostDec: {
        const bool inc = u.op == UnOp::kPreInc || u.op == UnOp::kPostInc;
        const bool post = u.op == UnOp::kPostInc || u.op == UnOp::kPostDec;
        VmInst i;
        i.u8 = static_cast<std::uint8_t>((inc ? 1 : 0) | (post ? 2 : 0));
        if (u.operand->kind == ExprKind::kVarRef) {
          // Whole-variable ++/-- (the classic loop counter): skip the
          // l-value reference machinery entirely.
          const auto& v = static_cast<const VarRefExpr&>(*u.operand);
          i.op = VmOp::kIncDecVar;
          i.a = v.scope == VarScope::kGlobal ? GlobalOperand(v.slot)
                                             : var_regs_.at(v.decl);
        } else {
          i.op = VmOp::kIncDec;
          i.a = LowerLValue(*u.operand);
        }
        i.dst = NewReg(u.operand->type);
        Emit(i);
        return i.dst;
      }
    }
    EmitTrap("internal error: unlowerable unary");
    return NewConst(Value::MakeInt(0));
  }

  std::uint32_t LowerAssign(const AssignExpr& a) {
    // Interpreter order: RHS first, then the l-value (whose index
    // expressions run after the RHS). The interpreter holds the RHS in a
    // copy, so if evaluating the l-value can mutate state the RHS operand
    // must be snapshotted first.
    std::uint32_t rhs = LowerExpr(*a.rhs);
    if (HasSideEffects(*a.lhs)) rhs = Materialize(rhs, a.rhs->type);
    if (a.lhs->kind == ExprKind::kVarRef) {
      const auto& v = static_cast<const VarRefExpr&>(*a.lhs);
      const std::uint32_t var = v.scope == VarScope::kGlobal
                                    ? GlobalOperand(v.slot)
                                    : var_regs_.at(v.decl);
      if (a.op == AssignOp::kAssign) {
        EmitCopy(var, rhs);
        return rhs;
      }
      // Component-wise compound ops can run in place (each cell is read
      // before it is written); linear-algebra multiplies read cells across
      // the whole operand, so they still need a temporary.
      const BinOp op = CompoundOp(a.op);
      const bool matrix_mul =
          op == BinOp::kMul && (IsMatrix(a.lhs->type.base) ||
                                IsMatrix(a.rhs->type.base));
      VmInst ar = MakeInst(VmOp::kArith);
      ar.u8 = static_cast<std::uint8_t>(op);
      ar.a = var;
      ar.b = rhs;
      if (matrix_mul) {
        const std::uint32_t dst = NewReg(a.type);
        ar.dst = dst;
        Emit(ar);
        EmitCopy(var, dst);
        return dst;
      }
      ar.dst = var;
      Emit(ar);
      return var;
    }
    const std::uint32_t ref = LowerLValue(*a.lhs);
    if (a.op == AssignOp::kAssign) {
      VmInst w = MakeInst(VmOp::kWriteRef);
      w.dst = ref;
      w.a = rhs;
      Emit(w);
      return rhs;
    }
    VmInst rd = MakeInst(VmOp::kReadRef);
    rd.dst = NewReg(a.lhs->type);
    rd.a = ref;
    Emit(rd);
    const std::uint32_t dst = NewReg(a.type);
    VmInst ar = MakeInst(VmOp::kArith);
    ar.u8 = static_cast<std::uint8_t>(CompoundOp(a.op));
    ar.dst = dst;
    ar.a = rd.dst;
    ar.b = rhs;
    Emit(ar);
    VmInst w = MakeInst(VmOp::kWriteRef);
    w.dst = ref;
    w.a = dst;
    Emit(w);
    return dst;
  }

  [[nodiscard]] static BinOp CompoundOp(AssignOp op) {
    switch (op) {
      case AssignOp::kAdd: return BinOp::kAdd;
      case AssignOp::kSub: return BinOp::kSub;
      case AssignOp::kMul: return BinOp::kMul;
      default: return BinOp::kDiv;
    }
  }

  // Ctor and builtin calls share the flattened-argument encoding.
  std::uint32_t LowerArgListOp(VmOp op, std::uint8_t u8,
                               const std::vector<ExprPtr>& args,
                               const Type& result_type) {
    // Arguments evaluate left to right; if a later argument has side
    // effects, earlier ones must be snapshotted (the interpreter always
    // copies).
    // Encoding bounds: builtins take at most kMaxBuiltinArgs (executor
    // pointer buffer), ctors at most 16 (mat4 from scalars).
    const std::size_t max_args =
        op == VmOp::kBuiltin ? static_cast<std::size_t>(kMaxBuiltinArgs) : 16;
    if (args.size() > max_args) {
      EmitTrap("internal error: argument list exceeds encoding bound");
      return NewReg(result_type);
    }
    const std::vector<bool> later_effects = LaterEffects(args);
    std::vector<std::uint32_t> ops;
    ops.reserve(args.size());
    for (std::size_t i = 0; i < args.size(); ++i) {
      std::uint32_t v = LowerExpr(*args[i]);
      if (later_effects[i]) v = Materialize(v, args[i]->type);
      ops.push_back(v);
    }
    VmInst inst = MakeInst(op);
    inst.u8 = u8;
    inst.type = result_type;
    inst.dst = NewReg(result_type);
    inst.n = static_cast<std::uint16_t>(ops.size());
    inst.aux = static_cast<std::uint32_t>(prog_->arg_ops.size());
    for (const std::uint32_t o : ops) prog_->arg_ops.push_back(o);
    Emit(inst);
    return inst.dst;
  }

  std::uint32_t LowerUserCall(const CallExpr& call) {
    const FunctionDecl* def = ResolveDef(*call.fn);
    if (def == nullptr) {
      // Matches the interpreter: the error fires only if the call executes.
      EmitTrap(StrFormat("call to undefined function '%s'",
                         call.fn->name.c_str()));
      return call.type.base != BaseType::kVoid ? NewReg(call.type)
                                               : kOperandNone;
    }
    const std::uint32_t fn_idx = fn_index_.at(def);
    const auto& params = param_regs_.at(def);

    // Phase 1 — evaluate arguments / build out-parameter references in
    // argument order, exactly like the interpreter's copy-in loop. Values
    // are captured in temporaries; the callee frame is written only after
    // every argument has evaluated (an argument expression may itself call
    // into this function's frame transitively).
    struct ArgPlan {
      std::uint32_t value = kOperandNone;  // temp for kIn / kInOut
      std::uint32_t ref = kOperandNone;    // ref slot for kOut / kInOut
      ParamDir dir = ParamDir::kIn;
    };
    std::vector<ArgPlan> plan(call.args.size());
    // An argument operand only needs snapshotting if a LATER argument can
    // mutate state before the callee frame is filled (the frame copies all
    // happen after the last argument evaluates, before the call).
    const std::vector<bool> later_effects = LaterEffects(call.args);
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const VarDecl& p = *def->params[i];
      plan[i].dir = p.dir;
      if (p.dir == ParamDir::kIn) {
        plan[i].value = LowerExpr(*call.args[i]);
        if (later_effects[i]) {
          plan[i].value = Materialize(plan[i].value, call.args[i]->type);
        }
      } else {
        plan[i].ref = LowerLValue(*call.args[i]);
        if (p.dir == ParamDir::kInOut) {
          VmInst rd = MakeInst(VmOp::kReadRef);
          rd.dst = NewReg(p.type);
          rd.a = plan[i].ref;
          Emit(rd);
          plan[i].value = rd.dst;
        }
      }
    }
    // Phase 2 — fill the callee frame and call.
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const std::uint32_t param = params[i];
      switch (plan[i].dir) {
        case ParamDir::kIn:
        case ParamDir::kInOut:
          EmitCopy(param, plan[i].value);
          break;
        case ParamDir::kOut: {
          VmInst z = MakeInst(VmOp::kZero);
          z.dst = param;
          Emit(z);
          break;
        }
      }
    }
    // Either inline the body here or emit a call. Inlining removes the
    // call/return dispatch and is exactly equivalent: the same parameter
    // and local registers are reused (lifetimes cannot overlap — GLSL ES
    // forbids recursion, and the guards below fall back to kCall for
    // malformed recursive input or runaway code growth), `return` becomes a
    // jump to the end of the instance, and none of the removed ops touch
    // the AluModel, so results AND op counts are bit-identical to the
    // called form (and to the tree-walking oracle).
    constexpr std::size_t kInlineCodeBudget = 1 << 16;
    bool in_stack = false;
    for (const InlineCtx& ic : inline_stack_) in_stack |= ic.fn == def;
    if (inline_enabled_ && !in_stack && def != cs_.main &&
        prog_->code.size() < kInlineCodeBudget) {
      const std::uint32_t ret_reg = prog_->functions[fn_idx].ret_reg;
      if (ret_reg != kOperandNone) {
        // Fell-off-the-end semantics, as at the top of LowerFunction.
        VmInst z = MakeInst(VmOp::kZero);
        z.dst = ret_reg;
        Emit(z);
      }
      const FunctionDecl* const saved_fn = current_fn_;
      current_fn_ = def;
      inline_stack_.push_back({def, ret_reg, {}});
      // The callee's breaks/continues must not bind to the caller's loops.
      std::vector<LoopCtx> saved_loops;
      saved_loops.swap(loops_);
      LowerStmt(*def->body);
      const InlineCtx done = std::move(inline_stack_.back());
      inline_stack_.pop_back();
      for (const std::uint32_t fx : done.end_fixups) Patch(fx, Pc());
      loops_.swap(saved_loops);
      current_fn_ = saved_fn;
    } else {
      VmInst c = MakeInst(VmOp::kCall);
      c.aux = fn_idx;
      Emit(c);
    }
    // Phase 3 — copy-out in argument order.
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      if (plan[i].dir == ParamDir::kIn) continue;
      VmInst w = MakeInst(VmOp::kWriteRef);
      w.dst = plan[i].ref;
      w.a = params[i];
      Emit(w);
    }
    // The return register is clobbered by the next call to the same
    // function, so snapshot it immediately.
    const std::uint32_t ret = prog_->functions[fn_idx].ret_reg;
    if (ret == kOperandNone) return kOperandNone;
    const std::uint32_t dst = NewReg(def->return_type);
    EmitCopy(dst, ret);
    return dst;
  }

  // --- static call-depth scan (gates inlining; see Lower()) ---------------

  // Mirrors vm.cc's kMaxCallDepth / the interpreter's frame budget.
  static constexpr int kMaxStaticCallDepth = 64;

  int FnCallDepth(const FunctionDecl* def) {
    const auto memo = fn_depth_.find(def);
    if (memo != fn_depth_.end()) return memo->second;
    for (const FunctionDecl* f : depth_stack_) {
      if (f == def) return kMaxStaticCallDepth + 1;  // recursion (malformed)
    }
    if (def->body == nullptr) return 0;
    depth_stack_.push_back(def);
    const int d = StmtCallDepth(*def->body);
    depth_stack_.pop_back();
    fn_depth_[def] = d;
    return d;
  }

  int StmtCallDepth(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock: {
        int d = 0;
        for (const StmtPtr& c : static_cast<const BlockStmt&>(s).stmts) {
          d = std::max(d, StmtCallDepth(*c));
        }
        return d;
      }
      case StmtKind::kExpr: {
        const auto& es = static_cast<const ExprStmt&>(s);
        return es.expr ? ExprCallDepth(*es.expr) : 0;
      }
      case StmtKind::kDecl: {
        int d = 0;
        for (const auto& vd : static_cast<const DeclStmt&>(s).decls) {
          if (vd->init) d = std::max(d, ExprCallDepth(*vd->init));
        }
        return d;
      }
      case StmtKind::kIf: {
        const auto& is = static_cast<const IfStmt&>(s);
        int d = std::max(ExprCallDepth(*is.cond),
                         StmtCallDepth(*is.then_stmt));
        if (is.else_stmt) d = std::max(d, StmtCallDepth(*is.else_stmt));
        return d;
      }
      case StmtKind::kFor: {
        const auto& fs = static_cast<const ForStmt&>(s);
        int d = StmtCallDepth(*fs.body);
        if (fs.init) d = std::max(d, StmtCallDepth(*fs.init));
        if (fs.cond) d = std::max(d, ExprCallDepth(*fs.cond));
        if (fs.step) d = std::max(d, ExprCallDepth(*fs.step));
        return d;
      }
      case StmtKind::kWhile: {
        const auto& ws = static_cast<const WhileStmt&>(s);
        return std::max(ExprCallDepth(*ws.cond), StmtCallDepth(*ws.body));
      }
      case StmtKind::kDoWhile: {
        const auto& ds = static_cast<const DoWhileStmt&>(s);
        return std::max(ExprCallDepth(*ds.cond), StmtCallDepth(*ds.body));
      }
      case StmtKind::kReturn: {
        const auto& rs = static_cast<const ReturnStmt&>(s);
        return rs.value ? ExprCallDepth(*rs.value) : 0;
      }
      case StmtKind::kBreak:
      case StmtKind::kContinue:
      case StmtKind::kDiscard:
        return 0;
    }
    return 0;
  }

  int ExprCallDepth(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
      case ExprKind::kFloatLit:
      case ExprKind::kBoolLit:
      case ExprKind::kVarRef:
        return 0;
      case ExprKind::kCall: {
        const auto& c = static_cast<const CallExpr&>(e);
        int d = 0;
        for (const auto& a : c.args) d = std::max(d, ExprCallDepth(*a));
        if (c.fn != nullptr) {
          const FunctionDecl* def = ResolveDef(*c.fn);
          // An undefined callee traps without a frame; count it as one
          // frame anyway — overestimating can only disable inlining.
          const int callee = def != nullptr ? FnCallDepth(def) : 0;
          d = std::max(d, 1 + callee);
        }
        return d;
      }
      case ExprKind::kCtor: {
        int d = 0;
        for (const auto& a : static_cast<const CtorExpr&>(e).args) {
          d = std::max(d, ExprCallDepth(*a));
        }
        return d;
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        return std::max(ExprCallDepth(*b.lhs), ExprCallDepth(*b.rhs));
      }
      case ExprKind::kUnary:
        return ExprCallDepth(*static_cast<const UnaryExpr&>(e).operand);
      case ExprKind::kAssign: {
        const auto& a = static_cast<const AssignExpr&>(e);
        return std::max(ExprCallDepth(*a.lhs), ExprCallDepth(*a.rhs));
      }
      case ExprKind::kTernary: {
        const auto& t = static_cast<const TernaryExpr&>(e);
        return std::max({ExprCallDepth(*t.cond), ExprCallDepth(*t.then_expr),
                         ExprCallDepth(*t.else_expr)});
      }
      case ExprKind::kIndex: {
        const auto& ix = static_cast<const IndexExpr&>(e);
        return std::max(ExprCallDepth(*ix.base), ExprCallDepth(*ix.index));
      }
      case ExprKind::kSwizzle:
        return ExprCallDepth(*static_cast<const SwizzleExpr&>(e).base);
      case ExprKind::kComma: {
        const auto& c = static_cast<const CommaExpr&>(e);
        return std::max(ExprCallDepth(*c.lhs), ExprCallDepth(*c.rhs));
      }
    }
    return 0;
  }

  // --- l-values ----------------------------------------------------------

  std::uint32_t LowerLValue(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kVarRef: {
        const auto& v = static_cast<const VarRefExpr&>(e);
        VmInst r = MakeInst(VmOp::kRefVar);
        r.dst = NewRefSlot();
        r.a = v.scope == VarScope::kGlobal ? GlobalOperand(v.slot)
                                           : var_regs_.at(v.decl);
        r.type = v.type;
        Emit(r);
        return r.dst;
      }
      case ExprKind::kIndex: {
        const auto& ix = static_cast<const IndexExpr&>(e);
        const std::uint32_t base = LowerLValue(*ix.base);
        const std::uint32_t index = LowerExpr(*ix.index);
        const IndexStep step = IndexStepOf(ix.base->type);
        VmInst r = MakeInst(VmOp::kRefIndex);
        r.dst = NewRefSlot();
        r.a = base;
        r.b = index;
        r.n = static_cast<std::uint16_t>(step.elem_cells);
        r.aux = static_cast<std::uint32_t>(step.limit);
        r.type = step.elem_type;
        Emit(r);
        return r.dst;
      }
      case ExprKind::kSwizzle: {
        const auto& sw = static_cast<const SwizzleExpr&>(e);
        const std::uint32_t base = LowerLValue(*sw.base);
        VmInst r = MakeInst(VmOp::kRefSwizzle);
        r.dst = NewRefSlot();
        r.a = base;
        r.n = static_cast<std::uint16_t>(sw.count);
        r.aux = PackComps(sw.comps.data(), sw.count);
        r.type = sw.type;
        Emit(r);
        return r.dst;
      }
      default:
        EmitTrap("internal error: expression is not an l-value");
        return NewRefSlot();
    }
  }

  const CompiledShader& cs_;
  std::shared_ptr<VmProgram> prog_;
  std::unordered_map<const FunctionDecl*, std::uint32_t> fn_index_;
  std::unordered_map<const FunctionDecl*, std::vector<std::uint32_t>>
      param_regs_;
  std::unordered_map<const VarDecl*, std::uint32_t> var_regs_;
  std::vector<LoopCtx> loops_;
  const FunctionDecl* current_fn_ = nullptr;
  // Stack of user functions currently being lowered inline at a call site
  // (innermost last). Non-empty changes how `return`/`discard` lower.
  struct InlineCtx {
    const FunctionDecl* fn = nullptr;
    std::uint32_t ret_reg = kOperandNone;
    std::vector<std::uint32_t> end_fixups;  // jumps to the instance end
  };
  std::vector<InlineCtx> inline_stack_;
  bool inline_enabled_ = false;
  std::unordered_map<const FunctionDecl*, int> fn_depth_;
  std::vector<const FunctionDecl*> depth_stack_;
};

// ---------------------------------------------------------------------------
// Per-lane storage analysis for the batch executor.
//
// Decides which globals need per-lane storage planes when batched:
// per-fragment inputs plus every global written outside the
// construction-time const-init chunk (outputs, per-run re-initialized plain
// globals, globals written through refs). Uniforms and const tables stay
// shared, keeping per-draw uniform sync independent of the lane width.
void AnalyzeLaneBatching(VmProgram& prog, const CompiledShader& cs) {
  const std::size_t n_globals = prog.globals.size();
  std::vector<std::uint8_t>& lane = prog.lane_global;
  lane.assign(n_globals, 0);

  const auto is_global = [](std::uint32_t op) {
    return op != kOperandNone && (op & ~kOperandIndexMask) == kSpaceGlobal;
  };
  const auto mark = [&](std::uint32_t op) {
    if (is_global(op)) lane[op & kOperandIndexMask] = 1;
  };

  // Globals written outside the const-init chunk
  // [const_init_entry, run_entry) — direct destinations plus every global
  // whose address a kRefVar takes (refs are how dynamic-index and swizzled
  // stores write). Function bodies are shared between chunks and scanned
  // unconditionally; over-marking a const-init-only write merely gives that
  // global a (correctly initialized) per-lane plane.
  for (std::size_t pc = 0; pc < prog.code.size(); ++pc) {
    if (pc >= prog.const_init_entry && pc < prog.run_entry) continue;
    const VmInst& in = prog.code[pc];
    switch (in.op) {
      case VmOp::kCopy: case VmOp::kZero: case VmOp::kShuffle:
      case VmOp::kExtract: case VmOp::kArith: case VmOp::kNeg:
      case VmOp::kNot: case VmOp::kXor: case VmOp::kBoolNorm:
      case VmOp::kCtor: case VmOp::kBuiltin: case VmOp::kReadRef:
      case VmOp::kIncDec:
        mark(in.dst);
        break;
      case VmOp::kIncDecVar:
        mark(in.dst);
        mark(in.a);
        break;
      case VmOp::kRefVar:
        mark(in.a);
        break;
      default:
        break;
    }
  }

  // Per-fragment inputs: written per fragment by the draw loop rather than
  // by shader code.
  for (std::size_t i = 0; i < n_globals && i < cs.globals.size(); ++i) {
    const VarDecl* g = cs.globals[i];
    if (g->qual == Qualifier::kVarying || g->qual == Qualifier::kAttribute ||
        (g->is_builtin &&
         (g->name == "gl_FragCoord" || g->name == "gl_FrontFacing" ||
          g->name == "gl_PointCoord"))) {
      lane[i] = 1;
    }
  }
}

}  // namespace

std::shared_ptr<const VmProgram> LowerToBytecode(const CompiledShader& cs) {
  std::shared_ptr<const VmProgram> prog = Lowerer(cs).Lower();
  // Safe cast: Lower() is the sole owner at this point; the const view is
  // what escapes.
  AnalyzeLaneBatching(const_cast<VmProgram&>(*prog), cs);
  return prog;
}

}  // namespace mgpu::glsl
