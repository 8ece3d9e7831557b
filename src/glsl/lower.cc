// AST -> bytecode lowering. Translates the annotated tree the semantic
// analyzer produced into the flat VmInst stream of ir.h. The lowering
// preserves the tree-walking interpreter's evaluation order *exactly* —
// including argument evaluation order, l-value timing, and short-circuit
// behaviour — so the VM's results and AluModel op counts are identical.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "glsl/builtins.h"
#include "glsl/evalcore.h"
#include "glsl/ir.h"

namespace mgpu::glsl {
namespace {

// Calls f(sub) for every direct subexpression of `e`.
template <typename F>
void ForEachSubExpr(const Expr& e, F&& f) {
  switch (e.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kBoolLit:
    case ExprKind::kVarRef:
      return;
    case ExprKind::kCall:
      for (const auto& a : static_cast<const CallExpr&>(e).args) f(*a);
      return;
    case ExprKind::kCtor:
      for (const auto& a : static_cast<const CtorExpr&>(e).args) f(*a);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      f(*b.lhs);
      f(*b.rhs);
      return;
    }
    case ExprKind::kUnary:
      f(*static_cast<const UnaryExpr&>(e).operand);
      return;
    case ExprKind::kAssign: {
      const auto& a = static_cast<const AssignExpr&>(e);
      f(*a.lhs);
      f(*a.rhs);
      return;
    }
    case ExprKind::kTernary: {
      const auto& t = static_cast<const TernaryExpr&>(e);
      f(*t.cond);
      f(*t.then_expr);
      f(*t.else_expr);
      return;
    }
    case ExprKind::kIndex: {
      const auto& ix = static_cast<const IndexExpr&>(e);
      f(*ix.base);
      f(*ix.index);
      return;
    }
    case ExprKind::kSwizzle:
      f(*static_cast<const SwizzleExpr&>(e).base);
      return;
    case ExprKind::kComma: {
      const auto& c = static_cast<const CommaExpr&>(e);
      f(*c.lhs);
      f(*c.rhs);
      return;
    }
  }
}

// Calls on_stmt / on_expr for the direct child statements and expressions
// of `s`.
template <typename S, typename E>
void ForEachChild(const Stmt& s, S&& on_stmt, E&& on_expr) {
  switch (s.kind) {
    case StmtKind::kBlock:
      for (const StmtPtr& c : static_cast<const BlockStmt&>(s).stmts) {
        on_stmt(*c);
      }
      return;
    case StmtKind::kExpr:
      if (const auto& e = static_cast<const ExprStmt&>(s).expr) on_expr(*e);
      return;
    case StmtKind::kDecl:
      for (const auto& vd : static_cast<const DeclStmt&>(s).decls) {
        if (vd->init) on_expr(*vd->init);
      }
      return;
    case StmtKind::kIf: {
      const auto& is = static_cast<const IfStmt&>(s);
      on_expr(*is.cond);
      on_stmt(*is.then_stmt);
      if (is.else_stmt) on_stmt(*is.else_stmt);
      return;
    }
    case StmtKind::kFor: {
      const auto& fs = static_cast<const ForStmt&>(s);
      if (fs.init) on_stmt(*fs.init);
      if (fs.cond) on_expr(*fs.cond);
      if (fs.step) on_expr(*fs.step);
      on_stmt(*fs.body);
      return;
    }
    case StmtKind::kWhile: {
      const auto& ws = static_cast<const WhileStmt&>(s);
      on_expr(*ws.cond);
      on_stmt(*ws.body);
      return;
    }
    case StmtKind::kDoWhile: {
      const auto& ds = static_cast<const DoWhileStmt&>(s);
      on_stmt(*ds.body);
      on_expr(*ds.cond);
      return;
    }
    case StmtKind::kReturn:
      if (const auto& v = static_cast<const ReturnStmt&>(s).value) on_expr(*v);
      return;
    case StmtKind::kBreak:
    case StmtKind::kContinue:
    case StmtKind::kDiscard:
      return;
  }
}

[[nodiscard]] bool IsIncDec(UnOp op) {
  return op == UnOp::kPreInc || op == UnOp::kPreDec ||
         op == UnOp::kPostInc || op == UnOp::kPostDec;
}

// True when evaluating `e` can mutate shader state (assignments, ++/--, or
// a call into user code, which may write globals or out-parameters). Used to
// decide when an already-lowered operand must be materialized into a
// temporary before a sibling expression executes — mirroring the
// interpreter, which always evaluates sub-expressions into copies.
bool HasSideEffects(const Expr& e) {
  if (e.kind == ExprKind::kAssign ||
      (e.kind == ExprKind::kUnary &&
       IsIncDec(static_cast<const UnaryExpr&>(e).op)) ||
      (e.kind == ExprKind::kCall &&
       static_cast<const CallExpr&>(e).fn != nullptr)) {
    return true;  // a user call may write globals
  }
  bool any = false;
  ForEachSubExpr(e, [&](const Expr& c) { any = any || HasSideEffects(c); });
  return any;
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

[[nodiscard]] std::uint32_t IndexOf(std::uint32_t op) {
  return op & kOperandIndexMask;
}

[[nodiscard]] bool InSpace(std::uint32_t op, std::uint32_t space) {
  return op != kOperandNone && (op & kSpaceMask) == space;
}

[[nodiscard]] const Type& OperandType(const VmProgram& p, std::uint32_t op) {
  switch (op & kSpaceMask) {
    case kSpaceReg: return p.reg_types[IndexOf(op)];
    case kSpaceGlobal: return p.globals[IndexOf(op)].type;
    case kSpaceConst: return p.consts[IndexOf(op)].type();
    default: return p.aliases[IndexOf(op)].type;
  }
}

// The register, global or constant an operand reads (an alias reads its
// base).
[[nodiscard]] std::uint32_t BaseOf(const VmProgram& p, std::uint32_t op) {
  return InSpace(op, kSpaceAlias) ? p.aliases[IndexOf(op)].base : op;
}

// The variable an l-value expression stores into, or null.
const VarRefExpr* LValueRoot(const Expr& e) {
  const Expr* x = &e;
  while (x->kind == ExprKind::kIndex || x->kind == ExprKind::kSwizzle) {
    x = x->kind == ExprKind::kIndex
            ? static_cast<const IndexExpr*>(x)->base.get()
            : static_cast<const SwizzleExpr*>(x)->base.get();
  }
  return x->kind == ExprKind::kVarRef ? static_cast<const VarRefExpr*>(x)
                                      : nullptr;
}

// True when every path through `s` ends in a `return` (a value-less one
// only exists in void functions, which have no result to zero).
bool AlwaysReturns(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::kReturn:
      return true;
    case StmtKind::kBlock:
      for (const StmtPtr& c : static_cast<const BlockStmt&>(s).stmts) {
        if (AlwaysReturns(*c)) return true;
      }
      return false;
    case StmtKind::kIf: {
      const auto& is = static_cast<const IfStmt&>(s);
      return is.else_stmt != nullptr && AlwaysReturns(*is.then_stmt) &&
             AlwaysReturns(*is.else_stmt);
    }
    default:
      return false;  // a loop body may run zero times
  }
}

bool ContainsDiscard(const Stmt& s) {
  bool any = s.kind == StmtKind::kDiscard;
  ForEachChild(
      s, [&](const Stmt& c) { any = any || ContainsDiscard(c); },
      [](const Expr&) {});
  return any;
}

class Lowerer {
 public:
  explicit Lowerer(const CompiledShader& cs)
      : cs_(cs), prog_(std::make_shared<VmProgram>()) {}

  std::shared_ptr<VmProgram> Lower() {
    prog_->stage = cs_.stage;
    for (const VarDecl* g : cs_.globals) {
      prog_->globals.push_back({g->name, g->type});
    }
    PrepassParams();

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

    // Chunk 2: the per-Run prologue — re-initialize plain globals — then
    // main's body, inlined like any call, whose `return` jumps to the
    // chunk's kHalt; mirroring ShaderExec::Run.
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
      LowerInline(*main_def, kOperandNone);
    }
    Emit(MakeInst(VmOp::kHalt));
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

  // A fresh temporary: written only while its own expression evaluates.
  [[nodiscard]] std::uint32_t NewReg(const Type& t) {
    prog_->reg_types.push_back(t);
    var_reg_.push_back(false);
    return kSpaceReg |
           static_cast<std::uint32_t>(prog_->reg_types.size() - 1);
  }

  // The register of a variable, parameter or called function's result,
  // which code outside the current expression may store into.
  [[nodiscard]] std::uint32_t NewVarReg(const Type& t) {
    const std::uint32_t r = NewReg(t);
    var_reg_.back() = true;
    return r;
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
  // cannot change its value. Constants are immutable already, and no
  // sibling expression can store into another expression's temporary.
  [[nodiscard]] std::uint32_t Materialize(std::uint32_t op, const Type& t) {
    const std::uint32_t base = BaseOf(*prog_, op);
    if (InSpace(base, kSpaceConst) ||
        (InSpace(base, kSpaceReg) && !var_reg_[IndexOf(base)])) {
      return op;
    }
    const std::uint32_t tmp = NewReg(t);
    EmitCopy(tmp, op);
    return tmp;
  }

  // Lets the next LowerExpr of `e` — a ternary or a user call — write its
  // result into `reg` instead of a fresh temporary. The caller guarantees
  // nothing reads `reg` while `e` evaluates; the hint is taken by the
  // first ternary or call lowered, so it never reaches a subexpression.
  void HintResult(const Expr& e, std::uint32_t reg) {
    if (e.kind == ExprKind::kTernary ||
        (e.kind == ExprKind::kCall &&
         static_cast<const CallExpr&>(e).fn != nullptr)) {
      result_hint_ = reg;
    }
  }

  // A read-only operand for components [comp, comp + t's cells) of `op`.
  // An alias of an alias names the underlying operand, and equal aliases
  // share one table entry.
  [[nodiscard]] std::uint32_t Alias(std::uint32_t op, std::uint32_t comp,
                                    const Type& t) {
    if (InSpace(op, kSpaceAlias)) {
      const VmAlias& a = prog_->aliases[IndexOf(op)];
      comp += a.comp;
      op = a.base;
    }
    if (comp == 0 && OperandType(*prog_, op) == t) return op;
    const std::uint64_t key = (std::uint64_t{op} << 16) | (comp << 8) |
                              static_cast<std::uint32_t>(t.CellCount());
    const auto [it, added] = alias_ids_.try_emplace(
        key, kSpaceAlias | static_cast<std::uint32_t>(prog_->aliases.size()));
    if (added) prog_->aliases.push_back({op, comp, t});
    return it->second;
  }

  [[nodiscard]] std::uint32_t VarOperand(const VarRefExpr& v) const {
    return v.scope == VarScope::kGlobal ? GlobalOperand(v.slot)
                                        : var_regs_.at(v.decl);
  }

  // --- functions ---------------------------------------------------------

  // One register per parameter of every defined function, shared by all of
  // its inlined instances: without recursion their lifetimes never overlap.
  void PrepassParams() {
    for (const auto& fn : cs_.tu->functions) {
      if (fn->body == nullptr) continue;
      auto& params = param_regs_[fn.get()];
      for (const auto& p : fn->params) {
        if (p->type.base == BaseType::kVoid) continue;
        const std::uint32_t r = NewVarReg(p->type);
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

  // What the inliner needs to know of a function body.
  struct FnFacts {
    // Every path returns a value: none falls off the end or leaves through
    // `discard` (an early return without one).
    bool always_returns = false;
    // Locals and parameters the body stores into (assignment, ++/--, or an
    // out/inout argument).
    std::unordered_set<const VarDecl*> written_vars;
    // Global slots the body or any function it calls stores into.
    std::unordered_set<int> written_globals;
  };

  // The scan follows calls into their callees; sema rejects static
  // recursion, so the call graph it walks has no cycle.
  const FnFacts& Facts(const FunctionDecl& fn) {
    if (const auto it = facts_.find(&fn); it != facts_.end()) {
      return it->second;
    }
    FnFacts f;
    f.always_returns = !ContainsDiscard(*fn.body) && AlwaysReturns(*fn.body);
    ScanWrites(*fn.body, f);
    return facts_[&fn] = std::move(f);
  }

  void MarkWritten(const Expr& lvalue, FnFacts& f) {
    const VarRefExpr* v = LValueRoot(lvalue);
    if (v == nullptr) return;
    if (v->scope == VarScope::kGlobal) {
      f.written_globals.insert(v->slot);
    } else {
      f.written_vars.insert(v->decl);
    }
  }

  void ScanWrites(const Stmt& s, FnFacts& f) {
    ForEachChild(
        s, [&](const Stmt& c) { ScanWrites(c, f); },
        [&](const Expr& e) { ScanWrites(e, f); });
  }

  void ScanWrites(const Expr& e, FnFacts& f) {
    if (e.kind == ExprKind::kAssign) {
      MarkWritten(*static_cast<const AssignExpr&>(e).lhs, f);
    } else if (e.kind == ExprKind::kUnary &&
               IsIncDec(static_cast<const UnaryExpr&>(e).op)) {
      MarkWritten(*static_cast<const UnaryExpr&>(e).operand, f);
    } else if (e.kind == ExprKind::kCall) {
      const auto& c = static_cast<const CallExpr&>(e);
      const FunctionDecl* def = c.fn != nullptr ? ResolveDef(*c.fn) : nullptr;
      for (std::size_t i = 0; c.fn != nullptr && i < c.args.size(); ++i) {
        if (c.fn->params[i]->dir != ParamDir::kIn) MarkWritten(*c.args[i], f);
      }
      if (def != nullptr) {
        const FnFacts& callee = Facts(*def);
        f.written_globals.insert(callee.written_globals.begin(),
                                 callee.written_globals.end());
      }
    }
    ForEachSubExpr(e, [&](const Expr& c) { ScanWrites(c, f); });
  }

  // Lowers `fn`'s body in place, its `return` writing `result` (none for
  // a void function) and jumping to the end of this instance. The callee's
  // breaks and continues must not bind to the caller's loops.
  void LowerInline(const FunctionDecl& fn, std::uint32_t result) {
    const FunctionDecl* const saved_fn = std::exchange(current_fn_, &fn);
    inline_stack_.push_back({result, {}});
    std::vector<LoopCtx> saved_loops;
    saved_loops.swap(loops_);
    LowerStmt(*fn.body);
    for (const std::uint32_t fx : inline_stack_.back().end_fixups) {
      Patch(fx, Pc());
    }
    inline_stack_.pop_back();
    loops_.swap(saved_loops);
    current_fn_ = saved_fn;
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
          const std::uint32_t reg = NewVarReg(vd->type);
          var_regs_[vd.get()] = reg;
          if (vd->init) {
            // The variable is out of scope in its own initializer, so a
            // ternary or inlined call may write its result straight in.
            HintResult(*vd->init, reg);
            const std::uint32_t v = LowerExpr(*vd->init);
            if (v != reg && ReadsInPlace(*vd, v)) {
              var_regs_[vd.get()] = v;
            } else {
              EmitCopy(reg, v);
            }
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
        // `return` writes the call site's result register and jumps to
        // the end of this inline instance. (Read ret_reg by value and
        // re-fetch back() after LowerExpr — nested inlining inside the
        // return expression may grow the stack.)
        const auto& rs = static_cast<const ReturnStmt&>(s);
        const std::uint32_t ret_reg = inline_stack_.back().ret_reg;
        if (rs.value) {
          HintResult(*rs.value, ret_reg);
          const std::uint32_t v = LowerExpr(*rs.value);
          if (ret_reg != kOperandNone) EmitCopy(ret_reg, v);
        }
        inline_stack_.back().end_fixups.push_back(
            Emit(MakeInst(VmOp::kJump)));
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
        } else {
          inline_stack_.back().end_fixups.push_back(
              Emit(MakeInst(VmOp::kJump)));
        }
        return;
      }
    }
  }

  // True when local `vd`, initialized from operand `v`, can be `v` itself:
  // the function stores into `vd` nowhere, and nothing in its scope — the
  // rest of the function, which is all that runs while it lives — stores
  // into `v`. `v` is a constant; a temporary (written only while its own
  // expression evaluates); a global the function and its callees never
  // store into; or a variable's register that no variable the function
  // stores into lives in (no callee can name a caller's registers).
  [[nodiscard]] bool ReadsInPlace(const VarDecl& vd, std::uint32_t v) {
    const FnFacts& f = Facts(*current_fn_);
    if (f.written_vars.contains(&vd)) return false;
    const std::uint32_t base = BaseOf(*prog_, v);
    if (InSpace(base, kSpaceGlobal)) {
      return !f.written_globals.contains(static_cast<int>(IndexOf(base)));
    }
    if (!InSpace(base, kSpaceReg) || !var_reg_[IndexOf(base)]) return true;
    for (const VarDecl* w : f.written_vars) {
      const auto it = var_regs_.find(w);
      if (it != var_regs_.end() && BaseOf(*prog_, it->second) == base) {
        return false;
      }
    }
    return true;
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
      case ExprKind::kVarRef:
        return VarOperand(static_cast<const VarRefExpr&>(e));
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
        const std::uint32_t hint = std::exchange(result_hint_, kOperandNone);
        const std::uint32_t dst = hint != kOperandNone ? hint : NewReg(t.type);
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
        // One component or a contiguous run is an alias of the base
        // operand; only a permuting or repeating swizzle gathers.
        const auto& sw = static_cast<const SwizzleExpr&>(e);
        const std::uint32_t base = LowerExpr(*sw.base);
        bool contiguous = true;
        for (int i = 1; i < sw.count; ++i) {
          contiguous = contiguous && sw.comps[static_cast<std::size_t>(i)] ==
                                         sw.comps[0] + i;
        }
        if (contiguous) return Alias(base, sw.comps[0], sw.type);
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
          i.op = VmOp::kIncDecVar;
          i.a = VarOperand(static_cast<const VarRefExpr&>(*u.operand));
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
    // An alias of the stored variable would change under the store (a
    // broadcast `v += v.x`, a shifted `v.yz = v.xy`), so it is read into a
    // temporary first, as the interpreter's copy of the RHS.
    const VarRefExpr* root = LValueRoot(*a.lhs);
    if (HasSideEffects(*a.lhs) ||
        (root != nullptr && InSpace(rhs, kSpaceAlias) &&
         BaseOf(*prog_, rhs) == VarOperand(*root))) {
      rhs = Materialize(rhs, a.rhs->type);
    }
    if (a.lhs->kind == ExprKind::kVarRef) {
      const std::uint32_t var = VarOperand(*root);
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
    const std::uint32_t hint = std::exchange(result_hint_, kOperandNone);
    const FunctionDecl* def = ResolveDef(*call.fn);
    if (def == nullptr) {
      // Matches the interpreter: the error fires only if the call executes.
      EmitTrap(StrFormat("call to undefined function '%s'",
                         call.fn->name.c_str()));
      return call.type.base != BaseType::kVoid ? NewReg(call.type)
                                               : kOperandNone;
    }
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
    // Phase 2 — fill the callee frame. The body is then inlined here (sema
    // bounds the call depth and the inlined size, and rejects recursion, so
    // every call inlines): the same parameter and local registers serve
    // every instance, and `return` becomes a jump to the end of the
    // instance. An `in` parameter that the body never stores into reads
    // its argument operand in place when nothing the body does can change
    // that operand: a constant, a register (no callee can name a caller's
    // registers), or a global the body and its callees never store into.
    const FnFacts& facts = Facts(*def);
    std::vector<std::pair<const VarDecl*, std::uint32_t>> forwarded;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const std::uint32_t param = params[i];
      const VarDecl* p = def->params[i].get();
      switch (plan[i].dir) {
        case ParamDir::kIn: {
          const std::uint32_t base = BaseOf(*prog_, plan[i].value);
          if (!facts.written_vars.contains(p) &&
              (!InSpace(base, kSpaceGlobal) ||
               !facts.written_globals.contains(
                   static_cast<int>(IndexOf(base))))) {
            forwarded.emplace_back(p, var_regs_.at(p));
            var_regs_[p] = plan[i].value;
            break;
          }
          EmitCopy(param, plan[i].value);
          break;
        }
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
    // Each call returns into a register of its own, so no later call can
    // clobber the result.
    std::uint32_t result = kOperandNone;
    if (def->return_type.base != BaseType::kVoid) {
      result = hint != kOperandNone ? hint : NewReg(def->return_type);
      if (!facts.always_returns) {
        // Fell-off-the-end semantics: a non-void function that never
        // executes `return` yields a zero value.
        VmInst z = MakeInst(VmOp::kZero);
        z.dst = result;
        Emit(z);
      }
    }
    LowerInline(*def, result);
    for (const auto& [p, reg] : forwarded) var_regs_[p] = reg;
    // Phase 3 — copy-out in argument order.
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      if (plan[i].dir == ParamDir::kIn) continue;
      VmInst w = MakeInst(VmOp::kWriteRef);
      w.dst = plan[i].ref;
      w.a = params[i];
      Emit(w);
    }
    return result;
  }

  // --- l-values ----------------------------------------------------------

  std::uint32_t LowerLValue(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kVarRef: {
        const auto& v = static_cast<const VarRefExpr&>(e);
        VmInst r = MakeInst(VmOp::kRefVar);
        r.dst = NewRefSlot();
        r.a = VarOperand(v);
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
  std::unordered_map<const FunctionDecl*, FnFacts> facts_;
  std::unordered_map<std::uint64_t, std::uint32_t> alias_ids_;
  std::vector<bool> var_reg_;  // by register: see NewVarReg
  std::uint32_t result_hint_ = kOperandNone;  // see HintResult
  std::unordered_map<const FunctionDecl*, std::vector<std::uint32_t>>
      param_regs_;
  std::unordered_map<const VarDecl*, std::uint32_t> var_regs_;
  std::vector<LoopCtx> loops_;
  const FunctionDecl* current_fn_ = nullptr;
  // Function bodies being lowered inline (innermost last), main's first.
  struct InlineCtx {
    std::uint32_t ret_reg = kOperandNone;   // the call site's result
    std::vector<std::uint32_t> end_fixups;  // jumps to the instance end
  };
  std::vector<InlineCtx> inline_stack_;
};

// ---------------------------------------------------------------------------
// Post-lowering passes over the emitted code. They remove and retarget only
// copies and jumps, which the AluModel never counts, so results and op
// counts cannot change; each keeps every lane's instruction sequence, minus
// the removed steps.

[[nodiscard]] bool IsJump(VmOp op) {
  return op == VmOp::kJump || op == VmOp::kJumpIfFalse ||
         op == VmOp::kJumpIfTrue;
}

// Ends a straight-line block: transfers control or stops a lane.
[[nodiscard]] bool IsControl(VmOp op) {
  switch (op) {
    case VmOp::kJump: case VmOp::kJumpIfFalse: case VmOp::kJumpIfTrue:
    case VmOp::kLoopGuard: case VmOp::kDiscard: case VmOp::kHalt:
    case VmOp::kTrap:
      return true;
    default:
      return false;
  }
}

// Calls f(operand, read, written) for every value operand field of `in`
// (ref slots and jump targets are not operands). kRefVar
// takes its variable's address, so it both reads and writes it; reads and
// writes through a ref are not listed.
template <typename F>
void ForEachOperand(VmInst& in, std::vector<std::uint32_t>& arg_ops, F&& f) {
  switch (in.op) {
    case VmOp::kCopy: case VmOp::kShuffle: case VmOp::kNeg:
    case VmOp::kNot: case VmOp::kBoolNorm:
      f(in.a, true, false);
      f(in.dst, false, true);
      return;
    case VmOp::kZero: case VmOp::kReadRef: case VmOp::kIncDec:
      f(in.dst, false, true);
      return;
    case VmOp::kExtract: case VmOp::kArith: case VmOp::kXor:
      f(in.a, true, false);
      f(in.b, true, false);
      f(in.dst, false, true);
      return;
    case VmOp::kCtor: case VmOp::kBuiltin:
      for (std::uint32_t i = 0; i < in.n; ++i) {
        f(arg_ops[in.aux + i], true, false);
      }
      f(in.dst, false, true);
      return;
    case VmOp::kJumpIfFalse: case VmOp::kJumpIfTrue: case VmOp::kWriteRef:
      f(in.a, true, false);
      return;
    case VmOp::kRefVar:
      f(in.a, true, true);
      return;
    case VmOp::kRefIndex:
      f(in.b, true, false);
      return;
    case VmOp::kIncDecVar:
      f(in.a, true, true);
      f(in.dst, false, true);
      return;
    default:
      return;
  }
}

// An op whose `dst` is a value operand it overwrites whole, reading only
// its value operands.
[[nodiscard]] bool DefinesDst(VmOp op) {
  switch (op) {
    case VmOp::kCopy: case VmOp::kZero: case VmOp::kShuffle:
    case VmOp::kExtract: case VmOp::kArith: case VmOp::kNeg:
    case VmOp::kNot: case VmOp::kXor: case VmOp::kBoolNorm:
    case VmOp::kCtor: case VmOp::kBuiltin: case VmOp::kIncDecVar:
      return true;
    default:
      return false;
  }
}

// Copy coalescing: `t = <op>; ...; d = t`, where the copy is the only read
// of register t anywhere, becomes `d = <op>` — when the copy lies in the
// same straight-line block (no control op and no jump target in between),
// nothing in between reads or writes d or goes through a ref, and <op>
// does not read d. Chains of single-use temporaries collapse one link per
// copy, in pc order. The backward search is bounded, so the pass is linear
// in code size.
void CoalesceCopies(VmProgram& p, std::vector<bool>& dead) {
  const std::size_t n = p.code.size();
  std::vector<std::uint32_t> reads(p.reg_types.size(), 0);
  std::vector<bool> target(n + 1, false);
  for (VmInst& in : p.code) {
    ForEachOperand(in, p.arg_ops, [&](std::uint32_t& op, bool read, bool) {
      const std::uint32_t b = BaseOf(p, op);
      if (read && InSpace(b, kSpaceReg)) ++reads[IndexOf(b)];
    });
    if (IsJump(in.op)) target[in.aux] = true;
  }
  target[p.const_init_entry] = true;
  target[p.run_entry] = true;

  constexpr std::size_t kWindow = 64;
  for (std::size_t pc = 0; pc < n; ++pc) {
    const VmInst& copy = p.code[pc];
    if (copy.op != VmOp::kCopy || !InSpace(copy.a, kSpaceReg) ||
        reads[IndexOf(copy.a)] != 1 ||
        !(OperandType(p, copy.a) == OperandType(p, copy.dst))) {
      continue;
    }
    const std::uint32_t t = copy.a;
    const std::uint32_t d = copy.dst;
    for (std::size_t q = pc; q-- > 0 && pc - q <= kWindow;) {
      if (target[q + 1]) break;
      if (dead[q]) continue;
      VmInst& o = p.code[q];
      if (IsControl(o.op) || o.op == VmOp::kReadRef ||
          o.op == VmOp::kWriteRef || o.op == VmOp::kIncDec) {
        break;
      }
      bool touches_d = false;
      bool writes_t = false;
      ForEachOperand(o, p.arg_ops,
                     [&](std::uint32_t& op, bool, bool written) {
                       touches_d = touches_d || BaseOf(p, op) == d;
                       writes_t = writes_t || (written && op == t);
                     });
      if (writes_t && !touches_d && DefinesDst(o.op) && o.dst == t &&
          o.a != t) {
        o.dst = d;
        dead[pc] = true;
        --reads[IndexOf(t)];
      }
      if (writes_t || touches_d) break;
    }
  }
}

// Jump threading and compaction. A forward jump whose target is an
// unconditional forward jump takes that jump's target (only forward: a
// forward jump rethreaded backward would let its lanes run ahead of lanes
// still inside the range it skips, so min-pc scheduling would no longer
// re-join them); a jump to the next live instruction is dropped. The live
// code then closes up, and every jump target and chunk entry moves with
// it.
void CompactCode(VmProgram& p, std::vector<bool>& dead) {
  const std::uint32_t n = static_cast<std::uint32_t>(p.code.size());
  const auto live_from = [&](std::uint32_t pc) {
    while (pc < n && dead[pc]) ++pc;
    return pc;
  };
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    VmInst& in = p.code[pc];
    if (dead[pc] || !IsJump(in.op)) continue;
    std::uint32_t to = live_from(in.aux);
    for (int hop = 0; hop < 64 && to > pc && to < n &&
                      p.code[to].op == VmOp::kJump && p.code[to].aux > to;
         ++hop) {
      to = live_from(p.code[to].aux);
    }
    in.aux = to;
  }
  for (std::uint32_t pc = n; pc-- > 0;) {
    if (!dead[pc] && IsJump(p.code[pc].op) &&
        live_from(p.code[pc].aux) == live_from(pc + 1)) {
      dead[pc] = true;
    }
  }
  std::vector<std::uint32_t> new_pc(n + 1);
  std::vector<VmInst> code;
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    new_pc[pc] = static_cast<std::uint32_t>(code.size());
    if (!dead[pc]) code.push_back(p.code[pc]);
  }
  new_pc[n] = static_cast<std::uint32_t>(code.size());
  for (VmInst& in : code) {
    if (IsJump(in.op)) in.aux = new_pc[in.aux];
  }
  p.code = std::move(code);
  p.const_init_entry = new_pc[p.const_init_entry];
  p.run_entry = new_pc[p.run_entry];
}

// Renumbers the registers and aliases the code still uses, in first-use
// order, and drops the rest (parameters read in place, uncalled functions'
// parameters, folded temporaries), so every VmExec lays out planes only for
// live registers.
void CompactRegisters(VmProgram& p) {
  std::vector<std::uint32_t> reg_map(p.reg_types.size(), kOperandNone);
  std::vector<std::uint32_t> alias_map(p.aliases.size(), kOperandNone);
  std::vector<Type> regs;
  std::vector<VmAlias> aliases;
  const auto reg = [&](std::uint32_t& op) {
    if (!InSpace(op, kSpaceReg)) return;
    std::uint32_t& m = reg_map[IndexOf(op)];
    if (m == kOperandNone) {
      m = kSpaceReg | static_cast<std::uint32_t>(regs.size());
      regs.push_back(p.reg_types[IndexOf(op)]);
    }
    op = m;
  };
  for (VmInst& in : p.code) {
    ForEachOperand(in, p.arg_ops, [&](std::uint32_t& op, bool, bool) {
      if (!InSpace(op, kSpaceAlias)) {
        reg(op);
        return;
      }
      std::uint32_t& m = alias_map[IndexOf(op)];
      if (m == kOperandNone) {
        VmAlias a = p.aliases[IndexOf(op)];
        reg(a.base);
        m = kSpaceAlias | static_cast<std::uint32_t>(aliases.size());
        aliases.push_back(std::move(a));
      }
      op = m;
    });
  }
  p.reg_types = std::move(regs);
  p.aliases = std::move(aliases);
}

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

  // Globals the run chunk writes — direct destinations plus every global
  // whose address a kRefVar takes (refs are how dynamic-index and swizzled
  // stores write). The const-init chunk [const_init_entry, run_entry) runs
  // on the shared store before the planes are filled.
  for (std::size_t pc = prog.run_entry; pc < prog.code.size(); ++pc) {
    ForEachOperand(prog.code[pc], prog.arg_ops,
                   [&](std::uint32_t& op, bool, bool written) {
                     if (written) mark(op);
                   });
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
  std::shared_ptr<VmProgram> prog = Lowerer(cs).Lower();
  // Jumps go first, so fewer of them split the blocks copies fold in.
  std::vector<bool> dead(prog->code.size(), false);
  CompactCode(*prog, dead);
  dead.assign(prog->code.size(), false);
  CoalesceCopies(*prog, dead);
  CompactCode(*prog, dead);
  CompactRegisters(*prog);
  for (const VmInst& in : prog->code) {
    prog->can_trap = prog->can_trap || in.op == VmOp::kLoopGuard ||
                     in.op == VmOp::kTrap;
  }
  AnalyzeLaneBatching(*prog, cs);
  return prog;
}

}  // namespace mgpu::glsl
