#include "glsl/interp.h"

#include <array>
#include <cassert>
#include <cmath>

#include "common/fault.h"
#include "common/strings.h"
#include "glsl/evalcore.h"

namespace mgpu::glsl {

ShaderExec::ShaderExec(const CompiledShader& cs, AluModel& alu) : cs_(cs) {
  InitGlobals(alu);
}

void ShaderExec::SyncGlobalsFrom(const ShaderEngine& engine) {
  const ShaderExec& base = static_cast<const ShaderExec&>(engine);
  assert(&cs_ == &base.cs_ && "a clone syncs from its own base engine");
  // Element-wise copy-assign: each Value keeps its cell storage.
  for (std::size_t i = 0; i < globals_.size(); ++i) {
    globals_[i] = base.globals_[i];
  }
}

int ShaderExec::GlobalSlot(const std::string& name) const {
  const VarDecl* d = cs_.FindGlobal(name);
  return d != nullptr ? d->slot : -1;
}

void ShaderExec::InitGlobals(AluModel& alu) {
  globals_.clear();
  globals_.reserve(cs_.globals.size());
  for (const VarDecl* g : cs_.globals) {
    globals_.emplace_back(g->type);
  }
  // Global initializers are constant expressions: no texture fetch.
  const TextureFn no_texture;
  Frame frame{alu, no_texture};
  for (const VarDecl* g : cs_.globals) {
    if (g->init != nullptr) {
      globals_[static_cast<std::size_t>(g->slot)] = Eval(*g->init, frame);
      if (!g->is_builtin && g->qual == Qualifier::kNone) {
        reinit_slots_.push_back(g->slot);
      }
    }
  }
}

bool ShaderExec::Run(AluModel& alu, const TextureFn& texture) {
  if (cs_.main == nullptr || cs_.main->body == nullptr) {
    throw ShaderRuntimeError("shader has no executable main()");
  }
  loop_steps_ = 0;
  Frame frame{alu, texture};
  for (const int slot : reinit_slots_) {
    globals_[static_cast<std::size_t>(slot)] =
        Eval(*cs_.globals[static_cast<std::size_t>(slot)]->init, frame);
  }
  frame.slots.resize(static_cast<std::size_t>(cs_.main->frame_size));
  const Flow flow = ExecBlock(*cs_.main->body, frame);
  return flow != Flow::kDiscard;
}

void ShaderExec::CheckLoopGuard() {
  if (fault::ShouldFail(fault::Site::kVmInstruction)) {
    throw ShaderRuntimeError("injected fault: shader trap");
  }
  if (++loop_steps_ > loop_budget_) {
    throw ShaderRuntimeError(
        "shader exceeded the loop iteration budget (a real GPU would hang or "
        "be reset here)");
  }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

ShaderExec::Flow ShaderExec::ExecBlock(const BlockStmt& b, Frame& f) {
  for (const StmtPtr& s : b.stmts) {
    const Flow flow = Exec(*s, f);
    if (flow != Flow::kNormal) return flow;
  }
  return Flow::kNormal;
}

ShaderExec::Flow ShaderExec::Exec(const Stmt& s, Frame& f) {
  switch (s.kind) {
    case StmtKind::kBlock:
      return ExecBlock(static_cast<const BlockStmt&>(s), f);
    case StmtKind::kExpr: {
      const auto& es = static_cast<const ExprStmt&>(s);
      if (es.expr) Eval(*es.expr, f);
      return Flow::kNormal;
    }
    case StmtKind::kDecl: {
      const auto& ds = static_cast<const DeclStmt&>(s);
      for (const auto& vd : ds.decls) {
        Value v = vd->init ? Eval(*vd->init, f) : Value(vd->type);
        f.slots[static_cast<std::size_t>(vd->slot)] = std::move(v);
      }
      return Flow::kNormal;
    }
    case StmtKind::kIf: {
      const auto& is = static_cast<const IfStmt&>(s);
      if (Eval(*is.cond, f).B(0)) return Exec(*is.then_stmt, f);
      if (is.else_stmt) return Exec(*is.else_stmt, f);
      return Flow::kNormal;
    }
    case StmtKind::kFor: {
      const auto& fs = static_cast<const ForStmt&>(s);
      if (fs.init) Exec(*fs.init, f);
      while (true) {
        CheckLoopGuard();
        if (fs.cond && !Eval(*fs.cond, f).B(0)) break;
        const Flow flow = Exec(*fs.body, f);
        if (flow == Flow::kBreak) break;
        if (flow == Flow::kReturn || flow == Flow::kDiscard) return flow;
        if (fs.step) Eval(*fs.step, f);
      }
      return Flow::kNormal;
    }
    case StmtKind::kWhile: {
      const auto& ws = static_cast<const WhileStmt&>(s);
      while (true) {
        CheckLoopGuard();
        if (!Eval(*ws.cond, f).B(0)) break;
        const Flow flow = Exec(*ws.body, f);
        if (flow == Flow::kBreak) break;
        if (flow == Flow::kReturn || flow == Flow::kDiscard) return flow;
      }
      return Flow::kNormal;
    }
    case StmtKind::kDoWhile: {
      const auto& ds = static_cast<const DoWhileStmt&>(s);
      while (true) {
        CheckLoopGuard();
        const Flow flow = Exec(*ds.body, f);
        if (flow == Flow::kBreak) break;
        if (flow == Flow::kReturn || flow == Flow::kDiscard) return flow;
        if (!Eval(*ds.cond, f).B(0)) break;
      }
      return Flow::kNormal;
    }
    case StmtKind::kReturn: {
      const auto& rs = static_cast<const ReturnStmt&>(s);
      if (rs.value) {
        f.ret = Eval(*rs.value, f);
      }
      f.returned = true;
      return Flow::kReturn;
    }
    case StmtKind::kBreak:
      return Flow::kBreak;
    case StmtKind::kContinue:
      return Flow::kContinue;
    case StmtKind::kDiscard:
      return Flow::kDiscard;
  }
  return Flow::kNormal;
}

// ---------------------------------------------------------------------------
// L-values
// ---------------------------------------------------------------------------

LRef ShaderExec::EvalLValue(const Expr& e, Frame& f) {
  switch (e.kind) {
    case ExprKind::kVarRef: {
      const auto& v = static_cast<const VarRefExpr&>(e);
      Value& storage = v.scope == VarScope::kGlobal
                           ? globals_[static_cast<std::size_t>(v.slot)]
                           : f.slots[static_cast<std::size_t>(v.slot)];
      return RefWhole(storage, v.type);
    }
    case ExprKind::kIndex: {
      const auto& ix = static_cast<const IndexExpr&>(e);
      const LRef base = EvalLValue(*ix.base, f);
      const int i = Eval(*ix.index, f).I(0);
      return RefIndex(base, IndexStepOf(ix.base->type), i);
    }
    case ExprKind::kSwizzle: {
      const auto& sw = static_cast<const SwizzleExpr&>(e);
      const LRef base = EvalLValue(*sw.base, f);
      return RefSwizzle(base, sw.type, sw.comps.data(), sw.count);
    }
    default:
      throw ShaderRuntimeError("internal error: expression is not an l-value");
  }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Value ShaderExec::Eval(const Expr& e, Frame& f) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return Value::MakeInt(static_cast<const IntLitExpr&>(e).value);
    case ExprKind::kFloatLit:
      return Value::MakeFloat(static_cast<const FloatLitExpr&>(e).value);
    case ExprKind::kBoolLit:
      return Value::MakeBool(static_cast<const BoolLitExpr&>(e).value);
    case ExprKind::kVarRef: {
      const auto& v = static_cast<const VarRefExpr&>(e);
      return v.scope == VarScope::kGlobal
                 ? globals_[static_cast<std::size_t>(v.slot)]
                 : f.slots[static_cast<std::size_t>(v.slot)];
    }
    case ExprKind::kCall: {
      const auto& call = static_cast<const CallExpr&>(e);
      if (call.fn != nullptr) return CallFunction(*call.fn, call, f);
      std::vector<Value> args;
      args.reserve(call.args.size());
      for (const auto& a : call.args) args.push_back(Eval(*a, f));
      if (args.size() > static_cast<std::size_t>(kMaxBuiltinArgs)) {
        throw ShaderRuntimeError("internal error: builtin argument count");
      }
      std::array<const Value*, kMaxBuiltinArgs> ptrs{};
      for (std::size_t i = 0; i < args.size(); ++i) ptrs[i] = &args[i];
      return EvalBuiltin(static_cast<Builtin>(call.builtin), call.type,
                         std::span<const Value* const>(ptrs.data(),
                                                       args.size()),
                         f.alu, f.texture);
    }
    case ExprKind::kCtor:
      return EvalCtor(static_cast<const CtorExpr&>(e), f);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      switch (b.op) {
        case BinOp::kLogicalAnd: {
          if (!Eval(*b.lhs, f).B(0)) return Value::MakeBool(false);
          return Value::MakeBool(Eval(*b.rhs, f).B(0));
        }
        case BinOp::kLogicalOr: {
          if (Eval(*b.lhs, f).B(0)) return Value::MakeBool(true);
          return Value::MakeBool(Eval(*b.rhs, f).B(0));
        }
        case BinOp::kLogicalXor: {
          const bool l = Eval(*b.lhs, f).B(0);
          const bool r = Eval(*b.rhs, f).B(0);
          return Value::MakeBool(l != r);
        }
        default: {
          const Value l = Eval(*b.lhs, f);
          const Value r = Eval(*b.rhs, f);
          return EvalArith(f.alu, b.op, l, r, b.type);
        }
      }
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      switch (u.op) {
        case UnOp::kPlus:
          return Eval(*u.operand, f);
        case UnOp::kNeg: {
          const Value v = Eval(*u.operand, f);
          Value out(v.type());
          EvalNegInto(f.alu, v, out);
          return out;
        }
        case UnOp::kNot: {
          const Value v = Eval(*u.operand, f);
          Value out(MakeType(BaseType::kBool));
          EvalNotInto(f.alu, v, out);
          return out;
        }
        case UnOp::kPreInc:
        case UnOp::kPreDec:
        case UnOp::kPostInc:
        case UnOp::kPostDec: {
          const LRef ref = EvalLValue(*u.operand, f);
          const bool inc =
              u.op == UnOp::kPreInc || u.op == UnOp::kPostInc;
          const bool post =
              u.op == UnOp::kPostInc || u.op == UnOp::kPostDec;
          Value out;
          EvalIncDecInto(f.alu, ref, inc, post, out);
          return out;
        }
      }
      return Value();
    }
    case ExprKind::kAssign: {
      const auto& a = static_cast<const AssignExpr&>(e);
      const Value rhs = Eval(*a.rhs, f);
      const LRef ref = EvalLValue(*a.lhs, f);
      if (a.op == AssignOp::kAssign) {
        WriteRef(ref, rhs);
        return rhs;
      }
      const BinOp op = a.op == AssignOp::kAdd   ? BinOp::kAdd
                       : a.op == AssignOp::kSub ? BinOp::kSub
                       : a.op == AssignOp::kMul ? BinOp::kMul
                                                : BinOp::kDiv;
      const Value result = EvalArith(f.alu, op, ReadRef(ref), rhs, a.type);
      WriteRef(ref, result);
      return result;
    }
    case ExprKind::kTernary: {
      const auto& t = static_cast<const TernaryExpr&>(e);
      return Eval(*t.cond, f).B(0) ? Eval(*t.then_expr, f)
                                   : Eval(*t.else_expr, f);
    }
    case ExprKind::kIndex: {
      const auto& ix = static_cast<const IndexExpr&>(e);
      const Value base = Eval(*ix.base, f);
      const int i = Eval(*ix.index, f).I(0);
      Value out(ix.type);
      EvalExtractInto(base, IndexStepOf(ix.base->type), i, out);
      return out;
    }
    case ExprKind::kSwizzle: {
      const auto& sw = static_cast<const SwizzleExpr&>(e);
      const Value base = Eval(*sw.base, f);
      Value out(sw.type);
      for (int k = 0; k < sw.count; ++k) {
        out.data()[k] = base.data()[sw.comps[static_cast<std::size_t>(k)]];
      }
      return out;
    }
    case ExprKind::kComma: {
      const auto& c = static_cast<const CommaExpr&>(e);
      Eval(*c.lhs, f);
      return Eval(*c.rhs, f);
    }
  }
  return Value();
}

Value ShaderExec::EvalArith(AluModel& alu, BinOp op, const Value& l,
                            const Value& r, Type result) {
  Value out(result);
  EvalArithInto(alu, op, l, r, out);
  return out;
}

Value ShaderExec::EvalCtor(const CtorExpr& c, Frame& f) {
  std::vector<Value> args;
  args.reserve(c.args.size());
  for (const auto& a : c.args) args.push_back(Eval(*a, f));
  std::vector<const Value*> ptrs;
  ptrs.reserve(args.size());
  for (const Value& a : args) ptrs.push_back(&a);
  Value out(c.ctor_type);
  EvalCtorInto(f.alu, ptrs, out);
  return out;
}

Value ShaderExec::CallFunction(const FunctionDecl& fn, const CallExpr& call,
                               Frame& caller) {
  // Sema bounds the call depth (sema.h), so there is no runtime check.
  // Find the *definition* (a prototype may have been registered).
  const FunctionDecl* def = &fn;
  if (def->body == nullptr) {
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
        if (same) {
          def = other.get();
          break;
        }
      }
    }
    if (def->body == nullptr) {
      throw ShaderRuntimeError(
          StrFormat("call to undefined function '%s'", fn.name.c_str()));
    }
  }

  Frame frame{caller.alu, caller.texture};
  frame.slots.resize(static_cast<std::size_t>(def->frame_size));

  // Copy-in.
  std::vector<LRef> out_refs(call.args.size());
  for (std::size_t i = 0; i < call.args.size(); ++i) {
    const VarDecl& p = *def->params[i];
    if (p.dir == ParamDir::kIn) {
      frame.slots[static_cast<std::size_t>(p.slot)] = Eval(*call.args[i], caller);
    } else {
      out_refs[i] = EvalLValue(*call.args[i], caller);
      if (p.dir == ParamDir::kInOut) {
        frame.slots[static_cast<std::size_t>(p.slot)] = ReadRef(out_refs[i]);
      } else {
        frame.slots[static_cast<std::size_t>(p.slot)] = Value(p.type);
      }
    }
  }

  ExecBlock(*def->body, frame);

  // Copy-out.
  for (std::size_t i = 0; i < call.args.size(); ++i) {
    const VarDecl& p = *def->params[i];
    if (p.dir != ParamDir::kIn) {
      WriteRef(out_refs[i], frame.slots[static_cast<std::size_t>(p.slot)]);
    }
  }
  if (!frame.returned && def->return_type.base != BaseType::kVoid) {
    return Value(def->return_type);  // fell off the end: zero value
  }
  return std::move(frame.ret);
}

}  // namespace mgpu::glsl
