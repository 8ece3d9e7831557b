#include "glsl/sema.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "glsl/builtins.h"

namespace mgpu::glsl {

int Vec4Slots(const Type& t) {
  const int per_element = IsMatrix(t.base) ? ColumnCount(t.base) : 1;
  return per_element * (t.IsArray() ? t.array_size : 1);
}

namespace {

// Sentinel for expressions whose type could not be determined. Distinct
// from plain `void` (array_size -2 is otherwise impossible) so that calls
// to void functions are NOT silently treated as already-diagnosed errors —
// e.g. `float x = f();` with `void f()` must be rejected.
const Type kErrorType{BaseType::kVoid, -2};

class Sema {
 public:
  Sema(CompiledShader& cs, DiagSink& diags) : cs_(cs), diags_(diags) {}

  void Run() {
    SetSpecDefaultPrecisions();
    for (const PrecisionDecl& pd : cs_.tu->default_precisions) {
      ApplyDefaultPrecision(pd);
    }
    PushScope();  // global scope
    DeclareBuiltinVars();
    RegisterFunctions();
    for (auto& g : cs_.tu->globals) DeclareGlobal(g.get());
    for (auto& fn : cs_.tu->functions) {
      if (fn->body) CheckFunction(*fn);
    }
    FindMain();
    CheckCallGraph();
    CheckResourceLimits();
  }

 private:
  // --- diagnostics ---
  void Error(SrcLoc loc, std::string msg) { diags_.Error(loc, std::move(msg)); }

  // --- precision bookkeeping ---
  void SetSpecDefaultPrecisions() {
    // GLSL ES 1.00 §4.5.3.
    if (cs_.stage == Stage::kVertex) {
      default_prec_[BaseType::kFloat] = Precision::kHigh;
      default_prec_[BaseType::kInt] = Precision::kHigh;
    } else {
      // The fragment language has NO default float precision; using floats
      // without declaring one is a compile error (enforced below). This is
      // the rule that forces every GPGPU fragment kernel in the paper to
      // start with "precision highp float;".
      default_prec_[BaseType::kInt] = Precision::kMedium;
    }
    default_prec_[BaseType::kSampler2D] = Precision::kLow;
    default_prec_[BaseType::kSamplerCube] = Precision::kLow;
  }

  void ApplyDefaultPrecision(const PrecisionDecl& pd) {
    Precision p = pd.precision;
    if (pd.base == BaseType::kFloat && p == Precision::kHigh &&
        cs_.stage == Stage::kFragment && !cs_.limits.fragment_highp_float) {
      diags_.Warning(pd.loc,
                     "highp float is not supported by the fragment language "
                     "of this profile; downgrading to mediump (paper §IV-E "
                     "footnote 1)");
      p = Precision::kMedium;
    }
    default_prec_[pd.base] = p;
  }

  void RequirePrecision(const VarDecl& vd) {
    const BaseType scalar = ScalarOf(vd.type.base);
    if (scalar != BaseType::kFloat && scalar != BaseType::kInt &&
        !IsSampler(vd.type.base)) {
      return;  // bools carry no precision
    }
    const BaseType key = IsSampler(vd.type.base) ? vd.type.base : scalar;
    if (vd.precision != Precision::kNone) return;
    if (default_prec_.count(key) == 0) {
      Error(vd.loc,
            StrFormat("no default precision defined for type '%s'; declare "
                      "e.g. 'precision mediump float;' (GLSL ES 1.00 "
                      "requires this in fragment shaders)",
                      vd.type.ToString().c_str()));
    }
  }

  // --- scopes & symbols ---
  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }

  VarDecl* Lookup(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto f = it->find(name);
      if (f != it->end()) return f->second;
    }
    return nullptr;
  }

  void DeclareInCurrentScope(VarDecl* vd) {
    auto& scope = scopes_.back();
    if (scope.count(vd->name) != 0) {
      Error(vd->loc, StrFormat("redeclaration of '%s'", vd->name.c_str()));
      return;
    }
    if (scopes_.size() == 1 && functions_.count(vd->name) != 0) {
      Error(vd->loc, StrFormat("'%s' is already declared as a function",
                               vd->name.c_str()));
      return;
    }
    scope[vd->name] = vd;
  }

  // --- builtin gl_* variables ---
  VarDecl* AddBuiltinVar(std::string name, Type type, Qualifier qual,
                         std::int32_t const_value = 0, bool has_const = false) {
    auto vd = std::make_unique<VarDecl>();
    vd->name = std::move(name);
    vd->type = type;
    vd->qual = qual;
    vd->precision = Precision::kHigh;
    vd->is_builtin = true;
    vd->slot = static_cast<int>(cs_.globals.size());
    if (has_const) {
      vd->init = std::make_unique<IntLitExpr>(SrcLoc{}, const_value);
      vd->init->type = MakeType(BaseType::kInt);
    }
    VarDecl* raw = vd.get();
    cs_.globals.push_back(raw);
    cs_.builtin_vars.push_back(std::move(vd));
    scopes_.front()[raw->name] = raw;
    return raw;
  }

  void DeclareBuiltinVars() {
    const Limits& lim = cs_.limits;
    if (cs_.stage == Stage::kVertex) {
      AddBuiltinVar("gl_Position", MakeType(BaseType::kVec4),
                    Qualifier::kNone);
      AddBuiltinVar("gl_PointSize", MakeType(BaseType::kFloat),
                    Qualifier::kNone);
    } else {
      AddBuiltinVar("gl_FragCoord", MakeType(BaseType::kVec4),
                    Qualifier::kConst);
      AddBuiltinVar("gl_FrontFacing", MakeType(BaseType::kBool),
                    Qualifier::kConst);
      AddBuiltinVar("gl_PointCoord", MakeType(BaseType::kVec2),
                    Qualifier::kConst);
      AddBuiltinVar("gl_FragColor", MakeType(BaseType::kVec4),
                    Qualifier::kNone);
      Type frag_data = MakeType(BaseType::kVec4);
      frag_data.array_size = lim.max_draw_buffers;
      AddBuiltinVar("gl_FragData", frag_data, Qualifier::kNone);
    }
    const Type int_t = MakeType(BaseType::kInt);
    AddBuiltinVar("gl_MaxVertexAttribs", int_t, Qualifier::kConst,
                  lim.max_vertex_attribs, true);
    AddBuiltinVar("gl_MaxVertexUniformVectors", int_t, Qualifier::kConst,
                  lim.max_vertex_uniform_vectors, true);
    AddBuiltinVar("gl_MaxVaryingVectors", int_t, Qualifier::kConst,
                  lim.max_varying_vectors, true);
    AddBuiltinVar("gl_MaxVertexTextureImageUnits", int_t, Qualifier::kConst,
                  lim.max_vertex_texture_image_units, true);
    AddBuiltinVar("gl_MaxCombinedTextureImageUnits", int_t, Qualifier::kConst,
                  lim.max_texture_image_units +
                      lim.max_vertex_texture_image_units,
                  true);
    AddBuiltinVar("gl_MaxTextureImageUnits", int_t, Qualifier::kConst,
                  lim.max_texture_image_units, true);
    AddBuiltinVar("gl_MaxFragmentUniformVectors", int_t, Qualifier::kConst,
                  lim.max_fragment_uniform_vectors, true);
    AddBuiltinVar("gl_MaxDrawBuffers", int_t, Qualifier::kConst,
                  lim.max_draw_buffers, true);
  }

  // --- functions ---
  void RegisterFunctions() {
    for (auto& fn : cs_.tu->functions) {
      if (IsBuiltinName(fn->name)) {
        Error(fn->loc, StrFormat("redefinition of built-in function '%s'",
                                 fn->name.c_str()));
        continue;
      }
      if (fn->name.rfind("gl_", 0) == 0) {
        Error(fn->loc, "identifiers starting with 'gl_' are reserved");
        continue;
      }
      if (fn->return_type.IsArray()) {
        Error(fn->loc, "functions may not return arrays in GLSL ES 1.00");
      }
      auto& overloads = functions_[fn->name];
      bool merged = false;
      for (FunctionDecl*& other : overloads) {
        if (SameSignature(*other, *fn)) {
          if (other->body && fn->body) {
            Error(fn->loc, StrFormat("redefinition of function '%s'",
                                     fn->name.c_str()));
          }
          // Keep one canonical decl per signature, preferring the
          // definition, so call-graph edges (recursion check) and call
          // resolution always target the body.
          if (fn->body && !other->body) other = fn.get();
          merged = true;
          break;
        }
      }
      if (!merged) overloads.push_back(fn.get());
    }
  }

  static bool SameSignature(const FunctionDecl& a, const FunctionDecl& b) {
    if (a.params.size() != b.params.size()) return false;
    for (std::size_t i = 0; i < a.params.size(); ++i) {
      if (!(a.params[i]->type == b.params[i]->type)) return false;
    }
    return true;
  }

  void FindMain() {
    const auto it = functions_.find("main");
    if (it == functions_.end()) {
      Error({0, 0}, "missing entry point: 'void main()' not defined");
      return;
    }
    for (FunctionDecl* fn : it->second) {
      if (fn->params.empty() && fn->body) {
        if (fn->return_type.base != BaseType::kVoid) {
          Error(fn->loc, "main() must return void");
        }
        cs_.main = fn;
        return;
      }
    }
    Error({0, 0}, "missing entry point: 'void main()' not defined");
  }

  // Every engine inlines every user call (no engine has a call stack, and
  // neither do the QPUs), so the call graph's limits are decided here, once,
  // in one memoized walk from main and the global initializers: static
  // recursion (GLSL ES 1.00 §6.1 bans it), a static call depth past
  // kMaxCallDepth, and a fully inlined size past kMaxInlinedNodes.
  struct CallCost {
    int depth = 0;           // user calls nested below this body
    std::uint64_t size = 0;  // checked nodes once every call is inlined
  };

  void CheckCallGraph() {
    for (auto& fn : cs_.tu->functions) (void)Cost(fn.get());
    if (recursive_ || cs_.main == nullptr) return;
    // Key nullptr holds the global initializers' nodes and calls.
    const CallCost m = Cost(cs_.main);
    const CallCost g = Cost(nullptr);
    const int depth = std::max(m.depth, g.depth);
    if (depth > kMaxCallDepth) {
      Error(cs_.main->loc, StrFormat("user function calls nest %d deep, past "
                                     "the limit of %d",
                                     depth, kMaxCallDepth));
    }
    if (m.size + g.size > kMaxInlinedNodes) {
      Error(cs_.main->loc, StrFormat("shader too large: more than %llu nodes "
                                     "once every call is inlined",
                                     static_cast<unsigned long long>(
                                         kMaxInlinedNodes)));
    }
  }

  // A size past the limit saturates at limit + 1, so a call graph that fans
  // out exponentially costs one visit per function and cannot overflow.
  CallCost Cost(const FunctionDecl* fn) {
    if (const auto it = cost_.find(fn); it != cost_.end()) return it->second;
    if (!visiting_.insert(fn).second) {
      Error(fn->loc, StrFormat("static recursion involving '%s' is not "
                               "allowed in GLSL ES 1.00",
                               fn->name.c_str()));
      recursive_ = true;
      return cost_[fn] = {};
    }
    CallCost c;
    c.size = nodes_[fn];
    for (const FunctionDecl* callee : callgraph_[fn]) {
      const CallCost k = Cost(callee);
      c.depth = std::max(c.depth, k.depth + 1);
      c.size = std::min(c.size + k.size, kMaxInlinedNodes + 1);
    }
    visiting_.erase(fn);
    return cost_[fn] = c;
  }

  void CheckResourceLimits() {
    int attribs = 0, varyings = 0, uniforms = 0;
    for (const VarDecl* g : cs_.globals) {
      if (g->is_builtin) continue;
      switch (g->qual) {
        case Qualifier::kAttribute: attribs += Vec4Slots(g->type); break;
        case Qualifier::kVarying: varyings += Vec4Slots(g->type); break;
        case Qualifier::kUniform: uniforms += Vec4Slots(g->type); break;
        default: break;
      }
    }
    const Limits& lim = cs_.limits;
    if (attribs > lim.max_vertex_attribs) {
      Error({0, 0}, StrFormat("too many attributes: %d > "
                              "GL_MAX_VERTEX_ATTRIBS (%d)",
                              attribs, lim.max_vertex_attribs));
    }
    if (varyings > lim.max_varying_vectors) {
      Error({0, 0}, StrFormat("too many varyings: %d > "
                              "GL_MAX_VARYING_VECTORS (%d)",
                              varyings, lim.max_varying_vectors));
    }
    const int max_uniforms = cs_.stage == Stage::kVertex
                                 ? lim.max_vertex_uniform_vectors
                                 : lim.max_fragment_uniform_vectors;
    if (uniforms > max_uniforms) {
      Error({0, 0}, StrFormat("too many uniforms: %d > %d vec4 equivalents",
                              uniforms, max_uniforms));
    }
  }

  // --- declarations ---
  void DeclareGlobal(VarDecl* vd) {
    if (vd->name.rfind("gl_", 0) == 0) {
      Error(vd->loc, "identifiers starting with 'gl_' are reserved");
      return;
    }
    CheckQualifierRules(*vd, /*is_global=*/true);
    RequirePrecision(*vd);
    if (vd->init) {
      if (vd->qual == Qualifier::kAttribute ||
          vd->qual == Qualifier::kUniform || vd->qual == Qualifier::kVarying) {
        Error(vd->loc, "attribute/uniform/varying variables may not have "
                       "initializers");
      }
      if (vd->type.IsArray()) {
        Error(vd->loc, "arrays may not be initialized in GLSL ES 1.00");
      }
      const Type t = CheckExpr(*vd->init);
      if (!(t == kErrorType) && !(t == vd->type)) {
        Error(vd->loc,
              StrFormat("cannot initialize '%s' (%s) with expression of type "
                        "%s",
                        vd->name.c_str(), vd->type.ToString().c_str(),
                        t.ToString().c_str()));
      }
    } else if (vd->qual == Qualifier::kConst) {
      Error(vd->loc, "const variables require an initializer");
    }
    vd->slot = static_cast<int>(cs_.globals.size());
    cs_.globals.push_back(vd);
    DeclareInCurrentScope(vd);
  }

  void CheckQualifierRules(const VarDecl& vd, bool is_global) {
    if (IsSampler(vd.type.base)) {
      const bool ok = (is_global && vd.qual == Qualifier::kUniform) ||
                      (vd.is_param && vd.qual != Qualifier::kUniform);
      if (!ok) {
        Error(vd.loc, "samplers may only be declared as uniforms or function "
                      "parameters");
      }
      return;
    }
    switch (vd.qual) {
      case Qualifier::kAttribute:
        if (cs_.stage != Stage::kVertex) {
          Error(vd.loc, "attributes are only allowed in vertex shaders");
        }
        if (!IsFloatFamily(vd.type.base)) {
          Error(vd.loc, "attributes must have float, vector or matrix type");
        }
        if (vd.type.IsArray()) {
          Error(vd.loc, "attributes may not be arrays");
        }
        break;
      case Qualifier::kVarying:
        if (!IsFloatFamily(vd.type.base)) {
          Error(vd.loc, "varyings must have float, vector or matrix type");
        }
        break;
      default:
        break;
    }
  }

  void CheckFunction(FunctionDecl& fn) {
    current_fn_ = &fn;
    next_frame_slot_ = 0;
    PushScope();
    for (auto& p : fn.params) {
      if (p->type.base != BaseType::kVoid) {
        RequirePrecision(*p);
        p->slot = next_frame_slot_;
        next_frame_slot_ += 1;
        if (!p->name.empty()) DeclareInCurrentScope(p.get());
      }
    }
    CheckBlockInCurrentScope(*fn.body);
    PopScope();
    fn.frame_size = next_frame_slot_;
    current_fn_ = nullptr;
  }

  // --- statements ---
  void CheckStmt(Stmt& s) {
    ++nodes_[current_fn_];
    switch (s.kind) {
      case StmtKind::kBlock: {
        PushScope();
        CheckBlockInCurrentScope(static_cast<BlockStmt&>(s));
        PopScope();
        break;
      }
      case StmtKind::kExpr: {
        auto& es = static_cast<ExprStmt&>(s);
        if (es.expr) CheckExpr(*es.expr);
        break;
      }
      case StmtKind::kDecl: {
        auto& ds = static_cast<DeclStmt&>(s);
        for (auto& vd : ds.decls) CheckLocalDecl(*vd);
        break;
      }
      case StmtKind::kIf: {
        auto& is = static_cast<IfStmt&>(s);
        RequireBoolCond(*is.cond, "if");
        CheckStmt(*is.then_stmt);
        if (is.else_stmt) CheckStmt(*is.else_stmt);
        break;
      }
      case StmtKind::kFor: {
        auto& fs = static_cast<ForStmt&>(s);
        PushScope();
        if (fs.init) CheckStmt(*fs.init);
        if (fs.cond) RequireBoolCond(*fs.cond, "for");
        if (fs.step) CheckExpr(*fs.step);
        ++loop_depth_;
        CheckStmt(*fs.body);
        --loop_depth_;
        PopScope();
        break;
      }
      case StmtKind::kWhile: {
        auto& ws = static_cast<WhileStmt&>(s);
        RequireBoolCond(*ws.cond, "while");
        ++loop_depth_;
        CheckStmt(*ws.body);
        --loop_depth_;
        break;
      }
      case StmtKind::kDoWhile: {
        auto& ds = static_cast<DoWhileStmt&>(s);
        ++loop_depth_;
        CheckStmt(*ds.body);
        --loop_depth_;
        RequireBoolCond(*ds.cond, "do-while");
        break;
      }
      case StmtKind::kReturn: {
        auto& rs = static_cast<ReturnStmt&>(s);
        const Type expected =
            current_fn_ ? current_fn_->return_type : MakeType(BaseType::kVoid);
        if (rs.value) {
          const Type t = CheckExpr(*rs.value);
          if (expected.base == BaseType::kVoid) {
            Error(rs.loc, "void function may not return a value");
          } else if (!(t == kErrorType) && !(t == expected)) {
            Error(rs.loc, StrFormat("return type mismatch: expected %s, got "
                                    "%s",
                                    expected.ToString().c_str(),
                                    t.ToString().c_str()));
          }
        } else if (expected.base != BaseType::kVoid) {
          Error(rs.loc, "non-void function must return a value");
        }
        break;
      }
      case StmtKind::kBreak:
        if (loop_depth_ == 0) Error(s.loc, "'break' outside of a loop");
        break;
      case StmtKind::kContinue:
        if (loop_depth_ == 0) Error(s.loc, "'continue' outside of a loop");
        break;
      case StmtKind::kDiscard:
        if (cs_.stage != Stage::kFragment) {
          Error(s.loc, "'discard' is only allowed in fragment shaders");
        }
        break;
    }
  }

  void CheckBlockInCurrentScope(BlockStmt& b) {
    for (auto& st : b.stmts) CheckStmt(*st);
  }

  void CheckLocalDecl(VarDecl& vd) {
    if (vd.name.rfind("gl_", 0) == 0) {
      Error(vd.loc, "identifiers starting with 'gl_' are reserved");
    }
    CheckQualifierRules(vd, /*is_global=*/false);
    RequirePrecision(vd);
    if (vd.init) {
      if (vd.type.IsArray()) {
        Error(vd.loc, "arrays may not be initialized in GLSL ES 1.00");
      }
      const Type t = CheckExpr(*vd.init);
      if (!(t == kErrorType) && !(t == vd.type)) {
        Error(vd.loc,
              StrFormat("cannot initialize '%s' (%s) with expression of type "
                        "%s (GLSL ES has no implicit conversions)",
                        vd.name.c_str(), vd.type.ToString().c_str(),
                        t.ToString().c_str()));
      }
    } else if (vd.qual == Qualifier::kConst) {
      Error(vd.loc, "const variables require an initializer");
    }
    vd.slot = next_frame_slot_++;
    DeclareInCurrentScope(&vd);
  }

  void RequireBoolCond(Expr& e, const char* what) {
    const Type t = CheckExpr(e);
    if (!(t == kErrorType) && !(t == MakeType(BaseType::kBool))) {
      Error(e.loc, StrFormat("%s condition must be a scalar bool, got %s",
                             what, t.ToString().c_str()));
    }
  }

  // --- expressions ---
  Type CheckExpr(Expr& e) {
    ++nodes_[current_fn_];
    switch (e.kind) {
      case ExprKind::kIntLit:
        e.type = MakeType(BaseType::kInt);
        return e.type;
      case ExprKind::kFloatLit:
        e.type = MakeType(BaseType::kFloat);
        return e.type;
      case ExprKind::kBoolLit:
        e.type = MakeType(BaseType::kBool);
        return e.type;
      case ExprKind::kVarRef: {
        auto& v = static_cast<VarRefExpr&>(e);
        VarDecl* decl = Lookup(v.name);
        if (decl == nullptr) {
          Error(v.loc, StrFormat("use of undeclared identifier '%s'",
                                 v.name.c_str()));
          e.type = kErrorType;
          return e.type;
        }
        v.decl = decl;
        v.slot = decl->slot;
        v.scope = (decl->is_param || IsLocal(decl)) ? VarScope::kLocal
                                                    : VarScope::kGlobal;
        if (v.scope == VarScope::kGlobal) decl->referenced = true;
        e.type = decl->type;
        return e.type;
      }
      case ExprKind::kCall:
        return CheckCall(static_cast<CallExpr&>(e));
      case ExprKind::kCtor:
        return CheckCtor(static_cast<CtorExpr&>(e));
      case ExprKind::kBinary:
        return CheckBinary(static_cast<BinaryExpr&>(e));
      case ExprKind::kUnary:
        return CheckUnary(static_cast<UnaryExpr&>(e));
      case ExprKind::kAssign:
        return CheckAssign(static_cast<AssignExpr&>(e));
      case ExprKind::kTernary: {
        auto& t = static_cast<TernaryExpr&>(e);
        RequireBoolCond(*t.cond, "'?:'");
        const Type a = CheckExpr(*t.then_expr);
        const Type b = CheckExpr(*t.else_expr);
        if (a == kErrorType || b == kErrorType) {
          e.type = kErrorType;
        } else if (!(a == b)) {
          Error(e.loc, StrFormat("'?:' requires both results to have the "
                                 "same type (%s vs %s)",
                                 a.ToString().c_str(), b.ToString().c_str()));
          e.type = kErrorType;
        } else {
          e.type = a;
        }
        return e.type;
      }
      case ExprKind::kIndex:
        return CheckIndex(static_cast<IndexExpr&>(e));
      case ExprKind::kSwizzle:
        return CheckSwizzle(static_cast<SwizzleExpr&>(e));
      case ExprKind::kComma: {
        auto& c = static_cast<CommaExpr&>(e);
        CheckExpr(*c.lhs);
        e.type = CheckExpr(*c.rhs);
        return e.type;
      }
    }
    e.type = kErrorType;
    return e.type;
  }

  bool IsLocal(const VarDecl* decl) const {
    // A decl found in any scope other than the global one is local. Globals
    // (user + builtin) are registered in scopes_.front().
    const auto it = scopes_.front().find(decl->name);
    return !(it != scopes_.front().end() && it->second == decl);
  }

  Type CheckCall(CallExpr& call) {
    std::vector<Type> arg_types;
    arg_types.reserve(call.args.size());
    bool arg_error = false;
    for (auto& a : call.args) {
      const Type t = CheckExpr(*a);
      if (t == kErrorType) arg_error = true;
      arg_types.push_back(t);
    }
    if (arg_error) {
      call.type = kErrorType;
      return call.type;
    }
    const auto it = functions_.find(call.callee);
    if (it != functions_.end()) {
      for (FunctionDecl* fn : it->second) {
        if (fn->params.size() != arg_types.size()) continue;
        bool match = true;
        for (std::size_t i = 0; i < arg_types.size(); ++i) {
          if (!(fn->params[i]->type == arg_types[i])) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        call.fn = fn;
        // out/inout arguments must be l-values.
        for (std::size_t i = 0; i < call.args.size(); ++i) {
          if (fn->params[i]->dir != ParamDir::kIn) {
            CheckLValue(*call.args[i], "pass as out/inout argument");
          }
        }
        callgraph_[current_fn_].push_back(fn);
        call.type = fn->return_type;
        return call.type;
      }
      Error(call.loc, StrFormat("no overload of '%s' matches the argument "
                                "types",
                                call.callee.c_str()));
      call.type = kErrorType;
      return call.type;
    }
    const BuiltinResolution r =
        ResolveBuiltin(call.callee, arg_types, cs_.stage);
    if (!r.ok) {
      Error(call.loc, r.error);
      call.type = kErrorType;
      return call.type;
    }
    call.builtin = static_cast<int>(r.builtin);
    call.type = r.result_type;
    return call.type;
  }

  Type CheckCtor(CtorExpr& ctor) {
    const BaseType target = ctor.ctor_type.base;
    std::vector<Type> arg_types;
    for (auto& a : ctor.args) {
      const Type t = CheckExpr(*a);
      if (t == kErrorType) {
        ctor.type = kErrorType;
        return ctor.type;
      }
      if (t.IsArray() || t.base == BaseType::kVoid || IsSampler(t.base)) {
        Error(a->loc, "invalid constructor argument type");
        ctor.type = kErrorType;
        return ctor.type;
      }
      arg_types.push_back(t);
    }
    if (target == BaseType::kVoid || IsSampler(target)) {
      Error(ctor.loc, "cannot construct this type");
      ctor.type = kErrorType;
      return ctor.type;
    }
    ctor.type = ctor.ctor_type;
    if (IsScalar(target)) {
      if (arg_types.size() != 1) {
        Error(ctor.loc, "scalar constructors take exactly one argument");
        ctor.type = kErrorType;
      }
      return ctor.type;
    }
    if (IsVector(target)) {
      const int needed = ComponentCount(target);
      if (arg_types.size() == 1 && IsScalar(arg_types[0].base)) {
        return ctor.type;  // broadcast
      }
      if (arg_types.size() == 1 && IsMatrix(arg_types[0].base)) {
        Error(ctor.loc, "cannot construct a vector from a matrix");
        ctor.type = kErrorType;
        return ctor.type;
      }
      int have = 0;
      for (std::size_t i = 0; i < arg_types.size(); ++i) {
        if (have >= needed) {
          Error(ctor.args[i]->loc, "unused constructor argument");
          ctor.type = kErrorType;
          return ctor.type;
        }
        have += ComponentCount(arg_types[i].base);
      }
      if (have < needed) {
        Error(ctor.loc,
              StrFormat("not enough components to construct %s (%d of %d)",
                        BaseTypeName(target), have, needed));
        ctor.type = kErrorType;
      }
      return ctor.type;
    }
    // Matrix constructors.
    const int needed = ComponentCount(target);
    if (arg_types.size() == 1 && IsScalar(arg_types[0].base)) {
      return ctor.type;  // diagonal
    }
    if (arg_types.size() == 1 && IsMatrix(arg_types[0].base)) {
      return ctor.type;  // submatrix / identity-extended
    }
    int have = 0;
    for (std::size_t i = 0; i < arg_types.size(); ++i) {
      if (IsMatrix(arg_types[i].base)) {
        Error(ctor.args[i]->loc,
              "matrices cannot be mixed with other arguments in a matrix "
              "constructor");
        ctor.type = kErrorType;
        return ctor.type;
      }
      have += ComponentCount(arg_types[i].base);
    }
    if (have != needed) {
      Error(ctor.loc,
            StrFormat("matrix constructor requires exactly %d components, "
                      "got %d",
                      needed, have));
      ctor.type = kErrorType;
    }
    return ctor.type;
  }

  Type CheckBinary(BinaryExpr& b) {
    const Type l = CheckExpr(*b.lhs);
    const Type r = CheckExpr(*b.rhs);
    if (l == kErrorType || r == kErrorType) {
      b.type = kErrorType;
      return b.type;
    }
    switch (b.op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
        b.type = ArithmeticResult(b.op, l, r, b.loc);
        return b.type;
      case BinOp::kLt:
      case BinOp::kGt:
      case BinOp::kLe:
      case BinOp::kGe:
        if (!(l == r) || l.IsArray() ||
            (l.base != BaseType::kFloat && l.base != BaseType::kInt)) {
          Error(b.loc, StrFormat("relational operators require two scalar "
                                 "ints or floats (%s vs %s)",
                                 l.ToString().c_str(), r.ToString().c_str()));
          b.type = kErrorType;
        } else {
          b.type = MakeType(BaseType::kBool);
        }
        return b.type;
      case BinOp::kEq:
      case BinOp::kNe:
        if (!(l == r) || l.IsArray() || IsSampler(l.base) ||
            l.base == BaseType::kVoid) {
          Error(b.loc, StrFormat("cannot compare %s with %s",
                                 l.ToString().c_str(), r.ToString().c_str()));
          b.type = kErrorType;
        } else {
          b.type = MakeType(BaseType::kBool);
        }
        return b.type;
      case BinOp::kLogicalAnd:
      case BinOp::kLogicalOr:
      case BinOp::kLogicalXor:
        if (!(l == MakeType(BaseType::kBool)) ||
            !(r == MakeType(BaseType::kBool))) {
          Error(b.loc, "logical operators require scalar bool operands");
          b.type = kErrorType;
        } else {
          b.type = MakeType(BaseType::kBool);
        }
        return b.type;
    }
    b.type = kErrorType;
    return b.type;
  }

  Type ArithmeticResult(BinOp op, const Type& l, const Type& r, SrcLoc loc) {
    if (l.IsArray() || r.IsArray() || !IsNumeric(l.base) ||
        !IsNumeric(r.base)) {
      Error(loc, StrFormat("invalid operands to arithmetic operator (%s and "
                           "%s)",
                           l.ToString().c_str(), r.ToString().c_str()));
      return kErrorType;
    }
    if (ScalarOf(l.base) != ScalarOf(r.base)) {
      Error(loc, StrFormat("no implicit conversion between %s and %s in GLSL "
                           "ES 1.00; use a constructor",
                           l.ToString().c_str(), r.ToString().c_str()));
      return kErrorType;
    }
    const bool l_scalar = IsScalar(l.base);
    const bool r_scalar = IsScalar(r.base);
    const bool l_vec = IsVector(l.base);
    const bool r_vec = IsVector(r.base);
    const bool l_mat = IsMatrix(l.base);
    const bool r_mat = IsMatrix(r.base);
    if (l_scalar && r_scalar) return l;
    if (l_scalar) return r;  // scalar op vec/mat -> component-wise
    if (r_scalar) return l;
    if (l_vec && r_vec) {
      if (l == r) return l;
      Error(loc, "vector operands must have the same size");
      return kErrorType;
    }
    if (op == BinOp::kMul) {
      // Linear-algebra multiply.
      if (l_mat && r_mat) {
        if (l == r) return l;  // square matrices only in GLSL ES
        Error(loc, "matrix sizes do not match for multiplication");
        return kErrorType;
      }
      if (l_mat && r_vec) {
        if (ColumnCount(l.base) == ComponentCount(r.base)) return r;
        Error(loc, "matrix * vector size mismatch");
        return kErrorType;
      }
      if (l_vec && r_mat) {
        if (ComponentCount(l.base) == RowCount(r.base)) return l;
        Error(loc, "vector * matrix size mismatch");
        return kErrorType;
      }
    } else if (l_mat && r_mat) {
      if (l == r) return l;  // component-wise +,-,/
      Error(loc, "matrix operands must have the same size");
      return kErrorType;
    }
    Error(loc, StrFormat("invalid operands (%s and %s)",
                         l.ToString().c_str(), r.ToString().c_str()));
    return kErrorType;
  }

  Type CheckUnary(UnaryExpr& u) {
    const Type t = CheckExpr(*u.operand);
    if (t == kErrorType) {
      u.type = kErrorType;
      return u.type;
    }
    switch (u.op) {
      case UnOp::kNeg:
      case UnOp::kPlus:
        if (!IsNumeric(t.base) || t.IsArray()) {
          Error(u.loc, "unary +/- requires a numeric operand");
          u.type = kErrorType;
        } else {
          u.type = t;
        }
        return u.type;
      case UnOp::kNot:
        if (!(t == MakeType(BaseType::kBool))) {
          Error(u.loc, "'!' requires a scalar bool operand");
          u.type = kErrorType;
        } else {
          u.type = t;
        }
        return u.type;
      case UnOp::kPreInc:
      case UnOp::kPreDec:
      case UnOp::kPostInc:
      case UnOp::kPostDec:
        if (!IsNumeric(t.base) || t.IsArray() || IsMatrix(t.base)) {
          Error(u.loc, "++/-- requires a scalar or vector numeric l-value");
          u.type = kErrorType;
          return u.type;
        }
        CheckLValue(*u.operand, "increment/decrement");
        u.type = t;
        return u.type;
    }
    u.type = kErrorType;
    return u.type;
  }

  Type CheckAssign(AssignExpr& a) {
    const Type lt = CheckExpr(*a.lhs);
    const Type rt = CheckExpr(*a.rhs);
    if (lt == kErrorType || rt == kErrorType) {
      a.type = kErrorType;
      return a.type;
    }
    CheckLValue(*a.lhs, "assign to");
    if (lt.IsArray()) {
      Error(a.loc, "arrays cannot be assigned in GLSL ES 1.00");
      a.type = kErrorType;
      return a.type;
    }
    if (a.op == AssignOp::kAssign) {
      if (!(lt == rt)) {
        Error(a.loc, StrFormat("cannot assign %s to %s (GLSL ES has no "
                               "implicit conversions)",
                               rt.ToString().c_str(), lt.ToString().c_str()));
        a.type = kErrorType;
        return a.type;
      }
      a.type = lt;
      return a.type;
    }
    const BinOp op = a.op == AssignOp::kAdd   ? BinOp::kAdd
                     : a.op == AssignOp::kSub ? BinOp::kSub
                     : a.op == AssignOp::kMul ? BinOp::kMul
                                              : BinOp::kDiv;
    const Type result = ArithmeticResult(op, lt, rt, a.loc);
    if (result == kErrorType) {
      a.type = kErrorType;
      return a.type;
    }
    if (!(result == lt)) {
      Error(a.loc, "compound assignment result type does not match the "
                   "l-value type");
      a.type = kErrorType;
      return a.type;
    }
    a.type = lt;
    return a.type;
  }

  Type CheckIndex(IndexExpr& ix) {
    const Type bt = CheckExpr(*ix.base);
    const Type it = CheckExpr(*ix.index);
    if (bt == kErrorType || it == kErrorType) {
      ix.type = kErrorType;
      return ix.type;
    }
    if (!(it == MakeType(BaseType::kInt))) {
      Error(ix.index->loc, "index must be an int");
      ix.type = kErrorType;
      return ix.type;
    }
    int limit = 0;
    Type result = kErrorType;
    if (bt.IsArray()) {
      limit = bt.array_size;
      result = bt.ElementType();
    } else if (IsMatrix(bt.base)) {
      limit = ColumnCount(bt.base);
      result = MakeType(ColumnTypeOf(bt.base));
    } else if (IsVector(bt.base)) {
      limit = ComponentCount(bt.base);
      result = MakeType(ScalarOf(bt.base));
    } else {
      Error(ix.loc, StrFormat("type %s cannot be indexed",
                              bt.ToString().c_str()));
      ix.type = kErrorType;
      return ix.type;
    }
    if (ix.index->kind == ExprKind::kIntLit) {
      const auto v = static_cast<const IntLitExpr&>(*ix.index).value;
      if (v < 0 || v >= limit) {
        Error(ix.index->loc,
              StrFormat("index %d out of range [0, %d)", v, limit));
      }
    }
    ix.type = result;
    return ix.type;
  }

  Type CheckSwizzle(SwizzleExpr& sw) {
    const Type bt = CheckExpr(*sw.base);
    if (bt == kErrorType) {
      sw.type = kErrorType;
      return sw.type;
    }
    if (!IsVector(bt.base) || bt.IsArray()) {
      Error(sw.loc, StrFormat("cannot apply '.%s' to type %s (structs are "
                              "not supported; only vector swizzles exist)",
                              sw.field.c_str(), bt.ToString().c_str()));
      sw.type = kErrorType;
      return sw.type;
    }
    static constexpr const char* kSets[3] = {"xyzw", "rgba", "stpq"};
    const int len = static_cast<int>(sw.field.size());
    if (len < 1 || len > 4) {
      Error(sw.loc, "swizzles select between 1 and 4 components");
      sw.type = kErrorType;
      return sw.type;
    }
    int set = -1;
    for (int s = 0; s < 3; ++s) {
      if (std::string(kSets[s]).find(sw.field[0]) != std::string::npos) {
        set = s;
        break;
      }
    }
    const int base_size = ComponentCount(bt.base);
    for (int i = 0; i < len; ++i) {
      const char c = sw.field[static_cast<std::size_t>(i)];
      const char* setchars = set >= 0 ? kSets[set] : "";
      const char* p =
          set >= 0 ? std::strchr(setchars, c) : nullptr;
      if (p == nullptr) {
        Error(sw.loc, StrFormat("invalid swizzle '.%s' (components must come "
                                "from a single set of xyzw/rgba/stpq)",
                                sw.field.c_str()));
        sw.type = kErrorType;
        return sw.type;
      }
      const int comp = static_cast<int>(p - setchars);
      if (comp >= base_size) {
        Error(sw.loc, StrFormat("swizzle component '%c' exceeds %s", c,
                                bt.ToString().c_str()));
        sw.type = kErrorType;
        return sw.type;
      }
      sw.comps[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(comp);
    }
    sw.count = len;
    sw.type = MakeType(VectorOf(ScalarOf(bt.base), len));
    return sw.type;
  }

  void CheckLValue(Expr& e, const char* action) {
    switch (e.kind) {
      case ExprKind::kVarRef: {
        const auto& v = static_cast<const VarRefExpr&>(e);
        if (v.decl == nullptr) return;  // already an error
        switch (v.decl->qual) {
          case Qualifier::kConst:
            Error(e.loc, StrFormat("cannot %s read-only variable '%s'",
                                   action, v.name.c_str()));
            return;
          case Qualifier::kAttribute:
            Error(e.loc, StrFormat("cannot %s attribute '%s'", action,
                                   v.name.c_str()));
            return;
          case Qualifier::kUniform:
            Error(e.loc, StrFormat("cannot %s uniform '%s'", action,
                                   v.name.c_str()));
            return;
          case Qualifier::kVarying:
            if (cs_.stage == Stage::kFragment) {
              Error(e.loc, StrFormat("varyings are read-only in fragment "
                                     "shaders; cannot %s '%s'",
                                     action, v.name.c_str()));
            }
            return;
          default:
            if (v.decl->is_param && v.decl->qual == Qualifier::kConst) {
              Error(e.loc, "cannot write to a const parameter");
            }
            return;
        }
      }
      case ExprKind::kSwizzle: {
        auto& sw = static_cast<SwizzleExpr&>(e);
        for (int i = 0; i < sw.count; ++i) {
          for (int j = i + 1; j < sw.count; ++j) {
            if (sw.comps[static_cast<std::size_t>(i)] ==
                sw.comps[static_cast<std::size_t>(j)]) {
              Error(e.loc, "swizzle used as l-value may not repeat "
                           "components");
              return;
            }
          }
        }
        CheckLValue(*sw.base, action);
        return;
      }
      case ExprKind::kIndex:
        CheckLValue(*static_cast<IndexExpr&>(e).base, action);
        return;
      default:
        Error(e.loc, StrFormat("expression is not assignable (cannot %s it)",
                               action));
        return;
    }
  }

  CompiledShader& cs_;
  DiagSink& diags_;
  std::vector<std::unordered_map<std::string, VarDecl*>> scopes_;
  std::unordered_map<std::string, std::vector<FunctionDecl*>> functions_;
  FunctionDecl* current_fn_ = nullptr;
  int loop_depth_ = 0;
  int next_frame_slot_ = 0;
  std::map<BaseType, Precision> default_prec_;
  // By function (nullptr: the global initializers), in source order: the
  // calls (one entry per call site) and the number of checked nodes.
  std::map<const FunctionDecl*, std::vector<const FunctionDecl*>> callgraph_;
  std::map<const FunctionDecl*, std::uint64_t> nodes_;
  std::map<const FunctionDecl*, CallCost> cost_;
  std::set<const FunctionDecl*> visiting_;
  bool recursive_ = false;
};

}  // namespace

std::unique_ptr<CompiledShader> Analyze(std::unique_ptr<TranslationUnit> tu,
                                        Stage stage, const Limits& limits,
                                        DiagSink& diags) {
  auto cs = std::make_unique<CompiledShader>();
  cs->stage = stage;
  cs->limits = limits;
  cs->tu = std::move(tu);
  Sema(*cs, diags).Run();
  return cs;
}

}  // namespace mgpu::glsl
