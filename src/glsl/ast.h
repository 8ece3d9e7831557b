// Abstract syntax tree for GLSL ES 1.00. Nodes carry annotation fields
// (types, resolved slots, builtin ids) that the semantic analyzer fills in;
// the interpreter reads only annotated trees.
#ifndef MGPU_GLSL_AST_H_
#define MGPU_GLSL_AST_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "glsl/diag.h"
#include "glsl/type.h"

namespace mgpu::glsl {

struct VarDecl;
struct FunctionDecl;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : unsigned char {
  kIntLit,
  kFloatLit,
  kBoolLit,
  kVarRef,
  kCall,      // user function or builtin
  kCtor,      // type constructor: vec4(...), float(...), mat3(...)
  kBinary,
  kUnary,
  kAssign,
  kTernary,
  kIndex,
  kSwizzle,   // field access on vectors (.xyz / .rgb / .stp)
  kComma,
};

struct Expr {
  ExprKind kind;
  SrcLoc loc;
  Type type;  // filled by sema

  virtual ~Expr() = default;

 protected:
  Expr(ExprKind k, SrcLoc l) : kind(k), loc(l) {}
};

using ExprPtr = std::unique_ptr<Expr>;

struct IntLitExpr final : Expr {
  IntLitExpr(SrcLoc l, std::int32_t v) : Expr(ExprKind::kIntLit, l), value(v) {}
  std::int32_t value;
};

struct FloatLitExpr final : Expr {
  FloatLitExpr(SrcLoc l, float v) : Expr(ExprKind::kFloatLit, l), value(v) {}
  float value;
};

struct BoolLitExpr final : Expr {
  BoolLitExpr(SrcLoc l, bool v) : Expr(ExprKind::kBoolLit, l), value(v) {}
  bool value;
};

enum class VarScope : unsigned char { kUnresolved, kGlobal, kLocal };

struct VarRefExpr final : Expr {
  VarRefExpr(SrcLoc l, std::string n)
      : Expr(ExprKind::kVarRef, l), name(std::move(n)) {}
  std::string name;
  // Annotations.
  VarScope scope = VarScope::kUnresolved;
  int slot = -1;
  const VarDecl* decl = nullptr;
};

struct CallExpr final : Expr {
  CallExpr(SrcLoc l, std::string callee_name)
      : Expr(ExprKind::kCall, l), callee(std::move(callee_name)) {}
  std::string callee;
  std::vector<ExprPtr> args;
  // Annotations: exactly one of these is set after sema.
  const FunctionDecl* fn = nullptr;
  int builtin = -1;  // index into the builtin table
};

struct CtorExpr final : Expr {
  CtorExpr(SrcLoc l, Type t) : Expr(ExprKind::kCtor, l), ctor_type(t) {}
  Type ctor_type;
  std::vector<ExprPtr> args;
};

enum class BinOp : unsigned char {
  kAdd, kSub, kMul, kDiv,
  kLt, kGt, kLe, kGe, kEq, kNe,
  kLogicalAnd, kLogicalOr, kLogicalXor,
};

struct BinaryExpr final : Expr {
  BinaryExpr(SrcLoc l, BinOp o, ExprPtr a, ExprPtr b)
      : Expr(ExprKind::kBinary, l), op(o), lhs(std::move(a)),
        rhs(std::move(b)) {}
  BinOp op;
  ExprPtr lhs, rhs;
};

enum class UnOp : unsigned char {
  kNeg, kPlus, kNot, kPreInc, kPreDec, kPostInc, kPostDec,
};

struct UnaryExpr final : Expr {
  UnaryExpr(SrcLoc l, UnOp o, ExprPtr e)
      : Expr(ExprKind::kUnary, l), op(o), operand(std::move(e)) {}
  UnOp op;
  ExprPtr operand;
};

enum class AssignOp : unsigned char { kAssign, kAdd, kSub, kMul, kDiv };

struct AssignExpr final : Expr {
  AssignExpr(SrcLoc l, AssignOp o, ExprPtr a, ExprPtr b)
      : Expr(ExprKind::kAssign, l), op(o), lhs(std::move(a)),
        rhs(std::move(b)) {}
  AssignOp op;
  ExprPtr lhs, rhs;
};

struct TernaryExpr final : Expr {
  TernaryExpr(SrcLoc l, ExprPtr c, ExprPtr t, ExprPtr f)
      : Expr(ExprKind::kTernary, l), cond(std::move(c)),
        then_expr(std::move(t)), else_expr(std::move(f)) {}
  ExprPtr cond, then_expr, else_expr;
};

struct IndexExpr final : Expr {
  IndexExpr(SrcLoc l, ExprPtr b, ExprPtr i)
      : Expr(ExprKind::kIndex, l), base(std::move(b)), index(std::move(i)) {}
  ExprPtr base, index;
};

struct SwizzleExpr final : Expr {
  SwizzleExpr(SrcLoc l, ExprPtr b, std::string f)
      : Expr(ExprKind::kSwizzle, l), base(std::move(b)), field(std::move(f)) {}
  ExprPtr base;
  std::string field;
  // Annotations.
  std::array<std::uint8_t, 4> comps{};
  int count = 0;
};

struct CommaExpr final : Expr {
  CommaExpr(SrcLoc l, ExprPtr a, ExprPtr b)
      : Expr(ExprKind::kComma, l), lhs(std::move(a)), rhs(std::move(b)) {}
  ExprPtr lhs, rhs;
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

enum class Qualifier : unsigned char {
  kNone, kConst, kAttribute, kUniform, kVarying,
};

enum class ParamDir : unsigned char { kIn, kOut, kInOut };

struct VarDecl {
  SrcLoc loc;
  std::string name;
  Type type;
  Qualifier qual = Qualifier::kNone;
  Precision precision = Precision::kNone;
  bool invariant = false;
  ExprPtr init;  // may be null
  // Parameter-only fields.
  bool is_param = false;
  ParamDir dir = ParamDir::kIn;
  // Annotations.
  int slot = -1;
  bool is_builtin = false;  // gl_* variable synthesized by sema
  // Global only: some expression of the shader names it (static use),
  // whether or not the function holding that expression is ever called.
  bool referenced = false;
};

struct BlockStmt;

struct FunctionDecl {
  SrcLoc loc;
  std::string name;
  Type return_type;
  Precision return_precision = Precision::kNone;
  std::vector<std::unique_ptr<VarDecl>> params;
  std::unique_ptr<BlockStmt> body;  // null for prototypes
  // Annotations.
  int frame_size = 0;  // local slots (params first)
};

struct PrecisionDecl {
  SrcLoc loc;
  Precision precision = Precision::kNone;
  BaseType base = BaseType::kVoid;  // float, int or sampler types
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : unsigned char {
  kExpr, kDecl, kIf, kFor, kWhile, kDoWhile,
  kReturn, kBreak, kContinue, kDiscard, kBlock,
};

struct Stmt {
  StmtKind kind;
  SrcLoc loc;
  virtual ~Stmt() = default;

 protected:
  Stmt(StmtKind k, SrcLoc l) : kind(k), loc(l) {}
};

using StmtPtr = std::unique_ptr<Stmt>;

struct ExprStmt final : Stmt {
  ExprStmt(SrcLoc l, ExprPtr e)
      : Stmt(StmtKind::kExpr, l), expr(std::move(e)) {}
  ExprPtr expr;  // null for the empty statement ';'
};

struct DeclStmt final : Stmt {
  explicit DeclStmt(SrcLoc l) : Stmt(StmtKind::kDecl, l) {}
  std::vector<std::unique_ptr<VarDecl>> decls;
};

struct IfStmt final : Stmt {
  IfStmt(SrcLoc l, ExprPtr c, StmtPtr t, StmtPtr e)
      : Stmt(StmtKind::kIf, l), cond(std::move(c)), then_stmt(std::move(t)),
        else_stmt(std::move(e)) {}
  ExprPtr cond;
  StmtPtr then_stmt;
  StmtPtr else_stmt;  // may be null
};

struct ForStmt final : Stmt {
  explicit ForStmt(SrcLoc l) : Stmt(StmtKind::kFor, l) {}
  StmtPtr init;   // DeclStmt or ExprStmt; may be null
  ExprPtr cond;   // may be null (treated as true)
  ExprPtr step;   // may be null
  StmtPtr body;
};

struct WhileStmt final : Stmt {
  WhileStmt(SrcLoc l, ExprPtr c, StmtPtr b)
      : Stmt(StmtKind::kWhile, l), cond(std::move(c)), body(std::move(b)) {}
  ExprPtr cond;
  StmtPtr body;
};

struct DoWhileStmt final : Stmt {
  DoWhileStmt(SrcLoc l, StmtPtr b, ExprPtr c)
      : Stmt(StmtKind::kDoWhile, l), body(std::move(b)), cond(std::move(c)) {}
  StmtPtr body;
  ExprPtr cond;
};

struct ReturnStmt final : Stmt {
  ReturnStmt(SrcLoc l, ExprPtr v)
      : Stmt(StmtKind::kReturn, l), value(std::move(v)) {}
  ExprPtr value;  // may be null
};

struct BreakStmt final : Stmt {
  explicit BreakStmt(SrcLoc l) : Stmt(StmtKind::kBreak, l) {}
};

struct ContinueStmt final : Stmt {
  explicit ContinueStmt(SrcLoc l) : Stmt(StmtKind::kContinue, l) {}
};

struct DiscardStmt final : Stmt {
  explicit DiscardStmt(SrcLoc l) : Stmt(StmtKind::kDiscard, l) {}
};

struct BlockStmt final : Stmt {
  explicit BlockStmt(SrcLoc l) : Stmt(StmtKind::kBlock, l) {}
  std::vector<StmtPtr> stmts;
};

// ---------------------------------------------------------------------------
// Translation unit
// ---------------------------------------------------------------------------

struct TranslationUnit {
  std::vector<std::unique_ptr<VarDecl>> globals;
  std::vector<std::unique_ptr<FunctionDecl>> functions;
  std::vector<PrecisionDecl> default_precisions;
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_AST_H_
