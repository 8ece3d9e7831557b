// Linear, register-based bytecode IR for analyzed GLSL ES 1.00 shaders.
//
// The lowering pass (lower.cc) translates a CompiledShader's annotated AST
// into a flat VmInst stream once per program link; the VM (vm.h) then
// executes that stream once per fragment/vertex with a tight dispatch loop —
// no recursion, no per-invocation allocation, no scoped frames.
//
// Design notes:
//  - Values live in a flat register file typed at lowering time. Every
//    VarDecl (local or parameter) owns a dedicated register; expression
//    temporaries get fresh registers. Since GLSL ES 1.00 statically rejects
//    recursion (sema), each function's frame is allocated exactly once and
//    calls are a jump plus argument copies — no dynamic frames.
//  - Structured control flow (if/for/while/ternary/&&/||) is lowered to
//    conditional branches; `discard` and the loop-iteration guard are
//    dedicated ops.
//  - All float arithmetic routes through the same AluModel entry points as
//    the tree-walking interpreter (evalcore.h), so vc4 op accounting and
//    precision profiles are engine-independent by construction.
#ifndef MGPU_GLSL_IR_H_
#define MGPU_GLSL_IR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "glsl/evalcore.h"
#include "glsl/shader.h"
#include "glsl/type.h"
#include "glsl/value.h"

namespace mgpu::glsl {

// Operands address one of three value spaces through a 2-bit tag:
// registers (temporaries, locals, parameters), shader globals (uniforms,
// attributes, varyings, gl_*), and the constant pool.
inline constexpr std::uint32_t kOperandIndexMask = 0x3fffffffu;
inline constexpr std::uint32_t kSpaceReg = 0u << 30;
inline constexpr std::uint32_t kSpaceGlobal = 1u << 30;
inline constexpr std::uint32_t kSpaceConst = 2u << 30;
inline constexpr std::uint32_t kOperandNone = 0xffffffffu;

enum class VmOp : std::uint8_t {
  // Data movement.
  kCopy,        // *dst = a (cell copy; both sides share a type)
  kZero,        // *dst = zero of its type
  kShuffle,     // *dst = static component gather of a (comps in aux, n cells)
  kExtract,     // *dst = a[clamp(b)] (elem_cells in n, limit in aux)
  // Arithmetic (shared semantics with the interpreter via evalcore).
  kArith,       // *dst = BinOp(u8)(a, b)
  kNeg,         // *dst = -a
  kNot,         // *dst = !a (scalar bool)
  kXor,         // *dst = a.bool != b.bool (GLSL ^^; both sides evaluated)
  kBoolNorm,    // *dst = bool(a != 0) — short-circuit &&/|| results
  kCtor,        // *dst = Type(args); args in arg_ops[aux .. aux+n)
  kBuiltin,     // *dst = Builtin(u8)(args); args in arg_ops[aux .. aux+n)
  // Control flow.
  kJump,        // pc = aux
  kJumpIfFalse, // if (!a.bool) pc = aux
  kJumpIfTrue,  // if (a.bool) pc = aux
  kLoopGuard,   // count an iteration against the runaway-loop budget
  kCall,        // push pc; pc = functions[aux].entry
  kRet,         // pop pc (empty stack: main returned -> halt)
  kDiscard,     // fragment killed: its lane leaves RunBatch's kept mask
  kHalt,        // normal end of chunk
  kTrap,        // throw ShaderRuntimeError(messages[aux])
  // L-value references (dynamic indexing / swizzled stores).
  kRefVar,      // refs[dst] = whole variable a (type in `type`)
  kRefIndex,    // refs[dst] = refs[a][clamp(b)] (elem_cells n, limit aux)
  kRefSwizzle,  // refs[dst] = swizzle of refs[a] (comps aux, count n)
  kReadRef,     // *dst = read refs[a]
  kWriteRef,    // write refs[dst] = a
  kIncDec,      // *dst = ++/--refs[a] (u8 bit0: increment, bit1: postfix)
  kIncDecVar,   // *dst = ++/--(*a) — whole-variable fast path, same counts
};

struct VmInst {
  VmOp op = VmOp::kHalt;
  std::uint8_t u8 = 0;    // BinOp / Builtin id / inc-dec flags
  std::uint16_t n = 0;    // arg count / component count / element cells
  std::uint32_t dst = kOperandNone;  // destination operand or ref slot
  std::uint32_t a = kOperandNone;
  std::uint32_t b = kOperandNone;
  std::uint32_t aux = 0;  // jump target / arg-table start / limit / comps
  Type type;              // result/element type where the op needs one
};

[[nodiscard]] inline VmInst MakeInst(VmOp op) {
  VmInst i;
  i.op = op;
  return i;
}

struct VmFunction {
  std::uint32_t entry = 0;             // pc of the first instruction
  std::uint32_t ret_reg = kOperandNone;  // register holding the return value
};

// A global of the shader, mirrored into the VM so a VmExec is
// self-contained (slot-ordered, identical slots to the interpreter).
struct VmGlobal {
  std::string name;
  Type type;
};

struct VmProgram {
  Stage stage = Stage::kFragment;
  std::vector<VmInst> code;
  // Chunk executed once at VmExec construction: all global initializers
  // (const + plain), mirroring ShaderExec::InitGlobals.
  std::uint32_t const_init_entry = 0;
  // Chunk executed per RunBatch: plain-global re-initialization, then a call
  // into main, mirroring ShaderExec::Run.
  std::uint32_t run_entry = 0;
  std::vector<VmFunction> functions;
  std::vector<Type> reg_types;       // register file layout
  std::vector<Value> consts;         // literal pool
  std::vector<std::uint32_t> arg_ops;  // flattened ctor/builtin operand lists
  std::vector<std::string> messages;   // trap texts
  std::uint32_t ref_slot_count = 0;
  std::vector<VmGlobal> globals;

  // Per-lane storage map (filled at lowering time by AnalyzeLaneBatching in
  // lower.cc): nonzero for a global that needs one storage plane per lane
  // when the program runs batched — per-fragment inputs (varyings,
  // gl_FragCoord, gl_FrontFacing, gl_PointCoord) plus every global the run
  // chunk or user code writes (outputs, re-initialized plain globals,
  // address-taken globals). All other globals (uniforms, const tables) stay
  // shared across lanes, so per-draw uniform sync cost is independent of
  // the lane width.
  std::vector<std::uint8_t> lane_global;

  // The run chunk's static call depth exceeds the 64-frame budget. The
  // lowerer then keeps every call as kCall, and a run that reaches the
  // deepest chain traps at its 65th nested call.
  bool deep_calls = false;

  // True when a run can raise a runtime trap: a loop guard (the
  // runaway-loop budget, also the injection point for the kVmInstruction
  // fault site), a lowered kTrap (call to a declared-but-undefined
  // function) or a call chain past the frame budget (deep_calls). A kCall
  // alone does not count — every run chunk calls main — since a program
  // whose calls fit the budget cannot overflow it. Drawing code uses this
  // to skip per-pixel undo journaling for programs that cannot abort
  // mid-draw (see Context::DrawGeneric).
  [[nodiscard]] bool CanTrap() const {
    if (deep_calls) return true;
    for (const VmInst& in : code) {
      if (in.op == VmOp::kLoopGuard || in.op == VmOp::kTrap) return true;
    }
    return false;
  }

  [[nodiscard]] int GlobalSlot(const std::string& name) const {
    for (std::size_t i = 0; i < globals.size(); ++i) {
      if (globals[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
};

// Lowers an analyzed shader to bytecode. Total for any sema-valid shader;
// constructs that only fail at runtime in the interpreter (e.g. calling an
// undefined prototype) lower to kTrap so behaviour matches when executed.
[[nodiscard]] std::shared_ptr<const VmProgram> LowerToBytecode(
    const CompiledShader& cs);

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_IR_H_
