// Compiled shader engine: a per-link transpiler that lowers a VmProgram to
// a C++ translation unit, compiles it with the host toolchain into a shared
// object, and runs the whole uniform-control-flow batch through the
// resulting native entry point.
//
// Equivalence architecture (why this is bit-identical with zero new oracle
// code): the generated function only ever inlines operations whose batched
// semantics are a closed-form cell formula — pure moves, int arithmetic,
// comparisons, and (only under a round-identity AluModel, where Add/Sub/Mul
// are plain IEEE fp32 plus a counter) component-wise float +,-,* and
// all-float constructors. Everything else — SFU-routed ops (division,
// builtins), texture fetches, dynamic indexing, l-value refs, linear-algebra
// shapes, reduced-precision profiles — is *punted*: the generated code calls
// back into VmExec::ExecBatchOp for exactly that instruction, which replays
// the same evalcore batch kernel the interpreter would run. Inlining is
// purely opportunistic; anything punted is identical by construction, so the
// differential fuzz/trap/fault harnesses verify only the inlined subset.
// ALU op accounting accumulates in a local counter and is flushed through
// AluModel::CountAlu (order-insensitive by contract, alu.h) before every
// trap callback and exit, so counts — including counts at the moment of a
// trap — match the interpreter exactly.
//
// Availability is detected once at startup (a working C++ compiler probed
// from $CXX, c++, g++, clang++) and reported by Available(). When
// unavailable — or for divergent-control-flow programs, which
// CompileProgram declines — ExecEngine::kCompiled falls back to the batched
// interpreter, which is trivially identical.
//
// Shared objects are cached under $TMPDIR/mgpu-jit-<uid>/<fnv1a64 of the
// generated source>.so, so relinking the same shader (across processes,
// runs, and ALU profiles — the source is profile-independent) skips the
// toolchain entirely.
#ifndef MGPU_GLSL_JIT_H_
#define MGPU_GLSL_JIT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "glsl/ir.h"

namespace mgpu::glsl::jit {

// Call environment handed to the generated entry point. The layout is
// re-declared textually inside every generated translation unit (as
// MgpuJitEnv), so this struct is the ABI: plain C types only, order matters.
struct JitEnv {
  void* host;        // the VmExec, passed back through every callback
  void* const* tbl;  // operand table: cell base pointer per table slot
  int n;             // live lane count of this batch
  long vs;           // per-lane cell stride of a storage plane (Value cells)
  int ri;            // AluModel::round_identity() — gates float fast paths
  // Callbacks into the VM (host = the VmExec above). exec_op replays one
  // punted instruction through ExecBatchOp; the trap callbacks throw
  // ShaderRuntimeError (lane 0 — uniform control flow traps every lane on
  // the same step) and never return; count_alu flushes batched ALU counts.
  void (*exec_op)(void* host, int pc);
  void (*guard)(void* host);                       // kLoopGuard
  void (*depth_trap)(void* host);                  // kCall depth overflow
  void (*trap)(void* host, int msg_index);         // kTrap
  void (*count_alu)(void* host, unsigned long long ops);
};

// Generated entry point. Returns 1 when the batch ran to completion (all
// lanes kept), 0 when it hit kDiscard (all lanes killed — uniform control
// flow reaches it together); traps propagate as C++ exceptions thrown by
// the callbacks, unwinding through the generated frame.
using EntryFn = int (*)(JitEnv*);

// A loaded compiled program: the dlopen handle, its entry point, and the
// operand words (in table-slot order) the host resolves to cell pointers
// when building JitEnv::tbl. Immutable after load; shared across the
// per-worker VmExec clones of a draw.
class Module {
 public:
  Module(void* handle, EntryFn entry, std::vector<std::uint32_t> table_ops);
  ~Module();
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] EntryFn entry() const { return entry_; }
  [[nodiscard]] const std::vector<std::uint32_t>& table_ops() const {
    return table_ops_;
  }

 private:
  void* handle_;
  EntryFn entry_;
  std::vector<std::uint32_t> table_ops_;
};

// True when a working host C++ compiler was found (probed once, cached).
// Always false on non-POSIX builds.
[[nodiscard]] bool Available();

// Transpiles, compiles (or reuses the cached .so) and loads `prog`.
// Returns nullptr when compilation is unavailable, the program has
// divergent control flow (the masked interpreter handles it), or any
// toolchain step fails — callers fall back to the batched interpreter.
[[nodiscard]] std::shared_ptr<const Module> CompileProgram(
    const VmProgram& prog);

}  // namespace mgpu::glsl::jit

#endif  // MGPU_GLSL_JIT_H_
