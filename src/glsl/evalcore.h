// Evaluation core shared by the two shader execution engines: the
// tree-walking ShaderExec (reference oracle) and the bytecode VmExec (the
// default fast path). Every operation that touches the AluModel — arithmetic,
// constructors, unary ops, increment/decrement — lives here exactly once, so
// the engines are byte-identical in results AND in ALU/SFU/TMU op counts by
// construction.
#ifndef MGPU_GLSL_EVALCORE_H_
#define MGPU_GLSL_EVALCORE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "glsl/alu.h"
#include "glsl/ast.h"
#include "glsl/value.h"

namespace mgpu::glsl {

// Default loop-iteration budget of every engine (ShaderExec, VmExec and its
// batched executors): the point at which a runaway shader is declared hung.
// Engines expose SetLoopBudget so tests can trip the trap path cheaply.
inline constexpr std::uint64_t kDefaultLoopBudget = 100'000'000;

// Thrown on conditions a real GPU would turn into hangs or undefined
// behaviour (runaway loops, call-depth overflow); the gles2 context converts
// it into a deterministic draw abort (see the README "Robustness model").
struct ShaderRuntimeError : std::runtime_error {
  explicit ShaderRuntimeError(const std::string& what, int trap_lane = -1)
      : std::runtime_error(what), lane(trap_lane) {}
  explicit ShaderRuntimeError(const char* what, int trap_lane = -1)
      : std::runtime_error(what), lane(trap_lane) {}
  // Batch lane the trap is attributed to: for the batched executors this is
  // the smallest lane index that traps — i.e. the first fragment of the
  // batch a scalar engine would have trapped on — and -1 for the scalar
  // engines (the caller knows which invocation it was running).
  int lane = -1;
};

// L-value reference: maps result components onto cells of a storage Value.
// A negative n (-cell_count) marks a whole array too large for the index
// map; reads/writes then cover the head cells directly.
struct LRef {
  Value* storage = nullptr;
  Type type;
  std::array<std::uint16_t, 16> idx{};
  int n = 0;
};

// Whole-variable reference.
[[nodiscard]] LRef RefWhole(Value& storage, const Type& t);

// Static metadata of an indexing step over a value of type `bt`:
// element count limit, cells per element, and the element type.
struct IndexStep {
  int limit = 0;
  int elem_cells = 0;
  Type elem_type;
};
[[nodiscard]] IndexStep IndexStepOf(const Type& bt);

// Indexes `base` by i with the spec's runtime clamp, using precomputed step
// metadata (the bytecode VM bakes the step into the instruction).
[[nodiscard]] LRef RefIndex(const LRef& base, const IndexStep& step, int i);

// Component-selection on `base` (comps/count from the analyzed swizzle).
[[nodiscard]] LRef RefSwizzle(const LRef& base, const Type& result_type,
                              const std::uint8_t* comps, int count);

[[nodiscard]] Value ReadRef(const LRef& r);
void WriteRef(const LRef& r, const Value& v);
// ReadRef without the zero-initialized temporary: gathers straight into
// `out` (pre-typed by the caller; the bytecode VM's registers already are).
void ReadRefInto(const LRef& r, Value& out);

// Deep equality across all components (GLSL == on vectors yields a single
// bool that is true only when all components match).
[[nodiscard]] bool EqualAll(const Value& l, const Value& r);

// Binary arithmetic / comparison. `out` must be pre-typed with the result
// type; every cell is overwritten.
void EvalArithInto(AluModel& alu, BinOp op, const Value& l, const Value& r,
                   Value& out);

// Type constructor semantics (scalar/vector/matrix conversions, diagonal
// matrices, matrix resizing). `out` is pre-typed with the constructed type.
void EvalCtorInto(AluModel& alu, std::span<const Value* const> args,
                  Value& out);

// Component-wise negation (float rounds through the ALU model).
void EvalNegInto(AluModel& alu, const Value& v, Value& out);

// Scalar logical not.
void EvalNotInto(AluModel& alu, const Value& v, Value& out);

// ++/-- on an l-value; `out` receives the expression's value (old for
// postfix, updated for prefix).
void EvalIncDecInto(AluModel& alu, const LRef& ref, bool increment, bool post,
                    Value& out);

// Whole-variable ++/-- (the VM's fast path for plain loop counters):
// identical arithmetic and counts as EvalIncDecInto, minus the LRef and
// Value round trips.
void EvalIncDecVar(AluModel& alu, Value& var, bool increment, bool post,
                   Value& out);

// R-value dynamic indexing with the runtime clamp: out = base[i].
void EvalExtractInto(const Value& base, const IndexStep& step, int i,
                     Value& out);

// ---------------------------------------------------------------------------
// Lane-batched (SoA) kernels
// ---------------------------------------------------------------------------
//
// The batched VM executes a whole fragment batch through one instruction
// stream; these kernels run one operation for every lane of the batch with
// operand/shape/op dispatch hoisted OUT of the lane loop — the per-lane
// generic path re-derives all of that per fragment. Each kernel performs,
// per lane and in ascending lane order, exactly the AluModel operations the
// scalar Eval*Into above would, so results and ALU/SFU op counts are
// byte-identical to per-lane execution by construction (locked down by the
// seeded differential fuzz harness, tests/glsl_vm_fuzz_test.cc).

// Strided per-lane operand view: `base` points at lane 0's Value; `stride`
// is 1 for per-lane storage planes (registers, lane-varying globals) and 0
// for storage shared by every lane (constants, uniforms). Lane types are
// identical across a plane, so shape decisions made on `base` hold for all.
struct BatchSrc {
  const Value* base = nullptr;
  int stride = 0;
  [[nodiscard]] const Value& at(int lane) const { return base[stride * lane]; }
};
struct BatchDst {
  Value* base = nullptr;
  int stride = 0;
  [[nodiscard]] Value& at(int lane) const { return base[stride * lane]; }
};

// Calls f(lane) for each set bit of `mask`, ascending — the lane iteration
// order every batch kernel (and the VM's per-lane replay) uses, so count
// accumulation order matches a fragment-sequential scalar run.
template <typename F>
void ForEachLane(std::uint32_t mask, F&& f) {
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    f(std::countr_zero(m));
  }
}

// Binary arithmetic / comparison over a lane batch. Dispatches once on
// (op, operand shapes), then runs tight per-op lane loops mirroring
// EvalArithInto case for case. Total: the linear-algebra multiplies
// (mat*mat, mat*vec, vec*mat) replay EvalArithInto per lane inside the
// loop; everything else (component-wise arithmetic with scalar broadcast,
// comparisons, vector/matrix ==/!=) runs SoA.
void EvalArithBatch(AluModel& alu, BinOp op, const BatchSrc& l,
                    const BatchSrc& r, const BatchDst& out,
                    std::uint32_t mask);

// Component-wise negation / scalar logical not over a lane batch.
void EvalNegBatch(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                  std::uint32_t mask);
void EvalNotBatch(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                  std::uint32_t mask);

// Scalar/vector constructor over a lane batch (shape analysis hoisted; the
// all-float gather — the common shader ctor — becomes a flat copy loop).
// Matrix targets are NOT handled: the lowering tag (VmInst::soa) only
// routes scalar/vector ctors here, and the VM replays matrix ctors per
// lane through EvalCtorInto. Every lane's destination is fully cleared
// first, matching the VM's fresh-value kCtor semantics.
void EvalCtorBatch(AluModel& alu, std::span<const BatchSrc> args,
                   const BatchDst& out, std::uint32_t mask);

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_EVALCORE_H_
