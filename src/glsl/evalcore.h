// Evaluation core shared by the two shader execution engines: the
// tree-walking ShaderExec (reference oracle) and the bytecode VmExec (the
// default fast path). Every operation that touches the AluModel — arithmetic,
// constructors, unary ops, increment/decrement — lives here exactly once, so
// the engines are byte-identical in results AND in ALU/SFU/TMU op counts by
// construction.
#ifndef MGPU_GLSL_EVALCORE_H_
#define MGPU_GLSL_EVALCORE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>

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

// Width of the batched VM's lane planes: RunBatch executes up to this many
// invocations through one instruction stream (paper §II: a QPU shades a
// pixel group through one program). Must fit a std::uint32_t lane mask.
// The vertex stage and the raster pipeline both fill whole kVmLanes
// batches (gles2::kFragBatchWidth == kVmLanes). The modeled VC4 time is
// built from op counts, so this host batch width never enters it.
inline constexpr int kVmLanes = 32;

// L-value reference: maps result components onto cells of a storage block
// whose cell k sits at cells[k * stride] — stride 1 for a Value's cells,
// kVmLanes for one lane of a batched VM plane. A negative n (-cell_count)
// marks a whole array too large for the index map; reads/writes then cover
// the head cells directly.
struct LRef {
  Cell* cells = nullptr;
  int stride = 1;
  Type type;
  std::array<std::uint16_t, 16> idx{};
  int n = 0;

  // Number of result components.
  [[nodiscard]] int size() const { return n < 0 ? -n : n; }
  // Storage cell of result component k.
  [[nodiscard]] Cell& cell(int k) const {
    return cells[(n < 0 ? k : idx[static_cast<std::size_t>(k)]) * stride];
  }
};

// Whole-variable reference.
[[nodiscard]] LRef RefWhole(Cell* cells, int stride, const Type& t);
[[nodiscard]] inline LRef RefWhole(Value& storage, const Type& t) {
  return RefWhole(storage.data(), 1, t);
}

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
// Lane-batched kernels over component planes
// ---------------------------------------------------------------------------
//
// The batched VM executes a whole fragment batch through one instruction
// stream; these kernels run one operation for every lane in a mask with
// operand, shape and op dispatch done once per instruction. They are plain
// loops over components and lanes: op counts are charged once as
// popcount(mask) x cells (integer sums, so order-free) and rounding is the
// model's inline RoundSpec. Per lane, each kernel reads and writes cells in
// the order the scalar Eval*Into above does and rounds every intermediate
// the same way, so results and ALU/SFU counts are byte-identical to
// per-lane scalar execution (locked down by tests/glsl_vm_test.cc and the
// seeded differential fuzz harness, tests/glsl_vm_fuzz_test.cc).

// Component-plane operand view: component c of lane l sits at
// base[c * comp_stride + l * lane_stride]. The batched VM's lane planes use
// (kVmLanes, 1); storage shared by every lane (constants, uniforms, a
// scalar engine's Value) uses (1, 0). `type` is the operand's static type,
// the same for every lane.
template <typename C>
struct PlaneView {
  C* base = nullptr;
  int comp_stride = 1;
  int lane_stride = 0;
  Type type;

  [[nodiscard]] C& at(int comp, int lane) const {
    return base[comp * comp_stride + lane * lane_stride];
  }
  [[nodiscard]] int count() const { return type.CellCount(); }
  [[nodiscard]] BaseType scalar() const { return ScalarOf(type.base); }
  // A writable view reads as a source view.
  operator PlaneView<const Cell>() const requires(!std::is_const_v<C>) {
    return {base, comp_stride, lane_stride, type};
  }
};
using PlaneSrc = PlaneView<const Cell>;
using PlaneDst = PlaneView<Cell>;

// One-lane views of a scalar engine's Value.
[[nodiscard]] inline PlaneSrc ValuePlane(const Value& v) {
  return {v.data(), 1, 0, v.type()};
}
[[nodiscard]] inline PlaneDst ValuePlane(Value& v) {
  return {v.data(), 1, 0, v.type()};
}

// Calls f(lane) for each set bit of `mask`, ascending. A mask of lanes
// [0, n) — every lockstep batch — runs as a plain counted loop.
template <typename F>
void ForEachLane(std::uint32_t mask, F&& f) {
  if ((mask & (mask + 1u)) == 0) {
    const int n = std::popcount(mask);
    for (int l = 0; l < n; ++l) f(l);
    return;
  }
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    f(std::countr_zero(m));
  }
}

// Calls f(comp, lane) for components [0, n) outer and the mask's lanes
// inner: every lane sees its components in scalar order, which keeps
// in-place compound ops (dst == lhs) exact.
template <typename F>
void ForEachCell(int n, std::uint32_t mask, F&& f) {
  for (int c = 0; c < n; ++c) {
    ForEachLane(mask, [&](int l) { f(c, l); });
  }
}

// Copies source component `sc` into destination component `dc` for the
// mask's lanes. A lane range [0, k) into a lane-plane destination moves the
// component as one block (or fills it, from storage shared by every lane).
inline void CopyLanes(const PlaneDst& d, int dc, const PlaneSrc& s, int sc,
                      std::uint32_t mask) {
  if ((mask & (mask + 1u)) == 0 && d.lane_stride == 1) {
    const int lanes = std::popcount(mask);
    Cell* o = &d.at(dc, 0);
    const Cell* a = &s.at(sc, 0);
    if (s.lane_stride != 0) {
      std::copy_n(a, lanes, o);
    } else {
      std::fill_n(o, lanes, *a);
    }
    return;
  }
  ForEachLane(mask, [&](int l) { d.at(dc, l) = s.at(sc, l); });
}

// Binary arithmetic / comparison (EvalArithInto's cases: component-wise
// arithmetic with scalar broadcast, relational and ==/!= comparisons, and
// the linear-algebra multiplies, each lane accumulating in scalar order).
void EvalArithBatch(AluModel& alu, BinOp op, const PlaneSrc& l,
                    const PlaneSrc& r, const PlaneDst& out,
                    std::uint32_t mask);

// Component-wise negation / scalar logical not.
void EvalNegBatch(AluModel& alu, const PlaneSrc& v, const PlaneDst& out,
                  std::uint32_t mask);
void EvalNotBatch(AluModel& alu, const PlaneSrc& v, const PlaneDst& out,
                  std::uint32_t mask);

// Type constructor (EvalCtorInto's scalar, vector and matrix cases). Every
// destination cell is written — cells no argument covers get the
// fresh-value zero — so the result never depends on stale register bytes.
void EvalCtorBatch(AluModel& alu, std::span<const PlaneSrc> args,
                   const PlaneDst& out, std::uint32_t mask);

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_EVALCORE_H_
