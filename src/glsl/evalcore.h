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
#include <utility>

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
  // batch a one-lane sequence would have trapped on — and -1 for the tree
  // walker (the caller knows which invocation it was running).
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
// the same way, so results and ALU/SFU counts are byte-identical to the
// tree walker's scalar execution (locked down by tests/glsl_vm_test.cc and
// the seeded differential fuzz harness, tests/glsl_vm_fuzz_test.cc).

// Component-plane operand view: component c of lane l sits at
// base[c * comp_stride + l * lane_stride]. The batched VM's lane planes use
// (kVmLanes, 1); storage shared by every lane (constants, uniforms, the
// tree walker's Values) uses (1, 0). `type` is the operand's static type,
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

// One-lane views of a Value (the tree walker's globals, constants, uniforms).
[[nodiscard]] inline PlaneSrc ValuePlane(const Value& v) {
  return {v.data(), 1, 0, v.type()};
}
[[nodiscard]] inline PlaneDst ValuePlane(Value& v) {
  return {v.data(), 1, 0, v.type()};
}

// Number of lanes in `mask`. A mask of lanes [0, n) — every converged
// batch — counts with one bit scan: std::popcount is a library call on
// baseline x86-64, paid once or more per instruction.
[[nodiscard]] inline int LaneCount(std::uint32_t mask) {
  return (mask & (mask + 1u)) == 0 ? std::countr_one(mask)
                                   : std::popcount(mask);
}

// The lane-loop helpers below are always inlined: each is a loop or two,
// and the VM's one opcode switch is too large for the compiler to inline
// them into it on its own.

// Calls f(lane) for each set bit of `mask`, ascending. A mask of lanes
// [0, n) — every converged batch — runs as a plain counted loop.
template <typename F>
[[gnu::always_inline]] inline void ForEachLane(std::uint32_t mask, F&& f) {
  if ((mask & (mask + 1u)) == 0) {
    const int n = std::countr_one(mask);
    for (int l = 0; l < n; ++l) f(l);
    return;
  }
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    f(std::countr_zero(m));
  }
}

// The masked loop shape of every plane kernel: a kernel computes lanes
// [0, top) of a component into a row — top is the highest lane of the
// mask plus one, so a one-lane run has top == 1 — and commits the row
// under the mask. Lanes inside [0, top) but outside the mask compute on
// whatever their cells hold, which is why every op a kernel maps is total
// (the float formulas, and the integer helpers of alu.h); their results
// are never stored. One shape serves dense, sparse and one-lane masks
// alike, with plain unit-stride loops the compiler vectorizes.
using LaneRow = std::array<Cell, kVmLanes>;

// Highest lane of `mask` (non-zero) plus one.
[[nodiscard]] inline int TopLane(std::uint32_t mask) {
  return kVmLanes - std::countl_zero(mask);
}

// Lanes [0, top) of component `comp` of `v` as a unit-stride row: the
// plane itself, or `buf` filled with the value shared by every lane.
[[gnu::always_inline]] inline const Cell* RowOf(const PlaneSrc& v, int comp,
                                                int top, LaneRow& buf) {
  const Cell* p = &v.at(comp, 0);
  if (v.lane_stride != 0) return p;
  const std::int32_t bits = p->i;
  for (int l = 0; l < top; ++l) buf[static_cast<std::size_t>(l)].i = bits;
  return buf.data();
}

// Bit l of the lane mask, as data the commit loop can vectorize over.
inline constexpr std::array<std::uint32_t, kVmLanes> kLaneBit = [] {
  std::array<std::uint32_t, kVmLanes> bits{};
  for (int l = 0; l < kVmLanes; ++l) bits[l] = 1u << l;
  return bits;
}();

// Stores cell(l) for lanes l in [0, top) into component `comp` of `d`
// where `mask` is set: every lane below top is computed and the store is
// a bit select, so the loop is one straight vector loop for any mask. A
// destination shared by every lane (lane_stride 0) takes the top lane's
// value — the last store of a lane-ascending sequence — in the one store
// a one-lane mask (top == 1) also reduces to. cell(l) may read
// the destination component itself at lane l (in-place ops), but no
// other lane of it: component planes either coincide or are disjoint.
template <typename CellFn>
[[gnu::always_inline]] inline void CommitLanes(const PlaneDst& d, int comp,
                                               std::uint32_t mask, int top,
                                               CellFn cell) {
  Cell* o = &d.at(comp, 0);
  if (top == 1 || d.lane_stride == 0) {
    *o = cell(top - 1);
    return;
  }
  // A mask of lanes [0, top) — every converged step — stores whole rows.
  // The pragma tells the compiler what it cannot prove on its own, that
  // cell(l) reads no other lane of o, so the loop vectorizes.
  const bool dense = (mask & (mask + 1u)) == 0;
#if defined(__clang__)
#pragma clang loop vectorize(assume_safety)
#elif defined(__GNUC__)
#pragma GCC ivdep
#endif
  for (int l = 0; l < top; ++l) {
    const std::int32_t v = cell(l).i;
    const std::int32_t keep =
        (mask & kLaneBit[static_cast<std::size_t>(l)]) != 0 ? -1 : 0;
    o[l].i = dense ? v : (v & keep) | (o[l].i & ~keep);
  }
}

// CommitLanes of a row of cells.
[[gnu::always_inline]] inline void CommitRow(const PlaneDst& d, int comp,
                                             const Cell* row,
                                             std::uint32_t mask, int top) {
  CommitLanes(d, comp, mask, top, [row](int l) { return row[l]; });
}

// Copies source component `sc` into destination component `dc` for the
// mask's lanes.
[[gnu::always_inline]] inline void CopyLanes(const PlaneDst& d, int dc,
                                             const PlaneSrc& s, int sc,
                                             std::uint32_t mask) {
  const int top = TopLane(mask);
  if (top == 1) {
    d.at(dc, 0) = s.at(sc, 0);
    return;
  }
  LaneRow buf;
  CommitRow(d, dc, RowOf(s, sc, top, buf), mask, top);
}

// An operand of MapLanes: a component-plane view and its component step
// (0 broadcasts component 0 against a wider result).
struct LaneOperand {
  const PlaneSrc& v;
  int step = 1;
};

// MapLanes' loop over rows of top > 1 lanes. Kept out of line, so a
// one-lane caller does not pay for the row loops' frame and set-up.
template <typename Fn, typename... Ops>
[[gnu::noinline]] void MapRows(const PlaneDst& out, int n, std::uint32_t mask,
                               int top, Fn fn, Ops... ops) {
  std::array<LaneRow, sizeof...(Ops)> bufs;
  std::array<const Cell*, sizeof...(Ops)> rows{};
  for (int c = 0; c < n; ++c) {
    // A broadcast operand's row is the same for every component.
    std::size_t k = 0;
    const auto load = [&](const LaneOperand& op) {
      if (c == 0 || op.step != 0) {
        rows[k] = RowOf(op.v, c * op.step, top, bufs[k]);
      }
      ++k;
    };
    (load(ops), ...);
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      CommitLanes(out, c, mask, top,
                  [&](int l) { return fn(rows[I][l]...); });
    }(std::index_sequence_for<Ops...>{});
  }
}

// out(c) = fn(a(c * a.step), b(c * b.step), ...) for components c in
// [0, n) of the mask's lanes, in the masked loop shape: each component is
// computed and committed before the next one is read, the order the scalar
// evaluation writes components in (which keeps in-place ops, dst == a,
// exact). `fn` maps cells to a cell. A one-lane mask (top == 1) has rows
// of one cell, so it reads and stores lane 0 directly.
template <typename Fn, typename... Ops>
[[gnu::always_inline]] inline void MapLanes(const PlaneDst& out, int n,
                                            std::uint32_t mask, Fn fn,
                                            Ops... ops) {
  const int top = TopLane(mask);
  if (top > 1) return MapRows(out, n, mask, top, fn, ops...);
  for (int c = 0; c < n; ++c) {
    out.at(c, 0) = fn(ops.v.at(c * ops.step, 0)...);
  }
}

// Calls body(round) with a rounding functor equivalent to `spec`, chosen
// once per instruction: the identity, the denormal flush alone, or the
// full spec. The hot loops then carry only the work their spec needs.
template <typename Body>
[[gnu::always_inline]] inline void WithRounding(const RoundSpec& spec,
                                                Body&& body) {
  if (spec.identity()) {
    body([](float x) { return x; });
  } else if (spec.flush_only()) {
    body([](float x) { return RoundSpec::FlushDenormal(x); });
  } else {
    body(spec);
  }
}

// Cell constructors for the lambdas MapLanes runs.
[[nodiscard]] inline Cell FCell(float f) {
  Cell c;
  c.f = f;
  return c;
}
[[nodiscard]] inline Cell ICell(std::int32_t i) {
  Cell c;
  c.i = i;
  return c;
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
