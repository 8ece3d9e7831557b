#include "glsl/evalcore.h"

#include <bit>
#include <cmath>

namespace mgpu::glsl {

LRef RefWhole(Cell* cells, int stride, const Type& t) {
  LRef r;
  r.cells = cells;
  r.stride = stride;
  r.type = t;
  r.n = t.CellCount() > 16 ? 16 : t.CellCount();
  // Arrays larger than 16 cells are referenced whole only via index steps;
  // identity maps cover the head.
  for (int i = 0; i < r.n; ++i) {
    r.idx[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(i);
  }
  if (t.CellCount() > 16) r.n = -t.CellCount();  // whole-array marker
  return r;
}

IndexStep IndexStepOf(const Type& bt) {
  IndexStep s;
  if (bt.IsArray()) {
    s.limit = bt.array_size;
    s.elem_type = bt.ElementType();
    s.elem_cells = ComponentCount(bt.base);
  } else if (IsMatrix(bt.base)) {
    s.limit = ColumnCount(bt.base);
    s.elem_type = MakeType(ColumnTypeOf(bt.base));
    s.elem_cells = RowCount(bt.base);
  } else {
    s.limit = ComponentCount(bt.base);
    s.elem_type = MakeType(ScalarOf(bt.base));
    s.elem_cells = 1;
  }
  return s;
}

LRef RefIndex(const LRef& base, const IndexStep& step, int i) {
  if (i < 0) i = 0;
  if (i >= step.limit) i = step.limit - 1;  // runtime clamp (UB in the spec)
  LRef r;
  r.cells = base.cells;
  r.stride = base.stride;
  r.type = step.elem_type;
  r.n = step.elem_cells;
  for (int k = 0; k < step.elem_cells; ++k) {
    const int flat = i * step.elem_cells + k;
    r.idx[static_cast<std::size_t>(k)] =
        base.n < 0 ? static_cast<std::uint16_t>(flat)
                   : base.idx[static_cast<std::size_t>(flat)];
  }
  return r;
}

LRef RefSwizzle(const LRef& base, const Type& result_type,
                const std::uint8_t* comps, int count) {
  LRef r;
  r.cells = base.cells;
  r.stride = base.stride;
  r.type = result_type;
  r.n = count;
  for (int k = 0; k < count; ++k) {
    r.idx[static_cast<std::size_t>(k)] = base.idx[comps[k]];
  }
  return r;
}

Value ReadRef(const LRef& r) {
  Value v(r.type);
  Cell* dst = v.data();
  for (int i = 0; i < r.size(); ++i) dst[i] = r.cell(i);
  return v;
}

void WriteRef(const LRef& r, const Value& v) {
  const Cell* src = v.data();
  for (int i = 0; i < r.size(); ++i) r.cell(i) = src[i];
}

bool EqualAll(const Value& l, const Value& r) {
  if (l.count() != r.count()) return false;
  const bool is_float = l.scalar() == BaseType::kFloat;
  for (int i = 0; i < l.count(); ++i) {
    if (is_float) {
      if (l.F(i) != r.F(i)) return false;
    } else {
      if (l.I(i) != r.I(i)) return false;
    }
  }
  return true;
}

void EvalArithInto(AluModel& alu, BinOp op, const Value& l, const Value& r,
                   Value& out) {
  const BaseType lb = l.type().base;
  const BaseType rb = r.type().base;
  const bool is_float = ScalarOf(lb) == BaseType::kFloat;

  // Fast path: scalar float +-*/ — the bulk of lowered GPGPU kernel code.
  // Identical to the component-wise loop below at n == 1 (same AluModel
  // routing, same counts).
  if (is_float && out.count() == 1 && op <= BinOp::kDiv) {
    const float a = l.F(0);
    const float b = r.F(0);
    switch (op) {
      case BinOp::kAdd: out.SetF(0, alu.Add(a, b)); return;
      case BinOp::kSub: out.SetF(0, alu.Sub(a, b)); return;
      case BinOp::kMul: out.SetF(0, alu.Mul(a, b)); return;
      default: out.SetF(0, alu.Div(a, b)); return;
    }
  }

  // Linear-algebra multiplication cases first.
  if (op == BinOp::kMul && IsMatrix(lb) && IsMatrix(rb)) {
    const int n = RowCount(lb);
    for (int c = 0; c < n; ++c) {
      for (int row = 0; row < n; ++row) {
        float acc = alu.Mul(l.F(row), r.F(c * n));
        for (int k = 1; k < n; ++k) {
          acc = alu.Add(acc, alu.Mul(l.F(k * n + row), r.F(c * n + k)));
        }
        out.SetF(c * n + row, acc);
      }
    }
    return;
  }
  if (op == BinOp::kMul && IsMatrix(lb) && IsVector(rb)) {
    const int n = RowCount(lb);
    for (int row = 0; row < n; ++row) {
      float acc = alu.Mul(l.F(row), r.F(0));
      for (int k = 1; k < n; ++k) {
        acc = alu.Add(acc, alu.Mul(l.F(k * n + row), r.F(k)));
      }
      out.SetF(row, acc);
    }
    return;
  }
  if (op == BinOp::kMul && IsVector(lb) && IsMatrix(rb)) {
    const int n = RowCount(rb);
    for (int c = 0; c < n; ++c) {
      float acc = alu.Mul(l.F(0), r.F(c * n));
      for (int k = 1; k < n; ++k) {
        acc = alu.Add(acc, alu.Mul(l.F(k), r.F(c * n + k)));
      }
      out.SetF(c, acc);
    }
    return;
  }

  // Component-wise with scalar broadcast.
  const int n = out.count();
  const bool lbc = l.count() == 1 && n > 1;
  const bool rbc = r.count() == 1 && n > 1;
  for (int i = 0; i < n; ++i) {
    const int li = lbc ? 0 : i;
    const int ri = rbc ? 0 : i;
    if (is_float) {
      const float a = l.F(li);
      const float b = r.F(ri);
      float v = 0.0f;
      switch (op) {
        case BinOp::kAdd: v = alu.Add(a, b); break;
        case BinOp::kSub: v = alu.Sub(a, b); break;
        case BinOp::kMul: v = alu.Mul(a, b); break;
        case BinOp::kDiv: v = alu.Div(a, b); break;
        case BinOp::kLt: alu.Count(1); out.SetB(i, a < b); continue;
        case BinOp::kGt: alu.Count(1); out.SetB(i, a > b); continue;
        case BinOp::kLe: alu.Count(1); out.SetB(i, a <= b); continue;
        case BinOp::kGe: alu.Count(1); out.SetB(i, a >= b); continue;
        case BinOp::kEq: alu.Count(1); out.SetB(i, EqualAll(l, r)); continue;
        case BinOp::kNe: alu.Count(1); out.SetB(i, !EqualAll(l, r)); continue;
        default: break;
      }
      out.SetF(i, v);
    } else {
      const std::int32_t a = l.I(li);
      const std::int32_t b = r.I(ri);
      alu.Count(1);
      switch (op) {
        case BinOp::kAdd: out.SetI(i, a + b); break;
        case BinOp::kSub: out.SetI(i, a - b); break;
        case BinOp::kMul: out.SetI(i, a * b); break;
        case BinOp::kDiv: out.SetI(i, b == 0 ? 0 : a / b); break;
        case BinOp::kLt: out.SetB(i, a < b); break;
        case BinOp::kGt: out.SetB(i, a > b); break;
        case BinOp::kLe: out.SetB(i, a <= b); break;
        case BinOp::kGe: out.SetB(i, a >= b); break;
        case BinOp::kEq: out.SetB(i, EqualAll(l, r)); break;
        case BinOp::kNe: out.SetB(i, !EqualAll(l, r)); break;
        default: break;
      }
    }
  }
}

void EvalCtorInto(AluModel& alu, std::span<const Value* const> args,
                  Value& out) {
  const BaseType target = out.type().base;
  alu.Count(out.count());  // conversion/mov cost

  if (IsScalar(target)) {
    out.SetConverted(0, *args[0], 0);
    return;
  }
  if (IsVector(target)) {
    const int n = out.count();
    if (args.size() == 1 && args[0]->count() == 1) {
      for (int i = 0; i < n; ++i) out.SetConverted(i, *args[0], 0);
      return;
    }
    // Fast path: all-float gather (vecN(f, f, ...), the common shader
    // ctor) — SetConverted degenerates to a plain float copy there.
    bool all_float = ScalarOf(target) == BaseType::kFloat;
    for (std::size_t a = 0; all_float && a < args.size(); ++a) {
      all_float = args[a]->scalar() == BaseType::kFloat;
    }
    int w = 0;
    if (all_float) {
      for (const Value* a : args) {
        for (int i = 0; i < a->count() && w < n; ++i, ++w) {
          out.SetF(w, a->F(i));
        }
      }
      return;
    }
    for (const Value* a : args) {
      for (int i = 0; i < a->count() && w < n; ++i, ++w) {
        out.SetConverted(w, *a, i);
      }
    }
    return;
  }
  // Matrices.
  const int n = RowCount(target);
  if (args.size() == 1 && args[0]->count() == 1) {
    for (int col = 0; col < n; ++col) {
      for (int row = 0; row < n; ++row) {
        out.SetF(col * n + row, col == row ? args[0]->AsFloat(0) : 0.0f);
      }
    }
    return;
  }
  if (args.size() == 1 && IsMatrix(args[0]->type().base)) {
    const int m = RowCount(args[0]->type().base);
    for (int col = 0; col < n; ++col) {
      for (int row = 0; row < n; ++row) {
        float v = col == row ? 1.0f : 0.0f;
        if (col < m && row < m) v = args[0]->F(col * m + row);
        out.SetF(col * n + row, v);
      }
    }
    return;
  }
  int w = 0;
  for (const Value* a : args) {
    for (int i = 0; i < a->count() && w < out.count(); ++i, ++w) {
      out.SetConverted(w, *a, i);
    }
  }
}

void EvalNegInto(AluModel& alu, const Value& v, Value& out) {
  const bool is_float = v.scalar() == BaseType::kFloat;
  for (int i = 0; i < v.count(); ++i) {
    alu.Count(1);
    if (is_float) {
      out.SetF(i, alu.Round(-v.F(i)));
    } else {
      out.SetI(i, -v.I(i));
    }
  }
}

void EvalNotInto(AluModel& alu, const Value& v, Value& out) {
  alu.Count(1);
  out.SetB(0, !v.B(0));
}

void EvalIncDecInto(AluModel& alu, const LRef& ref, bool increment, bool post,
                    Value& out) {
  const Value old = ReadRef(ref);
  Value updated(old.type());
  const float delta = increment ? 1.0f : -1.0f;
  const bool is_float = old.scalar() == BaseType::kFloat;
  for (int i = 0; i < old.count(); ++i) {
    if (is_float) {
      updated.SetF(i, alu.Add(old.F(i), delta));
    } else {
      alu.Count(1);
      updated.SetI(i, old.I(i) + static_cast<std::int32_t>(delta));
    }
  }
  WriteRef(ref, updated);
  out = post ? old : updated;
}

void EvalExtractInto(const Value& base, const IndexStep& step, int i,
                     Value& out) {
  if (i < 0) i = 0;
  if (i >= step.limit) i = step.limit - 1;
  for (int k = 0; k < step.elem_cells; ++k) {
    out.data()[k] = base.data()[i * step.elem_cells + k];
  }
}

// ---------------------------------------------------------------------------
// Lane-batched kernels over component planes
// ---------------------------------------------------------------------------

namespace {

// Calls body(round) with a rounding functor equivalent to `spec`, chosen
// once: the identity, the denormal flush alone, or the full spec. Loops
// inside `body` then carry no per-element branch on the spec, so the
// common full-mantissa models get plain (vectorizable) loops.
template <typename Body>
void WithRounding(const RoundSpec& spec, Body&& body) {
  if (spec.identity()) {
    body([](float x) { return x; });
  } else if (spec.mantissa_bits >= 23) {
    body([](float x) { return RoundSpec::FlushDenormal(x); });
  } else {
    body(spec);
  }
}

// Mirrors Value::SetConverted for one cell: float sources convert through
// SetFromFloat, integer-class sources keep their bits except where the
// target is float or bool.
Cell ConvertCell(Cell v, BaseType from, BaseType to) {
  Cell out;
  if (from == BaseType::kFloat) {
    if (to == BaseType::kFloat) {
      out.f = v.f;
    } else if (to == BaseType::kBool) {
      out.i = v.f != 0.0f ? 1 : 0;
    } else {
      out.i = static_cast<std::int32_t>(v.f);
    }
  } else if (to == BaseType::kFloat) {
    out.f = static_cast<float>(v.i);
  } else if (to == BaseType::kBool) {
    out.i = v.i != 0 ? 1 : 0;
  } else {
    out.i = v.i;
  }
  return out;
}

// a op b for the four float arithmetic ops, rounding each result (and a
// division's reciprocal, the SFU's) through `round` as the ALU model does.
// Every lane of every arithmetic kernel computes its float math here.
template <typename Round>
float FloatArith(BinOp op, const Round& round, float a, float b) {
  switch (op) {
    case BinOp::kAdd: return round(FAdd(a, b));
    case BinOp::kSub: return round(FSub(a, b));
    case BinOp::kMul: return round(FMul(a, b));
    default: return round(FMul(a, round(1.0f / b)));
  }
}

// out(c) = fn(l(c * ls), r(c * rs)) for components [0, n) over lanes
// [0, lanes) of a lane-plane destination: unit-stride loops with a shared
// operand hoisted into a local, which the compiler vectorizes.
template <typename Fn>
void MapFloatLanes(int n, int lanes, const PlaneSrc& l, int ls,
                   const PlaneSrc& r, int rs, const PlaneDst& out, Fn fn) {
  for (int c = 0; c < n; ++c) {
    Cell* o = &out.at(c, 0);
    const Cell* a = &l.at(c * ls, 0);
    const Cell* b = &r.at(c * rs, 0);
    if (l.lane_stride != 0 && r.lane_stride != 0) {
      for (int i = 0; i < lanes; ++i) o[i].f = fn(a[i].f, b[i].f);
    } else if (l.lane_stride != 0) {
      const float y = b->f;
      for (int i = 0; i < lanes; ++i) o[i].f = fn(a[i].f, y);
    } else {
      const float x = a->f;
      for (int i = 0; i < lanes; ++i) o[i].f = fn(x, b[i * r.lane_stride].f);
    }
  }
}

}  // namespace

void EvalArithBatch(AluModel& alu, BinOp op, const PlaneSrc& l,
                    const PlaneSrc& r, const PlaneDst& out,
                    std::uint32_t mask) {
  const BaseType lb = l.type.base;
  const BaseType rb = r.type.base;
  const bool is_float = ScalarOf(lb) == BaseType::kFloat;
  const int lanes = LaneCount(mask);
  const RoundSpec rs = alu.round_spec();

  // Linear-algebra multiplies: output cell `o` of each lane is the scalar
  // engine's dot product, accumulated in the same order. li/ri map the
  // k-th term to its left/right operand components.
  const auto linalg = [&](int cells, int n, auto li, auto ri) {
    alu.Count(lanes * cells * (2 * n - 1));
    for (int o = 0; o < cells; ++o) {
      ForEachLane(mask, [&](int lane) {
        float acc = rs(FMul(l.at(li(o, 0), lane).f, r.at(ri(o, 0), lane).f));
        for (int k = 1; k < n; ++k) {
          acc = rs(FAdd(
              acc, rs(FMul(l.at(li(o, k), lane).f, r.at(ri(o, k), lane).f))));
        }
        out.at(o, lane).f = acc;
      });
    }
  };
  if (op == BinOp::kMul && IsMatrix(lb) && IsMatrix(rb)) {
    // out[c][row] = sum_k l[k][row] * r[c][k]; cell o = c * n + row.
    const int n = RowCount(lb);
    return linalg(
        n * n, n, [n](int o, int k) { return k * n + o % n; },
        [n](int o, int k) { return (o / n) * n + k; });
  }
  if (op == BinOp::kMul && IsMatrix(lb) && IsVector(rb)) {
    const int n = RowCount(lb);
    return linalg(
        n, n, [n](int o, int k) { return k * n + o; },
        [](int, int k) { return k; });
  }
  if (op == BinOp::kMul && IsVector(lb) && IsMatrix(rb)) {
    const int n = RowCount(rb);
    return linalg(
        n, n, [](int, int k) { return k; },
        [n](int o, int k) { return o * n + k; });
  }

  // Comparisons: the result is one bool per lane (relational ops are
  // scalar-only in GLSL ES; ==/!= on vectors and matrices reduce through
  // EqualAll). One ALU op per lane.
  if (op >= BinOp::kLt && op <= BinOp::kNe) {
    alu.Count(lanes);
    if (op == BinOp::kEq || op == BinOp::kNe) {
      const int n = l.count();
      const bool same_shape = n == r.count();
      const int want = op == BinOp::kEq ? 1 : 0;
      ForEachLane(mask, [&](int lane) {
        bool eq = same_shape;
        for (int c = 0; eq && c < n; ++c) {
          eq = is_float ? l.at(c, lane).f == r.at(c, lane).f
                        : l.at(c, lane).i == r.at(c, lane).i;
        }
        out.at(0, lane).i = eq ? want : 1 - want;
      });
      return;
    }
    const auto compare = [&](auto pred) {
      ForEachLane(mask, [&](int lane) {
        const bool v = is_float ? pred(l.at(0, lane).f, r.at(0, lane).f)
                                : pred(l.at(0, lane).i, r.at(0, lane).i);
        out.at(0, lane).i = v ? 1 : 0;
      });
    };
    switch (op) {
      case BinOp::kLt: return compare([](auto a, auto b) { return a < b; });
      case BinOp::kGt: return compare([](auto a, auto b) { return a > b; });
      case BinOp::kLe: return compare([](auto a, auto b) { return a <= b; });
      default: return compare([](auto a, auto b) { return a >= b; });
    }
  }

  // Component-wise arithmetic with scalar broadcast (scalars, vectors,
  // matrix +-/ and matrix*scalar). ls/rsx are the operands' component
  // steps: 0 when a scalar broadcasts against a wider result.
  const int n = out.count();
  const int ls = l.count() == 1 && n > 1 ? 0 : 1;
  const int rsx = r.count() == 1 && n > 1 ? 0 : 1;
  alu.Count(lanes * n);
  if (is_float) {
    // Div is a * recip(b), the reciprocal on the SFU.
    if (op == BinOp::kDiv) alu.CountSfu(lanes * n);
    if ((mask & (mask + 1u)) != 0 || lanes == 1 || out.lane_stride != 1) {
      // A sparse or single-lane mask: one pass over its cells.
      ForEachCell(n, mask, [&](int c, int lane) {
        out.at(c, lane).f = FloatArith(op, rs, l.at(c * ls, lane).f,
                                       r.at(c * rsx, lane).f);
      });
      return;
    }
    // A lane range [0, k), k > 1 — every converged instruction of a batch
    // wider than one lane: vectorizable loops, one per op and rounding.
    WithRounding(rs, [&](auto round) {
      const auto map = [&](auto fn) {
        MapFloatLanes(n, lanes, l, ls, r, rsx, out, fn);
      };
      switch (op) {
        case BinOp::kAdd:
          return map([round](float a, float b) {
            return FloatArith(BinOp::kAdd, round, a, b);
          });
        case BinOp::kSub:
          return map([round](float a, float b) {
            return FloatArith(BinOp::kSub, round, a, b);
          });
        case BinOp::kMul:
          return map([round](float a, float b) {
            return FloatArith(BinOp::kMul, round, a, b);
          });
        default:
          return map([round](float a, float b) {
            return FloatArith(BinOp::kDiv, round, a, b);
          });
      }
    });
    return;
  }
  const auto map = [&](auto fn) {
    ForEachCell(n, mask, [&](int c, int lane) {
      out.at(c, lane).i = fn(l.at(c * ls, lane).i, r.at(c * rsx, lane).i);
    });
  };
  using I = std::int32_t;
  switch (op) {
    case BinOp::kAdd: return map([](I a, I b) { return a + b; });
    case BinOp::kSub: return map([](I a, I b) { return a - b; });
    case BinOp::kMul: return map([](I a, I b) { return a * b; });
    case BinOp::kDiv: return map([](I a, I b) { return b == 0 ? 0 : a / b; });
    default: return;
  }
}

void EvalNegBatch(AluModel& alu, const PlaneSrc& v, const PlaneDst& out,
                  std::uint32_t mask) {
  const int n = v.count();
  alu.Count(LaneCount(mask) * n);
  if (v.scalar() == BaseType::kFloat) {
    const RoundSpec rs = alu.round_spec();
    ForEachCell(n, mask, [&](int c, int lane) {
      out.at(c, lane).f = rs(-v.at(c, lane).f);
    });
    return;
  }
  ForEachCell(n, mask, [&](int c, int lane) {
    out.at(c, lane).i = -v.at(c, lane).i;
  });
}

void EvalNotBatch(AluModel& alu, const PlaneSrc& v, const PlaneDst& out,
                  std::uint32_t mask) {
  alu.Count(LaneCount(mask));
  ForEachLane(mask, [&](int lane) {
    out.at(0, lane).i = v.at(0, lane).i == 0 ? 1 : 0;
  });
}

void EvalCtorBatch(AluModel& alu, std::span<const PlaneSrc> args,
                   const PlaneDst& out, std::uint32_t mask) {
  const BaseType target = out.type.base;
  const int n = out.count();
  alu.Count(LaneCount(mask) * n);  // conversion/mov cost

  // Where each result cell comes from, decided once per instruction with
  // EvalCtorInto's rules: argument `arg`'s component `comp`, or (arg < 0)
  // the constant `k` — identity-matrix fill, or the fresh-value zero.
  struct Source {
    int arg = -1;
    int comp = 0;
    float k = 0.0f;
  };
  std::array<Source, 16> src{};
  const auto gather = [&] {
    int w = 0;
    for (std::size_t a = 0; a < args.size(); ++a) {
      for (int i = 0; i < args[a].count() && w < n; ++i, ++w) {
        src[static_cast<std::size_t>(w)] = {static_cast<int>(a), i, 0.0f};
      }
    }
  };
  const bool one_scalar = args.size() == 1 && args[0].count() == 1;
  const Source arg0{0, 0, 0.0f};  // the first argument's first component
  if (IsScalar(target)) {
    src[0] = arg0;
  } else if (IsVector(target)) {
    if (one_scalar) {
      for (int w = 0; w < n; ++w) src[static_cast<std::size_t>(w)] = arg0;
    } else {
      gather();
    }
  } else {
    const int rows = RowCount(target);
    const bool from_matrix = args.size() == 1 && IsMatrix(args[0].type.base);
    const int m = from_matrix ? RowCount(args[0].type.base) : 0;
    if (one_scalar || from_matrix) {
      for (int col = 0; col < rows; ++col) {
        for (int row = 0; row < rows; ++row) {
          Source& s = src[static_cast<std::size_t>(col * rows + row)];
          if (one_scalar) {
            s = col == row ? arg0 : Source{};
          } else if (col < m && row < m) {
            s = {0, col * m + row, 0.0f};
          } else {
            s = {-1, 0, col == row ? 1.0f : 0.0f};
          }
        }
      }
    } else {
      gather();
    }
  }

  const BaseType to = ScalarOf(target);
  for (int w = 0; w < n; ++w) {
    const Source& s = src[static_cast<std::size_t>(w)];
    if (s.arg < 0) {
      Cell k;
      k.f = s.k;  // 0.0f is the all-zero cell for every scalar kind
      ForEachLane(mask, [&](int lane) { out.at(w, lane) = k; });
      continue;
    }
    const PlaneSrc& a = args[static_cast<std::size_t>(s.arg)];
    const BaseType from = a.scalar();
    if (from == to && to != BaseType::kBool) {
      CopyLanes(out, w, a, s.comp, mask);
    } else {
      ForEachLane(mask, [&](int lane) {
        out.at(w, lane) = ConvertCell(a.at(s.comp, lane), from, to);
      });
    }
  }
}

}  // namespace mgpu::glsl
