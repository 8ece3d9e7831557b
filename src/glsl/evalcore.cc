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
        case BinOp::kAdd: out.SetI(i, IAdd(a, b)); break;
        case BinOp::kSub: out.SetI(i, ISub(a, b)); break;
        case BinOp::kMul: out.SetI(i, IMul(a, b)); break;
        case BinOp::kDiv: out.SetI(i, IDiv(a, b)); break;
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
      out.SetI(i, INeg(v.I(i)));
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
      updated.SetI(i, IAdd(old.I(i), static_cast<std::int32_t>(delta)));
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
      out.i = FloatToInt(v.f);
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

// out = l op r for the four float arithmetic ops over the mask's lanes,
// rounding each result (and a division's reciprocal, the SFU's) through
// `round` as the ALU model does.
template <typename Round>
[[gnu::always_inline]] inline void FloatArithLanes(
    BinOp op, Round round, const PlaneDst& out, int n, std::uint32_t mask,
    LaneOperand l, LaneOperand r) {
  switch (op) {
    case BinOp::kAdd:
      return MapLanes(
          out, n, mask,
          [round](Cell a, Cell b) { return FCell(round(FAdd(a.f, b.f))); }, l,
          r);
    case BinOp::kSub:
      return MapLanes(
          out, n, mask,
          [round](Cell a, Cell b) { return FCell(round(FSub(a.f, b.f))); }, l,
          r);
    case BinOp::kMul:
      return MapLanes(
          out, n, mask,
          [round](Cell a, Cell b) { return FCell(round(FMul(a.f, b.f))); }, l,
          r);
    default:
      return MapLanes(
          out, n, mask,
          [round](Cell a, Cell b) {
            return FCell(round(FMul(a.f, round(1.0f / b.f))));
          },
          l, r);
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
  const int top = TopLane(mask);
  const RoundSpec rs = alu.round_spec();

  // Linear-algebra multiplies: output cell `o` of each lane is the scalar
  // engine's dot product, accumulated in the same order. li/ri map the
  // k-th term to its left/right operand components.
  const auto linalg = [&](int cells, int n, auto li, auto ri) {
    alu.Count(lanes * cells * (2 * n - 1));
    LaneRow ra, rb, acc;
    for (int o = 0; o < cells; ++o) {
      for (int k = 0; k < n; ++k) {
        const Cell* x = RowOf(l, li(o, k), top, ra);
        const Cell* y = RowOf(r, ri(o, k), top, rb);
        for (int i = 0; i < top; ++i) {
          const float p = rs(FMul(x[i].f, y[i].f));
          acc[i].f = k == 0 ? p : rs(FAdd(acc[i].f, p));
        }
      }
      CommitRow(out, o, acc.data(), mask, top);
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
    const int n = l.count();
    if ((op == BinOp::kEq || op == BinOp::kNe) && (n > 1 || r.count() > 1)) {
      // Whole-vector equality: the AND of the components' equality.
      LaneRow ra, rb, eq;
      for (int i = 0; i < top; ++i) eq[i].i = n == r.count() ? 1 : 0;
      for (int c = 0; c < n && n == r.count(); ++c) {
        const Cell* x = RowOf(l, c, top, ra);
        const Cell* y = RowOf(r, c, top, rb);
        for (int i = 0; i < top; ++i) {
          eq[i].i &= is_float ? x[i].f == y[i].f : x[i].i == y[i].i;
        }
      }
      if (op == BinOp::kNe) {
        for (int i = 0; i < top; ++i) eq[i].i ^= 1;
      }
      CommitRow(out, 0, eq.data(), mask, top);
      return;
    }
    const auto compare = [&](auto pred) {
      if (is_float) {
        MapLanes(out, 1, mask,
                 [pred](Cell a, Cell b) { return ICell(pred(a.f, b.f)); },
                 LaneOperand{l}, LaneOperand{r});
      } else {
        MapLanes(out, 1, mask,
                 [pred](Cell a, Cell b) { return ICell(pred(a.i, b.i)); },
                 LaneOperand{l}, LaneOperand{r});
      }
    };
    switch (op) {
      case BinOp::kLt: return compare([](auto a, auto b) { return a < b; });
      case BinOp::kGt: return compare([](auto a, auto b) { return a > b; });
      case BinOp::kLe: return compare([](auto a, auto b) { return a <= b; });
      case BinOp::kGe: return compare([](auto a, auto b) { return a >= b; });
      case BinOp::kEq: return compare([](auto a, auto b) { return a == b; });
      default: return compare([](auto a, auto b) { return a != b; });
    }
  }

  // Component-wise arithmetic with scalar broadcast (scalars, vectors,
  // matrix +-/ and matrix*scalar). ls/rsx are the operands' component
  // steps: 0 when a scalar broadcasts against a wider result.
  const int n = out.count();
  const int ls = l.count() == 1 && n > 1 ? 0 : 1;
  const int rsx = r.count() == 1 && n > 1 ? 0 : 1;
  alu.Count(lanes * n);
  const LaneOperand lo{l, ls};
  const LaneOperand ro{r, rsx};
  if (is_float) {
    // Div is a * recip(b), the reciprocal on the SFU.
    if (op == BinOp::kDiv) alu.CountSfu(lanes * n);
    return WithRounding(rs, [&](auto round) {
      FloatArithLanes(op, round, out, n, mask, lo, ro);
    });
  }
  const auto map = [&](auto fn) { MapLanes(out, n, mask, fn, lo, ro); };
  switch (op) {
    case BinOp::kAdd:
      return map([](Cell a, Cell b) { return ICell(IAdd(a.i, b.i)); });
    case BinOp::kSub:
      return map([](Cell a, Cell b) { return ICell(ISub(a.i, b.i)); });
    case BinOp::kMul:
      return map([](Cell a, Cell b) { return ICell(IMul(a.i, b.i)); });
    default:
      return map([](Cell a, Cell b) { return ICell(IDiv(a.i, b.i)); });
  }
}

void EvalNegBatch(AluModel& alu, const PlaneSrc& v, const PlaneDst& out,
                  std::uint32_t mask) {
  const int n = v.count();
  alu.Count(LaneCount(mask) * n);
  if (v.scalar() == BaseType::kFloat) {
    return WithRounding(alu.round_spec(), [&](auto round) {
      MapLanes(out, n, mask, [round](Cell a) { return FCell(round(-a.f)); },
               LaneOperand{v});
    });
  }
  MapLanes(out, n, mask, [](Cell a) { return ICell(INeg(a.i)); },
           LaneOperand{v});
}

void EvalNotBatch(AluModel& alu, const PlaneSrc& v, const PlaneDst& out,
                  std::uint32_t mask) {
  alu.Count(LaneCount(mask));
  MapLanes(out, 1, mask, [](Cell a) { return ICell(a.i == 0 ? 1 : 0); },
           LaneOperand{v});
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
      // 0.0f is the all-zero cell for every scalar kind.
      const Cell k = FCell(s.k);
      CopyLanes(out, w, {&k, 0, 0, out.type}, 0, mask);
      continue;
    }
    const PlaneSrc& a = args[static_cast<std::size_t>(s.arg)];
    const BaseType from = a.scalar();
    if (from == to && to != BaseType::kBool) {
      CopyLanes(out, w, a, s.comp, mask);
      continue;
    }
    // One component through the conversion (a MapLanes over the component
    // alone: `out` moved on to component w, `a` to component s.comp).
    const PlaneDst o{&out.at(w, 0), out.comp_stride, out.lane_stride,
                     out.type};
    const PlaneSrc x{&a.at(s.comp, 0), a.comp_stride, a.lane_stride, a.type};
    if (from == BaseType::kFloat && to == BaseType::kInt) {
      MapLanes(o, 1, mask, [](Cell v) { return ICell(FloatToInt(v.f)); },
               LaneOperand{x});
    } else if (from == BaseType::kInt && to == BaseType::kFloat) {
      MapLanes(o, 1, mask,
               [](Cell v) { return FCell(static_cast<float>(v.i)); },
               LaneOperand{x});
    } else {
      MapLanes(
          o, 1, mask, [from, to](Cell v) { return ConvertCell(v, from, to); },
          LaneOperand{x});
    }
  }
}

}  // namespace mgpu::glsl
