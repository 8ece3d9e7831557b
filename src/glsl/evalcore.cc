#include "glsl/evalcore.h"

#include <bit>
#include <cmath>

namespace mgpu::glsl {

LRef RefWhole(Value& storage, const Type& t) {
  LRef r;
  r.storage = &storage;
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
  r.storage = base.storage;
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
  r.storage = base.storage;
  r.type = result_type;
  r.n = count;
  for (int k = 0; k < count; ++k) {
    r.idx[static_cast<std::size_t>(k)] = base.idx[comps[k]];
  }
  return r;
}

Value ReadRef(const LRef& r) {
  Value v(r.type);
  if (r.n < 0) {
    // Whole large array.
    for (int i = 0; i < -r.n; ++i) v.data()[i] = r.storage->data()[i];
    return v;
  }
  for (int i = 0; i < r.n; ++i) {
    v.data()[i] = r.storage->data()[r.idx[static_cast<std::size_t>(i)]];
  }
  return v;
}

void ReadRefInto(const LRef& r, Value& out) {
  if (r.n < 0) {
    for (int i = 0; i < -r.n; ++i) out.data()[i] = r.storage->data()[i];
    return;
  }
  Cell* dst = out.data();
  const Cell* src = r.storage->data();
  for (int i = 0; i < r.n; ++i) {
    dst[i] = src[r.idx[static_cast<std::size_t>(i)]];
  }
}

void WriteRef(const LRef& r, const Value& v) {
  if (r.n < 0) {
    for (int i = 0; i < -r.n; ++i) r.storage->data()[i] = v.data()[i];
    return;
  }
  for (int i = 0; i < r.n; ++i) {
    r.storage->data()[r.idx[static_cast<std::size_t>(i)]] = v.data()[i];
  }
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

void EvalIncDecVar(AluModel& alu, Value& var, bool increment, bool post,
                   Value& out) {
  const float delta = increment ? 1.0f : -1.0f;
  const bool is_float = var.scalar() == BaseType::kFloat;
  const int n = var.count();
  for (int i = 0; i < n; ++i) {
    if (is_float) {
      const float old = var.F(i);
      const float updated = alu.Add(old, delta);
      var.SetF(i, updated);
      out.SetF(i, post ? old : updated);
    } else {
      alu.Count(1);
      const std::int32_t old = var.I(i);
      const std::int32_t updated = old + static_cast<std::int32_t>(delta);
      var.SetI(i, updated);
      out.SetI(i, post ? old : updated);
    }
  }
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
// Lane-batched (SoA) kernels
// ---------------------------------------------------------------------------

void EvalArithBatch(AluModel& alu, BinOp op, const BatchSrc& l,
                    const BatchSrc& r, const BatchDst& out,
                    std::uint32_t mask) {
  const BaseType lb = l.base->type().base;
  const BaseType rb = r.base->type().base;
  const bool is_float = ScalarOf(lb) == BaseType::kFloat;

  // Linear-algebra multiplies: the accumulation pattern is the one place
  // EvalArithInto is not a flat component loop, so replay it per lane — the
  // dispatch to get here still ran once for the whole batch. The VM's SoA
  // tag (TagSoaEligibility) routes these shapes to its own per-lane path,
  // so this branch is normally unreachable from the batched executors; it
  // is kept so the kernel stays total — if the tag predicate ever drifts,
  // results remain correct (just unamortized) instead of silently wrong.
  if (op == BinOp::kMul &&
      ((IsMatrix(lb) && (IsMatrix(rb) || IsVector(rb))) ||
       (IsVector(lb) && IsMatrix(rb)))) {
    ForEachLane(mask, [&](int lane) {
      EvalArithInto(alu, op, l.at(lane), r.at(lane), out.at(lane));
    });
    return;
  }

  // Comparisons: result is always a scalar bool (relational ops are
  // scalar-only in GLSL ES; ==/!= on vectors and matrices reduce through
  // EqualAll). One alu op per lane, same as the scalar loop at n == 1.
  if (op >= BinOp::kLt && op <= BinOp::kNe) {
    switch (op) {
      case BinOp::kEq:
        ForEachLane(mask, [&](int lane) {
          alu.Count(1);
          out.at(lane).SetB(0, EqualAll(l.at(lane), r.at(lane)));
        });
        return;
      case BinOp::kNe:
        ForEachLane(mask, [&](int lane) {
          alu.Count(1);
          out.at(lane).SetB(0, !EqualAll(l.at(lane), r.at(lane)));
        });
        return;
      default:
        break;
    }
    if (is_float) {
      ForEachLane(mask, [&](int lane) {
        alu.Count(1);
        const float a = l.at(lane).F(0);
        const float b = r.at(lane).F(0);
        bool v = false;
        switch (op) {
          case BinOp::kLt: v = a < b; break;
          case BinOp::kGt: v = a > b; break;
          case BinOp::kLe: v = a <= b; break;
          default: v = a >= b; break;
        }
        out.at(lane).SetB(0, v);
      });
    } else {
      ForEachLane(mask, [&](int lane) {
        alu.Count(1);
        const std::int32_t a = l.at(lane).I(0);
        const std::int32_t b = r.at(lane).I(0);
        bool v = false;
        switch (op) {
          case BinOp::kLt: v = a < b; break;
          case BinOp::kGt: v = a > b; break;
          case BinOp::kLe: v = a <= b; break;
          default: v = a >= b; break;
        }
        out.at(lane).SetB(0, v);
      });
    }
    return;
  }

  // Component-wise arithmetic with scalar broadcast (covers scalars,
  // vectors, and matrix +-/ and matrix*scalar). Shape flags hoisted: `ls`/
  // `rs` are per-component index strides, 0 when the operand is a scalar
  // broadcast against a wider result.
  const int n = out.base->count();
  const int ls = l.base->count() == 1 && n > 1 ? 0 : 1;
  const int rs = r.base->count() == 1 && n > 1 ? 0 : 1;

  if (is_float) {
    // One tight lane loop per op: the switch runs once per instruction,
    // not once per lane per component.
    switch (op) {
      case BinOp::kAdd:
        ForEachLane(mask, [&](int lane) {
          const Value& a = l.at(lane);
          const Value& b = r.at(lane);
          Value& o = out.at(lane);
          for (int i = 0; i < n; ++i) {
            o.SetF(i, alu.Add(a.F(i * ls), b.F(i * rs)));
          }
        });
        return;
      case BinOp::kSub:
        ForEachLane(mask, [&](int lane) {
          const Value& a = l.at(lane);
          const Value& b = r.at(lane);
          Value& o = out.at(lane);
          for (int i = 0; i < n; ++i) {
            o.SetF(i, alu.Sub(a.F(i * ls), b.F(i * rs)));
          }
        });
        return;
      case BinOp::kMul:
        ForEachLane(mask, [&](int lane) {
          const Value& a = l.at(lane);
          const Value& b = r.at(lane);
          Value& o = out.at(lane);
          for (int i = 0; i < n; ++i) {
            o.SetF(i, alu.Mul(a.F(i * ls), b.F(i * rs)));
          }
        });
        return;
      default:
        ForEachLane(mask, [&](int lane) {
          const Value& a = l.at(lane);
          const Value& b = r.at(lane);
          Value& o = out.at(lane);
          for (int i = 0; i < n; ++i) {
            o.SetF(i, alu.Div(a.F(i * ls), b.F(i * rs)));
          }
        });
        return;
    }
  }

  // Integer component-wise arithmetic (one counted alu op per component,
  // division-by-zero guarded to 0, both matching EvalArithInto).
  ForEachLane(mask, [&](int lane) {
    const Value& a = l.at(lane);
    const Value& b = r.at(lane);
    Value& o = out.at(lane);
    for (int i = 0; i < n; ++i) {
      const std::int32_t x = a.I(i * ls);
      const std::int32_t y = b.I(i * rs);
      alu.Count(1);
      switch (op) {
        case BinOp::kAdd: o.SetI(i, x + y); break;
        case BinOp::kSub: o.SetI(i, x - y); break;
        case BinOp::kMul: o.SetI(i, x * y); break;
        case BinOp::kDiv: o.SetI(i, y == 0 ? 0 : x / y); break;
        default: break;
      }
    }
  });
}

void EvalNegBatch(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                  std::uint32_t mask) {
  const int n = v.base->count();
  if (v.base->scalar() == BaseType::kFloat) {
    ForEachLane(mask, [&](int lane) {
      const Value& a = v.at(lane);
      Value& o = out.at(lane);
      for (int i = 0; i < n; ++i) {
        alu.Count(1);
        o.SetF(i, alu.Round(-a.F(i)));
      }
    });
    return;
  }
  ForEachLane(mask, [&](int lane) {
    const Value& a = v.at(lane);
    Value& o = out.at(lane);
    for (int i = 0; i < n; ++i) {
      alu.Count(1);
      o.SetI(i, -a.I(i));
    }
  });
}

void EvalNotBatch(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                  std::uint32_t mask) {
  ForEachLane(mask, [&](int lane) {
    alu.Count(1);
    out.at(lane).SetB(0, !v.at(lane).B(0));
  });
}

void EvalCtorBatch(AluModel& alu, std::span<const BatchSrc> args,
                   const BatchDst& out, std::uint32_t mask) {
  const BaseType target = out.base->type().base;
  const int n = out.base->count();
  const auto clear = [n](Value& o) {
    Cell* c = o.data();
    for (int i = 0; i < n; ++i) c[i].i = 0;
  };

  if (IsScalar(target)) {
    ForEachLane(mask, [&](int lane) {
      alu.Count(1);
      Value& o = out.at(lane);
      clear(o);
      o.SetConverted(0, args[0].at(lane), 0);
    });
    return;
  }
  if (!IsVector(target)) {
    // Matrix/array targets must never be routed here: TagSoaEligibility
    // only marks scalar/vector constructors SoA (the VM replays matrix
    // ctors per lane through EvalCtorInto). Falling through silently would
    // leave stale register bytes in every lane, so fail loudly instead —
    // always on, unlike an assert, which Release/NDEBUG would strip.
    throw ShaderRuntimeError(
        "internal error: non-scalar/vector constructor reached the SoA "
        "ctor kernel (SoA tagging drifted from kernel coverage)");
  }
  {
    if (args.size() == 1 && args[0].base->count() == 1) {
      // Splat.
      ForEachLane(mask, [&](int lane) {
        alu.Count(n);
        Value& o = out.at(lane);
        const Value& a = args[0].at(lane);
        for (int i = 0; i < n; ++i) o.SetConverted(i, a, 0);
      });
      return;
    }
    bool all_float = ScalarOf(target) == BaseType::kFloat;
    for (std::size_t a = 0; all_float && a < args.size(); ++a) {
      all_float = args[a].base->scalar() == BaseType::kFloat;
    }
    if (all_float) {
      // The common vecN(f, v, ...) gather: a flat per-lane copy loop.
      ForEachLane(mask, [&](int lane) {
        alu.Count(n);
        Value& o = out.at(lane);
        int w = 0;
        for (const BatchSrc& src : args) {
          const Value& a = src.at(lane);
          for (int i = 0; i < a.count() && w < n; ++i, ++w) {
            o.SetF(w, a.F(i));
          }
        }
        while (w < n) o.data()[w++].i = 0;  // malformed ctor tail stays zero
      });
      return;
    }
    ForEachLane(mask, [&](int lane) {
      alu.Count(n);
      Value& o = out.at(lane);
      clear(o);
      int w = 0;
      for (const BatchSrc& src : args) {
        const Value& a = src.at(lane);
        for (int i = 0; i < a.count() && w < n; ++i, ++w) {
          o.SetConverted(w, a, i);
        }
      }
    });
  }
}

}  // namespace mgpu::glsl
