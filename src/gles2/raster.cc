#include "gles2/raster.h"

#include <algorithm>
#include <climits>
#include <cmath>

namespace mgpu::gles2 {
namespace {

constexpr float kNearEps = 1e-6f;

// Appends a covered fragment to lane `b.count` (its varyings were already
// written to that lane's column of the planes) and flushes a full batch.
void Append(FragmentBatch& b, const BatchFlushFn& flush, int px, int py,
            float z, bool front, float ps, float pt) {
  const std::size_t l = static_cast<std::size_t>(b.count);
  b.x[l] = px;
  b.y[l] = py;
  b.depth[l] = z;
  b.front[l] = front ? 1 : 0;
  b.point_s[l] = ps;
  b.point_t[l] = pt;
  if (++b.count == kFragBatchWidth) flush();
}

// Varying cell k of the next fragment goes to
// LaneVaryings(b)[k * kFragBatchWidth].
float* LaneVaryings(FragmentBatch& b) {
  return &b.varyings[static_cast<std::size_t>(b.count)];
}

struct DeviceVertex {
  double x = 0.0, y = 0.0, z = 0.0;  // window coordinates
  double inv_w = 1.0;
  std::array<float, kMaxVaryingCells> varyings{};
  float point_size = 1.0f;
};

DeviceVertex ToDevice(const RasterVertex& v, int varying_cells,
                      const RasterState& s) {
  DeviceVertex d;
  const double w = v.clip[3];
  const double inv_w = 1.0 / w;
  const double xn = v.clip[0] * inv_w;
  const double yn = v.clip[1] * inv_w;
  const double zn = v.clip[2] * inv_w;
  d.x = s.viewport_x + (xn + 1.0) * 0.5 * s.viewport_w;
  d.y = s.viewport_y + (yn + 1.0) * 0.5 * s.viewport_h;
  d.z = (zn + 1.0) * 0.5;  // default glDepthRangef(0, 1)
  d.inv_w = inv_w;
  for (int i = 0; i < varying_cells && i < kMaxVaryingCells; ++i) {
    d.varyings[static_cast<std::size_t>(i)] =
        i < static_cast<int>(v.varyings.size()) ? v.varyings[static_cast<std::size_t>(i)] : 0.0f;
  }
  d.point_size = v.point_size;
  return d;
}

// Clips a polygon (in clip space, varyings linear in clip space) against the
// plane w >= kNearEps. Sutherland-Hodgman on a single plane.
std::vector<RasterVertex> ClipNear(const std::vector<RasterVertex>& poly,
                                   int varying_cells) {
  std::vector<RasterVertex> out;
  const auto n = poly.size();
  for (std::size_t i = 0; i < n; ++i) {
    const RasterVertex& a = poly[i];
    const RasterVertex& b = poly[(i + 1) % n];
    const bool a_in = a.clip[3] >= kNearEps;
    const bool b_in = b.clip[3] >= kNearEps;
    auto lerp = [&](float t) {
      RasterVertex m;
      for (int k = 0; k < 4; ++k) {
        m.clip[static_cast<std::size_t>(k)] =
            a.clip[static_cast<std::size_t>(k)] +
            t * (b.clip[static_cast<std::size_t>(k)] -
                 a.clip[static_cast<std::size_t>(k)]);
      }
      m.varyings.resize(static_cast<std::size_t>(varying_cells));
      for (int k = 0; k < varying_cells; ++k) {
        const float av = k < static_cast<int>(a.varyings.size())
                             ? a.varyings[static_cast<std::size_t>(k)] : 0.0f;
        const float bv = k < static_cast<int>(b.varyings.size())
                             ? b.varyings[static_cast<std::size_t>(k)] : 0.0f;
        m.varyings[static_cast<std::size_t>(k)] = av + t * (bv - av);
      }
      m.point_size = a.point_size;
      return m;
    };
    if (a_in) out.push_back(a);
    if (a_in != b_in) {
      const float t = (kNearEps - a.clip[3]) / (b.clip[3] - a.clip[3]);
      out.push_back(lerp(t));
    }
  }
  return out;
}

double Orient2d(double ax, double ay, double bx, double by, double cx,
                double cy) {
  return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
}

// Top-left fill rule for a CCW triangle in a y-up coordinate system: an edge
// (a -> b) owns its boundary pixels when it is a "left" edge (heading
// downward... here upward in y-up CCW = dy > 0) or the "top" horizontal edge
// (dy == 0 and dx < 0). Verified by the exact-coverage tests in
// gles2_raster_test.cc (two triangles sharing a diagonal must shade every
// pixel exactly once — the paper's challenge 2 quad).
bool EdgeIsTopLeft(double dx, double dy) {
  if (dy == 0.0) return dx < 0.0;
  return dy > 0.0;
}

// Facing/cull decision shared by EmitTriangle and TriangleBounds (the
// binner and the rasterizer must agree, or tiles could be dropped/wasted).
// With y-up window coords, positive area = counter-clockwise. Returns true
// when the triangle is culled; *front reports facingness either way.
bool CullTest(double area, const RasterState& s, bool* front) {
  const bool ccw = area > 0.0;
  *front = (s.front_face == GL_CCW) == ccw;
  if (!s.cull_enabled) return false;
  if (s.cull_face == GL_FRONT_AND_BACK) return true;
  return *front == (s.cull_face == GL_FRONT);
}

void EmitTriangle(const DeviceVertex& d0, const DeviceVertex& d1,
                  const DeviceVertex& d2, int varying_cells,
                  const RasterState& s, FragmentBatch& batch,
                  const BatchFlushFn& flush) {
  const double area = Orient2d(d0.x, d0.y, d1.x, d1.y, d2.x, d2.y);
  if (area == 0.0) return;

  bool front = false;
  if (CullTest(area, s, &front)) return;

  // Wind to CCW for a uniform fill rule.
  const bool ccw = area > 0.0;
  const DeviceVertex& a = d0;
  const DeviceVertex& b = ccw ? d1 : d2;
  const DeviceVertex& c = ccw ? d2 : d1;
  const double abs_area = std::fabs(area);

  int min_x = static_cast<int>(std::floor(std::min({a.x, b.x, c.x})));
  int max_x = static_cast<int>(std::ceil(std::max({a.x, b.x, c.x})));
  int min_y = static_cast<int>(std::floor(std::min({a.y, b.y, c.y})));
  int max_y = static_cast<int>(std::ceil(std::max({a.y, b.y, c.y})));
  min_x = std::max({min_x, 0, s.clip_x0});
  min_y = std::max({min_y, 0, s.clip_y0});
  max_x = std::min({max_x, s.target_w, s.clip_x1});
  max_y = std::min({max_y, s.target_h, s.clip_y1});
  if (min_x >= max_x || min_y >= max_y) return;

  const bool tl0 = EdgeIsTopLeft(c.x - b.x, c.y - b.y);  // edge b->c (w0)
  const bool tl1 = EdgeIsTopLeft(a.x - c.x, a.y - c.y);  // edge c->a (w1)
  const bool tl2 = EdgeIsTopLeft(b.x - a.x, b.y - a.y);  // edge a->b (w2)

  // Edge setup hoisted out of the pixel loop: each edge function is affine
  // in the sample position, so it is evaluated exactly (Orient2d) once per
  // row at the row anchor and stepped by its constant x-derivative across
  // the row. For pixel-aligned vertex coordinates (the GPGPU quad and the
  // exact-coverage corpus) anchor and increments are exactly representable
  // in double, so the stepped values equal direct evaluation bit-for-bit —
  // the shared-diagonal tests below guard this.
  const double dw0dx = b.y - c.y;
  const double dw1dx = c.y - a.y;
  const double dw2dx = a.y - b.y;

  for (int py = min_y; py < max_y; ++py) {
    const double sy = py + 0.5;
    const double sx0 = min_x + 0.5;
    double w0 = Orient2d(b.x, b.y, c.x, c.y, sx0, sy);
    double w1 = Orient2d(c.x, c.y, a.x, a.y, sx0, sy);
    double w2 = Orient2d(a.x, a.y, b.x, b.y, sx0, sy);
    for (int px = min_x; px < max_x;
         ++px, w0 += dw0dx, w1 += dw1dx, w2 += dw2dx) {
      const bool in0 = w0 > 0.0 || (w0 == 0.0 && tl0);
      const bool in1 = w1 > 0.0 || (w1 == 0.0 && tl1);
      const bool in2 = w2 > 0.0 || (w2 == 0.0 && tl2);
      if (!in0 || !in1 || !in2) continue;

      const double ba = w0 / abs_area;
      const double bb = w1 / abs_area;
      const double bc = w2 / abs_area;
      const double z = ba * a.z + bb * b.z + bc * c.z;
      // Perspective-correct interpolation (exact linear when w == 1, the
      // GPGPU case, so kernel indices arrive exactly at (i + 0.5) / N).
      const double pa = ba * a.inv_w;
      const double pb = bb * b.inv_w;
      const double pc = bc * c.inv_w;
      const double denom = pa + pb + pc;
      float* const vb = LaneVaryings(batch);
      for (int k = 0; k < varying_cells; ++k) {
        const std::size_t ki = static_cast<std::size_t>(k);
        vb[ki * kFragBatchWidth] =
            static_cast<float>((pa * a.varyings[ki] + pb * b.varyings[ki] +
                                pc * c.varyings[ki]) /
                               denom);
      }
      Append(batch, flush, px, py, static_cast<float>(std::clamp(z, 0.0, 1.0)),
             front, 0.0f, 0.0f);
    }
  }
}

}  // namespace

void RasterizeTriangle(const RasterVertex& v0, const RasterVertex& v1,
                       const RasterVertex& v2, int varying_cells,
                       const RasterState& state, FragmentBatch& batch,
                       const BatchFlushFn& flush) {
  // Near-plane (w > 0) clipping; everything else is handled by the scissor
  // to the render target in EmitTriangle.
  const bool in0 = v0.clip[3] >= kNearEps;
  const bool in1 = v1.clip[3] >= kNearEps;
  const bool in2 = v2.clip[3] >= kNearEps;
  if (in0 && in1 && in2) {
    EmitTriangle(ToDevice(v0, varying_cells, state),
                 ToDevice(v1, varying_cells, state),
                 ToDevice(v2, varying_cells, state), varying_cells, state,
                 batch, flush);
    return;
  }
  const std::vector<RasterVertex> poly =
      ClipNear({v0, v1, v2}, varying_cells);
  if (poly.size() < 3) return;
  const DeviceVertex d0 = ToDevice(poly[0], varying_cells, state);
  for (std::size_t i = 1; i + 1 < poly.size(); ++i) {
    EmitTriangle(d0, ToDevice(poly[i], varying_cells, state),
                 ToDevice(poly[i + 1], varying_cells, state), varying_cells,
                 state, batch, flush);
  }
}

void RasterizePoint(const RasterVertex& v, int varying_cells,
                    const RasterState& state, FragmentBatch& batch,
                    const BatchFlushFn& flush) {
  if (v.clip[3] < kNearEps) return;
  const DeviceVertex d = ToDevice(v, varying_cells, state);
  const double size = std::max(1.0f, d.point_size);
  const double half = size * 0.5;
  int min_x = static_cast<int>(std::floor(d.x - half));
  int max_x = static_cast<int>(std::ceil(d.x + half));
  int min_y = static_cast<int>(std::floor(d.y - half));
  int max_y = static_cast<int>(std::ceil(d.y + half));
  min_x = std::max({min_x, 0, state.clip_x0});
  min_y = std::max({min_y, 0, state.clip_y0});
  max_x = std::min({max_x, state.target_w, state.clip_x1});
  max_y = std::min({max_y, state.target_h, state.clip_y1});
  for (int py = min_y; py < max_y; ++py) {
    for (int px = min_x; px < max_x; ++px) {
      const double sx = px + 0.5;
      const double sy = py + 0.5;
      if (std::fabs(sx - d.x) > half || std::fabs(sy - d.y) > half) continue;
      const float ps = static_cast<float>((sx - (d.x - half)) / size);
      const float pt = static_cast<float>(1.0 - (sy - (d.y - half)) / size);
      float* const vb = LaneVaryings(batch);
      for (int k = 0; k < varying_cells; ++k) {
        const std::size_t ki = static_cast<std::size_t>(k);
        vb[ki * kFragBatchWidth] = d.varyings[ki];
      }
      Append(batch, flush, px, py,
             static_cast<float>(std::clamp(d.z, 0.0, 1.0)), true, ps, pt);
    }
  }
}

namespace {

// The line's pixel walk, shared by RasterizeLine and LineTouchedTiles so
// the binner sees exactly the pixels the rasterizer emits. Calls
// fn(t, px, py) for each pixel, pre-target-clip; fn returning false stops
// the walk (used to bail once a monotone walk has passed its clip rect for
// good).
//
// The walk steps the major axis (the one the line spans more of) one
// whole pixel at a time, from the pixel of `a` to the pixel of `b`, and
// samples the line at each major-axis pixel's centre (clamped to the
// segment), so every major-axis column gets exactly one pixel and
// consecutive pixels are 8-connected. Each pixel depends only on its own
// column, so the walk covers only the columns where the line lies inside
// the target grown by one pixel on every side, plus one on each end: a line
// with a vertex far outside the viewport costs O(target size), not O(its
// length), and the columns it skips hold pixels outside the target.
template <typename Fn>
void WalkLine(const DeviceVertex& a, const DeviceVertex& b, int target_w,
              int target_h, Fn&& fn) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  // NaN or inf, or too long for a double to resolve its pixel positions.
  if (!(std::max(std::fabs(dx), std::fabs(dy)) < 0x1p53)) return;
  // Parameter range [t0, t1] inside the grown target, axis by axis.
  double t0 = 0.0;
  double t1 = 1.0;
  const auto clip_axis = [&](double p, double d, int size) {
    const double lo = -1.0;
    const double hi = size + 1.0;
    if (d == 0.0) {
      if (p < lo || p > hi) t1 = -1.0;
      return;
    }
    const double ta = (lo - p) / d;
    const double tb = (hi - p) / d;
    t0 = std::max(t0, std::min(ta, tb));
    t1 = std::min(t1, std::max(ta, tb));
  };
  clip_axis(a.x, dx, target_w);
  clip_axis(a.y, dy, target_h);
  if (!(t0 <= t1)) return;
  const bool x_major = std::fabs(dx) >= std::fabs(dy);
  const double m0 = x_major ? a.x : a.y;  // major axis
  const double m1 = x_major ? b.x : b.y;
  const double n0 = x_major ? a.y : a.x;  // minor axis
  const double n1 = x_major ? b.y : b.x;
  const double dm = m1 - m0;
  const double dir = dm < 0.0 ? -1.0 : 1.0;
  // The clipped range's end columns, one column wider on each side and
  // kept inside the segment's own columns: small whole numbers.
  const double c0 = std::floor(std::lerp(m0, m1, t0)) - dir;
  const double c1 = std::floor(std::lerp(m0, m1, t1)) + dir;
  const double first =
      dir > 0.0 ? std::max(c0, std::floor(m0)) : std::min(c0, std::floor(m0));
  const double last =
      dir > 0.0 ? std::min(c1, std::floor(m1)) : std::max(c1, std::floor(m1));
  // Minor-axis pixels outside the grown target saturate: they never emit.
  const auto pixel = [](double v) {
    return static_cast<int>(std::fmax(-2.0, std::fmin(std::floor(v), 0x1p30)));
  };
  const int step = static_cast<int>(dir);
  const int end = static_cast<int>(last) + step;
  for (int c = static_cast<int>(first); c != end; c += step) {
    const double t =
        dm == 0.0 ? 0.0 : std::clamp((c + 0.5 - m0) / dm, 0.0, 1.0);
    const int pn = pixel(std::lerp(n0, n1, t));
    if (!fn(t, x_major ? c : pn, x_major ? pn : c)) return;
  }
}

}  // namespace

void RasterizeLine(const RasterVertex& v0, const RasterVertex& v1,
                   int varying_cells, const RasterState& state,
                   FragmentBatch& batch, const BatchFlushFn& flush) {
  if (v0.clip[3] < kNearEps || v1.clip[3] < kNearEps) return;
  const DeviceVertex a = ToDevice(v0, varying_cells, state);
  const DeviceVertex b = ToDevice(v1, varying_cells, state);
  // Each pixel coordinate advances in one direction only, so once the walk
  // has passed the clip rect's far side on either axis it can never
  // re-enter — stop instead of stepping the remainder (per-tile runs of a
  // long line would otherwise each walk the full length). Stopping only
  // skips steps that emit nothing, so the emitted sequence is unchanged.
  const bool x_inc = b.x >= a.x;
  const bool y_inc = b.y >= a.y;
  WalkLine(a, b, state.target_w, state.target_h,
           [&](double t, int px, int py) {
    if ((x_inc ? px >= state.clip_x1 : px < state.clip_x0) ||
        (y_inc ? py >= state.clip_y1 : py < state.clip_y0)) {
      return false;
    }
    if (px < 0 || py < 0 || px >= state.target_w || py >= state.target_h) {
      return true;
    }
    // WalkLine computes each pixel from its own column alone, so per-tile
    // runs of the same line visit identical pixels; the rect only filters
    // emission.
    if (px < state.clip_x0 || py < state.clip_y0 || px >= state.clip_x1 ||
        py >= state.clip_y1) {
      return true;
    }
    // Perspective-correct parameter along the line.
    const double pw = (1.0 - t) * a.inv_w + t * b.inv_w;
    float* const vb = LaneVaryings(batch);
    for (int k = 0; k < varying_cells; ++k) {
      const std::size_t ki = static_cast<std::size_t>(k);
      vb[ki * kFragBatchWidth] =
          static_cast<float>(((1.0 - t) * a.inv_w * a.varyings[ki] +
                              t * b.inv_w * b.varyings[ki]) /
                             pw);
    }
    const double z = (1.0 - t) * a.z + t * b.z;
    Append(batch, flush, px, py, static_cast<float>(std::clamp(z, 0.0, 1.0)),
           true, 0.0f, 0.0f);
    return true;
  });
}

namespace {

// Clamps a device-space bbox to the target and reports emptiness. The
// doubles are clamped before the cast (a NaN to `hi`): a viewport near
// INT_MAX puts device coordinates past the int range.
bool FinishRect(double fx0, double fy0, double fx1, double fy1,
                const RasterState& s, PixelRect* out) {
  const auto to_pixel = [](double v, int hi) {
    return static_cast<int>(std::fmax(0.0, std::fmin(v, hi)));
  };
  out->x0 = to_pixel(std::floor(fx0), s.target_w);
  out->y0 = to_pixel(std::floor(fy0), s.target_h);
  out->x1 = to_pixel(std::ceil(fx1), s.target_w);
  out->y1 = to_pixel(std::ceil(fy1), s.target_h);
  return !out->Empty();
}

}  // namespace

bool TriangleBounds(const RasterVertex& v0, const RasterVertex& v1,
                    const RasterVertex& v2, const RasterState& state,
                    PixelRect* out) {
  const bool in0 = v0.clip[3] >= kNearEps;
  const bool in1 = v1.clip[3] >= kNearEps;
  const bool in2 = v2.clip[3] >= kNearEps;
  if (in0 && in1 && in2) {
    const DeviceVertex a = ToDevice(v0, 0, state);
    const DeviceVertex b = ToDevice(v1, 0, state);
    const DeviceVertex c = ToDevice(v2, 0, state);
    const double area = Orient2d(a.x, a.y, b.x, b.y, c.x, c.y);
    if (area == 0.0) return false;
    bool front = false;
    if (CullTest(area, state, &front)) return false;
    return FinishRect(std::min({a.x, b.x, c.x}), std::min({a.y, b.y, c.y}),
                      std::max({a.x, b.x, c.x}), std::max({a.y, b.y, c.y}),
                      state, out);
  }
  // Near-clipped: bound the clipped polygon (no cull test here — it is
  // conservative to bin a culled sliver; the rasterizer drops it per tile).
  const std::vector<RasterVertex> poly = ClipNear({v0, v1, v2}, 0);
  if (poly.size() < 3) return false;
  double fx0 = 0.0, fy0 = 0.0, fx1 = 0.0, fy1 = 0.0;
  bool first = true;
  for (const RasterVertex& v : poly) {
    const DeviceVertex d = ToDevice(v, 0, state);
    if (first) {
      fx0 = fx1 = d.x;
      fy0 = fy1 = d.y;
      first = false;
    } else {
      fx0 = std::min(fx0, d.x);
      fy0 = std::min(fy0, d.y);
      fx1 = std::max(fx1, d.x);
      fy1 = std::max(fy1, d.y);
    }
  }
  return FinishRect(fx0, fy0, fx1, fy1, state, out);
}

bool PointBounds(const RasterVertex& v, const RasterState& state,
                 PixelRect* out) {
  if (v.clip[3] < kNearEps) return false;
  const DeviceVertex d = ToDevice(v, 0, state);
  const double half = std::max(1.0f, d.point_size) * 0.5;
  return FinishRect(d.x - half, d.y - half, d.x + half, d.y + half, state,
                    out);
}

void LineTouchedTiles(const RasterVertex& v0, const RasterVertex& v1,
                      const RasterState& state, int tile_size,
                      const std::function<void(int, int)>& tile_fn) {
  if (v0.clip[3] < kNearEps || v1.clip[3] < kNearEps) return;
  const DeviceVertex a = ToDevice(v0, 0, state);
  const DeviceVertex b = ToDevice(v1, 0, state);
  const bool x_inc = b.x >= a.x;
  const bool y_inc = b.y >= a.y;
  int last_tx = INT_MIN, last_ty = INT_MIN;
  WalkLine(a, b, state.target_w, state.target_h,
           [&](double, int px, int py) {
    // Monotone walk: once past the target's far side on either axis the
    // line never comes back in.
    if ((x_inc ? px >= state.target_w : px < 0) ||
        (y_inc ? py >= state.target_h : py < 0)) {
      return false;
    }
    if (px < 0 || py < 0 || px >= state.target_w || py >= state.target_h) {
      return true;
    }
    const int tx = px / tile_size;
    const int ty = py / tile_size;
    // The walk's pixel coordinates advance monotonically (each axis one
    // direction only), so tile pairs repeat only consecutively: comparing
    // against the previous pair is a complete dedup.
    if (tx == last_tx && ty == last_ty) return true;
    last_tx = tx;
    last_ty = ty;
    tile_fn(tx, ty);
    return true;
  });
}

}  // namespace mgpu::gles2
