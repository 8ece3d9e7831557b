// Primitive rasterization: near-plane clipping, viewport transform,
// top-left-rule edge-function triangle fill with perspective-correct varying
// interpolation, plus points and lines. Coordinates follow GL conventions
// (window origin at the bottom-left, pixel centers at half-integers).
#ifndef MGPU_GLES2_RASTER_H_
#define MGPU_GLES2_RASTER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "gles2/enums.h"

namespace mgpu::gles2 {

struct RasterVertex {
  std::array<float, 4> clip{0.0f, 0.0f, 0.0f, 1.0f};
  std::vector<float> varyings;
  float point_size = 1.0f;
};

// Half-open pixel rectangle [x0, x1) x [y0, y1).
struct PixelRect {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
  [[nodiscard]] bool Empty() const { return x0 >= x1 || y0 >= y1; }
};

struct RasterState {
  int viewport_x = 0;
  int viewport_y = 0;
  int viewport_w = 0;
  int viewport_h = 0;
  int target_w = 0;   // render target bounds (fragments outside are dropped)
  int target_h = 0;
  bool cull_enabled = false;
  GLenum cull_face = GL_BACK;
  GLenum front_face = GL_CCW;
  // Additional pixel-space clip rectangle, intersected with the target
  // bounds. The tiled pipeline points this at the tile being shaded, so the
  // per-tile rasterizations of one primitive partition its fragments
  // exactly (each pixel belongs to exactly one tile). Defaults to
  // unbounded, i.e. plain whole-target rasterization.
  int clip_x0 = 0;
  int clip_y0 = 0;
  int clip_x1 = std::numeric_limits<int>::max();
  int clip_y1 = std::numeric_limits<int>::max();
};

// Upper bound on flattened varying cells a draw interpolates (8 varying
// vec4s); sizes the batch's varying planes.
inline constexpr int kMaxVaryingCells = 64;

// Lane width of a fragment batch: the rasterizer flushes once this many
// fragments are queued, so one batched shader dispatch covers a full batch.
// Must equal glsl::kVmLanes (the raster layer stays glsl-free;
// gles2::Context static_asserts the match).
inline constexpr int kFragBatchWidth = 32;

// A fixed-width batch of covered fragments in SoA ("structure of planes")
// layout: per-fragment scalars in parallel arrays, interpolated varyings as
// cell-major planes so the batched VM reads each varying cell's lanes
// contiguously. The rasterizer appends fragments in emission order (writes
// drain in append order, so depth/blend results do not depend on how a
// batch is shaded) and calls the flush callback when the batch fills; the
// tile loop flushes the tail. Lane l of a fragment is:
//   x[l], y[l]              window pixel (integer coordinates)
//   depth[l]                window-space depth in [0,1]
//   front[l]                facingness (1 = front)
//   point_s[l], point_t[l]  point-sprite coordinate (points; 0 otherwise)
struct FragmentBatch {
  int count = 0;
  std::array<std::int32_t, kFragBatchWidth> x;
  std::array<std::int32_t, kFragBatchWidth> y;
  std::array<float, kFragBatchWidth> depth;
  std::array<std::uint8_t, kFragBatchWidth> front;
  std::array<float, kFragBatchWidth> point_s;
  std::array<float, kFragBatchWidth> point_t;
  // Varying cell k of lane l lives at [k * kFragBatchWidth + l].
  std::array<float, kMaxVaryingCells * kFragBatchWidth> varyings;
};

// Shades and drains a full batch (must leave batch.count == 0).
using BatchFlushFn = std::function<void()>;

// Rasterizers: covered fragments are appended in emission order straight
// into `batch`'s SoA planes, and `flush` fires whenever the batch fills.
// Callers flush the tail themselves (the tile loop does it per tile, before
// the TMU-cache model resets).
void RasterizeTriangle(const RasterVertex& v0, const RasterVertex& v1,
                       const RasterVertex& v2, int varying_cells,
                       const RasterState& state, FragmentBatch& batch,
                       const BatchFlushFn& flush);

void RasterizePoint(const RasterVertex& v, int varying_cells,
                    const RasterState& state, FragmentBatch& batch,
                    const BatchFlushFn& flush);

void RasterizeLine(const RasterVertex& v0, const RasterVertex& v1,
                   int varying_cells, const RasterState& state,
                   FragmentBatch& batch, const BatchFlushFn& flush);

// Conservative window-space pixel bounds of a primitive, clamped to the
// render target — what the tile binner uses to assign primitives to tile
// bins. Returns false when the primitive can produce no fragments (fully
// near-clipped, culled, degenerate, or off-target). A true return with a
// non-empty rect guarantees every fragment the primitive emits lies inside
// the rect; the rect may cover tiles the primitive does not actually touch
// (those rasterize to nothing).
[[nodiscard]] bool TriangleBounds(const RasterVertex& v0,
                                  const RasterVertex& v1,
                                  const RasterVertex& v2,
                                  const RasterState& state, PixelRect* out);
[[nodiscard]] bool PointBounds(const RasterVertex& v, const RasterState& state,
                               PixelRect* out);

// Reports each tile_size-aligned tile whose pixels the line touches, in
// walk order without repeats (the walk is shared with RasterizeLine, so the
// reported tiles are exactly the ones that will emit fragments). Lines are
// binned this way rather than by bounding box — a diagonal line's bbox
// covers quadratically many tiles it never touches.
void LineTouchedTiles(const RasterVertex& v0, const RasterVertex& v1,
                      const RasterState& state, int tile_size,
                      const std::function<void(int tx, int ty)>& tile_fn);

}  // namespace mgpu::gles2

#endif  // MGPU_GLES2_RASTER_H_
