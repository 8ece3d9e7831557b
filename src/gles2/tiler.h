// Tile binning for the two-phase, VC4-style fragment pipeline. The real
// VideoCore IV is a tile-based renderer: a binning pass assigns primitives
// to 64x64 tile lists, then the QPUs shade tiles independently. This module
// reproduces that structure in the simulator: post-clip primitives are
// binned by their window-space bounds, and the draw loop (gles2::Context)
// shades the non-empty tiles — serially or on a worker pool, with each
// tile's covered fragments gathered into fixed-width SoA lane batches and
// dispatched through ShaderEngine::RunBatch, kVmLanes wide under the default
// batched engine (the batch tail flushes at tile end, inside the tile's TMU-cache
// session). Because tiles partition the framebuffer and each bin preserves
// primitive submission order, the shaded result is byte-identical for any
// tile execution order and any worker count.
//
// Bins live in a compact slot list, one slot per tile a draw touches,
// addressed through a dense per-tile index sized to the tile grid (at most
// 64x64 entries for a 4096x4096 target). BeginDraw clears only the index
// entries the previous draw used and recycles the slots and their prims
// vectors, so a steady-state draw loop performs no per-draw allocation and
// a tiny draw on a big target costs O(touched tiles), not O(grid).
#ifndef MGPU_GLES2_TILER_H_
#define MGPU_GLES2_TILER_H_

#include <cstdint>
#include <vector>

#include "gles2/raster.h"

namespace mgpu::gles2 {

// Tile edge length in pixels, matching the VideoCore IV binning granularity
// (64x64 in non-multisample mode).
inline constexpr int kTileSize = 64;

// One assembled primitive: vertex indices into the draw's post-transform
// vertex array. Points use v0; lines v0/v1; triangles all three (already in
// the winding the raster functions expect, i.e. strip parity is resolved at
// assembly time).
struct TilePrim {
  enum class Kind : std::uint8_t { kTriangle, kPoint, kLine };
  Kind kind = Kind::kTriangle;
  std::uint32_t v0 = 0;
  std::uint32_t v1 = 0;
  std::uint32_t v2 = 0;
};

class TileBinner {
 public:
  struct Tile {
    PixelRect rect;                     // clamped to the target
    std::vector<std::uint32_t> prims;   // primitive indices, submission order
  };

  TileBinner() = default;
  // Convenience for tests: a binner already prepared for one draw.
  TileBinner(int target_w, int target_h) { BeginDraw(target_w, target_h); }

  // Prepares for a new draw over a target_w x target_h target, dropping all
  // bins of the previous draw. Reuses every prior heap allocation (tile
  // slots, their prims vectors, the index), so repeated draws allocate only
  // when they touch more tiles, or a bigger grid, than any draw before.
  void BeginDraw(int target_w, int target_h);

  [[nodiscard]] int tiles_x() const { return tiles_x_; }
  [[nodiscard]] int tiles_y() const { return tiles_y_; }

  // Bins primitive `prim_index` into every tile its bounds rect touches.
  // `bounds` must already be clamped to the target (see *Bounds in
  // raster.h).
  void Bin(std::uint32_t prim_index, const PixelRect& bounds);

  // Bins primitive `prim_index` into the single tile (tx, ty). Used with
  // LineTouchedTiles, which walks the line and reports each touched tile
  // exactly once. Out-of-range tiles are ignored.
  void BinTile(std::uint32_t prim_index, int tx, int ty);

  // The bin of a row-major tile index returned by NonEmptyTiles. Must only
  // be called with indices of tiles binned this draw.
  [[nodiscard]] const Tile& tile(std::uint32_t index) const;

  // Row-major indices of the tiles that received at least one primitive —
  // the shading work list, ascending (the same order the old dense grid
  // walk produced, so results are reproducible across binner versions).
  void NonEmptyTiles(std::vector<std::uint32_t>* out) const;
  [[nodiscard]] std::vector<std::uint32_t> NonEmptyTiles() const {
    std::vector<std::uint32_t> out;
    NonEmptyTiles(&out);
    return out;
  }

  // Heap telemetry for the allocation-reuse tests: the number of tile slots
  // and index entries currently reserved. Steady-state draw loops must keep
  // both constant (BeginDraw never shrinks, Bin only grows on a high-water
  // mark).
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t index_capacity() const { return index_.size(); }

 private:
  // Index entry of a tile no bin holds this draw.
  static constexpr std::uint32_t kNoSlot = ~0u;

  [[nodiscard]] Tile& SlotFor(int tx, int ty);

  int target_w_ = 0;
  int target_h_ = 0;
  int tiles_x_ = 0;
  int tiles_y_ = 0;
  std::vector<Tile> slots_;   // first used_ entries belong to this draw
  std::size_t used_ = 0;
  // Row-major tile index -> slot, kNoSlot when empty; at least
  // tiles_x_ * tiles_y_ entries.
  std::vector<std::uint32_t> index_;
};

}  // namespace mgpu::gles2

#endif  // MGPU_GLES2_TILER_H_
