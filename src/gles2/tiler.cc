#include "gles2/tiler.h"

#include <algorithm>
#include <cassert>
#include <new>

#include "common/fault.h"

namespace mgpu::gles2 {

namespace {

// Row-major index of the tile whose rect starts at (x0, y0).
std::uint32_t TileIndexOf(const PixelRect& rect, int tiles_x) {
  return static_cast<std::uint32_t>(rect.y0 / kTileSize) *
             static_cast<std::uint32_t>(tiles_x) +
         static_cast<std::uint32_t>(rect.x0 / kTileSize);
}

}  // namespace

void TileBinner::BeginDraw(int target_w, int target_h) {
  // Empty the index entries the previous draw used (under its grid), so
  // clearing costs O(touched tiles); the slots keep their storage (slot
  // prims are cleared on reuse in SlotFor, which preserves their capacity
  // too).
  for (std::size_t i = 0; i < used_; ++i) {
    index_[TileIndexOf(slots_[i].rect, tiles_x_)] = kNoSlot;
  }
  used_ = 0;
  const int tiles_x = std::max(0, (target_w + kTileSize - 1) / kTileSize);
  const int tiles_y = std::max(0, (target_h + kTileSize - 1) / kTileSize);
  const std::size_t tiles =
      static_cast<std::size_t>(tiles_x) * static_cast<std::size_t>(tiles_y);
  if (tiles > index_.size()) {
    // Injectable growth failure: binning happens before any framebuffer
    // write, so the context turns this into a clean no-op draw. A failed
    // grow keeps the previous grid, with every bin empty.
    if (fault::ShouldFail(fault::Site::kBinnerGrow)) throw std::bad_alloc();
    index_.resize(tiles, kNoSlot);
  }
  target_w_ = target_w;
  target_h_ = target_h;
  tiles_x_ = tiles_x;
  tiles_y_ = tiles_y;
}

TileBinner::Tile& TileBinner::SlotFor(int tx, int ty) {
  std::uint32_t& slot =
      index_[static_cast<std::size_t>(ty) * static_cast<std::size_t>(tiles_x_) +
             static_cast<std::size_t>(tx)];
  if (slot != kNoSlot) return slots_[slot];
  if (used_ == slots_.size()) {
    // Injectable growth failure, as in BeginDraw.
    if (fault::ShouldFail(fault::Site::kBinnerGrow)) throw std::bad_alloc();
    slots_.emplace_back();
  }
  slot = static_cast<std::uint32_t>(used_);
  Tile& t = slots_[used_++];
  t.prims.clear();  // keeps capacity from previous draws
  t.rect.x0 = tx * kTileSize;
  t.rect.y0 = ty * kTileSize;
  t.rect.x1 = std::min(t.rect.x0 + kTileSize, target_w_);
  t.rect.y1 = std::min(t.rect.y0 + kTileSize, target_h_);
  return t;
}

void TileBinner::Bin(std::uint32_t prim_index, const PixelRect& bounds) {
  if (bounds.Empty() || tiles_x_ <= 0 || tiles_y_ <= 0) return;
  const int tx0 = std::clamp(bounds.x0 / kTileSize, 0, tiles_x_ - 1);
  const int ty0 = std::clamp(bounds.y0 / kTileSize, 0, tiles_y_ - 1);
  const int tx1 = std::clamp((bounds.x1 - 1) / kTileSize, 0, tiles_x_ - 1);
  const int ty1 = std::clamp((bounds.y1 - 1) / kTileSize, 0, tiles_y_ - 1);
  for (int ty = ty0; ty <= ty1; ++ty) {
    for (int tx = tx0; tx <= tx1; ++tx) {
      SlotFor(tx, ty).prims.push_back(prim_index);
    }
  }
}

void TileBinner::BinTile(std::uint32_t prim_index, int tx, int ty) {
  if (tx < 0 || ty < 0 || tx >= tiles_x_ || ty >= tiles_y_) return;
  SlotFor(tx, ty).prims.push_back(prim_index);
}

const TileBinner::Tile& TileBinner::tile(std::uint32_t index) const {
  if (index < index_.size() && index_[index] != kNoSlot) {
    return slots_[index_[index]];
  }
  // Contract violation (an index not binned this draw): an empty tile is
  // the harmless answer — its rect rasterizes nothing.
  assert(false && "tile() requires an index binned this draw");
  static const Tile kEmpty{};
  return kEmpty;
}

void TileBinner::NonEmptyTiles(std::vector<std::uint32_t>* out) const {
  out->clear();
  out->reserve(used_);
  // Recover each used slot's row-major index from its rect (cheaper than
  // storing it twice) and sort ascending to reproduce the dense grid walk.
  for (std::size_t i = 0; i < used_; ++i) {
    out->push_back(TileIndexOf(slots_[i].rect, tiles_x_));
  }
  std::sort(out->begin(), out->end());
}

}  // namespace mgpu::gles2
