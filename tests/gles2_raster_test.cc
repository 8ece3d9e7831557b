// Rasterizer invariants. The critical property for the paper's framework:
// the two-triangle fullscreen quad (challenge 2) shades every pixel exactly
// once, and varyings arrive at fragment (i, j) exactly as ((i+0.5)/W,
// (j+0.5)/H).
#include "gles2/raster.h"

#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include "gtest/gtest.h"

namespace mgpu::gles2 {
namespace {

RasterVertex V(float x, float y, std::vector<float> varyings = {},
               float w = 1.0f) {
  RasterVertex v;
  v.clip = {x * w, y * w, 0.0f, w};
  v.varyings = std::move(varyings);
  return v;
}

// One fragment as the assertions below see it: window x, y, depth,
// interpolated varyings, facingness and the point-sprite coordinate.
using FragmentFn = std::function<void(int x, int y, float depth,
                                      const float* varyings, bool front,
                                      float point_s, float point_t)>;

// Hands every fragment in `b` to `fn` in emission order, gathering each
// lane's varying column into contiguous cells, and empties the batch.
void DrainBatch(FragmentBatch& b, int varying_cells, const FragmentFn& fn) {
  std::array<float, kMaxVaryingCells> vars{};
  for (int l = 0; l < b.count; ++l) {
    const std::size_t li = static_cast<std::size_t>(l);
    for (int k = 0; k < varying_cells; ++k) {
      vars[static_cast<std::size_t>(k)] =
          b.varyings[static_cast<std::size_t>(k) * kFragBatchWidth + li];
    }
    fn(b.x[li], b.y[li], b.depth[li], vars.data(), b.front[li] != 0,
       b.point_s[li], b.point_t[li]);
  }
  b.count = 0;
}

// Each Drain* rasterizes one primitive through a FragmentBatch whose flush
// (and the final tail flush) drains into `fn`.
void DrainTriangle(const RasterVertex& v0, const RasterVertex& v1,
                   const RasterVertex& v2, int varying_cells,
                   const RasterState& s, const FragmentFn& fn) {
  FragmentBatch batch;
  const BatchFlushFn flush = [&] { DrainBatch(batch, varying_cells, fn); };
  RasterizeTriangle(v0, v1, v2, varying_cells, s, batch, flush);
  flush();
}

void DrainPoint(const RasterVertex& v, int varying_cells,
                const RasterState& s, const FragmentFn& fn) {
  FragmentBatch batch;
  const BatchFlushFn flush = [&] { DrainBatch(batch, varying_cells, fn); };
  RasterizePoint(v, varying_cells, s, batch, flush);
  flush();
}

void DrainLine(const RasterVertex& v0, const RasterVertex& v1,
               int varying_cells, const RasterState& s,
               const FragmentFn& fn) {
  FragmentBatch batch;
  const BatchFlushFn flush = [&] { DrainBatch(batch, varying_cells, fn); };
  RasterizeLine(v0, v1, varying_cells, s, batch, flush);
  flush();
}

RasterState State(int w, int h) {
  RasterState s;
  s.viewport_w = w;
  s.viewport_h = h;
  s.target_w = w;
  s.target_h = h;
  return s;
}

class CoverageCounter {
 public:
  explicit CoverageCounter(int w) : w_(w) {}
  FragmentFn Sink() {
    return [this](int x, int y, float, const float*, bool, float, float) {
      counts_[y * w_ + x]++;
    };
  }
  [[nodiscard]] const std::map<int, int>& counts() const { return counts_; }
  int w_;
  std::map<int, int> counts_;
};

class QuadCoverage : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QuadCoverage, TwoTrianglesCoverEveryPixelExactlyOnce) {
  const auto [w, h] = GetParam();
  const RasterState s = State(w, h);
  CoverageCounter cc(w);
  const auto sink = cc.Sink();
  // The same two-triangle split the compute framework uses.
  DrainTriangle(V(-1, -1), V(1, -1), V(1, 1), 0, s, sink);
  DrainTriangle(V(-1, -1), V(1, 1), V(-1, 1), 0, s, sink);
  ASSERT_EQ(cc.counts().size(), static_cast<std::size_t>(w) * h)
      << "not every pixel was covered";
  for (const auto& [pix, count] : cc.counts()) {
    EXPECT_EQ(count, 1) << "pixel " << pix % w << "," << pix / w
                        << " shaded " << count << " times (fill rule bug)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, QuadCoverage,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 2}, std::pair{4, 4},
                      std::pair{16, 16}, std::pair{64, 64}, std::pair{5, 7},
                      std::pair{33, 17}, std::pair{128, 1},
                      std::pair{1, 128}));

TEST(RasterTest, AdjacentTrianglesShareEdgeWithoutDoubleShading) {
  // Vertical shared edge through pixel centers.
  const RasterState s = State(8, 8);
  CoverageCounter cc(8);
  const auto sink = cc.Sink();
  DrainTriangle(V(-1, -1), V(0, -1), V(0, 1), 0, s, sink);
  DrainTriangle(V(-1, -1), V(0, 1), V(-1, 1), 0, s, sink);
  DrainTriangle(V(0, -1), V(1, -1), V(1, 1), 0, s, sink);
  DrainTriangle(V(0, -1), V(1, 1), V(0, 1), 0, s, sink);
  ASSERT_EQ(cc.counts().size(), 64u);
  for (const auto& [pix, count] : cc.counts()) {
    EXPECT_EQ(count, 1) << "pixel " << pix;
  }
}

TEST(RasterTest, VaryingInterpolationHitsTexelCenters) {
  // Varying v = (uv.x, uv.y) over the quad; fragment (i, j) must receive
  // ((i+0.5)/W, (j+0.5)/H) to float accuracy (challenge 4 addressing).
  const int w = 16, h = 16;
  const RasterState s = State(w, h);
  int checked = 0;
  const FragmentFn sink = [&](int x, int y, float, const float* vars, bool,
                              float, float) {
    const float expect_u = (static_cast<float>(x) + 0.5f) / w;
    const float expect_v = (static_cast<float>(y) + 0.5f) / h;
    EXPECT_NEAR(vars[0], expect_u, 1e-6f);
    EXPECT_NEAR(vars[1], expect_v, 1e-6f);
    ++checked;
  };
  DrainTriangle(V(-1, -1, {0, 0}), V(1, -1, {1, 0}), V(1, 1, {1, 1}), 2,
                    s, sink);
  DrainTriangle(V(-1, -1, {0, 0}), V(1, 1, {1, 1}), V(-1, 1, {0, 1}), 2,
                    s, sink);
  EXPECT_EQ(checked, w * h);
}

TEST(RasterTest, DegenerateTriangleEmitsNothing) {
  const RasterState s = State(8, 8);
  CoverageCounter cc(8);
  const auto sink = cc.Sink();
  DrainTriangle(V(-1, -1), V(-1, -1), V(1, 1), 0, s, sink);
  EXPECT_TRUE(cc.counts().empty());
}

TEST(RasterTest, BackfaceCulling) {
  RasterState s = State(8, 8);
  s.cull_enabled = true;
  s.cull_face = GL_BACK;
  s.front_face = GL_CCW;
  CoverageCounter cc(8);
  const auto sink = cc.Sink();
  // Clockwise triangle = back-facing under CCW front: culled.
  DrainTriangle(V(-1, -1), V(1, 1), V(1, -1), 0, s, sink);
  EXPECT_TRUE(cc.counts().empty());
  // Counter-clockwise: kept.
  DrainTriangle(V(-1, -1), V(1, -1), V(1, 1), 0, s, sink);
  EXPECT_FALSE(cc.counts().empty());
}

TEST(RasterTest, FrontFacingFlagReported) {
  const RasterState s = State(4, 4);
  bool saw_front = false, saw_back = false;
  const FragmentFn sink = [&](int, int, float, const float*, bool front,
                              float, float) {
    (front ? saw_front : saw_back) = true;
  };
  DrainTriangle(V(-1, -1), V(1, -1), V(1, 1), 0, s, sink);  // CCW
  DrainTriangle(V(-1, -1), V(1, 1), V(1, -1), 0, s, sink);  // CW
  EXPECT_TRUE(saw_front);
  EXPECT_TRUE(saw_back);
}

TEST(RasterTest, OffscreenGeometryClampedToTarget) {
  const RasterState s = State(4, 4);
  CoverageCounter cc(4);
  const auto sink = cc.Sink();
  // Triangle extending far beyond the viewport.
  DrainTriangle(V(-10, -10), V(10, -10), V(10, 10), 0, s, sink);
  for (const auto& [pix, count] : cc.counts()) {
    EXPECT_LT(pix, 16);
    EXPECT_EQ(count, 1);
  }
}

TEST(RasterTest, BehindCameraVertexClipped) {
  const RasterState s = State(8, 8);
  CoverageCounter cc(8);
  const auto sink = cc.Sink();
  RasterVertex behind = V(0, 1);
  behind.clip = {0.0f, 1.0f, 0.0f, -1.0f};  // w < 0: behind the camera
  DrainTriangle(V(-1, -1), V(1, -1), behind, 0, s, sink);
  // Must not crash or emit garbage; some pixels may legitimately appear.
  for (const auto& [pix, count] : cc.counts()) {
    EXPECT_LT(pix, 64);
    EXPECT_GE(count, 1);
  }
}

TEST(RasterTest, PerspectiveCorrectInterpolation) {
  // Two vertices at different w; the varying must interpolate rationally,
  // not linearly, in screen space.
  const RasterState s = State(9, 9);
  RasterVertex a = V(-1, -1, {0.0f});
  RasterVertex b = V(1, -1, {1.0f}, 2.0f);  // w = 2
  RasterVertex c = V(1, 1, {1.0f}, 2.0f);
  float mid_value = -1.0f;
  const FragmentFn sink = [&](int x, int y, float, const float* vars, bool,
                              float, float) {
    if (x == 4 && y == 2) mid_value = vars[0];
  };
  DrainTriangle(a, b, c, 1, s, sink);
  ASSERT_GE(mid_value, 0.0f);
  // Screen-linear interpolation would give ~0.5 at the midpoint; perspective
  // correction pulls it toward the w=1 vertex's value.
  EXPECT_LT(mid_value, 0.5f);
  EXPECT_GT(mid_value, 0.2f);
}

TEST(RasterTest, PointSpriteCoverageAndPointCoord) {
  const RasterState s = State(8, 8);
  RasterVertex p = V(0, 0);
  p.point_size = 4.0f;
  int frags = 0;
  float min_ps = 2.0f, max_ps = -1.0f;
  const FragmentFn sink = [&](int, int, float, const float*, bool,
                              float ps, float pt) {
    ++frags;
    min_ps = std::min(min_ps, ps);
    max_ps = std::max(max_ps, std::max(ps, pt));
  };
  DrainPoint(p, 0, s, sink);
  EXPECT_EQ(frags, 16);  // 4x4 sprite
  EXPECT_GE(min_ps, 0.0f);
  EXPECT_LE(max_ps, 1.0f);
}

TEST(RasterTest, LineConnectsEndpoints) {
  const RasterState s = State(8, 8);
  std::vector<std::pair<int, int>> pixels;
  const FragmentFn sink = [&](int x, int y, float, const float*, bool,
                              float, float) {
    pixels.emplace_back(x, y);
  };
  DrainLine(V(-1, -1), V(1, 1), 0, s, sink);
  ASSERT_FALSE(pixels.empty());
  EXPECT_EQ(pixels.front(), (std::pair{0, 0}));
  EXPECT_EQ(pixels.back(), (std::pair{7, 7}));
}

TEST(RasterTest, ViewportOffsetShiftsOutput) {
  RasterState s = State(8, 8);
  s.viewport_x = 4;
  s.viewport_y = 4;
  s.viewport_w = 4;
  s.viewport_h = 4;
  CoverageCounter cc(8);
  const auto sink = cc.Sink();
  DrainTriangle(V(-1, -1), V(1, -1), V(1, 1), 0, s, sink);
  DrainTriangle(V(-1, -1), V(1, 1), V(-1, 1), 0, s, sink);
  ASSERT_EQ(cc.counts().size(), 16u);
  for (const auto& [pix, count] : cc.counts()) {
    EXPECT_GE(pix % 8, 4);
    EXPECT_GE(pix / 8, 4);
    EXPECT_EQ(count, 1);
  }
}

}  // namespace
}  // namespace mgpu::gles2
