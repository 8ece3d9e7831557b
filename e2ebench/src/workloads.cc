#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <utility>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compute/buffer.h"
#include "compute/device.h"
#include "compute/kernel.h"
#include "cpuref/cpuref.h"
#include "vc4/profiles.h"

namespace e2ebench {
namespace {

using mgpu::Rng;
using mgpu::StrFormat;
using mgpu::compute::ElemType;
using mgpu::compute::Kernel;
using mgpu::compute::MultiKernel;
using mgpu::compute::PackedBuffer;
namespace gl = mgpu::gles2;

// Paper §V: GPU floats agree with the CPU "within the 15 most significant
// bits of the mantissa". Measured against the magnitude of the terms that
// produced a value, since cancellation cannot beat the inputs' own error.
constexpr double kFloatAgreeBits = 15.0;

// Per-op input stream: the same (seed, op) always yields the same inputs.
Rng OpRng(std::uint64_t seed, std::uint64_t op) {
  return Rng(seed * 0x9E3779B97F4A7C15ull ^ (op + 1) * 0xD1B54A32D192ED03ull);
}

template <typename T>
std::uint64_t HashOf(const std::vector<T>& v, std::uint64_t h = 14695981039346656037ull) {
  return Fnv64(v.data(), v.size() * sizeof(T), h);
}

// Tracks the worst float agreement of one op's output, in mantissa bits
// relative to each element's term magnitude.
class FloatAgreement {
 public:
  void Add(float gpu, float cpu, double scale) {
    const double err = std::fabs(static_cast<double>(gpu) - cpu);
    if (!std::isfinite(gpu)) {
      bits_ = -1.0;
      return;
    }
    if (err == 0.0 || scale == 0.0) return;
    bits_ = std::min(bits_, -std::log2(err / scale));
  }
  // Fails `check` when the agreement is below the paper's.
  void Apply(OpCheck& check, const char* what) const {
    if (bits_ < kFloatAgreeBits && check.ok) {
      check.ok = false;
      check.error = StrFormat("%s: floats agree to %.2f bits (< %.0f)", what,
                              bits_, kFloatAgreeBits);
    }
  }

 private:
  double bits_ = 99.0;
};

void Fail(OpCheck& check, std::string error) {
  if (!check.ok) return;
  check.ok = false;
  check.error = std::move(error);
}

// ---------------------------------------------------------------------------
// Compute workloads: one mgpu::compute::Device, and every call into the
// compute layer made through Call() so the traced run can time it.
class ComputeWorkload : public Workload {
 public:
  void Setup() override { device_ = std::make_unique<mgpu::compute::Device>(); }

  OpCheck Check() override {
    OpCheck check;
    Verify(check);
    check.work = device_->ConsumeWork();
    return check;
  }

  GlStats ReadGlStats() override {
    gl::Context& ctx = device_->gl();
    GlStats s;
    s.cmd = ctx.command_stream_stats();
    const gl::ShadeStateCache& cache = ctx.shade_state_cache();
    s.cache_hits = cache.hits();
    s.cache_misses = cache.misses();
    s.cache_evictions = cache.evictions();
    s.own_syncs = ctx.async_submit_enabled() ? 2 : 0;
    return s;
  }

  std::uint64_t traced_finishes() const override { return finishes_; }
  gl::Context& gl() override { return device_->gl(); }

 protected:
  virtual void Verify(OpCheck& check) = 0;

  void BeginOp(Tracer* tracer) {
    tracer_ = tracer;
    finishes_ = 0;
  }

  // Runs one compute call under `span`. In the traced run the device is
  // then joined under its own span, so record and execution are separated.
  template <typename F>
  void Call(const char* span, F&& f) {
    if (tracer_ == nullptr) {
      f();
      return;
    }
    {
      Scope s(tracer_, span);
      f();
    }
    Scope s(tracer_, kSpanDeviceWait);
    device_->gl().Finish();
    ++finishes_;
  }

  template <typename... Args>
  std::unique_ptr<PackedBuffer> NewBuffer(Args... args) {
    std::unique_ptr<PackedBuffer> b;
    Call(kSpanBuffer,
         [&] { b = std::make_unique<PackedBuffer>(*device_, args...); });
    return b;
  }
  template <typename T>
  void Upload(PackedBuffer& b, const std::vector<T>& v) {
    Call(kSpanUpload, [&] { b.Upload(std::span<const T>(v)); });
  }
  template <typename T>
  void Download(PackedBuffer& b, std::vector<T>& v) {
    Call(kSpanDownload, [&] { b.Download(std::span<T>(v)); });
  }
  template <typename K, typename Options>
  std::unique_ptr<K> Build(Options options) {
    std::unique_ptr<K> k;
    Call(kSpanKernelBuild,
         [&] { k = std::make_unique<K>(*device_, std::move(options)); });
    return k;
  }
  void Uniform(Kernel& k, const std::string& name, float v) {
    Call(kSpanUniform, [&] { k.SetUniform1f(name, v); });
  }
  void Dispatch(Kernel& k, PackedBuffer& out,
                std::initializer_list<PackedBuffer*> in) {
    Call(kSpanDispatch, [&] { k.Run(out, in); });
  }
  void Dispatch(MultiKernel& k, std::initializer_list<PackedBuffer*> outs,
                std::initializer_list<PackedBuffer*> in) {
    Call(kSpanDispatch, [&] { k.Run(outs, in); });
  }
  // Destroys a buffer or kernel under the span of the call that made it.
  template <typename P>
  void Release(const char* span, std::unique_ptr<P>& p) {
    Call(span, [&] { p.reset(); });
  }

  std::unique_ptr<mgpu::compute::Device> device_;

 private:
  Tracer* tracer_ = nullptr;
  std::uint64_t finishes_ = 0;
};

// Kernel bodies of the paper's applications, as compute::ops writes them.
constexpr char kAddBody[] = R"(
float gp_kernel(vec2 gp_pos) {
  float i = gp_linear_index();
  return gp_fetch_u_a(i) + gp_fetch_u_b(i);
}
)";

constexpr char kGemmBody[] = R"(
float gp_kernel(vec2 gp_pos) {
  float acc = 0.0;
  for (int k = 0; k < GP_K; ++k) {
    acc += gp_fetch2_u_a(float(k), gp_pos.y) *
           gp_fetch2_u_b(gp_pos.x, float(k));
  }
  return acc;
}
)";

constexpr char kSaxpyBody[] = R"(
float gp_kernel(vec2 gp_pos) {
  float i = gp_linear_index();
  return u_alpha * gp_fetch_u_x(i) + gp_fetch_u_y(i);
}
)";

constexpr char kReduce4Body[] = R"(
float gp_kernel(vec2 gp_pos) {
  float j = gp_linear_index();
  if (j >= u_count) { return 0.0; }
  float i = j * 4.0;
  return gp_fetch_u_src(i) + gp_fetch_u_src(i + 1.0) +
         gp_fetch_u_src(i + 2.0) + gp_fetch_u_src(i + 3.0);
}
)";

constexpr char kMinMaxBody[] = R"(
void gp_kernel_multi(vec2 gp_pos, out float o0, out float o1) {
  float i = gp_linear_index() * 4.0;
  float a = gp_fetch_u_src(i);
  float b = gp_fetch_u_src(i + 1.0);
  float c = gp_fetch_u_src(i + 2.0);
  float e = gp_fetch_u_src(i + 3.0);
  o0 = min(min(a, b), min(c, e));
  o1 = max(max(a, b), max(c, e));
}
)";

constexpr char kConvBody[] = R"(
vec4 gp_row_conv(vec4 l, vec4 c, vec4 r, float w0, float w1, float w2) {
  vec4 left = vec4(l.a, c.r, c.g, c.b);
  vec4 right = vec4(c.g, c.b, c.a, r.r);
  return left * w0 + c * w1 + right * w2;
}

vec4 gp_kernel(vec2 gp_pos) {
  float x = gp_pos.x;
  vec4 acc = vec4(0.0);
  for (int dy = -1; dy <= 1; ++dy) {
    float y = gp_pos.y + float(dy);
    vec4 l = gp_fetch2_u_img(x - 1.0, y);
    vec4 c = gp_fetch2_u_img(x, y);
    vec4 r = gp_fetch2_u_img(x + 1.0, y);
    if (x < 0.5) { l = vec4(c.r); }
    if (x > gp_size_u_img.x - 1.5) { r = vec4(c.a); }
    int row = dy + 1;
    acc += gp_row_conv(l, c, r, u_w[row * 3 + 0], u_w[row * 3 + 1],
                       u_w[row * 3 + 2]);
  }
  return clamp(acc, 0.0, 255.0);
}
)";

// A Section V application per op, alternating f32 and i32: allocate A, B
// and C, upload A and B, build the kernel, run it, download C, and release
// everything.
class PaperAppWorkload : public ComputeWorkload {
 public:
  int WarmupOps() const override { return 2; }
  const char* OpKind(std::uint64_t op) const override {
    return op % 2 == 0 ? "f32" : "i32";
  }

 protected:
  explicit PaperAppWorkload(std::uint64_t seed) : seed_(seed) {}

  template <typename... Shape>
  void RunApp(Tracer* tracer, const char* name, const std::string& decls,
              const char* body, Shape... shape) {
    BeginOp(tracer);
    const ElemType t = f32_ ? ElemType::kF32 : ElemType::kI32;
    auto a = NewBuffer(t, shape...);
    auto b = NewBuffer(t, shape...);
    auto c = NewBuffer(t, shape...);
    if (f32_) {
      Upload(*a, fa_);
      Upload(*b, fb_);
    } else {
      Upload(*a, ia_);
      Upload(*b, ib_);
    }
    auto k = Build<Kernel>(Kernel::Options{
        .name = std::string(name) + (f32_ ? "_f32" : "_i32"),
        .inputs = {{"u_a", t}, {"u_b", t}},
        .output = t,
        .extra_decls = decls,
        .body = body});
    Dispatch(*k, *c, {a.get(), b.get()});
    if (f32_) {
      Download(*c, fc_);
    } else {
      Download(*c, ic_);
    }
    Release(kSpanKernelBuild, k);
    Release(kSpanBuffer, a);
    Release(kSpanBuffer, b);
    Release(kSpanBuffer, c);
  }

  std::uint64_t seed_;
  bool f32_ = true;
  std::vector<float> fa_, fb_, fc_;
  std::vector<std::int32_t> ia_, ib_, ic_;
};

// Paper §V sgemm at n = 128: four equal 64-px tiles, one per worker on a
// 4-core host. Unequal tiles (n = 96) leave the op time bimodal, with its
// median jumping between the modes from run to run.
class SgemmWorkload final : public PaperAppWorkload {
 public:
  SgemmWorkload(std::uint64_t seed, bool smoke)
      : PaperAppWorkload(seed), n_(smoke ? 32 : 128) {}

  void Prepare(std::uint64_t op) override {
    f32_ = op % 2 == 0;
    Rng rng = OpRng(seed_, op);
    const std::size_t e = static_cast<std::size_t>(n_) * n_;
    if (f32_) {
      fa_ = rng.FloatVector(e, -1.0f, 1.0f);
      fb_ = rng.FloatVector(e, -1.0f, 1.0f);
      fc_.assign(e, 0.0f);
    } else {
      // |sum| <= n * 128 * 128 < 2^24: exact in the fp32 shader datapath.
      ia_ = rng.IntVector(e, -128, 128);
      ib_ = rng.IntVector(e, -128, 128);
      ic_.assign(e, 0);
    }
  }

  void Run(Tracer* tracer) override {
    RunApp(tracer, "sgemm", StrFormat("#define GP_K %d", n_), kGemmBody, n_,
           n_);
  }

 protected:
  void Verify(OpCheck& check) override {
    const std::size_t un = static_cast<std::size_t>(n_);
    if (!f32_) {
      std::vector<std::int32_t> ref(ia_.size());
      mgpu::cpuref::GemmI32(n_, ia_, ib_, ref);
      if (ref != ic_) Fail(check, "sgemm_i32 differs from cpuref");
      check.hash = HashOf(ic_);
      return;
    }
    std::vector<float> ref(fa_.size());
    mgpu::cpuref::SgemmF32(n_, fa_, fb_, ref);
    FloatAgreement agree;
    for (std::size_t r = 0; r < un; ++r) {
      for (std::size_t c = 0; c < un; ++c) {
        double scale = 0.0;
        for (std::size_t k = 0; k < un; ++k) {
          scale += std::fabs(fa_[r * un + k] * fb_[k * un + c]);
        }
        agree.Add(fc_[r * un + c], ref[r * un + c], scale);
      }
    }
    agree.Apply(check, "sgemm_f32");
    check.hash = HashOf(fc_);
  }

 private:
  int n_;
};

// Paper §V sum: element-wise add of two n-element arrays, 64 balanced tiles
// at n = 2^18.
class SumWorkload final : public PaperAppWorkload {
 public:
  SumWorkload(std::uint64_t seed, bool smoke)
      : PaperAppWorkload(seed), n_(smoke ? 4096 : std::size_t{1} << 18) {}

  void Prepare(std::uint64_t op) override {
    f32_ = op % 2 == 0;
    Rng rng = OpRng(seed_, op);
    if (f32_) {
      fa_.resize(n_);
      fb_.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) {
        fa_[i] = rng.NextWorkloadFloat();
        fb_[i] = rng.NextWorkloadFloat();
      }
      fc_.assign(n_, 0.0f);
    } else {
      ia_ = rng.IntVector(n_, -4'000'000, 4'000'000);
      ib_ = rng.IntVector(n_, -4'000'000, 4'000'000);
      ic_.assign(n_, 0);
    }
  }

  void Run(Tracer* tracer) override {
    RunApp(tracer, "sum", "", kAddBody, n_);
  }

 protected:
  void Verify(OpCheck& check) override {
    if (!f32_) {
      std::vector<std::int32_t> ref(n_);
      mgpu::cpuref::AddI32(ia_, ib_, ref);
      if (ref != ic_) Fail(check, "sum_i32 differs from cpuref");
      check.hash = HashOf(ic_);
      return;
    }
    std::vector<float> ref(n_);
    mgpu::cpuref::AddF32(fa_, fb_, ref);
    FloatAgreement agree;
    for (std::size_t i = 0; i < n_; ++i) {
      agree.Add(fc_[i], ref[i], std::fabs(fa_[i]) + std::fabs(fb_[i]));
    }
    agree.Apply(check, "sum_f32");
    check.hash = HashOf(fc_);
  }

 private:
  std::size_t n_;
};

// Small fixed-cost-bound ops in a seeded rotation. Each op builds its
// kernels fresh, as compute::ops does.
class SmallOpsWorkload final : public ComputeWorkload {
 public:
  enum Kind { kSaxpy, kReduce, kMinMax, kConv, kKinds };

  SmallOpsWorkload(std::uint64_t seed, bool /*smoke: already small*/)
      : seed_(seed) {
    for (int i = 0; i < kKinds; ++i) rotation_[static_cast<std::size_t>(i)] = static_cast<Kind>(i);
    Rng rng(seed);
    for (std::size_t i = kKinds - 1; i > 0; --i) {
      std::swap(rotation_[i], rotation_[static_cast<std::size_t>(
                                  rng.NextInt(0, static_cast<std::int64_t>(i)))]);
    }
  }

  int WarmupOps() const override { return kKinds; }
  const char* OpKind(std::uint64_t op) const override {
    static constexpr const char* kNames[] = {"saxpy", "reduce", "minmax",
                                             "conv"};
    return kNames[rotation_[op % kKinds]];
  }

  void Prepare(std::uint64_t op) override {
    kind_ = rotation_[op % kKinds];
    Rng rng = OpRng(seed_, op);
    switch (kind_) {
      case kSaxpy:
        alpha_ = rng.NextFloat(-4.0f, 4.0f);
        x_ = rng.FloatVector(kN, -10.0f, 10.0f);
        y_ = rng.FloatVector(kN, -10.0f, 10.0f);
        out_.assign(kN, 0.0f);
        break;
      case kReduce:
        x_ = rng.FloatVector(kN, -1.0f, 1.0f);
        break;
      case kMinMax:
        x_ = rng.FloatVector(kN, -500.0f, 500.0f);
        mins_.assign(kN / 4, 0.0f);
        maxs_.assign(kN / 4, 0.0f);
        break;
      case kConv: {
        img_ = rng.ByteVector(static_cast<std::size_t>(kConvSide) * kConvSide);
        float sum = 0.0f;
        for (float& w : weights_) {
          w = static_cast<float>(rng.NextInt(0, 4));
          sum += w;
        }
        for (float& w : weights_) w = sum > 0.0f ? w / sum : 1.0f / 9.0f;
        pixels_.assign(img_.size(), 0);
        break;
      }
      case kKinds:
        break;
    }
  }

  void Run(Tracer* tracer) override {
    BeginOp(tracer);
    switch (kind_) {
      case kSaxpy:
        RunSaxpy();
        break;
      case kReduce:
        RunReduce();
        break;
      case kMinMax:
        RunMinMax();
        break;
      case kConv:
        RunConv();
        break;
      case kKinds:
        break;
    }
  }

 protected:
  void Verify(OpCheck& check) override {
    switch (kind_) {
      case kSaxpy: {
        std::vector<float> ref(kN);
        mgpu::cpuref::SaxpyF32(alpha_, x_, y_, ref);
        FloatAgreement agree;
        for (std::size_t i = 0; i < kN; ++i) {
          agree.Add(out_[i], ref[i],
                    std::fabs(alpha_ * x_[i]) + std::fabs(y_[i]));
        }
        agree.Apply(check, "saxpy");
        check.hash = HashOf(out_);
        break;
      }
      case kReduce: {
        // Each of the 6 passes re-packs its partial sums, so the error
        // budget is per level of the tree.
        double scale = 0.0;
        for (const float v : x_) scale += std::fabs(v);
        FloatAgreement agree;
        agree.Add(sum_, mgpu::cpuref::ReduceSumTree4F32(x_), scale);
        agree.Apply(check, "reduce");
        check.hash = Fnv64(&sum_, sizeof sum_);
        break;
      }
      case kMinMax: {
        const auto [mn, mx] = mgpu::cpuref::MinMaxF32(x_);
        const float gmn = *std::min_element(mins_.begin(), mins_.end());
        const float gmx = *std::max_element(maxs_.begin(), maxs_.end());
        FloatAgreement agree;
        agree.Add(gmn, mn, std::fabs(mn));
        agree.Add(gmx, mx, std::fabs(mx));
        agree.Apply(check, "minmax");
        check.hash = HashOf(maxs_, HashOf(mins_));
        break;
      }
      case kConv: {
        std::vector<std::uint8_t> ref(img_.size());
        mgpu::cpuref::Conv3x3U8(kConvSide, kConvSide, img_, weights_, ref);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          if (std::abs(static_cast<int>(ref[i]) - pixels_[i]) > 1) {
            Fail(check, StrFormat("conv pixel %zu: %d vs cpuref %d", i,
                                  pixels_[i], ref[i]));
            break;
          }
        }
        check.hash = HashOf(pixels_);
        break;
      }
      case kKinds:
        break;
    }
  }

 private:
  static constexpr std::size_t kN = 4096;
  static constexpr int kConvSide = 64;

  void RunSaxpy() {
    auto x = NewBuffer(ElemType::kF32, kN);
    auto y = NewBuffer(ElemType::kF32, kN);
    auto o = NewBuffer(ElemType::kF32, kN);
    Upload(*x, x_);
    Upload(*y, y_);
    auto k = Build<Kernel>(Kernel::Options{
        .name = "saxpy",
        .inputs = {{"u_x", ElemType::kF32}, {"u_y", ElemType::kF32}},
        .output = ElemType::kF32,
        .extra_decls = "uniform float u_alpha;",
        .body = kSaxpyBody});
    Uniform(*k, "u_alpha", alpha_);
    Dispatch(*k, *o, {x.get(), y.get()});
    Download(*o, out_);
    Release(kSpanKernelBuild, k);
    Release(kSpanBuffer, x);
    Release(kSpanBuffer, y);
    Release(kSpanBuffer, o);
  }

  // 4:1 tree, 4096 -> 1: six passes of one kernel, intermediate buffers
  // padded to multiples of 4 (the ops::ReduceSumF32 scheme).
  void RunReduce() {
    auto src = NewBuffer(ElemType::kF32, kN);
    Upload(*src, x_);
    auto k = Build<Kernel>(Kernel::Options{
        .name = "reduce4",
        .inputs = {{"u_src", ElemType::kF32}},
        .output = ElemType::kF32,
        .extra_decls = "uniform float u_count;",
        .body = kReduce4Body});
    std::size_t n = kN;
    while (n > 1) {
      const std::size_t groups = (n + 3) / 4;
      const std::size_t next = std::max<std::size_t>((groups + 3) / 4 * 4, 4);
      auto dst = NewBuffer(ElemType::kF32, next);
      Uniform(*k, "u_count", static_cast<float>(groups));
      Dispatch(*k, *dst, {src.get()});
      Release(kSpanBuffer, src);
      src = std::move(dst);
      n = groups;
    }
    std::vector<float> head(4, 0.0f);
    Download(*src, head);
    sum_ = head[0];
    Release(kSpanKernelBuild, k);
    Release(kSpanBuffer, src);
  }

  void RunMinMax() {
    auto src = NewBuffer(ElemType::kF32, kN);
    Upload(*src, x_);
    auto mins = NewBuffer(ElemType::kF32, kN / 4);
    auto maxs = NewBuffer(ElemType::kF32, kN / 4);
    auto mk = Build<MultiKernel>(MultiKernel::Options{
        .name = "minmax",
        .inputs = {{"u_src", ElemType::kF32}},
        .outputs = {ElemType::kF32, ElemType::kF32},
        .extra_decls = "",
        .body = kMinMaxBody});
    Dispatch(*mk, {mins.get(), maxs.get()}, {src.get()});
    Download(*mins, mins_);
    Download(*maxs, maxs_);
    Release(kSpanKernelBuild, mk);
    Release(kSpanBuffer, src);
    Release(kSpanBuffer, mins);
    Release(kSpanBuffer, maxs);
  }

  void RunConv() {
    auto img = NewBuffer(ElemType::kU8, kConvSide, kConvSide);
    auto out = NewBuffer(ElemType::kU8, kConvSide, kConvSide);
    Upload(*img, img_);
    auto k = Build<Kernel>(Kernel::Options{
        .name = "conv3x3_u8",
        .inputs = {{"u_img", ElemType::kU8}},
        .output = ElemType::kU8,
        .extra_decls = "uniform float u_w[9];",
        .body = kConvBody});
    for (int i = 0; i < 9; ++i) {
      Uniform(*k, StrFormat("u_w[%d]", i), weights_[static_cast<std::size_t>(i)]);
    }
    Dispatch(*k, *out, {img.get()});
    std::vector<std::uint8_t> bytes(img_.size());
    Download(*out, bytes);
    pixels_.assign(bytes.begin(), bytes.end());
    Release(kSpanKernelBuild, k);
    Release(kSpanBuffer, img);
    Release(kSpanBuffer, out);
  }

  std::uint64_t seed_;
  std::array<Kind, kKinds> rotation_{};
  Kind kind_ = kSaxpy;
  float alpha_ = 0.0f;
  float sum_ = 0.0f;
  std::vector<float> x_, y_, out_, mins_, maxs_;
  std::vector<std::uint8_t> img_;
  std::array<float, 9> weights_{};
  std::vector<int> pixels_;
};

// ---------------------------------------------------------------------------
// Many GL clients: each context records a burst of tiny textured, retinted
// triangle draws and flushes; then every context is joined. Shading is
// negligible, so the command stream's record, device FIFO and join costs
// decide the frame time.

constexpr char kClientVs[] = R"(
attribute vec2 a_pos;
uniform vec2 u_offset;
varying vec2 v_uv;
void main() {
  v_uv = a_pos;
  gl_Position = vec4(a_pos + u_offset, 0.0, 1.0);
}
)";

// One texture fetch per fragment, so the TMU count is the fragment count.
constexpr char kClientFs[] = R"(
precision highp float;
uniform sampler2D u_tex;
uniform vec4 u_tint;
varying vec2 v_uv;
void main() {
  gl_FragColor = texture2D(u_tex, v_uv) * u_tint;
}
)";

constexpr int kTriPx = 8;  // leg of the right triangle each draw covers

class ClientsWorkload final : public Workload {
 public:
  ClientsWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed),
        contexts_(smoke ? 4 : 16),
        draws_(smoke ? 8 : 32),
        size_(smoke ? 128 : 512) {}

  void Setup() override {
    const float leg = 2.0f * kTriPx / static_cast<float>(size_);
    const std::array<float, 6> tri = {0.0f, 0.0f, leg, 0.0f, 0.0f, leg};
    const std::array<std::uint8_t, 4> white = {255, 255, 255, 255};
    clients_.resize(static_cast<std::size_t>(contexts_));
    for (Client& c : clients_) {
      gl::ContextConfig cfg;
      cfg.width = size_;
      cfg.height = size_;
      cfg.shader_threads = 1;  // 16 contexts must not oversubscribe the host
      c.ctx = std::make_unique<gl::Context>(cfg);
      gl::Context& ctx = *c.ctx;
      const gl::GLuint prog = BuildProgram(ctx);
      ctx.UseProgram(prog);
      c.u_offset = ctx.GetUniformLocation(prog, "u_offset");
      c.u_tint = ctx.GetUniformLocation(prog, "u_tint");
      ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_tex"), 0);
      gl::GLuint vbo = 0;
      ctx.GenBuffers(1, &vbo);
      ctx.BindBuffer(gl::GL_ARRAY_BUFFER, vbo);
      ctx.BufferData(gl::GL_ARRAY_BUFFER, sizeof tri, tri.data(),
                     gl::GL_STATIC_DRAW);
      const gl::GLint a_pos = ctx.GetAttribLocation(prog, "a_pos");
      ctx.EnableVertexAttribArray(static_cast<gl::GLuint>(a_pos));
      ctx.VertexAttribPointer(static_cast<gl::GLuint>(a_pos), 2, gl::GL_FLOAT,
                              gl::GL_FALSE, 0, nullptr);
      gl::GLuint tex = 0;
      ctx.GenTextures(1, &tex);
      ctx.ActiveTexture(gl::GL_TEXTURE0);
      ctx.BindTexture(gl::GL_TEXTURE_2D, tex);
      ctx.TexImage2D(gl::GL_TEXTURE_2D, 0, gl::GL_RGBA, 1, 1, 0, gl::GL_RGBA,
                     gl::GL_UNSIGNED_BYTE, white.data());
      ctx.TexParameteri(gl::GL_TEXTURE_2D, gl::GL_TEXTURE_MIN_FILTER,
                        gl::GL_NEAREST);
      ctx.TexParameteri(gl::GL_TEXTURE_2D, gl::GL_TEXTURE_MAG_FILTER,
                        gl::GL_NEAREST);
      ctx.ClearColor(0.0f, 0.0f, 0.0f, 1.0f);
      ctx.Clear(gl::GL_COLOR_BUFFER_BIT);
      if (ctx.GetError() != gl::GL_NO_ERROR) {
        throw std::runtime_error("clients: context setup raised a GL error");
      }
      c.last = ctx.alu().counts();
      c.draws.resize(static_cast<std::size_t>(draws_));
    }
  }

  int WarmupOps() const override { return 1; }
  const char* OpKind(std::uint64_t) const override { return "frame"; }

  // Draw d of a context lands in its own cell of an 8-column grid, at a
  // seeded whole-pixel position, so no two draws of a frame overlap.
  void Prepare(std::uint64_t op) override {
    Rng rng = OpRng(seed_, op);
    const int rows = (draws_ + 7) / 8;
    const int cell_w = size_ / 8;
    const int cell_h = size_ / rows;
    for (Client& c : clients_) {
      for (int d = 0; d < draws_; ++d) {
        Draw& dr = c.draws[static_cast<std::size_t>(d)];
        dr.x = (d % 8) * cell_w + static_cast<int>(rng.NextInt(0, cell_w - kTriPx - 1));
        dr.y = (d / 8) * cell_h + static_cast<int>(rng.NextInt(0, cell_h - kTriPx - 1));
        for (std::uint8_t& ch : dr.rgb) {
          ch = static_cast<std::uint8_t>(rng.NextInt(1, 255));
        }
      }
    }
  }

  void Run(Tracer* tracer) override {
    const float px = 2.0f / static_cast<float>(size_);
    for (Client& c : clients_) {
      gl::Context& ctx = *c.ctx;
      {
        Scope s(tracer, kSpanRecord);
        for (const Draw& d : c.draws) {
          ctx.Uniform2f(c.u_offset, static_cast<float>(d.x) * px - 1.0f,
                        static_cast<float>(d.y) * px - 1.0f);
          ctx.Uniform4f(c.u_tint, d.rgb[0] / 255.0f, d.rgb[1] / 255.0f,
                        d.rgb[2] / 255.0f, 1.0f);
          ctx.DrawArrays(gl::GL_TRIANGLES, 0, 3);
        }
      }
      Scope s(tracer, kSpanFlush);
      ctx.Flush();
    }
    for (Client& c : clients_) {
      Scope s(tracer, kSpanFinish);
      c.ctx->Finish();
    }
  }

  // Reads back one pixel well inside every triangle: it must hold exactly
  // the draw's tint (the texture is white, tints are whole bytes).
  OpCheck Check() override {
    OpCheck check;
    std::uint64_t h = 14695981039346656037ull;
    for (Client& c : clients_) {
      gl::Context& ctx = *c.ctx;
      for (const Draw& d : c.draws) {
        std::array<std::uint8_t, 4> px{};
        ctx.ReadPixels(d.x + 2, d.y + 2, 1, 1, gl::GL_RGBA,
                       gl::GL_UNSIGNED_BYTE, px.data());
        if (px[0] != d.rgb[0] || px[1] != d.rgb[1] || px[2] != d.rgb[2] ||
            px[3] != 255) {
          Fail(check, StrFormat("clients: pixel (%d,%d) is %d,%d,%d,%d, want "
                                "%d,%d,%d,255",
                                d.x + 2, d.y + 2, px[0], px[1], px[2], px[3],
                                d.rgb[0], d.rgb[1], d.rgb[2]));
        }
        h = Fnv64(px.data(), px.size(), h);
      }
      if (ctx.GetError() != gl::GL_NO_ERROR) Fail(check, "clients: GL error");
      const mgpu::glsl::OpCounts now = ctx.alu().counts();
      check.work.shader_ops.alu += now.alu - c.last.alu;
      check.work.shader_ops.sfu += now.sfu - c.last.sfu;
      check.work.shader_ops.sfu_trans += now.sfu_trans - c.last.sfu_trans;
      check.work.shader_ops.tmu += now.tmu - c.last.tmu;
      check.work.shader_ops.tmu_miss += now.tmu_miss - c.last.tmu_miss;
      c.last = now;
    }
    const auto draws = static_cast<std::uint64_t>(contexts_) * draws_;
    check.work.fragments = check.work.shader_ops.tmu;
    check.work.vertices = 3 * draws;
    check.work.draw_calls = static_cast<int>(draws);
    check.hash = h;
    return check;
  }

  GlStats ReadGlStats() override {
    GlStats s;
    for (Client& c : clients_) {
      const mgpu::gles2::cmd::Stats st = c.ctx->command_stream_stats();
      s.cmd.recorded += st.recorded;
      s.cmd.elided += st.elided;
      s.cmd.draws += st.draws;
      s.cmd.inline_syncs += st.inline_syncs;
      s.cmd.sync_points += st.sync_points;
      s.cmd.lists_submitted += st.lists_submitted;
      s.cmd.lists_executed += st.lists_executed;
      s.cmd.lists_dropped += st.lists_dropped;
      const gl::ShadeStateCache& cache = c.ctx->shade_state_cache();
      s.cache_hits += cache.hits();
      s.cache_misses += cache.misses();
      s.cache_evictions += cache.evictions();
      s.own_syncs += c.ctx->async_submit_enabled() ? 2 : 0;
    }
    return s;
  }

  gl::Context& gl() override { return *clients_.front().ctx; }
  bool uses_compute() const override { return false; }

 private:
  struct Draw {
    int x = 0;
    int y = 0;
    std::array<std::uint8_t, 3> rgb{};
  };
  struct Client {
    std::unique_ptr<gl::Context> ctx;
    gl::GLint u_offset = -1;
    gl::GLint u_tint = -1;
    mgpu::glsl::OpCounts last;
    std::vector<Draw> draws;
  };

  static gl::GLuint BuildProgram(gl::Context& ctx) {
    const gl::GLuint p = ctx.CreateProgram();
    for (const auto& [type, src] :
         {std::pair{gl::GL_VERTEX_SHADER, kClientVs},
          std::pair{gl::GL_FRAGMENT_SHADER, kClientFs}}) {
      const gl::GLuint s = ctx.CreateShader(type);
      ctx.ShaderSource(s, src);
      ctx.CompileShader(s);
      ctx.AttachShader(p, s);
    }
    ctx.LinkProgram(p);
    gl::GLint ok = gl::GL_FALSE;
    ctx.GetProgramiv(p, gl::GL_LINK_STATUS, &ok);
    if (ok != gl::GL_TRUE) {
      throw std::runtime_error("clients: link failed: " +
                               ctx.GetProgramInfoLog(p));
    }
    return p;
  }

  std::uint64_t seed_;
  int contexts_;
  int draws_;
  int size_;
  std::vector<Client> clients_;
};

}  // namespace

bool SameCounts(const vc4::GpuWork& a, const vc4::GpuWork& b) {
  return a.fragments == b.fragments && a.vertices == b.vertices &&
         a.shader_ops.alu == b.shader_ops.alu &&
         a.shader_ops.sfu == b.shader_ops.sfu &&
         a.shader_ops.sfu_trans == b.shader_ops.sfu_trans &&
         a.shader_ops.tmu == b.shader_ops.tmu &&
         a.shader_ops.tmu_miss == b.shader_ops.tmu_miss &&
         a.bytes_uploaded == b.bytes_uploaded &&
         a.bytes_readback == b.bytes_readback &&
         a.program_compiles == b.program_compiles &&
         a.draw_calls == b.draw_calls &&
         a.host_work.iterations == b.host_work.iterations;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, bool smoke) {
  if (name == "sgemm") return std::make_unique<SgemmWorkload>(seed, smoke);
  if (name == "sum") return std::make_unique<SumWorkload>(seed, smoke);
  if (name == "small_ops") return std::make_unique<SmallOpsWorkload>(seed, smoke);
  if (name == "clients") return std::make_unique<ClientsWorkload>(seed, smoke);
  return nullptr;
}

// The bench_section5_speedups computation: op counts measured at
// calibration sizes and extrapolated to 1024 scale (bench/bench_util.h),
// priced by the VideoCore IV / ARM1176 timing model.
double Section5MaxDeviationPct() {
  using mgpu::bench::MeasureGemmWork;
  using mgpu::bench::MeasureSumWork;
  namespace cpuref = mgpu::cpuref;
  mgpu::compute::Device d;
  const vc4::GpuProfile gpu = d.profile();
  const vc4::CpuModel cpu = vc4::Arm1176();
  constexpr std::uint64_t kSumN = 1ull << 20;
  constexpr int kGemmN = 1024;
  struct Row {
    vc4::CpuWork cpu;
    vc4::GpuWork gpu;
    double paper;  // the paper's speedup
  };
  const Row rows[] = {
      {cpuref::AddWorkI32(kSumN), MeasureSumWork(d, ElemType::kI32, kSumN), 7.2},
      {cpuref::AddWorkF32(kSumN), MeasureSumWork(d, ElemType::kF32, kSumN), 6.5},
      {cpuref::GemmWorkI32(kGemmN), MeasureGemmWork(d, ElemType::kI32, kGemmN), 6.5},
      {cpuref::SgemmWorkF32(kGemmN), MeasureGemmWork(d, ElemType::kF32, kGemmN), 6.3},
  };
  double worst = 0.0;
  for (const Row& r : rows) {
    const double speedup = vc4::CpuSeconds(cpu, r.cpu) /
                           vc4::GpuSeconds(gpu, cpu, r.gpu).total();
    worst = std::max(worst, std::fabs(speedup / r.paper - 1.0) * 100.0);
  }
  return worst;
}

}  // namespace e2ebench
