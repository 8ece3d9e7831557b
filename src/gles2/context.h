// The OpenGL ES 2.0 context: the API surface the paper's GPGPU framework
// programs against. Implements the subset of ES 2.0 the paper's techniques
// exercise, while faithfully enforcing the *restrictions* the paper works
// around: byte-only textures and framebuffers, normalized texture
// coordinates, triangles-only complex geometry, a single fragment output,
// and no texture readback path other than framebuffer ReadPixels.
#ifndef MGPU_GLES2_CONTEXT_H_
#define MGPU_GLES2_CONTEXT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gles2/cmdstream.h"
#include "gles2/enums.h"
#include "gles2/objects.h"
#include "gles2/texture.h"
#include "gles2/tiler.h"
#include "glsl/alu.h"
#include "glsl/shader.h"

namespace mgpu::common {
class ThreadPool;
}

namespace mgpu::gles2 {

// How fragment colors are quantized into the byte framebuffer. The paper's
// Eq. (2) states floor(f * 255); most real drivers round to nearest. Both
// are provided so the robustness of the pack/unpack algebra can be verified
// under either (see KernelTest.IdentityF32WorksUnderPaperQuantization).
enum class FbQuantization { kRoundNearest, kFloorPaper };

struct ContextConfig {
  int width = 64;
  int height = 64;
  bool has_depth = true;
  glsl::Limits limits;
  FbQuantization quantization = FbQuantization::kRoundNearest;
  ExecEngine exec_engine = ExecEngine::kBatchedVm;
  int max_texture_size = 4096;
  // Fragment-shading worker count for the tiled pipeline, for every
  // engine, fixed for the context's lifetime: <= 0 = one worker per
  // hardware thread (default), 1 = serial (shades on the calling thread),
  // N > 1 = exactly N pool workers (capped at 256). Because 64x64 tiles
  // partition the framebuffer and each worker — the serial one too — owns
  // a private engine clone / ALU-counter shard / TMU-cache model, every
  // successful draw produces identical framebuffer bytes and ALU/SFU/TMU op
  // counts for every value. (A draw that raises a shader runtime error is
  // aborted *transactionally*: framebuffer, depth and counters are restored
  // to the pre-draw state byte for byte — identical for every engine and
  // worker count — and the GL error / last_draw_error / reset status report
  // the failure; a real GPU would hang or be reset.)
  int shader_threads = 0;
  // Per-draw total-work budget in modeled ALU ops (vertex + fragment,
  // OpCounts::alu accounting): a watchdog in the spirit of a kernel
  // GPU-hang timeout. 0 (default) disables it; a draw that exceeds the
  // budget is aborted transactionally (framebuffer, depth and counters as
  // if never issued) with GL_OUT_OF_MEMORY and a guilty reset status. Fixed
  // for the context's lifetime. The trip decision is deterministic across
  // engines and worker counts because the completed draw's op total is
  // engine- and thread-invariant.
  std::uint64_t draw_budget = 0;
  std::string renderer_name = "mgpu software GLES2 (VideoCore IV model)";
};

// Per-worker undo log making draws transactional: every framebuffer byte
// and depth float a worker overwrites is recorded before mutation, and an
// aborted draw replays the entries in reverse to restore the exact
// pre-draw image. Workers own disjoint tiles, so replay order across
// workers is irrelevant; within a worker, reverse order makes repeated
// writes to one pixel unwind correctly. Vectors keep their capacity across
// draws (cleared, not freed), so the trap-free hot path pays one bounds
// check and a push_back per written pixel.
struct UndoJournal {
  struct ColorEntry {
    std::uint32_t offset;                 // byte offset of the RGBA8 pixel
    std::array<std::uint8_t, 4> old_rgba;
  };
  struct DepthEntry {
    std::uint32_t index;  // float index into the depth plane
    float old_depth;
  };
  std::vector<ColorEntry> color;
  std::vector<DepthEntry> depth;
  void Clear() {
    color.clear();
    depth.clear();
  }
};

// Texture-cache model: 4 KB, 4-way set associative, 32-byte lines (8 RGBA8
// texels), round-robin replacement. Reset per *tile*, the way a VC4 QPU's
// TMU cache session is effectively private to the tile it shades; with
// per-tile resets the total miss count is a sum of independent per-tile
// counts, identical for any tile execution order and worker count. Misses
// feed the ALU counters and are priced by the timing model (sequential
// GPGPU streams mostly hit, strided matrix walks miss — the paper's
// sum/sgemm asymmetry).
struct TmuCacheModel {
  static constexpr int kSets = 32;
  static constexpr int kWays = 4;
  std::array<std::uint64_t, kSets * kWays> lines{};
  std::array<std::uint8_t, kSets> rr{};

  TmuCacheModel() { Reset(); }
  void Reset() {
    lines.fill(~0ull);
    rr.fill(0);
  }
  // Touches `line`, installing it on a miss. Returns true on a miss.
  bool Access(std::uint64_t line) {
    // Multiplicative hash so distinct textures' streams spread over sets.
    const std::uint64_t h = line * 0x9E3779B97F4A7C15ull;
    const std::size_t set = static_cast<std::size_t>(
        (h >> 32) % static_cast<std::uint64_t>(kSets));
    for (int way = 0; way < kWays; ++way) {
      if (lines[set * kWays + static_cast<std::size_t>(way)] == line) {
        return false;
      }
    }
    const std::uint8_t victim = rr[set];
    lines[set * kWays + victim] = line;
    rr[set] = static_cast<std::uint8_t>((victim + 1) % kWays);
    return true;
  }
};

// One fragment-shading worker of a context: the state a VC4 QPU keeps to
// itself while every QPU runs the same shader code. A context builds its
// workers lazily, up to its worker count, and keeps them for its lifetime;
// every program shades on them, a serial draw on worker 0. Nothing here
// depends on the program: the program's side of a worker is its fragment
// clone (ProgramObject::FragmentClone), which `stage` names per draw. The
// flush closure and the texture callback capture the worker's address, so
// the context holds workers by unique_ptr.
struct ShadeWorker {
  // Counter shard Fork()ed from the context's model: the worker's clones do
  // their math on it; it is reset per draw and merged when a draw commits.
  std::unique_ptr<glsl::AluModel> alu;
  TmuCacheModel tmu;
  // The drawn program's clone for this worker, set per draw.
  ProgramObject::FragmentClone* stage = nullptr;

  // `flush` shades and drains `batch` (Context::FlushBatch); `texture` is
  // installed on every clone built for this worker.
  BatchFlushFn flush;
  glsl::TextureFn texture;
  FragmentBatch batch;
  // Deferred TMU accounting: one record per texture fetch instruction of
  // the batch in flight, in instruction order — the lanes that touched
  // the texture cache and each one's cache line. ReplayTmuLog walks it
  // lane-major after each RunBatch, so the modeled miss count follows
  // the fragment-sequential access order exactly.
  struct TmuRecord {
    std::uint32_t mask = 0;
    std::array<std::uint64_t, kFragBatchWidth> line{};
  };
  std::vector<TmuRecord> tmu_log;
  // The exception that ended this worker's shading in the current draw;
  // null outside a failed draw.
  std::exception_ptr failure;
  // Transactional-abort undo log for the framebuffer writes this worker
  // performed during the current draw.
  UndoJournal journal;
  // Journal the flush actually writes through: &journal when the current
  // draw can abort mid-write (trap-capable fragment shader, armed
  // watchdog, armed fault site), nullptr when it provably cannot —
  // refreshed per draw, so the trap-free hot path pays nothing for
  // transactional aborts.
  UndoJournal* active_journal = nullptr;
  // ALU ops this worker's counter shard held the last time it reported
  // to the draw's watchdog accumulator (delta reporting keeps the
  // budget check O(1) per batch flush).
  std::uint64_t budget_reported = 0;
};

// Draw-state tallies, kept only for e2ebench, which reports them. A draw
// that reaches the vertex stage is a hit when its program has been drawn
// since it was linked, else a miss; nothing is cached apart from the
// program, so nothing is ever evicted.
class ShadeStateCache {
 public:
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return 0; }

 private:
  friend class Context;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

class Context {
 public:
  // `alu` is the arithmetic model shaders execute on (precision + op
  // counting); it must outlive the context. Pass nullptr for IEEE-exact.
  explicit Context(const ContextConfig& config = ContextConfig{},
                   glsl::AluModel* alu = nullptr);
  ~Context();

  // --- errors ---
  GLenum GetError();

  // --- capabilities / state ---
  void Enable(GLenum cap);
  void Disable(GLenum cap);
  void Viewport(GLint x, GLint y, GLsizei w, GLsizei h);
  void Scissor(GLint x, GLint y, GLsizei w, GLsizei h);
  void ClearColor(GLfloat r, GLfloat g, GLfloat b, GLfloat a);
  void Clear(GLbitfield mask);
  void BlendFunc(GLenum src, GLenum dst);
  void DepthFunc(GLenum func);
  void DepthMask(GLboolean flag);
  void ColorMask(GLboolean r, GLboolean g, GLboolean b, GLboolean a);
  void CullFace(GLenum mode);
  void FrontFace(GLenum dir);
  void PixelStorei(GLenum pname, GLint value);
  void GetIntegerv(GLenum pname, GLint* params);
  [[nodiscard]] const char* GetString(GLenum name);
  void GetShaderPrecisionFormat(GLenum shader_type, GLenum precision_type,
                                GLint* range, GLint* precision);
  // No-ops: every call executes on the caller's thread before it returns,
  // so there is never queued work to submit or wait for.
  void Finish() {}
  void Flush() {}

  // --- shaders ---
  GLuint CreateShader(GLenum type);
  void ShaderSource(GLuint shader, const std::string& source);
  void CompileShader(GLuint shader);
  void GetShaderiv(GLuint shader, GLenum pname, GLint* params);
  [[nodiscard]] std::string GetShaderInfoLog(GLuint shader);
  void DeleteShader(GLuint shader);

  // --- programs ---
  GLuint CreateProgram();
  void AttachShader(GLuint program, GLuint shader);
  void BindAttribLocation(GLuint program, GLuint index,
                          const std::string& name);
  void LinkProgram(GLuint program);
  void GetProgramiv(GLuint program, GLenum pname, GLint* params);
  [[nodiscard]] std::string GetProgramInfoLog(GLuint program);
  void UseProgram(GLuint program);
  void DeleteProgram(GLuint program);
  GLint GetUniformLocation(GLuint program, const std::string& name);
  GLint GetAttribLocation(GLuint program, const std::string& name);

  // --- uniforms (apply to the current program) ---
  void Uniform1f(GLint loc, GLfloat x);
  void Uniform2f(GLint loc, GLfloat x, GLfloat y);
  void Uniform3f(GLint loc, GLfloat x, GLfloat y, GLfloat z);
  void Uniform4f(GLint loc, GLfloat x, GLfloat y, GLfloat z, GLfloat w);
  void Uniform1i(GLint loc, GLint x);
  void Uniform1fv(GLint loc, GLsizei count, const GLfloat* v);
  void Uniform2fv(GLint loc, GLsizei count, const GLfloat* v);
  void Uniform4fv(GLint loc, GLsizei count, const GLfloat* v);
  void UniformMatrix4fv(GLint loc, GLsizei count, GLboolean transpose,
                        const GLfloat* v);

  // --- vertex attributes ---
  void EnableVertexAttribArray(GLuint index);
  void DisableVertexAttribArray(GLuint index);
  void VertexAttribPointer(GLuint index, GLint size, GLenum type,
                           GLboolean normalized, GLsizei stride,
                           const void* pointer);
  void VertexAttrib4f(GLuint index, GLfloat x, GLfloat y, GLfloat z,
                      GLfloat w);

  // --- buffers ---
  void GenBuffers(GLsizei n, GLuint* ids);
  void BindBuffer(GLenum target, GLuint id);
  void BufferData(GLenum target, GLsizeiptr size, const void* data,
                  GLenum usage);
  void BufferSubData(GLenum target, GLintptr offset, GLsizeiptr size,
                     const void* data);
  void DeleteBuffers(GLsizei n, const GLuint* ids);

  // --- textures ---
  void GenTextures(GLsizei n, GLuint* ids);
  void ActiveTexture(GLenum unit);
  void BindTexture(GLenum target, GLuint id);
  void TexImage2D(GLenum target, GLint level, GLint internal_format,
                  GLsizei width, GLsizei height, GLint border, GLenum format,
                  GLenum type, const void* data);
  void TexSubImage2D(GLenum target, GLint level, GLint xoffset, GLint yoffset,
                     GLsizei width, GLsizei height, GLenum format, GLenum type,
                     const void* data);
  void TexParameteri(GLenum target, GLenum pname, GLint param);
  void DeleteTextures(GLsizei n, const GLuint* ids);

  // --- renderbuffers / framebuffers ---
  void GenRenderbuffers(GLsizei n, GLuint* ids);
  void BindRenderbuffer(GLenum target, GLuint id);
  void RenderbufferStorage(GLenum target, GLenum internal_format, GLsizei w,
                           GLsizei h);
  void DeleteRenderbuffers(GLsizei n, const GLuint* ids);
  void GenFramebuffers(GLsizei n, GLuint* ids);
  void BindFramebuffer(GLenum target, GLuint id);
  void FramebufferTexture2D(GLenum target, GLenum attachment,
                            GLenum textarget, GLuint texture, GLint level);
  void FramebufferRenderbuffer(GLenum target, GLenum attachment,
                               GLenum rb_target, GLuint rb);
  GLenum CheckFramebufferStatus(GLenum target);
  void DeleteFramebuffers(GLsizei n, const GLuint* ids);

  // --- drawing / readback ---
  void DrawArrays(GLenum mode, GLint first, GLsizei count);
  void DrawElements(GLenum mode, GLsizei count, GLenum type,
                    const void* indices);
  void ReadPixels(GLint x, GLint y, GLsizei w, GLsizei h, GLenum format,
                  GLenum type, void* pixels);

  // --- introspection for tests and the timing model ---
  [[nodiscard]] glsl::AluModel& alu() { return *alu_; }
  [[nodiscard]] const ContextConfig& config() const { return config_; }
  // The configured engine (kCompiled reads as kBatchedVm) and worker count;
  // both are fixed at construction (see ContextConfig).
  [[nodiscard]] ExecEngine exec_engine() const { return config_.exec_engine; }
  [[nodiscard]] int shader_threads() const { return config_.shader_threads; }
  // Draw-state hit/miss tallies; kept only for e2ebench, which reports them.
  [[nodiscard]] const ShadeStateCache& shade_state_cache() const {
    return shade_tally_;
  }
  // Last shader runtime failure during a draw ("" when none): loop budget
  // exceeded etc.; a real GPU would hang or reset. The failed draw itself
  // was aborted transactionally — the framebuffer, depth buffer and op
  // counters hold exactly the pre-draw state.
  [[nodiscard]] const std::string& last_draw_error() const {
    return last_draw_error_;
  }
  // GL_EXT_robustness-style reset status: GL_NO_ERROR when no draw has
  // been aborted since the last query, else which side was at fault
  // (GL_GUILTY_CONTEXT_RESET for shader traps and watchdog trips,
  // GL_INNOCENT_CONTEXT_RESET for implementation resource failures).
  // Observe-and-clear, like GetError. The context itself remains fully
  // usable — subsequent draws behave as if the aborted one was never
  // issued, which is what the fault-injection tests assert.
  GLenum GetGraphicsResetStatus();
  // Whether draws shade vertices kVmLanes at a time (LaneWidth() > 1).
  // Kept for e2ebench, which reports it.
  [[nodiscard]] bool vertex_batch_enabled() const { return LaneWidth() > 1; }
  // Always false; kept only for e2ebench, which reports it.
  [[nodiscard]] bool async_submit_enabled() const { return false; }
  // Always all zero; kept only for e2ebench, which reports it.
  [[nodiscard]] cmd::Stats command_stream_stats() const { return {}; }
  // Texture by id, or nullptr. Read-only, so the draw-time texture
  // callbacks on pool workers may call it concurrently.
  [[nodiscard]] Texture* GetTextureObject(GLuint id);

 private:
  // GL_MAX_VIEWPORT_DIMS (both dimensions): the largest render target, a
  // texture of max_texture_size or the default framebuffer.
  [[nodiscard]] int MaxViewportDim() const;

  struct TextureUnit {
    GLuint bound_2d = 0;
  };
  struct AttribState {
    bool enabled = false;
    GLint size = 4;
    GLenum type = GL_FLOAT;
    GLboolean normalized = GL_FALSE;
    GLsizei stride = 0;
    const void* pointer = nullptr;
    GLuint buffer = 0;
    std::array<float, 4> constant{0.0f, 0.0f, 0.0f, 1.0f};
  };
  // One enabled-or-constant attribute source of the draw in flight, with
  // its base/stride/type state hoisted out of the vertex gather.
  struct AttribSource {
    const std::uint8_t* base = nullptr;  // null => constant fill
    int stride = 0;
    GLenum type = GL_FLOAT;
    bool normalized = false;
    int size = 0;
    const float* constant = nullptr;
  };
  struct RenderTarget {
    // Exactly one of these is non-null for a complete color attachment.
    std::vector<std::uint8_t>* color = nullptr;  // RGBA8
    std::vector<float>* depth = nullptr;
    int width = 0;
    int height = 0;
  };

  // Lanes per RunBatch pass in both draw stages: kVmLanes under
  // kBatchedVm, 1 under the oracles.
  [[nodiscard]] int LaneWidth() const {
    return config_.exec_engine == ExecEngine::kBatchedVm ? glsl::kVmLanes : 1;
  }
  void SetError(GLenum e);
  // ES 2.0: a negative count is GL_INVALID_VALUE and the call has no other
  // effect. True when `n` was rejected.
  bool RejectNegative(GLsizei n);
  [[nodiscard]] ShaderObject* GetShader(GLuint id);
  [[nodiscard]] ProgramObject* GetProgram(GLuint id);
  [[nodiscard]] BufferObject* GetBuffer(GLuint id);
  // The buffer bound to `target`, or nullptr after setting GL_INVALID_ENUM
  // (not a buffer target) or GL_INVALID_OPERATION (none bound).
  [[nodiscard]] BufferObject* BoundBuffer(GLenum target);
  [[nodiscard]] RenderbufferObject* GetRenderbuffer(GLuint id);
  [[nodiscard]] FramebufferObject* GetFramebuffer(GLuint id);
  bool ResolveTarget(RenderTarget* out);  // false => incomplete framebuffer
  void SetUniformValue(const UniformInfo& u, int element, int comps,
                       const float* fdata, const GLint* idata, int count,
                       bool is_matrix);
  // The checks every draw call shares, after its own: clears
  // last_draw_error(), then resolves the program and the render target and
  // checks `mode`. Returns nullptr after setting the GL error.
  [[nodiscard]] ProgramObject* ValidateDraw(GLenum mode, RenderTarget* rt);
  // One validated draw of the decoded vertex `indices`, run as its stages:
  // ShadeVertices, AssembleAndBin, PrepareWorkers and ShadeTiles. Every
  // stage throws its failures into one catch, which replays the workers'
  // journals and calls AbortDraw; a draw that returns from ShadeTiles
  // commits the workers' counter shards.
  void DrawGeneric(ProgramObject* prog, const RenderTarget& rt, GLenum mode,
                   std::span<const GLuint> indices);
  // The vertex stage, for every engine: validates every VBO-backed
  // attribute against the largest index before any vertex shades, then
  // gathers attributes for chunks of up to the engine's lane width
  // (LaneWidth) straight into the vertex engine's planes through the
  // program's vertex views, runs each chunk through RunBatch and scatters
  // clip position / point size / varyings into scratch_verts_ in lane
  // order. Returns false after setting GL_INVALID_OPERATION for an
  // attribute fetch failure (no abort: nothing has run yet); throws a
  // shader trap or a watchdog trip.
  bool ShadeVertices(ProgramObject* prog, std::span<const GLuint> indices,
                     const glsl::OpCounts& draw_start_counts);
  // Assembles `count` vertices into scratch_prims_ in `mode`'s order,
  // bins each primitive into the tiles it touches and lists the non-empty
  // tiles in scratch_work_.
  void AssembleAndBin(GLenum mode, GLsizei count, const RasterState& rs);
  // Builds the workers and fragment clones this draw's tiles need and
  // refreshes their per-draw state. Returns the draw's worker count.
  int PrepareWorkers(ProgramObject* prog, const RenderTarget& rt,
                     const glsl::OpCounts& draw_start_counts);
  // Shades scratch_work_'s tiles on `worker_count` workers, inline or on
  // the pool. After the join it rethrows the lowest-numbered failing
  // worker's exception, else the pool's.
  void ShadeTiles(const ProgramObject* prog, const RasterState& rs,
                  int worker_count);
  // Reports an aborted draw: restores the counter snapshot taken when the
  // draw started, and sets last_draw_error(), the reset status and the GL
  // error from the type of `failure`:
  //   shader trap (glsl::ShaderRuntimeError: loop budget, explicit or
  //     injected trap) — its text, guilty reset, GL_INVALID_OPERATION;
  //   watchdog trip (ContextConfig::draw_budget, either stage) — its
  //     text, guilty reset, GL_OUT_OF_MEMORY;
  //   std::bad_alloc — `alloc_failure` when the interrupted stage names
  //     itself, else its text; innocent reset, GL_OUT_OF_MEMORY;
  //   any other std::exception (a dead pool task) — its text, innocent
  //     reset, GL_OUT_OF_MEMORY.
  void AbortDraw(const std::exception_ptr& failure, const char* alloc_failure,
                 const glsl::OpCounts& draw_start_counts);
  // Writes one shaded fragment (scissor, depth test, blend, masks). Every
  // framebuffer byte / depth float about to be overwritten is recorded in
  // `journal` first (non-null during draws) so an abort can undo it.
  void WritePixel(RenderTarget& rt, int x, int y, float depth,
                  const std::array<float, 4>& color, bool depth_valid,
                  UndoJournal* journal);
  // Reports the ALU ops `w` accrued since its last report to the shared
  // per-draw accumulator and throws a watchdog trip if the draw's total
  // exceeds the budget. Deterministic trip-vs-not: the total is monotone
  // toward an engine- and thread-invariant final sum.
  void CheckDrawBudget(ShadeWorker& w);
  // Builds the next shading worker: its counter shard, flush closure and
  // texture callback.
  [[nodiscard]] std::unique_ptr<ShadeWorker> MakeWorker();
  // The worker's batched texture fetch, for every engine: groups the
  // fetch's lanes by texture unit, resolves each group's sampler from the
  // per-draw sampler table once (contents are immutable during a draw),
  // samples it, and appends one record of the touched cache lines to
  // w->tmu_log, which the flush replays through the worker's cache model
  // and counter shard (thread-safe: each worker owns its log, cache and
  // counters).
  [[nodiscard]] glsl::TextureFn MakeTextureFn(ShadeWorker* w);
  // Replays the TMU log of `w` for lanes [0, lanes), lane-ascending and
  // each lane in instruction order, then clears it.
  static void ReplayTmuLog(ShadeWorker& w, int lanes);
  // The worker's batch flush: scatters `w.batch` into the engine's
  // per-fragment input planes of `w.stage`, shades it, replays the deferred
  // TMU accesses in lane order (the fragment-sequential texture-cache
  // order) and drains surviving lanes to the framebuffer in emission order,
  // in chunks of the engine's lane width: the batched VM shades the whole
  // batch in one RunBatch pass, the oracles one lane per pass, stopping at
  // the first trapping lane.
  void FlushBatch(ShadeWorker& w);

  ContextConfig config_;
  glsl::ExactAlu default_alu_;
  glsl::AluModel* alu_;
  GLenum error_ = GL_NO_ERROR;
  std::string last_draw_error_;
  // Reset status of the last aborted draw (cleared by
  // GetGraphicsResetStatus).
  GLenum reset_status_ = GL_NO_ERROR;
  // Fragment-shading workers, resolved from shader_threads at construction.
  int shade_workers_ = 1;
  // Watchdog accumulator: ALU ops consumed by the draw in flight, summed
  // across worker shards via relaxed fetch_add (monotone, so the trip
  // decision is deterministic even though intermediate interleavings vary).
  std::atomic<std::uint64_t> draw_alu_used_{0};

  // Fragment-shading workers, grown lazily up to shade_workers_ (see
  // ShadeWorker). Declared before programs_: the programs' fragment clones
  // count on the workers' shards, so they must be destroyed first.
  std::vector<std::unique_ptr<ShadeWorker>> workers_;

  GLuint next_id_ = 1;
  std::map<GLuint, std::unique_ptr<ShaderObject>> shaders_;
  std::map<GLuint, std::unique_ptr<ProgramObject>> programs_;
  std::map<GLuint, std::unique_ptr<BufferObject>> buffers_;
  std::map<GLuint, std::unique_ptr<Texture>> textures_;
  std::map<GLuint, std::unique_ptr<RenderbufferObject>> renderbuffers_;
  std::map<GLuint, std::unique_ptr<FramebufferObject>> framebuffers_;

  // Worker pool for the tiled fragment pipeline (shade_workers_ threads),
  // created lazily on the first parallel draw.
  std::unique_ptr<common::ThreadPool> pool_;
  ShadeStateCache shade_tally_;
  // Per-draw state the workers' flush closures reach through stable
  // addresses: the resolved render target and the first-failure latch.
  RenderTarget draw_rt_;
  std::atomic<bool> draw_failed_{false};
  // Per-draw sampler table, one entry per texture unit, resolved before
  // fragment shading (bindings and sampler uniforms cannot change mid-draw).
  struct DrawSampler {
    const Texture* tex = nullptr;
    GLuint id = 0;
    bool complete = false;
  };
  std::array<DrawSampler, 8> draw_samplers_{};
  // Draw-loop scratch, context-owned so steady-state draws recycle the
  // allocations: the tile binner, the decoded vertex indices, the resolved
  // attribute sources, the post-transform vertex array (inner varying
  // vectors keep their capacity too), the assembled primitive list, and
  // the non-empty-tile work list.
  TileBinner binner_;
  std::vector<GLuint> scratch_indices_;
  std::vector<AttribSource> scratch_sources_;
  std::vector<RasterVertex> scratch_verts_;
  std::vector<TilePrim> scratch_prims_;
  std::vector<std::uint32_t> scratch_work_;

  GLuint current_program_ = 0;
  GLuint array_buffer_ = 0;
  GLuint element_array_buffer_ = 0;
  GLuint bound_framebuffer_ = 0;
  GLuint bound_renderbuffer_ = 0;
  int active_unit_ = 0;
  std::array<TextureUnit, 8> units_{};
  std::vector<AttribState> attribs_;

  // Default framebuffer storage (bottom-up rows, GL convention).
  std::vector<std::uint8_t> fb_color_;
  std::vector<float> fb_depth_;

  // Fixed-function state.
  int vp_x_ = 0, vp_y_ = 0, vp_w_ = 0, vp_h_ = 0;
  // Scissor box [x0, x1) x [y0, y1), its ends saturated at INT_MAX.
  int sc_x0_ = 0, sc_y0_ = 0, sc_x1_ = 0, sc_y1_ = 0;
  bool scissor_enabled_ = false;
  bool depth_enabled_ = false;
  bool blend_enabled_ = false;
  bool cull_enabled_ = false;
  GLenum depth_func_ = GL_LESS;
  bool depth_write_ = true;
  GLenum blend_src_ = GL_ONE;
  GLenum blend_dst_ = GL_ZERO;
  GLenum cull_face_ = GL_BACK;
  GLenum front_face_ = GL_CCW;
  std::array<bool, 4> color_mask_{true, true, true, true};
  std::array<float, 4> clear_color_{0.0f, 0.0f, 0.0f, 0.0f};
  GLint unpack_alignment_ = 4;
  GLint pack_alignment_ = 4;
};

}  // namespace mgpu::gles2

#endif  // MGPU_GLES2_CONTEXT_H_
