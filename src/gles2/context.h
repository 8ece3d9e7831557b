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
#include <functional>
#include <map>
#include <memory>
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
// under either (see bench_ablation_readback and the packing tests).
enum class FbQuantization { kRoundNearest, kFloorPaper };

// Which shader execution engine draws run on. Three engines, all
// byte-identical in framebuffer output and ALU/SFU/TMU op counts:
//   kBatchedVm  — the production path: fragments are gathered into
//                 kFragBatchWidth-lane SoA batches and the lowered bytecode
//                 executes once per instruction over all lanes
//                 (VmExec::RunBatch), amortizing dispatch and operand
//                 resolution across the batch the way a VC4 QPU runs 16
//                 pixels through one instruction stream. Vertices are
//                 shaded in lane batches too.
//   kBytecodeVm — the same batch executor one lane wide: one RunBatch(1)
//                 per vertex or fragment. Kept as the differential oracle
//                 for lane masks and divergence in the batched engine.
//   kTreeWalk   — the tree-walking interpreter, the independent reference
//                 oracle, executing the annotated AST directly.
// Every engine goes through the same vertex stage and fragment-batch flush;
// the two oracles run them one lane at a time (see Context::LaneWidth).
// kCompiled is kept only for e2ebench: the Context constructor and
// SetExecEngine map it to kBatchedVm, so exec_engine() never returns it.
enum class ExecEngine { kBatchedVm, kBytecodeVm, kTreeWalk, kCompiled };

struct ContextConfig {
  int width = 64;
  int height = 64;
  bool has_depth = true;
  glsl::Limits limits;
  FbQuantization quantization = FbQuantization::kRoundNearest;
  ExecEngine exec_engine = ExecEngine::kBatchedVm;
  int max_texture_size = 4096;
  // Fragment-shading worker count for the tiled pipeline, for every
  // engine: <= 0 = one worker per hardware thread (default), 1 = serial
  // (shades on the calling thread), N > 1 = exactly N pool workers (capped
  // at 256). Because 64x64 tiles partition the framebuffer and each worker
  // — the serial one too — owns a private engine clone / ALU-counter shard
  // / TMU-cache model, every successful draw produces identical framebuffer
  // bytes and ALU/SFU/TMU op counts for every value. (A draw that raises a
  // shader runtime error is aborted *transactionally*: framebuffer, depth
  // and counters are restored to the pre-draw state byte for byte —
  // identical for every engine and worker count — and the GL error /
  // last_draw_error / reset status report the failure; a real GPU would
  // hang or be reset.)
  int shader_threads = 0;
  // Per-draw total-work budget in modeled ALU ops (vertex + fragment,
  // OpCounts::alu accounting): a watchdog in the spirit of a kernel
  // GPU-hang timeout. 0 (default) disables it; a draw that exceeds the
  // budget is aborted transactionally (framebuffer, depth and counters as
  // if never issued) with GL_OUT_OF_MEMORY and a guilty reset status. The
  // MGPU_DRAW_BUDGET environment variable, when it is a whole decimal
  // number, overrides this at construction.
  // The trip decision is deterministic across engines and worker counts
  // because the completed draw's op total is engine- and thread-invariant.
  std::uint64_t draw_budget = 0;
  std::string renderer_name = "mgpu software GLES2 (VideoCore IV model)";
};

// Classification of a draw abort, driving the GL error and reset status a
// failed draw reports (see Context::GetGraphicsResetStatus):
//   kTrap     — the shader itself trapped (loop budget, call depth,
//               explicit trap): guilty reset + GL_INVALID_OPERATION.
//   kBudget   — the draw tripped the ContextConfig::draw_budget watchdog:
//               guilty reset + GL_OUT_OF_MEMORY.
//   kResource — the implementation failed under the draw (allocation or
//               worker-pool failure): innocent reset + GL_OUT_OF_MEMORY.
enum class DrawErrorKind { kNone, kTrap, kBudget, kResource };

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

// Caches the shading state of the draw pipeline so a draw's setup cost is
// amortized across draws instead of paid per draw. One entry per program
// holds the vertex stage's plane views and the fragment stage's worker
// slots. Building a slot is expensive — an engine clone (full global-store
// copy with allocation), an AluModel fork, a TMU-cache model, plus the
// per-draw plumbing that lives here: the batch-flush closure with its gl_*
// slot and varying plane views, the fragment-batch scratch and the deferred
// TMU access log, and the engine's installed texture callback.
// None of it depends on anything but the program, the engine flavor and
// the worker count, so steady-state draws allocate nothing at all.
//
// Every slot owns its state, for every engine and thread count: a serial
// draw shades on slot 0 exactly as a pooled draw shades on slots
// [0, workers). Per draw only the globals (uniforms) are re-synced into the
// used slots and their counter shards reset; the shards merge into the
// context's model when the draw commits. Invalidation: relinking or
// deleting a program drops its entry (the cached clones pin the old
// program); switching ExecEngine or shader_threads drops everything.
// Entries beyond kCapacity are evicted least-recently-drawn first, so
// holding hundreds of linked programs cannot grow the cache unboundedly.
class ShadeStateCache {
 public:
  // One shading worker's private state and cached draw plumbing. Pointees
  // are stable for the life of the entry (the closures and the engine's
  // texture callback capture them by address), so WorkerStates are held by
  // unique_ptr — lazy slot growth must not move them.
  struct WorkerState {
    // Counter shard Fork()ed from the context's model, and a clone of the
    // program's fragment engine doing its math on it (declared after the
    // shard, so it is destroyed first).
    std::unique_ptr<glsl::AluModel> alu;
    std::unique_ptr<glsl::ShaderEngine> engine;
    TmuCacheModel tmu;

    // Cached draw plumbing: `flush` shades and drains `batch`.
    BatchFlushFn flush;
    FragmentBatch batch;
    // Deferred TMU accounting: texture-cache lines touched by each lane, in
    // the lane's program order, replayed lane-ascending after each
    // RunBatch so the modeled miss count follows the fragment-sequential
    // access order exactly.
    std::array<std::vector<std::uint64_t>, kFragBatchWidth> tmu_log;
    std::string error;  // first shader runtime error this draw, if any
    // Classification of `error` for the robustness API.
    DrawErrorKind error_kind = DrawErrorKind::kNone;
    // Transactional-abort undo log for the framebuffer writes this worker
    // performed during the current draw.
    UndoJournal journal;
    // Journal the cached flush closure actually writes through:
    // &journal when the current draw can abort mid-write (trap-capable
    // fragment shader, armed watchdog, armed fault site), nullptr when it
    // provably cannot — refreshed per draw, so the trap-free hot path
    // pays nothing for transactional aborts.
    UndoJournal* active_journal = nullptr;
    // ALU ops this worker's counter shard held the last time it reported
    // to the draw's watchdog accumulator (delta reporting keeps the
    // budget check O(1) per fragment / per batch flush).
    std::uint64_t budget_reported = 0;
  };

  // Cached vertex-stage plumbing: component-plane views into the program's
  // own vertex engine — attribute gather destinations, and gl_Position /
  // gl_PointSize / varying scatter sources, all ShaderEngine::LaneGlobal
  // views. The vertex stage runs on the calling thread against the
  // program's long-lived engine; the entry's invalidation points (relink,
  // delete, engine or thread switch) drop the views no later than the
  // storage they aim into.
  struct VertexState {
    struct AttribLanes {
      glsl::PlaneDst dst;
      int location = -1;  // index into the context's attribute bindings
      int cells = 0;      // components the shader-side declaration holds
    };
    struct VaryingSrc {
      glsl::PlaneSrc src;
      int cells = 0;
      int offset = 0;  // cell offset into RasterVertex::varyings
    };
    // Per-draw resolved attribute sources: base/stride/type state hoisted
    // out of the gather. Sized alongside `attribs` and fully rewritten each
    // draw, so steady-state draws allocate nothing here.
    struct AttribSource {
      const std::uint8_t* base = nullptr;  // null => constant fill
      int stride = 0;
      GLenum type = GL_FLOAT;
      bool normalized = false;
      int size = 0;
      const float* constant = nullptr;
    };
    std::vector<AttribLanes> attribs;
    std::vector<AttribSource> sources;
    std::vector<VaryingSrc> varyings;
    // Builtin scatter sources; a null base when the stage never declares
    // the builtin. A slot without a per-lane plane (never written) is a
    // (1, 0) view of the shared store — the value a one-lane run reads.
    glsl::PlaneSrc position;
    glsl::PlaneSrc point_size;
  };

  struct Entry {
    VertexState vertex;
    // Grown lazily to the most workers any draw has needed (never past the
    // configured thread count).
    std::vector<std::unique_ptr<WorkerState>> workers;
    std::uint64_t last_use = 0;
  };

  // Returns the program's entry, or nullptr on a miss. Hit / miss tallies
  // feed the cache-behaviour tests.
  [[nodiscard]] Entry* Find(GLuint program);
  Entry& Insert(GLuint program);
  void InvalidateProgram(GLuint program) { entries_.erase(program); }
  void Clear() { entries_.clear(); }

  // LRU capacity: inserting beyond it evicts the least-recently-used entry.
  static constexpr std::size_t kCapacity = 64;
  [[nodiscard]] std::size_t capacity() const { return kCapacity; }

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  std::map<GLuint, Entry> entries_;
  std::uint64_t use_tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
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
  // Execution-engine switch (applies to subsequent draws; programs carry
  // both engines, compiled at link time). Drops all cached shading state:
  // cached worker slots embed engine-specific clones.
  [[nodiscard]] ExecEngine exec_engine() const { return config_.exec_engine; }
  void SetExecEngine(ExecEngine engine);
  // Fragment-shading worker count (applies to subsequent draws; see
  // ContextConfig::shader_threads for the semantics). Drops all cached
  // shading state: entries are sized to the configured count.
  [[nodiscard]] int shader_threads() const { return config_.shader_threads; }
  void SetShaderThreads(int n);
  // Cache of per-worker shading state, exposed for the cache-behaviour and
  // invalidation tests.
  [[nodiscard]] const ShadeStateCache& shade_state_cache() const {
    return shade_cache_;
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
  // The resolved per-draw watchdog budget (config / MGPU_DRAW_BUDGET; 0 =
  // off). Settable at any time; applies to subsequent draws.
  [[nodiscard]] std::uint64_t draw_budget() const { return draw_budget_; }
  void SetDrawBudget(std::uint64_t ops) { draw_budget_ = ops; }
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
  [[nodiscard]] RenderbufferObject* GetRenderbuffer(GLuint id);
  [[nodiscard]] FramebufferObject* GetFramebuffer(GLuint id);
  bool ResolveTarget(RenderTarget* out);  // false => incomplete framebuffer
  void SetUniformValue(const UniformInfo& u, int element, int comps,
                       const float* fdata, const GLint* idata, int count,
                       bool is_matrix);
  // The vertex stage, for every engine: decodes the draw's indices,
  // validates every VBO-backed attribute against the largest index before
  // any vertex shades, then gathers attributes for chunks of up to the
  // engine's lane width (LaneWidth) straight into the vertex engine's
  // planes, runs each chunk through RunBatch and scatters clip position /
  // point size / varyings back into `verts` in lane order. Returns the program's shade-state entry (its
  // vertex views resolved once, on the miss that creates it), or nullptr
  // after fully reporting a draw abort (attribute fetch failure, watchdog
  // trip, shader trap) — the caller just returns.
  ShadeStateCache::Entry* ShadeVertices(
      ProgramObject* prog, GLsizei count,
      const std::function<GLuint(GLsizei)>& index_at,
      std::vector<RasterVertex>& verts,
      const glsl::OpCounts& draw_start_counts);
  void DrawGeneric(GLenum mode, GLsizei count,
                   const std::function<GLuint(GLsizei)>& index_at);
  // Reports a draw abort of `kind` (see DrawErrorKind): restores the
  // counter snapshot taken when the draw started, records `message` as
  // last_draw_error() and sets the reset status and GL error `kind` maps to.
  void AbortDraw(DrawErrorKind kind, const std::string& message,
                 const glsl::OpCounts& draw_start_counts);
  // Writes one shaded fragment (scissor, depth test, blend, masks). Every
  // framebuffer byte / depth float about to be overwritten is recorded in
  // `journal` first (non-null during draws) so an abort can undo it.
  void WritePixel(RenderTarget& rt, int x, int y, float depth,
                  const std::array<float, 4>& color, bool depth_valid,
                  UndoJournal* journal);
  // Reports the ALU ops `w` accrued since its last report to the shared
  // per-draw accumulator and throws a ShaderRuntimeError (kind kBudget) if
  // the draw's total exceeds draw_budget_. Deterministic trip-vs-not: the
  // total is monotone toward an engine- and thread-invariant final sum.
  void CheckDrawBudget(ShadeStateCache::WorkerState* w);
  // The worker's batched texture fetch, for every engine: samples through
  // the per-draw sampler table immediately (contents are immutable during
  // a draw) and logs each lane's touched cache line to w->tmu_log, which
  // the flush replays through the worker's cache model and counter
  // shard (thread-safe: each worker owns its log, cache and counters).
  [[nodiscard]] glsl::TextureFn MakeTextureFn(ShadeStateCache::WorkerState* w);
  // Replays and clears the first `lanes` TMU logs of `w`, lane-ascending.
  static void ReplayTmuLog(ShadeStateCache::WorkerState* w, int lanes);
  // Builds a worker slot's cached draw plumbing — texture callback and
  // batch flush, with the program's gl_* slot and varying destinations
  // resolved once into the engine's LaneGlobal plane views.
  void BuildWorkerPlumbing(ShadeStateCache::WorkerState& w,
                           ProgramObject* prog);

  ContextConfig config_;
  glsl::ExactAlu default_alu_;
  glsl::AluModel* alu_;
  GLenum error_ = GL_NO_ERROR;
  std::string last_draw_error_;
  // Robustness state: reset status of the last aborted draw (cleared by
  // GetGraphicsResetStatus) and the resolved watchdog budget.
  GLenum reset_status_ = GL_NO_ERROR;
  std::uint64_t draw_budget_ = 0;
  // Watchdog accumulator: ALU ops consumed by the draw in flight, summed
  // across worker shards via relaxed fetch_add (monotone, so the trip
  // decision is deterministic even though intermediate interleavings vary).
  std::atomic<std::uint64_t> draw_alu_used_{0};

  GLuint next_id_ = 1;
  std::map<GLuint, std::unique_ptr<ShaderObject>> shaders_;
  std::map<GLuint, std::unique_ptr<ProgramObject>> programs_;
  std::map<GLuint, std::unique_ptr<BufferObject>> buffers_;
  std::map<GLuint, std::unique_ptr<Texture>> textures_;
  std::map<GLuint, std::unique_ptr<RenderbufferObject>> renderbuffers_;
  std::map<GLuint, std::unique_ptr<FramebufferObject>> framebuffers_;

  // Worker pool for the tiled fragment pipeline, created lazily on the
  // first parallel draw and resized when shader_threads changes.
  std::unique_ptr<common::ThreadPool> pool_;
  // Cached per-program shading state; see ShadeStateCache.
  ShadeStateCache shade_cache_;
  // Per-draw state the cached flush closures reach through stable
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
  // allocations: the sparse tile binner, the decoded vertex indices, the
  // post-transform vertex array (inner varying vectors keep their capacity
  // too), the assembled primitive list, and the non-empty-tile work list.
  TileBinner binner_;
  std::vector<GLuint> scratch_indices_;
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
  int sc_x_ = 0, sc_y_ = 0, sc_w_ = 0, sc_h_ = 0;
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
