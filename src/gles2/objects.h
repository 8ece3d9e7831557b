// Shader, program, buffer, renderbuffer and framebuffer objects of the
// software GL ES 2.0 implementation.
#ifndef MGPU_GLES2_OBJECTS_H_
#define MGPU_GLES2_OBJECTS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gles2/enums.h"
#include "glsl/alu.h"
#include "glsl/engine.h"
#include "glsl/shader.h"

namespace mgpu::gles2 {

// The engine a context's programs link and draw with, fixed when the
// context is built. Three engines, all byte-identical in framebuffer
// output and ALU/SFU/TMU op counts:
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
// kCompiled is kept only for e2ebench: the Context constructor maps it to
// kBatchedVm, so exec_engine() never returns it.
enum class ExecEngine { kBatchedVm, kBytecodeVm, kTreeWalk, kCompiled };

struct ShaderObject {
  GLenum type = GL_FRAGMENT_SHADER;
  std::string source;
  bool compile_attempted = false;
  bool compile_ok = false;
  std::string info_log;
  std::shared_ptr<const glsl::CompiledShader> compiled;
};

struct BufferObject {
  std::vector<std::uint8_t> data;
  GLenum usage = GL_STATIC_DRAW;
};

struct RenderbufferObject {
  GLenum internal_format = 0;
  GLsizei width = 0;
  GLsizei height = 0;
  // Color storage kept as RGBA8, depth as float; only one is used.
  std::vector<std::uint8_t> color;
  std::vector<float> depth;
};

struct FramebufferAttachment {
  enum class Kind { kNone, kTexture, kRenderbuffer } kind = Kind::kNone;
  GLuint object = 0;  // texture or renderbuffer id
};

struct FramebufferObject {
  FramebufferAttachment color;
  FramebufferAttachment depth;
};

// A varying matched between the two stages at link time.
struct VaryingLink {
  int vs_slot = -1;
  int fs_slot = -1;
  int cells = 0;
  int offset = 0;  // cell offset into the flattened varying buffer
};

struct AttribInfo {
  std::string name;
  glsl::Type type;
  int location = -1;
  int vs_slot = -1;
};

struct UniformInfo {
  std::string name;
  glsl::Type type;
  int vs_slot = -1;  // -1 when the stage does not declare it
  int fs_slot = -1;
  int base_location = -1;
};

struct ProgramObject {
  GLuint vertex_shader = 0;
  GLuint fragment_shader = 0;
  bool linked = false;
  bool link_ok = false;
  std::string info_log;
  std::map<std::string, GLint> bound_attribs;  // BindAttribLocation requests

  // Link products: the compiled shaders, declared first so they outlive
  // the engines built from them, and one engine per stage, of the kind the
  // linking context draws with. Uniforms are written into these engines;
  // draws sync them into the fragment clones.
  std::shared_ptr<const glsl::CompiledShader> vs;
  std::shared_ptr<const glsl::CompiledShader> fs;
  std::unique_ptr<glsl::ShaderEngine> vertex;
  std::unique_ptr<glsl::ShaderEngine> fragment;

  // The vertex stage's plane views into `vertex`, resolved once per link:
  // attribute gather destinations and the gl_Position / gl_PointSize /
  // varying scatter sources. The vertex stage runs `vertex` itself on the
  // calling thread, with worker 0's counter shard and texture fetch. A builtin the stage never declares has a null
  // base; a slot without a per-lane plane (never written) is a (1, 0) view
  // of the shared store, the value a one-lane run reads.
  struct VertexViews {
    struct Attrib {
      glsl::PlaneDst dst;
      int location = -1;  // index into the context's attribute bindings
      int cells = 0;      // components the shader-side declaration holds
    };
    struct Varying {
      glsl::PlaneSrc src;
      int cells = 0;
      int offset = 0;  // cell offset into RasterVertex::varyings
    };
    std::vector<Attrib> attribs;
    std::vector<Varying> varyings;
    glsl::PlaneSrc position;
    glsl::PlaneSrc point_size;
  };
  VertexViews vertex_views;

  // One shading worker's copy of the fragment stage: a clone of `fragment`
  // (run on that worker's counter shard and texture callback), with the
  // gl_* and varying plane views the worker's batch flush writes and
  // reads. Clone i belongs to the context's worker
  // i; it is built the first time that worker shades this program and
  // re-synced from `fragment` on every later draw. A relink or a delete
  // drops the clones with the engines.
  struct FragmentClone {
    struct Varying {
      glsl::PlaneDst dst;
      int cells = 0;
      int offset = 0;  // cell offset into FragmentBatch::varyings
    };
    std::unique_ptr<glsl::ShaderEngine> engine;
    glsl::PlaneDst frag_coord;
    glsl::PlaneDst front_facing;
    glsl::PlaneDst point_coord;
    glsl::PlaneDst color;  // gl_FragColor or gl_FragData, whichever is used
    std::vector<Varying> varyings;
  };
  std::vector<FragmentClone> fragment_clones;
  // Whether a draw has reached the vertex stage since the last link; read
  // only by the Context::shade_state_cache() tallies.
  bool drawn = false;
  std::vector<VaryingLink> varyings;
  // Whether the fragment stage can trap at runtime (VmProgram::CanTrap on
  // the lowered bytecode). Cached at link so the draw loop's
  // journal-or-not decision is a field read. A tree-walk link lowers
  // nothing, so it keeps the conservative default.
  bool fs_can_trap = true;
  int varying_cells = 0;
  std::vector<AttribInfo> attribs;
  std::vector<UniformInfo> uniforms;
  struct LocationEntry {
    int uniform_index = -1;
    int element = 0;
  };
  std::vector<LocationEntry> locations;
  std::map<std::string, GLint> uniform_locations;
  bool uses_frag_data = false;  // fragment writes gl_FragData[0]
  // Cached gl_* slots.
  int vs_position_slot = -1;
  int vs_point_size_slot = -1;
  int fs_frag_color_slot = -1;
  int fs_frag_data_slot = -1;
  int fs_frag_coord_slot = -1;
  int fs_front_facing_slot = -1;
  int fs_point_coord_slot = -1;

  [[nodiscard]] GLint LookupUniform(const std::string& name) const {
    const auto it = uniform_locations.find(name);
    return it != uniform_locations.end() ? it->second : -1;
  }
};

// Links `prog` from its attached, successfully compiled shaders. Fills all
// link products, building each stage's engine of kind `engine` (never
// kCompiled) on `alu`, which is charged the global initializers' ops, and
// resolving the vertex views; on failure sets link_ok = false and the info
// log. Either way the previous link's engines and clones are gone.
void LinkProgram(ProgramObject& prog,
                 const std::map<GLuint, std::unique_ptr<ShaderObject>>& shaders,
                 glsl::AluModel& alu, const glsl::Limits& limits,
                 ExecEngine engine);

// Clones the linked `prog`'s fragment engine for a shading worker and
// resolves the clone's plane views. Charges no ops.
[[nodiscard]] ProgramObject::FragmentClone CloneFragmentStage(
    const ProgramObject& prog);

}  // namespace mgpu::gles2

#endif  // MGPU_GLES2_OBJECTS_H_
