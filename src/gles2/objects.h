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
#include "glsl/interp.h"
#include "glsl/ir.h"
#include "glsl/shader.h"
#include "glsl/vm.h"

namespace mgpu::gles2 {

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

  // Link products. Each stage carries both execution engines: the bytecode
  // VM (production path; lowered once here at link time) and the
  // tree-walking interpreter (reference oracle). The context's ExecEngine
  // selects which one draws use; uniforms are mirrored into both.
  std::shared_ptr<const glsl::CompiledShader> vs;
  std::shared_ptr<const glsl::CompiledShader> fs;
  std::unique_ptr<glsl::ShaderExec> vexec;
  std::unique_ptr<glsl::ShaderExec> fexec;
  std::shared_ptr<const glsl::VmProgram> vs_bytecode;
  std::shared_ptr<const glsl::VmProgram> fs_bytecode;
  std::unique_ptr<glsl::VmExec> vvm;
  std::unique_ptr<glsl::VmExec> fvm;
  std::vector<VaryingLink> varyings;
  // Whether the fragment stage can trap at runtime (VmProgram::CanTrap on
  // the lowered bytecode; the tree-walk interpreter traps on exactly the
  // same constructs, so one flag covers every engine). Cached at link so
  // the draw loop's journal-or-not decision is a field read. Defaults to
  // the conservative answer.
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
// link products; on failure sets link_ok = false and the info log.
void LinkProgram(ProgramObject& prog,
                 const std::map<GLuint, std::unique_ptr<ShaderObject>>& shaders,
                 glsl::AluModel& alu, const glsl::Limits& limits);

}  // namespace mgpu::gles2

#endif  // MGPU_GLES2_OBJECTS_H_
