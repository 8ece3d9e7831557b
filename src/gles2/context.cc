#include "gles2/context.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <new>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include "common/fault.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "gles2/raster.h"
#include "gles2/tiler.h"
#include "glsl/compile.h"

namespace mgpu::gles2 {

using glsl::BaseType;
using glsl::Value;

// The raster layer's batch width and the VM's lane count must agree: the
// flush path shades a whole FragmentBatch in one batched-VM chunk.
static_assert(kFragBatchWidth == glsl::kVmLanes,
              "fragment batch width must match the VM lane width");
// A texture fetch samples one batch's lanes in one call, straight into the
// fetch's rows.
static_assert(
    std::is_same_v<Texture::RgbaRow, decltype(glsl::TexelFetch::rgba)>);

namespace {
// A watchdog trip (ContextConfig::draw_budget). The budget is a per-draw
// total, so the vertex and fragment stages throw the same error.
class DrawBudgetExceeded : public std::runtime_error {
 public:
  DrawBudgetExceeded()
      : std::runtime_error(
            "draw exceeded the per-draw ALU-op watchdog budget "
            "(ContextConfig::draw_budget)") {}
};

// What a texture unit with no texture samples: a texture without storage,
// which reads (0, 0, 0, 1).
const Texture kUnbound;

// x + w for w >= 0, saturated at INT_MAX: a scissor box's end.
int SaturatedEnd(int x, int w) { return x > INT_MAX - w ? INT_MAX : x + w; }
}  // namespace

Context::Context(const ContextConfig& config, glsl::AluModel* alu)
    : config_(config), alu_(alu != nullptr ? alu : &default_alu_) {
  // kCompiled exists only for e2ebench; it names the lane-batched VM.
  if (config_.exec_engine == ExecEngine::kCompiled) {
    config_.exec_engine = ExecEngine::kBatchedVm;
  }
  // <= 0 selects one worker per hardware thread; a hard cap of 256 keeps a
  // bogus huge knob value from spawning thousands of OS threads.
  shade_workers_ = config_.shader_threads > 0 ? config_.shader_threads
                                              : common::DefaultThreadCount();
  shade_workers_ = std::min(shade_workers_, 256);
  attribs_.resize(static_cast<std::size_t>(config_.limits.max_vertex_attribs));
  fb_color_.assign(
      static_cast<std::size_t>(config_.width) * config_.height * 4, 0);
  if (config_.has_depth) {
    fb_depth_.assign(static_cast<std::size_t>(config_.width) * config_.height,
                     1.0f);
  }
  vp_w_ = config_.width;
  vp_h_ = config_.height;
  sc_x1_ = config_.width;
  sc_y1_ = config_.height;
}

// Out of line: pool_ holds a ThreadPool, incomplete in the header.
Context::~Context() = default;

void Context::SetError(GLenum e) {
  if (error_ == GL_NO_ERROR) error_ = e;
}

bool Context::RejectNegative(GLsizei n) {
  if (n >= 0) return false;
  SetError(GL_INVALID_VALUE);
  return true;
}

GLenum Context::GetError() {
  const GLenum e = error_;
  error_ = GL_NO_ERROR;
  return e;
}

GLenum Context::GetGraphicsResetStatus() {
  const GLenum s = reset_status_;
  reset_status_ = GL_NO_ERROR;
  return s;
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

void Context::Enable(GLenum cap) {
  switch (cap) {
    case GL_SCISSOR_TEST: scissor_enabled_ = true; break;
    case GL_DEPTH_TEST: depth_enabled_ = true; break;
    case GL_BLEND: blend_enabled_ = true; break;
    case GL_CULL_FACE: cull_enabled_ = true; break;
    case GL_DITHER: break;  // accepted, no-op
    default: SetError(GL_INVALID_ENUM);
  }
}

void Context::Disable(GLenum cap) {
  switch (cap) {
    case GL_SCISSOR_TEST: scissor_enabled_ = false; break;
    case GL_DEPTH_TEST: depth_enabled_ = false; break;
    case GL_BLEND: blend_enabled_ = false; break;
    case GL_CULL_FACE: cull_enabled_ = false; break;
    case GL_DITHER: break;
    default: SetError(GL_INVALID_ENUM);
  }
}

void Context::Viewport(GLint x, GLint y, GLsizei w, GLsizei h) {
  if (w < 0 || h < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  // GL ES 2.0 §2.12.1: w and h are silently clamped to
  // GL_MAX_VIEWPORT_DIMS.
  const int max_dim = MaxViewportDim();
  vp_x_ = x; vp_y_ = y;
  vp_w_ = std::min(w, max_dim); vp_h_ = std::min(h, max_dim);
}

int Context::MaxViewportDim() const {
  return std::max({config_.max_texture_size, config_.width, config_.height});
}

void Context::Scissor(GLint x, GLint y, GLsizei w, GLsizei h) {
  if (w < 0 || h < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  sc_x0_ = x; sc_y0_ = y;
  sc_x1_ = SaturatedEnd(x, w); sc_y1_ = SaturatedEnd(y, h);
}

void Context::ClearColor(GLfloat r, GLfloat g, GLfloat b, GLfloat a) {
  clear_color_ ={std::clamp(r, 0.0f, 1.0f), std::clamp(g, 0.0f, 1.0f),
                  std::clamp(b, 0.0f, 1.0f), std::clamp(a, 0.0f, 1.0f)};
}

void Context::BlendFunc(GLenum src, GLenum dst) {
  blend_src_ = src;
  blend_dst_ = dst;
}

void Context::DepthFunc(GLenum func) {
  if (func < GL_NEVER || func > GL_ALWAYS) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  depth_func_ = func;
}

void Context::DepthMask(GLboolean flag) {
  depth_write_ = flag != GL_FALSE;
}

void Context::ColorMask(GLboolean r, GLboolean g, GLboolean b, GLboolean a) {
  color_mask_ = {r != GL_FALSE, g != GL_FALSE, b != GL_FALSE, a != GL_FALSE};
}

void Context::CullFace(GLenum mode) {
  if (mode != GL_FRONT && mode != GL_BACK && mode != GL_FRONT_AND_BACK) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  cull_face_ = mode;
}

void Context::FrontFace(GLenum dir) {
  if (dir != GL_CW && dir != GL_CCW) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  front_face_ = dir;
}

void Context::PixelStorei(GLenum pname, GLint value) {
  if (value != 1 && value != 2 && value != 4 && value != 8) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (pname == GL_UNPACK_ALIGNMENT) {
    unpack_alignment_ = value;
  } else if (pname == GL_PACK_ALIGNMENT) {
    pack_alignment_ = value;
  } else {
    SetError(GL_INVALID_ENUM);
  }
}

void Context::GetIntegerv(GLenum pname, GLint* params) {
  const glsl::Limits& lim = config_.limits;
  switch (pname) {
    case GL_MAX_TEXTURE_SIZE: *params = config_.max_texture_size; break;
    case GL_MAX_VERTEX_ATTRIBS: *params = lim.max_vertex_attribs; break;
    case GL_MAX_VARYING_VECTORS: *params = lim.max_varying_vectors; break;
    case GL_MAX_VERTEX_UNIFORM_VECTORS:
      *params = lim.max_vertex_uniform_vectors;
      break;
    case GL_MAX_FRAGMENT_UNIFORM_VECTORS:
      *params = lim.max_fragment_uniform_vectors;
      break;
    case GL_MAX_TEXTURE_IMAGE_UNITS:
      *params = lim.max_texture_image_units;
      break;
    case GL_MAX_VERTEX_TEXTURE_IMAGE_UNITS:
      *params = lim.max_vertex_texture_image_units;
      break;
    case GL_MAX_COMBINED_TEXTURE_IMAGE_UNITS:
      *params = lim.max_texture_image_units +
                lim.max_vertex_texture_image_units;
      break;
    case GL_IMPLEMENTATION_COLOR_READ_FORMAT: *params = GL_RGBA; break;
    case GL_IMPLEMENTATION_COLOR_READ_TYPE: *params = GL_UNSIGNED_BYTE; break;
    case GL_MAX_VIEWPORT_DIMS:
      params[0] = params[1] = MaxViewportDim();
      break;
    case GL_VIEWPORT:
      params[0] = vp_x_; params[1] = vp_y_;
      params[2] = vp_w_; params[3] = vp_h_;
      break;
    default:
      SetError(GL_INVALID_ENUM);
  }
}

const char* Context::GetString(GLenum name) {
  switch (name) {
    case GL_VENDOR: return "mgpu";
    case GL_RENDERER: return config_.renderer_name.c_str();
    case GL_VERSION: return "OpenGL ES 2.0 (mgpu simulator)";
    case GL_SHADING_LANGUAGE_VERSION: return "OpenGL ES GLSL ES 1.00";
    case GL_EXTENSIONS: return "";  // deliberately none: the paper's setting
    default:
      SetError(GL_INVALID_ENUM);
      return "";
  }
}

void Context::GetShaderPrecisionFormat(GLenum shader_type,
                                       GLenum precision_type, GLint* range,
                                       GLint* precision) {
  if (shader_type != GL_VERTEX_SHADER && shader_type != GL_FRAGMENT_SHADER) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  const bool fragment = shader_type == GL_FRAGMENT_SHADER;
  switch (precision_type) {
    case GL_HIGH_FLOAT:
      if (fragment && !config_.limits.fragment_highp_float) {
        range[0] = range[1] = 0;
        *precision = 0;  // unsupported (paper §IV-E footnote 1)
      } else {
        range[0] = range[1] = 127;
        *precision = 23;  // IEEE-754-sized mantissa, as on VideoCore IV
      }
      return;
    case GL_MEDIUM_FLOAT:
      range[0] = range[1] = 15;
      *precision = 10;
      return;
    case GL_LOW_FLOAT:
      range[0] = range[1] = 1;
      *precision = 8;
      return;
    case GL_HIGH_INT:
      range[0] = range[1] = 24;
      *precision = 0;
      return;
    case GL_MEDIUM_INT:
      range[0] = range[1] = 10;
      *precision = 0;
      return;
    case GL_LOW_INT:
      range[0] = range[1] = 8;
      *precision = 0;
      return;
    default:
      SetError(GL_INVALID_ENUM);
  }
}

// ---------------------------------------------------------------------------
// Shaders & programs
// ---------------------------------------------------------------------------

ShaderObject* Context::GetShader(GLuint id) {
  const auto it = shaders_.find(id);
  return it != shaders_.end() ? it->second.get() : nullptr;
}

ProgramObject* Context::GetProgram(GLuint id) {
  const auto it = programs_.find(id);
  return it != programs_.end() ? it->second.get() : nullptr;
}

GLuint Context::CreateShader(GLenum type) {
  if (type != GL_VERTEX_SHADER && type != GL_FRAGMENT_SHADER) {
    SetError(GL_INVALID_ENUM);
    return 0;
  }
  const GLuint id = next_id_++;
  auto obj = std::make_unique<ShaderObject>();
  obj->type = type;
  shaders_[id] = std::move(obj);
  return id;
}

void Context::ShaderSource(GLuint shader, const std::string& source) {
  ShaderObject* s = GetShader(shader);
  if (s == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  s->source = source;
}

void Context::CompileShader(GLuint shader) {
  ShaderObject* s = GetShader(shader);
  if (s == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  s->compile_attempted = true;
  glsl::CompileResult r = glsl::CompileGlsl(
      s->source,
      s->type == GL_VERTEX_SHADER ? glsl::Stage::kVertex
                                  : glsl::Stage::kFragment,
      config_.limits);
  s->compile_ok = r.ok;
  s->info_log = r.info_log;
  s->compiled = std::move(r.shader);
}

void Context::GetShaderiv(GLuint shader, GLenum pname, GLint* params) {
  ShaderObject* s = GetShader(shader);
  if (s == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  switch (pname) {
    case GL_COMPILE_STATUS: *params = s->compile_ok ? GL_TRUE : GL_FALSE; break;
    case GL_SHADER_TYPE: *params = static_cast<GLint>(s->type); break;
    case GL_INFO_LOG_LENGTH:
      *params = static_cast<GLint>(s->info_log.size()) + 1;
      break;
    case GL_SHADER_SOURCE_LENGTH:
      *params = static_cast<GLint>(s->source.size()) + 1;
      break;
    case GL_DELETE_STATUS: *params = GL_FALSE; break;
    default: SetError(GL_INVALID_ENUM);
  }
}

std::string Context::GetShaderInfoLog(GLuint shader) {
  ShaderObject* s = GetShader(shader);
  if (s == nullptr) {
    SetError(GL_INVALID_VALUE);
    return {};
  }
  return s->info_log;
}

void Context::DeleteShader(GLuint shader) {
  shaders_.erase(shader);
}

GLuint Context::CreateProgram() {
  const GLuint id = next_id_++;
  programs_[id] = std::make_unique<ProgramObject>();
  return id;
}

void Context::AttachShader(GLuint program, GLuint shader) {
  ProgramObject* p = GetProgram(program);
  ShaderObject* s = GetShader(shader);
  if (p == nullptr || s == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (s->type == GL_VERTEX_SHADER) {
    p->vertex_shader = shader;
  } else {
    p->fragment_shader = shader;
  }
}

void Context::BindAttribLocation(GLuint program, GLuint index,
                                 const std::string& name) {
  ProgramObject* p = GetProgram(program);
  if (p == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (name.rfind("gl_", 0) == 0) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  if (index >= attribs_.size()) {  // GL_MAX_VERTEX_ATTRIBS
    SetError(GL_INVALID_VALUE);
    return;
  }
  p->bound_attribs[name] = static_cast<GLint>(index);
}

void Context::LinkProgram(GLuint program) {
  ProgramObject* p = GetProgram(program);
  if (p == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  gles2::LinkProgram(*p, shaders_, *alu_, config_.limits,
                     config_.exec_engine);
}

void Context::GetProgramiv(GLuint program, GLenum pname, GLint* params) {
  ProgramObject* p = GetProgram(program);
  if (p == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  switch (pname) {
    case GL_LINK_STATUS: *params = p->link_ok ? GL_TRUE : GL_FALSE; break;
    case GL_VALIDATE_STATUS: *params = p->link_ok ? GL_TRUE : GL_FALSE; break;
    case GL_INFO_LOG_LENGTH:
      *params = static_cast<GLint>(p->info_log.size()) + 1;
      break;
    case GL_ACTIVE_UNIFORMS:
      *params = static_cast<GLint>(p->uniforms.size());
      break;
    case GL_ACTIVE_ATTRIBUTES:
      *params = static_cast<GLint>(p->attribs.size());
      break;
    case GL_ATTACHED_SHADERS:
      *params = (p->vertex_shader != 0 ? 1 : 0) +
                (p->fragment_shader != 0 ? 1 : 0);
      break;
    case GL_DELETE_STATUS: *params = GL_FALSE; break;
    default: SetError(GL_INVALID_ENUM);
  }
}

std::string Context::GetProgramInfoLog(GLuint program) {
  ProgramObject* p = GetProgram(program);
  if (p == nullptr) {
    SetError(GL_INVALID_VALUE);
    return {};
  }
  return p->info_log;
}

void Context::UseProgram(GLuint program) {
  if (program != 0 && GetProgram(program) == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (program != 0 && !GetProgram(program)->link_ok) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  current_program_ = program;
}

void Context::DeleteProgram(GLuint program) {
  if (current_program_ == program) current_program_ = 0;
  programs_.erase(program);
}

GLint Context::GetUniformLocation(GLuint program, const std::string& name) {
  ProgramObject* p = GetProgram(program);
  if (p == nullptr || !p->link_ok) {
    SetError(GL_INVALID_OPERATION);
    return -1;
  }
  return p->LookupUniform(name);
}

GLint Context::GetAttribLocation(GLuint program, const std::string& name) {
  ProgramObject* p = GetProgram(program);
  if (p == nullptr || !p->link_ok) {
    SetError(GL_INVALID_OPERATION);
    return -1;
  }
  for (const AttribInfo& a : p->attribs) {
    if (a.name == name) return a.location;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Uniforms
// ---------------------------------------------------------------------------

void Context::SetUniformValue(const UniformInfo& u, int element, int comps,
                              const float* fdata, const GLint* idata,
                              int count, bool is_matrix) {
  ProgramObject* p = GetProgram(current_program_);
  const int type_comps = glsl::ComponentCount(u.type.base);
  const bool type_is_matrix = glsl::IsMatrix(u.type.base);
  const BaseType scalar = glsl::ScalarOf(u.type.base);
  const bool wants_float = scalar == BaseType::kFloat;
  const bool sampler = glsl::IsSampler(u.type.base);

  if (is_matrix != type_is_matrix || comps != type_comps) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  // ES 2.0 §2.10.4: the float entry points load float and bool uniforms.
  if (fdata != nullptr && !wants_float && scalar != BaseType::kBool) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  if (idata != nullptr && wants_float) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  const int max_elements = u.type.IsArray() ? u.type.array_size : 1;
  if (count > 1 && !u.type.IsArray()) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  count = std::min(count, max_elements - element);

  // Each stage that declares the uniform holds it in its engine's store.
  for (const auto& [exec, slot] : {std::pair{p->vertex.get(), u.vs_slot},
                                   std::pair{p->fragment.get(), u.fs_slot}}) {
    if (slot < 0) continue;
    Value& val = exec->GlobalAt(slot);
    for (int e = 0; e < count; ++e) {
      const int cell_base = (element + e) * type_comps;
      for (int c = 0; c < type_comps; ++c) {
        if (wants_float) {
          val.SetF(cell_base + c, fdata[e * type_comps + c]);
        } else if (sampler || scalar == BaseType::kInt) {
          val.SetI(cell_base + c, idata[e * type_comps + c]);
        } else if (fdata != nullptr) {  // bool: 0.0f is false
          val.SetB(cell_base + c, fdata[e * type_comps + c] != 0.0f);
        } else {  // bool
          val.SetB(cell_base + c, idata[e * type_comps + c] != 0);
        }
      }
    }
  }
}

#define MGPU_RESOLVE_LOC_OR_RETURN()                                       \
  ProgramObject* p = GetProgram(current_program_);                        \
  if (p == nullptr || !p->link_ok) {                                      \
    SetError(GL_INVALID_OPERATION);                                       \
    return;                                                               \
  }                                                                       \
  if (loc < 0) return; /* silently ignored, GL semantics */               \
  if (loc >= static_cast<GLint>(p->locations.size())) {                   \
    SetError(GL_INVALID_OPERATION);                                       \
    return;                                                               \
  }                                                                       \
  const ProgramObject::LocationEntry entry =                              \
      p->locations[static_cast<std::size_t>(loc)];                        \
  const UniformInfo& u = p->uniforms[static_cast<std::size_t>(entry.uniform_index)]

void Context::Uniform1f(GLint loc, GLfloat x) {
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 1, &x, nullptr, 1, false);
}

void Context::Uniform2f(GLint loc, GLfloat x, GLfloat y) {
  MGPU_RESOLVE_LOC_OR_RETURN();
  const float v[2] = {x, y};
  SetUniformValue(u, entry.element, 2, v, nullptr, 1, false);
}

void Context::Uniform3f(GLint loc, GLfloat x, GLfloat y, GLfloat z) {
  MGPU_RESOLVE_LOC_OR_RETURN();
  const float v[3] = {x, y, z};
  SetUniformValue(u, entry.element, 3, v, nullptr, 1, false);
}

void Context::Uniform4f(GLint loc, GLfloat x, GLfloat y, GLfloat z,
                        GLfloat w) {
  MGPU_RESOLVE_LOC_OR_RETURN();
  const float v[4] = {x, y, z, w};
  SetUniformValue(u, entry.element, 4, v, nullptr, 1, false);
}

void Context::Uniform1i(GLint loc, GLint x) {
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 1, nullptr, &x, 1, false);
}

void Context::Uniform1fv(GLint loc, GLsizei count, const GLfloat* v) {
  if (RejectNegative(count)) return;
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 1, v, nullptr, count, false);
}

void Context::Uniform2fv(GLint loc, GLsizei count, const GLfloat* v) {
  if (RejectNegative(count)) return;
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 2, v, nullptr, count, false);
}

void Context::Uniform4fv(GLint loc, GLsizei count, const GLfloat* v) {
  if (RejectNegative(count)) return;
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 4, v, nullptr, count, false);
}

void Context::UniformMatrix4fv(GLint loc, GLsizei count, GLboolean transpose,
                               const GLfloat* v) {
  if (RejectNegative(count)) return;
  if (transpose != GL_FALSE) {
    SetError(GL_INVALID_VALUE);  // must be FALSE in ES 2.0
    return;
  }
  MGPU_RESOLVE_LOC_OR_RETURN();
  SetUniformValue(u, entry.element, 16, v, nullptr, count, true);
}

#undef MGPU_RESOLVE_LOC_OR_RETURN

// ---------------------------------------------------------------------------
// Vertex attributes & buffers
// ---------------------------------------------------------------------------

void Context::EnableVertexAttribArray(GLuint index) {
  if (index >= attribs_.size()) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  attribs_[index].enabled = true;
}

void Context::DisableVertexAttribArray(GLuint index) {
  if (index >= attribs_.size()) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  attribs_[index].enabled = false;
}

void Context::VertexAttribPointer(GLuint index, GLint size, GLenum type,
                                  GLboolean normalized, GLsizei stride,
                                  const void* pointer) {
  if (index >= attribs_.size()) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (size < 1 || size > 4 || stride < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (type != GL_FLOAT && type != GL_UNSIGNED_BYTE && type != GL_BYTE &&
      type != GL_SHORT && type != GL_UNSIGNED_SHORT) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  AttribState& a = attribs_[index];
  a.size = size;
  a.type = type;
  a.normalized = normalized;
  a.stride = stride;
  a.pointer = pointer;
  a.buffer = array_buffer_;
}

void Context::VertexAttrib4f(GLuint index, GLfloat x, GLfloat y, GLfloat z,
                             GLfloat w) {
  if (index >= attribs_.size()) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  attribs_[index].constant = {x, y, z, w};
}

BufferObject* Context::GetBuffer(GLuint id) {
  const auto it = buffers_.find(id);
  return it != buffers_.end() ? it->second.get() : nullptr;
}

void Context::GenBuffers(GLsizei n, GLuint* ids) {
  if (RejectNegative(n)) return;
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint id = next_id_++;
    buffers_[id] = std::make_unique<BufferObject>();
    ids[i] = id;
  }
}

void Context::BindBuffer(GLenum target, GLuint id) {
  if (id != 0 && GetBuffer(id) == nullptr) {
    buffers_[id] = std::make_unique<BufferObject>();
  }
  if (target == GL_ARRAY_BUFFER) {
    array_buffer_ = id;
  } else if (target == GL_ELEMENT_ARRAY_BUFFER) {
    element_array_buffer_ = id;
  } else {
    SetError(GL_INVALID_ENUM);
  }
}

BufferObject* Context::BoundBuffer(GLenum target) {
  if (target != GL_ARRAY_BUFFER && target != GL_ELEMENT_ARRAY_BUFFER) {
    SetError(GL_INVALID_ENUM);
    return nullptr;
  }
  BufferObject* b = GetBuffer(
      target == GL_ARRAY_BUFFER ? array_buffer_ : element_array_buffer_);
  if (b == nullptr) SetError(GL_INVALID_OPERATION);
  return b;
}

void Context::BufferData(GLenum target, GLsizeiptr size, const void* data,
                         GLenum usage) {
  if (usage != GL_STATIC_DRAW && usage != GL_DYNAMIC_DRAW &&
      usage != GL_STREAM_DRAW) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  BufferObject* b = BoundBuffer(target);
  if (b == nullptr) return;
  if (size < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  b->usage = usage;
  b->data.assign(static_cast<std::size_t>(size), 0);
  if (data != nullptr) {
    std::memcpy(b->data.data(), data, static_cast<std::size_t>(size));
  }
}

void Context::BufferSubData(GLenum target, GLintptr offset, GLsizeiptr size,
                            const void* data) {
  BufferObject* b = BoundBuffer(target);
  if (b == nullptr) return;
  // Compared without forming offset + size, which can overflow.
  if (offset < 0 || size < 0 ||
      static_cast<std::size_t>(offset) > b->data.size() ||
      static_cast<std::size_t>(size) >
          b->data.size() - static_cast<std::size_t>(offset)) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  std::memcpy(b->data.data() + offset, data, static_cast<std::size_t>(size));
}

void Context::DeleteBuffers(GLsizei n, const GLuint* ids) {
  if (RejectNegative(n)) return;
  for (GLsizei i = 0; i < n; ++i) {
    buffers_.erase(ids[i]);
    if (array_buffer_ == ids[i]) array_buffer_ = 0;
    if (element_array_buffer_ == ids[i]) element_array_buffer_ = 0;
    // Delete-detach semantics: attributes sourcing the deleted buffer fall
    // back to a null client pointer, so a later draw fails cleanly with
    // GL_INVALID_OPERATION instead of dereferencing a stale id.
    if (ids[i] != 0) {
      for (AttribState& a : attribs_) {
        if (a.buffer == ids[i]) {
          a.buffer = 0;
          a.pointer = nullptr;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Textures
// ---------------------------------------------------------------------------

Texture* Context::GetTextureObject(GLuint id) {
  const auto it = textures_.find(id);
  return it != textures_.end() ? it->second.get() : nullptr;
}

void Context::GenTextures(GLsizei n, GLuint* ids) {
  if (RejectNegative(n)) return;
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint id = next_id_++;
    textures_[id] = std::make_unique<Texture>();
    ids[i] = id;
  }
}

void Context::ActiveTexture(GLenum unit) {
  const int idx = static_cast<int>(unit - GL_TEXTURE0);
  if (idx < 0 || idx >= static_cast<int>(units_.size())) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  active_unit_ = idx;
}

void Context::BindTexture(GLenum target, GLuint id) {
  if (target == GL_TEXTURE_CUBE_MAP) {
    SetError(GL_INVALID_ENUM);  // documented subset: no cube maps
    return;
  }
  if (target != GL_TEXTURE_2D) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (id != 0 && GetTextureObject(id) == nullptr) {
    textures_[id] = std::make_unique<Texture>();
  }
  units_[static_cast<std::size_t>(active_unit_)].bound_2d = id;
}

void Context::TexImage2D(GLenum target, GLint level, GLint internal_format,
                         GLsizei width, GLsizei height, GLint border,
                         GLenum format, GLenum type, const void* data) {
  if (target != GL_TEXTURE_2D) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (border != 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (width > config_.max_texture_size || height > config_.max_texture_size) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  Texture* t = GetTextureObject(
      units_[static_cast<std::size_t>(active_unit_)].bound_2d);
  if (t == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  const GLenum err =
      t->TexImage2D(level, static_cast<GLenum>(internal_format), width,
                    height, format, type, data, unpack_alignment_);
  if (err != GL_NO_ERROR) SetError(err);
}

void Context::TexSubImage2D(GLenum target, GLint level, GLint xoffset,
                            GLint yoffset, GLsizei width, GLsizei height,
                            GLenum format, GLenum type, const void* data) {
  if (target != GL_TEXTURE_2D) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  Texture* t = GetTextureObject(
      units_[static_cast<std::size_t>(active_unit_)].bound_2d);
  if (t == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  const GLenum err = t->TexSubImage2D(level, xoffset, yoffset, width, height,
                                      format, type, data, unpack_alignment_);
  if (err != GL_NO_ERROR) SetError(err);
}

void Context::TexParameteri(GLenum target, GLenum pname, GLint param) {
  if (target != GL_TEXTURE_2D) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  Texture* t = GetTextureObject(
      units_[static_cast<std::size_t>(active_unit_)].bound_2d);
  if (t == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  const GLenum err = t->SetParameter(pname, param);
  if (err != GL_NO_ERROR) SetError(err);
}

void Context::DeleteTextures(GLsizei n, const GLuint* ids) {
  if (RejectNegative(n)) return;
  for (GLsizei i = 0; i < n; ++i) {
    textures_.erase(ids[i]);
    for (TextureUnit& u : units_) {
      if (u.bound_2d == ids[i]) u.bound_2d = 0;
    }
    // Delete-detach semantics: framebuffers holding the dead texture drop
    // to an unattached state (rendering then fails framebuffer-incomplete
    // instead of chasing a stale id into freed storage).
    if (ids[i] != 0) {
      for (auto& [fb_id, fb] : framebuffers_) {
        if (fb->color.kind == FramebufferAttachment::Kind::kTexture &&
            fb->color.object == ids[i]) {
          fb->color = FramebufferAttachment{};
        }
        if (fb->depth.kind == FramebufferAttachment::Kind::kTexture &&
            fb->depth.object == ids[i]) {
          fb->depth = FramebufferAttachment{};
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Renderbuffers & framebuffers
// ---------------------------------------------------------------------------

RenderbufferObject* Context::GetRenderbuffer(GLuint id) {
  const auto it = renderbuffers_.find(id);
  return it != renderbuffers_.end() ? it->second.get() : nullptr;
}

FramebufferObject* Context::GetFramebuffer(GLuint id) {
  const auto it = framebuffers_.find(id);
  return it != framebuffers_.end() ? it->second.get() : nullptr;
}

void Context::GenRenderbuffers(GLsizei n, GLuint* ids) {
  if (RejectNegative(n)) return;
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint id = next_id_++;
    renderbuffers_[id] = std::make_unique<RenderbufferObject>();
    ids[i] = id;
  }
}

void Context::BindRenderbuffer(GLenum target, GLuint id) {
  if (target != GL_RENDERBUFFER) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (id != 0 && GetRenderbuffer(id) == nullptr) {
    renderbuffers_[id] = std::make_unique<RenderbufferObject>();
  }
  bound_renderbuffer_ = id;
}

void Context::RenderbufferStorage(GLenum target, GLenum internal_format,
                                  GLsizei w, GLsizei h) {
  if (target != GL_RENDERBUFFER) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (w < 0 || h < 0 || w > config_.max_texture_size ||
      h > config_.max_texture_size) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  RenderbufferObject* rb = GetRenderbuffer(bound_renderbuffer_);
  if (rb == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  switch (internal_format) {
    case GL_RGBA4:
    case GL_RGB5_A1:
    case GL_RGB565:
      rb->internal_format = internal_format;
      rb->width = w;
      rb->height = h;
      rb->color.assign(static_cast<std::size_t>(w) * h * 4, 0);
      rb->depth.clear();
      return;
    case GL_DEPTH_COMPONENT16:
      rb->internal_format = internal_format;
      rb->width = w;
      rb->height = h;
      rb->depth.assign(static_cast<std::size_t>(w) * h, 1.0f);
      rb->color.clear();
      return;
    default:
      SetError(GL_INVALID_ENUM);  // no float renderbuffers in ES 2.0 either
  }
}

void Context::DeleteRenderbuffers(GLsizei n, const GLuint* ids) {
  if (RejectNegative(n)) return;
  for (GLsizei i = 0; i < n; ++i) {
    renderbuffers_.erase(ids[i]);
    if (bound_renderbuffer_ == ids[i]) bound_renderbuffer_ = 0;
    // Delete-detach, matching DeleteTextures.
    if (ids[i] != 0) {
      for (auto& [fb_id, fb] : framebuffers_) {
        if (fb->color.kind == FramebufferAttachment::Kind::kRenderbuffer &&
            fb->color.object == ids[i]) {
          fb->color = FramebufferAttachment{};
        }
        if (fb->depth.kind == FramebufferAttachment::Kind::kRenderbuffer &&
            fb->depth.object == ids[i]) {
          fb->depth = FramebufferAttachment{};
        }
      }
    }
  }
}

void Context::GenFramebuffers(GLsizei n, GLuint* ids) {
  if (RejectNegative(n)) return;
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint id = next_id_++;
    framebuffers_[id] = std::make_unique<FramebufferObject>();
    ids[i] = id;
  }
}

void Context::BindFramebuffer(GLenum target, GLuint id) {
  if (target != GL_FRAMEBUFFER) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (id != 0 && GetFramebuffer(id) == nullptr) {
    framebuffers_[id] = std::make_unique<FramebufferObject>();
  }
  bound_framebuffer_ = id;
}

void Context::FramebufferTexture2D(GLenum target, GLenum attachment,
                                   GLenum textarget, GLuint texture,
                                   GLint level) {
  if (target != GL_FRAMEBUFFER || textarget != GL_TEXTURE_2D) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (level != 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  FramebufferObject* fb = GetFramebuffer(bound_framebuffer_);
  if (fb == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  FramebufferAttachment att;
  att.kind = texture == 0 ? FramebufferAttachment::Kind::kNone
                          : FramebufferAttachment::Kind::kTexture;
  att.object = texture;
  if (attachment == GL_COLOR_ATTACHMENT0) {
    fb->color = att;
  } else if (attachment == GL_DEPTH_ATTACHMENT) {
    fb->depth = att;
  } else {
    SetError(GL_INVALID_ENUM);
  }
}

void Context::FramebufferRenderbuffer(GLenum target, GLenum attachment,
                                      GLenum rb_target, GLuint rb) {
  if (target != GL_FRAMEBUFFER || rb_target != GL_RENDERBUFFER) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  FramebufferObject* fb = GetFramebuffer(bound_framebuffer_);
  if (fb == nullptr) {
    SetError(GL_INVALID_OPERATION);
    return;
  }
  FramebufferAttachment att;
  att.kind = rb == 0 ? FramebufferAttachment::Kind::kNone
                     : FramebufferAttachment::Kind::kRenderbuffer;
  att.object = rb;
  if (attachment == GL_COLOR_ATTACHMENT0) {
    fb->color = att;
  } else if (attachment == GL_DEPTH_ATTACHMENT) {
    fb->depth = att;
  } else {
    SetError(GL_INVALID_ENUM);
  }
}

bool Context::ResolveTarget(RenderTarget* out) {
  if (bound_framebuffer_ == 0) {
    out->color = &fb_color_;
    out->depth = config_.has_depth ? &fb_depth_ : nullptr;
    out->width = config_.width;
    out->height = config_.height;
    return true;
  }
  FramebufferObject* fb = GetFramebuffer(bound_framebuffer_);
  if (fb == nullptr) return false;
  out->color = nullptr;
  out->depth = nullptr;
  switch (fb->color.kind) {
    case FramebufferAttachment::Kind::kTexture: {
      Texture* t = GetTextureObject(fb->color.object);
      if (t == nullptr || !t->has_storage() || t->format() != GL_RGBA) {
        return false;
      }
      out->color = &t->mutable_storage();
      out->width = t->width();
      out->height = t->height();
      break;
    }
    case FramebufferAttachment::Kind::kRenderbuffer: {
      RenderbufferObject* rb = GetRenderbuffer(fb->color.object);
      if (rb == nullptr || rb->color.empty()) return false;
      out->color = &rb->color;
      out->width = rb->width;
      out->height = rb->height;
      break;
    }
    case FramebufferAttachment::Kind::kNone:
      return false;  // missing color attachment
  }
  if (fb->depth.kind == FramebufferAttachment::Kind::kRenderbuffer) {
    RenderbufferObject* rb = GetRenderbuffer(fb->depth.object);
    if (rb == nullptr || rb->depth.empty() || rb->width != out->width ||
        rb->height != out->height) {
      return false;
    }
    out->depth = &rb->depth;
  }
  return true;
}

GLenum Context::CheckFramebufferStatus(GLenum target) {
  if (target != GL_FRAMEBUFFER) {
    SetError(GL_INVALID_ENUM);
    return 0;
  }
  if (bound_framebuffer_ == 0) return GL_FRAMEBUFFER_COMPLETE;
  FramebufferObject* fb = GetFramebuffer(bound_framebuffer_);
  if (fb == nullptr) return GL_FRAMEBUFFER_UNSUPPORTED;
  if (fb->color.kind == FramebufferAttachment::Kind::kNone) {
    return GL_FRAMEBUFFER_INCOMPLETE_MISSING_ATTACHMENT;
  }
  RenderTarget rt;
  return ResolveTarget(&rt) ? GL_FRAMEBUFFER_COMPLETE
                            : GL_FRAMEBUFFER_INCOMPLETE_ATTACHMENT;
}

void Context::DeleteFramebuffers(GLsizei n, const GLuint* ids) {
  if (RejectNegative(n)) return;
  for (GLsizei i = 0; i < n; ++i) {
    framebuffers_.erase(ids[i]);
    if (bound_framebuffer_ == ids[i]) bound_framebuffer_ = 0;
  }
}

// ---------------------------------------------------------------------------
// Clear / ReadPixels
// ---------------------------------------------------------------------------

void Context::Clear(GLbitfield mask) {
  RenderTarget rt;
  if (!ResolveTarget(&rt)) {
    SetError(GL_INVALID_FRAMEBUFFER_OPERATION);
    return;
  }
  const int x0 = scissor_enabled_ ? std::max(sc_x0_, 0) : 0;
  const int y0 = scissor_enabled_ ? std::max(sc_y0_, 0) : 0;
  const int x1 = scissor_enabled_ ? std::min(sc_x1_, rt.width) : rt.width;
  const int y1 = scissor_enabled_ ? std::min(sc_y1_, rt.height) : rt.height;
  if ((mask & GL_COLOR_BUFFER_BIT) != 0 && rt.color != nullptr) {
    std::array<std::uint8_t, 4> c{};
    for (int i = 0; i < 4; ++i) {
      const float f = clear_color_[static_cast<std::size_t>(i)];
      c[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          config_.quantization == FbQuantization::kFloorPaper
              ? std::floor(f * 255.0f)
              : std::floor(f * 255.0f + 0.5f));
    }
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        const std::size_t off = (static_cast<std::size_t>(y) * rt.width + x) * 4;
        for (int i = 0; i < 4; ++i) {
          if (color_mask_[static_cast<std::size_t>(i)]) {
            (*rt.color)[off + static_cast<std::size_t>(i)] =
                c[static_cast<std::size_t>(i)];
          }
        }
      }
    }
  }
  if ((mask & GL_DEPTH_BUFFER_BIT) != 0 && rt.depth != nullptr) {
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        (*rt.depth)[static_cast<std::size_t>(y) * rt.width + x] = 1.0f;
      }
    }
  }
}

void Context::ReadPixels(GLint x, GLint y, GLsizei w, GLsizei h,
                         GLenum format, GLenum type, void* pixels) {
  // The ONLY guaranteed readback path in ES 2.0 (paper limitation #7): the
  // framebuffer, as RGBA8. There is no glGetTexImage.
  if (format != GL_RGBA || type != GL_UNSIGNED_BYTE) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  if (w < 0 || h < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  RenderTarget rt;
  if (!ResolveTarget(&rt) || rt.color == nullptr) {
    SetError(GL_INVALID_FRAMEBUFFER_OPERATION);
    return;
  }
  auto* dst = static_cast<std::uint8_t*>(pixels);
  // 64-bit addressing: x + col, y + row and row * stride can overflow int.
  const std::size_t align = static_cast<std::size_t>(pack_alignment_);
  const std::size_t stride =
      (static_cast<std::size_t>(w) * 4 + align - 1) / align * align;
  for (GLsizei row = 0; row < h; ++row) {
    const std::int64_t sy = std::int64_t{y} + row;
    for (GLsizei col = 0; col < w; ++col) {
      const std::int64_t sx = std::int64_t{x} + col;
      std::uint8_t* out = dst + static_cast<std::size_t>(row) * stride +
                          static_cast<std::size_t>(col) * 4;
      if (sx < 0 || sy < 0 || sx >= rt.width || sy >= rt.height) {
        out[0] = out[1] = out[2] = out[3] = 0;
        continue;
      }
      const std::size_t off =
          (static_cast<std::size_t>(sy) * static_cast<std::size_t>(rt.width) +
           static_cast<std::size_t>(sx)) * 4;
      std::memcpy(out, rt.color->data() + off, 4);
    }
  }
}

// ---------------------------------------------------------------------------
// Drawing
// ---------------------------------------------------------------------------

bool Context::ResolveAttribSources(ProgramObject* prog,
                                   std::span<const GLuint> indices) {
  const ProgramObject::VertexViews& views = prog->vertex_views;
  if (prog->drawn) {
    ++shade_tally_.hits_;
  } else {
    prog->drawn = true;
    ++shade_tally_.misses_;
  }

  // The bounds gate below needs the largest index.
  const GLuint max_index = *std::max_element(indices.begin(), indices.end());

  // Per-draw attribute sources, resolved once. Every fetch failure — a
  // missing buffer, an offset past the store, a null base, an unknown type
  // enum, or a VBO too short for the draw's largest index — is reported
  // here, before any shading state is built or any vertex shades, so it
  // cannot race a shader trap or a resource fault: no counter moved yet,
  // GL_INVALID_OPERATION, no reset. Client arrays are unbounded by the GL
  // contract.
  std::vector<AttribSource>& sources = scratch_sources_;
  sources.resize(views.attribs.size());
  for (std::size_t k = 0; k < views.attribs.size(); ++k) {
    const AttribState& a =
        attribs_[static_cast<std::size_t>(views.attribs[k].location)];
    AttribSource& s = sources[k];
    s = {};
    if (!a.enabled) {
      s.constant = a.constant.data();
      continue;
    }
    int elem_size = 0;
    switch (a.type) {
      case GL_FLOAT: elem_size = 4; break;
      case GL_UNSIGNED_BYTE: case GL_BYTE: elem_size = 1; break;
      case GL_UNSIGNED_SHORT: case GL_SHORT: elem_size = 2; break;
      default: break;
    }
    const int stride = a.stride != 0 ? a.stride : a.size * elem_size;
    const std::uint8_t* base = nullptr;
    if (a.buffer == 0) {
      base = static_cast<const std::uint8_t*>(a.pointer);
    } else if (const auto it = buffers_.find(a.buffer);
               it != buffers_.end()) {
      const std::vector<std::uint8_t>& data = it->second->data;
      const std::uintptr_t off = reinterpret_cast<std::uintptr_t>(a.pointer);
      // The highest byte the draw fetches must exist in the store. 64-bit
      // math: stride * max_index can overflow the 32-bit range the
      // individual arguments were validated in.
      if (off <= data.size() &&
          static_cast<std::uint64_t>(stride) * max_index +
                  static_cast<std::uint64_t>(a.size) *
                      static_cast<std::uint64_t>(elem_size) <=
              data.size() - off) {
        base = data.data() + off;
      }
    }
    if (base == nullptr || elem_size == 0) {
      SetError(GL_INVALID_OPERATION);
      return false;
    }
    s.base = base;
    s.stride = stride;
    s.type = a.type;
    s.normalized = a.normalized != GL_FALSE;
    s.size = a.size;
  }
  return true;
}

void Context::ShadeVertices(const ProgramObject& prog,
                            std::span<const GLuint> indices, ShadeWorker& w) {
  // Each chunk shades up to LaneWidth() vertices over the engine's lane
  // planes, through the views the link resolved, on worker `w`.
  glsl::ShaderEngine& engine = *prog.vertex;
  const glsl::TextureFn texture = [this, &w](glsl::TexelFetch& f) {
    FetchTexels(w, f);
  };
  const ProgramObject::VertexViews& views = prog.vertex_views;
  const std::vector<AttribSource>& sources = scratch_sources_;
  const int lanes = LaneWidth();

  // Post-transform vertices live in context-owned scratch: resize keeps the
  // outer capacity and surviving elements' varying-vector capacity, so a
  // steady-state draw loop allocates nothing here. Fields a program leaves
  // unwritten are reset below to the RasterVertex defaults a fresh vector
  // would have carried.
  const GLsizei count = static_cast<GLsizei>(indices.size());
  std::vector<RasterVertex>& verts = scratch_verts_;
  verts.resize(indices.size());
  for (GLsizei b0 = 0; b0 < count; b0 += lanes) {
    const int n = static_cast<int>(std::min<GLsizei>(lanes, count - b0));
    const GLuint* const vidx = indices.data() + b0;

    // Gather: decode each enabled attribute's array elements straight
    // into the engine's planes, with the base/stride/type resolution
    // hoisted out of the loop. Components past the array size take the
    // (0,0,0,1) defaults.
    for (std::size_t k = 0; k < views.attribs.size(); ++k) {
      const ProgramObject::VertexViews::Attrib& al = views.attribs[k];
      const AttribSource& s = sources[k];
      const glsl::PlaneDst& dst = al.dst;
      if (s.base == nullptr) {
        for (int c = 0; c < al.cells; ++c) {
          for (int l = 0; l < n; ++l) {
            dst.at(c, l).f = s.constant[static_cast<std::size_t>(c)];
          }
        }
        continue;
      }
      for (int l = 0; l < n; ++l) {
        const std::uint8_t* src =
            s.base + static_cast<std::ptrdiff_t>(s.stride) * vidx[l];
        for (int c = 0; c < al.cells; ++c) {
          float v = c == 3 ? 1.0f : 0.0f;
          if (c < s.size) {
            switch (s.type) {
              case GL_FLOAT: {
                std::memcpy(&v, src + c * 4, 4);
                break;
              }
              case GL_UNSIGNED_BYTE: {
                const std::uint8_t b = src[c];
                v = s.normalized ? b / 255.0f : static_cast<float>(b);
                break;
              }
              case GL_BYTE: {
                std::int8_t b;
                std::memcpy(&b, src + c, 1);
                v = s.normalized ? std::max(b / 127.0f, -1.0f)
                                 : static_cast<float>(b);
                break;
              }
              case GL_UNSIGNED_SHORT: {
                std::uint16_t h;
                std::memcpy(&h, src + c * 2, 2);
                v = s.normalized ? h / 65535.0f : static_cast<float>(h);
                break;
              }
              case GL_SHORT: {
                std::int16_t h;
                std::memcpy(&h, src + c * 2, 2);
                v = s.normalized ? std::max(h / 32767.0f, -1.0f)
                                 : static_cast<float>(h);
                break;
              }
              default:
                break;
            }
          }
          dst.at(c, l).f = v;
        }
      }
    }

    // Run the chunk. Lane order == vertex order, so a trapping chunk's
    // minimum trapping lane is the first trapping vertex, and the thrown
    // message is the same on every engine. (Vertex programs cannot
    // discard; the kept mask is all-ones.) The watchdog folds in per
    // chunk, and the chunk's texture-cache accesses replay in lane order,
    // which is vertex order, so the misses are the same at every width.
    (void)RunChunk(engine, n, w, texture);

    // Scatter, in lane order.
    for (int l = 0; l < n; ++l) {
      const std::size_t li = static_cast<std::size_t>(l);
      RasterVertex& out = verts[static_cast<std::size_t>(b0) + li];
      out.clip = {0.0f, 0.0f, 0.0f, 1.0f};
      out.point_size = 1.0f;
      const glsl::PlaneSrc& pos = views.position;
      if (pos.base != nullptr) {
        out.clip = {pos.at(0, l).f, pos.at(1, l).f, pos.at(2, l).f,
                    pos.at(3, l).f};
      }
      if (views.point_size.base != nullptr) {
        out.point_size = views.point_size.at(0, l).f;
        if (out.point_size <= 0.0f) out.point_size = 1.0f;
      }
      out.varyings.resize(static_cast<std::size_t>(prog.varying_cells));
      for (const ProgramObject::VertexViews::Varying& vl : views.varyings) {
        for (int c = 0; c < vl.cells; ++c) {
          out.varyings[static_cast<std::size_t>(vl.offset + c)] =
              vl.src.at(c, l).f;
        }
      }
    }
  }
}

void Context::WritePixel(RenderTarget& rt, int x, int y, float depth,
                         const std::array<float, 4>& color, bool depth_valid,
                         UndoJournal* journal) {
  if (scissor_enabled_) {
    if (x < sc_x0_ || y < sc_y0_ || x >= sc_x1_ || y >= sc_y1_) {
      return;
    }
  }
  if (depth_enabled_ && rt.depth != nullptr && depth_valid) {
    const std::size_t di = static_cast<std::size_t>(y) * rt.width + x;
    float& d = (*rt.depth)[di];
    bool pass = false;
    switch (depth_func_) {
      case GL_NEVER: pass = false; break;
      case GL_LESS: pass = depth < d; break;
      case GL_EQUAL: pass = depth == d; break;
      case GL_LEQUAL: pass = depth <= d; break;
      case GL_GREATER: pass = depth > d; break;
      case GL_NOTEQUAL: pass = depth != d; break;
      case GL_GEQUAL: pass = depth >= d; break;
      case GL_ALWAYS: pass = true; break;
      default: pass = true; break;
    }
    if (!pass) return;
    if (depth_write_) {
      if (journal != nullptr) {
        journal->depth.push_back({static_cast<std::uint32_t>(di), d});
      }
      d = depth;
    }
  }
  if (rt.color == nullptr) return;

  // Clamp to [0,1]: the framebuffer conversion of the paper's Eq. (2).
  std::array<float, 4> src{};
  for (int i = 0; i < 4; ++i) {
    src[static_cast<std::size_t>(i)] =
        std::clamp(color[static_cast<std::size_t>(i)], 0.0f, 1.0f);
  }
  const std::size_t off = (static_cast<std::size_t>(y) * rt.width + x) * 4;
  if (blend_enabled_) {
    std::array<float, 4> dst{};
    for (int i = 0; i < 4; ++i) {
      dst[static_cast<std::size_t>(i)] =
          (*rt.color)[off + static_cast<std::size_t>(i)] / 255.0f;
    }
    auto factor = [&](GLenum f, bool /*is_src*/) -> std::array<float, 4> {
      switch (f) {
        case GL_ZERO: return {0, 0, 0, 0};
        case GL_ONE: return {1, 1, 1, 1};
        case GL_SRC_COLOR: return src;
        case GL_ONE_MINUS_SRC_COLOR:
          return {1 - src[0], 1 - src[1], 1 - src[2], 1 - src[3]};
        case GL_SRC_ALPHA: return {src[3], src[3], src[3], src[3]};
        case GL_ONE_MINUS_SRC_ALPHA: {
          const float a = 1 - src[3];
          return {a, a, a, a};
        }
        case GL_DST_ALPHA: return {dst[3], dst[3], dst[3], dst[3]};
        case GL_ONE_MINUS_DST_ALPHA: {
          const float a = 1 - dst[3];
          return {a, a, a, a};
        }
        case GL_DST_COLOR: return dst;
        case GL_ONE_MINUS_DST_COLOR:
          return {1 - dst[0], 1 - dst[1], 1 - dst[2], 1 - dst[3]};
        default: return {1, 1, 1, 1};
      }
    };
    const auto sf = factor(blend_src_, true);
    const auto df = factor(blend_dst_, false);
    for (int i = 0; i < 4; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      src[ii] = std::clamp(src[ii] * sf[ii] + dst[ii] * df[ii], 0.0f, 1.0f);
    }
  }
  if (journal != nullptr) {
    journal->color.push_back({static_cast<std::uint32_t>(off),
                              {(*rt.color)[off], (*rt.color)[off + 1],
                               (*rt.color)[off + 2], (*rt.color)[off + 3]}});
  }
  for (int i = 0; i < 4; ++i) {
    if (!color_mask_[static_cast<std::size_t>(i)]) continue;
    const float f = src[static_cast<std::size_t>(i)];
    float scaled = config_.quantization == FbQuantization::kFloorPaper
                       ? std::floor(f * 255.0f)
                       : std::floor(f * 255.0f + 0.5f);
    // NaN survives both clamps (every comparison is false) and the
    // float->byte cast of a NaN is undefined; GL leaves the converted value
    // undefined too, so pick the stable choice: 0.
    if (!(scaled >= 0.0f)) scaled = 0.0f;
    (*rt.color)[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(std::clamp(scaled, 0.0f, 255.0f));
  }
}

void Context::CheckDrawBudget(ShadeWorker& w) {
  const std::uint64_t now = w.alu.counts().alu;
  const std::uint64_t delta = now - w.budget_reported;
  w.budget_reported = now;
  const std::uint64_t used =
      draw_alu_used_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (used > config_.draw_budget) throw DrawBudgetExceeded();
}

void Context::DrawArrays(GLenum mode, GLint first, GLsizei count) {
  if (first < 0 || count < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  RenderTarget rt;
  ProgramObject* prog = ValidateDraw(mode, &rt);
  if (prog == nullptr) return;
  scratch_indices_.resize(static_cast<std::size_t>(count));
  std::iota(scratch_indices_.begin(), scratch_indices_.end(),
            static_cast<GLuint>(first));
  DrawGeneric(prog, rt, mode, scratch_indices_);
}

void Context::DrawElements(GLenum mode, GLsizei count, GLenum type,
                           const void* indices) {
  if (count < 0) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  if (type != GL_UNSIGNED_BYTE && type != GL_UNSIGNED_SHORT) {
    SetError(GL_INVALID_ENUM);
    return;
  }
  const std::uint8_t* base = nullptr;
  if (element_array_buffer_ != 0) {
    BufferObject* b = GetBuffer(element_array_buffer_);
    if (b == nullptr) {
      SetError(GL_INVALID_OPERATION);
      return;
    }
    const std::uintptr_t off = reinterpret_cast<std::uintptr_t>(indices);
    const std::size_t esz = type == GL_UNSIGNED_SHORT ? 2 : 1;
    // The whole index range must exist in the store before any index is
    // decoded — the index fetch was the other unchecked read here.
    if (off > b->data.size() ||
        static_cast<std::uint64_t>(static_cast<GLuint>(count)) * esz >
            b->data.size() - off) {
      SetError(GL_INVALID_OPERATION);
      return;
    }
    base = b->data.data() + off;
  } else {
    base = static_cast<const std::uint8_t*>(indices);
  }
  if (base == nullptr) {
    SetError(GL_INVALID_VALUE);
    return;
  }
  RenderTarget rt;
  ProgramObject* prog = ValidateDraw(mode, &rt);
  if (prog == nullptr) return;
  std::vector<GLuint>& decoded = scratch_indices_;
  decoded.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (type == GL_UNSIGNED_BYTE) {
      decoded[i] = base[i];
      continue;
    }
    std::uint16_t v;
    std::memcpy(&v, base + i * 2, 2);
    decoded[i] = v;
  }
  DrawGeneric(prog, rt, mode, decoded);
}

ProgramObject* Context::ValidateDraw(GLenum mode, RenderTarget* rt) {
  last_draw_error_.clear();
  ProgramObject* prog = GetProgram(current_program_);
  if (prog == nullptr || !prog->link_ok) {
    SetError(GL_INVALID_OPERATION);
    return nullptr;
  }
  if (!ResolveTarget(rt)) {
    SetError(GL_INVALID_FRAMEBUFFER_OPERATION);
    return nullptr;
  }
  switch (mode) {
    case GL_POINTS: case GL_LINES: case GL_LINE_STRIP: case GL_LINE_LOOP:
    case GL_TRIANGLES: case GL_TRIANGLE_STRIP: case GL_TRIANGLE_FAN:
      return prog;
    default:
      // Desktop GL_QUADS / GL_POLYGON do not exist here: the paper's
      // limitation #2.
      SetError(GL_INVALID_ENUM);
      return nullptr;
  }
}

void Context::DrawGeneric(ProgramObject* prog, const RenderTarget& rt,
                          GLenum mode, std::span<const GLuint> indices) {
  if (indices.empty()) return;

  // Transactional draw: both stages count on the workers' shards, which
  // reach the context's counters only when the draw commits, and every
  // framebuffer write is journaled, so an abort restores the exact "draw
  // never issued" state — identically for every engine and worker count,
  // because the restored state does not depend on where shading stopped.
  RasterState rs;
  rs.viewport_x = vp_x_;
  rs.viewport_y = vp_y_;
  rs.viewport_w = vp_w_;
  rs.viewport_h = vp_h_;
  rs.target_w = rt.width;
  rs.target_h = rt.height;
  rs.cull_enabled = cull_enabled_;
  rs.cull_face = cull_face_;
  rs.front_face = front_face_;

  // Every stage throws its failures into the one catch below. A
  // std::bad_alloc reports the stage it interrupted where that stage
  // names itself, else its own text.
  const char* alloc_failure = nullptr;
  int worker_count = 0;  // the workers whose shards the draw used
  try {
    if (!ResolveAttribSources(prog, indices)) return;
    alloc_failure = "shading-state allocation failed";
    ShadeWorker& vertex_worker = BeginDraw();
    alloc_failure = nullptr;
    worker_count = 1;
    ShadeVertices(*prog, indices, vertex_worker);
    alloc_failure = "tile binner allocation failed";
    AssembleAndBin(mode, static_cast<GLsizei>(indices.size()), rs);
    if (!scratch_work_.empty()) {
      alloc_failure = "shading-state allocation failed";
      worker_count = PrepareWorkers(prog, rt);
      alloc_failure = nullptr;
      ShadeTiles(prog, rs, worker_count);
    }
  } catch (...) {
    // Reverse-replay every worker's undo journal (empty unless shading
    // began; workers shade disjoint tiles, so cross-worker order is
    // irrelevant, and within a worker reverse order unwinds repeated
    // writes to one pixel). The lowest-numbered failing worker names the
    // abort; the exception caught here does only when no worker failed.
    std::exception_ptr failure;
    for (ShadeWorker& w : workers_) {
      if (failure == nullptr) failure = w.failure;
      w.failure = nullptr;
      if (rt.color != nullptr) {
        for (auto it = w.journal.color.rbegin();
             it != w.journal.color.rend(); ++it) {
          std::copy(it->old_rgba.begin(), it->old_rgba.end(),
                    rt.color->begin() + it->offset);
        }
      }
      if (rt.depth != nullptr) {
        for (auto it = w.journal.depth.rbegin();
             it != w.journal.depth.rend(); ++it) {
          (*rt.depth)[it->index] = it->old_depth;
        }
      }
      w.journal.Clear();
    }
    AbortDraw(failure != nullptr ? failure : std::current_exception(),
              alloc_failure);
    return;
  }
  // Committed: merge the used counter shards (a failed draw leaves them
  // to the next draw's reset, so its counts never reach the context); the
  // journals exist only to be replayed on abort.
  for (int i = 0; i < worker_count; ++i) {
    ShadeWorker& w = workers_[static_cast<std::size_t>(i)];
    alu_->AddCounts(w.alu.counts());
    w.journal.Clear();
  }
}

void Context::AssembleAndBin(GLenum mode, GLsizei count,
                             const RasterState& rs) {
  // Assemble: strip/fan/loop orderings are resolved here.
  std::vector<TilePrim>& prims = scratch_prims_;
  prims.clear();
  auto tri = [&](GLsizei a, GLsizei b, GLsizei c) {
    prims.push_back({TilePrim::Kind::kTriangle, static_cast<std::uint32_t>(a),
                     static_cast<std::uint32_t>(b),
                     static_cast<std::uint32_t>(c)});
  };
  auto line = [&](GLsizei a, GLsizei b) {
    prims.push_back({TilePrim::Kind::kLine, static_cast<std::uint32_t>(a),
                     static_cast<std::uint32_t>(b), 0});
  };
  switch (mode) {
    case GL_TRIANGLES:
      for (GLsizei i = 0; i + 2 < count; i += 3) tri(i, i + 1, i + 2);
      break;
    case GL_TRIANGLE_STRIP:
      for (GLsizei i = 0; i + 2 < count; ++i) {
        // Winding alternates; swap so face orientation stays consistent.
        const bool odd = (i & 1) != 0;
        tri(i, i + (odd ? 2 : 1), i + (odd ? 1 : 2));
      }
      break;
    case GL_TRIANGLE_FAN:
      for (GLsizei i = 1; i + 1 < count; ++i) tri(0, i, i + 1);
      break;
    case GL_POINTS:
      for (GLsizei i = 0; i < count; ++i) {
        prims.push_back(
            {TilePrim::Kind::kPoint, static_cast<std::uint32_t>(i), 0, 0});
      }
      break;
    case GL_LINES:
      for (GLsizei i = 0; i + 1 < count; i += 2) line(i, i + 1);
      break;
    case GL_LINE_STRIP:
      for (GLsizei i = 0; i + 1 < count; ++i) line(i, i + 1);
      break;
    case GL_LINE_LOOP:
      for (GLsizei i = 0; i + 1 < count; ++i) line(i, i + 1);
      if (count > 2) line(count - 1, 0);
      break;
    default:
      break;
  }

  // Bin each primitive into the 64x64 tiles its window bounds touch.
  const std::vector<RasterVertex>& verts = scratch_verts_;
  binner_.BeginDraw(rs.target_w, rs.target_h);
  for (std::size_t pi = 0; pi < prims.size(); ++pi) {
    const TilePrim& p = prims[pi];
    PixelRect r;
    bool live = false;
    switch (p.kind) {
      case TilePrim::Kind::kTriangle:
        live = TriangleBounds(verts[p.v0], verts[p.v1], verts[p.v2], rs, &r);
        break;
      case TilePrim::Kind::kPoint:
        live = PointBounds(verts[p.v0], rs, &r);
        break;
      case TilePrim::Kind::kLine:
        // Lines bin tile-exactly by walking once (their bbox would cover
        // quadratically many untouched tiles for diagonals).
        LineTouchedTiles(verts[p.v0], verts[p.v1], rs, kTileSize,
                         [&](int tx, int ty) {
                           binner_.BinTile(static_cast<std::uint32_t>(pi), tx,
                                           ty);
                         });
        break;
    }
    if (live) binner_.Bin(static_cast<std::uint32_t>(pi), r);
  }
  binner_.NonEmptyTiles(&scratch_work_);
}

ShadeWorker& Context::BeginDraw() {
  if (workers_.empty()) AddWorker();
  // Per-draw refresh of the state every worker's texture fetch and flush
  // read: the sampler table, the failure latch and the watchdog
  // accumulator.
  static_assert(std::tuple_size_v<decltype(draw_samplers_)> ==
                std::tuple_size_v<decltype(units_)>);
  for (std::size_t u = 0; u < units_.size(); ++u) {
    draw_samplers_[u] = {GetTextureObject(units_[u].bound_2d),
                         units_[u].bound_2d};
  }
  draw_failed_.store(false, std::memory_order_relaxed);
  draw_alu_used_.store(0, std::memory_order_relaxed);
  ShadeWorker& w = workers_.front();
  w.BeginDraw();
  return w;
}

int Context::PrepareWorkers(ProgramObject* prog, const RenderTarget& rt) {
  const int worker_count =
      std::min(shade_workers_, static_cast<int>(scratch_work_.size()));
  const glsl::ShaderEngine& base = *prog->fragment;
  for (int i = 0; i < worker_count; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    if (si == workers_.size()) AddWorker();
    // Injectable build failure, as for a worker: a clone is a full
    // global-store copy. It is stored only once complete.
    if (si == prog->fragment_clones.size()) {
      if (fault::ShouldFail(fault::Site::kShadeCacheAlloc)) {
        throw std::bad_alloc();
      }
      // A fresh clone copies today's globals; only older ones re-sync.
      prog->fragment_clones.push_back(CloneFragmentStage(*prog));
    } else {
      prog->fragment_clones[si].engine->SyncGlobalsFrom(base);
    }
  }

  // Per-draw refresh of the render target every flush writes, and of each
  // used worker's stage and journaling; worker 0 began the draw with the
  // vertex stage, the others begin it here.
  draw_rt_ = rt;
  // Journal framebuffer writes only when this draw can actually abort
  // after a pixel lands: the fragment stage has trap-capable instructions,
  // the per-draw watchdog is armed, or a fault site is armed. Otherwise
  // the transactional-abort guarantee is vacuous and the hot path skips
  // the per-pixel undo bookkeeping entirely. (A genuine std::bad_alloc
  // mid-shading is the one abort this cannot cover; the injectable
  // resource faults all arm the registry and therefore journal.)
  const bool needs_journal =
      prog->fs_can_trap || config_.draw_budget != 0 || fault::AnyArmed();
  for (int i = 0; i < worker_count; ++i) {
    ShadeWorker& w = workers_[static_cast<std::size_t>(i)];
    if (i > 0) w.BeginDraw();
    w.stage = &prog->fragment_clones[static_cast<std::size_t>(i)];
    w.journaling = needs_journal;
  }
  return worker_count;
}

void Context::ShadeTiles(const ProgramObject* prog, const RasterState& rs,
                         int worker_count) {
  const std::vector<RasterVertex>& verts = scratch_verts_;
  const std::vector<TilePrim>& prims = scratch_prims_;
  const std::vector<std::uint32_t>& work = scratch_work_;
  const int vc = prog->varying_cells;
  auto shade_tile = [&](std::uint32_t tile_index, ShadeWorker& w,
                        const BatchFlushFn& flush) {
    const TileBinner::Tile& tile = binner_.tile(tile_index);
    w.tmu.Reset();
    RasterState tile_rs = rs;
    tile_rs.clip_x0 = tile.rect.x0;
    tile_rs.clip_y0 = tile.rect.y0;
    tile_rs.clip_x1 = tile.rect.x1;
    tile_rs.clip_y1 = tile.rect.y1;
    for (const std::uint32_t pi : tile.prims) {
      const TilePrim& p = prims[pi];
      switch (p.kind) {
        case TilePrim::Kind::kTriangle:
          RasterizeTriangle(verts[p.v0], verts[p.v1], verts[p.v2], vc,
                            tile_rs, w.batch, flush);
          break;
        case TilePrim::Kind::kPoint:
          RasterizePoint(verts[p.v0], vc, tile_rs, w.batch, flush);
          break;
        case TilePrim::Kind::kLine:
          RasterizeLine(verts[p.v0], verts[p.v1], vc, tile_rs, w.batch,
                        flush);
          break;
      }
    }
    // Shade the batch tail before leaving the tile: the next tile resets
    // the TMU-cache model, and deferred TMU replay must land in this
    // tile's cache session.
    flush();
  };

  // One shading body for every worker: it claims tiles off a shared counter
  // until none is left. The first exception a worker hits (a shader trap,
  // a watchdog trip, an allocation failure) ends its shading and is kept
  // for the abort; the latch makes the other workers' flushes and tile
  // claims stop.
  const int tile_count = static_cast<int>(work.size());
  std::atomic<int> next_tile{0};
  const auto shade_worker = [&](int wi) {
    ShadeWorker& w = workers_[static_cast<std::size_t>(wi)];
    const glsl::TextureFn texture = [this, &w](glsl::TexelFetch& f) {
      FetchTexels(w, f);
    };
    // Held by reference, so the BatchFlushFn stores no copy and allocates
    // nothing.
    const auto flush_batch = [this, &w, &texture] { FlushBatch(w, texture); };
    const BatchFlushFn flush = std::cref(flush_batch);
    try {
      for (int item = next_tile.fetch_add(1, std::memory_order_relaxed);
           item < tile_count && !draw_failed_.load(std::memory_order_relaxed);
           item = next_tile.fetch_add(1, std::memory_order_relaxed)) {
        shade_tile(work[static_cast<std::size_t>(item)], w, flush);
      }
    } catch (...) {
      w.failure = std::current_exception();
      draw_failed_.store(true, std::memory_order_relaxed);
    }
  };
  if (worker_count == 1) {
    shade_worker(0);
  } else {
    // The pool is sized by the configured worker count, not by this draw's
    // worker count, so alternating draws with different tile counts reuse the
    // parked workers instead of respawning threads every draw. Partial
    // dispatch: only one pool task per shading worker is issued, so a draw
    // covering two tiles wakes two workers, not the whole pool. A pool task
    // that dies before its body runs (fault::Site::kPoolTask) throws from
    // RunOn after the join, so the abort sees a quiesced state.
    if (pool_ == nullptr) {
      pool_ = std::make_unique<common::ThreadPool>(shade_workers_);
    }
    pool_->RunOn(worker_count, shade_worker);
  }
  for (int i = 0; i < worker_count; ++i) {
    const ShadeWorker& w = workers_[static_cast<std::size_t>(i)];
    if (w.failure != nullptr) std::rethrow_exception(w.failure);
  }
}

void Context::AbortDraw(const std::exception_ptr& failure,
                        const char* alloc_failure) {
  GLenum error = GL_OUT_OF_MEMORY;
  GLenum reset = GL_INNOCENT_CONTEXT_RESET;
  try {
    std::rethrow_exception(failure);
  } catch (const DrawBudgetExceeded& e) {
    last_draw_error_ = e.what();
    reset = GL_GUILTY_CONTEXT_RESET;
  } catch (const glsl::ShaderRuntimeError& e) {
    last_draw_error_ = e.what();
    error = GL_INVALID_OPERATION;
    reset = GL_GUILTY_CONTEXT_RESET;
  } catch (const std::bad_alloc& e) {
    last_draw_error_ = alloc_failure != nullptr ? alloc_failure : e.what();
  } catch (const std::exception& e) {
    last_draw_error_ = e.what();
  }
  reset_status_ = reset;
  SetError(error);
}

void Context::AddWorker() {
  // Injectable build failure: growing the worker list allocates. A failed
  // growth keeps the list as it was.
  if (fault::ShouldFail(fault::Site::kShadeCacheAlloc)) throw std::bad_alloc();
  ShadeWorker& w = workers_.emplace_back();
  w.alu = *alu_;
  w.alu.ResetCounts();
}

std::uint32_t Context::RunChunk(glsl::ShaderEngine& engine, int n,
                                ShadeWorker& w,
                                const glsl::TextureFn& texture) {
  const std::uint32_t kept = engine.RunBatch(n, w.alu, texture);
  if (config_.draw_budget != 0) CheckDrawBudget(w);
  ReplayTmuLog(w, n);
  return kept;
}

void Context::FlushBatch(ShadeWorker& w, const glsl::TextureFn& texture) {
  FragmentBatch& b = w.batch;
  const int n = b.count;
  b.count = 0;
  if (n == 0) return;
  if (draw_failed_.load(std::memory_order_relaxed)) return;
  const ProgramObject::FragmentClone& stage = *w.stage;
  const glsl::PlaneDst& fc = stage.frag_coord;
  const glsl::PlaneDst& ff = stage.front_facing;
  const glsl::PlaneDst& pc = stage.point_coord;
  const glsl::PlaneDst& col = stage.color;
  UndoJournal* const journal = w.journaling ? &w.journal : nullptr;
  // Scatters batch lanes [lo, lo + m) into engine lanes [0, m).
  const auto scatter = [&](int lo, int m) {
    for (int l = 0; l < m; ++l) {
      const std::size_t bi = static_cast<std::size_t>(lo + l);
      if (fc.base != nullptr) {
        fc.at(0, l).f = static_cast<float>(b.x[bi]) + 0.5f;
        fc.at(1, l).f = static_cast<float>(b.y[bi]) + 0.5f;
        fc.at(2, l).f = b.depth[bi];
        fc.at(3, l).f = 1.0f;
      }
      if (ff.base != nullptr) ff.at(0, l).i = b.front[bi] != 0 ? 1 : 0;
      if (pc.base != nullptr) {
        pc.at(0, l).f = b.point_s[bi];
        pc.at(1, l).f = b.point_t[bi];
      }
    }
    for (const ProgramObject::FragmentClone::Varying& vd : stage.varyings) {
      for (int c = 0; c < vd.cells; ++c) {
        const float* src =
            &b.varyings[static_cast<std::size_t>(vd.offset + c) *
                            kFragBatchWidth +
                        static_cast<std::size_t>(lo)];
        for (int l = 0; l < m; ++l) vd.dst.at(c, l).f = src[l];
      }
    }
  };
  // Writes engine lane l's color output to batch lane lo + l's pixel.
  const auto drain = [&](int lo, int l) {
    const std::size_t bi = static_cast<std::size_t>(lo + l);
    std::array<float, 4> color{0.0f, 0.0f, 0.0f, 0.0f};
    if (col.base != nullptr) {
      color = {col.at(0, l).f, col.at(1, l).f, col.at(2, l).f,
               col.at(3, l).f};
    }
    WritePixel(draw_rt_, b.x[bi], b.y[bi], b.depth[bi], color,
               /*depth_valid=*/true, journal);
  };
  const int width = LaneWidth();
  for (int lo = 0; lo < n; lo += width) {
    const int m = std::min(width, n - lo);
    scatter(lo, m);
    const std::uint32_t kept = RunChunk(*stage.engine, m, w, texture);
    for (int l = 0; l < m; ++l) {
      if (((kept >> static_cast<unsigned>(l)) & 1u) != 0) drain(lo, l);
    }
  }
}

void Context::FetchTexels(ShadeWorker& w, glsl::TexelFetch& f) const {
  const int top = glsl::TopLane(f.mask);
  ShadeWorker::TmuRecord& rec = w.tmu_log.emplace_back();
  // Lanes [0, top) grouped by texture unit — one group in the paper's
  // kernels, whose sampler is a uniform — each group's texture sampled
  // once for the row.
  std::uint32_t pending = top == glsl::kVmLanes ? ~0u : (1u << top) - 1u;
  std::array<long long, glsl::kVmLanes> texel;
  while (pending != 0) {
    const int unit = f.unit[static_cast<std::size_t>(
        std::countr_zero(pending))];
    std::uint32_t group = 0;
    for (int l = 0; l < top; ++l) {
      group |= f.unit[static_cast<std::size_t>(l)] == unit
                   ? glsl::kLaneBit[static_cast<std::size_t>(l)]
                   : 0u;
    }
    group &= pending;
    pending &= ~group;
    const bool in_range =
        unit >= 0 && unit < static_cast<int>(draw_samplers_.size());
    const DrawSampler ds =
        in_range ? draw_samplers_[static_cast<std::size_t>(unit)]
                 : DrawSampler{};
    const Texture& tex = ds.tex != nullptr ? *ds.tex : kUnbound;
    // Only a texture with storage touches the cache.
    if (tex.SampleRow(f.s.data(), f.t.data(), f.lod.data(), top, group,
                      texel.data(), f.rgba)) {
      rec.mask |= group & f.mask;
    }
    // Texture-cache model: 32-byte lines = 8 RGBA8 texels.
    const std::uint64_t tex_tag = static_cast<std::uint64_t>(ds.id) << 40;
    for (int l = 0; l < top; ++l) {
      const std::size_t li = static_cast<std::size_t>(l);
      if ((group & glsl::kLaneBit[li]) != 0) {
        rec.line[li] = tex_tag | static_cast<std::uint64_t>(texel[li] >> 3);
      }
    }
  }
}

void Context::ReplayTmuLog(ShadeWorker& w, int lanes) {
  for (int l = 0; l < lanes; ++l) {
    const std::uint32_t bit = 1u << static_cast<unsigned>(l);
    for (const ShadeWorker::TmuRecord& rec : w.tmu_log) {
      if ((rec.mask & bit) != 0 &&
          w.tmu.Access(rec.line[static_cast<std::size_t>(l)])) {
        w.alu.CountTmuMiss(1);
      }
    }
  }
  w.tmu_log.clear();
}

}  // namespace mgpu::gles2
