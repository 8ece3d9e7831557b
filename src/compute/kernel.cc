#include "compute/kernel.h"

#include <set>
#include <stdexcept>

#include "common/strings.h"
#include "compute/shaderlib.h"

namespace mgpu::compute {

using gles2::GLint;
using gles2::GLuint;

namespace {

std::string BuildFragmentSource(const Kernel::Options& opt) {
  std::string src = KernelPreamble();
  // Unpack functions for every distinct input type plus the output type.
  std::set<ElemType> types;
  for (const auto& [name, t] : opt.inputs) types.insert(t);
  for (const ElemType t : types) src += UnpackFunction(t);
  src += PackFunction(opt.output);
  for (const auto& [name, t] : opt.inputs) src += FetchFunctions(name, t);
  if (!opt.extra_decls.empty()) src += opt.extra_decls + "\n";
  src += opt.body;
  src += StrFormat(
      "\nvoid main() {\n"
      "  gl_FragColor = %s(gp_kernel(gp_pos_xy()));\n"
      "}\n",
      PackName(opt.output).c_str());
  return src;
}

}  // namespace

Kernel::Kernel(Device& device, Options options)
    : device_(device), options_(std::move(options)) {
  gles2::Context& gl = device_.gl();
  fragment_source_ = BuildFragmentSource(options_);

  vs_ = gl.CreateShader(gles2::GL_VERTEX_SHADER);
  gl.ShaderSource(vs_, PassthroughVertexShader());
  gl.CompileShader(vs_);
  GLint ok = gles2::GL_FALSE;
  gl.GetShaderiv(vs_, gles2::GL_COMPILE_STATUS, &ok);
  if (ok != gles2::GL_TRUE) {
    throw std::runtime_error("vertex shader compile failed:\n" +
                             gl.GetShaderInfoLog(vs_));
  }

  fs_ = gl.CreateShader(gles2::GL_FRAGMENT_SHADER);
  gl.ShaderSource(fs_, fragment_source_);
  gl.CompileShader(fs_);
  gl.GetShaderiv(fs_, gles2::GL_COMPILE_STATUS, &ok);
  if (ok != gles2::GL_TRUE) {
    throw std::runtime_error(StrFormat(
        "kernel '%s' fragment shader compile failed:\n%s\n--- source ---\n%s",
        options_.name.c_str(), gl.GetShaderInfoLog(fs_).c_str(),
        fragment_source_.c_str()));
  }

  program_ = gl.CreateProgram();
  gl.AttachShader(program_, vs_);
  gl.AttachShader(program_, fs_);
  gl.LinkProgram(program_);
  gl.GetProgramiv(program_, gles2::GL_LINK_STATUS, &ok);
  if (ok != gles2::GL_TRUE) {
    throw std::runtime_error(StrFormat("kernel '%s' link failed:\n%s",
                                       options_.name.c_str(),
                                       gl.GetProgramInfoLog(program_).c_str()));
  }
  pos_attrib_ = gl.GetAttribLocation(program_, "gp_pos");
  // Uniform locations Run sets on every dispatch, resolved once.
  for (const auto& input : options_.inputs) {
    const std::string& name = input.first;
    input_locs_.push_back({gl.GetUniformLocation(program_, name),
                           gl.GetUniformLocation(program_, "gp_size_" + name)});
  }
  out_size_loc_ = gl.GetUniformLocation(program_, "gp_out_size");
  // Two programs' compile cost (vertex + fragment) is modeled as one
  // program-compile unit, matching how the paper counts "kernel
  // compilations".
  device_.work().program_compiles += 1;
}

Kernel::~Kernel() {
  gles2::Context& gl = device_.gl();
  if (fbo_ != 0) gl.DeleteFramebuffers(1, &fbo_);
  if (program_ != 0) gl.DeleteProgram(program_);
  if (vs_ != 0) gl.DeleteShader(vs_);
  if (fs_ != 0) gl.DeleteShader(fs_);
}

void Kernel::SetUniform1f(const std::string& name, float v) {
  gles2::Context& gl = device_.gl();
  gl.UseProgram(program_);
  gl.Uniform1f(gl.GetUniformLocation(program_, name), v);
}

void Kernel::SetUniform2f(const std::string& name, float x, float y) {
  gles2::Context& gl = device_.gl();
  gl.UseProgram(program_);
  gl.Uniform2f(gl.GetUniformLocation(program_, name), x, y);
}

void Kernel::SetUniform1i(const std::string& name, int v) {
  gles2::Context& gl = device_.gl();
  gl.UseProgram(program_);
  gl.Uniform1i(gl.GetUniformLocation(program_, name), v);
}

void Kernel::Run(PackedBuffer& out, std::span<PackedBuffer* const> inputs) {
  if (inputs.size() != options_.inputs.size()) {
    throw std::invalid_argument(StrFormat(
        "kernel '%s' expects %zu inputs, got %zu", options_.name.c_str(),
        options_.inputs.size(), inputs.size()));
  }
  if (out.type() != options_.output) {
    throw std::invalid_argument(StrFormat(
        "kernel '%s' output type mismatch (buffer is %s, kernel produces %s)",
        options_.name.c_str(), ElemTypeName(out.type()),
        ElemTypeName(options_.output)));
  }
  gles2::Context& gl = device_.gl();
  gl.UseProgram(program_);

  // Render-to-texture (challenge 7: results land where they can be read).
  if (fbo_ == 0) gl.GenFramebuffers(1, &fbo_);
  gl.BindFramebuffer(gles2::GL_FRAMEBUFFER, fbo_);
  gl.FramebufferTexture2D(gles2::GL_FRAMEBUFFER, gles2::GL_COLOR_ATTACHMENT0,
                          gles2::GL_TEXTURE_2D, out.texture(), 0);
  gl.Viewport(0, 0, out.tex_width(), out.tex_height());

  // Bind inputs.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& [name, type] = options_.inputs[i];
    if (inputs[i]->type() != type) {
      throw std::invalid_argument(StrFormat(
          "kernel '%s' input '%s' type mismatch", options_.name.c_str(),
          name.c_str()));
    }
    gl.ActiveTexture(gles2::GL_TEXTURE0 + static_cast<GLuint>(i));
    gl.BindTexture(gles2::GL_TEXTURE_2D, inputs[i]->texture());
    gl.Uniform1i(input_locs_[i].sampler, static_cast<GLint>(i));
    gl.Uniform2f(input_locs_[i].size,
                 static_cast<float>(inputs[i]->tex_width()),
                 static_cast<float>(inputs[i]->tex_height()));
  }
  gl.Uniform2f(out_size_loc_, static_cast<float>(out.tex_width()),
               static_cast<float>(out.tex_height()));

  // Challenge 2: the screen-covering quad as two triangles. The draw is
  // the kernel loop: under the default batched engine the rasterizer packs
  // the quad's fragments into kVmLanes-wide SoA batches and each makes one
  // pass through the kernel's instruction stream (VmExec::RunBatch), so
  // per-element interpreter overhead is amortized across lanes exactly as
  // QPU lockstep amortizes instruction issue across pixels.
  gl.EnableVertexAttribArray(static_cast<GLuint>(pos_attrib_));
  gl.VertexAttribPointer(static_cast<GLuint>(pos_attrib_), 2,
                         gles2::GL_FLOAT, gles2::GL_FALSE, 0,
                         device_.quad_vertices());
  gl.DrawArrays(gles2::GL_TRIANGLES, 0, device_.quad_vertex_count());
  gl.BindFramebuffer(gles2::GL_FRAMEBUFFER, 0);

  const gles2::GLenum err = gl.GetError();
  if (err != gles2::GL_NO_ERROR) {
    // Fold the robustness classification into the failure so callers see
    // who to blame without re-querying: GUILTY means this kernel's own
    // shader trapped (or tripped the ContextConfig::draw_budget watchdog);
    // INNOCENT means a pipeline resource failed. The query
    // observes-and-clears, so the context is usable again if the caller
    // catches and continues.
    const gles2::GLenum reset = gl.GetGraphicsResetStatus();
    const char* blame = "";
    if (reset == gles2::GL_GUILTY_CONTEXT_RESET) {
      blame = " [guilty: kernel shader]";
    } else if (reset == gles2::GL_INNOCENT_CONTEXT_RESET) {
      blame = " [innocent: pipeline resource]";
    }
    throw std::runtime_error(StrFormat(
        "kernel '%s' dispatch failed: GL error 0x%04x%s%s%s",
        options_.name.c_str(), err, blame,
        gl.last_draw_error().empty() ? "" : "\nshader runtime: ",
        gl.last_draw_error().c_str()));
  }

  device_.work().fragments +=
      static_cast<std::uint64_t>(out.tex_width()) * out.tex_height();
  device_.work().vertices += static_cast<std::uint64_t>(
      device_.quad_vertex_count());
  device_.work().draw_calls += 1;
  device_.SyncShaderOps();
}

MultiKernel::MultiKernel(Device& device, Options options) {
  if (options.outputs.empty()) {
    throw std::invalid_argument("MultiKernel requires at least one output");
  }
  const int m = static_cast<int>(options.outputs.size());
  for (int k = 0; k < m; ++k) {
    const ElemType ot = options.outputs[static_cast<std::size_t>(k)];
    if (ot == ElemType::kU8 || ot == ElemType::kI8) {
      throw std::invalid_argument(
          "MultiKernel outputs must be 32-bit formats (documented subset)");
    }
    // Wrap the user's multi-output body: program k evaluates everything and
    // keeps only output k (paper §III-8: one shader per output).
    std::string decls, args;
    for (int j = 0; j < m; ++j) {
      decls += StrFormat("  float o%d;\n", j);
      args += StrFormat("%so%d", j == 0 ? "" : ", ", j);
    }
    Kernel::Options ko;
    ko.name = StrFormat("%s.out%d", options.name.c_str(), k);
    ko.inputs = options.inputs;
    ko.output = ot;
    ko.extra_decls = options.extra_decls;
    ko.body = options.body +
              StrFormat("\nfloat gp_kernel(vec2 gp_pos) {\n%s"
                        "  gp_kernel_multi(gp_pos, %s);\n"
                        "  return o%d;\n}\n",
                        decls.c_str(), args.c_str(), k);
    kernels_.push_back(std::make_unique<Kernel>(device, std::move(ko)));
  }
}

void MultiKernel::Run(std::span<PackedBuffer* const> outs,
                      std::span<PackedBuffer* const> inputs) {
  if (outs.size() != kernels_.size()) {
    throw std::invalid_argument("MultiKernel: wrong number of outputs");
  }
  for (std::size_t k = 0; k < kernels_.size(); ++k) {
    kernels_[k]->Run(*outs[k], inputs);
  }
}

}  // namespace mgpu::compute
