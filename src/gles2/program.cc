#include <algorithm>
#include <set>

#include "common/strings.h"
#include "gles2/objects.h"
#include "glsl/interp.h"
#include "glsl/vm.h"

namespace mgpu::gles2 {
namespace {

using glsl::BaseType;
using glsl::CompiledShader;
using glsl::Qualifier;
using glsl::Type;
using glsl::VarDecl;

// The engine's view of global `slot` in the draw stages. A null base marks
// a slot the program does not use (slot < 0).
glsl::PlaneDst GlobalPlane(glsl::ShaderEngine& engine, int slot) {
  if (slot < 0) return {};
  return engine.LaneGlobal(slot);
}

// True if the fragment shader statically uses the output `name`: sema
// marked it on resolving a reference, in any function, called or not.
bool UsesOutput(const CompiledShader& cs, const std::string& name) {
  const VarDecl* decl = cs.FindGlobal(name);
  return decl != nullptr && decl->referenced;
}

void Fail(ProgramObject& prog, std::string msg) {
  prog.info_log += "ERROR: link: " + msg + "\n";
  prog.link_ok = false;
}

}  // namespace

void LinkProgram(ProgramObject& prog,
                 const std::map<GLuint, std::unique_ptr<ShaderObject>>& shaders,
                 glsl::AluModel& alu, const glsl::Limits& limits,
                 ExecEngine engine) {
  prog.linked = true;
  prog.link_ok = true;
  prog.info_log.clear();
  // The old engines may reference the shaders of the previous link, and
  // the views and clones aim into the old engines.
  prog.vertex_views = {};
  prog.fragment_clones.clear();
  prog.drawn = false;
  prog.vertex.reset();
  prog.fragment.reset();
  prog.varyings.clear();
  prog.attribs.clear();
  prog.uniforms.clear();
  prog.locations.clear();
  prog.uniform_locations.clear();
  prog.varying_cells = 0;

  const auto vs_it = shaders.find(prog.vertex_shader);
  const auto fs_it = shaders.find(prog.fragment_shader);
  if (prog.vertex_shader == 0 || prog.fragment_shader == 0 ||
      vs_it == shaders.end() || fs_it == shaders.end()) {
    // ES 2.0 requires BOTH stages to be attached (paper challenge 1: unlike
    // desktop GL there is no fixed-function fallback).
    Fail(prog, "a program requires both a vertex and a fragment shader "
               "(OpenGL ES 2.0 has no fixed-function stages)");
    return;
  }
  const ShaderObject& vso = *vs_it->second;
  const ShaderObject& fso = *fs_it->second;
  if (!vso.compile_ok || !fso.compile_ok || vso.compiled == nullptr ||
      fso.compiled == nullptr) {
    Fail(prog, "attached shaders are not successfully compiled");
    return;
  }
  prog.vs = vso.compiled;
  prog.fs = fso.compiled;

  // --- varyings: every varying consumed by the fragment stage must be
  // declared with an identical type by the vertex stage.
  int offset = 0;
  for (const VarDecl* fg : prog.fs->globals) {
    if (fg->qual != Qualifier::kVarying) continue;
    const VarDecl* vg = prog.vs->FindGlobal(fg->name);
    if (vg == nullptr || vg->qual != Qualifier::kVarying) {
      Fail(prog, StrFormat("varying '%s' is not declared by the vertex "
                           "shader",
                           fg->name.c_str()));
      continue;
    }
    if (!(vg->type == fg->type)) {
      Fail(prog, StrFormat("varying '%s' has mismatched types (%s vs %s)",
                           fg->name.c_str(), vg->type.ToString().c_str(),
                           fg->type.ToString().c_str()));
      continue;
    }
    VaryingLink link;
    link.vs_slot = vg->slot;
    link.fs_slot = fg->slot;
    link.cells = fg->type.CellCount();
    link.offset = offset;
    offset += link.cells;
    prog.varyings.push_back(link);
  }
  prog.varying_cells = offset;

  // --- attributes: honor BindAttribLocation, then assign the rest.
  std::set<int> used_locations;
  for (const VarDecl* vg : prog.vs->globals) {
    if (vg->qual != Qualifier::kAttribute) continue;
    AttribInfo info;
    info.name = vg->name;
    info.type = vg->type;
    info.vs_slot = vg->slot;
    const auto bound = prog.bound_attribs.find(vg->name);
    if (bound != prog.bound_attribs.end()) {
      info.location = bound->second;
      if (info.location < 0 || info.location >= limits.max_vertex_attribs) {
        Fail(prog, StrFormat("attribute '%s' bound to invalid location %d",
                             vg->name.c_str(), info.location));
        continue;
      }
      used_locations.insert(info.location);
    }
    prog.attribs.push_back(info);
  }
  for (AttribInfo& info : prog.attribs) {
    if (info.location >= 0) continue;
    for (int loc = 0; loc < limits.max_vertex_attribs; ++loc) {
      if (used_locations.count(loc) == 0) {
        info.location = loc;
        used_locations.insert(loc);
        break;
      }
    }
    if (info.location < 0) {
      Fail(prog, StrFormat("no free location for attribute '%s'",
                           info.name.c_str()));
    }
  }

  // --- uniforms: merge the two stages; types must agree.
  auto add_uniforms = [&](const CompiledShader& cs, bool is_vertex) {
    for (const VarDecl* g : cs.globals) {
      if (g->qual != Qualifier::kUniform) continue;
      UniformInfo* existing = nullptr;
      for (UniformInfo& u : prog.uniforms) {
        if (u.name == g->name) {
          existing = &u;
          break;
        }
      }
      if (existing != nullptr) {
        if (!(existing->type == g->type)) {
          Fail(prog, StrFormat("uniform '%s' declared with different types "
                               "in the two stages",
                               g->name.c_str()));
          continue;
        }
        (is_vertex ? existing->vs_slot : existing->fs_slot) = g->slot;
        continue;
      }
      UniformInfo u;
      u.name = g->name;
      u.type = g->type;
      (is_vertex ? u.vs_slot : u.fs_slot) = g->slot;
      prog.uniforms.push_back(u);
    }
  };
  add_uniforms(*prog.vs, true);
  add_uniforms(*prog.fs, false);

  // Assign dense locations; arrays get one location per element, and both
  // "name" and "name[i]" resolve, as the ES API requires.
  for (std::size_t ui = 0; ui < prog.uniforms.size(); ++ui) {
    UniformInfo& u = prog.uniforms[ui];
    u.base_location = static_cast<int>(prog.locations.size());
    const int elements = u.type.IsArray() ? u.type.array_size : 1;
    for (int e = 0; e < elements; ++e) {
      prog.locations.push_back({static_cast<int>(ui), e});
      if (e == 0) {
        prog.uniform_locations[u.name] = u.base_location;
        if (u.type.IsArray()) {
          prog.uniform_locations[u.name + "[0]"] = u.base_location;
        }
      } else {
        prog.uniform_locations[StrFormat("%s[%d]", u.name.c_str(), e)] =
            u.base_location + e;
      }
    }
  }

  // --- fragment output discovery (paper challenge 8: exactly one output).
  const bool uses_color = UsesOutput(*prog.fs, "gl_FragColor");
  const bool uses_data = UsesOutput(*prog.fs, "gl_FragData");
  if (uses_color && uses_data) {
    Fail(prog, "fragment shader statically uses both gl_FragColor and "
               "gl_FragData");
  }
  prog.uses_frag_data = uses_data;

  if (!prog.link_ok) return;

  // --- instantiate one engine per stage and cache gl_* slots. Each
  // engine's construction runs its stage's global initializers and charges
  // their ops to `alu`, the same counts for every kind.
  if (engine == ExecEngine::kTreeWalk) {
    prog.vertex = std::make_unique<glsl::ShaderExec>(*prog.vs, alu);
    prog.fragment = std::make_unique<glsl::ShaderExec>(*prog.fs, alu);
  } else {
    auto fs_code = glsl::LowerToBytecode(*prog.fs);
    prog.fs_can_trap = fs_code->CanTrap();
    prog.vertex = std::make_unique<glsl::VmExec>(
        glsl::LowerToBytecode(*prog.vs), alu);
    prog.fragment = std::make_unique<glsl::VmExec>(std::move(fs_code), alu);
  }
  prog.vs_position_slot = prog.vertex->GlobalSlot("gl_Position");
  prog.vs_point_size_slot = prog.vertex->GlobalSlot("gl_PointSize");
  prog.fs_frag_color_slot = prog.fragment->GlobalSlot("gl_FragColor");
  prog.fs_frag_data_slot = prog.fragment->GlobalSlot("gl_FragData");
  prog.fs_frag_coord_slot = prog.fragment->GlobalSlot("gl_FragCoord");
  prog.fs_front_facing_slot = prog.fragment->GlobalSlot("gl_FrontFacing");
  prog.fs_point_coord_slot = prog.fragment->GlobalSlot("gl_PointCoord");

  // Uniform (non-lane) slots resolve to the shared store, so a uniform
  // write needs nothing extra here.
  ProgramObject::VertexViews& v = prog.vertex_views;
  const auto plane = [&](int slot) { return GlobalPlane(*prog.vertex, slot); };
  v.position = plane(prog.vs_position_slot);
  v.point_size = plane(prog.vs_point_size_slot);
  v.attribs.reserve(prog.attribs.size());
  for (const AttribInfo& ai : prog.attribs) {
    v.attribs.push_back(
        {plane(ai.vs_slot), ai.location, std::min(ai.type.CellCount(), 4)});
  }
  v.varyings.reserve(prog.varyings.size());
  for (const VaryingLink& link : prog.varyings) {
    v.varyings.push_back({plane(link.vs_slot), link.cells, link.offset});
  }
}

ProgramObject::FragmentClone CloneFragmentStage(const ProgramObject& prog) {
  ProgramObject::FragmentClone c;
  c.engine = prog.fragment->Clone();
  const auto plane = [&](int slot) { return GlobalPlane(*c.engine, slot); };
  c.frag_coord = plane(prog.fs_frag_coord_slot);
  c.front_facing = plane(prog.fs_front_facing_slot);
  c.point_coord = plane(prog.fs_point_coord_slot);
  c.color = plane(prog.uses_frag_data ? prog.fs_frag_data_slot
                                      : prog.fs_frag_color_slot);
  c.varyings.reserve(prog.varyings.size());
  for (const VaryingLink& link : prog.varyings) {
    c.varyings.push_back({plane(link.fs_slot), link.cells, link.offset});
  }
  return c;
}

}  // namespace mgpu::gles2
