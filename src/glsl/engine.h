// Common interface of the shader execution engines: the tree-walking
// ShaderExec (reference oracle, one lane) and the bytecode VmExec (the
// lane-batched executor, run kVmLanes wide by default and one lane wide as
// the kBytecodeVm oracle). The gles2 draw pipeline programs against this
// interface, so a context picks its engine once and a linked program holds
// one engine per stage; every engine clones, so every engine shades on
// per-worker clones.
#ifndef MGPU_GLSL_ENGINE_H_
#define MGPU_GLSL_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "glsl/alu.h"
#include "glsl/builtins.h"
#include "glsl/evalcore.h"
#include "glsl/value.h"

namespace mgpu::glsl {

class ShaderEngine {
 public:
  virtual ~ShaderEngine() = default;

  // Executes main() for lanes [0, n) of the engine's lane planes; n is at
  // most the engine's lane width (kVmLanes for VmExec, 1 for ShaderExec).
  // Returns the bitmask of lanes not discarded. Throws ShaderRuntimeError
  // on conditions a real GPU would hang on.
  virtual std::uint32_t RunBatch(int n) = 0;

  // Slot of a global (uniform, attribute, varying, gl_*); -1 when absent.
  [[nodiscard]] virtual int GlobalSlot(const std::string& name) const = 0;
  [[nodiscard]] virtual Value& GlobalAt(int slot) = 0;
  // Component-plane view of global `slot` as RunBatch reads and writes it:
  // per-fragment inputs and outputs go through this view, lane l at
  // at(c, l). Stays valid for the engine's lifetime.
  [[nodiscard]] virtual PlaneDst LaneGlobal(int slot) = 0;

  // Texture fetch callback, installed by the gles2 draw pipeline.
  virtual void SetTextureFn(TextureFn fn) = 0;

  // Worker clone for the tiled fragment pipeline: an engine of the same
  // kind sharing this one's immutable program, with a copy of its globals
  // (initializers and uniforms) and loop budget, routing math through `alu`
  // — typically a per-worker Fork() of the context's model, so op counts
  // shard cleanly. Initializers are not re-run, so no ops are charged.
  [[nodiscard]] virtual std::unique_ptr<ShaderEngine> Clone(
      AluModel& alu) const = 0;

  // Cheap per-draw refresh of a clone: re-copies `base`'s globals without
  // reallocating, so plane views into them stay valid. After the call the
  // clone's observable state is that of a clone made from `base` now.
  // `base` is the engine this one was cloned from.
  virtual void SyncGlobalsFrom(const ShaderEngine& base) = 0;
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_ENGINE_H_
