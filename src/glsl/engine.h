// Common interface of the shader execution engines: the tree-walking
// ShaderExec (reference oracle, one lane) and the bytecode VmExec (the
// lane-batched executor, run kVmLanes wide by default and one lane wide as
// the kBytecodeVm oracle). The gles2 draw pipeline programs against this
// interface, so a context picks its engine once and a linked program holds
// one engine per stage; every engine clones, so every engine shades on
// per-worker clones. An engine owns no counter model and no texture fetch:
// each run is handed the ones to use, so whoever runs it (a gles2 shading
// worker, a test) decides where ops are counted and how texels are read.
// The one exception is construction, which charges the global
// initializers' ops to the model the constructor is given.
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
  // Every op is counted on `alu` and every texel is read through `texture`
  // (an empty one reads (0, 0, 0, 1)). Returns the bitmask of lanes not
  // discarded. Throws ShaderRuntimeError on conditions a real GPU would
  // hang on.
  virtual std::uint32_t RunBatch(int n, AluModel& alu,
                                 const TextureFn& texture) = 0;

  // Slot of a global (uniform, attribute, varying, gl_*); -1 when absent.
  [[nodiscard]] virtual int GlobalSlot(const std::string& name) const = 0;
  [[nodiscard]] virtual Value& GlobalAt(int slot) = 0;
  // Component-plane view of global `slot` as RunBatch reads and writes it:
  // per-fragment inputs and outputs go through this view, lane l at
  // at(c, l). Stays valid for the engine's lifetime.
  [[nodiscard]] virtual PlaneDst LaneGlobal(int slot) = 0;

  // Worker clone for the tiled fragment pipeline: an engine of the same
  // kind sharing this one's immutable program, with a copy of its globals
  // (initializers and uniforms) and loop budget. Initializers are not
  // re-run, so no ops are charged.
  [[nodiscard]] virtual std::unique_ptr<ShaderEngine> Clone() const = 0;

  // Cheap per-draw refresh of a clone: re-copies `base`'s globals without
  // reallocating, so plane views into them stay valid. After the call the
  // clone's observable state is that of a clone made from `base` now.
  // `base` is the engine this one was cloned from.
  virtual void SyncGlobalsFrom(const ShaderEngine& base) = 0;
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_ENGINE_H_
