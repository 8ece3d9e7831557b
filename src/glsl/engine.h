// Common interface of the shader execution engines: the tree-walking
// ShaderExec (reference oracle) and the bytecode VmExec, which runs both the
// scalar oracle and the lane-batched default. The gles2 draw pipeline
// programs against this interface so the engine is switchable per context;
// every engine clones, so every engine shades on per-worker clones.
#ifndef MGPU_GLSL_ENGINE_H_
#define MGPU_GLSL_ENGINE_H_

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

  // Executes main(). Returns false if the invocation was discarded. Throws
  // ShaderRuntimeError on conditions a real GPU would hang on.
  virtual bool Run() = 0;

  // Slot of a global (uniform, attribute, varying, gl_*); -1 when absent.
  [[nodiscard]] virtual int GlobalSlot(const std::string& name) const = 0;
  [[nodiscard]] virtual Value& GlobalAt(int slot) = 0;

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
