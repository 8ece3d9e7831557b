// GLSL ES 1.00 source generators implementing the paper's §IV numeric
// transformations inside the shader: byte reconstruction (M, Eq. 4), signed
// bytes (M2), integer byte-significance sums (Eq. 6/7) and the floating
// point (de)composition (§IV-E), plus the 1D index <-> 2D normalized
// coordinate helpers (challenges 3/4).
//
// Two pack conventions are provided for the framebuffer write (inverse
// transforms): the robust form (b + 0.25) / 255, which survives both the
// floor conversion of the paper's Eq. (2) and the round-to-nearest
// conversion of real drivers, and a paper-literal delta form (Eq. 3-5 with
// the corrected delta = 1/65280) that shaderlib_test proves equivalent.
#ifndef MGPU_COMPUTE_SHADERLIB_H_
#define MGPU_COMPUTE_SHADERLIB_H_

#include <string>

#include "compute/packing.h"

namespace mgpu::compute {

// The pass-through vertex shader of the paper's challenge 1: its only job is
// forwarding the varying to the fragment stage — no projection needed since
// the camera looks straight at the screen-covering quad.
[[nodiscard]] std::string PassthroughVertexShader();

// Common preamble for generated fragment kernels: precision statement,
// varying, and the byte/coordinate helper functions.
[[nodiscard]] std::string KernelPreamble();

// gp_unpack_<type>(vec4) and gp_pack_<type>(...) function definitions.
// Byte types expose vec4-wide variants (gp_unpack_u8 : vec4 -> vec4 with
// values in [0,255]; gp_unpack_i8 -> [-128,127]).
[[nodiscard]] std::string UnpackFunction(ElemType t);
[[nodiscard]] std::string PackFunction(ElemType t);

// Names of the generated functions, e.g. "gp_unpack_f32".
[[nodiscard]] std::string UnpackName(ElemType t);
[[nodiscard]] std::string PackName(ElemType t);

// Paper-literal byte reconstruction using the delta correction of Eq. (3)-
// (5): gp_unpack_u8_delta / gp_pack_u8_delta. Proven equivalent to the
// robust forms by property tests.
[[nodiscard]] std::string DeltaByteFunctions();

// Fetch helper for a named sampler input: defines
//   float gp_fetch_<name>(float index)        (32-bit formats)
//   vec4  gp_fetch_<name>(float texel_index)  (byte formats)
// and the 2D variant gp_fetch2_<name>(float x, float y).
[[nodiscard]] std::string FetchFunctions(const std::string& name, ElemType t);

}  // namespace mgpu::compute

#endif  // MGPU_COMPUTE_SHADERLIB_H_
