// Seeded, deterministic fault injection for tests. A small registry of
// named injection points ("sites") compiled into the production code paths;
// each site is a single armed-flag check when idle, so the registry can stay
// in release builds without measurable cost. Tests arm a site to fire on its
// Nth hit, run a draw, and assert the abort/recovery semantics the
// robustness model promises (see README "Robustness model").
//
// Threading contract: Arm/Disarm/DisarmAll may only be called while no draw
// (and no pool job) is in flight. The worker pool's fork-join handshake
// (mutex-protected epoch) then gives every worker a happens-before edge on
// the armed state, so ShouldFail's hit counting is the only cross-thread
// traffic — and that is atomic.
#ifndef MGPU_COMMON_FAULT_H_
#define MGPU_COMMON_FAULT_H_

#include <cstdint>

namespace mgpu::fault {

enum class Site : int {
  // Shading-state construction in a draw: a context's shading worker
  // (ALU shard fork, TMU model, scratch) or a program's fragment-engine
  // clone for a worker. Fires as std::bad_alloc.
  kShadeCacheAlloc = 0,
  // Tile binner storage growth (tile index or slot list). Fires as
  // std::bad_alloc.
  kBinnerGrow,
  // Shader execution: trap at the Nth guarded step (VM loop guard /
  // interpreter loop guard). Fires as glsl::ShaderRuntimeError.
  kVmInstruction,
  // Threadpool task body: the Nth claimed task throws before running its
  // body, modeling a worker dying mid-draw.
  kPoolTask,
  kSiteCount,
};

inline constexpr int kSiteCount = static_cast<int>(Site::kSiteCount);

// Arms `site` to fail from its `nth` hit (0-based) onward. Hits past `nth`
// keep failing until Disarm, so a retry loop cannot spin past an armed
// fault. Resets the site's hit counter.
void Arm(Site site, std::uint64_t nth);

// Disarms one site / every site (and resets hit counters).
void Disarm(Site site);
void DisarmAll();

// True when any site is armed. Per-draw (not per-pixel) check: the GLES
// context journals framebuffer writes only when a draw can actually abort
// mid-write, and an armed fault site is one of the ways it can.
[[nodiscard]] bool AnyArmed();

// Counts a hit against `site`; returns true when the fault should fire.
// Always false (one relaxed load) when the site is not armed.
bool ShouldFail(Site site);

// Hits recorded against `site` since it was last armed (test introspection:
// lets a harness discover how many times a site is reached by a clean run,
// then sweep nth over that range).
[[nodiscard]] std::uint64_t Hits(Site site);

}  // namespace mgpu::fault

#endif  // MGPU_COMMON_FAULT_H_
