// Command-stream tallies, kept only because e2ebench reports them. A
// Context executes every call on the caller's thread before it returns, so
// nothing is ever recorded, submitted or dropped and every field reads 0.
#ifndef MGPU_GLES2_CMDSTREAM_H_
#define MGPU_GLES2_CMDSTREAM_H_

#include <cstdint>

namespace mgpu::gles2::cmd {

// Kept only for e2ebench; see Context::command_stream_stats().
struct Stats {
  std::uint64_t recorded = 0;
  std::uint64_t elided = 0;
  std::uint64_t draws = 0;
  std::uint64_t inline_syncs = 0;
  std::uint64_t sync_points = 0;
  std::uint64_t lists_submitted = 0;
  std::uint64_t lists_executed = 0;
  std::uint64_t lists_dropped = 0;
};

}  // namespace mgpu::gles2::cmd

#endif  // MGPU_GLES2_CMDSTREAM_H_
