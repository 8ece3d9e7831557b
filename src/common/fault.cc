#include "common/fault.h"

#include <atomic>

namespace mgpu::fault {
namespace {

struct SiteState {
  std::atomic<bool> armed{false};
  std::atomic<std::uint64_t> nth{0};
  std::atomic<std::uint64_t> hits{0};
};

SiteState g_sites[kSiteCount];

SiteState& At(Site site) { return g_sites[static_cast<int>(site)]; }

}  // namespace

void Arm(Site site, std::uint64_t nth) {
  SiteState& s = At(site);
  s.hits.store(0, std::memory_order_relaxed);
  s.nth.store(nth, std::memory_order_relaxed);
  s.armed.store(true, std::memory_order_relaxed);
}

void Disarm(Site site) {
  SiteState& s = At(site);
  s.armed.store(false, std::memory_order_relaxed);
  s.hits.store(0, std::memory_order_relaxed);
}

void DisarmAll() {
  for (int i = 0; i < kSiteCount; ++i) Disarm(static_cast<Site>(i));
}

bool AnyArmed() {
  for (int i = 0; i < kSiteCount; ++i) {
    if (g_sites[i].armed.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

bool ShouldFail(Site site) {
  SiteState& s = At(site);
  if (!s.armed.load(std::memory_order_relaxed)) return false;
  const std::uint64_t hit = s.hits.fetch_add(1, std::memory_order_relaxed);
  return hit >= s.nth.load(std::memory_order_relaxed);
}

std::uint64_t Hits(Site site) {
  return At(site).hits.load(std::memory_order_relaxed);
}

}  // namespace mgpu::fault
