#include "pace.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common.h"

namespace e2e {

namespace {
constexpr size_t kEntries = 4 * 1024;  // 16 KiB of uint32_t, within L1
constexpr int kChaseSteps = 20000;
constexpr int kMixSteps = 50000;
constexpr int64_t kEveryNs = 20'000'000;
constexpr size_t kWindow = 9;

// One random cycle through n entries, from a fixed seed: the same work
// in every run.
std::vector<uint32_t> RandomCycle(size_t n) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (size_t i = n; i > 1; --i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(order[i - 1], order[(x >> 33) % i]);
  }
  std::vector<uint32_t> next(n);
  for (size_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
  return next;
}
}  // namespace

Pace::Pace() : next_(RandomCycle(kEntries)) {
  for (int i = 0; i < 20; ++i) Probe();
  probe_ns_.clear();
  factor_ = 1;
}

void Pace::Probe() {
  // An untimed pass first brings the data back into L1, so the timed
  // part does not depend on what the program left in the caches.
  uint32_t at = at_;
  for (size_t i = 0; i < kEntries; ++i) at = next_[at];
  const int64_t t0 = NowNs();
  for (int i = 0; i < kChaseSteps; ++i) at = next_[at];
  uint64_t h = sink_ + at;
  for (int i = 0; i < kMixSteps; ++i) h = h * 6364136223846793005ull + static_cast<uint64_t>(i);
  last_ns_ = NowNs();
  at_ = at;
  sink_ = h;
  probe_ns_.push_back(static_cast<double>(last_ns_ - t0));
  const size_t n = std::min(kWindow, probe_ns_.size());
  factor_ = kReferenceNs /
            Percentile(std::vector<double>(probe_ns_.end() - static_cast<ptrdiff_t>(n),
                                           probe_ns_.end()),
                       50);
}

void Pace::MaybeProbe() {
  if (NowNs() - last_ns_ >= kEveryNs) Probe();
}

void Pace::Burst() {
  for (size_t i = 0; i < kWindow; ++i) Probe();
}

void Pace::Log() const {
  std::fprintf(stderr, "e2ebench:   pace: %zu probes, median %.1f us\n", probe_ns_.size(),
               Percentile(probe_ns_, 50) / 1e3);
}

}  // namespace e2e
