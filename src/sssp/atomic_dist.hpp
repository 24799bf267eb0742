// Shared atomic distance array with a CAS-based fetch-min.
//
// Current NVIDIA GPUs have no hardware atomicMin for floats; the paper (and
// its baselines) use Gunrock 1.0's software compare-and-swap loop. This is
// the host equivalent, used uniformly for both weight flavours so the int
// and float engines relax identically.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

#include "graph/types.hpp"

namespace adds {

template <typename Dist>
class AtomicDistArray {
 public:
  explicit AtomicDistArray(size_t n, Dist init) : n_(n) {
    d_ = std::make_unique<std::atomic<Dist>[]>(n);
    for (size_t i = 0; i < n; ++i)
      d_[i].store(init, std::memory_order_relaxed);
  }

  size_t size() const noexcept { return n_; }

  Dist load(size_t i) const noexcept {
    return d_[i].load(std::memory_order_relaxed);
  }

  void store(size_t i, Dist v) noexcept {
    d_[i].store(v, std::memory_order_relaxed);
  }
  /// Pulls d[i]'s cache line toward the core ahead of a fetch_min.
  void prefetch(size_t i) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&d_[i], 1 /*write*/, 3 /*high locality*/);
#else
    (void)i;
#endif
  }

  /// atomicMin: lowers d[i] to `v` if v is smaller. Returns true when this
  /// call strictly improved the value (the caller then re-queues vertex i).
  bool fetch_min(size_t i, Dist v) noexcept {
    Dist cur = d_[i].load(std::memory_order_relaxed);
    while (v < cur) {
      if (d_[i].compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                      std::memory_order_relaxed))
        return true;
      // cur reloaded by the failed CAS; loop re-checks v < cur.
    }
    return false;
  }

 private:
  size_t n_;
  std::unique_ptr<std::atomic<Dist>[]> d_;
};

}  // namespace adds
