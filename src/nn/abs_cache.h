//===- nn/abs_cache.h - Cached absolute-weight tensor ----------*- C++ -*-===//
///
/// \file
/// Memoized weight-derived tensors: elementwise |W| for the convolutions'
/// interval (box) propagation and W^T for every Linear map. Rebuilding
/// either per call would redo the same O(|W|) work thousands of times per
/// certification run; the cache builds each once and rebuilds only after
/// an invalidate().
///
/// Invalidation contract: the owning layer bumps the cache from every
/// path that can hand out mutable parameter access (the non-const
/// weight()/bias() accessors and params()). An optimizer holds the
/// params() pointers for a whole run and mutates through them without a
/// new fetch, so Linear::forward, the one training pass that reads a
/// memo, bumps the cache after each call.
///
/// Thread safety: get() is safe for concurrent readers — parallel bench
/// grid cells share Layer objects — via a double-purpose mutex that also
/// serializes the one-time rebuild. Mutating weights while a
/// verification is in flight is not supported (that is a data race on
/// the weight tensor itself, independent of this cache).
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_NN_ABS_CACHE_H
#define GENPROVE_NN_ABS_CACHE_H

#include "src/tensor/tensor.h"
#include "src/util/hash.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <mutex>

namespace genprove {

class AbsWeightCache {
public:
  /// Mark the cached |W| stale; cheap, called from parameter accessors.
  void invalidate() { Version.fetch_add(1, std::memory_order_relaxed); }

  /// Explicit generation counter: advances on every invalidate(), so any
  /// derived artifact (the memoized |W|, a parameter fingerprint, a
  /// propagation-cache key) can detect that the weights were mutated
  /// since it was built. Never 0 — derived caches can use 0 as "never
  /// built".
  uint64_t generation() const {
    return Version.load(std::memory_order_acquire);
  }

  /// |W| for the given weight tensor, rebuilt only when stale. The
  /// reference stays valid until the next invalidate()+get() pair.
  const Tensor &get(const Tensor &W) const {
    std::lock_guard<std::mutex> Lock(Mu);
    // Snapshot the version before cloning: an invalidate() racing with
    // the rebuild leaves BuiltVersion behind, forcing the next get() to
    // rebuild again rather than serving a half-stale |W|.
    const uint64_t V = Version.load(std::memory_order_acquire);
    if (BuiltVersion != V) {
      Abs = W.clone();
      double *D = Abs.data();
      for (int64_t I = 0; I < Abs.numel(); ++I)
        D[I] = std::fabs(D[I]);
      BuiltVersion = V;
    }
    return Abs;
  }

  /// W^T ([In, Out] from the layer's [Out, In] weight), memoized under the
  /// same staleness contract as get(). Linear's kernels consume the
  /// transposed layout: with W^T the output dimension is the contiguous
  /// inner axis, so the per-output ascending-k accumulator chains
  /// vectorize across outputs (the [Out, In] dot-product form defeats the
  /// vectorizer under strict FP semantics).
  const Tensor &getTrans(const Tensor &W) const {
    std::lock_guard<std::mutex> Lock(Mu);
    const uint64_t V = Version.load(std::memory_order_acquire);
    if (TransVersion != V) {
      const int64_t N = W.dim(0), K = W.dim(1);
      // A training forward rebuilds W^T every step: keep the storage.
      if (Trans.rank() != 2 || Trans.dim(0) != K || Trans.dim(1) != N)
        Trans = Tensor({K, N});
      const double *Wd = W.data();
      double *Td = Trans.data();
      // Write W^T row by row: stores that stride by a W^T row (a power of
      // two on large layers) miss cache and TLB on every store.
      for (int64_t J = 0; J < K; ++J)
        for (int64_t I = 0; I < N; ++I)
          Td[J * N + I] = Wd[I * K + J];
      TransVersion = V;
    }
    return Trans;
  }

  /// Memoized FNV-1a fingerprint over the bit patterns of the given
  /// parameter tensors, seeded with \p Seed (the layer's structural
  /// hash). Rebuilt only when the generation has advanced — the same
  /// staleness contract as get(), so a weight mutation through any
  /// mutable accessor is guaranteed to change the fingerprint the
  /// propagation cache keys on.
  uint64_t paramFingerprint(uint64_t Seed,
                            std::initializer_list<const Tensor *> Ts) const {
    std::lock_guard<std::mutex> Lock(Mu);
    const uint64_t V = Version.load(std::memory_order_acquire);
    if (FpVersion != V || FpSeed != Seed) {
      uint64_t H = hashing::hashU64(hashing::FnvOffset, Seed);
      for (const Tensor *T : Ts) {
        H = hashing::hashU64(H, static_cast<uint64_t>(T->numel()));
        H = hashing::hashBytes(H, T->data(),
                               static_cast<size_t>(T->numel()) *
                                   sizeof(double));
      }
      Fp = H;
      FpVersion = V;
      FpSeed = Seed;
    }
    return Fp;
  }

private:
  std::atomic<uint64_t> Version{1};
  mutable std::mutex Mu;
  mutable Tensor Abs;
  mutable uint64_t BuiltVersion = 0;
  mutable Tensor Trans;
  mutable uint64_t TransVersion = 0;
  mutable uint64_t Fp = 0;
  mutable uint64_t FpVersion = 0;
  mutable uint64_t FpSeed = 0;
};

} // namespace genprove

#endif // GENPROVE_NN_ABS_CACHE_H
