//===- parallel/thread_pool.h - Shared parallel runtime --------*- C++ -*-===//
///
/// \file
/// The verifier's shared parallel execution engine: one lazily-initialized
/// work-stealing thread pool behind a parallelFor / parallelReduce API.
/// Three layers of the system run on it — the tiled GEMM/conv kernels
/// (src/tensor/ops.cpp), the per-region loops of the propagation engine
/// (src/domains/propagate.cpp), and the bench / CLI harnesses (independent
/// grid cells and spec endpoints).
///
/// Sizing: the GENPROVE_THREADS environment variable, where unset or 0
/// means std::thread::hardware_concurrency; the tools' --threads N flag
/// (N >= 1, they refuse anything else) overrides it through setThreads().
/// A pool of size 1 never spawns a worker and executes every chunk inline
/// on the caller, which is exactly the pre-parallel serial code path.
///
/// Determinism contract (relied on by the config-fingerprinted grid cache
/// and the resilience soundness oracle): results are bit-identical for any
/// thread count.
///
///  * Chunk boundaries are a pure function of the iteration count and the
///    grain — never of the pool size. defaultGrain(N) depends on N only.
///  * Chunks may execute in any order on any worker, so a parallelFor body
///    must write disjoint state per chunk (all in-tree callers do).
///  * parallelReduce combines the per-chunk partials on the caller in
///    ascending chunk order, so floating-point reduction grouping is fixed.
///
/// Scheduling is work-stealing over chunk indices: every participant
/// (caller plus workers) owns a contiguous slice of the chunk range and
/// claims from it with a relaxed fetch-add; a participant whose slice is
/// exhausted steals single chunks from the other slices. Nested calls
/// (a parallelFor issued from inside a chunk) run inline and serial on the
/// calling worker, so kernels can sit under the propagation loops without
/// deadlock or oversubscription.
///
/// Observability (metrics off by default, see docs/OBSERVABILITY.md):
///   pool.tasks         chunks executed
///   pool.steals        chunks claimed from another participant's slice
///   pool.busy_seconds  summed per-participant time spent running chunks
///   pool.idle_seconds  summed participation time not spent in chunks
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_PARALLEL_THREAD_POOL_H
#define GENPROVE_PARALLEL_THREAD_POOL_H

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace genprove {

/// Work item of a parallelFor: the half-open index range [Begin, End).
using ChunkFn = std::function<void(int64_t Begin, int64_t End)>;

class ThreadPool {
public:
  /// The process-global pool, created on first use with envThreads()
  /// workers. All engine code paths share this instance.
  static ThreadPool &global();

  /// GENPROVE_THREADS if set to a positive integer, otherwise
  /// hardware_concurrency (at least 1).
  static int64_t envThreads();

  /// True while the calling thread is executing a parallelFor chunk;
  /// nested parallel calls run inline and serial.
  static bool inParallelRegion();

  /// Grain used when a caller passes Grain <= 0: a function of N alone
  /// (never of the pool size), so reduction grouping is reproducible.
  static int64_t defaultGrain(int64_t N);

  explicit ThreadPool(int64_t Threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  int64_t threads() const { return NumThreads; }

  /// Resize the pool (clamped to [1, 256]); joins existing workers. Must
  /// not be called while a parallelFor is in flight.
  void setThreads(int64_t Threads);

  /// Run Fn over [0, N) split into fixed chunks of Grain indices (last
  /// chunk may be short). Grain <= 0 uses defaultGrain(N). Blocks until
  /// every chunk has run; rethrows the first chunk exception. Chunks of a
  /// nested or size-1-pool call run inline in ascending order.
  void parallelFor(int64_t N, int64_t Grain, const ChunkFn &Fn);
  void parallelFor(int64_t N, const ChunkFn &Fn) { parallelFor(N, 0, Fn); }

  /// Map each chunk to a partial with Map(Begin, End), then fold the
  /// partials into Init on the caller in ascending chunk order:
  /// ((Init op P0) op P1) ... — a fixed grouping for any thread count.
  template <typename T, typename MapFn, typename CombineFn>
  T parallelReduce(int64_t N, int64_t Grain, T Init, const MapFn &Map,
                   const CombineFn &Combine) {
    if (N <= 0)
      return Init;
    if (Grain <= 0)
      Grain = defaultGrain(N);
    const int64_t NumChunks = (N + Grain - 1) / Grain;
    std::vector<T> Partials(static_cast<size_t>(NumChunks));
    parallelFor(N, Grain, [&](int64_t Begin, int64_t End) {
      Partials[static_cast<size_t>(Begin / Grain)] = Map(Begin, End);
    });
    T Acc = std::move(Init);
    for (T &Partial : Partials)
      Acc = Combine(std::move(Acc), std::move(Partial));
    return Acc;
  }

private:
  struct Job;
  struct Worker;

  void ensureWorkers();
  void joinWorkers();
  void workerLoop(int64_t Slot);
  /// Claim-and-run loop of one participant (slot 0 = the caller).
  void runSlot(Job &J, int64_t Slot);
  void runChunk(Job &J, int64_t Chunk);

  int64_t NumThreads = 1;
  std::vector<Worker> Workers; ///< NumThreads - 1 background threads

  // Job hand-off: SubmitMu serializes top-level parallelFor callers; Mu
  // guards CurrentJob/Generation/Stop and pairs with the two condvars.
  struct Sync;
  std::unique_ptr<Sync> S;
};

/// Shorthands on the global pool.
inline void parallelFor(int64_t N, int64_t Grain, const ChunkFn &Fn) {
  ThreadPool::global().parallelFor(N, Grain, Fn);
}
inline void parallelFor(int64_t N, const ChunkFn &Fn) {
  ThreadPool::global().parallelFor(N, Fn);
}

} // namespace genprove

#endif // GENPROVE_PARALLEL_THREAD_POOL_H
