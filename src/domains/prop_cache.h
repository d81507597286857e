//===- domains/prop_cache.h - Memoizing abstract-state cache ---*- C++ -*-===//
///
/// \file
/// PropagationCache memoizes per-layer abstract states across
/// propagations, so repeated or prefix-shared queries warm-start
/// mid-network instead of re-propagating from layer 0. Robustness
/// certification traffic is dominated by re-checked and near-duplicate
/// specifications against one frozen decoder, which is what the CLI's
/// repeated --start/--end pairs, served requests and in-process library
/// callers send.
///
/// Keying. A propagation is identified by a *key chain*: FNV-1a hashes
/// where Chain[0] covers a caller salt (engine knobs the transformers
/// depend on: relaxation config, split epsilon, sound-rounding mode,
/// domain and input-distribution tags), the input activation shape, and
/// the bit patterns of every input region — and Chain[i+1] extends
/// Chain[i] with layer i's fingerprint (structure plus parameter bits,
/// memoized against the layer's AbsWeightCache generation, see
/// nn/layer.h). Chain[i] therefore names the exact abstract state at the
/// boundary entering layer i. Two chains share a prefix exactly when a
/// cold recomputation would be bit-identical over that prefix, which is
/// the equivalence the engine's determinism contract guarantees — so a
/// warm start can never change final bounds, only skip work.
///
/// OOM fidelity. Each entry stores the peak device charge of the prefix
/// that produced it. A warm start replays that peak as a single charge
/// against the caller's DeviceMemoryModel: the peak of a monotone charge
/// sequence equals its maximum, so budget exhaustion (and the
/// device.peak_budget_ratio gauge) behaves exactly as a cold run's.
///
/// Budgeting. Entries are charged bytes like any abstract state
/// (stateBytes of the stored nodes) against an embedded DeviceMemoryModel
/// whose budget is the configured cache budget; insertion evicts from the
/// cold end of the recency list until the new entry fits. A propagation's
/// final boundary enters at the hot end, its intermediate boundaries at
/// the cold end, and a hit moves an entry to the hot end. Intermediate
/// states are usually far larger than final ones and serve only
/// prefix-shared queries, while final states serve every exact repeat;
/// cold-end insertion makes intermediate states evict each other instead
/// of pushing final states out before their next repeat. configure(0) —
/// the default — disables the cache entirely and drops all entries.
///
/// Only *clean* states are cached: a boundary state is stored only while
/// its propagation has fired no degradation rung and quarantined nothing,
/// so it is bit for bit the state a cold plain run commits and plain and
/// resilient runs share entries. Runs with fault injection armed or
/// lifted to the full box up front never touch the cache. A resilient
/// run takes a cached prefix only if its budget holds the prefix's peak
/// (see lookupDeepest); a cold run under that budget could not have
/// degraded inside the prefix either.
///
/// Counters cache.hits / cache.misses / cache.evictions /
/// cache.insertions, the cache.bytes gauge and the cache.hit_rate gauge
/// feed the metrics registry (run_report.json, Prometheus, /stats); hits
/// and misses count per propagation, not per probed boundary, so
/// hit_rate is the fraction of cache-eligible propagations that
/// warm-started.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_PROP_CACHE_H
#define GENPROVE_DOMAINS_PROP_CACHE_H

#include "src/domains/memory_model.h"
#include "src/domains/region.h"
#include "src/nn/layer.h"
#include "src/tensor/shape.h"

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace genprove {

class PropagationCache {
public:
  /// The process-wide cache shared by every propagation (CLI runs, bench
  /// grid cells, serve daemon requests). Disabled until configure()d.
  static PropagationCache &global();

  PropagationCache() = default;
  PropagationCache(const PropagationCache &) = delete;
  PropagationCache &operator=(const PropagationCache &) = delete;

  /// Set the byte budget; 0 disables the cache and drops every entry.
  void configure(size_t BudgetBytes);

  bool enabled() const;
  size_t budgetBytes() const;
  /// Bytes currently resident (sum of entry state bytes).
  size_t bytes() const;
  /// Drop every entry, keep the budget and the counters.
  void clear();

  /// Point-in-time counter values, for /stats and tests.
  struct Snapshot {
    int64_t Hits = 0;
    int64_t Misses = 0;
    int64_t Evictions = 0;
    int64_t Insertions = 0;
    size_t Bytes = 0;
    size_t BudgetBytes = 0;
  };
  Snapshot snapshot() const;

  /// Build the key chain for a propagation: Chain[i] names the abstract
  /// state at the boundary entering layer i (Chain has Layers.size()+1
  /// entries; the last names the final state).
  static std::vector<uint64_t>
  chainKeys(uint64_t Salt, const Shape &InputShape,
            const std::vector<Region> &Input,
            const std::vector<const Layer *> &Layers);

  /// Admission test for a resident prefix, given its peak device charge.
  /// Called under the cache lock, so it must not call back into the cache.
  using AdmitFn = std::function<bool(size_t PrefixPeakBytes)>;

  /// Probe the chain from the deepest boundary down to boundary 1 and
  /// copy out the deepest cached state. Returns the number of layers the
  /// caller may skip (0 = miss). Counts one hit or one miss per call: when
  /// \p Admit rejects the deepest resident entry, the probe is a miss and
  /// the entry is left untouched.
  size_t lookupDeepest(const std::vector<uint64_t> &Chain,
                       std::vector<Region> &State, Shape &StateShape,
                       size_t &PrefixPeakBytes, const AdmitFn &Admit = {});

  /// Insert (a deep copy of) a clean boundary state. PrefixPeakBytes is
  /// the peak device charge of the propagation prefix that produced the
  /// state, replayed on warm start. \p Final marks a propagation's last
  /// boundary, which enters at the hot end; an intermediate boundary
  /// (Final = false) enters at the cold end. A resident key is replaced;
  /// an entry larger than the whole budget is dropped on the floor.
  void store(uint64_t Key, const std::vector<Region> &State,
             const Shape &StateShape, size_t PrefixPeakBytes,
             bool Final = true);

private:
  struct Entry {
    std::vector<Region> State;
    Shape StateShape;
    size_t PrefixPeakBytes = 0;
    size_t Bytes = 0;
    std::list<uint64_t>::iterator LruIt;
  };

  void touchLocked(Entry &E, uint64_t Key);
  void publishGaugesLocked();

  mutable std::mutex Mu;
  size_t Budget = 0;
  size_t CurBytes = 0;
  std::unordered_map<uint64_t, Entry> Map;
  /// Front = hot end (hits, final states); back = cold end (intermediate
  /// states). Eviction pops the back.
  std::list<uint64_t> Lru;
  /// Charges mirror the cache's resident bytes, so cache pressure shows
  /// up in the same device accounting the abstract states use.
  std::unique_ptr<DeviceMemoryModel> Device;
  int64_t Hits = 0;
  int64_t Misses = 0;
  int64_t Evictions = 0;
  int64_t Insertions = 0;
};

} // namespace genprove

#endif // GENPROVE_DOMAINS_PROP_CACHE_H
