//===- obs/snapshot.h - Serializable metrics snapshots ----------*- C++ -*-===//
///
/// \file
/// The cross-process half of the metrics layer: a value-type snapshot of a
/// MetricsRegistry that can be serialized to JSON, shipped over the shard
/// protocol and folded into the coordinator's registry (foldIntoRegistry,
/// the only merge).
///
/// Fold semantics (documented in docs/OBSERVABILITY.md):
///   - counters add;
///   - gauges follow a per-name reduction policy (gaugeMergePolicy):
///     peaks take the max, cumulative `*_seconds` gauges sum, everything
///     else is last-write-wins (the snapshot folded last);
///   - histograms fold bucket-wise (counts add per bucket; count/sum add,
///     min/max reduce), which is associative and commutative, so the
///     order workers finish in never changes the result.
///
/// The JSON wire format encodes every double as a %.17g string (strtod
/// round-trips that bit-exactly, including "inf"/"-inf" for the min/max
/// sentinels of an empty histogram) and counters/bucket counts as plain
/// integers, so encode(decode(x)) == x bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_OBS_SNAPSHOT_H
#define GENPROVE_OBS_SNAPSHOT_H

#include "src/obs/metrics.h"

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace genprove {

struct JsonValue;

/// Full-bucket snapshot of one histogram. Buckets is dense (all
/// Histogram::NumBuckets entries) in memory but serialized sparsely as
/// [index, count] pairs.
struct HistogramSnapshot {
  int64_t Count = 0;
  double Sum = 0.0;
  double Min = std::numeric_limits<double>::infinity();
  double Max = -std::numeric_limits<double>::infinity();
  std::array<int64_t, Histogram::NumBuckets> Buckets{};
};

/// How a folded gauge value combines with the registry's.
enum class GaugeMerge : uint8_t {
  Last, ///< the folded value wins (configs, instantaneous readings)
  Max,  ///< high-water marks ("peak" in the name)
  Sum,  ///< cumulative totals (`*_seconds` busy/idle style)
};

/// Merge policy for a gauge name; any `{...}` label suffix is ignored.
GaugeMerge gaugeMergePolicy(const std::string &Name);

/// `name` + `{key="value"}`, appending into an existing label block when
/// the name already carries one: `a{x="1"}` + (shard, 0) = `a{x="1",shard="0"}`.
std::string labeledMetricName(const std::string &Name, const std::string &Key,
                              const std::string &Value);

/// A serializable copy of a registry's metrics.
struct MetricsSnapshot {
  std::map<std::string, int64_t> Counters;
  std::map<std::string, double> Gauges;
  std::map<std::string, HistogramSnapshot> Histograms;

  /// Copy every registered metric out of a registry.
  static MetricsSnapshot capture(const MetricsRegistry &Registry);

  /// Copy with every metric renamed via labeledMetricName — the
  /// `shard=<id>` dimension the supervisor folds worker snapshots under.
  MetricsSnapshot withLabel(const std::string &Key,
                            const std::string &Value) const;

  bool empty() const {
    return Counters.empty() && Gauges.empty() && Histograms.empty();
  }

  /// Bit-exact JSON wire encoding (see file comment).
  std::string toJson() const;

  /// Decode; false (with *Error set) on malformed input.
  static bool fromJson(const JsonValue &V, MetricsSnapshot &Out,
                       std::string *Error = nullptr);
};

/// Fold a snapshot into a live registry using the merge-plane (absorb)
/// mutators, which work even while the metrics switch is off. Counters
/// add, gauges apply their merge policy, histograms fold bucket-wise.
void foldIntoRegistry(MetricsRegistry &Registry,
                      const MetricsSnapshot &Snapshot);

} // namespace genprove

#endif // GENPROVE_OBS_SNAPSHOT_H
