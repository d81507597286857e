//===- obs/metrics.h - Process-global metrics registry ---------*- C++ -*-===//
///
/// \file
/// A low-overhead metrics layer for the verifier: named monotonic counters,
/// gauges and log-scale histograms, registered in one process-global
/// MetricsRegistry. Mutation is a relaxed atomic op; when metrics are
/// disabled (the default) every mutator is a single flag test and no state
/// changes, so hot loops pay essentially nothing.
///
/// Registration (the name -> metric lookup) takes a mutex, so call sites
/// should hoist it out of loops:
///
///   static Counter &Splits =
///       MetricsRegistry::global().counter("propagate.splits");
///   ...
///   Splits.add(N);   // relaxed atomic add; no-op while metrics are off
///
/// The metric name catalogue lives in docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_OBS_METRICS_H
#define GENPROVE_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace genprove {

namespace obs_detail {
extern std::atomic<bool> MetricsEnabledFlag;

inline void atomicAddDouble(std::atomic<double> &A, double V) {
  double Cur = A.load(std::memory_order_relaxed);
  while (!A.compare_exchange_weak(Cur, Cur + V, std::memory_order_relaxed)) {
  }
}

inline void atomicMinDouble(std::atomic<double> &A, double V) {
  double Cur = A.load(std::memory_order_relaxed);
  while (V < Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
  }
}

inline void atomicMaxDouble(std::atomic<double> &A, double V) {
  double Cur = A.load(std::memory_order_relaxed);
  while (V > Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
  }
}
} // namespace obs_detail

/// Global metrics switch; default off so benchmarks measure pure kernels.
inline bool metricsEnabled() {
  return obs_detail::MetricsEnabledFlag.load(std::memory_order_relaxed);
}
inline void setMetricsEnabled(bool On) {
  obs_detail::MetricsEnabledFlag.store(On, std::memory_order_relaxed);
}

/// Monotonic counter (e.g. "propagate.splits").
class Counter {
public:
  void add(int64_t Delta = 1) {
    if (metricsEnabled())
      Value.fetch_add(Delta, std::memory_order_relaxed);
  }

  int64_t value() const { return Value.load(std::memory_order_relaxed); }
  const std::string &name() const { return Name; }

  /// Merge-plane mutator: fold a value recorded elsewhere (another
  /// process's snapshot) into this counter. Deliberately ignores the
  /// metrics switch — the delta was already paid for where it was
  /// recorded, and a fold must never silently drop shipped data.
  void absorb(int64_t Delta) {
    Value.fetch_add(Delta, std::memory_order_relaxed);
  }

private:
  friend class MetricsRegistry;
  explicit Counter(std::string Name) : Name(std::move(Name)) {}
  void reset() { Value.store(0, std::memory_order_relaxed); }

  std::string Name;
  std::atomic<int64_t> Value{0};
};

/// Last-write-wins gauge (e.g. "device.peak_bytes").
class Gauge {
public:
  void set(double V) {
    if (metricsEnabled())
      Value.store(V, std::memory_order_relaxed);
  }

  /// Keep the maximum of all set values (monotone high-water mark).
  void setMax(double V) {
    if (metricsEnabled())
      obs_detail::atomicMaxDouble(Value, V);
  }

  /// Accumulate into the gauge (e.g. summed busy/idle seconds across
  /// pool participants).
  void add(double V) {
    if (metricsEnabled())
      obs_detail::atomicAddDouble(Value, V);
  }

  double value() const { return Value.load(std::memory_order_relaxed); }
  const std::string &name() const { return Name; }

  /// Merge-plane mutators: fold a snapshot value from another process.
  /// They ignore the metrics switch (see Counter::absorb).
  void absorbSet(double V) { Value.store(V, std::memory_order_relaxed); }
  void absorbMax(double V) { obs_detail::atomicMaxDouble(Value, V); }
  void absorbAdd(double V) { obs_detail::atomicAddDouble(Value, V); }

private:
  friend class MetricsRegistry;
  explicit Gauge(std::string Name) : Name(std::move(Name)) {}
  void reset() { Value.store(0.0, std::memory_order_relaxed); }

  std::string Name;
  std::atomic<double> Value{0.0};
};

/// Log-scale (base-2) histogram of positive doubles, covering 2^-40 ..
/// 2^40 (~1e-12 s .. ~1e12). Non-positive and NaN samples land in the
/// dedicated low edge bucket; +inf and overflows in the high edge bucket,
/// so no sample is ever dropped. The running sum only accumulates finite
/// samples (a single +inf would otherwise poison it).
class Histogram {
public:
  static constexpr int MinExp = -40;
  static constexpr int MaxExp = 40;
  /// nonpositive + one bucket per exponent + overflow.
  static constexpr int NumBuckets = MaxExp - MinExp + 3;

  struct Bucket {
    double Lo = 0.0; ///< exclusive lower bound
    double Hi = 0.0; ///< inclusive upper bound
    int64_t Count = 0;
  };

  void record(double V) {
    if (!metricsEnabled())
      return;
    Buckets[static_cast<size_t>(bucketIndex(V))].fetch_add(
        1, std::memory_order_relaxed);
    NumSamples.fetch_add(1, std::memory_order_relaxed);
    if (V == V) { // skip NaN for the order statistics
      obs_detail::atomicMinDouble(MinSample, V);
      obs_detail::atomicMaxDouble(MaxSample, V);
    }
    if (std::isfinite(V))
      obs_detail::atomicAddDouble(Sum, V);
  }

  int64_t count() const { return NumSamples.load(std::memory_order_relaxed); }
  double total() const { return Sum.load(std::memory_order_relaxed); }
  /// Smallest/largest recorded sample; +inf/-inf when empty.
  double minSample() const { return MinSample.load(std::memory_order_relaxed); }
  double maxSample() const { return MaxSample.load(std::memory_order_relaxed); }
  const std::string &name() const { return Name; }

  int64_t bucketCount(int Index) const {
    return Buckets[static_cast<size_t>(Index)].load(std::memory_order_relaxed);
  }

  /// Snapshot of the occupied buckets, in increasing bound order.
  std::vector<Bucket> nonEmptyBuckets() const;

  /// Bucket index for a sample: 0 for v <= 0 or NaN, NumBuckets-1 for
  /// overflow/+inf, otherwise the bucket whose range (2^(e-1), 2^e]
  /// contains v (clamped to the covered exponent range at the low end).
  static int bucketIndex(double V);

  /// (exclusive lower, inclusive upper) bounds of a bucket; edge buckets
  /// use -inf / +inf.
  static Bucket bucketBounds(int Index);

  /// Merge-plane mutators: fold a histogram snapshot from another
  /// process bucket-by-bucket. They ignore the metrics switch (see
  /// Counter::absorb). absorbStats folds the order statistics and the
  /// finite-sample sum; the caller folds buckets separately so sparse
  /// snapshots only touch occupied buckets.
  void absorbBucket(int Index, int64_t Count) {
    Buckets[static_cast<size_t>(Index)].fetch_add(Count,
                                                  std::memory_order_relaxed);
  }
  void absorbStats(int64_t Count, double SumV, double MinV, double MaxV) {
    NumSamples.fetch_add(Count, std::memory_order_relaxed);
    obs_detail::atomicAddDouble(Sum, SumV);
    obs_detail::atomicMinDouble(MinSample, MinV);
    obs_detail::atomicMaxDouble(MaxSample, MaxV);
  }

private:
  friend class MetricsRegistry;
  explicit Histogram(std::string Name) : Name(std::move(Name)) {}
  void reset();

  std::string Name;
  std::array<std::atomic<int64_t>, NumBuckets> Buckets{};
  std::atomic<int64_t> NumSamples{0};
  std::atomic<double> Sum{0.0};
  std::atomic<double> MinSample{std::numeric_limits<double>::infinity()};
  std::atomic<double> MaxSample{-std::numeric_limits<double>::infinity()};
};

/// The process-global registry. Metric objects live for the whole process;
/// references returned by counter()/gauge()/histogram() never dangle.
class MetricsRegistry {
public:
  static MetricsRegistry &global();

  /// Look up or create; thread-safe (mutex on the registration path only).
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Lookup without creation; nullptr when the metric was never touched.
  const Counter *findCounter(const std::string &Name) const;
  const Gauge *findGauge(const std::string &Name) const;
  const Histogram *findHistogram(const std::string &Name) const;

  /// Enumerate registered metrics in name order. The pointers never
  /// dangle (metric objects live for the whole process), but the lists
  /// are snapshots: metrics registered after the call are not included.
  std::vector<const Counter *> counterList() const;
  std::vector<const Gauge *> gaugeList() const;
  std::vector<const Histogram *> histogramList() const;

  /// Zero every registered metric (fresh run / test isolation).
  void reset();

  /// Snapshot as a JSON object {"counters":{...},"gauges":{...},
  /// "histograms":{...}}. Histograms include p50/p90/p99 estimates
  /// extracted from the log-scale buckets.
  std::string toJson() const;

  /// Write toJson() to a file; false on I/O error.
  bool writeJson(const std::string &Path) const;

  /// Prometheus text exposition (version 0.0.4). Metric names gain a
  /// `genprove_` prefix and dots become underscores; a `{key="value"}`
  /// suffix on the registry name (see labeledMetricName in snapshot.h)
  /// is re-emitted as Prometheus labels. Histograms use cumulative
  /// `le`-labeled buckets plus `_sum`/`_count` series.
  std::string toPrometheus() const;

  /// Write toPrometheus() to a file; false on I/O error.
  bool writePrometheus(const std::string &Path) const;

private:
  MetricsRegistry() = default;

  mutable std::mutex Mu;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// Quantile estimate (Q in [0,1]) from log-scale histogram buckets.
/// Walks the cumulative counts to the bucket holding rank ceil(Q*Count)
/// and interpolates linearly inside it, clamping the bucket bounds to
/// the recorded [min, max] sample range so the estimate never leaves the
/// observed data. Edge contract (pinned by tests; every percentile, live
/// or folded in from a worker snapshot, routes through this function):
///   * Count <= 0 (empty histogram)          -> NaN
///   * rank lands among non-finite samples
///     (e.g. all mass in the +inf overflow
///     bucket, or a recorded -inf)           -> that infinity, verbatim
///   * mixed edge bucket whose clamped lower
///     bound stays non-finite                -> the bucket's finite upper
///                                              edge (no interpolation)
///   * single occupied bucket with Lo == Hi  -> that value exactly
///   * bucket totals short of Count (torn
///     concurrent snapshot)                  -> max sample (NaN if none)
double quantileFromBuckets(const int64_t *Buckets, int NumBuckets,
                           int64_t Count, double MinSample, double MaxSample,
                           double Q);

/// Convenience overload reading a live histogram.
double histogramQuantile(const Histogram &H, double Q);

} // namespace genprove

#endif // GENPROVE_OBS_METRICS_H
