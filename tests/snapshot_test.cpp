//===- tests/snapshot_test.cpp - metrics snapshot/fold tests ----*- C++ -*-===//
//
// The cross-process telemetry plane: snapshot capture, the registry fold
// the shard supervisor merges worker telemetry with (counter sums, gauge
// policies, bucket-wise histograms, independent of fold order and
// grouping), percentiles of folded histograms, the bit-exact JSON wire
// format, and the acceptance differential "merged counter totals equal
// the sum of per-worker values".
//
//===----------------------------------------------------------------------===//

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace genprove {
namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Saves/restores the metrics switch and resets the global registry, so
/// fold tests cannot leak state into the rest of the suite.
class SnapshotTest : public ::testing::Test {
protected:
  void SetUp() override {
    WasMetrics = metricsEnabled();
    MetricsRegistry::global().reset();
  }
  void TearDown() override {
    setMetricsEnabled(WasMetrics);
    MetricsRegistry::global().reset();
  }

private:
  bool WasMetrics = false;
};

/// The fold tests' suites: each starts and ends with a reset registry.
class SnapshotMerge : public SnapshotTest {};
class SnapshotPercentile : public SnapshotTest {};
class SnapshotJson : public SnapshotTest {};

/// A deterministic pseudo-worker snapshot: counters, gauges of each merge
/// class, and a histogram fed from a seeded RNG, recorded live and
/// captured the way a shard worker ships them. Leaves the global registry
/// reset.
MetricsSnapshot makeWorkerSnapshot(uint64_t Seed, int NumSamples) {
  MetricsRegistry &Reg = MetricsRegistry::global();
  Reg.reset();
  setMetricsEnabled(true);
  Rng R(Seed);
  Reg.counter("propagate.splits").add(static_cast<int64_t>(Seed) * 11 + 3);
  Reg.counter("shard.restarts").add(static_cast<int64_t>(Seed % 3));
  Reg.gauge("device.peak_bytes")
      .setMax(1000.0 * static_cast<double>(Seed + 1));
  Reg.gauge("pool.busy_seconds").add(0.25 * static_cast<double>(Seed + 1));
  Reg.gauge("pool.threads").set(static_cast<double>(Seed + 2));
  Histogram &H = Reg.histogram("propagate.layer_seconds");
  for (int I = 0; I < NumSamples; ++I)
    H.record(std::exp(R.normal(0.0, 2.0))); // lognormal spans many buckets
  MetricsSnapshot S = MetricsSnapshot::capture(Reg);
  Reg.reset();
  return S;
}

/// Fold \p Parts, in order, into the reset global registry the way the
/// supervisor folds worker results, and capture what it then holds.
MetricsSnapshot foldAll(std::initializer_list<const MetricsSnapshot *> Parts) {
  MetricsRegistry &Reg = MetricsRegistry::global();
  Reg.reset();
  for (const MetricsSnapshot *Part : Parts)
    foldIntoRegistry(Reg, *Part);
  return MetricsSnapshot::capture(Reg);
}

/// A worker histogram of \p Samples, folded into the reset registry: the
/// histogram a percentile of shipped telemetry reads.
const Histogram &foldedHistogram(const std::vector<double> &Samples) {
  MetricsRegistry &Reg = MetricsRegistry::global();
  Reg.reset();
  setMetricsEnabled(true);
  Histogram &H = Reg.histogram("test.latency");
  for (double V : Samples)
    H.record(V);
  const MetricsSnapshot Worker = MetricsSnapshot::capture(Reg);
  Reg.reset();
  foldIntoRegistry(Reg, Worker);
  return H;
}

/// The coordinator's decode of a shipped snapshot.
bool decodeSnapshot(const std::string &Text, MetricsSnapshot &Out,
                    std::string *Error) {
  JsonValue V;
  return parseJson(Text, V, Error) && MetricsSnapshot::fromJson(V, Out, Error);
}

bool histogramsEqual(const HistogramSnapshot &A, const HistogramSnapshot &B) {
  // Bit-exact comparison: empty-histogram sentinels are +-inf, so compare
  // through memcmp-style equality that treats -0.0/0.0 as different only
  // if the bits differ. Plain == suffices here (no NaN stats by
  // construction: Histogram::record skips NaN for min/max).
  if (A.Count != B.Count || A.Buckets != B.Buckets)
    return false;
  const auto SameBits = [](double X, double Y) {
    return std::memcmp(&X, &Y, sizeof(double)) == 0;
  };
  return SameBits(A.Sum, B.Sum) && SameBits(A.Min, B.Min) &&
         SameBits(A.Max, B.Max);
}

bool snapshotsEqual(const MetricsSnapshot &A, const MetricsSnapshot &B) {
  if (A.Counters != B.Counters)
    return false;
  if (A.Gauges.size() != B.Gauges.size() ||
      A.Histograms.size() != B.Histograms.size())
    return false;
  for (const auto &[Name, V] : A.Gauges) {
    auto It = B.Gauges.find(Name);
    if (It == B.Gauges.end() ||
        std::memcmp(&V, &It->second, sizeof(double)) != 0)
      return false;
  }
  for (const auto &[Name, H] : A.Histograms) {
    auto It = B.Histograms.find(Name);
    if (It == B.Histograms.end() || !histogramsEqual(H, It->second))
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Fold semantics
//===----------------------------------------------------------------------===//

TEST_F(SnapshotMerge, CountersSum) {
  MetricsSnapshot A, B;
  A.Counters["x"] = 3;
  B.Counters["x"] = 4;
  B.Counters["y"] = 7;
  const MetricsSnapshot Folded = foldAll({&A, &B});
  EXPECT_EQ(Folded.Counters.at("x"), 7);
  EXPECT_EQ(Folded.Counters.at("y"), 7);
}

TEST_F(SnapshotMerge, GaugePolicies) {
  EXPECT_EQ(gaugeMergePolicy("device.peak_bytes"), GaugeMerge::Max);
  EXPECT_EQ(gaugeMergePolicy("pool.busy_seconds"), GaugeMerge::Sum);
  EXPECT_EQ(gaugeMergePolicy("pool.threads"), GaugeMerge::Last);
  // The label suffix never changes the policy.
  EXPECT_EQ(gaugeMergePolicy("device.peak_bytes{shard=\"2\"}"),
            GaugeMerge::Max);
  EXPECT_EQ(gaugeMergePolicy("pool.busy_seconds{shard=\"0\"}"),
            GaugeMerge::Sum);

  MetricsSnapshot A, B;
  A.Gauges["device.peak_bytes"] = 100.0;
  B.Gauges["device.peak_bytes"] = 40.0; // below: max keeps 100
  A.Gauges["pool.busy_seconds"] = 1.5;
  B.Gauges["pool.busy_seconds"] = 2.0;
  A.Gauges["pool.threads"] = 4.0;
  B.Gauges["pool.threads"] = 2.0; // last-write-wins: folded last
  const MetricsSnapshot Folded = foldAll({&A, &B});
  EXPECT_EQ(Folded.Gauges.at("device.peak_bytes"), 100.0);
  EXPECT_EQ(Folded.Gauges.at("pool.busy_seconds"), 3.5);
  EXPECT_EQ(Folded.Gauges.at("pool.threads"), 2.0);
}

TEST_F(SnapshotMerge, HistogramMergeIsAssociativeAndCommutative) {
  const MetricsSnapshot W0 = makeWorkerSnapshot(1, 200);
  const MetricsSnapshot W1 = makeWorkerSnapshot(2, 150);
  const MetricsSnapshot W2 = makeWorkerSnapshot(3, 75);

  // (W0 + W1) + W2: one fold in worker order.
  const MetricsSnapshot L = foldAll({&W0, &W1, &W2});
  // W0 + (W1 + W2): W1 and W2 folded first, their total folded after W0.
  const MetricsSnapshot RInner = foldAll({&W1, &W2});
  const MetricsSnapshot Rt = foldAll({&W0, &RInner});
  EXPECT_TRUE(snapshotsEqual(L, Rt)) << "fold is not associative";

  // Commutativity holds for the histogram plane (bucket adds, min/max)
  // regardless of order; last-write-wins gauges are order-sensitive by
  // design, so compare histograms only.
  const MetricsSnapshot AB = foldAll({&W0, &W1});
  const MetricsSnapshot BA = foldAll({&W1, &W0});
  ASSERT_EQ(AB.Histograms.size(), BA.Histograms.size());
  for (const auto &[Name, H] : AB.Histograms)
    EXPECT_TRUE(histogramsEqual(H, BA.Histograms.at(Name))) << Name;
  EXPECT_EQ(AB.Counters, BA.Counters);
}

TEST_F(SnapshotMerge, MergingEmptyHistogramIsIdentity) {
  const MetricsSnapshot A = makeWorkerSnapshot(5, 64);
  MetricsSnapshot Empty;
  Empty.Histograms["propagate.layer_seconds"]; // all-zero snapshot
  const MetricsSnapshot Folded = foldAll({&A, &Empty});
  EXPECT_TRUE(histogramsEqual(Folded.Histograms.at("propagate.layer_seconds"),
                              A.Histograms.at("propagate.layer_seconds")));
}

//===----------------------------------------------------------------------===//
// Percentiles
//===----------------------------------------------------------------------===//

TEST_F(SnapshotPercentile, EmptyHistogramYieldsNaN) {
  EXPECT_TRUE(std::isnan(histogramQuantile(foldedHistogram({}), 0.5)));
}

TEST_F(SnapshotPercentile, SingleSampleIsItsOwnQuantile) {
  const Histogram &H = foldedHistogram({0.125});
  for (double Q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(histogramQuantile(H, Q), 0.125) << Q;
}

TEST_F(SnapshotPercentile, TracksExactQuantilesWithinBucketResolution) {
  // Log-2 buckets: the estimate must land within a factor of 2 of the
  // exact sample quantile (the bucket's own width), for several seeds.
  for (uint64_t Seed : {11u, 42u, 77u}) {
    Rng R(Seed);
    std::vector<double> Samples;
    for (int I = 0; I < 2000; ++I)
      Samples.push_back(std::exp(R.normal(-2.0, 1.5)));
    const Histogram &H = foldedHistogram(Samples);
    std::sort(Samples.begin(), Samples.end());
    for (double Q : {0.5, 0.9, 0.99}) {
      const size_t Rank = static_cast<size_t>(
          std::max<int64_t>(1, static_cast<int64_t>(std::ceil(
                                   Q * static_cast<double>(Samples.size())))));
      const double Exact = Samples[Rank - 1];
      const double Est = histogramQuantile(H, Q);
      EXPECT_GE(Est, Exact / 2.0) << "seed " << Seed << " q " << Q;
      EXPECT_LE(Est, Exact * 2.0) << "seed " << Seed << " q " << Q;
    }
  }
}

TEST_F(SnapshotPercentile, ClampsToObservedRange) {
  // Both samples share one bucket (2^1, 2^2]; interpolation must stay
  // inside the observed [2.5, 3.5], not the bucket's (2, 4].
  const Histogram &H = foldedHistogram({2.5, 3.5});
  for (double Q : {0.01, 0.5, 0.99}) {
    const double Est = histogramQuantile(H, Q);
    EXPECT_GE(Est, 2.5);
    EXPECT_LE(Est, 3.5);
  }
}

//===----------------------------------------------------------------------===//
// JSON wire format
//===----------------------------------------------------------------------===//

TEST_F(SnapshotJson, RoundTripIsBitExact) {
  MetricsSnapshot S = makeWorkerSnapshot(9, 300);
  // Awkward doubles that %.17g must preserve exactly.
  S.Gauges["awkward.third"] = 1.0 / 3.0;
  S.Gauges["awkward.tiny"] = 5e-324; // smallest subnormal
  S.Gauges["awkward.neg"] = -0.0;
  S.Histograms["empty.hist"]; // Min=+inf / Max=-inf sentinels

  const std::string Json = S.toJson();
  std::string Error;
  ASSERT_TRUE(validateJson(Json, &Error)) << Error;

  MetricsSnapshot Back;
  ASSERT_TRUE(decodeSnapshot(Json, Back, &Error)) << Error;
  EXPECT_TRUE(snapshotsEqual(S, Back));
  // The sentinels specifically: non-finite values must survive (the
  // generic JSON writer would have collapsed them to null).
  EXPECT_EQ(Back.Histograms.at("empty.hist").Min, Inf);
  EXPECT_EQ(Back.Histograms.at("empty.hist").Max, -Inf);
  // And a second encode is byte-identical (stable wire format).
  EXPECT_EQ(Back.toJson(), Json);
}

TEST_F(SnapshotJson, RejectsMalformedInput) {
  MetricsSnapshot Out;
  std::string Error;
  EXPECT_FALSE(decodeSnapshot("[]", Out, &Error));
  EXPECT_FALSE(decodeSnapshot(R"({"counters":{"a":"text"}})", Out, &Error));
  EXPECT_FALSE(decodeSnapshot(R"({"gauges":{"g":1.5}})", Out,
                              &Error)); // must be a string
  EXPECT_FALSE(decodeSnapshot(
      R"({"histograms":{"h":{"count":1,"sum":"1","min":"1","max":"1",)"
      R"("buckets":[[9999,1]]}}})",
      Out, &Error)); // bucket index out of range
  EXPECT_FALSE(Error.empty());
}

TEST_F(SnapshotJson, LabeledNamesSurviveTheWire) {
  EXPECT_EQ(labeledMetricName("a.b", "shard", "3"), "a.b{shard=\"3\"}");
  EXPECT_EQ(labeledMetricName("a.b{x=\"1\"}", "shard", "0"),
            "a.b{x=\"1\",shard=\"0\"}");

  MetricsSnapshot S;
  S.Counters["propagate.splits"] = 5;
  const MetricsSnapshot L = S.withLabel("shard", "2");
  EXPECT_EQ(L.Counters.count("propagate.splits{shard=\"2\"}"), 1u);

  MetricsSnapshot Back;
  ASSERT_TRUE(decodeSnapshot(L.toJson(), Back, nullptr));
  EXPECT_TRUE(snapshotsEqual(L, Back));
}

//===----------------------------------------------------------------------===//
// Registry fold (the supervisor's merge path)
//===----------------------------------------------------------------------===//

TEST_F(SnapshotTest, FoldedCounterTotalsEqualSumOfWorkers) {
  // The acceptance differential: fold N worker snapshots the way the
  // supervisor does (base names + a shard=<id> dimension) and assert the
  // merged totals equal the per-worker sum, with the fold working even
  // while the local metrics switch is off (absorb plane).
  const int NumWorkers = 4;
  std::vector<MetricsSnapshot> Workers;
  for (int Shard = 0; Shard < NumWorkers; ++Shard)
    Workers.push_back(
        makeWorkerSnapshot(static_cast<uint64_t>(Shard), 50 + 10 * Shard));
  setMetricsEnabled(false);
  MetricsRegistry &Reg = MetricsRegistry::global();

  int64_t ExpectSplits = 0, ExpectRestarts = 0, ExpectHistCount = 0;
  double ExpectBusy = 0.0, ExpectPeak = 0.0;
  for (int Shard = 0; Shard < NumWorkers; ++Shard) {
    const MetricsSnapshot &W = Workers[static_cast<size_t>(Shard)];
    ExpectSplits += W.Counters.at("propagate.splits");
    ExpectRestarts += W.Counters.at("shard.restarts");
    ExpectBusy += W.Gauges.at("pool.busy_seconds");
    ExpectPeak = std::max(ExpectPeak, W.Gauges.at("device.peak_bytes"));
    ExpectHistCount += W.Histograms.at("propagate.layer_seconds").Count;
    foldIntoRegistry(Reg, W);
    foldIntoRegistry(Reg, W.withLabel("shard", std::to_string(Shard)));
  }

  EXPECT_EQ(Reg.counter("propagate.splits").value(), ExpectSplits);
  EXPECT_EQ(Reg.counter("shard.restarts").value(), ExpectRestarts);
  EXPECT_EQ(Reg.gauge("pool.busy_seconds").value(), ExpectBusy);
  EXPECT_EQ(Reg.gauge("device.peak_bytes").value(), ExpectPeak);
  EXPECT_EQ(Reg.histogram("propagate.layer_seconds").count(),
            ExpectHistCount);

  // Base totals equal the sum over the labeled shard dimension.
  int64_t LabeledSum = 0;
  for (int Shard = 0; Shard < NumWorkers; ++Shard) {
    const Counter *C = Reg.findCounter(
        labeledMetricName("propagate.splits", "shard", std::to_string(Shard)));
    ASSERT_NE(C, nullptr);
    LabeledSum += C->value();
  }
  EXPECT_EQ(LabeledSum, ExpectSplits);
}

TEST_F(SnapshotTest, CaptureFoldRoundTripsThroughTheWire) {
  // Worker side: record live metrics, capture, encode. Coordinator side:
  // decode and fold into a fresh (reset) registry. Values must survive.
  setMetricsEnabled(true);
  MetricsRegistry &Reg = MetricsRegistry::global();
  Reg.counter("wire.counter").add(13);
  Reg.gauge("wire.peak_thing").setMax(7.25);
  Histogram &H = Reg.histogram("wire.hist");
  H.record(0.5);
  H.record(64.0);

  const std::string Json = MetricsSnapshot::capture(Reg).toJson();
  Reg.reset();
  EXPECT_EQ(Reg.counter("wire.counter").value(), 0);

  MetricsSnapshot Back;
  ASSERT_TRUE(decodeSnapshot(Json, Back, nullptr));
  foldIntoRegistry(Reg, Back);
  EXPECT_EQ(Reg.counter("wire.counter").value(), 13);
  EXPECT_EQ(Reg.gauge("wire.peak_thing").value(), 7.25);
  EXPECT_EQ(Reg.histogram("wire.hist").count(), 2);
  EXPECT_EQ(Reg.histogram("wire.hist").minSample(), 0.5);
  EXPECT_EQ(Reg.histogram("wire.hist").maxSample(), 64.0);
  EXPECT_EQ(Reg.histogram("wire.hist").total(), 64.5);
}

//===----------------------------------------------------------------------===//
// Prometheus exposition
//===----------------------------------------------------------------------===//

TEST_F(SnapshotTest, PrometheusExpositionShape) {
  setMetricsEnabled(true);
  MetricsRegistry &Reg = MetricsRegistry::global();
  Reg.counter("prom.splits").add(4);
  Reg.counter(labeledMetricName("prom.splits", "shard", "1")).add(4);
  Reg.gauge("prom.peak_bytes").setMax(2048.0);
  Histogram &H = Reg.histogram("prom.seconds");
  H.record(0.25);
  H.record(1.0);

  const std::string Text = Reg.toPrometheus();
  // Names gain the prefix, dots become underscores, labels re-emit.
  EXPECT_NE(Text.find("# TYPE genprove_prom_splits counter"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("genprove_prom_splits 4"), std::string::npos);
  EXPECT_NE(Text.find("genprove_prom_splits{shard=\"1\"} 4"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE genprove_prom_peak_bytes gauge"),
            std::string::npos);
  // Histograms: cumulative buckets, a +Inf bucket, _sum and _count.
  EXPECT_NE(Text.find("# TYPE genprove_prom_seconds histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("genprove_prom_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("genprove_prom_seconds_sum 1.25"), std::string::npos);
  EXPECT_NE(Text.find("genprove_prom_seconds_count 2"), std::string::npos);
  // One TYPE line per base family, even with the labeled sibling.
  size_t First = Text.find("# TYPE genprove_prom_splits counter");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Text.find("# TYPE genprove_prom_splits counter", First + 1),
            std::string::npos);
}

} // namespace
} // namespace genprove
