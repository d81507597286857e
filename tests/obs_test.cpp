//===- tests/obs_test.cpp - observability layer unit tests ------*- C++ -*-===//

#include "src/domains/propagate.h"
#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/obs/json.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <unistd.h>

namespace genprove {
namespace {

/// Saves and restores the global metrics/trace/log switches so obs tests
/// cannot leak an enabled flag into the timing-sensitive rest of the suite.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    WasMetrics = metricsEnabled();
    WasTrace = traceEnabled();
    WasLog = logEnabled();
    MetricsRegistry::global().reset();
    TraceSession::global().clear();
    EventLog::global().clear();
  }
  void TearDown() override {
    setMetricsEnabled(WasMetrics);
    setTraceEnabled(WasTrace);
    setLogEnabled(WasLog);
    MetricsRegistry::global().reset();
    TraceSession::global().clear();
    EventLog::global().clear();
  }

private:
  bool WasMetrics = false;
  bool WasTrace = false;
  bool WasLog = false;
};

//===----------------------------------------------------------------------===//
// JsonWriter / validateJson
//===----------------------------------------------------------------------===//

TEST(Json, WriterNestsAndSeparates) {
  JsonWriter W;
  W.beginObject();
  W.key("a").value(int64_t(1));
  W.key("b").beginArray().value(2.5).value("x").value(true).nullValue();
  W.endArray();
  W.key("c").beginObject().key("d").value(int64_t(-3)).endObject();
  W.endObject();
  EXPECT_EQ(W.str(), R"({"a":1,"b":[2.5,"x",true,null],"c":{"d":-3}})");
  EXPECT_TRUE(validateJson(W.str()));
}

TEST(Json, WriterEscapesStrings) {
  JsonWriter W;
  W.beginObject().key("s").value("a\"b\\c\nd\te\x01").endObject();
  EXPECT_EQ(W.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
  EXPECT_TRUE(validateJson(W.str()));
}

TEST(Json, WriterTurnsNonFiniteIntoNull) {
  JsonWriter W;
  W.beginArray();
  W.value(std::numeric_limits<double>::infinity());
  W.value(-std::numeric_limits<double>::infinity());
  W.value(std::numeric_limits<double>::quiet_NaN());
  W.value(1.5);
  W.endArray();
  EXPECT_EQ(W.str(), "[null,null,null,1.5]");
  EXPECT_TRUE(validateJson(W.str()));
}

TEST(Json, WriterRawSplicesVerbatim) {
  JsonWriter Inner;
  Inner.beginObject().key("k").value(int64_t(7)).endObject();
  JsonWriter W;
  W.beginObject().key("nested").raw(Inner.str()).key("after").value(true);
  W.endObject();
  EXPECT_EQ(W.str(), R"({"nested":{"k":7},"after":true})");
  EXPECT_TRUE(validateJson(W.str()));
}

TEST(Json, ValidatorAcceptsCornerCases) {
  EXPECT_TRUE(validateJson("null"));
  EXPECT_TRUE(validateJson("  [ ]  "));
  EXPECT_TRUE(validateJson("{}"));
  EXPECT_TRUE(validateJson("-1.5e-3"));
  EXPECT_TRUE(validateJson(R"("é\n")"));
}

TEST(Json, ValidatorRejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(validateJson("", &Error));
  EXPECT_FALSE(validateJson("{", &Error));
  EXPECT_FALSE(validateJson("[1,]", &Error));
  EXPECT_FALSE(validateJson("{\"a\":1,}", &Error));
  EXPECT_FALSE(validateJson("{\"a\" 1}", &Error));
  EXPECT_FALSE(validateJson("\"unterminated", &Error));
  EXPECT_FALSE(validateJson("\"bad \\q escape\"", &Error));
  EXPECT_FALSE(validateJson("\"bad \\u12 hex\"", &Error));
  EXPECT_FALSE(validateJson("01", &Error));
  EXPECT_FALSE(validateJson("nul", &Error));
  EXPECT_FALSE(validateJson("{} trailing", &Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, DisabledMetricsDoNotMutate) {
  setMetricsEnabled(false);
  Counter &C = MetricsRegistry::global().counter("test.disabled");
  Gauge &G = MetricsRegistry::global().gauge("test.disabled_gauge");
  Histogram &H = MetricsRegistry::global().histogram("test.disabled_hist");
  C.add(5);
  G.set(3.0);
  G.setMax(9.0);
  H.record(1.0);
  EXPECT_EQ(C.value(), 0);
  EXPECT_EQ(G.value(), 0.0);
  EXPECT_EQ(H.count(), 0);
  EXPECT_EQ(H.total(), 0.0);
}

TEST_F(ObsTest, CounterAndGaugeAccumulate) {
  setMetricsEnabled(true);
  Counter &C = MetricsRegistry::global().counter("test.counter");
  C.add();
  C.add(4);
  EXPECT_EQ(C.value(), 5);
  // counter() returns the same object for the same name.
  EXPECT_EQ(&C, &MetricsRegistry::global().counter("test.counter"));

  Gauge &G = MetricsRegistry::global().gauge("test.gauge");
  G.set(2.0);
  G.setMax(1.0); // below current: keeps 2.0
  EXPECT_EQ(G.value(), 2.0);
  G.setMax(7.5);
  EXPECT_EQ(G.value(), 7.5);
}

TEST_F(ObsTest, FindDoesNotCreate) {
  EXPECT_EQ(MetricsRegistry::global().findCounter("never.touched"), nullptr);
  EXPECT_EQ(MetricsRegistry::global().findGauge("never.touched"), nullptr);
  EXPECT_EQ(MetricsRegistry::global().findHistogram("never.touched"), nullptr);
  MetricsRegistry::global().counter("now.exists");
  EXPECT_NE(MetricsRegistry::global().findCounter("now.exists"), nullptr);
}

TEST_F(ObsTest, HistogramEdgeSamples) {
  setMetricsEnabled(true);
  Histogram &H = MetricsRegistry::global().histogram("test.edges");
  const double Inf = std::numeric_limits<double>::infinity();
  H.record(0.0);  // nonpositive edge bucket
  H.record(-3.0); // nonpositive edge bucket
  H.record(Inf);  // overflow edge bucket
  H.record(std::numeric_limits<double>::quiet_NaN()); // counted, no min/max
  H.record(1.0);

  EXPECT_EQ(H.count(), 5);
  EXPECT_EQ(H.bucketCount(0), 3); // 0, -3 and NaN
  EXPECT_EQ(H.bucketCount(Histogram::NumBuckets - 1), 1);
  // The sum only accumulates finite samples; min/max skip NaN.
  EXPECT_EQ(H.total(), -2.0);
  EXPECT_EQ(H.minSample(), -3.0);
  EXPECT_EQ(H.maxSample(), Inf);
}

TEST_F(ObsTest, HistogramBucketIndexBoundaries) {
  // Buckets are (2^(e-1), 2^e]: an exact power of two lands in the bucket
  // it closes, and the next representable value above it in the next one.
  EXPECT_EQ(Histogram::bucketIndex(1.0), Histogram::bucketIndex(0.75));
  EXPECT_NE(Histogram::bucketIndex(1.0), Histogram::bucketIndex(1.5));
  EXPECT_EQ(Histogram::bucketIndex(2.0), Histogram::bucketIndex(1.5));
  EXPECT_EQ(Histogram::bucketIndex(4.0), Histogram::bucketIndex(3.0));
  // Tiny and huge finite values clamp to the covered range's ends.
  EXPECT_EQ(Histogram::bucketIndex(1e-300), 1);
  EXPECT_EQ(Histogram::bucketIndex(1e300), Histogram::NumBuckets - 1);

  // Bounds are contiguous: every bucket's Hi is the next bucket's Lo.
  for (int I = 1; I + 1 < Histogram::NumBuckets; ++I) {
    const auto B = Histogram::bucketBounds(I);
    const auto NextB = Histogram::bucketBounds(I + 1);
    EXPECT_LT(B.Lo, B.Hi);
    EXPECT_EQ(B.Hi, NextB.Lo) << "bucket " << I;
  }
  // A sample sits inside the bounds of its own bucket.
  for (double V : {1e-9, 0.02, 0.5, 1.0, 3.0, 1234.5}) {
    const auto B = Histogram::bucketBounds(Histogram::bucketIndex(V));
    EXPECT_GT(V, B.Lo) << V;
    EXPECT_LE(V, B.Hi) << V;
  }
}

TEST_F(ObsTest, RegistryJsonSnapshotIsValid) {
  setMetricsEnabled(true);
  MetricsRegistry::global().counter("snap.counter").add(3);
  MetricsRegistry::global().gauge("snap.gauge").set(1.25);
  Histogram &H = MetricsRegistry::global().histogram("snap.hist");
  H.record(0.5);
  H.record(2.0);

  const std::string Json = MetricsRegistry::global().toJson();
  std::string Error;
  EXPECT_TRUE(validateJson(Json, &Error)) << Error << "\n" << Json;
  EXPECT_NE(Json.find("\"snap.counter\":3"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"snap.gauge\""), std::string::npos);
  EXPECT_NE(Json.find("\"snap.hist\""), std::string::npos);
  EXPECT_NE(Json.find("\"buckets\""), std::string::npos);
}

TEST_F(ObsTest, ResetZeroesEverything) {
  setMetricsEnabled(true);
  Counter &C = MetricsRegistry::global().counter("reset.counter");
  Histogram &H = MetricsRegistry::global().histogram("reset.hist");
  C.add(9);
  H.record(1.0);
  MetricsRegistry::global().reset();
  EXPECT_EQ(C.value(), 0);
  EXPECT_EQ(H.count(), 0);
  EXPECT_EQ(H.total(), 0.0);
  EXPECT_EQ(H.minSample(), std::numeric_limits<double>::infinity());
}

//===----------------------------------------------------------------------===//
// Tracing spans
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  setTraceEnabled(false);
  {
    GENPROVE_SPAN("outer");
    GENPROVE_SPAN("inner");
  }
  EXPECT_EQ(TraceSession::global().eventCount(), 0u);
}

TEST_F(ObsTest, SpansNestAndRecordDepth) {
  setTraceEnabled(true);
  {
    GENPROVE_SPAN("outer");
    {
      GENPROVE_SPAN("middle");
      { GENPROVE_SPAN("leaf"); }
    }
    { GENPROVE_SPAN("sibling"); }
  }
  const std::vector<TraceEvent> Events = TraceSession::global().events();
  ASSERT_EQ(Events.size(), 4u);
  // Spans are recorded when they close: innermost first.
  EXPECT_EQ(Events[0].Name, "leaf");
  EXPECT_EQ(Events[0].Depth, 2u);
  EXPECT_EQ(Events[1].Name, "middle");
  EXPECT_EQ(Events[1].Depth, 1u);
  EXPECT_EQ(Events[2].Name, "sibling");
  EXPECT_EQ(Events[2].Depth, 1u);
  EXPECT_EQ(Events[3].Name, "outer");
  EXPECT_EQ(Events[3].Depth, 0u);

  const TraceEvent &Outer = Events[3];
  for (size_t I = 0; I < 3; ++I) {
    // Children start no earlier and fit inside the parent's window.
    EXPECT_GE(Events[I].StartUs, Outer.StartUs);
    EXPECT_LE(Events[I].StartUs + Events[I].DurUs, Outer.StartUs + Outer.DurUs);
    EXPECT_EQ(Events[I].Tid, Outer.Tid);
  }
  // Self time never exceeds wall-clock time.
  for (const TraceEvent &E : Events)
    EXPECT_LE(E.SelfUs, E.DurUs + 1) << E.Name; // +1 for rounding
}

TEST_F(ObsTest, ChromeTraceJsonIsValid) {
  setTraceEnabled(true);
  {
    GENPROVE_SPAN("quoted \"name\"");
    GENPROVE_SPAN("inner");
  }
  const std::string Json = TraceSession::global().toChromeJson();
  std::string Error;
  EXPECT_TRUE(validateJson(Json, &Error)) << Error << "\n" << Json;
  EXPECT_EQ(Json.front(), '[');
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"quoted \\\"name\\\"\""), std::string::npos);
  EXPECT_NE(Json.find("\"self_us\""), std::string::npos);
}

TEST_F(ObsTest, ClearDropsEventsAndRestartsEpoch) {
  setTraceEnabled(true);
  { GENPROVE_SPAN("before_clear"); }
  EXPECT_EQ(TraceSession::global().eventCount(), 1u);
  TraceSession::global().clear();
  EXPECT_EQ(TraceSession::global().eventCount(), 0u);
  EXPECT_TRUE(validateJson(TraceSession::global().toChromeJson()));
}

//===----------------------------------------------------------------------===//
// Trace process lanes (cross-process splice support)
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, TraceEventsCarryTheirProcessLane) {
  setTraceEnabled(true);
  { GENPROVE_SPAN("coordinator_work"); }
  // Simulate the supervisor splicing a worker event into lane pid=3.
  TraceEvent Worker;
  Worker.Name = "worker_work";
  Worker.StartUs = 10;
  Worker.DurUs = 5;
  Worker.SelfUs = 5;
  Worker.Pid = 3;
  TraceSession::global().record(Worker);
  TraceSession::global().setProcessLabel(0, "coordinator");
  TraceSession::global().setProcessLabel(3, "shard 2");

  const std::string Json = TraceSession::global().toChromeJson();
  std::string Error;
  ASSERT_TRUE(validateJson(Json, &Error)) << Error << "\n" << Json;
  // Default lane 0 for in-process spans, lane 3 for the spliced event.
  EXPECT_NE(Json.find("\"pid\":0"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"pid\":3"), std::string::npos) << Json;
  // process_name metadata events label the lanes.
  EXPECT_NE(Json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(Json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(Json.find("\"shard 2\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Structured event log
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, EventLogJsonlIsValidAndMonotonic) {
  setLogEnabled(true);
  EventLog &Log = EventLog::global();
  Log.setRunId("test-run");
  Log.emit(LogLevel::Info, "run.start", {{"shards", int64_t(2)}});
  Log.emit(LogLevel::Warn, "shard.retry",
           {{"shard", int64_t(1)},
            {"backoff_s", 0.25},
            {"rung", "resilient"},
            {"fatal", false}});
  Log.emit(LogLevel::Error, "shard.exhausted", {{"shard", int64_t(1)}});

  const std::string Jsonl = Log.toJsonl();
  std::istringstream In(Jsonl);
  std::string Line;
  uint64_t LastTs = 0;
  size_t NumLines = 0;
  while (std::getline(In, Line)) {
    ++NumLines;
    std::string Error;
    ASSERT_TRUE(validateJson(Line, &Error)) << Error << "\n" << Line;
    JsonValue V;
    ASSERT_TRUE(parseJson(Line, V, &Error)) << Error;
    // Required schema fields on every line.
    ASSERT_NE(V.find("ts_us"), nullptr);
    ASSERT_NE(V.find("level"), nullptr);
    ASSERT_NE(V.find("event"), nullptr);
    ASSERT_NE(V.find("shard"), nullptr);
    EXPECT_EQ(V.find("run")->stringOr(""), "test-run");
    const uint64_t Ts = static_cast<uint64_t>(V.find("ts_us")->intOr(-1));
    EXPECT_GE(Ts, LastTs); // monotonic timestamps
    LastTs = Ts;
  }
  EXPECT_EQ(NumLines, 3u);
  // Field payloads render with their native JSON types.
  EXPECT_NE(Jsonl.find("\"backoff_s\":0.25"), std::string::npos) << Jsonl;
  EXPECT_NE(Jsonl.find("\"rung\":\"resilient\""), std::string::npos);
  EXPECT_NE(Jsonl.find("\"fatal\":false"), std::string::npos);
  EXPECT_NE(Jsonl.find("\"level\":\"warn\""), std::string::npos);
}

TEST_F(ObsTest, SplicedRecordsKeepTheirShardAndTimestamp) {
  setLogEnabled(true);
  EventLog &Log = EventLog::global();
  Log.setShard(-1);
  Log.emit(LogLevel::Info, "coordinator.event");

  LogRecord Worker;
  Worker.TsUs = 12345;
  Worker.Level = LogLevel::Warn;
  Worker.Shard = 2;
  Worker.Event = "propagate.rollback";
  Worker.Fields.push_back({"layer", LogValue(int64_t(4))});
  Log.splice(Worker);

  const auto Records = Log.records();
  ASSERT_EQ(Records.size(), 2u);
  EXPECT_EQ(Records[0].Shard, -1);
  EXPECT_EQ(Records[1].Shard, 2);
  EXPECT_EQ(Records[1].TsUs, 12345u); // worker's own clock, not re-stamped
  EXPECT_EQ(Records[1].Event, "propagate.rollback");
}

TEST_F(ObsTest, CapacityRingEvictsOldestAndCountsDrops) {
  setLogEnabled(true);
  EventLog &Log = EventLog::global();
  Log.setCapacity(4);
  for (int I = 0; I < 10; ++I)
    Log.emit(LogLevel::Info, "ring.tick", {{"i", int64_t(I)}});
  const std::vector<LogRecord> Records = Log.records();
  ASSERT_EQ(Records.size(), 4u);
  EXPECT_EQ(Log.droppedRecords(), 6u);
  // The survivors are the newest four, in order.
  for (size_t I = 0; I < Records.size(); ++I) {
    ASSERT_EQ(Records[I].Fields.size(), 1u);
    EXPECT_EQ(Records[I].Fields[0].second.I, int64_t(6 + I));
  }
  // Shrinking below the live count evicts immediately.
  Log.setCapacity(2);
  EXPECT_EQ(Log.records().size(), 2u);
  EXPECT_EQ(Log.droppedRecords(), 8u);
  Log.setCapacity(0); // the global's default; don't leak a bound
}

TEST_F(ObsTest, AppendFlushEmitsEachRecordExactlyOnce) {
  setLogEnabled(true);
  EventLog &Log = EventLog::global();
  Log.setCapacity(3);
  const std::string Path =
      "/tmp/genprove-obs-append-" + std::to_string(::getpid()) + ".jsonl";

  auto CountLines = [&Path]() {
    std::ifstream In(Path);
    size_t N = 0;
    std::string Line;
    while (std::getline(In, Line))
      if (!Line.empty())
        ++N;
    return N;
  };

  // First flush truncates and writes everything buffered so far.
  Log.emit(LogLevel::Info, "append.a");
  Log.emit(LogLevel::Info, "append.b");
  ASSERT_TRUE(Log.appendJsonl(Path));
  EXPECT_EQ(CountLines(), 2u);

  // Re-flushing with nothing new is idempotent: no duplicate lines.
  ASSERT_TRUE(Log.appendJsonl(Path));
  EXPECT_EQ(CountLines(), 2u);

  // New records append incrementally — even ones the capacity ring has
  // already evicted from memory by flush time stay in the file exactly
  // once, because the cursor tracks sequence numbers, not buffer slots.
  for (int I = 0; I < 5; ++I)
    Log.emit(LogLevel::Info, "append.more", {{"i", int64_t(I)}});
  ASSERT_TRUE(Log.appendJsonl(Path));
  // Of the 5 new records only the last 3 survived the ring; the flushed
  // file gains exactly those 3 (the evicted 2 were never written and are
  // counted in droppedRecords()).
  EXPECT_EQ(CountLines(), 5u);
  EXPECT_GE(Log.droppedRecords(), 2u);

  // writeJsonl (the one-shot whole-buffer path) stays untouched by the
  // append cursor: a fresh full write sees the current window.
  ASSERT_TRUE(Log.appendJsonl(Path));
  EXPECT_EQ(CountLines(), 5u); // still idempotent after the burst

  // A new path restarts the cursor with truncation semantics.
  const std::string Path2 = Path + ".second";
  ASSERT_TRUE(Log.appendJsonl(Path2));
  {
    std::ifstream In(Path2);
    size_t N = 0;
    std::string Line;
    while (std::getline(In, Line))
      if (!Line.empty())
        ++N;
    EXPECT_EQ(N, 3u); // exactly the live window
  }

  Log.setCapacity(0);
  std::remove(Path.c_str());
  std::remove(Path2.c_str());
}

TEST_F(ObsTest, FlushGuardWritesEveryConfiguredArtifact) {
  setMetricsEnabled(true);
  setTraceEnabled(true);
  setLogEnabled(true);
  MetricsRegistry::global().counter("flush.counter").add(1);
  { GENPROVE_SPAN("flush_span"); }
  EventLog::global().emit(LogLevel::Info, "flush.event");

  const std::string Dir = ::testing::TempDir();
  ObsFlushGuard::Paths P;
  P.Trace = Dir + "/obs_flush_trace.json";
  P.Metrics = Dir + "/obs_flush_metrics.json";
  P.Prom = Dir + "/obs_flush.prom";
  P.Log = Dir + "/obs_flush.jsonl";
  ObsFlushGuard::configure(P);
  { ObsFlushGuard Guard; } // dtor flushes

  const auto Slurp = [](const std::string &Path) {
    std::ifstream In(Path);
    std::ostringstream Out;
    Out << In.rdbuf();
    return Out.str();
  };
  const std::string Trace = Slurp(P.Trace);
  const std::string Metrics = Slurp(P.Metrics);
  const std::string Prom = Slurp(P.Prom);
  const std::string Log = Slurp(P.Log);
  EXPECT_TRUE(validateJson(Trace)) << Trace;
  EXPECT_NE(Trace.find("flush_span"), std::string::npos);
  EXPECT_TRUE(validateJson(Metrics)) << Metrics;
  EXPECT_NE(Metrics.find("flush.counter"), std::string::npos);
  EXPECT_NE(Prom.find("genprove_flush_counter 1"), std::string::npos) << Prom;
  EXPECT_TRUE(validateJson(Log)) << Log; // single line = one JSON object
  EXPECT_NE(Log.find("\"event\":\"flush.event\""), std::string::npos);

  // Unconfigure so no later guard rewrites these files.
  ObsFlushGuard::configure(ObsFlushGuard::Paths());
  for (const std::string &Path : {P.Trace, P.Metrics, P.Prom, P.Log})
    std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Per-layer telemetry
//===----------------------------------------------------------------------===//

Sequential makeMlp(Rng &R) {
  Sequential Net;
  auto L1 = std::make_unique<Linear>(4, 12);
  L1->weight() = Tensor::randn({12, 4}, R, 0.8);
  L1->bias() = Tensor::randn({12}, R, 0.5);
  Net.add(std::move(L1));
  Net.add(std::make_unique<ReLU>());
  auto L2 = std::make_unique<Linear>(12, 8);
  L2->weight() = Tensor::randn({8, 12}, R, 0.8);
  L2->bias() = Tensor::randn({8}, R, 0.5);
  Net.add(std::move(L2));
  Net.add(std::make_unique<ReLU>());
  auto L3 = std::make_unique<Linear>(8, 3);
  L3->weight() = Tensor::randn({3, 8}, R, 0.8);
  L3->bias() = Tensor::randn({3}, R, 0.5);
  Net.add(std::move(L3));
  return Net;
}

TEST_F(ObsTest, LayerTimelineProjectsToAggregates) {
  Rng R(424242);
  Sequential Net = makeMlp(R);
  const auto Layers = Net.view();
  const Shape InShape({1, 4});
  Tensor E1 = Tensor::randn({1, 4}, R);
  Tensor E2 = Tensor::randn({1, 4}, R);
  std::vector<Region> Init{makeSegmentRegion(E1, E2)};

  const PropagateConfig Config;
  DeviceMemoryModel Memory;
  PropagateStats Stats;
  const auto Final = propagateRegions(Layers, InShape, std::move(Init),
                                      Config, Memory, Stats);
  ASSERT_FALSE(Stats.OutOfMemory);
  ASSERT_FALSE(Final.empty());

  // One record per layer, in order.
  ASSERT_EQ(Stats.Layers.size(), Layers.size());
  for (size_t I = 0; I < Stats.Layers.size(); ++I) {
    EXPECT_EQ(Stats.Layers[I].Index, static_cast<int64_t>(I));
    EXPECT_STREQ(Stats.Layers[I].Kind,
                 layerKindName(Layers[I]->kind()));
  }

  // The aggregate stats are projections of the timeline.
  int64_t SumSplits = 0, SumBoxed = 0, MaxRegions = 0, MaxNodes = 0;
  for (const LayerRecord &Rec : Stats.Layers) {
    SumSplits += Rec.Splits;
    SumBoxed += Rec.Boxed;
    MaxRegions = std::max(MaxRegions, Rec.RegionsOut);
    MaxNodes = std::max(MaxNodes, Rec.NodesOut);
    EXPECT_GE(Rec.Seconds, 0.0);
  }
  EXPECT_EQ(SumSplits, Stats.NumSplits);
  EXPECT_EQ(SumBoxed, Stats.NumBoxed);
  EXPECT_EQ(MaxRegions, Stats.MaxRegions);
  EXPECT_EQ(MaxNodes, Stats.MaxNodes);
  EXPECT_EQ(Stats.OomLayer, -1);

  // Flows are contiguous across layers, and the charge is the output
  // state's device footprint.
  Shape CurShape = InShape;
  for (size_t I = 0; I < Stats.Layers.size(); ++I) {
    const LayerRecord &Rec = Stats.Layers[I];
    if (I > 0) {
      EXPECT_EQ(Rec.RegionsIn, Stats.Layers[I - 1].RegionsOut);
      EXPECT_EQ(Rec.NodesIn, Stats.Layers[I - 1].NodesOut);
    }
    if (Layers[I]->isAffine())
      CurShape = Layers[I]->outputShape(CurShape);
    EXPECT_EQ(Rec.ChargedBytes, static_cast<size_t>(Rec.NodesOut) *
                                    static_cast<size_t>(CurShape.numel()) *
                                    sizeof(double));
  }
}

TEST_F(ObsTest, PropagateFeedsRegisteredCounters) {
  setMetricsEnabled(true);
  MetricsRegistry::global().reset();

  Rng R(7);
  Sequential Net = makeMlp(R);
  Tensor E1 = Tensor::randn({1, 4}, R);
  Tensor E2 = Tensor::randn({1, 4}, R);
  std::vector<Region> Init{makeSegmentRegion(E1, E2)};
  const PropagateConfig Config;
  DeviceMemoryModel Memory;
  PropagateStats Stats;
  propagateRegions(Net.view(), Shape({1, 4}), std::move(Init), Config, Memory,
                   Stats);

  const Counter *Splits =
      MetricsRegistry::global().findCounter("propagate.splits");
  const Counter *Oom = MetricsRegistry::global().findCounter("propagate.oom");
  const Histogram *Seconds =
      MetricsRegistry::global().findHistogram("propagate.layer_seconds");
  ASSERT_NE(Splits, nullptr);
  ASSERT_NE(Oom, nullptr);
  ASSERT_NE(Seconds, nullptr);
  EXPECT_EQ(Splits->value(), Stats.NumSplits);
  EXPECT_EQ(Oom->value(), 0);
  EXPECT_EQ(Seconds->count(),
            static_cast<int64_t>(Stats.Layers.size()));
}

TEST_F(ObsTest, OomTimelineMarksTheFailingLayer) {
  // Known crossings at t = 0.25 and 0.75: the ReLU produces 3 pieces
  // (6 nodes x 2 dims x 8 bytes = 96 bytes), which cannot fit a 64-byte
  // budget, so the OOM deterministically hits layer 1.
  Sequential Net;
  auto L = std::make_unique<Linear>(1, 2);
  L->weight() = Tensor({2, 1}, {1.0, 1.0});
  L->bias() = Tensor({2}, {-0.25, -0.75});
  Net.add(std::move(L));
  Net.add(std::make_unique<ReLU>());

  Tensor E1({1, 1}, {0.0});
  Tensor E2({1, 1}, {1.0});
  std::vector<Region> Init{makeSegmentRegion(E1, E2)};
  PropagateConfig Config;
  DeviceMemoryModel Memory(64);
  PropagateStats Stats;
  const auto Final = propagateRegions(Net.view(), Shape({1, 1}),
                                      std::move(Init), Config, Memory, Stats);
  EXPECT_TRUE(Final.empty());
  ASSERT_TRUE(Stats.OutOfMemory);
  EXPECT_EQ(Stats.OomLayer, 1);
  // The timeline ends at the failing layer, with a partial record.
  ASSERT_EQ(Stats.Layers.size(), 2u);
  EXPECT_EQ(Stats.Layers.back().Index, Stats.OomLayer);
  EXPECT_STREQ(Stats.Layers.back().Kind, "ReLU");
}

TEST(QuantileFromBucketsTest, EdgeCases) {
  const int NB = Histogram::NumBuckets;
  std::vector<int64_t> Buckets(static_cast<size_t>(NB), 0);

  // Empty histogram: no answer to give.
  EXPECT_TRUE(std::isnan(
      quantileFromBuckets(Buckets.data(), NB, 0, 1.0, 2.0, 0.5)));

  // Torn concurrent snapshot (bucket totals short of Count): the largest
  // observed sample, not a crash or a fabricated bucket edge.
  EXPECT_EQ(quantileFromBuckets(Buckets.data(), NB, 10, 1.0, 7.0, 0.5), 7.0);
  EXPECT_TRUE(std::isnan(quantileFromBuckets(
      Buckets.data(), NB, 10, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(), 0.5)));

  // All mass in the +inf overflow bucket with genuinely infinite samples:
  // the honest quantile is the infinity itself.
  Buckets.assign(static_cast<size_t>(NB), 0);
  Buckets[static_cast<size_t>(NB - 1)] = 5;
  EXPECT_TRUE(std::isinf(quantileFromBuckets(
      Buckets.data(), NB, 5, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(), 0.5)));

  // Finite samples whose mass sits in the underflow bucket (-inf, 0]:
  // the sample-range clamp keeps the estimate finite and in-range.
  Buckets.assign(static_cast<size_t>(NB), 0);
  Buckets[0] = 4;
  const double Q0 = quantileFromBuckets(Buckets.data(), NB, 4, -3.0, 0.0, 0.5);
  EXPECT_TRUE(std::isfinite(Q0));
  EXPECT_GE(Q0, -3.0);
  EXPECT_LE(Q0, 0.0);

  // Out-of-range Q clamps instead of indexing past the data, and the
  // in-range answer stays within the observed sample range.
  Buckets.assign(static_cast<size_t>(NB), 0);
  Buckets[static_cast<size_t>(Histogram::bucketIndex(1.0))] += 1;
  Buckets[static_cast<size_t>(Histogram::bucketIndex(2.0))] += 1;
  Buckets[static_cast<size_t>(Histogram::bucketIndex(4.0))] += 1;
  EXPECT_EQ(quantileFromBuckets(Buckets.data(), NB, 3, 1.0, 4.0, 2.0),
            quantileFromBuckets(Buckets.data(), NB, 3, 1.0, 4.0, 1.0));
  EXPECT_EQ(quantileFromBuckets(Buckets.data(), NB, 3, 1.0, 4.0, -1.0),
            quantileFromBuckets(Buckets.data(), NB, 3, 1.0, 4.0, 0.0));
  const double Med = quantileFromBuckets(Buckets.data(), NB, 3, 1.0, 4.0, 0.5);
  EXPECT_GE(Med, 1.0);
  EXPECT_LE(Med, 4.0);
}

} // namespace
} // namespace genprove
