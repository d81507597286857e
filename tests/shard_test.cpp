//===- tests/shard_test.cpp - supervised shard execution -----------------===//
///
/// The shard layer end to end: partition properties, wire-protocol
/// round-trips, the retry/backoff/escalation scheduler on a fake clock,
/// the supervision loop against scripted worker failures (crash, hang,
/// heartbeat loss, exhaustion -> fallback), and the differential oracle —
/// a sharded run (one runShardAttempt per shard, merged) must produce the
/// same verdicts and (to float slack) the same bounds as the
/// single-process path, and a supervised run with injected faults must
/// still merge to an interval containing the fault-free one.

#include "src/core/genprove.h"
#include "src/domains/memory_model.h"
#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/obs/metrics.h"
#include "src/shard/protocol.h"
#include "src/shard/shard.h"
#include "src/shard/supervisor.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

namespace genprove {
namespace {

Sequential makeRandomMlp(Rng &R, const std::vector<int64_t> &Dims) {
  Sequential Net;
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.8);
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.5);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

/// [Lower, Upper] of \p Outer contains \p Inner (up to float slack).
void expectContains(const ProbBounds &Outer, const ProbBounds &Inner) {
  EXPECT_LE(Outer.Lower, Inner.Lower + 1e-9);
  EXPECT_GE(Outer.Upper, Inner.Upper - 1e-9);
}

// ---------------------------------------------------------------------------
// Partition properties.
// ---------------------------------------------------------------------------

TEST(ShardPlan, PartitionIsDisjointCoveringAndExact) {
  for (int64_t N : {1, 2, 3, 4, 7}) {
    const std::vector<ShardRange> Ranges = planShards(N);
    ASSERT_EQ(Ranges.size(), static_cast<size_t>(N));
    EXPECT_EQ(Ranges.front().T0, 0.0);
    EXPECT_EQ(Ranges.back().T1, 1.0);
    for (int64_t I = 0; I < N; ++I) {
      EXPECT_EQ(Ranges[static_cast<size_t>(I)].Index, I);
      EXPECT_LT(Ranges[static_cast<size_t>(I)].T0,
                Ranges[static_cast<size_t>(I)].T1);
    }
    // Shared cut points are the *same double* on both sides: no parameter
    // mass can fall through or be double-counted at a boundary.
    for (int64_t I = 0; I + 1 < N; ++I)
      EXPECT_EQ(Ranges[static_cast<size_t>(I)].T1,
                Ranges[static_cast<size_t>(I + 1)].T0);
  }
}

// ---------------------------------------------------------------------------
// Wire protocol.
// ---------------------------------------------------------------------------

TEST(ShardProtocol, ResultRoundTripsBitExactly) {
  ShardResult R;
  R.Shard = 3;
  R.Attempt = 2;
  R.Rung = 1;
  R.Seconds = 1.0 / 3.0;
  R.PeakBytes = 123456789;
  R.MaxRegions = 42;
  R.MaxNodes = 4242;
  R.Retries = 1;
  R.Rollbacks = 2;
  R.FallbackBoxLayers = 3;
  R.QuarantinedMass = 0.1; // not exactly representable: the %.17g test
  R.Degraded = true;
  R.DeadlineHit = true;
  R.OutOfMemory = false;
  ShardSpecBounds SB;
  SB.Lower = std::nextafter(0.25, 1.0); // an awkward ulp neighbour
  SB.Upper = 2.0 / 3.0;
  SB.Degraded = true;
  R.Specs.push_back(SB);
  SB.Lower = 0.0;
  SB.Upper = 1.0;
  SB.Degraded = false;
  R.Specs.push_back(SB);

  const std::string Line = encodeShardResult(R);
  EXPECT_EQ(classifyShardMessage(Line), ShardMessageKind::Result);

  ShardResult D;
  std::string Error;
  ASSERT_TRUE(decodeShardResult(Line, D, &Error)) << Error;
  EXPECT_EQ(D.Shard, R.Shard);
  EXPECT_EQ(D.Attempt, R.Attempt);
  EXPECT_EQ(D.Rung, R.Rung);
  // %.17g -> strtod is a bit-exact round trip for every finite double.
  EXPECT_EQ(D.Seconds, R.Seconds);
  EXPECT_EQ(D.QuarantinedMass, R.QuarantinedMass);
  EXPECT_EQ(D.PeakBytes, R.PeakBytes);
  EXPECT_EQ(D.MaxRegions, R.MaxRegions);
  EXPECT_EQ(D.MaxNodes, R.MaxNodes);
  EXPECT_EQ(D.Retries, R.Retries);
  EXPECT_EQ(D.Rollbacks, R.Rollbacks);
  EXPECT_EQ(D.FallbackBoxLayers, R.FallbackBoxLayers);
  EXPECT_EQ(D.Degraded, R.Degraded);
  EXPECT_EQ(D.DeadlineHit, R.DeadlineHit);
  EXPECT_EQ(D.OutOfMemory, R.OutOfMemory);
  ASSERT_EQ(D.Specs.size(), R.Specs.size());
  for (size_t I = 0; I < R.Specs.size(); ++I) {
    EXPECT_EQ(D.Specs[I].Lower, R.Specs[I].Lower);
    EXPECT_EQ(D.Specs[I].Upper, R.Specs[I].Upper);
    EXPECT_EQ(D.Specs[I].Degraded, R.Specs[I].Degraded);
  }
}

TEST(ShardProtocol, HeartbeatAndGarbageClassification) {
  const std::string Beat = encodeShardHeartbeat(5, 17);
  EXPECT_EQ(classifyShardMessage(Beat), ShardMessageKind::Heartbeat);
  EXPECT_EQ(classifyShardMessage("not json at all"),
            ShardMessageKind::Invalid);
  EXPECT_EQ(classifyShardMessage("{\"type\":\"mystery\"}"),
            ShardMessageKind::Invalid);
  ShardResult D;
  EXPECT_FALSE(decodeShardResult(Beat, D)); // a heartbeat is not a result
}

TEST(ShardProtocol, HeartbeatCarriesTheLivenessDigest) {
  const std::string Beat = encodeShardHeartbeat(2, 9, 1 << 20, 7);
  ShardHeartbeat H;
  ASSERT_TRUE(decodeShardHeartbeat(Beat, H));
  EXPECT_EQ(H.Shard, 2);
  EXPECT_EQ(H.Seq, 9);
  EXPECT_EQ(H.StateBytes, 1 << 20);
  EXPECT_EQ(H.Layer, 7);

  // The digest defaults to -1 ("unknown") and still round-trips.
  ShardHeartbeat Idle;
  ASSERT_TRUE(decodeShardHeartbeat(encodeShardHeartbeat(0, 0), Idle));
  EXPECT_EQ(Idle.StateBytes, -1);
  EXPECT_EQ(Idle.Layer, -1);
}

TEST(ShardProtocol, ResultCarriesTelemetrySections) {
  ShardResult R;
  R.Shard = 1;
  ShardSpecBounds SB;
  SB.Lower = 0.25;
  SB.Upper = 0.75;
  R.Specs.push_back(SB);

  ShardTelemetry Tel;
  Tel.HasMetrics = true;
  Tel.Metrics.Counters["propagate.splits"] = 12;
  Tel.Metrics.Gauges["device.peak_bytes"] = 4096.0;
  Tel.Metrics.Histograms["propagate.layer_seconds"].record(0.5);
  TraceEvent E;
  E.Name = "layer_0";
  E.StartUs = 100;
  E.DurUs = 50;
  E.SelfUs = 40;
  E.Tid = 1;
  E.Depth = 2;
  Tel.Trace.push_back(E);
  LogRecord L;
  L.TsUs = 777;
  L.Level = LogLevel::Warn;
  L.Shard = 1;
  L.Event = "propagate.rollback";
  L.Fields.push_back({"layer", LogValue(int64_t(3))});
  L.Fields.push_back({"mass", LogValue(0.125)});
  L.Fields.push_back({"rung", LogValue("resilient")});
  Tel.Log.push_back(L);

  const std::string Line = encodeShardResult(R, &Tel);
  EXPECT_EQ(classifyShardMessage(Line), ShardMessageKind::Result);

  ShardResult D;
  ShardTelemetry Back;
  std::string Error;
  ASSERT_TRUE(decodeShardResult(Line, D, &Error, &Back)) << Error;
  ASSERT_TRUE(Back.HasMetrics);
  EXPECT_EQ(Back.Metrics.Counters.at("propagate.splits"), 12);
  EXPECT_EQ(Back.Metrics.Gauges.at("device.peak_bytes"), 4096.0);
  EXPECT_EQ(Back.Metrics.Histograms.at("propagate.layer_seconds").Count, 1);
  ASSERT_EQ(Back.Trace.size(), 1u);
  EXPECT_EQ(Back.Trace[0].Name, "layer_0");
  EXPECT_EQ(Back.Trace[0].StartUs, 100u);
  EXPECT_EQ(Back.Trace[0].DurUs, 50u);
  EXPECT_EQ(Back.Trace[0].SelfUs, 40u);
  EXPECT_EQ(Back.Trace[0].Tid, 1u);
  EXPECT_EQ(Back.Trace[0].Depth, 2u);
  ASSERT_EQ(Back.Log.size(), 1u);
  EXPECT_EQ(Back.Log[0].TsUs, 777u);
  EXPECT_EQ(Back.Log[0].Level, LogLevel::Warn);
  EXPECT_EQ(Back.Log[0].Shard, 1);
  EXPECT_EQ(Back.Log[0].Event, "propagate.rollback");
  ASSERT_EQ(Back.Log[0].Fields.size(), 3u);
  EXPECT_EQ(Back.Log[0].Fields[0].second.I, 3);
  EXPECT_EQ(Back.Log[0].Fields[1].second.D, 0.125);
  EXPECT_EQ(Back.Log[0].Fields[2].second.S, "resilient");

  // A result without telemetry decodes to an empty section, and the old
  // decode signature still works against a telemetry-bearing line.
  ShardTelemetry None;
  ShardResult D2;
  ASSERT_TRUE(decodeShardResult(encodeShardResult(R), D2, nullptr, &None));
  EXPECT_TRUE(None.empty());
  ShardResult D3;
  EXPECT_TRUE(decodeShardResult(Line, D3));
  EXPECT_EQ(D3.Specs.size(), 1u);
}

// ---------------------------------------------------------------------------
// Scheduler: retry timing, rung escalation, exhaustion — on a fake clock,
// so every assertion is exact (satellite: deterministic scheduling tests).
// ---------------------------------------------------------------------------

TEST(ShardWire, FramerReassemblesLinesSplitAcrossFeeds) {
  LineFramer F(64);
  std::string Line;
  // A line arriving one byte at a time still comes out as a single frame.
  const std::string Msg = "{\"type\":\"ping\"}";
  for (char C : Msg) {
    F.feed(&C, 1);
    EXPECT_EQ(F.next(Line), LineFramer::Frame::None);
  }
  F.feed("\n", 1);
  ASSERT_EQ(F.next(Line), LineFramer::Frame::Line);
  EXPECT_EQ(Line, Msg);
  // Multiple lines in one read() are popped in order.
  const std::string Two = "alpha\nbeta\n";
  F.feed(Two.data(), Two.size());
  ASSERT_EQ(F.next(Line), LineFramer::Frame::Line);
  EXPECT_EQ(Line, "alpha");
  ASSERT_EQ(F.next(Line), LineFramer::Frame::Line);
  EXPECT_EQ(Line, "beta");
  EXPECT_EQ(F.next(Line), LineFramer::Frame::None);
  EXPECT_EQ(F.finish(), WireError::None);
}

TEST(ShardWire, OversizedLineIsDiscardedWithATypedMarkerInOrder) {
  LineFramer F(8);
  std::string Line;
  // ok, over-cap (streamed in chunks), ok — exactly one Oversized marker
  // appears between the two good frames, and the framer never buffers
  // more than the cap.
  F.feed("good\n", 5);
  const std::string Huge(1000, 'x');
  for (size_t I = 0; I < Huge.size(); I += 100)
    F.feed(Huge.data() + I, std::min<size_t>(100, Huge.size() - I));
  F.feed("\nalso\n", 6);
  ASSERT_EQ(F.next(Line), LineFramer::Frame::Line);
  EXPECT_EQ(Line, "good");
  EXPECT_EQ(F.next(Line), LineFramer::Frame::Oversized);
  ASSERT_EQ(F.next(Line), LineFramer::Frame::Line);
  EXPECT_EQ(Line, "also");
  EXPECT_EQ(F.oversizedLines(), 1u);
  EXPECT_EQ(F.finish(), WireError::None);
}

TEST(ShardWire, EofClassifiesTheStreamTail) {
  // Clean boundary.
  {
    LineFramer F(64);
    F.feed("done\n", 5);
    EXPECT_EQ(F.finish(), WireError::None);
  }
  // Mid-line disconnect: a partial ordinary frame is Truncated, and the
  // partial bytes are never surfaced as a complete line.
  {
    LineFramer F(64);
    std::string Line;
    F.feed("{\"type\":\"veri", 13);
    EXPECT_EQ(F.next(Line), LineFramer::Frame::None);
    EXPECT_EQ(F.finish(), WireError::Truncated);
  }
  // EOF inside a discarded over-cap line classifies as Oversized.
  {
    LineFramer F(4);
    std::string Line;
    F.feed("toolongtail", 11);
    EXPECT_EQ(F.next(Line), LineFramer::Frame::Oversized);
    EXPECT_EQ(F.finish(), WireError::Oversized);
  }
}

ShardPolicy testPolicy(int64_t NumShards, int64_t MaxRetries) {
  ShardPolicy P;
  P.NumShards = NumShards;
  P.MaxRetries = MaxRetries;
  P.BackoffInitialSeconds = 0.05;
  P.BackoffMultiplier = 2.0;
  P.BackoffMaxSeconds = 2.0;
  return P;
}

TEST(ShardScheduler, BackoffIsExponentialAndCapped) {
  ShardScheduler Sched(testPolicy(1, 10));
  EXPECT_DOUBLE_EQ(Sched.backoffDelay(1), 0.05);
  EXPECT_DOUBLE_EQ(Sched.backoffDelay(2), 0.10);
  EXPECT_DOUBLE_EQ(Sched.backoffDelay(3), 0.20);
  EXPECT_DOUBLE_EQ(Sched.backoffDelay(4), 0.40);
  EXPECT_DOUBLE_EQ(Sched.backoffDelay(7), 2.0); // 3.2 capped at Max
  EXPECT_DOUBLE_EQ(Sched.backoffDelay(30), 2.0);
}

TEST(ShardScheduler, RetriesBackOffAndEscalateRungsInOrder) {
  ShardScheduler Sched(testPolicy(1, 3));
  AttemptPlan Plan;

  // Attempt 0 launches immediately at the configured rung.
  ASSERT_TRUE(Sched.nextReady(0.0, Plan));
  EXPECT_EQ(Plan.Attempt, 0);
  EXPECT_EQ(Plan.Rung, ShardRung::Configured);
  ASSERT_FALSE(Sched.nextReady(0.0, Plan)); // shard is running, not pending

  // Crash at t=0: retry 1 is due exactly at t=0.05, not a tick earlier.
  Sched.recordFailure(0, AttemptOutcome::Crash, 0.0);
  EXPECT_FALSE(Sched.nextReady(0.049999, Plan));
  EXPECT_DOUBLE_EQ(Sched.nextReadyTime(), 0.05);
  ASSERT_TRUE(Sched.nextReady(0.05, Plan));
  EXPECT_EQ(Plan.Attempt, 1);
  EXPECT_EQ(Plan.Rung, ShardRung::Resilient);

  // Crash at t=0.05: retry 2 due at 0.05 + 0.1, at the interval-box rung.
  Sched.recordFailure(0, AttemptOutcome::OomKill, 0.05);
  double Due = Sched.nextReadyTime();
  EXPECT_NEAR(Due, 0.15, 1e-12);
  EXPECT_FALSE(Sched.nextReady(Due - 1e-6, Plan));
  ASSERT_TRUE(Sched.nextReady(Due, Plan));
  EXPECT_EQ(Plan.Attempt, 2);
  EXPECT_EQ(Plan.Rung, ShardRung::IntervalBox);

  // Retry 3 (the last of the budget) stays at interval-box.
  Sched.recordFailure(0, AttemptOutcome::Hang, Due);
  Due = Sched.nextReadyTime();
  EXPECT_NEAR(Due, 0.35, 1e-12);
  ASSERT_TRUE(Sched.nextReady(Due, Plan));
  EXPECT_EQ(Plan.Attempt, 3);
  EXPECT_EQ(Plan.Rung, ShardRung::IntervalBox);

  // Fourth failure exhausts the budget: no more attempts, shard resolved.
  Sched.recordFailure(0, AttemptOutcome::Crash, Due);
  EXPECT_FALSE(Sched.pendingWork());
  EXPECT_TRUE(Sched.allResolved());
  ASSERT_EQ(Sched.exhaustedShards().size(), 1u);
  EXPECT_EQ(Sched.exhaustedShards()[0], 0);
  EXPECT_EQ(Sched.totalRetries(), 3);
}

TEST(ShardScheduler, FatalOutcomeExhaustsImmediately) {
  ShardScheduler Sched(testPolicy(1, 5));
  AttemptPlan Plan;
  ASSERT_TRUE(Sched.nextReady(0.0, Plan));
  // A usage/config error cannot be fixed by retrying; burn no budget.
  Sched.recordFailure(0, AttemptOutcome::Fatal, 0.0);
  EXPECT_TRUE(Sched.allResolved());
  EXPECT_EQ(Sched.exhaustedShards().size(), 1u);
  EXPECT_EQ(Sched.totalRetries(), 0);
}

TEST(ShardScheduler, EscalateRaisesRungWithoutConsumingAnAttempt) {
  ShardScheduler Sched(testPolicy(1, 3));
  AttemptPlan Plan;
  ASSERT_TRUE(Sched.nextReady(0.0, Plan));
  EXPECT_EQ(Plan.Rung, ShardRung::Configured);
  // Admission rejected the launch: same attempt, higher rung, no delay.
  Sched.escalate(0);
  ASSERT_TRUE(Sched.nextReady(0.0, Plan));
  EXPECT_EQ(Plan.Attempt, 0);
  EXPECT_EQ(Plan.Rung, ShardRung::Resilient);
  EXPECT_EQ(Sched.totalRetries(), 0);
}

// ---------------------------------------------------------------------------
// Supervisor against scripted failures, on a fake clock.
// ---------------------------------------------------------------------------

/// A launcher whose attempts resolve synchronously according to a script:
///   Ok            — finishes instantly: with Ctx set, with the real
///                   runShardAttempt result, else with bounds [0.1, 0.2]
///                   per spec;
///   Hang          — never finishes, never heartbeats;
///   SlowHeartbeat — never finishes but heartbeats (deadline test);
///   anything else — fails instantly with that outcome.
class ScriptedLauncher : public ShardWorkerLauncher {
public:
  static constexpr auto SlowHeartbeat = static_cast<AttemptOutcome>(200);

  std::map<std::pair<int64_t, int64_t>, AttemptOutcome> Script;
  std::vector<AttemptPlan> Launches;
  int64_t Kills = 0;
  int64_t NumSpecs = 1;
  const ShardWorkContext *Ctx = nullptr;

  AttemptOutcome outcomeFor(const AttemptPlan &P) const {
    const auto It = Script.find({P.Shard, P.Attempt});
    return It == Script.end() ? AttemptOutcome::Ok : It->second;
  }

  bool launch(const AttemptPlan &Plan) override {
    Launches.push_back(Plan);
    Live[Plan.Shard] = Plan;
    return true;
  }

  WorkerPoll poll(int64_t Shard) override {
    WorkerPoll P;
    const AttemptPlan Plan = Live.at(Shard);
    const AttemptOutcome O = outcomeFor(Plan);
    if (O == AttemptOutcome::Hang)
      return P; // silent: not finished, no heartbeat
    if (O == SlowHeartbeat) {
      P.HeartbeatSeen = true; // alive but never done: only a deadline helps
      return P;
    }
    P.Finished = true;
    P.HeartbeatSeen = true;
    P.Outcome = O;
    if (O == AttemptOutcome::Ok && Ctx) {
      P.Result = runShardAttempt(*Ctx, Plan);
    } else if (O == AttemptOutcome::Ok) {
      P.Result.Shard = Shard;
      P.Result.Rung = static_cast<int64_t>(Plan.Rung);
      for (int64_t I = 0; I < NumSpecs; ++I) {
        ShardSpecBounds SB;
        SB.Lower = 0.1;
        SB.Upper = 0.2;
        P.Result.Specs.push_back(SB);
      }
    }
    Live.erase(Shard);
    return P;
  }

  void kill(int64_t Shard) override {
    ++Kills;
    Live.erase(Shard);
  }

private:
  std::map<int64_t, AttemptPlan> Live;
};

/// Policy driven by a fake clock: Sleep advances it, nothing waits.
ShardPolicy fakeClockPolicy(int64_t NumShards, int64_t MaxRetries,
                            double *Clock) {
  ShardPolicy P = testPolicy(NumShards, MaxRetries);
  P.PollIntervalSeconds = 0.01;
  P.HeartbeatTimeoutSeconds = 0.1;
  P.Clock = [Clock] { return *Clock; };
  P.Sleep = [Clock](double S) { *Clock += S; };
  return P;
}

TEST(ShardSupervisor, CrashedWorkerIsRetriedAndRunIsDegraded) {
  double Clock = 0.0;
  ShardPolicy Policy = fakeClockPolicy(2, 3, &Clock);
  ScriptedLauncher Launcher;
  Launcher.Script[{1, 0}] = AttemptOutcome::Crash; // shard 1's first try dies
  ShardSupervisor Supervisor(Policy, Launcher, /*Fallback=*/{});
  const ShardRunSummary Summary = Supervisor.run();

  EXPECT_EQ(Summary.Crashes, 1);
  EXPECT_EQ(Summary.Restarts, 1);
  EXPECT_EQ(Summary.Fallbacks, 0);
  EXPECT_TRUE(Summary.Degraded); // a restart is never a clean run
  ASSERT_EQ(Summary.Results.size(), 2u);
  EXPECT_EQ(Summary.Results[1].Attempt, 1);
  ASSERT_EQ(Summary.Results[1].Specs.size(), 1u);

  const MergedCertificate Merged = mergeShardResults(Summary.Results, 1);
  ASSERT_EQ(Merged.Specs.size(), 1u);
  EXPECT_NEAR(Merged.Specs[0].Lower, 0.2, 1e-12); // 0.1 + 0.1
  EXPECT_NEAR(Merged.Specs[0].Upper, 0.4, 1e-12);
}

TEST(ShardSupervisor, SilentWorkerIsKilledByHeartbeatTimeout) {
  double Clock = 0.0;
  ShardPolicy Policy = fakeClockPolicy(1, 3, &Clock);
  ScriptedLauncher Launcher;
  Launcher.Script[{0, 0}] = AttemptOutcome::Hang;
  ShardSupervisor Supervisor(Policy, Launcher, /*Fallback=*/{});
  const ShardRunSummary Summary = Supervisor.run();

  EXPECT_EQ(Summary.HeartbeatMisses, 1);
  EXPECT_EQ(Summary.Hangs, 1);
  EXPECT_EQ(Launcher.Kills, 1);
  EXPECT_EQ(Summary.Restarts, 1);
  EXPECT_TRUE(Summary.Degraded);
  ASSERT_EQ(Summary.Results.size(), 1u);
  EXPECT_EQ(Summary.Results[0].Attempt, 1); // the retry succeeded
}

TEST(ShardSupervisor, HeartbeatingButStuckWorkerIsKilledByDeadline) {
  double Clock = 0.0;
  ShardPolicy Policy = fakeClockPolicy(1, 3, &Clock);
  Policy.HeartbeatTimeoutSeconds = 100.0; // heartbeats alone won't save us
  Policy.ShardDeadlineSeconds = 0.5;
  ScriptedLauncher Launcher;
  Launcher.Script[{0, 0}] = ScriptedLauncher::SlowHeartbeat;
  ShardSupervisor Supervisor(Policy, Launcher, /*Fallback=*/{});
  const ShardRunSummary Summary = Supervisor.run();

  EXPECT_EQ(Summary.HeartbeatMisses, 0); // it was beating; the clock ran out
  EXPECT_EQ(Summary.Hangs, 1);
  EXPECT_EQ(Launcher.Kills, 1);
  EXPECT_EQ(Summary.Restarts, 1);
  EXPECT_TRUE(Summary.Degraded);
}

TEST(ShardSupervisor, ExhaustedShardUsesFallbackBound) {
  double Clock = 0.0;
  ShardPolicy Policy = fakeClockPolicy(1, 1, &Clock);
  ScriptedLauncher Launcher;
  Launcher.Script[{0, 0}] = AttemptOutcome::Crash;
  Launcher.Script[{0, 1}] = AttemptOutcome::OomKill;
  const auto Fallback = [](int64_t Shard) {
    ShardResult R;
    R.Shard = Shard;
    ShardSpecBounds SB;
    SB.Lower = 0.0;
    SB.Upper = 0.25; // the interval-box bound for this shard's mass
    SB.Degraded = true;
    R.Specs.push_back(SB);
    return R;
  };
  ShardSupervisor Supervisor(Policy, Launcher, Fallback);
  const ShardRunSummary Summary = Supervisor.run();

  EXPECT_EQ(Summary.Crashes, 1);
  EXPECT_EQ(Summary.OomKills, 1);
  EXPECT_EQ(Summary.Fallbacks, 1);
  EXPECT_TRUE(Summary.Degraded);
  ASSERT_EQ(Summary.Results.size(), 1u);
  EXPECT_TRUE(Summary.Results[0].FromFallback);
  EXPECT_EQ(Summary.Results[0].Rung,
            static_cast<int64_t>(ShardRung::IntervalBox));

  const MergedCertificate Merged = mergeShardResults(Summary.Results, 1);
  EXPECT_TRUE(Merged.Degraded);
  EXPECT_DOUBLE_EQ(Merged.Specs[0].Lower, 0.0);
  EXPECT_DOUBLE_EQ(Merged.Specs[0].Upper, 0.25);
}

TEST(ShardSupervisor, AdmissionRejectEscalatesWithoutSpawning) {
  double Clock = 0.0;
  ShardPolicy Policy = fakeClockPolicy(1, 3, &Clock);
  ScriptedLauncher Launcher;
  const auto Admit = [](const AttemptPlan &Plan) {
    return Plan.Rung != ShardRung::Configured; // configured launches doomed
  };
  ShardSupervisor Supervisor(Policy, Launcher, /*Fallback=*/{}, Admit);
  const ShardRunSummary Summary = Supervisor.run();

  EXPECT_EQ(Summary.AdmissionRejects, 1);
  EXPECT_TRUE(Summary.Degraded);
  ASSERT_EQ(Launcher.Launches.size(), 1u); // one real spawn, zero doomed ones
  EXPECT_EQ(Launcher.Launches[0].Rung, ShardRung::Resilient);
  EXPECT_EQ(Launcher.Launches[0].Attempt, 0); // no attempt was consumed
}

TEST(ShardMerge, MissingSpecSlotsAreConservative) {
  std::vector<ShardResult> Results(2);
  Results[0].Shard = 0;
  ShardSpecBounds SB;
  SB.Lower = 0.3;
  SB.Upper = 0.4;
  Results[0].Specs.push_back(SB);
  Results[1].Shard = 1; // reported no spec bounds at all
  const MergedCertificate Merged = mergeShardResults(Results, 1);
  ASSERT_EQ(Merged.Specs.size(), 1u);
  // The silent shard's mass is fully unknown: lower gains nothing, upper
  // gains everything (clamped), and the certificate is degraded.
  EXPECT_NEAR(Merged.Specs[0].Lower, 0.3, 1e-12);
  EXPECT_NEAR(Merged.Specs[0].Upper, 1.0, 1e-12);
  EXPECT_TRUE(Merged.Degraded);
}

/// The supervision rung maps onto the in-process ladder by name: a clean
/// Resilient attempt (no rollbacks, no fallback-box layers) stays at
/// None, and only an IntervalBox attempt reaches FullBox.
TEST(ShardMerge, OnlyTheIntervalBoxRungMergesToFullBox) {
  std::vector<ShardResult> Results(1);
  Results[0].Rung = static_cast<int64_t>(ShardRung::Resilient);
  Results[0].Specs.push_back(ShardSpecBounds{});
  EXPECT_EQ(mergeShardResults(Results, 1).Rung, DegradeRung::None);

  Results[0].Rung = static_cast<int64_t>(ShardRung::IntervalBox);
  EXPECT_EQ(mergeShardResults(Results, 1).Rung, DegradeRung::FullBox);
}

// ---------------------------------------------------------------------------
// End-to-end: real propagation, one runShardAttempt per planned shard.
// ---------------------------------------------------------------------------

struct ShardFixture {
  Rng R{2021};
  Sequential Net;
  std::vector<const Layer *> Pipeline;
  Shape InputShape{std::vector<int64_t>{1, 4}};
  Tensor Start, End;
  std::vector<OutputSpec> Specs;
  GenProveConfig Config;

  ShardFixture() {
    Net = makeRandomMlp(R, {4, 10, 8, 3});
    Pipeline = Net.view();
    Start = Tensor::randn({1, 4}, R);
    End = Tensor::randn({1, 4}, R);
    Specs.push_back(OutputSpec::argmaxWins(0, 3));
    Specs.push_back(OutputSpec::argmaxWins(1, 3));
    Config.NodeThreshold = 60;
  }

  ShardWorkContext context(int64_t NumShards) const {
    ShardWorkContext Ctx;
    Ctx.Pipeline = Pipeline;
    Ctx.InputShape = InputShape;
    Ctx.Start = Start;
    Ctx.End = End;
    Ctx.Specs = Specs;
    Ctx.Config = Config;
    Ctx.NumShards = NumShards;
    return Ctx;
  }

  std::vector<ProbBounds> singleProcessBounds() const {
    const GenProve GP(Config);
    const PropagatedState State =
        GP.propagateSegment(Pipeline, InputShape, Start, End);
    std::vector<ProbBounds> Out;
    for (const OutputSpec &Spec : Specs)
      Out.push_back(GP.boundsFor(State, Spec));
    return Out;
  }
};

TEST(ShardDifferential, ShardCountsAgreeWithSingleProcess) {
  const ShardFixture F;
  const std::vector<ProbBounds> Base = F.singleProcessBounds();
  ASSERT_EQ(Base.size(), 2u);

  for (int64_t N : {1, 2, 4}) {
    const ShardWorkContext Ctx = F.context(N);
    std::vector<ShardResult> Results;
    for (int64_t Shard = 0; Shard < N; ++Shard) {
      AttemptPlan Plan;
      Plan.Shard = Shard;
      Results.push_back(runShardAttempt(Ctx, Plan));
      EXPECT_FALSE(Results.back().Degraded)
          << "fault-free attempt must be clean, N=" << N;
    }

    const MergedCertificate Merged =
        mergeShardResults(Results, static_cast<int64_t>(F.Specs.size()));
    EXPECT_FALSE(Merged.Degraded);
    ASSERT_EQ(Merged.Specs.size(), Base.size());
    for (size_t I = 0; I < Base.size(); ++I) {
      // Not bit-identical across N (sums re-associate at shard cuts), but
      // well within 1e-9 — and therefore the same verdict everywhere.
      EXPECT_NEAR(Merged.Specs[I].Lower, Base[I].Lower, 1e-9)
          << "spec " << I << ", N=" << N;
      EXPECT_NEAR(Merged.Specs[I].Upper, Base[I].Upper, 1e-9)
          << "spec " << I << ", N=" << N;
      // Deterministic collapse on the merged bounds matches the collapse
      // of the single-process bounds.
      const ProbBounds MergedDet = Merged.Specs[I].deterministic();
      const ProbBounds BaseDet = Base[I].deterministic();
      EXPECT_EQ(MergedDet.Lower >= 1.0, BaseDet.Lower >= 1.0);
      EXPECT_EQ(MergedDet.Upper <= 0.0, BaseDet.Upper <= 0.0);
    }
  }
}

TEST(ShardDifferential, InjectedCrashesKeepMergedBoundsSound) {
  const ShardFixture F;
  const std::vector<ProbBounds> Base = F.singleProcessBounds();

  const int64_t N = 4;
  const ShardWorkContext Ctx = F.context(N);
  // Shard 1's first attempt crashes; shard 2 fails until its budget is
  // gone and must be bounded by the coordinator's interval-box fallback.
  double Clock = 0.0;
  ScriptedLauncher Launcher;
  Launcher.Ctx = &Ctx;
  Launcher.Script[{1, 0}] = AttemptOutcome::Crash;
  Launcher.Script[{2, 0}] = AttemptOutcome::OomKill;
  Launcher.Script[{2, 1}] = AttemptOutcome::Crash;
  const auto Fallback = [&Ctx](int64_t Shard) {
    AttemptPlan Plan;
    Plan.Shard = Shard;
    Plan.Rung = ShardRung::IntervalBox;
    return runShardAttempt(Ctx, Plan);
  };
  ShardSupervisor Supervisor(fakeClockPolicy(N, 1, &Clock), Launcher,
                             Fallback);
  const ShardRunSummary Summary = Supervisor.run();

  EXPECT_GE(Summary.Crashes + Summary.OomKills, 3);
  EXPECT_EQ(Summary.Restarts, 2); // shard 1 retried once, shard 2 once
  EXPECT_EQ(Summary.Fallbacks, 1);
  EXPECT_TRUE(Summary.Degraded);

  const MergedCertificate Merged =
      mergeShardResults(Summary.Results, static_cast<int64_t>(F.Specs.size()));
  EXPECT_TRUE(Merged.Degraded);
  ASSERT_EQ(Merged.Specs.size(), Base.size());
  // The oracle: a degraded merged interval must contain the exact one.
  for (size_t I = 0; I < Base.size(); ++I)
    expectContains(Merged.Specs[I], Base[I]);
}

TEST(ShardAttempt, IntervalBoxRungIsDegradedButSound) {
  const ShardFixture F;
  const std::vector<ProbBounds> Base = F.singleProcessBounds();

  AttemptPlan Plan;
  Plan.Rung = ShardRung::IntervalBox;
  const ShardResult R = runShardAttempt(F.context(1), Plan);
  EXPECT_TRUE(R.Degraded);
  EXPECT_FALSE(R.OutOfMemory);
  ASSERT_EQ(R.Specs.size(), Base.size());
  for (size_t I = 0; I < Base.size(); ++I) {
    ProbBounds Pb;
    Pb.Lower = R.Specs[I].Lower;
    Pb.Upper = R.Specs[I].Upper;
    expectContains(Pb, Base[I]);
  }
}

TEST(ShardAttempt, StartAtFullBoxSurvivesATinyBudget) {
  const ShardFixture F;
  ShardWorkContext Ctx = F.context(1);
  Ctx.Config.MemoryBudgetBytes = 64; // cannot even hold the input state
  AttemptPlan Plan;
  Plan.Rung = ShardRung::IntervalBox;
  const ShardResult R = runShardAttempt(Ctx, Plan);
  // The interval-box rung is budget-exempt: it must complete (degraded),
  // never OOM — that is what makes the retry ladder terminate.
  EXPECT_FALSE(R.OutOfMemory);
  EXPECT_TRUE(R.Degraded);
  ASSERT_EQ(R.Specs.size(), F.Specs.size());
  for (const ShardSpecBounds &SB : R.Specs) {
    EXPECT_GE(SB.Lower, 0.0);
    EXPECT_LE(SB.Upper, 1.0);
    EXPECT_LE(SB.Lower, SB.Upper + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Satellite: DeviceMemoryModel charge-failure visibility.
// ---------------------------------------------------------------------------

TEST(MemoryModelMetrics, ChargeFailuresAndPeakRatioAreExported) {
  setMetricsEnabled(true);
  MetricsRegistry &Reg = MetricsRegistry::global();
  const int64_t TryFails0 = Reg.counter("device.try_charge_failures").value();
  const int64_t Fails0 = Reg.counter("device.charge_failures").value();

  DeviceMemoryModel Memory(1024);
  EXPECT_TRUE(Memory.tryChargeState(16, 4)); // 512 of 1024 bytes
  EXPECT_FALSE(Memory.tryChargeState(64, 4)); // rejected: over budget
  EXPECT_EQ(Reg.counter("device.try_charge_failures").value(), TryFails0 + 1);
  EXPECT_EQ(Reg.counter("device.charge_failures").value(), Fails0);

  EXPECT_FALSE(Memory.chargeState(64, 4)); // the saturating charge fails too
  EXPECT_EQ(Reg.counter("device.charge_failures").value(), Fails0 + 1);

  // The high-water gauge saw at least the successful 512/1024 residency.
  EXPECT_GE(Reg.gauge("device.peak_budget_ratio").value(), 0.5);
  setMetricsEnabled(false);
}

} // namespace
} // namespace genprove
