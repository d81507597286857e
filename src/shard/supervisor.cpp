//===- shard/supervisor.cpp -----------------------------------*- C++ -*-===//

#include "src/shard/supervisor.h"

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/shard/protocol.h"
#include "src/util/timer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <utility>

namespace genprove {

ShardRung rungForAttempt(int64_t Attempt) {
  if (Attempt <= 0)
    return ShardRung::Configured;
  if (Attempt == 1)
    return ShardRung::Resilient;
  return ShardRung::IntervalBox;
}

const char *shardRungName(ShardRung R) {
  switch (R) {
  case ShardRung::Configured:
    return "configured";
  case ShardRung::Resilient:
    return "resilient";
  case ShardRung::IntervalBox:
    return "interval-box";
  }
  return "?";
}

ShardRung shardRungFromInt(int64_t Value) {
  constexpr int64_t Coarsest = static_cast<int64_t>(ShardRung::IntervalBox);
  return static_cast<ShardRung>(std::clamp<int64_t>(Value, 0, Coarsest));
}

const char *attemptOutcomeName(AttemptOutcome O) {
  switch (O) {
  case AttemptOutcome::Ok:
    return "ok";
  case AttemptOutcome::Crash:
    return "crash";
  case AttemptOutcome::Hang:
    return "hang";
  case AttemptOutcome::OomKill:
    return "oom-kill";
  case AttemptOutcome::Oom:
    return "oom";
  case AttemptOutcome::Protocol:
    return "protocol";
  case AttemptOutcome::Fatal:
    return "fatal";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// ShardScheduler
//===----------------------------------------------------------------------===//

ShardScheduler::ShardScheduler(const ShardPolicy &Policy) : Policy(Policy) {
  Slots.resize(static_cast<size_t>(std::max<int64_t>(Policy.NumShards, 1)));
}

double ShardScheduler::backoffDelay(int64_t Attempt) const {
  if (Attempt <= 0)
    return 0.0;
  double Delay = Policy.BackoffInitialSeconds;
  for (int64_t I = 1; I < Attempt; ++I)
    Delay *= Policy.BackoffMultiplier;
  return std::min(Delay, Policy.BackoffMaxSeconds);
}

ShardRung ShardScheduler::rungFor(const Slot &Sl) const {
  const ShardRung R = rungForAttempt(Sl.Attempt);
  return static_cast<uint8_t>(R) >= static_cast<uint8_t>(Sl.RungFloor)
             ? R
             : Sl.RungFloor;
}

bool ShardScheduler::nextReady(double Now, AttemptPlan &Plan) {
  for (size_t I = 0; I < Slots.size(); ++I) {
    Slot &Sl = Slots[I];
    if (Sl.S != State::Pending || Sl.NotBefore > Now)
      continue;
    Sl.S = State::Running;
    Plan.Shard = static_cast<int64_t>(I);
    Plan.Attempt = Sl.Attempt;
    Plan.Rung = rungFor(Sl);
    Plan.NotBeforeSeconds = Sl.NotBefore;
    return true;
  }
  return false;
}

void ShardScheduler::recordSuccess(int64_t Shard) {
  Slots[static_cast<size_t>(Shard)].S = State::Done;
}

void ShardScheduler::recordFailure(int64_t Shard, AttemptOutcome Outcome,
                                   double Now) {
  Slot &Sl = Slots[static_cast<size_t>(Shard)];
  const int64_t NextAttempt = Sl.Attempt + 1;
  if (Outcome == AttemptOutcome::Fatal || NextAttempt > Policy.MaxRetries) {
    Sl.S = State::Exhausted;
    return;
  }
  Sl.Attempt = NextAttempt;
  Sl.NotBefore = Now + backoffDelay(NextAttempt);
  Sl.S = State::Pending;
  ++Retries;
}

void ShardScheduler::escalate(int64_t Shard) {
  Slot &Sl = Slots[static_cast<size_t>(Shard)];
  Sl.RungFloor = shardRungFromInt(static_cast<int64_t>(Sl.RungFloor) + 1);
  // The popped attempt was never launched; hand the shard straight back.
  Sl.S = State::Pending;
}

bool ShardScheduler::pendingWork() const {
  for (const Slot &Sl : Slots)
    if (Sl.S == State::Pending)
      return true;
  return false;
}

bool ShardScheduler::allResolved() const {
  for (const Slot &Sl : Slots)
    if (Sl.S != State::Done && Sl.S != State::Exhausted)
      return false;
  return true;
}

double ShardScheduler::nextReadyTime() const {
  double Earliest = std::numeric_limits<double>::infinity();
  for (const Slot &Sl : Slots)
    if (Sl.S == State::Pending)
      Earliest = std::min(Earliest, Sl.NotBefore);
  return Earliest;
}

std::vector<int64_t> ShardScheduler::exhaustedShards() const {
  std::vector<int64_t> Out;
  for (size_t I = 0; I < Slots.size(); ++I)
    if (Slots[I].S == State::Exhausted)
      Out.push_back(static_cast<int64_t>(I));
  return Out;
}

//===----------------------------------------------------------------------===//
// ShardSupervisor
//===----------------------------------------------------------------------===//

ShardSupervisor::ShardSupervisor(ShardPolicy Policy,
                                 ShardWorkerLauncher &Launcher,
                                 FallbackFn Fallback, AdmitFn Admit)
    : Policy(std::move(Policy)), Launcher(Launcher),
      Fallback(std::move(Fallback)), Admit(std::move(Admit)) {}

ShardRunSummary ShardSupervisor::run() {
  static Counter &SpawnCtr =
      MetricsRegistry::global().counter("shard.workers_spawned");
  static Counter &RestartCtr =
      MetricsRegistry::global().counter("shard.restarts");
  static Counter &RetryCtr = MetricsRegistry::global().counter("shard.retries");
  static Counter &HbMissCtr =
      MetricsRegistry::global().counter("shard.heartbeat_misses");
  static Counter &HangCtr = MetricsRegistry::global().counter("shard.hangs");
  static Counter &CrashCtr = MetricsRegistry::global().counter("shard.crashes");
  static Counter &OomKillCtr =
      MetricsRegistry::global().counter("shard.oom_kills");
  static Counter &FallbackCtr =
      MetricsRegistry::global().counter("shard.fallbacks");
  static Counter &AdmitRejectCtr =
      MetricsRegistry::global().counter("shard.admission_rejects");
  static Histogram &AttemptSecondsHist =
      MetricsRegistry::global().histogram("shard.attempt_seconds");
  static Gauge &HbAgeGauge =
      MetricsRegistry::global().gauge("shard.heartbeat_age_ms");

  // Per-shard liveness gauges, registered lazily so a run only creates
  // the series it actually observes (registration takes the mutex).
  std::map<int64_t, std::pair<Gauge *, Gauge *>> LivenessGauges;
  const auto RecordLiveness = [&](int64_t Shard, int64_t StateBytes,
                                  int64_t Layer) {
    if (StateBytes < 0 && Layer < 0)
      return;
    auto &Pair = LivenessGauges[Shard];
    if (!Pair.first) {
      const std::string Id = std::to_string(Shard);
      Pair.first = &MetricsRegistry::global().gauge(
          labeledMetricName("shard.state_bytes", "shard", Id));
      Pair.second = &MetricsRegistry::global().gauge(
          labeledMetricName("shard.current_layer", "shard", Id));
    }
    if (StateBytes >= 0)
      Pair.first->set(static_cast<double>(StateBytes));
    if (Layer >= 0)
      Pair.second->set(static_cast<double>(Layer));
  };

  const auto LogEv = [](LogLevel Level, const char *Event,
                        std::initializer_list<LogField> Fields) {
    if (logEnabled())
      EventLog::global().emit(Level, Event, Fields);
  };

  Timer Wall;
  const double Clock0 = Policy.Clock ? Policy.Clock() : 0.0;
  const auto Now = [&] {
    return Policy.Clock ? Policy.Clock() - Clock0 : Wall.seconds();
  };
  const auto Sleep = [&](double Seconds) {
    if (Seconds <= 0.0)
      return;
    if (Policy.Sleep)
      Policy.Sleep(Seconds);
    else
      std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
  };

  ShardScheduler Sched(Policy);

  // One failure narration point, mirroring recordFailure's retry-vs-
  // exhausted decision so the log tells the same story the scheduler acts
  // out.
  const auto LogFailure = [&](int64_t Shard, int64_t Attempt,
                              AttemptOutcome Outcome) {
    LogEv(LogLevel::Warn, "shard.exit",
          {{"shard", Shard},
           {"attempt", Attempt},
           {"outcome", attemptOutcomeName(Outcome)}});
    const int64_t NextAttempt = Attempt + 1;
    if (Outcome == AttemptOutcome::Fatal || NextAttempt > Policy.MaxRetries)
      LogEv(LogLevel::Error, "shard.exhausted",
            {{"shard", Shard}, {"attempts", NextAttempt}});
    else
      LogEv(LogLevel::Info, "shard.retry",
            {{"shard", Shard},
             {"next_attempt", NextAttempt},
             {"rung", shardRungName(rungForAttempt(NextAttempt))},
             {"backoff_s", Sched.backoffDelay(NextAttempt)}});
  };

  ShardRunSummary Summary;
  const int64_t N = std::max<int64_t>(Policy.NumShards, 1);
  Summary.Results.resize(static_cast<size_t>(N));
  std::map<int64_t, LiveWorker> Live;

  while (true) {
    double T = Now();

    AttemptPlan Plan;
    while (Sched.nextReady(T, Plan)) {
      if (Admit && Plan.Rung == ShardRung::Configured && !Admit(Plan)) {
        // The coordinator's own budget says a Configured-rung worker is
        // doomed; skip straight to the resilient rung without paying for
        // the spawn.
        ++Summary.AdmissionRejects;
        AdmitRejectCtr.add(1);
        LogEv(LogLevel::Warn, "shard.admission_reject",
              {{"shard", Plan.Shard}, {"attempt", Plan.Attempt}});
        Sched.escalate(Plan.Shard);
        continue;
      }
      if (!Launcher.launch(Plan)) {
        ++Summary.Crashes;
        CrashCtr.add(1);
        LogEv(LogLevel::Error, "shard.spawn_failed",
              {{"shard", Plan.Shard}, {"attempt", Plan.Attempt}});
        Sched.recordFailure(Plan.Shard, AttemptOutcome::Crash, T);
        continue;
      }
      SpawnCtr.add(1);
      if (Plan.Attempt > 0) {
        ++Summary.Restarts;
        RestartCtr.add(1);
      }
      LogEv(LogLevel::Info, "shard.spawn",
            {{"shard", Plan.Shard},
             {"attempt", Plan.Attempt},
             {"rung", shardRungName(Plan.Rung)}});
      LiveWorker W;
      W.Plan = Plan;
      W.LaunchedAt = T;
      W.LastBeat = T;
      W.LaunchEpochUs = TraceSession::global().nowUs();
      Live[Plan.Shard] = W;
    }

    for (auto It = Live.begin(); It != Live.end();) {
      const int64_t Shard = It->first;
      LiveWorker &W = It->second;
      WorkerPoll P = Launcher.poll(Shard);
      T = Now();
      if (P.HeartbeatSeen)
        W.LastBeat = T;
      RecordLiveness(Shard, P.BeatStateBytes, P.BeatLayer);
      if (P.Finished) {
        AttemptSecondsHist.record(T - W.LaunchedAt);
        if (P.Outcome == AttemptOutcome::Ok) {
          P.Result.Shard = Shard;
          P.Result.Attempt = W.Plan.Attempt;
          // Fold the worker's shipped telemetry into the coordinator's
          // registries: metrics twice (once under the base names so
          // totals equal coordinator + sum of workers, once under the
          // shard=<id> dimension), trace events re-stamped onto the
          // shard's process lane and shifted onto the coordinator clock,
          // log records spliced verbatim.
          if (P.Telemetry.HasMetrics && metricsEnabled()) {
            foldIntoRegistry(MetricsRegistry::global(), P.Telemetry.Metrics);
            foldIntoRegistry(MetricsRegistry::global(),
                             P.Telemetry.Metrics.withLabel(
                                 "shard", std::to_string(Shard)));
          }
          if (traceEnabled() && !P.Telemetry.Trace.empty()) {
            TraceSession &TS = TraceSession::global();
            TS.setProcessLabel(0, "coordinator");
            TS.setProcessLabel(Shard + 1, "shard " + std::to_string(Shard));
            for (TraceEvent E : P.Telemetry.Trace) {
              E.Pid = Shard + 1;
              E.StartUs += W.LaunchEpochUs;
              TS.record(std::move(E));
            }
          }
          if (logEnabled())
            for (LogRecord R : P.Telemetry.Log)
              EventLog::global().splice(std::move(R));
          LogEv(LogLevel::Info, "shard.exit",
                {{"shard", Shard},
                 {"attempt", W.Plan.Attempt},
                 {"outcome", "ok"},
                 {"seconds", T - W.LaunchedAt}});
          Summary.Results[static_cast<size_t>(Shard)] = std::move(P.Result);
          Sched.recordSuccess(Shard);
        } else {
          switch (P.Outcome) {
          case AttemptOutcome::Crash:
            ++Summary.Crashes;
            CrashCtr.add(1);
            break;
          case AttemptOutcome::OomKill:
            ++Summary.OomKills;
            OomKillCtr.add(1);
            break;
          case AttemptOutcome::Oom:
            ++Summary.Ooms;
            break;
          case AttemptOutcome::Protocol:
            ++Summary.ProtocolErrors;
            break;
          default:
            break;
          }
          LogFailure(Shard, W.Plan.Attempt, P.Outcome);
          Sched.recordFailure(Shard, P.Outcome, T);
        }
        It = Live.erase(It);
        continue;
      }
      const bool HeartbeatLate =
          Policy.HeartbeatTimeoutSeconds > 0.0 &&
          T - W.LastBeat >= Policy.HeartbeatTimeoutSeconds;
      const bool DeadlineBlown = Policy.ShardDeadlineSeconds > 0.0 &&
                                 T - W.LaunchedAt >= Policy.ShardDeadlineSeconds;
      if (HeartbeatLate || DeadlineBlown) {
        if (HeartbeatLate) {
          ++Summary.HeartbeatMisses;
          HbMissCtr.add(1);
        }
        LogEv(LogLevel::Warn, "shard.kill",
              {{"shard", Shard},
               {"attempt", W.Plan.Attempt},
               {"reason", HeartbeatLate ? "heartbeat" : "deadline"},
               {"beat_age_s", T - W.LastBeat},
               {"run_s", T - W.LaunchedAt}});
        Launcher.kill(Shard);
        ++Summary.Hangs;
        HangCtr.add(1);
        AttemptSecondsHist.record(T - W.LaunchedAt);
        LogFailure(Shard, W.Plan.Attempt, AttemptOutcome::Hang);
        Sched.recordFailure(Shard, AttemptOutcome::Hang, T);
        It = Live.erase(It);
        continue;
      }
      ++It;
    }

    // A hung-but-heartbeating worker looks healthy on the counters; the
    // age of the stalest live heartbeat is what distinguishes it.
    if (!Live.empty()) {
      double MaxAge = 0.0;
      for (const auto &[Shard, W] : Live)
        MaxAge = std::max(MaxAge, T - W.LastBeat);
      HbAgeGauge.set(MaxAge * 1000.0);
    }

    if (Live.empty() && !Sched.pendingWork())
      break;
    if (!Live.empty()) {
      Sleep(Policy.PollIntervalSeconds);
      continue;
    }
    // Nothing live: wait out the earliest backoff. The floor keeps a
    // zero-delay retry from busy-spinning against a coarse clock.
    const double Wait = Sched.nextReadyTime() - Now();
    Sleep(std::max(Wait, 1e-4));
  }

  for (int64_t Shard : Sched.exhaustedShards()) {
    ShardResult R;
    if (Fallback)
      R = Fallback(Shard);
    // With no fallback the result keeps empty Specs; mergeShardResults
    // treats every missing spec slot as [0, 1] mass-unknown, still sound.
    R.Shard = Shard;
    R.FromFallback = true;
    R.Degraded = true;
    R.Rung = static_cast<int64_t>(ShardRung::IntervalBox);
    Summary.Results[static_cast<size_t>(Shard)] = std::move(R);
    ++Summary.Fallbacks;
    FallbackCtr.add(1);
    LogEv(LogLevel::Warn, "shard.fallback", {{"shard", Shard}});
  }

  RetryCtr.add(Sched.totalRetries());
  Summary.Degraded = Summary.Restarts > 0 || Summary.Fallbacks > 0 ||
                     Summary.AdmissionRejects > 0;
  for (const ShardResult &R : Summary.Results)
    Summary.Degraded = Summary.Degraded || R.Degraded;
  Summary.Seconds = Now();
  return Summary;
}

//===----------------------------------------------------------------------===//
// runShardAttempt — the worker's actual job
//===----------------------------------------------------------------------===//

ShardResult runShardAttempt(const ShardWorkContext &Ctx,
                            const AttemptPlan &Plan) {
  GenProveConfig Cfg = Ctx.Config;
  // Partial masses must stay partial: the deterministic collapse only
  // makes sense on the merged bounds, so workers always run probabilistic
  // and the coordinator collapses after mergeShardResults.
  Cfg.Mode = AnalysisMode::Probabilistic;
  Cfg.InputSplits = 1;
  if (Plan.Rung != ShardRung::Configured)
    Cfg.Resilience.Enabled = true;
  Cfg.Resilience.StartAtFullBox = Plan.Rung == ShardRung::IntervalBox;

  const std::vector<ShardRange> Ranges = planShards(Ctx.NumShards);
  const size_t Index =
      static_cast<size_t>(std::clamp<int64_t>(Plan.Shard, 0,
                                              static_cast<int64_t>(Ranges.size()) - 1));
  const ShardRange Range = Ranges[Index];

  const Tensor A = Ctx.Start.reshaped({1, Ctx.Start.numel()});
  const Tensor B = Ctx.End.reshaped({1, Ctx.End.numel()});

  Tensor PartStart({1, A.numel()});
  Tensor PartEnd({1, A.numel()});
  for (int64_t J = 0; J < A.numel(); ++J) {
    PartStart[J] = A[J] + Range.T0 * (B[J] - A[J]);
    PartEnd[J] = A[J] + Range.T1 * (B[J] - A[J]);
  }
  const ParamCdf Cdf = makeCdf(Cfg.Distribution);
  const double Weight = Cdf(Range.T1) - Cdf(Range.T0);

  std::vector<Region> Initial;
  Initial.push_back(
      makeSegmentRegion(PartStart, PartEnd, Weight, Range.T0, Range.T1));

  const GenProve GP(Cfg);
  const PropagatedState State =
      GP.propagateRegionsFrom(Ctx.Pipeline, Ctx.InputShape, std::move(Initial));

  ShardResult Out;
  Out.Shard = Plan.Shard;
  Out.Attempt = Plan.Attempt;
  Out.Rung = static_cast<int64_t>(Plan.Rung);
  Out.Seconds = State.Seconds;
  Out.PeakBytes = static_cast<int64_t>(State.PeakBytes);
  Out.MaxRegions = State.Stats.MaxRegions;
  Out.MaxNodes = State.Stats.MaxNodes;
  Out.Retries = State.Retries;
  Out.Rollbacks = State.Stats.Rollbacks;
  Out.FallbackBoxLayers = State.Stats.FallbackBoxLayers;
  Out.QuarantinedMass = State.Stats.QuarantinedMass;
  Out.Degraded = State.Degraded;
  Out.DeadlineHit = State.Stats.DeadlineHit;
  Out.OutOfMemory = State.OutOfMemory;
  Out.Specs.reserve(Ctx.Specs.size());
  for (const OutputSpec &Spec : Ctx.Specs) {
    const ProbBounds Pb = GP.boundsFor(State, Spec);
    ShardSpecBounds SB;
    SB.Lower = Pb.Lower;
    SB.Upper = Pb.Upper;
    SB.Degraded = Pb.Degraded;
    Out.Specs.push_back(SB);
  }
  return Out;
}

} // namespace genprove
