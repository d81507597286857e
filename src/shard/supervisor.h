//===- shard/supervisor.h - Shard supervision and retry ladder -*- C++ -*-===//
///
/// \file
/// The supervision layer of the sharded certification path, run by
/// `genprove_cli --shards` and `genprove_serve --isolate` alike through
/// superviseShardJob (shard/process_launcher.h): shard k certifies piece k
/// of the input-parameter range (segmentPiece), each attempt runs through
/// an abstract ShardWorkerLauncher, and the supervisor babysits the
/// workers with heartbeats, per-shard deadlines and exit-status
/// classification. A failed attempt is retried with exponential backoff,
/// each retry escalating the *supervision rung*:
///
///   attempt 0  Configured   — the user's exact configuration;
///   attempt 1  Resilient    — the PR-3 degradation ladder switched on, so
///                             in-process OOM/NaN degrade instead of dying;
///   attempt 2+ IntervalBox  — ResilienceConfig::StartAtFullBox: the whole
///                             pipeline runs budget-exempt interval
///                             arithmetic, the cheapest sound analysis.
///
/// A shard that exhausts its retry budget is bounded by the coordinator's
/// own in-process interval-box fallback, so the merged certificate is
/// always sound — just DEGRADED. The scheduler is a pure state machine
/// over an injected clock, so every retry/backoff/escalation decision is
/// unit-testable without processes or real time (tests/shard_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_SHARD_SUPERVISOR_H
#define GENPROVE_SHARD_SUPERVISOR_H

#include "src/core/genprove.h"
#include "src/shard/protocol.h"
#include "src/shard/shard.h"

#include <functional>
#include <string>
#include <vector>

namespace genprove {

/// The supervision rung a worker attempt runs at (distinct from the
/// in-process DegradeRung, which can still climb *within* an attempt).
/// Ordered by increasing coarseness, so the scheduler's rung-floor maximum
/// and the escalation increment both move toward IntervalBox.
enum class ShardRung : uint8_t {
  Configured = 0,
  Resilient = 1,
  IntervalBox = 2,
};

/// Rung for the Nth attempt at a shard (0-based): 0 → Configured,
/// 1 → Resilient, 2+ → IntervalBox.
ShardRung rungForAttempt(int64_t Attempt);

/// Display name ("configured", "resilient", "interval-box").
const char *shardRungName(ShardRung R);

/// The rung with numeric value \p Value (a ShardResult::Rung or a
/// --shard-rung argument), clamped to [Configured, IntervalBox].
ShardRung shardRungFromInt(int64_t Value);

/// How a worker attempt ended, as classified by the launcher.
enum class AttemptOutcome : uint8_t {
  Ok,       ///< clean exit with a valid result message
  Crash,    ///< killed by a signal other than SIGKILL / abnormal exit
  Hang,     ///< no heartbeat (or deadline blown) — killed by the supervisor
  OomKill,  ///< SIGKILL, the kernel OOM killer's signature
  Oom,      ///< worker reported simulated-device OOM (exit 3) — retryable
  Protocol, ///< exited cleanly but the result line did not parse
  Fatal,    ///< usage/config error (exit 2) — retrying cannot help
};

const char *attemptOutcomeName(AttemptOutcome O);

/// Everything the scheduler needs to decide retry/backoff/escalation.
struct ShardPolicy {
  int64_t NumShards = 1;
  /// Retries allowed per shard after the first attempt; a shard that
  /// fails MaxRetries + 1 times falls back to the interval-box bound.
  int64_t MaxRetries = 3;
  /// Per-attempt wall-clock budget; 0 = none. A worker that outlives it
  /// is killed and the attempt counts as a Hang.
  double ShardDeadlineSeconds = 0.0;
  /// Kill a worker whose last heartbeat is older than this; 0 disables.
  double HeartbeatTimeoutSeconds = 2.0;
  /// Exponential backoff between retries of one shard:
  /// delay(k) = min(Initial * 2^(k-1), Max) before attempt k.
  double BackoffInitialSeconds = 0.05;
  double BackoffMaxSeconds = 2.0;
  /// Supervisor poll cadence while workers are live.
  double PollIntervalSeconds = 0.01;
  /// Injected clock/sleep for deterministic tests; empty = steady wall
  /// clock and std::this_thread::sleep_for.
  std::function<double()> Clock;
  std::function<void(double)> Sleep;
};

/// One scheduled worker attempt.
struct AttemptPlan {
  int64_t Shard = 0;
  int64_t Attempt = 0; ///< 0-based
  ShardRung Rung = ShardRung::Configured;
  double NotBeforeSeconds = 0.0; ///< earliest launch time (scheduler clock)
};

/// Pure retry/backoff/escalation state machine. All times are seconds on
/// the supervisor's clock (0 = supervision start). Not thread-safe; the
/// supervisor drives it from one thread.
class ShardScheduler {
public:
  explicit ShardScheduler(const ShardPolicy &Policy);

  /// Pop one attempt whose backoff has elapsed at time \p Now; false when
  /// nothing is ready. The popped shard is considered running until
  /// recordSuccess/recordFailure.
  bool nextReady(double Now, AttemptPlan &Plan);

  void recordSuccess(int64_t Shard);

  /// Record a failed attempt: schedules the retry (backoff from \p Now,
  /// escalated rung), or marks the shard exhausted when the retry budget
  /// is spent — immediately for Fatal outcomes, which retrying cannot fix.
  void recordFailure(int64_t Shard, AttemptOutcome Outcome, double Now);

  /// Raise the shard's rung floor without consuming an attempt (used when
  /// coordinator-side admission rejects a Configured-rung launch).
  void escalate(int64_t Shard);

  /// Shards still waiting to launch (not running, not resolved).
  bool pendingWork() const;

  /// Every shard either succeeded or exhausted its budget.
  bool allResolved() const;

  /// Earliest NotBefore among pending shards; +inf when none pending.
  double nextReadyTime() const;

  std::vector<int64_t> exhaustedShards() const;

  int64_t totalRetries() const { return Retries; }

  /// Backoff before retry attempt \p Attempt (1-based); exposed for the
  /// deterministic scheduling tests.
  double backoffDelay(int64_t Attempt) const;

private:
  enum class State : uint8_t { Pending, Running, Done, Exhausted };

  struct Slot {
    State S = State::Pending;
    int64_t Attempt = 0;
    double NotBefore = 0.0;
    ShardRung RungFloor = ShardRung::Configured;
  };

  ShardRung rungFor(const Slot &Sl) const;

  ShardPolicy Policy;
  std::vector<Slot> Slots;
  int64_t Retries = 0;
};

/// What a launcher reports for one live worker on each poll.
struct WorkerPoll {
  bool Finished = false;
  AttemptOutcome Outcome = AttemptOutcome::Crash;
  ShardResult Result;        ///< valid only when Outcome == Ok
  bool HeartbeatSeen = false; ///< any heartbeat since the previous poll
  /// Telemetry attached to the worker's result message (empty unless
  /// Outcome == Ok and the worker was asked to ship telemetry).
  ShardTelemetry Telemetry;
  /// Latest heartbeat liveness digest; -1 = not reported.
  int64_t BeatStateBytes = -1;
  int64_t BeatLayer = -1;
};

/// Abstraction over "run one shard attempt somewhere". The production
/// implementation fork/execs a worker process on the run's job file
/// (shard/process_launcher.h); tests use scripted launchers.
/// At most one live attempt per shard at a time, keyed by shard index.
class ShardWorkerLauncher {
public:
  virtual ~ShardWorkerLauncher() = default;

  /// Start an attempt; false when the worker could not even be spawned
  /// (counted as a Crash of that attempt).
  virtual bool launch(const AttemptPlan &Plan) = 0;

  /// Non-blocking status check of the shard's live attempt.
  virtual WorkerPoll poll(int64_t Shard) = 0;

  /// Forcibly end the shard's live attempt (heartbeat/deadline kill).
  virtual void kill(int64_t Shard) = 0;
};

/// Outcome of a supervised run: one result per shard (worker-produced or
/// fallback) plus the supervision telemetry the CLI prints and exports.
struct ShardRunSummary {
  std::vector<ShardResult> Results; ///< indexed by shard
  int64_t Restarts = 0;        ///< launches beyond each shard's first
  int64_t Fallbacks = 0;       ///< shards bounded by the fallback
  int64_t HeartbeatMisses = 0; ///< heartbeat-timeout kills
  int64_t Hangs = 0;           ///< heartbeat + deadline kills
  int64_t Crashes = 0;
  int64_t OomKills = 0;
  int64_t Ooms = 0;            ///< worker-reported simulated OOM (exit 3)
  int64_t ProtocolErrors = 0;
  int64_t AdmissionRejects = 0;
  /// Any shard degraded, fell back, or needed a restart. Supervision
  /// events degrade the certificate even when the retry eventually
  /// succeeded: the operator must know the run was not clean.
  bool Degraded = false;
  double Seconds = 0.0;
};

/// End every supervised run of this process the way a forced exit does,
/// but with an answer: while \p On stays set, each ShardSupervisor kills
/// its live workers at its next poll, starts no new attempt and bounds
/// every unresolved shard with its fallback (superviseShardJob then
/// removes the run's job file). A daemon past its drain deadline sets it.
void abandonShardRuns(bool On);

/// The supervision loop: launches ready attempts, polls live workers,
/// enforces heartbeat/deadline kills, retries with backoff, and bounds
/// exhausted shards with the fallback.
class ShardSupervisor {
public:
  /// Sound last-resort bound for one shard (run in the coordinator).
  using FallbackFn = std::function<ShardResult(int64_t Shard)>;
  /// Coordinator-side admission control for Configured-rung launches
  /// (DeviceMemoryModel::tryCharge against the coordinator's budget);
  /// returning false escalates the shard without spawning a doomed worker.
  using AdmitFn = std::function<bool(const AttemptPlan &)>;

  ShardSupervisor(ShardPolicy Policy, ShardWorkerLauncher &Launcher,
                  FallbackFn Fallback, AdmitFn Admit = {});

  ShardRunSummary run();

private:
  struct LiveWorker {
    AttemptPlan Plan;
    double LaunchedAt = 0.0;
    double LastBeat = 0.0;
    /// Coordinator trace clock at launch; spliced worker trace events
    /// (whose timestamps are relative to the worker's own epoch) are
    /// shifted by this so retries and backoff gaps line up on the
    /// coordinator timeline.
    uint64_t LaunchEpochUs = 0;
  };

  ShardPolicy Policy;
  ShardWorkerLauncher &Launcher;
  FallbackFn Fallback;
  AdmitFn Admit;
};

//===----------------------------------------------------------------------===//
// The work a shard attempt actually performs (shared by the worker
// processes, in-process served requests and the coordinator fallback).
//===----------------------------------------------------------------------===//

/// Everything needed to certify one shard: the pipeline, the latent
/// segment, the specs, and a GenProveConfig whose memory budget is already
/// the per-shard slice.
struct ShardWorkContext {
  std::vector<const Layer *> Pipeline;
  Shape InputShape;
  Tensor Start; ///< flat latent endpoints [1, Latent] (or [Latent])
  Tensor End;
  std::vector<OutputSpec> Specs;
  GenProveConfig Config;
  int64_t NumShards = 1;
};

/// The work \p Job describes over its loaded networks \p Pipeline: what a
/// worker runs, what its coordinator's fallback runs, and what an
/// in-process served request runs. When the job carries a fault plan,
/// \p Injector (the caller's, built from that plan) drives the engine.
/// Empty on success, else why the job does not fit the pipeline (a
/// malformed shape, endpoints of another length, an invalid spec, a layer
/// or spec width the shape does not reach).
std::string shardJobContext(const ShardJob &Job,
                            const std::vector<const Layer *> &Pipeline,
                            ShardWorkContext &Ctx,
                            FaultInjector *Injector = nullptr);

/// Run one attempt: restrict the segment to the shard's parameter
/// sub-range (segmentPiece, the partition GenProveConfig::InputSplits uses),
/// apply the supervision rung, propagate, and project per-spec partial
/// bounds. Always probabilistic — the deterministic collapse is only
/// meaningful on the *merged* bounds, so the coordinator applies it after
/// mergeShardResults. Result.OutOfMemory set (with [0,1]-style
/// conservative spec bounds) when the Configured rung hit the budget.
ShardResult runShardAttempt(const ShardWorkContext &Ctx,
                            const AttemptPlan &Plan);

} // namespace genprove

#endif // GENPROVE_SHARD_SUPERVISOR_H
