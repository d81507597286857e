//===- shard/process_launcher.h - fork/exec worker launcher ----*- C++ -*-===//
///
/// \file
/// The production ShardWorkerLauncher: each attempt forks and re-execs
/// this binary (`/proc/self/exe`) with `--shard-worker K` plus the
/// attempt's rung/attempt flags, captures the worker's stdout through a
/// non-blocking pipe, and classifies the exit status:
///
///   exit 0/4 + a valid result line  → Ok
///   exit 3 (simulated-device OOM)   → Oom       (retryable)
///   exit 2 (usage/config error)     → Fatal     (retrying cannot help)
///   SIGKILL                         → OomKill   (the kernel OOM killer)
///   any other signal                → Crash
///   clean exit, unparseable result  → Protocol
///
/// fork-without-exec is deliberately avoided: the coordinator may hold a
/// live thread pool, and a forked child inheriting its locked state would
/// deadlock in malloc. Re-exec gives every worker a pristine process.
///
/// Live worker pids are mirrored into an async-signal-safe registry so the
/// CLI's SIGINT/SIGTERM handler can kill the whole brood before exiting.
///
/// runWorkerAttempt is the worker side of the same contract, shared by
/// `genprove_cli --shard-worker` and `genprove_serve --worker-request`.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_SHARD_PROCESS_LAUNCHER_H
#define GENPROVE_SHARD_PROCESS_LAUNCHER_H

#include "src/shard/protocol.h"
#include "src/shard/supervisor.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

namespace genprove {

/// Kill every live shard worker with \p Signal. Async-signal-safe: callable
/// from the coordinator's SIGINT/SIGTERM handler.
void killAllShardChildren(int Signal);

/// Fork/exec launcher over this very binary.
class ProcessShardLauncher : public ShardWorkerLauncher {
public:
  /// \p BaseArgs is the worker argv *without* argv[0] and without the
  /// shard-attempt flags (the coordinator's own args minus the
  /// coordinator-only ones); launch() appends
  /// `--shard-worker K --shard-attempt A --shard-rung R`.
  /// \p ExePath is the binary to exec (normally /proc/self/exe).
  ProcessShardLauncher(std::string ExePath, std::vector<std::string> BaseArgs);
  ~ProcessShardLauncher() override;

  bool launch(const AttemptPlan &Plan) override;
  WorkerPoll poll(int64_t Shard) override;
  void kill(int64_t Shard) override;

private:
  struct Child {
    pid_t Pid = -1;
    int PipeFd = -1; ///< non-blocking read end of the worker's stdout
    /// Shared newline framer: partial lines carry across polls, and an
    /// over-cap line (a wedged worker spraying garbage) is discarded with
    /// a typed marker instead of growing the buffer without bound. The
    /// cap is generous — result lines carry full telemetry snapshots.
    LineFramer Framer{1u << 28};
    std::string ResultLine; ///< last complete result message seen
    bool SawHeartbeat = false;
    int64_t BeatStateBytes = -1; ///< latest heartbeat liveness digest
    int64_t BeatLayer = -1;
    uint64_t WireErrors = 0; ///< oversized/garbage lines from this worker
  };

  /// Drain available pipe bytes into the child's buffer and consume
  /// complete lines; returns true when any heartbeat arrived.
  bool drainPipe(Child &C);

  /// Reap an exited child and classify the attempt.
  WorkerPoll classifyExit(Child &C, int Status);

  std::string ExePath;
  std::vector<std::string> BaseArgs;
  std::map<int64_t, Child> Children;
};

/// Worker side: run \p Plan on \p Ctx while a heartbeat thread prints one
/// heartbeat line (with the RunLiveness digest) every \p HeartbeatMs, then
/// end the attempt the way ProcessShardLauncher classifies it. Returns the
/// exit code: 3 with no result line on simulated-device OOM; otherwise one
/// result line on stdout, carrying \p Telemetry's capture when non-empty,
/// and 4 when the result is degraded, else 0. \p Stall, when set, runs
/// inside the heartbeat scope before the attempt (an injected slow fault:
/// the worker stays visibly alive through it).
int runWorkerAttempt(const ShardWorkContext &Ctx, const AttemptPlan &Plan,
                     double HeartbeatMs,
                     const std::function<ShardTelemetry()> &Telemetry = {},
                     const std::function<void()> &Stall = {});

} // namespace genprove

#endif // GENPROVE_SHARD_PROCESS_LAUNCHER_H
