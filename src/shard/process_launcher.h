//===- shard/process_launcher.h - fork/exec shard workers ------*- C++ -*-===//
///
/// \file
/// Process-isolated shard workers, both sides. The coordinator side is
/// superviseShardJob: it writes one ShardJob file and supervises one
/// worker process per shard through ProcessShardLauncher, which forks and
/// re-execs this binary (`/proc/self/exe`) with `--worker-request FILE
/// --shard-worker K --shard-attempt A --shard-rung R`, captures the
/// worker's stdout through a non-blocking pipe, and classifies the exit
/// status:
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
/// The worker side is runShardWorker, the first call in the main of
/// `genprove_cli` and `genprove_serve`. Live worker pids and job files are
/// mirrored into an async-signal-safe registry so the CLI's
/// SIGINT/SIGTERM handler can kill the whole brood and remove the job
/// file before exiting.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_SHARD_PROCESS_LAUNCHER_H
#define GENPROVE_SHARD_PROCESS_LAUNCHER_H

#include "src/shard/protocol.h"
#include "src/shard/supervisor.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace genprove {

/// Kill every live shard worker with \p Signal. Async-signal-safe: callable
/// from the coordinator's SIGINT/SIGTERM handler.
void killAllShardChildren(int Signal);

/// Remove every live job file of a supervised run. Async-signal-safe, for
/// the same handler.
void removeShardJobFiles();

/// Fork/exec launcher over this very binary.
class ProcessShardLauncher : public ShardWorkerLauncher {
public:
  /// \p BaseArgs is the worker argv *without* argv[0] and without the
  /// shard-attempt flags (`--worker-request FILE`); launch() appends
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

/// Coordinator side: certify \p Job's shards in supervised worker
/// processes. Writes the job to `/tmp/genprove-job-<pid>-<seq>.json`, runs
/// a ShardSupervisor (with \p Policy, its NumShards taken from the job,
/// and \p Admit) over a ProcessShardLauncher re-execing \p ExePath, bounds
/// exhausted shards with the in-process interval-box runShardAttempt over
/// \p Pipeline, and removes the file. The job's sound flag and heartbeat
/// interval are set here from the process's rounding mode and the
/// policy's heartbeat timeout. nullopt when the job file cannot be
/// written.
std::optional<ShardRunSummary>
superviseShardJob(ShardJob Job, const std::vector<const Layer *> &Pipeline,
                  ShardPolicy Policy, const std::string &ExePath,
                  ShardSupervisor::AdmitFn Admit = {});

/// Worker side. When \p Argv is `--worker-request FILE` plus the
/// launcher's `--shard-worker K --shard-attempt A --shard-rung R`, run
/// that attempt and return the process exit code; nullopt for any other
/// command line. The worker validates the job (exit 2 on a damaged job,
/// an unloadable network or a shape that does not fit), fires the job's
/// injected fault, heartbeats while runShardAttempt propagates, and ends
/// the way ProcessShardLauncher classifies: exit 3 with no result line on
/// simulated-device OOM, otherwise one result line carrying the requested
/// telemetry, with exit 4 when the result is degraded and 0 when not.
std::optional<int> runShardWorker(int Argc, char **Argv);

} // namespace genprove

#endif // GENPROVE_SHARD_PROCESS_LAUNCHER_H
