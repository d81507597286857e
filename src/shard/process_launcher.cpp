//===- shard/process_launcher.cpp -----------------------------*- C++ -*-===//

#include "src/shard/process_launcher.h"

#include "src/obs/log.h"
#include "src/shard/protocol.h"
#include "src/util/io.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace genprove {

namespace {

/// Async-signal-safe mirror of the live worker pids. A fixed array of
/// atomics: the signal handler may only loop and ::kill, never allocate.
constexpr size_t MaxTrackedChildren = 256;
std::atomic<pid_t> TrackedChildren[MaxTrackedChildren];

void trackChild(pid_t Pid) {
  for (size_t I = 0; I < MaxTrackedChildren; ++I) {
    pid_t Expected = 0;
    if (TrackedChildren[I].compare_exchange_strong(Expected, Pid))
      return;
  }
}

void untrackChild(pid_t Pid) {
  for (size_t I = 0; I < MaxTrackedChildren; ++I) {
    pid_t Expected = Pid;
    if (TrackedChildren[I].compare_exchange_strong(Expected, 0))
      return;
  }
}

/// Heartbeat emitter: one protocol line every IntervalMs until destroyed.
/// Each beat carries the liveness digest (charged state bytes, current
/// layer) sampled from the RunLiveness atomics the propagation loop
/// refreshes — a hung worker keeps beating with a frozen digest, which is
/// exactly how the supervisor tells "hung but heartbeating" from "slow".
class HeartbeatThread {
public:
  HeartbeatThread(int64_t Shard, double IntervalMs) {
    Worker = std::thread([this, Shard, IntervalMs] {
      int64_t Seq = 0;
      while (!Stop.load(std::memory_order_acquire)) {
        RunLiveness &Live = RunLiveness::global();
        const std::string Line = encodeShardHeartbeat(
            Shard, Seq++, Live.StateBytes.load(std::memory_order_relaxed),
            Live.CurrentLayer.load(std::memory_order_relaxed));
        std::fprintf(stdout, "%s\n", Line.c_str());
        std::fflush(stdout);
        // Sleep in small slices so shutdown is prompt.
        double Left = IntervalMs;
        while (Left > 0.0 && !Stop.load(std::memory_order_acquire)) {
          const double Slice = std::min(Left, 10.0);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(Slice));
          Left -= Slice;
        }
      }
    });
  }
  ~HeartbeatThread() {
    Stop.store(true, std::memory_order_release);
    if (Worker.joinable())
      Worker.join();
  }
  HeartbeatThread(const HeartbeatThread &) = delete;
  HeartbeatThread &operator=(const HeartbeatThread &) = delete;

private:
  std::atomic<bool> Stop{false};
  std::thread Worker;
};

} // namespace

void killAllShardChildren(int Signal) {
  for (size_t I = 0; I < MaxTrackedChildren; ++I) {
    const pid_t Pid = TrackedChildren[I].load(std::memory_order_relaxed);
    if (Pid > 0)
      ::kill(Pid, Signal);
  }
}

ProcessShardLauncher::ProcessShardLauncher(std::string ExePath,
                                           std::vector<std::string> BaseArgs)
    : ExePath(std::move(ExePath)), BaseArgs(std::move(BaseArgs)) {}

ProcessShardLauncher::~ProcessShardLauncher() {
  for (auto &Entry : Children) {
    Child &C = Entry.second;
    if (C.Pid > 0) {
      ::kill(C.Pid, SIGKILL);
      int Status = 0;
      (void)waitpid(C.Pid, &Status, 0);
      untrackChild(C.Pid);
    }
    if (C.PipeFd >= 0)
      ::close(C.PipeFd);
  }
}

bool ProcessShardLauncher::launch(const AttemptPlan &Plan) {
  int Fds[2];
  if (::pipe(Fds) != 0)
    return false;

  std::vector<std::string> Args = BaseArgs;
  Args.push_back("--shard-worker");
  Args.push_back(std::to_string(Plan.Shard));
  Args.push_back("--shard-attempt");
  Args.push_back(std::to_string(Plan.Attempt));
  Args.push_back("--shard-rung");
  Args.push_back(std::to_string(static_cast<int64_t>(Plan.Rung)));

  std::vector<char *> Argv;
  Argv.reserve(Args.size() + 2);
  Argv.push_back(const_cast<char *>(ExePath.c_str()));
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  const pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return false;
  }
  if (Pid == 0) {
    // Child: protocol messages go to the pipe, human noise stays on the
    // inherited stderr. Default signal dispositions so the supervisor's
    // SIGKILL/SIGTERM semantics are undisturbed by coordinator handlers.
    ::close(Fds[0]);
    if (::dup2(Fds[1], STDOUT_FILENO) < 0)
      _exit(127);
    ::close(Fds[1]);
    signal(SIGINT, SIG_DFL);
    signal(SIGTERM, SIG_DFL);
    ::execv(ExePath.c_str(), Argv.data());
    _exit(127); // exec failed; classified as Crash by the parent
  }

  ::close(Fds[1]);
  const int Flags = ::fcntl(Fds[0], F_GETFL, 0);
  ::fcntl(Fds[0], F_SETFL, Flags | O_NONBLOCK);

  Child C;
  C.Pid = Pid;
  C.PipeFd = Fds[0];
  trackChild(Pid);
  Children[Plan.Shard] = std::move(C);
  return true;
}

bool ProcessShardLauncher::drainPipe(Child &C) {
  bool Heartbeat = false;
  if (C.PipeFd < 0)
    return false;
  char Buf[4096];
  while (true) {
    const ssize_t N = readChunk(C.PipeFd, Buf, sizeof(Buf));
    if (N > 0) {
      C.Framer.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    break; // EOF or EAGAIN
  }
  std::string Line;
  while (true) {
    const LineFramer::Frame F = C.Framer.next(Line);
    if (F == LineFramer::Frame::None)
      break;
    if (F == LineFramer::Frame::Oversized) {
      ++C.WireErrors; // typed: a discarded over-cap line, not silence
      continue;
    }
    switch (classifyShardMessage(Line)) {
    case ShardMessageKind::Heartbeat: {
      Heartbeat = true;
      ShardHeartbeat Beat;
      if (decodeShardHeartbeat(Line, Beat)) {
        if (Beat.StateBytes >= 0)
          C.BeatStateBytes = Beat.StateBytes;
        if (Beat.Layer >= 0)
          C.BeatLayer = Beat.Layer;
      }
      break;
    }
    case ShardMessageKind::Result:
      C.ResultLine = Line;
      break;
    case ShardMessageKind::Invalid:
      ++C.WireErrors;
      break; // stray stdout noise; counted, the result must still parse
    }
  }
  C.SawHeartbeat = C.SawHeartbeat || Heartbeat;
  return Heartbeat;
}

WorkerPoll ProcessShardLauncher::classifyExit(Child &C, int Status) {
  WorkerPoll P;
  P.Finished = true;
  if (WIFSIGNALED(Status)) {
    P.Outcome = WTERMSIG(Status) == SIGKILL ? AttemptOutcome::OomKill
                                            : AttemptOutcome::Crash;
    return P;
  }
  const int Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  if (Code == 3) {
    P.Outcome = AttemptOutcome::Oom;
    return P;
  }
  if (Code == 2) {
    P.Outcome = AttemptOutcome::Fatal;
    return P;
  }
  if (Code != 0 && Code != 4) {
    P.Outcome = AttemptOutcome::Crash;
    return P;
  }
  if (!C.ResultLine.empty() &&
      decodeShardResult(C.ResultLine, P.Result, nullptr, &P.Telemetry)) {
    P.Outcome = AttemptOutcome::Ok;
    return P;
  }
  P.Outcome = AttemptOutcome::Protocol;
  return P;
}

WorkerPoll ProcessShardLauncher::poll(int64_t Shard) {
  WorkerPoll P;
  auto It = Children.find(Shard);
  if (It == Children.end()) {
    P.Finished = true;
    P.Outcome = AttemptOutcome::Crash;
    return P;
  }
  Child &C = It->second;
  P.HeartbeatSeen = drainPipe(C);
  P.BeatStateBytes = C.BeatStateBytes;
  P.BeatLayer = C.BeatLayer;

  int Status = 0;
  const pid_t R = ::waitpid(C.Pid, &Status, WNOHANG);
  if (R == 0)
    return P; // still running
  // Exited (or waitpid failed, treated as gone): drain the tail of the
  // pipe — the result line usually lands in the same quantum as the exit.
  const bool TailBeat = drainPipe(C);
  const bool Beat = P.HeartbeatSeen || TailBeat;
  untrackChild(C.Pid);
  if (C.PipeFd >= 0)
    ::close(C.PipeFd);
  P = classifyExit(C, R == C.Pid ? Status : 0);
  if (R != C.Pid && P.Outcome == AttemptOutcome::Ok) {
    // waitpid error with a decodable result: accept it, it is sound.
  } else if (R != C.Pid && P.Outcome != AttemptOutcome::Ok) {
    P.Outcome = AttemptOutcome::Crash;
  }
  P.HeartbeatSeen = Beat;
  Children.erase(It);
  return P;
}

void ProcessShardLauncher::kill(int64_t Shard) {
  auto It = Children.find(Shard);
  if (It == Children.end())
    return;
  Child &C = It->second;
  if (C.Pid > 0) {
    ::kill(C.Pid, SIGKILL);
    int Status = 0;
    (void)waitpid(C.Pid, &Status, 0);
    untrackChild(C.Pid);
  }
  if (C.PipeFd >= 0)
    ::close(C.PipeFd);
  Children.erase(It);
}

int runWorkerAttempt(const ShardWorkContext &Ctx, const AttemptPlan &Plan,
                     double HeartbeatMs,
                     const std::function<ShardTelemetry()> &Telemetry,
                     const std::function<void()> &Stall) {
  ShardResult Result;
  {
    HeartbeatThread Beat(Plan.Shard, HeartbeatMs);
    if (Stall)
      Stall();
    Result = runShardAttempt(Ctx, Plan);
  }
  if (Result.OutOfMemory) {
    // No sound partial bounds to report; exit 3 tells the supervisor this
    // attempt is retryable at a higher rung. (The attempt's telemetry dies
    // with it — an accepted loss; the retry's survives.)
    std::fprintf(stderr, "shard %lld: out of memory\n",
                 static_cast<long long>(Plan.Shard));
    return 3;
  }
  const ShardTelemetry Tel = Telemetry ? Telemetry() : ShardTelemetry();
  const std::string Line =
      encodeShardResult(Result, Tel.empty() ? nullptr : &Tel);
  std::fprintf(stdout, "%s\n", Line.c_str());
  std::fflush(stdout);
  return Result.Degraded ? 4 : 0;
}

} // namespace genprove
