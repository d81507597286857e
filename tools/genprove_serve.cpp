//===- tools/genprove_serve.cpp - The verification daemon ------*- C++ -*-===//
///
/// \file
/// Long-running verification daemon (docs/SERVING.md): loads the model
/// zoo once, listens on a Unix-domain socket for newline-JSON verify
/// requests, and serves them concurrently under admission control,
/// per-request QoS degradation, and fault containment.
///
///   genprove_serve --socket /tmp/genprove.sock \
///       --net tiny=decoder.gpn+classifier.gpn --budget-mb 512 \
///       --max-concurrent 8 --log-out serve_log.jsonl
///
/// SIGTERM/SIGINT drain gracefully: the listener closes, queued requests
/// are shed with explicit OVERLOADED responses, in-flight requests finish
/// under --drain-deadline-ms, and every configured telemetry artifact is
/// flushed before exit. A second signal exits at once (code 5), killing
/// the --isolate workers and removing their job files first.
///
/// By default each request runs on its connection thread, where the
/// resilient engine contains OOM, non-finite values and deadlines. With
/// --isolate each propagation runs in a supervised fork/exec'd worker
/// process: this binary re-exec'd with `--worker-request JOB`, whose first
/// act is runShardWorker (shard/process_launcher.h), the same worker
/// entry `genprove_cli --shards` uses. So even a propagation that crashes,
/// hangs or corrupts its own heap cannot take the daemon down.
///
//===----------------------------------------------------------------------===//

#include "src/domains/prop_cache.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/server.h"
#include "src/shard/process_launcher.h"
#include "src/util/fp.h"
#include "src/util/parse.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

using namespace genprove;

namespace {

[[noreturn]] void usage(const char *Error = nullptr) {
  if (Error)
    std::fprintf(stderr, "genprove_serve: %s\n\n", Error);
  std::fprintf(
      stderr,
      "usage: genprove_serve --socket PATH --net NAME=PATH[+PATH2...] "
      "[options]\n"
      "\n"
      "Fault-hardened verification daemon: newline-JSON over a Unix\n"
      "socket (protocol in docs/SERVING.md). Models load once; requests\n"
      "run concurrently under admission control and per-request QoS.\n"
      "\n"
      "required:\n"
      "  --socket PATH         Unix-domain socket to listen on\n"
      "  --net NAME=P[+P2...]  register a model pipeline (repeatable)\n"
      "\n"
      "admission control:\n"
      "  --budget-mb N         daemon-wide simulated-device budget,\n"
      "                        partitioned among admitted requests\n"
      "                        (default: unlimited)\n"
      "  --max-concurrent N    concurrently-running requests (default 4)\n"
      "  --max-queue N         bounded wait queue beyond those (default 16)\n"
      "  --queue-wait-ms T     longest a request may queue before it is\n"
      "                        shed OVERLOADED (default 5000)\n"
      "  --max-connections N   concurrent client connections (default 64)\n"
      "  --max-line-bytes N    request-line frame cap; longer lines get\n"
      "                        a typed 'oversized' error (default 1 MiB)\n"
      "\n"
      "QoS (deadline -> rung ladder; docs/SERVING.md):\n"
      "  --resilient-floor-ms T  below T remaining, start at the Resilient\n"
      "                          rung (default 250)\n"
      "  --box-floor-ms T        below T remaining (incl. 0), answer with\n"
      "                          the sound interval-box bound (default 50)\n"
      "  --default-run-ms T      engine deadline for requests that carry\n"
      "                          none (default 30000)\n"
      "\n"
      "fault containment (in process, the resilient engine contains\n"
      "OOM, non-finite values and deadlines; crashes and hangs need\n"
      "--isolate):\n"
      "  --isolate             run each propagation in a supervised\n"
      "                        fork/exec worker process instead of on the\n"
      "                        connection thread\n"
      "  --request-retries R   with --isolate: supervised retries per\n"
      "                        request before the interval-box fallback\n"
      "                        (default 2)\n"
      "  --heartbeat-ms T      with --isolate: kill a worker silent for\n"
      "                        T ms (default 2000)\n"
      "  --write-timeout-ms T  drop a client whose socket blocks a\n"
      "                        response for T ms (default 5000)\n"
      "  --allow-inject        honor the request \"inject\" field (CI\n"
      "                        fault smoke only; crash, hang and oomkill\n"
      "                        need --isolate)\n"
      "\n"
      "propagation cache (docs/SERVING.md):\n"
      "  --cache-mb N          propagation-cache budget: memoize per-layer\n"
      "                        abstract states so repeated/prefix-shared\n"
      "                        requests warm-start mid-network (default 0\n"
      "                        = off)\n"
      "\n"
      "lifecycle and observability:\n"
      "  --drain-deadline-ms T SIGTERM waits T ms for in-flight requests\n"
      "                        (default 10000)\n"
      "  --sound               directed rounding for every request\n"
      "  --threads N           engine thread-pool size, N >= 1 (default:\n"
      "                        GENPROVE_THREADS, else the hardware\n"
      "                        concurrency)\n"
      "  --metrics-out PATH / --prom-out PATH / --log-out PATH /\n"
      "  --trace-out PATH      telemetry artifacts, flushed on drain and\n"
      "                        on fatal signals; the JSONL log appends\n"
      "                        incrementally (ring-buffered in memory)\n"
      "  --log-capacity N      in-memory log ring size (default 8192)\n"
      "  --run-id ID           run id stamped on every log line\n");
  std::exit(2);
}

/// A numeric flag value; a malformed number is a usage error (exit 2).
template <typename T> T numberArg(const std::string &Flag,
                                  const std::string &Text) {
  T Value{};
  if (!parseNumber(Text, Value))
    usage((Flag + " wants a number, got '" + Text + "'").c_str());
  return Value;
}

std::string makeRunId() {
  const auto Now = std::chrono::system_clock::now().time_since_epoch();
  const auto Us =
      std::chrono::duration_cast<std::chrono::microseconds>(Now).count();
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%llx-%x",
                static_cast<unsigned long long>(Us),
                static_cast<unsigned>(::getpid()));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Signal handling: one atomic store; the accept loop notices within its
// poll tick and runs the drain sequence on the main thread.
//===----------------------------------------------------------------------===//

std::atomic<Server *> GlobalServer{nullptr};
std::atomic<int> ForcedExits{0};

void handleShutdownSignal(int) {
  // First signal: graceful drain. A second signal while draining means
  // the operator wants out *now* — kill the --isolate workers, remove
  // their job files, flush what we have and exit hard.
  if (ForcedExits.fetch_add(1) > 0) {
    killAllShardChildren(SIGKILL);
    removeShardJobFiles();
    ObsFlushGuard::flushNow();
    _exit(5);
  }
  if (Server *S = GlobalServer.load(std::memory_order_acquire))
    S->requestStop();
}

} // namespace

int main(int Argc, char **Argv) {
  // An --isolate worker process: run its shard attempt and exit.
  if (const std::optional<int> Exit = runShardWorker(Argc, Argv))
    return *Exit;

  ServeConfig Cfg;
  std::vector<std::string> NetSpecs;
  std::string MetricsOutPath, PromOutPath, LogOutPath, TraceOutPath, RunId;
  int64_t LogCapacity = 8192;

  auto NextArg = [&](int &I) -> std::string {
    if (I + 1 >= Argc)
      usage("missing value for option");
    return Argv[++I];
  };
  auto Int = [&](const std::string &Flag, int &I) {
    return numberArg<int64_t>(Flag, NextArg(I));
  };
  auto Ms = [&](const std::string &Flag, int &I) {
    return numberArg<double>(Flag, NextArg(I)) / 1000.0;
  };
  auto Mb = [&](const std::string &Flag, int &I) {
    return static_cast<size_t>(numberArg<uint64_t>(Flag, NextArg(I))) << 20;
  };
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--socket") {
      Cfg.SocketPath = NextArg(I);
    } else if (Arg == "--net") {
      NetSpecs.push_back(NextArg(I));
    } else if (Arg == "--budget-mb") {
      Cfg.Admission.BudgetBytes = Mb(Arg, I);
    } else if (Arg == "--max-concurrent") {
      Cfg.Admission.MaxConcurrent = Int(Arg, I);
    } else if (Arg == "--max-queue") {
      Cfg.Admission.MaxQueue = Int(Arg, I);
    } else if (Arg == "--queue-wait-ms") {
      Cfg.Admission.MaxQueueWaitSeconds = Ms(Arg, I);
    } else if (Arg == "--max-connections") {
      Cfg.MaxConnections = Int(Arg, I);
    } else if (Arg == "--max-line-bytes") {
      Cfg.MaxLineBytes = numberArg<uint64_t>(Arg, NextArg(I));
    } else if (Arg == "--resilient-floor-ms") {
      Cfg.Qos.ResilientFloorSeconds = Ms(Arg, I);
    } else if (Arg == "--box-floor-ms") {
      Cfg.Qos.BoxFloorSeconds = Ms(Arg, I);
    } else if (Arg == "--default-run-ms") {
      Cfg.Qos.DefaultRunSeconds = Ms(Arg, I);
    } else if (Arg == "--isolate") {
      Cfg.Isolate = true;
    } else if (Arg == "--request-retries") {
      Cfg.RequestRetries = Int(Arg, I);
    } else if (Arg == "--heartbeat-ms") {
      Cfg.HeartbeatTimeoutSeconds = Ms(Arg, I);
    } else if (Arg == "--write-timeout-ms") {
      Cfg.WriteTimeoutSeconds = Ms(Arg, I);
    } else if (Arg == "--drain-deadline-ms") {
      Cfg.DrainDeadlineSeconds = Ms(Arg, I);
    } else if (Arg == "--cache-mb") {
      PropagationCache::global().configure(Mb(Arg, I));
    } else if (Arg == "--allow-inject") {
      Cfg.AllowInject = true;
    } else if (Arg == "--sound") {
      Cfg.SoundMode = true;
    } else if (Arg == "--threads") {
      const int64_t Threads = Int(Arg, I);
      if (Threads < 1)
        usage("--threads wants N >= 1");
      ThreadPool::global().setThreads(Threads);
    } else if (Arg == "--metrics-out") {
      MetricsOutPath = NextArg(I);
    } else if (Arg == "--prom-out") {
      PromOutPath = NextArg(I);
    } else if (Arg == "--log-out") {
      LogOutPath = NextArg(I);
    } else if (Arg == "--trace-out") {
      TraceOutPath = NextArg(I);
    } else if (Arg == "--log-capacity") {
      LogCapacity = Int(Arg, I);
    } else if (Arg == "--run-id") {
      RunId = NextArg(I);
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
    } else {
      usage(("unknown option: " + Arg).c_str());
    }
  }

  if (Cfg.SocketPath.empty() || NetSpecs.empty())
    usage("--socket and at least one --net are required");
  if (Cfg.SoundMode)
    setSoundRounding(true);

  // Observability: same opt-in planes as the CLI, but configured for a
  // long-lived process — the in-memory log is a bounded ring and the
  // JSONL artifact appends incrementally instead of rewriting.
  if (!TraceOutPath.empty())
    setTraceEnabled(true);
  // Metrics are always on in daemon mode (one relaxed atomic per point):
  // /stats serves the live registry whether or not an artifact path is
  // configured.
  setMetricsEnabled(true);
  if (!LogOutPath.empty()) {
    setLogEnabled(true);
    EventLog::global().setCapacity(static_cast<size_t>(
        std::max<int64_t>(LogCapacity, 64)));
    if (RunId.empty())
      RunId = makeRunId();
    EventLog::global().setRunId(RunId);
  }
  {
    ObsFlushGuard::Paths FlushTo;
    FlushTo.Trace = TraceOutPath;
    FlushTo.Metrics = MetricsOutPath;
    FlushTo.Prom = PromOutPath;
    FlushTo.Log = LogOutPath;
    FlushTo.AppendLog = true;
    ObsFlushGuard::configure(FlushTo);
  }
  ObsFlushGuard FlushOnExit;

  ModelRegistry Registry;
  for (const std::string &Spec : NetSpecs) {
    std::string Err;
    if (!Registry.registerModel(Spec, &Err)) {
      std::fprintf(stderr, "genprove_serve: %s\n", Err.c_str());
      return 2;
    }
  }

  Server Daemon(Cfg, Registry);
  GlobalServer.store(&Daemon, std::memory_order_release);
  std::signal(SIGINT, handleShutdownSignal);
  std::signal(SIGTERM, handleShutdownSignal);
  std::signal(SIGHUP, handleShutdownSignal); // a dying controlling shell
                                             // drains too, not hard-kills

  std::fprintf(stderr, "genprove_serve: listening on %s (%zu model%s%s)\n",
               Cfg.SocketPath.c_str(), Registry.size(),
               Registry.size() == 1 ? "" : "s",
               Cfg.Isolate ? ", isolated workers" : "");
  const bool Ok = Daemon.run();
  GlobalServer.store(nullptr, std::memory_order_release);
  return Ok ? 0 : 1;
}
