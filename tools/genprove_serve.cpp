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
/// flushed before exit.
///
/// By default each request runs on its connection thread, where the
/// resilient engine contains OOM, non-finite values and deadlines. With
/// --isolate each propagation runs in a supervised fork/exec'd worker
/// process (this binary re-exec'd with --worker-request), so even a
/// propagation that crashes, hangs or corrupts its own heap cannot take
/// the daemon down.
///
//===----------------------------------------------------------------------===//

#include "src/domains/prop_cache.h"
#include "src/nn/serialize.h"
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
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
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
      "  --threads N           engine thread-pool size\n"
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
  // the operator wants out *now* — flush what we have and exit hard.
  if (ForcedExits.fetch_add(1) > 0) {
    ObsFlushGuard::flushNow();
    _exit(5);
  }
  if (Server *S = GlobalServer.load(std::memory_order_acquire))
    S->requestStop();
}

//===----------------------------------------------------------------------===//
// Worker mode (--isolate): run one request's shard attempt in a pristine
// process. Protocol and exit codes match genprove_cli --shard-worker so
// ProcessShardLauncher's classification applies unchanged.
//===----------------------------------------------------------------------===//

int workerMain(const std::string &SpecPath, int64_t Attempt, int64_t Rung) {
  std::ifstream In(SpecPath);
  std::stringstream Text;
  Text << In.rdbuf();
  ServeWorkerSpec Spec;
  std::string Err;
  if (!In || !decodeServeWorkerSpec(Text.str(), Spec, &Err)) {
    std::fprintf(stderr, "genprove_serve worker: bad spec %s: %s\n",
                 SpecPath.c_str(), Err.c_str());
    return 2;
  }
  Shape InputShape;
  if (!parseShape(Spec.InputShape, InputShape)) {
    std::fprintf(stderr, "genprove_serve worker: bad input shape '%s'\n",
                 Spec.InputShape.c_str());
    return 2;
  }
  if (Spec.Sound)
    setSoundRounding(true);

  std::vector<Sequential> Networks;
  for (const std::string &Path : Spec.NetPaths) {
    std::string Why;
    auto Net = loadNetwork(Path, &Why);
    if (!Net) {
      std::fprintf(stderr, "genprove_serve worker: cannot load %s: %s\n",
                   Path.c_str(), Why.c_str());
      return 2;
    }
    Networks.push_back(std::move(*Net));
  }
  ShardWorkContext Ctx;
  for (const Sequential &Net : Networks)
    Ctx.Pipeline = concatViews(Ctx.Pipeline, Net.view());
  Ctx.InputShape = InputShape;
  const int64_t Latent = static_cast<int64_t>(Spec.Start.size());
  Ctx.Start = Tensor({1, Latent}, Spec.Start);
  Ctx.End = Tensor({1, Latent}, Spec.End);
  for (const std::string &SpecText : Spec.Specs) {
    OutputSpec Parsed;
    if (!parseOutputSpecText(SpecText, Parsed, &Err)) {
      std::fprintf(stderr, "genprove_serve worker: bad spec '%s': %s\n",
                   SpecText.c_str(), Err.c_str());
      return 2;
    }
    Ctx.Specs.push_back(Parsed);
  }
  Ctx.NumShards = 1;
  GenProveConfig &Conf = Ctx.Config;
  Conf.RelaxPercent = Spec.RelaxPercent;
  Conf.ClusterK = Spec.ClusterK;
  Conf.NodeThreshold = Spec.NodeThreshold;
  Conf.Distribution =
      Spec.Arcsine ? ParamDistribution::Arcsine : ParamDistribution::Uniform;
  Conf.MemoryBudgetBytes = Spec.BudgetBytes;
  Conf.Resilience.Enabled = true;
  Conf.Resilience.DeadlineSeconds = Spec.DeadlineSeconds;

  AttemptPlan Plan;
  Plan.Shard = 0;
  Plan.Attempt = Attempt;
  Plan.Rung = shardRungFromInt(Rung);

  // Injected faults fire on attempt 0 only, so the supervised retry
  // demonstrably recovers. Hang sleeps silently *before* the heartbeat
  // thread exists — the supervisor's heartbeat timeout must catch it.
  if (Attempt == 0 && !Spec.Inject.empty()) {
    if (Spec.Inject == "crash")
      std::abort();
    if (Spec.Inject == "oomkill")
      raise(SIGKILL);
    if (Spec.Inject == "hang")
      std::this_thread::sleep_for(std::chrono::seconds(600));
  }

  return runWorkerAttempt(Ctx, Plan,
                          std::clamp(Spec.HeartbeatMs, 10.0, 250.0));
}

} // namespace

int main(int Argc, char **Argv) {
  ServeConfig Cfg;
  std::vector<std::string> NetSpecs;
  std::string MetricsOutPath, PromOutPath, LogOutPath, TraceOutPath, RunId;
  std::string WorkerSpecPath;
  int64_t WorkerAttempt = 0, WorkerRung = 0, LogCapacity = 8192;

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
      ThreadPool::global().setThreads(Int(Arg, I));
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
    } else if (Arg == "--worker-request") {
      WorkerSpecPath = NextArg(I);
    } else if (Arg == "--shard-worker") {
      NextArg(I); // always shard 0; consumed for launcher compatibility
    } else if (Arg == "--shard-attempt") {
      WorkerAttempt = Int(Arg, I);
    } else if (Arg == "--shard-rung") {
      WorkerRung = Int(Arg, I);
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
    } else {
      usage(("unknown option: " + Arg).c_str());
    }
  }

  if (!WorkerSpecPath.empty())
    return workerMain(WorkerSpecPath, WorkerAttempt, WorkerRung);

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
