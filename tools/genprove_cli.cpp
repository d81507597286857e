//===- tools/genprove_cli.cpp - command-line verifier -----------*- C++ -*-===//
//
// Verify a serialized network pipeline from the command line.
//
// Usage:
//   genprove_cli --net decoder.bin [--net classifier.bin ...]
//                --input-shape 1x8
//                --start start.txt --end end.txt
//                [--start s2.txt --end e2.txt ...]  (certified in turn)
//                --spec argmax:0:10 | sign:3:+:40 | halfspace:0.5:-1
//                [--spec ... more endpoints, bounded concurrently]
//                [--cache-mb N]
//                [--p 0.02] [--k 100] [--threshold 250]
//                [--budget-mb 240] [--deterministic] [--arcsine]
//                [--splits N] [--schedule A|B] [--threads N]
//                [--resilient] [--deadline-ms D]
//                [--shards N] [--shard-retries R] [--shard-deadline-ms D]
//                [--report] [--trace-out FILE.json] [--metrics-out FILE.json]
//                [--log-out FILE.jsonl] [--prom-out FILE.prom] [--run-id ID]
//
// Latent vector files contain whitespace-separated doubles; non-finite
// entries (and non-finite network weights) are rejected up front. Networks
// are the binary format written by saveNetwork() (see src/nn/serialize.h).
//
// Exit codes: 0 = analysis completed, 2 = usage/input error,
// 3 = simulated-device out-of-memory, 4 = sound but degraded (resilience
// ladder or shard supervision fired; the reported interval is valid but
// widened), 5 = interrupted (SIGINT/SIGTERM; partial telemetry flushed).
// README.md and docs/ROBUSTNESS.md document the contract.
//
// With --shards N the region set is partitioned into N disjoint parameter
// sub-ranges, each certified by a supervised worker process (this binary
// re-exec'd with --shard-worker); crashes, hangs and OOM-kills are retried
// with backoff up an escalation ladder and, as a last resort, bounded by a
// sound interval-box fallback — the merged certificate is then DEGRADED
// but never wrong. docs/ROBUSTNESS.md describes the supervision ladder.
//
// Fault-injection flags (--inject-oom-layer, --inject-oom-count,
// --inject-nan-layer, --clock-skew-ms, --inject-worker-fault) drive the
// deterministic harness of src/domains/fault_injection.h and the shard
// smoke job; they exist for CI and for reproducing degradation paths by
// hand (docs/ROBUSTNESS.md).
//
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/domains/fault_injection.h"
#include "src/domains/prop_cache.h"
#include "src/nn/serialize.h"
#include "src/util/fp.h"
#include "src/util/parse.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/parallel/thread_pool.h"
#include "src/shard/process_launcher.h"
#include "src/shard/protocol.h"
#include "src/shard/supervisor.h"
#include "src/util/table.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
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

[[noreturn]] void usage(const char *Message) {
  std::fprintf(stderr, "genprove_cli: %s\n", Message);
  std::fprintf(
      stderr,
      "usage: genprove_cli --net NET.bin [--net NET2.bin ...]\n"
      "                    --input-shape 1x8 --start A.txt --end B.txt\n"
      "                    [--start A2.txt --end B2.txt ...]\n"
      "                    --spec argmax:T:N | sign:I:+|-:N | "
      "halfspace:C:g0,g1,...\n"
      "                    [--spec ...]  (repeatable; each segment is\n"
      "                    propagated once, each endpoint is bounded\n"
      "                    against it concurrently)\n"
      "                    [--cache-mb N]\n"
      "                    [--p P] [--k K] [--threshold T] [--budget-mb M]\n"
      "                    [--deterministic] [--arcsine] [--sound]\n"
      "                    [--splits N]\n"
      "                    [--schedule A|B] [--threads N]\n"
      "                    [--resilient] [--deadline-ms D]\n"
      "                    [--shards N] [--shard-retries R]\n"
      "                    [--shard-deadline-ms D] [--shard-heartbeat-ms T]\n"
      "                    [--report] [--trace-out FILE.json]\n"
      "                    [--metrics-out FILE.json] [--log-out FILE.jsonl]\n"
      "                    [--prom-out FILE.prom] [--run-id ID]\n"
      "\n"
      "parallelism:\n"
      "  --threads N         size of the shared worker pool (default: the\n"
      "                      GENPROVE_THREADS env var, else the hardware\n"
      "                      concurrency; 1 = fully serial). Results are\n"
      "                      bit-identical for every thread count.\n"
      "\n"
      "soundness:\n"
      "  --sound             directed (outward) rounding on every bound\n"
      "                      computation; floating-point-sound intervals at\n"
      "                      a sub-percent width cost (docs/SOUNDNESS.md)\n"
      "\n"
      "several segments (docs/PERFORMANCE.md):\n"
      "  --start/--end ...   repeated pairs define several latent segments,\n"
      "                      certified one after another; each prints the\n"
      "                      bounds a lone run of that pair prints. Needs\n"
      "                      the single-process path (no --shards).\n"
      "  --cache-mb N        give the propagation cache an N MiB budget:\n"
      "                      repeated or prefix-sharing queries warm-start\n"
      "                      mid-network from memoized per-layer states\n"
      "                      (charged against the simulated device;\n"
      "                      intermediate states are evicted before final\n"
      "                      ones). 0 (default) disables the cache.\n"
      "\n"
      "resilience:\n"
      "  --resilient         never fail: on OOM roll back to the last layer\n"
      "                      checkpoint and coarsen in place; exhausted\n"
      "                      retries fall back to interval propagation\n"
      "  --deadline-ms D     wall-clock deadline; on expiry the remaining\n"
      "                      layers run as a single interval box (implies\n"
      "                      --resilient)\n"
      "\n"
      "sharding (supervised worker processes; docs/ROBUSTNESS.md):\n"
      "  --shards N            partition the input range into N disjoint\n"
      "                        shards, each certified by a worker process;\n"
      "                        crashes/hangs/OOM-kills are retried with\n"
      "                        backoff and, exhausted, bounded by a sound\n"
      "                        interval fallback (verdict DEGRADED).\n"
      "                        Incompatible with --splits.\n"
      "  --shard-retries R     retries per shard after the first attempt\n"
      "                        (default 3)\n"
      "  --shard-deadline-ms D per-attempt wall clock; a worker outliving\n"
      "                        it is killed and retried (default: none)\n"
      "  --shard-heartbeat-ms T kill a worker silent for T ms (default\n"
      "                        2000)\n"
      "\n"
      "fault injection (deterministic; for tests and CI):\n"
      "  --inject-oom-layer L   force device charges to fail at layer L\n"
      "  --inject-oom-count N   how many charges fail there (default 1)\n"
      "  --inject-nan-layer L   poison the state with NaN after layer L\n"
      "  --clock-skew-ms M      advance an injected clock M ms per layer\n"
      "                         (deadline tests run off this clock)\n"
      "  --inject-worker-fault MODE:SHARD[:ATTEMPTS[:MS]]\n"
      "                         make shard SHARD's first ATTEMPTS worker\n"
      "                         attempts fail: crash (abort), oomkill\n"
      "                         (SIGKILL), hang (silent sleep; the\n"
      "                         supervisor's heartbeat timeout must fire),\n"
      "                         slow (sleep MS while heartbeating)\n"
      "\n"
      "observability:\n"
      "  --report            print a per-layer telemetry table (regions,\n"
      "                      nodes, splits, boxed, charged bytes, seconds,\n"
      "                      degradation rung/rollbacks)\n"
      "  --trace-out FILE    write a Chrome trace-event JSON file (open in\n"
      "                      chrome://tracing or ui.perfetto.dev); on a\n"
      "                      sharded run, one unified timeline with a\n"
      "                      process lane per worker\n"
      "  --metrics-out FILE  write the metrics registry snapshot as JSON;\n"
      "                      on a sharded run, worker snapshots are folded\n"
      "                      in (totals plus a shard=<id> dimension)\n"
      "  --log-out FILE      write the structured JSONL event log (one\n"
      "                      JSON object per supervision/degradation\n"
      "                      event; schema in docs/OBSERVABILITY.md)\n"
      "  --prom-out FILE     write the Prometheus text exposition of the\n"
      "                      merged metrics\n"
      "  --run-id ID         stamp log lines with ID (default: generated)\n"
      "\n"
      "exit codes: 0 analysis completed, 2 usage or input error,\n"
      "            3 simulated-device out of memory,\n"
      "            4 sound but degraded (interval is valid but widened),\n"
      "            5 interrupted (SIGINT/SIGTERM; telemetry flushed)\n");
  std::exit(2);
}

Tensor readVector(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    usage(("cannot open vector file: " + Path).c_str());
  std::vector<double> Values;
  std::string Token;
  // Tokens go through strtod (not operator>>) so the "nan"/"inf"
  // spellings are recognized and rejected instead of silently truncating
  // the vector at the first such entry.
  while (In >> Token) {
    char *TokenEnd = nullptr;
    const double V = std::strtod(Token.c_str(), &TokenEnd);
    if (TokenEnd == Token.c_str() || *TokenEnd != '\0')
      usage(("cannot parse '" + Token + "' in vector file " + Path).c_str());
    if (!std::isfinite(V))
      usage(("non-finite latent endpoint in " + Path +
             " (entry " + std::to_string(Values.size()) +
             "); refusing to certify garbage")
                .c_str());
    Values.push_back(V);
  }
  if (Values.empty())
    usage(("empty vector file: " + Path).c_str());
  const int64_t N = static_cast<int64_t>(Values.size());
  return Tensor({1, N}, std::move(Values));
}

/// A numeric flag value; a malformed number is a usage error (exit 2).
template <typename T> T numberArg(const std::string &Flag,
                                  const std::string &Text) {
  T Value{};
  if (!parseNumber(Text, Value))
    usage((Flag + " wants a number, got '" + Text + "'").c_str());
  return Value;
}

OutputSpec parseSpec(const std::string &Text) {
  OutputSpec Spec;
  std::string Err;
  if (!parseOutputSpecText(Text, Spec, &Err))
    usage(("--spec " + Text + ": " + Err).c_str());
  return Spec;
}

/// The --report table: one row per layer, plus a sum/max footer matching
/// the aggregate stats line.
void printLayerReport(const std::vector<LayerRecord> &Layers) {
  TablePrinter Table({"layer", "kind", "regions", "nodes", "splits", "boxed",
                      "charged", "seconds", "resil"});
  auto Flow = [](int64_t In, int64_t Out) {
    return std::to_string(In) + "->" + std::to_string(Out);
  };
  // The resil column: degradation rung the layer ran at, plus the number
  // of checkpoint rollbacks it took to get the layer through.
  auto Resil = [](const LayerRecord &Rec) -> std::string {
    if (Rec.Rung == DegradeRung::None && Rec.Rollbacks == 0)
      return "-";
    std::string Text = degradeRungName(Rec.Rung);
    if (Rec.Rollbacks > 0)
      Text.append("(").append(std::to_string(Rec.Rollbacks)).append(")");
    return Text;
  };
  int64_t SumSplits = 0, SumBoxed = 0, MaxRegions = 0, MaxNodes = 0;
  int64_t SumRollbacks = 0;
  size_t MaxCharged = 0;
  double SumSeconds = 0.0;
  for (const LayerRecord &Rec : Layers) {
    Table.addRow({std::to_string(Rec.Index), Rec.Kind,
                  Flow(Rec.RegionsIn, Rec.RegionsOut),
                  Flow(Rec.NodesIn, Rec.NodesOut), std::to_string(Rec.Splits),
                  std::to_string(Rec.Boxed), formatBytes(Rec.ChargedBytes),
                  formatSeconds(Rec.Seconds), Resil(Rec)});
    SumSplits += Rec.Splits;
    SumBoxed += Rec.Boxed;
    SumRollbacks += Rec.Rollbacks;
    MaxRegions = std::max(MaxRegions, Rec.RegionsOut);
    MaxNodes = std::max(MaxNodes, Rec.NodesOut);
    MaxCharged = std::max(MaxCharged, Rec.ChargedBytes);
    SumSeconds += Rec.Seconds;
  }
  Table.addRow({"sum/max", "-", std::to_string(MaxRegions),
                std::to_string(MaxNodes), std::to_string(SumSplits),
                std::to_string(SumBoxed), formatBytes(MaxCharged),
                formatSeconds(SumSeconds),
                SumRollbacks > 0 ? std::to_string(SumRollbacks) + " rb" : "-"});
  std::printf("per-layer telemetry:\n%s", Table.render().c_str());
}

//===----------------------------------------------------------------------===//
// Graceful shutdown: SIGINT/SIGTERM kill the worker brood, flush whatever
// telemetry exists (trace, metrics, Prometheus, JSONL log — one shared
// flush point, ObsFlushGuard), and exit with the dedicated code 5 so
// scripts can tell an interrupted run from a failed one.
//===----------------------------------------------------------------------===//

std::atomic<bool> ShuttingDown{false};

void handleShutdownSignal(int) {
  // Re-entrant delivery (e.g. double ^C) must not re-run the flush.
  if (ShuttingDown.exchange(true))
    _exit(5);
  killAllShardChildren(SIGKILL);
  ObsFlushGuard::flushNow();
  _exit(5);
}

/// A reasonably unique run id for log correlation: microseconds since the
/// epoch plus the pid, both hex.
std::string makeRunId() {
  const auto Now = std::chrono::system_clock::now().time_since_epoch();
  const auto Us =
      std::chrono::duration_cast<std::chrono::microseconds>(Now).count();
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%llx-%x",
                static_cast<unsigned long long>(Us),
                static_cast<unsigned>(::getpid()));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Worker-side fault injection (--inject-worker-fault MODE:SHARD[:A[:MS]])
//===----------------------------------------------------------------------===//

struct WorkerFaultPlan {
  std::string Mode;      ///< crash | hang | oomkill | slow
  int64_t Shard = -1;
  int64_t Attempts = 1;  ///< fires while Attempt < Attempts
  double Millis = 600000; ///< hang/slow duration
  bool Active = false;
};

WorkerFaultPlan parseWorkerFault(const std::string &Text) {
  WorkerFaultPlan Plan;
  std::istringstream In(Text);
  std::string Part;
  if (!std::getline(In, Part, ':'))
    usage("bad --inject-worker-fault (want MODE:SHARD[:ATTEMPTS[:MS]])");
  Plan.Mode = Part;
  if (Plan.Mode != "crash" && Plan.Mode != "hang" && Plan.Mode != "oomkill" &&
      Plan.Mode != "slow")
    usage("bad --inject-worker-fault mode (crash|hang|oomkill|slow)");
  if (!std::getline(In, Part, ':'))
    usage("--inject-worker-fault needs a shard index");
  Plan.Shard = numberArg<int64_t>("--inject-worker-fault shard", Part);
  if (std::getline(In, Part, ':'))
    Plan.Attempts = numberArg<int64_t>("--inject-worker-fault attempts", Part);
  if (std::getline(In, Part, ':'))
    Plan.Millis = numberArg<double>("--inject-worker-fault ms", Part);
  if (Plan.Mode == "slow" && Plan.Millis >= 600000)
    Plan.Millis = 2000; // a kill -9 window, not an eternity
  Plan.Active = true;
  return Plan;
}

/// Fire the injected fault in a worker, if it applies to this attempt.
/// crash/oomkill never return; hang sleeps silently (no heartbeats — the
/// supervisor's timeout must detect it); slow sleeps while the heartbeat
/// thread keeps beating (CI uses the window to kill -9 from outside).
void maybeFireWorkerFault(const WorkerFaultPlan &Plan, int64_t Shard,
                          int64_t Attempt) {
  if (!Plan.Active || Plan.Shard != Shard || Attempt >= Plan.Attempts)
    return;
  if (Plan.Mode == "crash")
    std::abort();
  if (Plan.Mode == "oomkill")
    raise(SIGKILL);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(Plan.Millis));
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> NetPaths;
  std::vector<std::string> SpecTexts;
  std::vector<std::string> StartPaths, EndPaths;
  std::string ShapeText;
  std::string TraceOutPath, MetricsOutPath, LogOutPath, PromOutPath;
  std::string RunId;
  std::string ShardTelemetrySpec; ///< internal: coordinator -> worker
  bool Report = false;
  GenProveConfig Config;
  Config.NodeThreshold = 250;
  FaultPlan Faults;
  bool HaveFaults = false;

  // Sharding state.
  int64_t Shards = 0;          ///< 0 = unsharded single-process path
  int64_t ShardWorker = -1;    ///< >= 0: this process IS worker K
  int64_t ShardAttempt = 0;
  int64_t ShardRungFlag = 0;
  int64_t ShardRetries = 3;
  double ShardDeadlineMs = 0.0;
  double ShardHeartbeatMs = 2000.0;
  bool SplitsGiven = false;
  int64_t ThreadsGiven = 0;
  WorkerFaultPlan WorkerFault;

  // Args forwarded verbatim to worker processes. Coordinator-only flags
  // (--shards is re-added explicitly; telemetry, --deterministic, budget
  // and threads are recomputed per worker) stay out.
  std::vector<std::string> WorkerArgs;
  const auto Forward = [&](std::initializer_list<std::string> Parts) {
    for (const std::string &P : Parts)
      WorkerArgs.push_back(P);
  };

  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + Arg).c_str());
      return Argv[++I];
    };
    if (Arg == "--net") {
      const std::string V = Next();
      NetPaths.push_back(V);
      Forward({Arg, V});
    } else if (Arg == "--input-shape") {
      ShapeText = Next();
      Forward({Arg, ShapeText});
    } else if (Arg == "--start") {
      StartPaths.push_back(Next());
      Forward({Arg, StartPaths.back()});
    } else if (Arg == "--end") {
      EndPaths.push_back(Next());
      Forward({Arg, EndPaths.back()});
    } else if (Arg == "--cache-mb") {
      // Coordinator/local-only: the cache is per-process.
      PropagationCache::global().configure(
          static_cast<size_t>(numberArg<uint64_t>(Arg, Next())) << 20);
    } else if (Arg == "--spec") {
      const std::string V = Next();
      SpecTexts.push_back(V);
      Forward({Arg, V});
    } else if (Arg == "--threads") {
      ThreadsGiven = numberArg<int64_t>(Arg, Next());
      ThreadPool::global().setThreads(ThreadsGiven);
    } else if (Arg == "--p") {
      const std::string V = Next();
      Config.RelaxPercent = numberArg<double>(Arg, V);
      Forward({Arg, V});
    } else if (Arg == "--k") {
      const std::string V = Next();
      Config.ClusterK = numberArg<double>(Arg, V);
      Forward({Arg, V});
    } else if (Arg == "--threshold") {
      const std::string V = Next();
      Config.NodeThreshold = numberArg<int64_t>(Arg, V);
      Forward({Arg, V});
    } else if (Arg == "--budget-mb") {
      Config.MemoryBudgetBytes =
          static_cast<size_t>(numberArg<uint64_t>(Arg, Next())) << 20;
    } else if (Arg == "--budget-bytes") {
      // Byte-granular budget, used when the coordinator forwards each
      // worker its exact per-shard slice.
      Config.MemoryBudgetBytes =
          static_cast<size_t>(numberArg<uint64_t>(Arg, Next()));
    } else if (Arg == "--deterministic") {
      Config.Mode = AnalysisMode::Deterministic;
    } else if (Arg == "--sound") {
      setSoundRounding(true);
      Forward({Arg});
    } else if (Arg == "--arcsine") {
      Config.Distribution = ParamDistribution::Arcsine;
      Forward({Arg});
    } else if (Arg == "--splits") {
      Config.InputSplits = numberArg<int64_t>(Arg, Next());
      SplitsGiven = true;
    } else if (Arg == "--schedule") {
      const std::string V = Next();
      Config.Schedule =
          V == "B" ? RefinementSchedule::B : RefinementSchedule::A;
      Forward({Arg, V});
    } else if (Arg == "--resilient") {
      Config.Resilience.Enabled = true;
      Forward({Arg});
    } else if (Arg == "--deadline-ms") {
      const std::string V = Next();
      Config.Resilience.Enabled = true;
      Config.Resilience.DeadlineSeconds = numberArg<double>(Arg, V) / 1000.0;
      Forward({Arg, V});
    } else if (Arg == "--shards") {
      Shards = numberArg<int64_t>(Arg, Next());
      if (Shards < 1)
        usage("--shards wants N >= 1");
    } else if (Arg == "--shard-worker") {
      ShardWorker = numberArg<int64_t>(Arg, Next());
    } else if (Arg == "--shard-attempt") {
      ShardAttempt = numberArg<int64_t>(Arg, Next());
    } else if (Arg == "--shard-rung") {
      ShardRungFlag = numberArg<int64_t>(Arg, Next());
    } else if (Arg == "--shard-retries") {
      ShardRetries = numberArg<int64_t>(Arg, Next());
    } else if (Arg == "--shard-deadline-ms") {
      ShardDeadlineMs = numberArg<double>(Arg, Next());
    } else if (Arg == "--shard-heartbeat-ms") {
      const std::string V = Next();
      ShardHeartbeatMs = numberArg<double>(Arg, V);
      Forward({Arg, V});
    } else if (Arg == "--inject-oom-layer") {
      const std::string V = Next();
      Faults.OomAtLayer = numberArg<int64_t>(Arg, V);
      HaveFaults = true;
      Forward({Arg, V});
    } else if (Arg == "--inject-oom-count") {
      const std::string V = Next();
      Faults.OomFireCount = numberArg<int64_t>(Arg, V);
      HaveFaults = true;
      Forward({Arg, V});
    } else if (Arg == "--inject-nan-layer") {
      const std::string V = Next();
      Faults.NanAtLayer = numberArg<int64_t>(Arg, V);
      HaveFaults = true;
      Forward({Arg, V});
    } else if (Arg == "--clock-skew-ms") {
      const std::string V = Next();
      Faults.ClockSkewSecondsPerLayer = numberArg<double>(Arg, V) / 1000.0;
      HaveFaults = true;
      Forward({Arg, V});
    } else if (Arg == "--inject-worker-fault") {
      const std::string V = Next();
      WorkerFault = parseWorkerFault(V);
      Forward({Arg, V});
    } else if (Arg == "--report") {
      Report = true;
    } else if (Arg == "--trace-out") {
      TraceOutPath = Next();
    } else if (Arg == "--metrics-out") {
      MetricsOutPath = Next();
    } else if (Arg == "--log-out") {
      LogOutPath = Next();
    } else if (Arg == "--prom-out") {
      PromOutPath = Next();
    } else if (Arg == "--run-id") {
      RunId = Next();
    } else if (Arg == "--shard-telemetry") {
      // Internal coordinator->worker flag: which telemetry planes the
      // worker should record and attach to its result message
      // (comma-separated subset of metrics,trace,log).
      ShardTelemetrySpec = Next();
    } else {
      usage(("unknown option: " + Arg).c_str());
    }
  }

  if (NetPaths.empty() || StartPaths.empty() || EndPaths.empty() ||
      ShapeText.empty() || SpecTexts.empty())
    usage("--net, --input-shape, --start, --end and --spec are required");
  if (StartPaths.size() != EndPaths.size())
    usage("--start and --end must come in pairs");
  if (StartPaths.size() > 1 && Shards > 0)
    usage("repeated --start/--end pairs need the single-process path; "
          "drop --shards or run one pair per invocation");
  if (Shards > 0 && SplitsGiven)
    usage("--shards and --splits are mutually exclusive (a shard is an "
          "input split that runs in its own process)");
  if (ShardWorker >= 0 && Shards < 1)
    usage("--shard-worker needs --shards N");
  if (ShardWorker >= 0 && ShardWorker >= Shards)
    usage("--shard-worker index out of range");

  const bool IsWorker = ShardWorker >= 0;
  const bool IsCoordinator = !IsWorker && Shards > 0;

  // The fault-injection harness lives for the whole analysis; a skewed
  // clock replaces the wall clock so deadline runs are deterministic.
  FaultInjector Injector(Faults);
  if (HaveFaults) {
    Config.Resilience.Faults = &Injector;
    if (Faults.ClockSkewSecondsPerLayer > 0.0)
      Config.Resilience.Clock = Injector.clock();
  }

  // Observability is opt-in: every plane defaults off. Workers enable
  // planes from the coordinator's --shard-telemetry spec instead of from
  // output paths (they ship data over the result message, never to files).
  const bool TelMetrics =
      ShardTelemetrySpec.find("metrics") != std::string::npos;
  const bool TelTrace = ShardTelemetrySpec.find("trace") != std::string::npos;
  const bool TelLog = ShardTelemetrySpec.find("log") != std::string::npos;
  if (!TraceOutPath.empty() || TelTrace)
    setTraceEnabled(true);
  if (!MetricsOutPath.empty() || !PromOutPath.empty() || Report || TelMetrics)
    setMetricsEnabled(true);
  if (!LogOutPath.empty() || TelLog)
    setLogEnabled(true);
  if (logEnabled()) {
    if (RunId.empty())
      RunId = makeRunId();
    EventLog::global().setRunId(RunId);
    if (IsWorker)
      EventLog::global().setShard(ShardWorker);
  }

  // Graceful shutdown (not in workers: the supervisor owns their
  // lifecycle, and a worker's SIGKILL/SIGTERM semantics must stay raw so
  // exit-status classification works). All exit paths — normal returns,
  // DEGRADED exit 4, SIGINT/SIGTERM exit 5 — flush through the one
  // ObsFlushGuard below; workers configure no paths so the guard is inert.
  if (!IsWorker) {
    ObsFlushGuard::Paths FlushTo;
    FlushTo.Trace = TraceOutPath;
    FlushTo.Metrics = MetricsOutPath;
    FlushTo.Prom = PromOutPath;
    FlushTo.Log = LogOutPath;
    ObsFlushGuard::configure(FlushTo);
    std::signal(SIGINT, handleShutdownSignal);
    std::signal(SIGTERM, handleShutdownSignal);
  }
  ObsFlushGuard FlushOnExit;

  // Load the pipeline.
  std::vector<Sequential> Networks;
  {
    GENPROVE_SPAN("load_networks");
    for (const std::string &Path : NetPaths) {
      // A malformed file or a NaN/Inf weight would poison every bound
      // downstream; loadNetwork refuses both with the reason.
      std::string Why;
      auto Net = loadNetwork(Path, &Why);
      if (!Net) {
        std::fprintf(stderr, "genprove_cli: cannot load network %s: %s\n",
                     Path.c_str(), Why.c_str());
        return 2;
      }
      Networks.push_back(std::move(*Net));
    }
  }
  std::vector<const Layer *> Pipeline;
  for (const Sequential &Net : Networks)
    Pipeline = concatViews(Pipeline, Net.view());

  Shape InputShape;
  if (!parseShape(ShapeText, InputShape))
    usage(("bad --input-shape '" + ShapeText + "'").c_str());
  std::vector<std::pair<Tensor, Tensor>> Segments;
  for (size_t I = 0; I < StartPaths.size(); ++I) {
    Tensor S = readVector(StartPaths[I]);
    Tensor E = readVector(EndPaths[I]);
    if (S.numel() != E.numel() || S.numel() != InputShape.numel()) {
      std::fprintf(stderr,
                   "genprove_cli: vector dims (%lld, %lld) of pair %zu do "
                   "not match --input-shape %s\n",
                   static_cast<long long>(S.numel()),
                   static_cast<long long>(E.numel()), I,
                   InputShape.toString().c_str());
      return 2;
    }
    Segments.emplace_back(std::move(S), std::move(E));
  }
  // The sharded paths certify exactly one segment (enforced above).
  const Tensor &Start = Segments.front().first;
  const Tensor &End = Segments.front().second;
  std::vector<OutputSpec> Specs;
  for (const std::string &Text : SpecTexts)
    Specs.push_back(parseSpec(Text));
  if (const std::string Why = pipelineShapeError(Pipeline, InputShape, Specs);
      !Why.empty()) {
    std::fprintf(stderr, "genprove_cli: %s\n", Why.c_str());
    return 2;
  }

  //===--------------------------------------------------------------------===//
  // Worker mode: certify one shard, speak the wire protocol on stdout.
  //===--------------------------------------------------------------------===//
  if (IsWorker) {
    // crash/oomkill/hang fire before heartbeats start (a hang must be
    // silent for the supervisor's timeout to be what catches it); slow
    // fires inside the heartbeat scope so the worker stays visibly alive
    // through its stall — that is the external-kill window CI uses.
    const bool SlowFault = WorkerFault.Active && WorkerFault.Mode == "slow";
    if (!SlowFault)
      maybeFireWorkerFault(WorkerFault, ShardWorker, ShardAttempt);

    ShardWorkContext Ctx;
    Ctx.Pipeline = Pipeline;
    Ctx.InputShape = InputShape;
    Ctx.Start = Start;
    Ctx.End = End;
    Ctx.Specs = Specs;
    Ctx.Config = Config; // budget already the per-shard slice
    Ctx.NumShards = Shards;

    AttemptPlan Plan;
    Plan.Shard = ShardWorker;
    Plan.Attempt = ShardAttempt;
    Plan.Rung = shardRungFromInt(ShardRungFlag);

    // Heartbeats flow for the whole propagation; the emitter interval
    // stays well under the supervisor's kill timeout. The result line
    // carries the telemetry planes the coordinator asked for: the
    // supervisor folds metrics into its registry (totals plus a shard=<id>
    // dimension), splices trace events into the unified timeline under
    // pid = shard+1, and splices log records verbatim.
    const auto Telemetry = [&] {
      ShardTelemetry Tel;
      if (TelMetrics) {
        Tel.HasMetrics = true;
        Tel.Metrics = MetricsSnapshot::capture(MetricsRegistry::global());
      }
      if (TelTrace)
        Tel.Trace = TraceSession::global().events();
      if (TelLog)
        Tel.Log = EventLog::global().records();
      return Tel;
    };
    const auto Stall = [&] {
      if (SlowFault)
        maybeFireWorkerFault(WorkerFault, ShardWorker, ShardAttempt);
    };
    return runWorkerAttempt(Ctx, Plan,
                            std::clamp(ShardHeartbeatMs / 4.0, 10.0, 250.0),
                            Telemetry, Stall);
  }

  //===--------------------------------------------------------------------===//
  // Coordinator mode: supervise one worker process per shard and merge.
  //===--------------------------------------------------------------------===//
  if (IsCoordinator) {
    const size_t PerShardBudget =
        Config.MemoryBudgetBytes == 0
            ? 0
            : std::max<size_t>(Config.MemoryBudgetBytes /
                                   static_cast<size_t>(Shards),
                               1);
    Forward({"--shards", std::to_string(Shards)});
    if (PerShardBudget > 0)
      Forward({"--budget-bytes", std::to_string(PerShardBudget)});
    if (ThreadsGiven > 0)
      Forward({"--threads",
               std::to_string(std::max<int64_t>(ThreadsGiven / Shards, 1))});
    // Workers record the same telemetry planes the coordinator has
    // enabled and ship them back on the result message.
    {
      std::string Spec;
      const auto Want = [&](bool On, const char *Name) {
        if (!On)
          return;
        if (!Spec.empty())
          Spec.push_back(',');
        Spec.append(Name);
      };
      Want(metricsEnabled(), "metrics");
      Want(traceEnabled(), "trace");
      Want(logEnabled(), "log");
      if (!Spec.empty())
        Forward({"--shard-telemetry", Spec});
      if (logEnabled())
        Forward({"--run-id", RunId});
    }

    GenProveConfig ShardConfig = Config;
    ShardConfig.MemoryBudgetBytes = PerShardBudget;
    ShardWorkContext Ctx;
    Ctx.Pipeline = Pipeline;
    Ctx.InputShape = InputShape;
    Ctx.Start = Start;
    Ctx.End = End;
    Ctx.Specs = Specs;
    Ctx.Config = ShardConfig;
    Ctx.NumShards = Shards;

    ShardPolicy Policy;
    Policy.NumShards = Shards;
    Policy.MaxRetries = ShardRetries;
    Policy.ShardDeadlineSeconds = ShardDeadlineMs / 1000.0;
    Policy.HeartbeatTimeoutSeconds = ShardHeartbeatMs / 1000.0;

    ProcessShardLauncher Launcher("/proc/self/exe", WorkerArgs);
    // Coordinator-side admission: a Configured-rung worker whose *input*
    // state already busts the per-shard budget is doomed — skip straight
    // to the resilient rung. Uses the same tryCharge the engine uses, so
    // the rejection shows up in the device.* metrics.
    DeviceMemoryModel Admission(PerShardBudget);
    const int64_t Latent = Start.numel();
    const auto Admit = [&](const AttemptPlan &) {
      return Admission.tryChargeState(2, Latent);
    };
    // Last resort for an exhausted shard: the sound interval-box bound,
    // computed in-process (the IntervalBox rung cannot OOM or crash).
    const auto Fallback = [&](int64_t Shard) {
      AttemptPlan Plan;
      Plan.Shard = Shard;
      Plan.Attempt = ShardRetries + 1;
      Plan.Rung = ShardRung::IntervalBox;
      return runShardAttempt(Ctx, Plan);
    };

    ShardSupervisor Supervisor(Policy, Launcher, Fallback, Admit);
    if (logEnabled())
      EventLog::global().emit(LogLevel::Info, "run.start",
                              {{"shards", Shards},
                               {"retries", ShardRetries}});
    const ShardRunSummary Summary = Supervisor.run();
    const int64_t NumSpecs = static_cast<int64_t>(Specs.size());
    MergedCertificate Merged = mergeShardResults(Summary.Results, NumSpecs);
    const bool Degraded = Merged.Degraded || Summary.Degraded;
    if (logEnabled())
      EventLog::global().emit(LogLevel::Info, "run.exit",
                              {{"exit_code", Degraded ? 4 : 0},
                               {"degraded", Degraded},
                               {"restarts", Summary.Restarts},
                               {"fallbacks", Summary.Fallbacks}});

    for (size_t I = 0; I < Specs.size(); ++I) {
      ProbBounds Bounds = Merged.Specs[I];
      Bounds.Degraded = Bounds.Degraded || Degraded;
      // The deterministic collapse happens on the *merged* bounds; a
      // per-shard collapse would destroy the partial masses the merge
      // sums.
      if (Config.Mode == AnalysisMode::Deterministic)
        Bounds = Bounds.deterministic();
      if (Specs.size() > 1)
        std::printf("spec:    %s\n", SpecTexts[I].c_str());
      std::printf("bounds:  [%.6f, %.6f]  width %s\n", Bounds.Lower,
                  Bounds.Upper, formatBound(Bounds.width()).c_str());
      if (Config.Mode == AnalysisMode::Deterministic) {
        const char *Verdict = Bounds.Lower >= 1.0   ? "HOLDS"
                              : Bounds.Upper <= 0.0 ? "NEVER HOLDS"
                                                    : "UNKNOWN";
        std::printf("verdict: %s%s\n", Verdict,
                    Bounds.Degraded ? " (DEGRADED)" : "");
      } else if (Bounds.Degraded) {
        std::printf("verdict: DEGRADED; holds with probability in "
                    "[%.6f, %.6f]\n",
                    Bounds.Lower, Bounds.Upper);
      } else {
        std::printf("verdict: holds with probability in [%.6f, %.6f]\n",
                    Bounds.Lower, Bounds.Upper);
      }
    }
    std::printf("stats:   %.2fs, %lld regions peak, %lld nodes peak, %s "
                "device memory, %lld retries\n",
                Summary.Seconds,
                static_cast<long long>(Merged.MaxRegions),
                static_cast<long long>(Merged.MaxNodes),
                formatBytes(Merged.PeakBytes).c_str(),
                static_cast<long long>(Merged.Retries));
    std::printf("shards:  %lld shards, %lld restarts, %lld fallbacks, "
                "%lld heartbeat misses, %lld oom-kills, %.2fs worker cpu\n",
                static_cast<long long>(Shards),
                static_cast<long long>(Summary.Restarts),
                static_cast<long long>(Summary.Fallbacks),
                static_cast<long long>(Summary.HeartbeatMisses),
                static_cast<long long>(Summary.OomKills),
                Merged.TotalShardSeconds);
    if (Degraded) {
      std::printf("degrade: rung %s, %lld rollbacks, %lld fallback-box "
                  "layers, deadline %s, quarantined mass %.6f\n",
                  degradeRungName(Merged.Rung),
                  static_cast<long long>(Merged.Rollbacks),
                  static_cast<long long>(Merged.FallbackBoxLayers),
                  Merged.DeadlineHit ? "hit" : "met",
                  Merged.QuarantinedMass);
      return 4;
    }
    return 0;
  }

  //===--------------------------------------------------------------------===//
  // Single-process path: each --start/--end pair is propagated once, in
  // order, and every (pair, spec) endpoint is then bounded against its
  // pair's state concurrently. boundsFor only reads the state, and results
  // land in per-slot positions, so the printed order (and every digit)
  // matches the serial run.
  //===--------------------------------------------------------------------===//
  const GenProve Analyzer(Config);

  std::vector<PropagatedState> States;
  {
    GENPROVE_SPAN("analyze");
    for (const auto &[SegStart, SegEnd] : Segments)
      States.push_back(
          Analyzer.propagateSegment(Pipeline, InputShape, SegStart, SegEnd));
  }
  const size_t NumPairs = States.size();
  const size_t NumSpecs = Specs.size();
  std::vector<ProbBounds> AllBounds(NumPairs * NumSpecs);
  {
    GENPROVE_SPAN("bound_specs");
    parallelFor(static_cast<int64_t>(AllBounds.size()), 1,
                [&](int64_t Begin, int64_t End_) {
      for (int64_t I = Begin; I < End_; ++I) {
        const size_t Pair = static_cast<size_t>(I) / NumSpecs;
        const size_t SpecIdx = static_cast<size_t>(I) % NumSpecs;
        if (!States[Pair].OutOfMemory)
          AllBounds[static_cast<size_t>(I)] =
              Analyzer.boundsFor(States[Pair], Specs[SpecIdx]);
      }
    });
  }

  // The observability artifacts are flushed by FlushOnExit on every exit
  // path — including the OOM return below; a failing run is exactly when
  // the per-layer timeline matters, so each pair's table prints before its
  // OOM verdict.
  bool AnyOom = false;
  bool Degraded = false;
  for (size_t Pair = 0; Pair < NumPairs; ++Pair) {
    const PropagatedState &State = States[Pair];
    // With several pairs, prefix each block with its segment endpoints.
    if (NumPairs > 1)
      std::printf("segment: %s -> %s\n", StartPaths[Pair].c_str(),
                  EndPaths[Pair].c_str());
    if (Report && !State.Stats.Layers.empty())
      printLayerReport(State.Stats.Layers);
    if (State.OutOfMemory) {
      std::printf("result: OUT OF MEMORY (budget %s; try --p, --schedule "
                  "or --splits)\n",
                  formatBytes(Config.MemoryBudgetBytes).c_str());
      if (NumPairs == 1)
        return 3; // single-pair output contract: no stats line after OOM
      AnyOom = true;
      continue;
    }
    Degraded = Degraded || State.Degraded;
    for (size_t I = 0; I < NumSpecs; ++I) {
      const ProbBounds &Bounds = AllBounds[Pair * NumSpecs + I];
      Degraded = Degraded || Bounds.Degraded;
      // With several endpoints, prefix each block with its spec text.
      if (NumSpecs > 1)
        std::printf("spec:    %s\n", SpecTexts[I].c_str());
      std::printf("bounds:  [%.6f, %.6f]  width %s\n", Bounds.Lower,
                  Bounds.Upper, formatBound(Bounds.width()).c_str());
      if (Config.Mode == AnalysisMode::Deterministic) {
        const char *Verdict = Bounds.Lower >= 1.0   ? "HOLDS"
                              : Bounds.Upper <= 0.0 ? "NEVER HOLDS"
                                                    : "UNKNOWN";
        std::printf("verdict: %s%s\n", Verdict,
                    Bounds.Degraded || State.Degraded ? " (DEGRADED)" : "");
      } else if (Bounds.Degraded || State.Degraded) {
        std::printf("verdict: DEGRADED; holds with probability in "
                    "[%.6f, %.6f]\n",
                    Bounds.Lower, Bounds.Upper);
      } else {
        std::printf("verdict: holds with probability in [%.6f, %.6f]\n",
                    Bounds.Lower, Bounds.Upper);
      }
    }
  }
  // One summary over every pair: times add up, peaks are maxed.
  double Seconds = 0.0;
  int64_t MaxRegions = 0, MaxNodes = 0, Retries = 0;
  size_t PeakBytes = 0;
  for (const PropagatedState &State : States) {
    Seconds += State.Seconds;
    MaxRegions = std::max(MaxRegions, State.Stats.MaxRegions);
    MaxNodes = std::max(MaxNodes, State.Stats.MaxNodes);
    PeakBytes = std::max(PeakBytes, State.PeakBytes);
    Retries = std::max(Retries, State.Retries);
  }
  std::printf("stats:   %.2fs, %lld regions peak, %lld nodes peak, %s "
              "device memory, %lld retries\n",
              Seconds, static_cast<long long>(MaxRegions),
              static_cast<long long>(MaxNodes),
              formatBytes(PeakBytes).c_str(),
              static_cast<long long>(Retries));
  if (AnyOom)
    return 3;
  if (Degraded) {
    // The first degraded pair's ladder telemetry.
    auto It = std::find_if(States.begin(), States.end(),
                           [](const PropagatedState &S) { return S.Degraded; });
    const PropagateStats &Stats =
        (It != States.end() ? *It : States.front()).Stats;
    std::printf("degrade: rung %s, %lld rollbacks, %lld fallback-box layers, "
                "deadline %s, quarantined mass %.6f\n",
                degradeRungName(Stats.Rung),
                static_cast<long long>(Stats.Rollbacks),
                static_cast<long long>(Stats.FallbackBoxLayers),
                Stats.DeadlineHit ? "hit" : "met", Stats.QuarantinedMass);
    return 4; // sound but degraded — distinct from success and from OOM.
  }
  return 0;
}
