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
// sub-ranges, each certified by a supervised worker process. The run is
// one ShardJob file handed to superviseShardJob; each worker is this
// binary re-exec'd with --worker-request JOB --shard-worker K, and its
// first act is runShardWorker (src/shard/process_launcher.h), the worker
// entry genprove_serve --isolate shares. Crashes, hangs and OOM-kills are
// retried with backoff up an escalation ladder and, as a last resort,
// bounded by a sound interval-box fallback — the merged certificate is
// then DEGRADED but never wrong. docs/ROBUSTNESS.md describes the
// supervision ladder.
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
#include <optional>
#include <sstream>
#include <string>
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
      "  --threads N         size of the shared worker pool, N >= 1 (default:\n"
      "                      the GENPROVE_THREADS env var, else the hardware\n"
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
// Graceful shutdown: SIGINT/SIGTERM kill the worker brood, remove the job
// file, flush whatever telemetry exists (trace, metrics, Prometheus, JSONL
// log — one shared flush point, ObsFlushGuard), and exit with the
// dedicated code 5 so scripts can tell an interrupted run from a failed
// one.
//===----------------------------------------------------------------------===//

std::atomic<bool> ShuttingDown{false};

void handleShutdownSignal(int) {
  // Re-entrant delivery (e.g. double ^C) must not re-run the flush.
  if (ShuttingDown.exchange(true))
    _exit(5);
  killAllShardChildren(SIGKILL);
  removeShardJobFiles();
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

/// --inject-worker-fault MODE:SHARD[:ATTEMPTS[:MS]].
WorkerFault parseWorkerFault(const std::string &Text) {
  WorkerFault Plan;
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
  return Plan;
}

} // namespace

int main(int Argc, char **Argv) {
  // A --shards worker process: run its shard attempt and exit.
  if (const std::optional<int> Exit = runShardWorker(Argc, Argv))
    return *Exit;

  std::vector<std::string> NetPaths;
  std::vector<std::string> SpecTexts;
  std::vector<std::string> StartPaths, EndPaths;
  std::string ShapeText;
  std::string TraceOutPath, MetricsOutPath, LogOutPath, PromOutPath;
  std::string RunId;
  bool Report = false;
  GenProveConfig Config;
  Config.NodeThreshold = 250;
  FaultPlan Faults;
  bool HaveFaults = false;

  // Sharding state.
  int64_t Shards = 0; ///< 0 = unsharded single-process path
  int64_t ShardRetries = 3;
  double ShardDeadlineMs = 0.0;
  double ShardHeartbeatMs = 2000.0;
  bool SplitsGiven = false;
  int64_t ThreadsGiven = 0;
  WorkerFault InjectedWorkerFault;

  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + Arg).c_str());
      return Argv[++I];
    };
    if (Arg == "--net") {
      NetPaths.push_back(Next());
    } else if (Arg == "--input-shape") {
      ShapeText = Next();
    } else if (Arg == "--start") {
      StartPaths.push_back(Next());
    } else if (Arg == "--end") {
      EndPaths.push_back(Next());
    } else if (Arg == "--cache-mb") {
      // Coordinator/local-only: the cache is per-process.
      PropagationCache::global().configure(
          static_cast<size_t>(numberArg<uint64_t>(Arg, Next())) << 20);
    } else if (Arg == "--spec") {
      SpecTexts.push_back(Next());
    } else if (Arg == "--threads") {
      ThreadsGiven = numberArg<int64_t>(Arg, Next());
      if (ThreadsGiven < 1)
        usage("--threads wants N >= 1");
      ThreadPool::global().setThreads(ThreadsGiven);
    } else if (Arg == "--p") {
      Config.RelaxPercent = numberArg<double>(Arg, Next());
    } else if (Arg == "--k") {
      Config.ClusterK = numberArg<double>(Arg, Next());
    } else if (Arg == "--threshold") {
      Config.NodeThreshold = numberArg<int64_t>(Arg, Next());
    } else if (Arg == "--budget-mb") {
      Config.MemoryBudgetBytes =
          static_cast<size_t>(numberArg<uint64_t>(Arg, Next())) << 20;
    } else if (Arg == "--deterministic") {
      Config.Mode = AnalysisMode::Deterministic;
    } else if (Arg == "--sound") {
      setSoundRounding(true);
    } else if (Arg == "--arcsine") {
      Config.Distribution = ParamDistribution::Arcsine;
    } else if (Arg == "--splits") {
      Config.InputSplits = numberArg<int64_t>(Arg, Next());
      SplitsGiven = true;
    } else if (Arg == "--schedule") {
      Config.Schedule =
          Next() == "B" ? RefinementSchedule::B : RefinementSchedule::A;
    } else if (Arg == "--resilient") {
      Config.Resilience.Enabled = true;
    } else if (Arg == "--deadline-ms") {
      Config.Resilience.Enabled = true;
      Config.Resilience.DeadlineSeconds =
          numberArg<double>(Arg, Next()) / 1000.0;
    } else if (Arg == "--shards") {
      Shards = numberArg<int64_t>(Arg, Next());
      if (Shards < 1)
        usage("--shards wants N >= 1");
    } else if (Arg == "--shard-retries") {
      ShardRetries = numberArg<int64_t>(Arg, Next());
    } else if (Arg == "--shard-deadline-ms") {
      ShardDeadlineMs = numberArg<double>(Arg, Next());
    } else if (Arg == "--shard-heartbeat-ms") {
      ShardHeartbeatMs = numberArg<double>(Arg, Next());
    } else if (Arg == "--inject-oom-layer") {
      Faults.OomAtLayer = numberArg<int64_t>(Arg, Next());
      HaveFaults = true;
    } else if (Arg == "--inject-oom-count") {
      Faults.OomFireCount = numberArg<int64_t>(Arg, Next());
      HaveFaults = true;
    } else if (Arg == "--inject-nan-layer") {
      Faults.NanAtLayer = numberArg<int64_t>(Arg, Next());
      HaveFaults = true;
    } else if (Arg == "--clock-skew-ms") {
      Faults.ClockSkewSecondsPerLayer = numberArg<double>(Arg, Next()) / 1000.0;
      HaveFaults = true;
    } else if (Arg == "--inject-worker-fault") {
      InjectedWorkerFault = parseWorkerFault(Next());
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
  // A fault aimed at no worker never fires, and the run would pass as a
  // clean one.
  if (!InjectedWorkerFault.Mode.empty() &&
      (InjectedWorkerFault.Shard < 0 || InjectedWorkerFault.Shard >= Shards))
    usage(("--inject-worker-fault shard " +
           std::to_string(InjectedWorkerFault.Shard) +
           (Shards > 0 ? " is outside [0, " + std::to_string(Shards) + ")"
                       : " needs --shards N (a shard in [0, N))"))
              .c_str());

  // The fault-injection harness lives for the whole analysis; a skewed
  // clock replaces the wall clock so deadline runs are deterministic.
  FaultInjector Injector(Faults);
  if (HaveFaults) {
    Config.Resilience.Faults = &Injector;
    if (Faults.ClockSkewSecondsPerLayer > 0.0)
      Config.Resilience.Clock = Injector.clock();
  }

  // Observability is opt-in: every plane defaults off. A sharded run's
  // workers record the same planes and ship them back on their results.
  if (!TraceOutPath.empty())
    setTraceEnabled(true);
  if (!MetricsOutPath.empty() || !PromOutPath.empty() || Report)
    setMetricsEnabled(true);
  if (!LogOutPath.empty())
    setLogEnabled(true);
  if (logEnabled()) {
    if (RunId.empty())
      RunId = makeRunId();
    EventLog::global().setRunId(RunId);
  }

  // Graceful shutdown. All exit paths — normal returns, DEGRADED exit 4,
  // SIGINT/SIGTERM exit 5 — flush through the one ObsFlushGuard below.
  // (Workers never get here: runShardWorker keeps their default signal
  // dispositions, so exit-status classification works.)
  {
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

  // Load the pipeline. A malformed file or a NaN/Inf weight would poison
  // every bound downstream; loadNetwork refuses both with the reason.
  std::vector<Sequential> Networks;
  std::vector<const Layer *> Pipeline;
  {
    GENPROVE_SPAN("load_networks");
    std::string Why;
    if (!loadPipeline(NetPaths, Networks, Pipeline, &Why)) {
      std::fprintf(stderr, "genprove_cli: %s\n", Why.c_str());
      return 2;
    }
  }

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
  // Sharded: supervise one worker process per shard and merge.
  //===--------------------------------------------------------------------===//
  if (Shards > 0) {
    ShardJob Job;
    Job.NetPaths = NetPaths;
    Job.InputShape = ShapeText;
    Job.Start = Start.values();
    Job.End = End.values();
    Job.Specs = SpecTexts;
    Job.Shards = Shards;
    Job.Config = Config;
    // Each worker gets its exact per-shard slice of the budget.
    const size_t PerShardBudget =
        Config.MemoryBudgetBytes == 0
            ? 0
            : std::max<size_t>(Config.MemoryBudgetBytes /
                                   static_cast<size_t>(Shards),
                               1);
    Job.Config.MemoryBudgetBytes = PerShardBudget;
    if (HaveFaults)
      Job.Faults = Faults;
    Job.Fault = InjectedWorkerFault;
    if (ThreadsGiven > 0)
      Job.Threads = std::max<int64_t>(ThreadsGiven / Shards, 1);
    Job.ShipMetrics = metricsEnabled();
    Job.ShipTrace = traceEnabled();
    Job.ShipLog = logEnabled();
    Job.RunId = RunId;

    ShardPolicy Policy;
    Policy.MaxRetries = ShardRetries;
    Policy.ShardDeadlineSeconds = ShardDeadlineMs / 1000.0;
    Policy.HeartbeatTimeoutSeconds = ShardHeartbeatMs / 1000.0;

    // Coordinator-side admission: a Configured-rung worker whose *input*
    // state already busts the per-shard budget is doomed — skip straight
    // to the resilient rung. Uses the same tryCharge the engine uses, so
    // the rejection shows up in the device.* metrics.
    DeviceMemoryModel Admission(PerShardBudget);
    const int64_t Latent = Start.numel();
    const auto Admit = [&](const AttemptPlan &) {
      return Admission.tryChargeState(2, Latent);
    };

    if (logEnabled())
      EventLog::global().emit(LogLevel::Info, "run.start",
                              {{"shards", Shards},
                               {"retries", ShardRetries}});
    const std::optional<ShardRunSummary> Run = superviseShardJob(
        std::move(Job), Pipeline, Policy, "/proc/self/exe", Admit);
    if (!Run) {
      std::fprintf(stderr, "genprove_cli: cannot write the shard job file\n");
      return 2;
    }
    const ShardRunSummary &Summary = *Run;
    const int64_t NumSpecs = static_cast<int64_t>(Specs.size());
    MergedCertificate Merged = mergeShardResults(Summary.Results, NumSpecs);
    const bool Degraded = Merged.Degraded || Summary.Degraded;
    if (logEnabled())
      EventLog::global().emit(LogLevel::Info, "run.exit",
                              {{"exit_code", Degraded ? 4 : 0},
                               {"degraded", Degraded},
                               {"restarts", Summary.Restarts},
                               {"fallbacks", Summary.Fallbacks}});

    const bool Deterministic = Config.Mode == AnalysisMode::Deterministic;
    for (size_t I = 0; I < Specs.size(); ++I) {
      ProbBounds Bounds = Merged.Specs[I];
      Bounds.Degraded = Bounds.Degraded || Degraded;
      // The deterministic collapse happens on the *merged* bounds; a
      // per-shard collapse would destroy the partial masses the merge
      // sums.
      if (Deterministic)
        Bounds = Bounds.deterministic();
      if (Specs.size() > 1)
        std::printf("spec:    %s\n", SpecTexts[I].c_str());
      std::printf("bounds:  [%.6f, %.6f]  width %s\n", Bounds.Lower,
                  Bounds.Upper, formatBound(Bounds.width()).c_str());
      std::printf("verdict: %s\n",
                  verdictText(Bounds, Deterministic).c_str());
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
      ProbBounds Shown = Bounds;
      Shown.Degraded = Bounds.Degraded || State.Degraded;
      std::printf("verdict: %s\n",
                  verdictText(Shown, Config.Mode ==
                                         AnalysisMode::Deterministic)
                      .c_str());
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
