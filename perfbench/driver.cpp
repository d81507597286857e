//===- perfbench/driver.cpp - End-to-end certification benchmark -*- C++ -*-===//
///
/// \file
/// The in-process half of the end-to-end certification benchmark. The
/// entry point is perfbench/run.py, which builds this driver next to
/// genprove_serve and calls it once or twice per run:
///
///   prepare    --dir D
///       Train (first time only) or load the model zoo into D/zoo and
///       serialize the decoders and classifiers serve-mixed registers into
///       D/serve. Never timed.
///   cells      --dir D --seed N --seconds S --limit-s L [--sound]
///              [--trace-out FILE]
///       The paper-cells workload, or paper-cells-sound with --sound.
///       Prints one JSON object: correctness counts, end-to-end metrics
///       and, with --trace-out, per-layer metrics of a traced replay.
///   serve-pool --dir D --seed N
///       The serve-mixed segment pool and request knobs as JSON.
///   serve-ref  --dir D --seed N --items FILE
///       Library bounds for the served (segment, net) items listed in
///       FILE, computed under the configuration the daemon runs a request
///       with, for the bit-for-bit comparison; plus engine-reported layer
///       totals of those propagations.
///
/// The driver sets only knobs that choose results or capacity: method,
/// p/k, rounding mode and memory budget. Mechanism toggles stay at their
/// library defaults, so changing such a default is measured without
/// editing the benchmark.
///
//===----------------------------------------------------------------------===//

#include "src/core/consistency.h"
#include "src/core/model_zoo.h"
#include "src/domains/box_domain.h"
#include "src/domains/hybrid_zonotope.h"
#include "src/domains/prop_cache.h"
#include "src/nn/serialize.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/parallel/thread_pool.h"
#include "src/util/fp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/resource.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace genprove;

namespace {

//===----------------------------------------------------------------------===//
// Workload constants
//===----------------------------------------------------------------------===//

const char *const Nets[] = {"ConvSmall", "ConvMed", "ConvLarge"};
const DatasetId Datasets[] = {DatasetId::Faces, DatasetId::Shoes};

/// The paper-table harness's simulated device budget (24 GB scaled 1:100).
constexpr size_t BudgetBytes = 240ull << 20;
/// GenProve^0.02_100 with the harness's node threshold.
constexpr double RelaxPercent = 0.02;
constexpr double ClusterK = 100.0;
constexpr int64_t NodeThreshold = 250;
/// The segment corpus is drawn once, from this seed, not from the
/// workload seed: with a fresh draw per seed, runs differed by 25-40% in
/// latency, width and peak memory from the choice of segments alone. The
/// workload seed orders the corpus and places the concrete check points.
constexpr uint64_t CorpusSeed = 1;
/// Segments certified per round from each dataset (Faces, Shoes); the
/// Zappos* pipelines are several times cheaper, so they get more.
constexpr int64_t PerRound[2] = {1, 3};
/// A pass certifies every corpus segment once, and runs end on a pass
/// boundary. A short pass gives each cell several repeats in a run, and
/// the end-to-end figures use each cell's fastest repeat (writeEndToEnd).
constexpr int64_t RoundsPerPass = 1;
/// Seeded concrete points per segment, checked against every
/// deterministic answer (l = 1 or u = 0).
constexpr int64_t ConcretePoints = 16;
/// Zoo loads per run; setup_s is their median.
constexpr int SetupReps = 11;
/// Slack of the GenProve^0 inside GenProve^0.02_100 check: both bounds
/// are rounded (outward under --sound) along different paths.
constexpr double NestingSlack = 1e-9;

/// serve-mixed: the pipelines the daemon registers, and its pool.
struct ServeNet {
  const char *Name;
  DatasetId Data;
  const char *Arch;
};
const ServeNet ServeNets[] = {{"shoes-small", DatasetId::Shoes, "ConvSmall"},
                              {"shoes-med", DatasetId::Shoes, "ConvMed"},
                              {"faces-small", DatasetId::Faces, "ConvSmall"}};
constexpr int64_t ServeShoesSegments = 24;
constexpr int64_t ServeFacesSegments = 12;
/// Served segments end halfway between the pair's encodings, which keeps
/// a request's cost and the daemon's load low.
constexpr double ServeFraction = 0.5;
/// QosPolicy::DefaultRunSeconds: the engine deadline of a served request
/// that carries none.
constexpr double ServeRunSeconds = 30.0;

constexpr double Mb = 1024.0 * 1024.0;

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", Msg.c_str());
  std::exit(2);
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 of (seed, stream): an independent generator seed per use.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Linear-interpolation quantile of a sample (numpy's default).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double H = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(H);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (H - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

ZooConfig zooConfig(const std::string &Dir) {
  ZooConfig Config;
  Config.CacheDir = Dir + "/zoo";
  return Config;
}

std::string readyStamp(const std::string &Dir) { return Dir + "/zoo/READY"; }

/// Timed subcommands refuse an unprepared directory: ModelZoo would
/// otherwise train inside a timed run.
void requirePrepared(const std::string &Dir) {
  if (!std::filesystem::exists(readyStamp(Dir)))
    die("no prepared zoo under " + Dir + "; run `prepare --dir " + Dir +
        "` first");
}

std::string servePath(const std::string &Dir, DatasetId Data,
                      const std::string &Part) {
  return Dir + "/serve/" + (Data == DatasetId::Faces ? "faces-" : "shoes-") +
         Part + ".gpn";
}

Sequential &targetNetwork(ModelZoo &Zoo, DatasetId Data,
                          const std::string &Arch) {
  return Data == DatasetId::Faces ? Zoo.facesDetector(Arch)
                                  : Zoo.shoesClassifier(Arch);
}

void writeInfo(JsonWriter &W) {
  W.key("build_type").value(PERFBENCH_BUILD_TYPE);
  W.key("compiler").value(__VERSION__);
  W.key("pool_threads").value(ThreadPool::global().threads());
  W.key("sound").value(soundRoundingEnabled());
}

//===----------------------------------------------------------------------===//
// Bench-side tracing
//===----------------------------------------------------------------------===//

/// Spans around every call the benchmark makes into a layer, kept in
/// memory and written as one Chrome trace at the end of the run. The
/// library's own spans carry no arguments, and these must tie the layer
/// calls of one certification together by its id. Spans nest on the one
/// benchmark thread, so a span's self time is its duration minus the
/// durations of its direct children.
class Tracer {
public:
  bool on() const { return On; }
  void enable() {
    On = true;
    Epoch = nowSeconds();
  }

  void begin(const char *Name, std::string Args) {
    if (On)
      Stack.push_back({Name, std::move(Args), nowSeconds(), 0.0});
  }

  void end() {
    if (!On)
      return;
    Open Top = std::move(Stack.back());
    Stack.pop_back();
    const double Dur = nowSeconds() - Top.Start;
    if (!Stack.empty())
      Stack.back().ChildSeconds += Dur;
    SelfTime &Self = SelfByName[Top.Name];
    ++Self.Calls;
    Self.Seconds += Dur - Top.ChildSeconds;
    Events.push_back({Top.Name, std::move(Top.Args), Top.Start - Epoch, Dur});
  }

  void writeChrome(const std::string &Path) const {
    JsonWriter W;
    W.beginObject();
    W.key("displayTimeUnit").value("ms");
    W.key("traceEvents").beginArray();
    for (const Event &E : Events) {
      W.beginObject();
      W.key("name").value(E.Name);
      W.key("cat").value("perfbench");
      W.key("ph").value("X");
      W.key("ts").value(E.Start * 1e6);
      W.key("dur").value(E.Seconds * 1e6);
      W.key("pid").value(int64_t{1});
      W.key("tid").value(int64_t{1});
      W.key("args").raw(E.Args.empty() ? "{}" : E.Args);
      W.endObject();
    }
    W.endArray();
    W.endObject();
    std::ofstream Out(Path);
    Out << W.str() << '\n';
    if (!Out)
      die("cannot write " + Path);
  }

  /// Self time per span name, largest first.
  std::string selfTimeTable() const {
    std::vector<std::pair<std::string, SelfTime>> Rows(SelfByName.begin(),
                                                       SelfByName.end());
    std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
      return A.second.Seconds > B.second.Seconds;
    });
    double Total = 0.0;
    for (const auto &Row : Rows)
      Total += Row.second.Seconds;
    std::string Out;
    char Line[256];
    std::snprintf(Line, sizeof(Line), "%-36s %8s %12s %7s\n", "span", "calls",
                  "self_s", "share");
    Out += Line;
    for (const auto &[Name, Self] : Rows) {
      std::snprintf(Line, sizeof(Line), "%-36s %8lld %12.6f %6.1f%%\n",
                    Name.c_str(), static_cast<long long>(Self.Calls),
                    Self.Seconds, 100.0 * ratio(Self.Seconds, Total));
      Out += Line;
    }
    return Out;
  }

private:
  struct Open {
    const char *Name;
    std::string Args;
    double Start;
    double ChildSeconds;
  };
  struct Event {
    const char *Name;
    std::string Args;
    double Start;
    double Seconds;
  };
  struct SelfTime {
    int64_t Calls = 0;
    double Seconds = 0.0;
  };

  bool On = false;
  double Epoch = 0.0;
  std::vector<Open> Stack;
  std::vector<Event> Events;
  std::map<std::string, SelfTime> SelfByName;
};

/// Scoped span. Callers build Args only while the tracer is on.
class Span {
public:
  Span(Tracer &Owner, const char *Name, std::string Args = {})
      : Owner(Owner) {
    Owner.begin(Name, std::move(Args));
  }
  ~Span() { Owner.end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &Owner;
};

std::string idArgs(int64_t Id) {
  return "{\"cert\":" + std::to_string(Id) + "}";
}

//===----------------------------------------------------------------------===//
// Models and inputs
//===----------------------------------------------------------------------===//

/// One certified pipeline: a dataset's decoder followed by a classifier.
struct Pipe {
  DatasetId Data = DatasetId::Faces;
  int NetIndex = 0; ///< index into Nets (paper cells) or ServeNets
  std::string Name;
  std::vector<const Layer *> Layers;
  Shape LatentShape;
  /// Computed multiply-adds one abstract node costs in each layer: the
  /// fan-in (accumulation depth minus the bias add) times the output
  /// size. Zero for ReLU and the reshapes.
  std::vector<double> MaddsPerNode;
};

Pipe makePipe(DatasetId Data, int NetIndex, std::string Name,
              std::vector<const Layer *> Layers, int64_t Latent) {
  Pipe P;
  P.Data = Data;
  P.NetIndex = NetIndex;
  P.Name = std::move(Name);
  P.Layers = std::move(Layers);
  P.LatentShape = Shape({1, Latent});
  Shape In = P.LatentShape;
  for (const Layer *L : P.Layers) {
    const Shape Out = L->outputShape(In);
    const int64_t FanIn = L->accumulationDepth() - 1;
    P.MaddsPerNode.push_back(FanIn > 0 ? static_cast<double>(FanIn) *
                                             static_cast<double>(Out.numel())
                                       : 0.0);
    In = Out;
  }
  return P;
}

/// The cached zoo (datasets regenerated, networks read from disk) and the
/// paper-cell pipelines: everything a run needs before its first
/// certification.
struct CellModels {
  std::unique_ptr<ModelZoo> Zoo;
  std::vector<Pipe> Pipes; ///< Faces x Nets, then Shoes x Nets
};

CellModels loadCellModels(const std::string &Dir) {
  CellModels M;
  M.Zoo = std::make_unique<ModelZoo>(zooConfig(Dir));
  for (DatasetId Data : Datasets) {
    M.Zoo->train(Data);
    Vae &Model = M.Zoo->vae(Data);
    for (int I = 0; I < 3; ++I) {
      Sequential &Target = targetNetwork(*M.Zoo, Data, Nets[I]);
      M.Pipes.push_back(makePipe(
          Data, I, std::string(datasetDisplayName(Data)) + "/" + Nets[I],
          concatViews(Model.decoder().view(), Target.view()),
          Model.latentDim()));
    }
  }
  return M;
}

/// A latent segment between the encodings of a matched pair, with its
/// specifications and seeded concrete points on it.
struct Segment {
  Tensor Start, End;   ///< [1, Latent]
  double Length = 0.0; ///< latent distance |End - Start|
  std::vector<OutputSpec> Specs;
  std::vector<std::string> SpecTexts; ///< the same specs, wire grammar
  Tensor Points;                      ///< [ConcretePoints, Latent]
  /// Per pipeline (NetIndex), Satisfied[spec][point]; filled on first use.
  std::map<int, std::vector<std::vector<char>>> Satisfied;
};

/// \p Count segments of \p Data from the pair samplers of the paper
/// tables (same attribute vector for faces, same class for shoes), with
/// the end point pulled to \p Fraction of the way from the start and
/// concrete points drawn from \p PointSeed.
std::vector<Segment> makeSegments(ModelZoo &Zoo, DatasetId Data,
                                  int64_t Count, uint64_t Seed,
                                  uint64_t PointSeed, double Fraction) {
  const Dataset &Set = Zoo.train(Data);
  Vae &Model = Zoo.vae(Data);
  Rng PairRng(Seed);
  const std::vector<SpecPair> Pairs =
      Data == DatasetId::Faces ? sameAttributePairs(Set, Count, PairRng)
                               : sameClassPairs(Set, Count, PairRng);
  Rng PointRng(PointSeed);
  const int64_t Latent = Model.latentDim();
  std::vector<Segment> Out;
  for (const SpecPair &Pair : Pairs) {
    Segment S;
    S.Start = Model.encode(Set.image(Pair.First));
    S.End = Model.encode(Set.image(Pair.Second));
    double SumSq = 0.0;
    for (int64_t J = 0; J < Latent; ++J) {
      if (Fraction < 1.0)
        S.End[J] = S.Start[J] + Fraction * (S.End[J] - S.Start[J]);
      SumSq += (S.End[J] - S.Start[J]) * (S.End[J] - S.Start[J]);
    }
    S.Length = std::sqrt(SumSq);
    if (Data == DatasetId::Faces) {
      const int64_t N = Set.numAttributes();
      for (int64_t J = 0; J < N; ++J) {
        const bool Positive = Set.Attributes.at(Pair.First, J) > 0.5;
        S.Specs.push_back(OutputSpec::attributeSign(J, Positive, N));
        S.SpecTexts.push_back("sign:" + std::to_string(J) +
                              (Positive ? ":+:" : ":-:") + std::to_string(N));
      }
    } else {
      const int64_t N = Set.numClasses();
      const int64_t Label = Set.Labels[static_cast<size_t>(Pair.First)];
      S.Specs.push_back(OutputSpec::argmaxWins(Label, N));
      S.SpecTexts.push_back("argmax:" + std::to_string(Label) + ":" +
                            std::to_string(N));
    }
    S.Points = Tensor({ConcretePoints, Latent});
    for (int64_t I = 0; I < ConcretePoints; ++I) {
      const double T = PointRng.uniform();
      for (int64_t J = 0; J < Latent; ++J)
        S.Points.at(I, J) = S.Start[J] + T * (S.End[J] - S.Start[J]);
    }
    Out.push_back(std::move(S));
  }
  return Out;
}

/// Seeded Fisher-Yates order of a corpus.
void shuffleSegments(std::vector<Segment> &Segs, uint64_t Seed) {
  Rng Order(Seed);
  for (size_t I = Segs.size(); I > 1; --I)
    std::swap(Segs[I - 1], Segs[static_cast<size_t>(Order.below(I))]);
}

/// Which of the segment's concrete points satisfy which spec under \p P.
const std::vector<std::vector<char>> &
satisfiedPoints(Segment &S, const Pipe &P, Tracer &Trace) {
  auto It = S.Satisfied.find(P.NetIndex);
  if (It != S.Satisfied.end())
    return It->second;
  Span Call(Trace, "nn.forwardConcretePoints");
  const Tensor Y = forwardConcretePoints(P.Layers, P.LatentShape, S.Points);
  const int64_t N = Y.dim(1);
  std::vector<std::vector<char>> Table(
      S.Specs.size(), std::vector<char>(ConcretePoints, 0));
  for (int64_t I = 0; I < ConcretePoints; ++I) {
    Tensor Row({1, N});
    std::copy(Y.data() + I * N, Y.data() + (I + 1) * N, Row.data());
    for (size_t J = 0; J < S.Specs.size(); ++J)
      Table[J][static_cast<size_t>(I)] = S.Specs[J].satisfied(Row) ? 1 : 0;
  }
  return S.Satisfied.emplace(P.NetIndex, std::move(Table)).first->second;
}

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

enum MethodId { Exact, Relaxed, Box, Hybrid, NumMethods };
const char *const MethodNames[] = {"GenProve0", "GenProve0.02_100", "Box",
                                   "HybridZono"};

/// Everything one measured phase produced. Latency, width and peak cover
/// the GenProve-family certifications; the convex domains feed only the
/// per-layer totals.
struct Totals {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<double> Latencies;
  std::vector<double> VisitSeconds; ///< per visitCell, checks left out
  int64_t Bounds = 0;
  int64_t NonTrivial = 0;
  double WidthSum = 0.0;
  size_t PeakBytes = 0;
  double CheckSeconds = 0.0; ///< correctness checks, left out of Wall
  double Wall = 0.0;         ///< measured wall seconds
  // Per-layer: bench-side span totals and engine-reported records.
  double PropagateSeconds = 0.0;
  double BoundsSeconds = 0.0;
  int64_t Retries = 0;
  double KindSeconds[4] = {}; ///< Linear, Conv2d, ConvTranspose2d, ReLU
  double LayerSeconds = 0.0;  ///< all LayerRecords
  int64_t NodesMax = 0;
  int64_t Splits = 0;
  int64_t Boxed = 0;
  int64_t WarmLayers = 0;
  double Madds = 0.0;
  double AffineSeconds = 0.0;
  int64_t ConvexCalls[2] = {}; ///< Box, HybridZono
  int64_t ConvexBounds[2] = {};
  double ConvexSeconds[2] = {};
  double ConvexWidth[2] = {};
};

/// Fold one propagation's engine-reported telemetry into \p T.
void addEngineRecords(Totals &T, const Pipe &P, const PropagateStats &Stats,
                      int64_t Retries) {
  T.Retries += Retries;
  T.Splits += Stats.NumSplits;
  T.Boxed += Stats.NumBoxed;
  T.WarmLayers += Stats.CacheWarmLayers;
  for (const LayerRecord &R : Stats.Layers) {
    T.LayerSeconds += R.Seconds;
    T.NodesMax = std::max(T.NodesMax, R.NodesOut);
    if (R.Index < 0 || R.Index >= static_cast<int64_t>(P.Layers.size()))
      continue;
    int Kind = -1;
    switch (P.Layers[static_cast<size_t>(R.Index)]->kind()) {
    case Layer::Kind::Linear:
      Kind = 0;
      break;
    case Layer::Kind::Conv2d:
      Kind = 1;
      break;
    case Layer::Kind::ConvTranspose2d:
      Kind = 2;
      break;
    case Layer::Kind::ReLU:
      Kind = 3;
      break;
    default:
      break;
    }
    if (Kind < 0)
      continue;
    T.KindSeconds[Kind] += R.Seconds;
    if (Kind < 3) {
      T.AffineSeconds += R.Seconds;
      T.Madds += static_cast<double>(R.NodesIn) *
                 P.MaddsPerNode[static_cast<size_t>(R.Index)];
    }
  }
}

/// Why \p B is not an acceptable answer, or nullptr.
const char *boundProblem(const ProbBounds &B) {
  if (B.OutOfMemory)
    return "out of memory";
  if (B.Degraded)
    return "degraded";
  if (!(B.Lower >= 0.0 && B.Lower <= B.Upper && B.Upper <= 1.0))
    return "bound not in [0,1] with l <= u";
  return nullptr;
}

GenProveConfig cellConfig(bool Relax) {
  GenProveConfig Config;
  Config.ClusterK = ClusterK;
  Config.NodeThreshold = NodeThreshold;
  Config.MemoryBudgetBytes = BudgetBytes;
  if (Relax) {
    Config.RelaxPercent = RelaxPercent;
    Config.Schedule = RefinementSchedule::A;
  }
  return Config;
}

/// State shared by every certification of a cells run.
struct CellRun {
  explicit CellRun(const std::vector<Pipe> &Pipes) : Pipes(Pipes) {}

  const std::vector<Pipe> &Pipes;
  const GenProve ExactAnalyzer{cellConfig(false)};
  const GenProve RelaxedAnalyzer{cellConfig(true)};
  Tracer Trace;
  int64_t NextCert = 0;
  int64_t Reported = 0; ///< failure messages printed so far
};

void reportFailure(CellRun &Run, const Pipe &P, int Method, size_t Spec,
                   const char *Why) {
  if (Run.Reported++ < 10)
    std::fprintf(stderr, "perfbench_driver: FAILED %s %s spec %zu: %s\n",
                 P.Name.c_str(), MethodNames[Method], Spec, Why);
}

std::string certArgs(int64_t Id, const Pipe &P, int Method,
                     const Segment &S) {
  return "{\"cert\":" + std::to_string(Id) + ",\"pipeline\":\"" + P.Name +
         "\",\"method\":\"" + MethodNames[Method] +
         "\",\"length\":" + std::to_string(S.Length) + "}";
}

/// Certify one segment through one pipeline with every method of the
/// grid, then check the answers against each other and against the
/// segment's concrete points.
void visitCell(CellRun &Run, const Pipe &P, Segment &S, Totals &T) {
  Tracer &Trace = Run.Trace;
  std::vector<ProbBounds> Out[NumMethods];
  const double VisitStart = nowSeconds();

  for (int M : {Exact, Relaxed}) {
    const GenProve &Analyzer =
        M == Exact ? Run.ExactAnalyzer : Run.RelaxedAnalyzer;
    const int64_t Id = Run.NextCert++;
    Span Cert(Trace, "certification",
              Trace.on() ? certArgs(Id, P, M, S) : std::string());
    const double T0 = nowSeconds();
    PropagatedState State;
    {
      Span Call(Trace, "core.propagateSegment",
                Trace.on() ? idArgs(Id) : std::string());
      State = Analyzer.propagateSegment(P.Layers, P.LatentShape, S.Start,
                                        S.End);
    }
    const double T1 = nowSeconds();
    {
      Span Call(Trace, "core.boundsFor",
                Trace.on() ? idArgs(Id) : std::string());
      for (const OutputSpec &Spec : S.Specs)
        Out[M].push_back(Analyzer.boundsFor(State, Spec));
    }
    const double T2 = nowSeconds();
    T.Latencies.push_back(T2 - T0);
    T.PropagateSeconds += T1 - T0;
    T.BoundsSeconds += T2 - T1;
    T.PeakBytes = std::max(T.PeakBytes, State.PeakBytes);
    if (Trace.on())
      addEngineRecords(T, P, State.Stats, State.Retries);
    for (const ProbBounds &B : Out[M]) {
      T.WidthSum += B.width();
      T.NonTrivial += B.nonTrivial() ? 1 : 0;
      ++T.Bounds;
    }
  }

  for (int M : {Box, Hybrid}) {
    const int K = M - Box;
    const int64_t Id = Run.NextCert++;
    Span Cert(Trace, "certification",
              Trace.on() ? certArgs(Id, P, M, S) : std::string());
    const double T0 = nowSeconds();
    DeviceMemoryModel Memory(BudgetBytes);
    std::vector<ConvexResult> Results;
    {
      Span Call(Trace,
                M == Box ? "domains.analyzeBoxMulti"
                         : "domains.analyzeHybridZonotopeMulti",
                Trace.on() ? idArgs(Id) : std::string());
      Results = M == Box ? analyzeBoxMulti(P.Layers, P.LatentShape, S.Start,
                                           S.End, S.Specs, Memory)
                         : analyzeHybridZonotopeMulti(P.Layers, P.LatentShape,
                                                      S.Start, S.End, S.Specs,
                                                      Memory);
    }
    T.ConvexSeconds[K] += nowSeconds() - T0;
    ++T.ConvexCalls[K];
    for (const ConvexResult &R : Results) {
      Out[M].push_back(R.Bounds);
      T.ConvexWidth[K] += R.Bounds.width();
      ++T.ConvexBounds[K];
    }
  }

  const double CheckStart = nowSeconds();
  T.VisitSeconds.push_back(CheckStart - VisitStart);
  bool Ok[NumMethods] = {true, true, true, true};
  {
    Span Check(Trace, "check");
    const std::vector<std::vector<char>> &Sat = satisfiedPoints(S, P, Trace);
    for (int M = 0; M < NumMethods; ++M) {
      if (Out[M].size() != S.Specs.size()) {
        Ok[M] = false;
        reportFailure(Run, P, M, 0, "wrong number of bounds");
        continue;
      }
      for (size_t J = 0; J < S.Specs.size(); ++J) {
        const ProbBounds &B = Out[M][J];
        if (const char *Why = boundProblem(B)) {
          Ok[M] = false;
          reportFailure(Run, P, M, J, Why);
          continue;
        }
        const bool All = std::all_of(Sat[J].begin(), Sat[J].end(),
                                     [](char C) { return C != 0; });
        const bool None = std::none_of(Sat[J].begin(), Sat[J].end(),
                                       [](char C) { return C != 0; });
        if ((B.Lower >= 1.0 && !All) || (B.Upper <= 0.0 && !None)) {
          Ok[M] = false;
          reportFailure(Run, P, M, J, "contradicted by a concrete point");
        }
      }
    }
    if (Ok[Exact] && Ok[Relaxed])
      for (size_t J = 0; J < S.Specs.size(); ++J) {
        const ProbBounds &E = Out[Exact][J];
        const ProbBounds &R = Out[Relaxed][J];
        if (R.Lower > E.Lower + NestingSlack ||
            E.Upper > R.Upper + NestingSlack) {
          Ok[Relaxed] = false;
          reportFailure(Run, P, Relaxed, J,
                        "GenProve0 bound not inside GenProve0.02_100");
        }
      }
  }
  T.CheckSeconds += nowSeconds() - CheckStart;

  for (int M = 0; M < NumMethods; ++M) {
    ++T.Attempted;
    if (!Ok[M])
      ++T.Failed;
  }
}

/// Certify round after round (PerRound segments per dataset, each through
/// every pipeline of its dataset) until \p Seconds have passed and a pass
/// is complete, or exactly \p Rounds rounds when Rounds >= 0. Returns the
/// rounds run.
int64_t runRounds(CellRun &Run, std::vector<Segment> (&Segs)[2],
                  double Seconds, int64_t Rounds, Totals &T) {
  const double Start = nowSeconds();
  int64_t R = 0;
  while (Rounds >= 0 ? R < Rounds
                     : (R == 0 || R % RoundsPerPass != 0 ||
                        nowSeconds() - Start < Seconds)) {
    for (int K = 0; K < 2; ++K)
      for (int64_t J = 0; J < PerRound[K]; ++J) {
        Segment &S = Segs[K][static_cast<size_t>(R * PerRound[K] + J) %
                             Segs[K].size()];
        for (const Pipe &P : Run.Pipes)
          if (P.Data == Datasets[K])
            visitCell(Run, P, S, T);
      }
    ++R;
  }
  T.Wall = nowSeconds() - Start - T.CheckSeconds;
  return R;
}

/// The fastest of each slot's repeats: \p V holds \p Passes passes of
/// equally many slots, in the same slot order in every pass.
std::vector<double> bestPerSlot(const std::vector<double> &V, int64_t Passes) {
  const size_t Slots = V.size() / static_cast<size_t>(Passes);
  std::vector<double> Best(V.begin(), V.begin() + static_cast<long>(Slots));
  for (size_t I = Slots; I < V.size(); ++I)
    Best[I % Slots] = std::min(Best[I % Slots], V[I]);
  return Best;
}

/// Every pass certifies the same cells in the same order. On a shared host
/// other tenants slow some repeats of a cell and not others, so latency
/// and throughput use each cell's fastest repeat in the run: quantiles
/// over the cells' best latencies, and the certifications of one pass
/// over the sum of the best visit times (convex domains included, checks
/// left out).
void writeEndToEnd(JsonWriter &W, const Totals &T, int64_t Passes,
                   double SetupSeconds, double LimitSeconds) {
  const std::vector<double> Best = bestPerSlot(T.Latencies, Passes);
  const std::vector<double> Visits = bestPerSlot(T.VisitSeconds, Passes);
  double PassSeconds = 0.0;
  for (double S : Visits)
    PassSeconds += S;
  const auto Within = std::count_if(Best.begin(), Best.end(), [&](double S) {
    return S <= LimitSeconds;
  });
  W.key("setup_s").value(SetupSeconds);
  W.key("cert_p50_s").value(quantile(Best, 0.5));
  W.key("cert_p90_s").value(quantile(Best, 0.9));
  W.key("cert_samples").value(static_cast<int64_t>(T.Latencies.size()));
  W.key("certs_per_s")
      .value(ratio(static_cast<double>(Best.size()), PassSeconds));
  W.key("goodput_per_s")
      .value(ratio(static_cast<double>(Within), PassSeconds));
  W.key("width_mean").value(ratio(T.WidthSum, static_cast<double>(T.Bounds)));
  W.key("nontrivial_frac")
      .value(ratio(static_cast<double>(T.NonTrivial),
                   static_cast<double>(T.Bounds)));
  W.key("peak_device_mb").value(static_cast<double>(T.PeakBytes) / Mb);
  W.key("rss_mb").value(peakRssMb());
}

/// Per-layer metrics of the library runs, per GenProve-family
/// certification: bench-side spans and engine-reported records.
void writeEngineLayers(JsonWriter &W, const Totals &T) {
  const double N = static_cast<double>(T.Latencies.size());
  W.key("core.propagate_s").value(ratio(T.PropagateSeconds, N));
  W.key("core.bounds_s").value(ratio(T.BoundsSeconds, N));
  W.key("core.retries").value(T.Retries);
  W.key("propagate.linear_s").value(ratio(T.KindSeconds[0], N));
  W.key("propagate.conv_s").value(ratio(T.KindSeconds[1], N));
  W.key("propagate.convt_s").value(ratio(T.KindSeconds[2], N));
  W.key("propagate.relu_s").value(ratio(T.KindSeconds[3], N));
  W.key("propagate.other_s")
      .value(ratio(T.PropagateSeconds - T.LayerSeconds, N));
  W.key("propagate.nodes_max").value(T.NodesMax);
  W.key("propagate.splits").value(ratio(static_cast<double>(T.Splits), N));
  W.key("propagate.boxed").value(ratio(static_cast<double>(T.Boxed), N));
  W.key("propagate.peak_mb").value(static_cast<double>(T.PeakBytes) / Mb);
  W.key("tensor.affine_madds").value(ratio(T.Madds, N));
  W.key("tensor.affine_gmadds_per_s")
      .value(ratio(T.Madds, T.AffineSeconds) / 1e9);
  W.key("cache.warm_layers").value(T.WarmLayers);
}

/// Per-layer metrics only the in-process cells run has.
void writeCellLayers(JsonWriter &W, const Totals &T, double Overhead) {
  W.key("convex.box_s")
      .value(ratio(T.ConvexSeconds[0], static_cast<double>(T.ConvexCalls[0])));
  W.key("convex.hybrid_s")
      .value(ratio(T.ConvexSeconds[1], static_cast<double>(T.ConvexCalls[1])));
  W.key("convex.box_width")
      .value(ratio(T.ConvexWidth[0], static_cast<double>(T.ConvexBounds[0])));
  W.key("convex.hybrid_width")
      .value(ratio(T.ConvexWidth[1], static_cast<double>(T.ConvexBounds[1])));
  const PropagationCache::Snapshot Cache =
      PropagationCache::global().snapshot();
  W.key("cache.hits").value(Cache.Hits);
  W.key("cache.misses").value(Cache.Misses);
  W.key("cache.hit_ratio")
      .value(ratio(static_cast<double>(Cache.Hits),
                   static_cast<double>(Cache.Hits + Cache.Misses)));
  W.key("cache.evictions").value(Cache.Evictions);
  W.key("cache.bytes").value(static_cast<int64_t>(Cache.Bytes));
  const MetricsRegistry &Registry = MetricsRegistry::global();
  const auto Count = [&](const char *Name) {
    const Counter *C = Registry.findCounter(Name);
    return C ? C->value() : int64_t{0};
  };
  const auto Level = [&](const char *Name) {
    const Gauge *G = Registry.findGauge(Name);
    return G ? G->value() : 0.0;
  };
  W.key("pool.tasks").value(Count("pool.tasks"));
  W.key("pool.steals").value(Count("pool.steals"));
  const double Busy = Level("pool.busy_seconds");
  W.key("pool.busy_ratio")
      .value(ratio(Busy, Busy + Level("pool.idle_seconds")));
  W.key("trace.overhead_frac").value(Overhead);
}

//===----------------------------------------------------------------------===//
// Subcommands
//===----------------------------------------------------------------------===//

struct Args {
  std::string Command;
  std::string Dir;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  double LimitSeconds = 1.0;
  bool Sound = false;
  std::string TraceOut;
  std::string Items;
};

int runPrepare(const Args &A) {
  ZooConfig Config = zooConfig(A.Dir);
  Config.Verbose = true;
  ModelZoo Zoo(Config);
  std::filesystem::create_directories(A.Dir + "/serve");
  for (DatasetId Data : Datasets) {
    Zoo.train(Data);
    Vae &Model = Zoo.vae(Data);
    for (const char *Net : Nets)
      targetNetwork(Zoo, Data, Net);
    if (!saveNetwork(Model.decoder(), servePath(A.Dir, Data, "decoder")))
      die("cannot write " + servePath(A.Dir, Data, "decoder"));
  }
  for (const ServeNet &N : ServeNets)
    if (!saveNetwork(targetNetwork(Zoo, N.Data, N.Arch),
                     servePath(A.Dir, N.Data, N.Arch)))
      die("cannot write " + servePath(A.Dir, N.Data, N.Arch));
  std::ofstream Stamp(readyStamp(A.Dir));
  Stamp << "prepared\n";
  return Stamp ? 0 : 2;
}

int runCells(const Args &A) {
  requirePrepared(A.Dir);
  std::vector<double> Setups;
  CellModels Models;
  for (int I = 0; I < SetupReps; ++I) {
    Models = CellModels();
    const double T0 = nowSeconds();
    Models = loadCellModels(A.Dir);
    Setups.push_back(nowSeconds() - T0);
  }

  std::vector<Segment> Segs[2], Warm[2];
  for (int K = 0; K < 2; ++K) {
    const uint64_t Stream = static_cast<uint64_t>(K);
    Segs[K] = makeSegments(*Models.Zoo, Datasets[K],
                           PerRound[K] * RoundsPerPass,
                           mixSeed(CorpusSeed, Stream),
                           mixSeed(A.Seed, Stream), 1.0);
    shuffleSegments(Segs[K], mixSeed(A.Seed, 20 + Stream));
    // First calls pay one-time costs (|W| caches, page faults, pool
    // start-up): warm every pipeline and method on a short segment.
    Warm[K] = makeSegments(*Models.Zoo, Datasets[K], 1,
                           mixSeed(CorpusSeed, 10 + Stream),
                           mixSeed(A.Seed, 10 + Stream), 0.25);
  }
  if (A.Sound)
    setSoundRounding(true);

  CellRun Run(Models.Pipes);
  {
    Totals Scratch;
    runRounds(Run, Warm, 0.0, 1, Scratch);
  }

  const bool Traced = !A.TraceOut.empty();
  Totals Main, Replay;
  const int64_t Rounds =
      runRounds(Run, Segs, Traced ? A.Seconds / 2 : A.Seconds, -1, Main);
  double Overhead = 0.0;
  if (Traced) {
    // Replay the same rounds with spans, engine records and the metrics
    // registry on; the untraced pass above is the overhead baseline.
    MetricsRegistry::global().reset();
    setMetricsEnabled(true);
    Run.Trace.enable();
    {
      Span Root(Run.Trace, "workload",
                std::string("{\"workload\":\"") +
                    (A.Sound ? "paper-cells-sound" : "paper-cells") +
                    "\",\"seed\":" + std::to_string(A.Seed) + "}");
      runRounds(Run, Segs, 0.0, Rounds, Replay);
    }
    setMetricsEnabled(false);
    Overhead = ratio(Replay.Wall, Main.Wall) - 1.0;
    Run.Trace.writeChrome(A.TraceOut);
    const std::string Table = Run.Trace.selfTimeTable();
    std::fprintf(stderr, "%s", Table.c_str());
    std::ofstream(A.TraceOut + ".selftime.txt") << Table;
  }

  JsonWriter W;
  W.beginObject();
  W.key("attempted").value(Main.Attempted + Replay.Attempted);
  W.key("failed").value(Main.Failed + Replay.Failed);
  W.key("e2e").beginObject();
  writeEndToEnd(W, Main, Rounds / RoundsPerPass, quantile(Setups, 0.5),
                A.LimitSeconds);
  W.endObject();
  if (Traced) {
    W.key("layer").beginObject();
    writeEngineLayers(W, Replay);
    writeCellLayers(W, Replay, Overhead);
    W.endObject();
  }
  W.key("info").beginObject();
  writeInfo(W);
  W.key("rounds").value(Rounds);
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  return 0;
}

/// The serve-mixed pool, drawn from the corpus seed: shoes segments, each
/// offered to both shoes pipelines (which share the decoder), and faces
/// segments. The workload seed drives the traffic over it (run.py).
struct ServePool {
  std::vector<Segment> Segs;
  std::vector<DatasetId> Data;
};

ServePool makeServePool(ModelZoo &Zoo, uint64_t Seed) {
  ServePool Pool;
  for (DatasetId Data : {DatasetId::Shoes, DatasetId::Faces}) {
    std::vector<Segment> Segs = makeSegments(
        Zoo, Data,
        Data == DatasetId::Shoes ? ServeShoesSegments : ServeFacesSegments,
        mixSeed(Seed, 20 + static_cast<uint64_t>(Data)),
        mixSeed(Seed, 30 + static_cast<uint64_t>(Data)), ServeFraction);
    for (Segment &S : Segs) {
      Pool.Segs.push_back(std::move(S));
      Pool.Data.push_back(Data);
    }
  }
  return Pool;
}

int runServePool(const Args &A) {
  requirePrepared(A.Dir);
  ModelZoo Zoo(zooConfig(A.Dir));
  const ServePool Pool = makeServePool(Zoo, CorpusSeed);
  JsonWriter W;
  W.beginObject();
  W.key("p").value(RelaxPercent);
  W.key("k").value(ClusterK);
  W.key("threshold").value(NodeThreshold);
  W.key("nets").beginObject();
  for (const ServeNet &N : ServeNets) {
    W.key(N.Name).beginArray();
    W.value(servePath(A.Dir, N.Data, "decoder"));
    W.value(servePath(A.Dir, N.Data, N.Arch));
    W.endArray();
  }
  W.endObject();
  W.key("segments").beginArray();
  for (size_t I = 0; I < Pool.Segs.size(); ++I) {
    const Segment &S = Pool.Segs[I];
    W.beginObject();
    W.key("id").value(static_cast<int64_t>(I));
    W.key("input_shape").value("1x" + std::to_string(S.Start.numel()));
    W.key("length").value(S.Length);
    W.key("start").beginArray();
    for (int64_t J = 0; J < S.Start.numel(); ++J)
      W.value(S.Start[J]);
    W.endArray();
    W.key("end").beginArray();
    for (int64_t J = 0; J < S.End.numel(); ++J)
      W.value(S.End[J]);
    W.endArray();
    W.key("specs").beginArray();
    for (const std::string &Text : S.SpecTexts)
      W.value(Text);
    W.endArray();
    W.key("nets").beginArray();
    for (const ServeNet &N : ServeNets)
      if (N.Data == Pool.Data[I])
        W.value(N.Name);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("info").beginObject();
  writeInfo(W);
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  return 0;
}

int runServeRef(const Args &A) {
  requirePrepared(A.Dir);
  ModelZoo Zoo(zooConfig(A.Dir));
  const ServePool Pool = makeServePool(Zoo, CorpusSeed);

  // The daemon's own model files, concatenated the way its registry does.
  std::vector<std::unique_ptr<Sequential>> Owned;
  std::map<std::string, Pipe> Pipes;
  for (int I = 0; I < 3; ++I) {
    const ServeNet &N = ServeNets[I];
    std::vector<const Layer *> Layers;
    for (const std::string &Part :
         {std::string("decoder"), std::string(N.Arch)}) {
      std::optional<Sequential> Net =
          loadNetwork(servePath(A.Dir, N.Data, Part));
      if (!Net)
        die("cannot load " + servePath(A.Dir, N.Data, Part));
      Owned.push_back(std::make_unique<Sequential>(std::move(*Net)));
      Layers = concatViews(Layers, Owned.back()->view());
    }
    Pipes.emplace(N.Name, makePipe(N.Data, I, N.Name, std::move(Layers),
                                   Zoo.vae(N.Data).latentDim()));
  }

  struct Item {
    size_t Seg = 0;
    const Pipe *P = nullptr;
    std::vector<OutputSpec> Specs;
    std::vector<ProbBounds> Bounds;
    PropagateStats Stats;
    int64_t Retries = 0;
    size_t PeakBytes = 0;
    double PropagateSeconds = 0.0;
    double BoundsSeconds = 0.0;
    bool Degraded = false;
    bool OutOfMemory = false;
  };
  std::vector<Item> Items;
  std::ifstream In(A.Items);
  if (!In)
    die("cannot read " + A.Items);
  size_t Seg = 0;
  std::string Net;
  while (In >> Seg >> Net) {
    const auto It = Pipes.find(Net);
    if (Seg >= Pool.Segs.size() || It == Pipes.end() ||
        It->second.Data != Pool.Data[Seg])
      die("bad item '" + std::to_string(Seg) + " " + Net + "'");
    Item I;
    I.Seg = Seg;
    I.P = &It->second;
    for (const std::string &Text : Pool.Segs[Seg].SpecTexts) {
      OutputSpec Spec;
      if (!parseOutputSpecText(Text, Spec))
        die("bad spec " + Text);
      I.Specs.push_back(std::move(Spec));
    }
    Items.push_back(std::move(I));
  }

  // The configuration the daemon runs a no-deadline request under
  // (serve/qos.cpp: resilience always on), with an unlimited budget.
  GenProveConfig Config;
  Config.RelaxPercent = RelaxPercent;
  Config.ClusterK = ClusterK;
  Config.NodeThreshold = NodeThreshold;
  Config.Resilience.Enabled = true;
  Config.Resilience.DeadlineSeconds = ServeRunSeconds;
  const GenProve Analyzer(Config);
  const ParamCdf Cdf = makeCdf(Config.Distribution);

  // Items are independent: one per chunk, each running the engine
  // serially inside its chunk (results do not depend on thread count).
  parallelFor(static_cast<int64_t>(Items.size()), 1,
              [&](int64_t Begin, int64_t End) {
                for (int64_t K = Begin; K < End; ++K) {
                  Item &I = Items[static_cast<size_t>(K)];
                  const Segment &S = Pool.Segs[I.Seg];
                  // The daemon's one-shard request state (runShardAttempt
                  // over the parameter range [0, 1]): endpoints
                  // A + t (B - A) at t = 0 and t = 1.
                  const int64_t Latent = S.Start.numel();
                  Tensor First({1, Latent}), Last({1, Latent});
                  for (int64_t J = 0; J < Latent; ++J) {
                    First[J] = S.Start[J] + 0.0 * (S.End[J] - S.Start[J]);
                    Last[J] = S.Start[J] + 1.0 * (S.End[J] - S.Start[J]);
                  }
                  std::vector<Region> Initial;
                  Initial.push_back(makeSegmentRegion(
                      First, Last, Cdf(1.0) - Cdf(0.0), 0.0, 1.0));
                  const double T0 = nowSeconds();
                  const PropagatedState State = Analyzer.propagateRegionsFrom(
                      I.P->Layers, I.P->LatentShape, std::move(Initial));
                  const double T1 = nowSeconds();
                  for (const OutputSpec &Spec : I.Specs)
                    I.Bounds.push_back(Analyzer.boundsFor(State, Spec));
                  I.BoundsSeconds = nowSeconds() - T1;
                  I.PropagateSeconds = T1 - T0;
                  I.Stats = State.Stats;
                  I.Retries = State.Retries;
                  I.PeakBytes = State.PeakBytes;
                  I.Degraded = State.Degraded;
                  I.OutOfMemory = State.OutOfMemory;
                }
              });

  Totals T;
  JsonWriter W;
  W.beginObject();
  W.key("items").beginArray();
  for (const Item &I : Items) {
    T.Latencies.push_back(I.PropagateSeconds + I.BoundsSeconds);
    T.PropagateSeconds += I.PropagateSeconds;
    T.BoundsSeconds += I.BoundsSeconds;
    T.PeakBytes = std::max(T.PeakBytes, I.PeakBytes);
    addEngineRecords(T, *I.P, I.Stats, I.Retries);
    W.beginObject();
    W.key("seg").value(static_cast<int64_t>(I.Seg));
    W.key("net").value(I.P->Name);
    W.key("degraded").value(I.Degraded);
    W.key("oom").value(I.OutOfMemory);
    W.key("peak_bytes").value(static_cast<int64_t>(I.PeakBytes));
    W.key("bounds").beginArray();
    for (const ProbBounds &B : I.Bounds) {
      W.beginArray();
      W.value(B.Lower);
      W.value(B.Upper);
      W.endArray();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("layer").beginObject();
  writeEngineLayers(W, T);
  W.endObject();
  W.key("info").beginObject();
  writeInfo(W);
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  return 0;
}

Args parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: perfbench_driver prepare|cells|serve-pool|serve-ref "
        "--dir DIR [--seed N] [--seconds S] [--limit-s L] [--sound] "
        "[--trace-out FILE] [--items FILE]");
  Args A;
  A.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    const auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value for " + Arg);
      return Argv[++I];
    };
    if (Arg == "--dir")
      A.Dir = Value();
    else if (Arg == "--seed")
      A.Seed = std::stoull(Value());
    else if (Arg == "--seconds")
      A.Seconds = std::stod(Value());
    else if (Arg == "--limit-s")
      A.LimitSeconds = std::stod(Value());
    else if (Arg == "--sound")
      A.Sound = true;
    else if (Arg == "--trace-out")
      A.TraceOut = Value();
    else if (Arg == "--items")
      A.Items = Value();
    else
      die("unknown option " + Arg);
  }
  if (A.Dir.empty())
    die("--dir is required");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  if (A.Command == "prepare")
    return runPrepare(A);
  if (A.Command == "cells")
    return runCells(A);
  if (A.Command == "serve-pool")
    return runServePool(A);
  if (A.Command == "serve-ref")
    return runServeRef(A);
  die("unknown command " + A.Command);
}
