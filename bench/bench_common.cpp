//===- bench/bench_common.cpp ---------------------------------*- C++ -*-===//

#include "bench/bench_common.h"

#include "src/domains/box_domain.h"
#include "src/domains/zonotope.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/parallel/thread_pool.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace genprove {

const char *methodName(Method M) {
  switch (M) {
  case Method::Box:
    return "Box";
  case Method::HybridZono:
    return "HybridZono";
  case Method::Zonotope:
    return "Zonotope";
  case Method::DeepZono:
    return "DeepZono";
  case Method::Baseline:
    return "BASELINE";
  case Method::GenProveDet:
    return "GenProveDet";
  case Method::GenProveExact:
    return "GenProve0";
  case Method::GenProveRelax:
    return "GenProveRelax";
  case Method::Sampling:
    return "Sampling";
  default:
    return "?";
  }
}

double toScaledGb(size_t Bytes, size_t BudgetBytes) {
  if (BudgetBytes == 0)
    return static_cast<double>(Bytes) / (1024.0 * 1024.0 * 1024.0);
  return 24.0 * static_cast<double>(Bytes) / static_cast<double>(BudgetBytes);
}

BenchEnv::BenchEnv(BenchConfig InitConfig) : Config(std::move(InitConfig)) {
  // The bench harness always records engine metrics; they feed the run
  // report. Tracing stays off unless a binary opts in.
  setMetricsEnabled(true);
  std::error_code Ec;
  std::filesystem::create_directories(Config.ResultsDir, Ec);
  loadCache();
}

BenchEnv::~BenchEnv() {
  saveCache();
  writeRunReport();
}

std::string BenchEnv::configFingerprint() const {
  // Every knob that changes cell values must be part of the hash;
  // ResultsDir only changes where they are stored.
  std::ostringstream Knobs;
  Knobs << Config.PairsPerCell << '|' << Config.ZonoPairsPerCell << '|'
        << Config.SamplesPerPair << '|' << Config.SamplingAlpha << '|'
        << Config.RelaxPercent << '|' << Config.ClusterK << '|'
        << Config.NodeThreshold << '|' << Config.MemoryBudgetBytes;
  const std::string Text = Knobs.str();
  uint64_t Hash = 1469598103934665603ull; // FNV-1a 64
  for (unsigned char C : Text) {
    Hash ^= C;
    Hash *= 1099511628211ull;
  }
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Hash));
  return Buf;
}

std::string BenchEnv::cacheKey(DatasetId Data, const std::string &Network,
                               Method Which) const {
  std::ostringstream Key;
  Key << datasetDisplayName(Data) << "|" << Network << "|"
      << methodName(Which);
  return Key.str();
}

Sequential &BenchEnv::targetNetwork(DatasetId Data,
                                    const std::string &Network) {
  return Data == DatasetId::Faces ? Zoo.facesDetector(Network)
                                  : Zoo.shoesClassifier(Network);
}

const GridCell &BenchEnv::cell(DatasetId Data, const std::string &Network,
                               Method Which) {
  const std::string Key = cacheKey(Data, Network, Which);
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  std::fprintf(stderr, "[bench] computing cell %s ...\n", Key.c_str());
  GridCell Cell = computeCell(Data, Network, Which);
  Dirty = true;
  FreshKeys.insert(Key);
  auto [Pos, Inserted] = Cache.emplace(Key, std::move(Cell));
  saveCache();
  (void)Inserted;
  return Pos->second;
}

void BenchEnv::prefetchCells(const std::vector<CellRequest> &Requests) {
  // Deduplicate down to the cache misses, keeping request order so the
  // fan-out (and the stderr progress lines) follow the table layout.
  std::vector<CellRequest> Missing;
  std::set<std::string> Seen;
  for (const CellRequest &Req : Requests) {
    const std::string Key = cacheKey(Req.Dataset, Req.Network, Req.Which);
    if (Cache.count(Key) || !Seen.insert(Key).second)
      continue;
    Missing.push_back(Req);
  }
  if (Missing.empty())
    return;

  // Warm every lazily-trained model up front, single-threaded: training
  // and disk-cache loads mutate the zoo's maps. After this, computeCell
  // only looks models up (plus the mutex-guarded encoder calls).
  for (const CellRequest &Req : Missing) {
    Zoo.train(Req.Dataset);
    Zoo.vae(Req.Dataset);
    targetNetwork(Req.Dataset, Req.Network);
  }

  // Independent cells fan out one per chunk; each cell is a pure
  // function of (coordinate, BenchConfig), so the resulting rows are
  // identical to sequential evaluation in any thread count.
  std::vector<GridCell> Results(Missing.size());
  parallelFor(static_cast<int64_t>(Missing.size()), 1,
              [&](int64_t Begin, int64_t End) {
                for (int64_t I = Begin; I < End; ++I) {
                  const CellRequest &Req = Missing[static_cast<size_t>(I)];
                  std::fprintf(stderr, "[bench] computing cell %s ...\n",
                               cacheKey(Req.Dataset, Req.Network, Req.Which)
                                   .c_str());
                  Results[static_cast<size_t>(I)] =
                      computeCell(Req.Dataset, Req.Network, Req.Which);
                }
              });

  for (size_t I = 0; I < Missing.size(); ++I) {
    const CellRequest &Req = Missing[I];
    const std::string Key = cacheKey(Req.Dataset, Req.Network, Req.Which);
    Cache.emplace(Key, std::move(Results[I]));
    FreshKeys.insert(Key);
    Dirty = true;
  }
  saveCache();
}

GridCell BenchEnv::computeCell(DatasetId Data, const std::string &Network,
                               Method Which) {
  const Dataset &Set = Zoo.train(Data);
  Vae &Model = Zoo.vae(Data);
  Sequential &Target = targetNetwork(Data, Network);
  const Shape ImgShape({1, Set.Channels, Set.Size, Set.Size});
  const Shape LatentShape({1, Model.latentDim()});
  const std::vector<const Layer *> Pipeline =
      concatViews(Model.decoder().view(), Target.view());
  const int64_t NumOutputs = Target.outputShape(ImgShape).dim(1);

  GridCell Cell;
  Cell.DatasetName = datasetDisplayName(Data);
  Cell.NetworkName = Network;
  Cell.Which = Which;
  Cell.Neurons = Target.countNeurons(ImgShape);

  const bool IsConvex = Which == Method::Box || Which == Method::HybridZono ||
                        Which == Method::Zonotope ||
                        Which == Method::DeepZono;
  const int64_t NumPairs =
      IsConvex ? Config.ZonoPairsPerCell : Config.PairsPerCell;
  Cell.NumPairs = NumPairs;

  // The paper evaluates every architecture on the same |P| pairs; seed by
  // dataset only so ConvSmall/Med/Large see identical segments.
  Rng PairRng(0xabcdef01u + static_cast<uint64_t>(Data) * 7);
  const std::vector<SpecPair> Pairs =
      Data == DatasetId::Faces
          ? sameAttributePairs(Set, NumPairs, PairRng)
          : sameClassPairs(Set, NumPairs, PairRng);

  // GenProve configuration shared by the GenProve-family methods.
  GenProveConfig GpConfig;
  GpConfig.ClusterK = Config.ClusterK;
  GpConfig.NodeThreshold = Config.NodeThreshold;
  GpConfig.MemoryBudgetBytes = Config.MemoryBudgetBytes;
  switch (Which) {
  case Method::Baseline:
    GpConfig.Mode = AnalysisMode::Deterministic;
    GpConfig.RelaxPercent = 0.0;
    break;
  case Method::GenProveDet:
    GpConfig.Mode = AnalysisMode::Deterministic;
    GpConfig.RelaxPercent = Config.RelaxPercent;
    GpConfig.Schedule = RefinementSchedule::A;
    break;
  case Method::GenProveExact:
    GpConfig.RelaxPercent = 0.0;
    break;
  case Method::GenProveRelax:
    GpConfig.RelaxPercent = Config.RelaxPercent;
    GpConfig.Schedule = RefinementSchedule::A;
    break;
  default:
    break;
  }
  const GenProve Analyzer(GpConfig);

  double SumWidth = 0.0, SumLower = 0.0, SumUpper = 0.0, SumSeconds = 0.0;
  int64_t NumBounds = 0, NumNonTrivial = 0, NumOom = 0;
  int64_t MaxRegions = 0, MaxNodes = 0, MaxRetries = 0;
  size_t PeakBytes = 0;
  Rng SampleRng(0x5eed5eedu);

  // Phase 1: encode every pair's endpoints (the encoder caches per-layer
  // activations, so concurrent cells must take turns) and materialize its
  // specs: class argmax, or one sign spec per attribute. Everything after
  // the encodes reads shared models through const views only.
  std::vector<std::pair<Tensor, Tensor>> Latents;
  std::vector<std::vector<OutputSpec>> PairSpecs;
  for (const SpecPair &Pair : Pairs) {
    {
      std::lock_guard<std::mutex> Lock(EncodeMu);
      Latents.emplace_back(Model.encode(Set.image(Pair.First)),
                           Model.encode(Set.image(Pair.Second)));
    }
    std::vector<OutputSpec> Specs;
    if (Data == DatasetId::Faces) {
      for (int64_t J = 0; J < NumOutputs; ++J)
        Specs.push_back(OutputSpec::attributeSign(
            J, Set.Attributes.at(Pair.First, J) > 0.5, NumOutputs));
    } else {
      Specs.push_back(OutputSpec::argmaxWins(
          Set.Labels[static_cast<size_t>(Pair.First)], NumOutputs));
    }
    PairSpecs.push_back(std::move(Specs));
  }

  const auto Accumulate = [&](const std::vector<ProbBounds> &AllBounds,
                              bool PairOom) {
    if (PairOom)
      ++NumOom;
    for (const ProbBounds &Bounds : AllBounds) {
      SumWidth += Bounds.width();
      SumLower += Bounds.Lower;
      SumUpper += Bounds.Upper;
      if (Bounds.nonTrivial())
        ++NumNonTrivial;
      ++NumBounds;
    }
  };

  // Phase 2: certify.
  if (IsConvex) {
    for (size_t PairIdx = 0; PairIdx < Pairs.size(); ++PairIdx) {
      const auto &[E1, E2] = Latents[PairIdx];
      const std::vector<OutputSpec> &Specs = PairSpecs[PairIdx];
      Timer PairTimer;
      DeviceMemoryModel Memory(Config.MemoryBudgetBytes);
      std::vector<ConvexResult> Results;
      if (Which == Method::Box)
        Results =
            analyzeBoxMulti(Pipeline, LatentShape, E1, E2, Specs, Memory);
      else
        Results = analyzeZonotopeMulti(
            Pipeline, LatentShape, E1, E2, Specs,
            Which == Method::Zonotope   ? ZonotopeKind::Zonotope
            : Which == Method::DeepZono ? ZonotopeKind::DeepZono
                                        : ZonotopeKind::HybridZono,
            Memory);
      std::vector<ProbBounds> AllBounds;
      bool PairOom = false;
      for (const ConvexResult &Result : Results) {
        AllBounds.push_back(Result.Bounds);
        PairOom |= Result.Bounds.OutOfMemory;
        PeakBytes = std::max(PeakBytes, Result.PeakBytes);
      }
      Accumulate(AllBounds, PairOom);
      SumSeconds += PairTimer.seconds();
    }
  } else if (Which == Method::Sampling) {
    for (size_t PairIdx = 0; PairIdx < Pairs.size(); ++PairIdx) {
      const Tensor &E1 = Latents[PairIdx].first;
      const Tensor &E2 = Latents[PairIdx].second;
      const std::vector<OutputSpec> &Specs = PairSpecs[PairIdx];
      Timer PairTimer;
      std::vector<ProbBounds> AllBounds;
      // Sample once per pair and score every spec on the shared outputs.
      const int64_t Latent = Model.latentDim();
      std::vector<int64_t> Satisfied(Specs.size(), 0);
      int64_t Done = 0;
      while (Done < Config.SamplesPerPair) {
        const int64_t B =
            std::min<int64_t>(256, Config.SamplesPerPair - Done);
        Tensor Points({B, Latent});
        for (int64_t I = 0; I < B; ++I) {
          const double T = SampleRng.uniform();
          for (int64_t J = 0; J < Latent; ++J)
            Points.at(I, J) = E1[J] + T * (E2[J] - E1[J]);
        }
        const Tensor Out =
            forwardConcretePoints(Pipeline, LatentShape, Points);
        for (int64_t I = 0; I < B; ++I) {
          Tensor Row({1, Out.dim(1)});
          std::copy(Out.data() + I * Out.dim(1),
                    Out.data() + (I + 1) * Out.dim(1), Row.data());
          for (size_t SpecIdx = 0; SpecIdx < Specs.size(); ++SpecIdx)
            if (Specs[SpecIdx].satisfied(Row))
              ++Satisfied[SpecIdx];
        }
        Done += B;
      }
      for (size_t SpecIdx = 0; SpecIdx < Specs.size(); ++SpecIdx) {
        const auto [Lo, Hi] = clopperPearson(
            static_cast<size_t>(Satisfied[SpecIdx]),
            static_cast<size_t>(Config.SamplesPerPair), Config.SamplingAlpha);
        AllBounds.push_back({Lo, Hi, false});
      }
      // Sampling keeps only one batch of activations resident.
      PeakBytes = std::max(
          PeakBytes, static_cast<size_t>(256 * 4096 * sizeof(double)));
      SumSeconds += PairTimer.seconds();
      Accumulate(AllBounds, /*PairOom=*/false);
    }
  } else {
    // The GenProve-family methods.
    for (size_t PairIdx = 0; PairIdx < Pairs.size(); ++PairIdx) {
      Timer PairTimer;
      const PropagatedState State = Analyzer.propagateSegment(
          Pipeline, LatentShape, Latents[PairIdx].first,
          Latents[PairIdx].second);
      PeakBytes = std::max(PeakBytes, State.PeakBytes);
      MaxRegions = std::max(MaxRegions, State.Stats.MaxRegions);
      MaxNodes = std::max(MaxNodes, State.Stats.MaxNodes);
      MaxRetries = std::max(MaxRetries, State.Retries);
      std::vector<ProbBounds> AllBounds;
      for (const OutputSpec &Spec : PairSpecs[PairIdx])
        AllBounds.push_back(Analyzer.boundsFor(State, Spec));
      Accumulate(AllBounds, State.OutOfMemory);
      SumSeconds += PairTimer.seconds();
    }
  }

  if (NumBounds > 0) {
    Cell.MeanWidth = SumWidth / static_cast<double>(NumBounds);
    Cell.MeanLower = SumLower / static_cast<double>(NumBounds);
    Cell.MeanUpper = SumUpper / static_cast<double>(NumBounds);
    Cell.FractionNonTrivial =
        static_cast<double>(NumNonTrivial) / static_cast<double>(NumBounds);
  }
  if (!Pairs.empty()) {
    Cell.FractionOom =
        static_cast<double>(NumOom) / static_cast<double>(Pairs.size());
    Cell.MeanSeconds = SumSeconds / static_cast<double>(Pairs.size());
  }
  Cell.NumBounds = NumBounds;
  Cell.PeakGb = toScaledGb(PeakBytes, Config.MemoryBudgetBytes);
  Cell.MaxRegions = MaxRegions;
  Cell.MaxNodes = MaxNodes;
  Cell.Retries = MaxRetries;
  return Cell;
}

namespace {
const char *GridHeader =
    "key,dataset,network,method,neurons,pairs,bounds,width,lower,upper,"
    "nontrivial,oom,seconds,peakgb,maxregions,maxnodes,retries";
const char *ConfigLinePrefix = "#config ";
} // namespace

void BenchEnv::saveCache() {
  if (!Dirty)
    return;
  std::ofstream Out(Config.ResultsDir + "/grid.csv");
  if (!Out)
    return;
  Out << ConfigLinePrefix << configFingerprint() << '\n';
  Out << GridHeader << '\n';
  for (const auto &[Key, Cell] : Cache) {
    Out << Key << ',' << Cell.DatasetName << ',' << Cell.NetworkName << ','
        << methodName(Cell.Which) << ',' << Cell.Neurons << ','
        << Cell.NumPairs << ',' << Cell.NumBounds << ',' << Cell.MeanWidth
        << ',' << Cell.MeanLower << ',' << Cell.MeanUpper << ','
        << Cell.FractionNonTrivial << ',' << Cell.FractionOom << ','
        << Cell.MeanSeconds << ',' << Cell.PeakGb << ',' << Cell.MaxRegions
        << ',' << Cell.MaxNodes << ',' << Cell.Retries << '\n';
  }
  Dirty = false;
}

void BenchEnv::loadCache() {
  std::ifstream In(Config.ResultsDir + "/grid.csv");
  if (!In)
    return;
  std::string Line;
  // The first line pins the BenchConfig the cells were computed under; a
  // mismatch (changed knobs, or a pre-fingerprint cache) discards the
  // whole file rather than serving stale cells.
  std::getline(In, Line);
  if (Line != ConfigLinePrefix + configFingerprint()) {
    std::fprintf(stderr,
                 "[bench] results/grid.csv was computed under a different "
                 "BenchConfig; recomputing\n");
    return;
  }
  std::getline(In, Line); // column header
  if (Line != GridHeader)
    return;
  while (std::getline(In, Line)) {
    std::istringstream Row(Line);
    std::string Field;
    std::vector<std::string> Fields;
    while (std::getline(Row, Field, '|')) {
      // The key itself contains '|'; re-split carefully below.
      Fields.push_back(Field);
    }
    // Key format: dataset|network|method, followed by comma fields. Re-parse.
    const size_t FirstComma = Line.find(',', Line.rfind('|'));
    if (FirstComma == std::string::npos)
      continue;
    const std::string Key = Line.substr(0, FirstComma);
    std::istringstream Rest(Line.substr(FirstComma + 1));
    GridCell Cell;
    std::string MethodStr;
    auto Next = [&Rest]() {
      std::string F;
      std::getline(Rest, F, ',');
      return F;
    };
    Cell.DatasetName = Next();
    Cell.NetworkName = Next();
    MethodStr = Next();
    Cell.Neurons = std::stoll(Next());
    Cell.NumPairs = std::stoll(Next());
    Cell.NumBounds = std::stoll(Next());
    Cell.MeanWidth = std::stod(Next());
    Cell.MeanLower = std::stod(Next());
    Cell.MeanUpper = std::stod(Next());
    Cell.FractionNonTrivial = std::stod(Next());
    Cell.FractionOom = std::stod(Next());
    Cell.MeanSeconds = std::stod(Next());
    Cell.PeakGb = std::stod(Next());
    Cell.MaxRegions = std::stoll(Next());
    Cell.MaxNodes = std::stoll(Next());
    Cell.Retries = std::stoll(Next());
    for (int M = 0; M < static_cast<int>(Method::NumMethods); ++M)
      if (MethodStr == methodName(static_cast<Method>(M)))
        Cell.Which = static_cast<Method>(M);
    Cache[Key] = Cell;
  }
}

void BenchEnv::writeRunReport() {
  std::ofstream Out(Config.ResultsDir + "/run_report.json");
  if (!Out)
    return;
  JsonWriter W;
  W.beginObject();

  W.key("config");
  W.beginObject();
  W.key("fingerprint").value(configFingerprint());
  W.key("pairs_per_cell").value(Config.PairsPerCell);
  W.key("zono_pairs_per_cell").value(Config.ZonoPairsPerCell);
  W.key("samples_per_pair").value(Config.SamplesPerPair);
  W.key("sampling_alpha").value(Config.SamplingAlpha);
  W.key("relax_percent").value(Config.RelaxPercent);
  W.key("cluster_k").value(Config.ClusterK);
  W.key("node_threshold").value(Config.NodeThreshold);
  W.key("memory_budget_bytes")
      .value(static_cast<int64_t>(Config.MemoryBudgetBytes));
  W.endObject();

  W.key("cells");
  W.beginArray();
  for (const auto &[Key, Cell] : Cache) {
    W.beginObject();
    W.key("key").value(Key);
    W.key("dataset").value(Cell.DatasetName);
    W.key("network").value(Cell.NetworkName);
    W.key("method").value(std::string(methodName(Cell.Which)));
    W.key("fresh").value(FreshKeys.count(Key) > 0);
    W.key("neurons").value(Cell.Neurons);
    W.key("pairs").value(Cell.NumPairs);
    W.key("bounds").value(Cell.NumBounds);
    W.key("mean_width").value(Cell.MeanWidth);
    W.key("mean_lower").value(Cell.MeanLower);
    W.key("mean_upper").value(Cell.MeanUpper);
    W.key("fraction_nontrivial").value(Cell.FractionNonTrivial);
    W.key("fraction_oom").value(Cell.FractionOom);
    W.key("mean_seconds").value(Cell.MeanSeconds);
    W.key("peak_gb").value(Cell.PeakGb);
    W.key("max_regions").value(Cell.MaxRegions);
    W.key("max_nodes").value(Cell.MaxNodes);
    W.key("retries").value(Cell.Retries);
    W.key("mode").value(std::string(Cell.modeName()));
    W.endObject();
  }
  W.endArray();

  // The process-global metrics snapshot (propagate.splits, refine.retries,
  // propagate.layer_seconds, ...) accumulated while computing fresh cells.
  W.key("metrics").raw(MetricsRegistry::global().toJson());

  // Latency percentiles extracted from every histogram's merged buckets
  // (log-2 buckets, so estimates are within 2x of the exact quantile;
  // see docs/OBSERVABILITY.md). propagate.layer_seconds is the headline:
  // p50/p90/p99 per-layer propagation latency.
  W.key("percentiles");
  W.beginObject();
  for (const Histogram *H : MetricsRegistry::global().histogramList()) {
    W.key(H->name());
    W.beginObject();
    W.key("p50").value(histogramQuantile(*H, 0.50));
    W.key("p90").value(histogramQuantile(*H, 0.90));
    W.key("p99").value(histogramQuantile(*H, 0.99));
    W.endObject();
  }
  W.endObject();

  W.endObject();
  Out << W.str() << '\n';
}

} // namespace genprove
