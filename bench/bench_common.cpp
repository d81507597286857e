//===- bench/bench_common.cpp ---------------------------------*- C++ -*-===//

#include "bench/bench_common.h"

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/parallel/thread_pool.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace genprove {

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
  const int64_t NumOutputs = Target.outputShape(ImgShape).dim(1);

  const bool IsConvex = Which == Method::Box || Which == Method::HybridZono ||
                        Which == Method::Zonotope ||
                        Which == Method::DeepZono;
  const int64_t NumPairs =
      IsConvex ? Config.ZonoPairsPerCell : Config.PairsPerCell;

  // The paper evaluates every architecture on the same |P| pairs; seed by
  // dataset only so ConvSmall/Med/Large see identical segments.
  Rng PairRng(0xabcdef01u + static_cast<uint64_t>(Data) * 7);
  const std::vector<SpecPair> Pairs =
      Data == DatasetId::Faces
          ? sameAttributePairs(Set, NumPairs, PairRng)
          : sameClassPairs(Set, NumPairs, PairRng);

  // The encoder caches per-layer activations, so concurrent cells take
  // turns; everything after the encodes reads shared models through const
  // views only.
  std::vector<ConsistencyPair> Encoded;
  for (const SpecPair &Pair : Pairs) {
    ConsistencyPair &P = Encoded.emplace_back();
    {
      std::lock_guard<std::mutex> Lock(EncodeMu);
      P.Start = Model.encode(Set.image(Pair.First));
      P.End = Model.encode(Set.image(Pair.Second));
    }
    P.Specs = consistencySpecs(Set, Pair.First, NumOutputs);
  }
  const ConsistencyReport Report = evaluateConsistency(
      concatViews(Model.decoder().view(), Target.view()),
      Shape({1, Model.latentDim()}), Encoded, Which, Config);

  GridCell Cell;
  Cell.DatasetName = datasetDisplayName(Data);
  Cell.NetworkName = Network;
  Cell.Which = Which;
  Cell.Neurons = Target.countNeurons(ImgShape);
  Cell.NumPairs = NumPairs;
  Cell.NumBounds = Report.NumBounds;
  Cell.MeanWidth = Report.MeanWidth;
  Cell.MeanLower = Report.MeanLower;
  Cell.MeanUpper = Report.MeanUpper;
  Cell.FractionNonTrivial = Report.FractionNonTrivial;
  Cell.FractionOom = Report.FractionOom;
  Cell.MeanSeconds = Report.MeanSeconds;
  Cell.PeakGb = toScaledGb(Report.PeakBytes, Config.MemoryBudgetBytes);
  Cell.MaxRegions = Report.MaxRegions;
  Cell.MaxNodes = Report.MaxNodes;
  Cell.Retries = Report.Retries;
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
