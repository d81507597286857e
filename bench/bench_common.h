//===- bench/bench_common.h - Shared harness for the paper tables -*- C++ -*-===//
///
/// \file
/// Every table in the paper's evaluation draws from the same experiment
/// grid: {CelebA*, Zappos50k*} x {ConvSmall, ConvMed, ConvLarge} x
/// {Box, HybridZono, Zonotope, DeepZono, BASELINE, GenProve-Det,
///  GenProve^0, GenProve^p_k, Sampling}. Because the whole reproduction
/// runs on one CPU core, the grid is computed once and cached as CSV under
/// results/; each table binary loads the cache (or computes the missing
/// cells) and prints its own projection of the grid.
///
/// Scaling knobs relative to the paper (documented in EXPERIMENTS.md):
/// 16x16 images, latent 8, |P| pairs per cell reduced from 100, and a
/// simulated device memory budget standing in for the Titan RTX's 24 GB.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_BENCH_COMMON_H
#define GENPROVE_BENCH_COMMON_H

#include "src/core/consistency.h"
#include "src/core/model_zoo.h"

#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace genprove {

/// One cell of the experiment grid, aggregated over |P| pairs.
struct GridCell {
  std::string DatasetName;
  std::string NetworkName;
  Method Which = Method::Box;
  int64_t Neurons = 0;
  int64_t NumPairs = 0;
  int64_t NumBounds = 0;
  double MeanWidth = 1.0;
  double MeanLower = 0.0;
  double MeanUpper = 1.0;
  double FractionNonTrivial = 0.0;
  double FractionOom = 0.0;
  double MeanSeconds = 0.0;
  double PeakGb = 0.0; ///< simulated device memory, in (scaled) GB.
  // Engine telemetry (GenProve-family methods; 0 for the convex domains
  // and the sampling baseline).
  int64_t MaxRegions = 0;
  int64_t MaxNodes = 0;
  int64_t Retries = 0;

  /// "exact" / "relaxed": a cell is relaxed when its method boxes by
  /// configuration or a refinement retry fired.
  const char *modeName() const {
    if (Retries > 0 || Which == Method::GenProveRelax ||
        Which == Method::GenProveDet)
      return "relaxed";
    return "exact";
  }
};

/// Harness configuration for all bench binaries: the cell knobs plus the
/// pair counts and the results directory.
struct BenchConfig : ConsistencyConfig {
  int64_t PairsPerCell = 2;
  int64_t ZonoPairsPerCell = 1; ///< convex domains: deterministic outcome.
  std::string ResultsDir = "results";
};

/// The shared environment: trained models + grid cache.
class BenchEnv {
public:
  explicit BenchEnv(BenchConfig Config = {});

  ModelZoo &zoo() { return Zoo; }
  const BenchConfig &config() const { return Config; }

  /// The consistency grid cell for (dataset, net, method); computed on
  /// first use and cached to results/grid.csv across runs.
  const GridCell &cell(DatasetId Dataset, const std::string &Network,
                       Method Which);

  /// One grid coordinate for prefetchCells.
  struct CellRequest {
    DatasetId Dataset;
    std::string Network;
    Method Which;
  };

  /// Compute every not-yet-cached requested cell, fanning independent
  /// cells out over the thread pool (cells are pure functions of the
  /// BenchConfig, so concurrent evaluation yields byte-identical grid.csv
  /// rows to sequential evaluation). Lazily-trained models are warmed
  /// serially first; the only shared mutable state during the fan-out is
  /// the VAE encoder (it caches activations), which is mutex-guarded.
  /// Subsequent cell() calls for these coordinates are cache hits.
  void prefetchCells(const std::vector<CellRequest> &Requests);

  /// Classifier or attribute detector for the dataset/architecture.
  Sequential &targetNetwork(DatasetId Dataset, const std::string &Network);

  /// Persist the grid cache now (also done on destruction). The file is
  /// written beside results/grid.csv and renamed over it, so a run killed
  /// mid-save leaves the previous file whole.
  void saveCache();

  /// Hash of every BenchConfig knob that influences cell values. Written
  /// as a header line of results/grid.csv, so a cache computed under
  /// different knobs (RelaxPercent, PairsPerCell, ...) is discarded
  /// instead of silently served stale.
  std::string configFingerprint() const;

  /// Write results/run_report.json: the config (with fingerprint), every
  /// grid cell with a fresh/cached flag, and the global metrics snapshot.
  /// Also done on destruction, so every bench binary leaves a report.
  void writeRunReport();

  ~BenchEnv();

private:
  GridCell computeCell(DatasetId Dataset, const std::string &Network,
                       Method Which);
  std::string cacheKey(DatasetId Dataset, const std::string &Network,
                       Method Which) const;
  void loadCache();

  BenchConfig Config;
  ModelZoo Zoo;
  std::map<std::string, GridCell> Cache;
  std::set<std::string> FreshKeys; ///< keys computed by this process
  bool Dirty = false;
  /// Serializes Vae::encode during parallel cell evaluation (the encoder
  /// caches per-layer activations for backward, so predict mutates).
  std::mutex EncodeMu;
};

/// The column header of results/grid.csv, the line after the #config line.
extern const char *const GridCsvHeader;

/// One results/grid.csv row: the cell's key, then its fields, every double
/// at max_digits10 so that a cached cell reads back bit for bit.
std::string formatGridRow(const std::string &Key, const GridCell &Cell);

/// Parse one results/grid.csv row into Key and Cell. False, with both
/// untouched, when the row is malformed: a missing or extra field, an
/// unknown method, or a number that does not parse (a file truncated by a
/// killed run, say).
bool parseGridRow(const std::string &Line, std::string &Key, GridCell &Cell);

/// The "scaled GB" display: the simulated budget stands in for 24 GB, so
/// peak bytes are reported on that scale for direct comparison with the
/// paper's tables.
double toScaledGb(size_t Bytes, size_t BudgetBytes);

} // namespace genprove

#endif // GENPROVE_BENCH_COMMON_H
