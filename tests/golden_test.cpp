//===- tests/golden_test.cpp - golden certification outputs ----*- C++ -*-===//
///
/// \file
/// Golden outputs of every certification path on fixed pipelines. Each
/// (pipeline, analysis, rounding mode) cell hashes the bit patterns of its
/// bounds, output hulls, PeakBytes and MaxNodes (for the convex domains'
/// `*.lifted` rows: every spec's bounds, MaxGenerators and PeakBytes) into
/// one FNV digest (util/hash.h) and compares it with a stored value, at 1
/// and 4 pool threads, in round-to-nearest and under sound rounding. Any
/// kernel or engine change that moves a single bit of a certified result
/// fails here, and the failure prints the raw values behind the digest.
///
/// Weights and segments come from Rng::uniform only: Tensor::randn goes
/// through libm log/cos, which would tie the digests to the libm version.
///
/// The pipelines cover every layer kind the verifier handles: the small
/// decoder (Linear, ReLU, Reshape, ConvTranspose2d) followed by ConvSmall,
/// ConvMed or ConvLarge (Conv2d, Flatten, Linear), plus a deep
/// Linear->ReLU chain.
///
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/domains/box_domain.h"
#include "src/domains/hybrid_zonotope.h"
#include "src/domains/zonotope.h"
#include "src/nn/architectures.h"
#include "src/parallel/thread_pool.h"
#include "src/util/fp.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

namespace genprove {
namespace {

/// Pin the global pool for the test body, restore on scope exit.
struct PoolScope {
  explicit PoolScope(int64_t Threads) {
    ThreadPool::global().setThreads(Threads);
  }
  ~PoolScope() { ThreadPool::global().setThreads(ThreadPool::envThreads()); }
};

/// Overwrite every parameter with U(-a, a): a = sqrt(3 / F) for weights,
/// F being the element count per leading index (the fan-in of Linear and
/// Conv2d weights), and a = 0.1 for biases.
void fillUniform(Sequential &Net, Rng &R) {
  for (const Param &P : Net.params()) {
    Tensor &T = *P.Value;
    const bool IsWeight = T.rank() >= 2;
    const double A =
        IsWeight ? std::sqrt(3.0 / static_cast<double>(T.numel() / T.dim(0)))
                 : 0.1;
    for (int64_t I = 0; I < T.numel(); ++I)
      T[I] = R.uniform(-A, A);
  }
}

Tensor uniformRow(Rng &R, int64_t N, double Lo, double Hi) {
  Tensor T({1, N});
  for (int64_t I = 0; I < N; ++I)
    T[I] = R.uniform(Lo, Hi);
  return T;
}

/// Named raw values folded into one digest; dump() prints them with their
/// bit patterns for mismatch reports.
class Record {
public:
  void value(const std::string &Name, double V) {
    Digest = hashing::hashDouble(Digest, V);
    char Buf[96];
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    std::snprintf(Buf, sizeof(Buf), "%.17g (0x%016" PRIx64 ")", V, Bits);
    Lines += "  " + Name + " = " + Buf + "\n";
  }
  void count(const std::string &Name, uint64_t V) {
    Digest = hashing::hashU64(Digest, V);
    Lines += "  " + Name + " = " + std::to_string(V) + "\n";
  }
  void row(const std::string &Name, const Tensor &T) {
    count(Name + ".numel", static_cast<uint64_t>(T.numel()));
    for (int64_t I = 0; I < T.numel(); ++I)
      value(Name + "[" + std::to_string(I) + "]", T[I]);
  }
  uint64_t digest() const { return Digest; }
  const std::string &dump() const { return Lines; }

private:
  uint64_t Digest = hashing::FnvOffset;
  std::string Lines;
};

/// One pipeline: the layer view, its input shape, the segments and quadratic
/// coefficients analyzed on it, and the specs bounded on every state.
struct Pipeline {
  std::vector<Sequential> Parts;
  std::vector<const Layer *> Layers;
  Shape InputShape;
  Tensor Start, End;
  Tensor A0, A1, A2;
  std::vector<OutputSpec> Specs;
};

enum class PipelineKind { DecoderConvSmall, DecoderConvMed, DecoderConvLarge,
                          DeepMlp };

Pipeline makePipeline(PipelineKind Kind) {
  Pipeline P;
  int64_t Latent = 4;
  int64_t NumOut = 3;
  double Spread = 0.25; // segment length and curve coefficient scale
  if (Kind == PipelineKind::DeepMlp) {
    // 300 inputs cross the GEMM k-tile boundary (256).
    Latent = 6;
    NumOut = 4;
    Spread = 1.5;
    P.Parts.push_back(makeMlp({6, 96, 300, 64, 64, 64, 64, NumOut}));
  } else {
    P.Parts.push_back(makeDecoderSmall(Latent, 1, 8));
    switch (Kind) {
    case PipelineKind::DecoderConvSmall:
      P.Parts.push_back(makeConvSmall(1, 8, NumOut));
      break;
    case PipelineKind::DecoderConvMed:
      P.Parts.push_back(makeConvMed(1, 8, NumOut));
      break;
    default:
      P.Parts.push_back(makeConvLarge(1, 8, NumOut));
      break;
    }
  }
  Rng R(0x5eed0000ull + static_cast<uint64_t>(Kind));
  for (Sequential &Part : P.Parts) {
    fillUniform(Part, R);
    const std::vector<const Layer *> View = Part.view();
    P.Layers.insert(P.Layers.end(), View.begin(), View.end());
  }
  P.InputShape = Shape({1, Latent});
  P.Start = uniformRow(R, Latent, -1.0, 1.0);
  P.End = P.Start.clone();
  for (int64_t I = 0; I < Latent; ++I)
    P.End[I] += R.uniform(-Spread, Spread);
  P.A0 = P.Start.clone();
  P.A1 = uniformRow(R, Latent, -Spread, Spread);
  P.A2 = uniformRow(R, Latent, -0.5 * Spread, 0.5 * Spread);
  for (int64_t C = 0; C < NumOut; ++C)
    P.Specs.push_back(OutputSpec::argmaxWins(C, NumOut));
  return P;
}

/// Per-dimension hull of a region set (each region's bounding box).
void recordHull(Record &Rec, const std::vector<Region> &Regions) {
  Rec.count("regions", static_cast<uint64_t>(Regions.size()));
  if (Regions.empty())
    return;
  const int64_t N = Regions.front().dim();
  Tensor Lo({1, N}), Hi({1, N});
  for (size_t I = 0; I < Regions.size(); ++I) {
    const Region B = boundingBox(Regions[I]);
    for (int64_t J = 0; J < N; ++J) {
      const double L = B.Center[J] - B.Radius[J];
      const double H = B.Center[J] + B.Radius[J];
      Lo[J] = I == 0 ? L : std::min(Lo[J], L);
      Hi[J] = I == 0 ? H : std::max(Hi[J], H);
    }
  }
  Rec.row("hull.lo", Lo);
  Rec.row("hull.hi", Hi);
}

void recordState(Record &Rec, const GenProve &Analyzer,
                 const PropagatedState &State, const Pipeline &P) {
  Rec.count("oom", State.OutOfMemory ? 1 : 0);
  Rec.count("peak_bytes", State.PeakBytes);
  Rec.count("max_nodes", static_cast<uint64_t>(State.Stats.MaxNodes));
  for (size_t S = 0; S < P.Specs.size(); ++S) {
    const ProbBounds B = Analyzer.boundsFor(State, P.Specs[S]);
    Rec.value("spec" + std::to_string(S) + ".lower", B.Lower);
    Rec.value("spec" + std::to_string(S) + ".upper", B.Upper);
  }
  recordHull(Rec, State.Regions);
}

void recordConvex(Record &Rec, const ZonotopeOutputBounds &Out,
                  const DeviceMemoryModel &Memory) {
  Rec.count("oom", Out.OutOfMemory ? 1 : 0);
  Rec.count("peak_bytes", Memory.peakBytes());
  Rec.row("hull.lo", Out.Lo);
  Rec.row("hull.hi", Out.Hi);
}

/// Every spec's lifted result from one convex-domain *Multi call.
void recordLifted(Record &Rec, const std::vector<ConvexResult> &Results) {
  for (size_t S = 0; S < Results.size(); ++S) {
    const ConvexResult &R = Results[S];
    const std::string Name = "spec" + std::to_string(S);
    Rec.value(Name + ".lower", R.Bounds.Lower);
    Rec.value(Name + ".upper", R.Bounds.Upper);
    Rec.count(Name + ".oom", R.Bounds.OutOfMemory ? 1 : 0);
    Rec.count(Name + ".max_generators",
              static_cast<uint64_t>(R.MaxGenerators));
    Rec.count(Name + ".peak_bytes", R.PeakBytes);
  }
}

/// The pipeline's specs plus two halfspaces far on either side of every
/// output, so the lifted spec tests also reach their contained ({1, 1})
/// and disjoint ({0, 0}) answers.
std::vector<OutputSpec> liftedSpecs(const Pipeline &P) {
  std::vector<OutputSpec> Specs = P.Specs;
  const int64_t NumOut = P.Specs.front().dim();
  for (const double Sign : {1.0, -1.0}) {
    Tensor Normal({1, NumOut});
    Normal[0] = Sign;
    Specs.push_back(OutputSpec::halfspace(std::move(Normal), 1e6 * Sign));
  }
  return Specs;
}

/// Run every analysis on \p P and return (name, record) pairs in a fixed
/// order.
std::vector<std::pair<std::string, Record>> runAnalyses(const Pipeline &P) {
  std::vector<std::pair<std::string, Record>> Out;

  GenProveConfig Exact; // GenProve^0: exact probabilistic
  Exact.UseCache = false;
  const GenProve ExactAnalyzer(Exact);
  const PropagatedState ExactState =
      ExactAnalyzer.propagateSegment(P.Layers, P.InputShape, P.Start, P.End);
  recordState(Out.emplace_back("genprove0", Record()).second, ExactAnalyzer,
              ExactState, P);

  // GenProve^0.02_100, with a node threshold low enough that relaxation
  // boxes pieces on these small pipelines.
  GenProveConfig Relaxed = Exact;
  Relaxed.RelaxPercent = 0.02;
  Relaxed.ClusterK = 100.0;
  Relaxed.NodeThreshold = 40;
  const GenProve RelaxedAnalyzer(Relaxed);
  recordState(Out.emplace_back("genprove0.02_100", Record()).second,
              RelaxedAnalyzer,
              RelaxedAnalyzer.propagateSegment(P.Layers, P.InputShape,
                                               P.Start, P.End),
              P);

  recordState(Out.emplace_back("quadratic", Record()).second, ExactAnalyzer,
              ExactAnalyzer.propagateQuadratic(P.Layers, P.InputShape, P.A0,
                                               P.A1, P.A2),
              P);

  {
    const int64_t N = P.Start.numel();
    Tensor Center({1, N}), Radius({1, N});
    for (int64_t J = 0; J < N; ++J) {
      Center[J] = 0.5 * (P.Start[J] + P.End[J]);
      Radius[J] = 0.5 * std::fabs(P.End[J] - P.Start[J]);
    }
    std::vector<Region> Init;
    Init.push_back(makeBoxRegion(Center, Radius, 1.0));
    const PropagatedState BoxState = ExactAnalyzer.propagateRegionsFrom(
        P.Layers, P.InputShape, std::move(Init));
    Record &Rec = Out.emplace_back("box", Record()).second;
    recordState(Rec, ExactAnalyzer, BoxState, P);
    for (size_t I = 0; I < BoxState.Regions.size(); ++I) {
      Rec.row("box" + std::to_string(I) + ".center",
              BoxState.Regions[I].Center);
      Rec.row("box" + std::to_string(I) + ".radius",
              BoxState.Regions[I].Radius);
    }
  }

  for (const auto &[Name, Kind] :
       {std::pair{"zonotope", ZonotopeKind::Zonotope},
        std::pair{"deepzono", ZonotopeKind::DeepZono},
        std::pair{"hybridzono", ZonotopeKind::HybridZono}}) {
    DeviceMemoryModel Memory(0);
    recordConvex(Out.emplace_back(Name, Record()).second,
                 zonotopeOutputBounds(P.Layers, P.InputShape, P.Start, P.End,
                                      Kind, Memory),
                 Memory);
  }

  const std::vector<OutputSpec> Lifted = liftedSpecs(P);
  {
    DeviceMemoryModel Memory(0);
    recordLifted(Out.emplace_back("box.lifted", Record()).second,
                 analyzeBoxMulti(P.Layers, P.InputShape, P.Start, P.End,
                                 Lifted, Memory));
  }
  for (const auto &[Name, Kind] :
       {std::pair{"zonotope.lifted", ZonotopeKind::Zonotope},
        std::pair{"deepzono.lifted", ZonotopeKind::DeepZono}}) {
    DeviceMemoryModel Memory(0);
    recordLifted(Out.emplace_back(Name, Record()).second,
                 analyzeZonotopeMulti(P.Layers, P.InputShape, P.Start, P.End,
                                      Lifted, Kind, Memory));
  }
  {
    // Through the HybridZono entry point the end-to-end benchmark calls.
    DeviceMemoryModel Memory(0);
    recordLifted(Out.emplace_back("hybridzono.lifted", Record()).second,
                 analyzeHybridZonotopeMulti(P.Layers, P.InputShape, P.Start,
                                            P.End, Lifted, Memory));
  }

  // One byte below the unlimited peak: the exact analysis must run out of
  // memory at the same charge, with the same recorded peak.
  GenProveConfig Tight = Exact;
  Tight.MemoryBudgetBytes = ExactState.PeakBytes - 1;
  const GenProve TightAnalyzer(Tight);
  const PropagatedState TightState =
      TightAnalyzer.propagateSegment(P.Layers, P.InputShape, P.Start, P.End);
  Record &Rec = Out.emplace_back("oom_budget", Record()).second;
  Rec.count("oom", TightState.OutOfMemory ? 1 : 0);
  Rec.count("peak_bytes", TightState.PeakBytes);
  Rec.count("max_nodes", static_cast<uint64_t>(TightState.Stats.MaxNodes));
  return Out;
}

/// Stored digest of one analysis in both rounding modes.
struct Golden {
  const char *Analysis;
  uint64_t RoundNearest;
  uint64_t Sound;
};

void checkGolden(PipelineKind Kind, const std::vector<Golden> &Expected,
                 int64_t Threads, bool Sound) {
  PoolScope Pool(Threads);
  SoundRoundingScope Rounding(Sound);
  const Pipeline P = makePipeline(Kind);
  const auto Records = runAnalyses(P);
  ASSERT_EQ(Records.size(), Expected.size());
  for (size_t I = 0; I < Records.size(); ++I) {
    const auto &[Name, Rec] = Records[I];
    ASSERT_EQ(Name, Expected[I].Analysis);
    const uint64_t Want = Sound ? Expected[I].Sound : Expected[I].RoundNearest;
    EXPECT_EQ(Rec.digest(), Want)
        << Name << (Sound ? " (sound)" : " (round-to-nearest)") << " at "
        << Threads << " threads: digest 0x" << std::hex << Rec.digest()
        << ", expected 0x" << Want << std::dec << "; raw values:\n"
        << Rec.dump();
  }
}

/// (threads, sound rounding).
class GoldenOutputs
    : public ::testing::TestWithParam<std::tuple<int64_t, bool>> {};

TEST_P(GoldenOutputs, DecoderConvSmall) {
  checkGolden(PipelineKind::DecoderConvSmall,
              {
                  {"genprove0", 0xe3b56d62012ab52bull,
                   0xc74fbf71ec7b73ceull},
                  {"genprove0.02_100", 0xc6faede6b5b81e23ull,
                   0xde0b4539d8c5b230ull},
                  {"quadratic", 0x4ee1e636997e348aull,
                   0xdaf6a2ccded35c34ull},
                  {"box", 0xa9c619bb2767b983ull,
                   0xb30b7e6bedf2d340ull},
                  {"zonotope", 0xbc42612e146bf365ull,
                   0xfc0235a0b4061a7bull},
                  {"deepzono", 0x55f3982ea8cab044ull,
                   0xd6fb3c5eee1b1508ull},
                  {"hybridzono", 0xd3228990244d752full,
                   0xee744a23ad4e8d62ull},
                  {"box.lifted", 0xb269a2c6ef6e17faull,
                   0x896f599c258a8503ull},
                  {"zonotope.lifted", 0x98f0f0844220fbe7ull,
                   0x98f0f0844220fbe7ull},
                  {"deepzono.lifted", 0x4eac493c742e8ac1ull,
                   0x4eac493c742e8ac1ull},
                  {"hybridzono.lifted", 0xa3e259ae5130d62bull,
                   0xa3e259ae5130d62bull},
                  {"oom_budget", 0xfa2f51def52c3baull,
                   0xfa2f51def52c3baull},
              },
              std::get<0>(GetParam()), std::get<1>(GetParam()));
}

TEST_P(GoldenOutputs, DecoderConvMed) {
  checkGolden(PipelineKind::DecoderConvMed,
              {
                  {"genprove0", 0x497706a312d38037ull,
                   0x281d2327fceac62eull},
                  {"genprove0.02_100", 0x4191cd5a3577e17dull,
                   0xed3cab67b2d56b44ull},
                  {"quadratic", 0x966aa6a3d230384aull,
                   0xf1ac48b809f563aaull},
                  {"box", 0x959b93e31e9b7193ull,
                   0x6d1349bc84199734ull},
                  {"zonotope", 0xa291fdef29a6dde0ull,
                   0x76bab2fdb0369849ull},
                  {"deepzono", 0x172ce9e7a0a642a4ull,
                   0x8eec11dd438c4e18ull},
                  {"hybridzono", 0x922e4b30c4025682ull,
                   0x9a6ef77815431637ull},
                  {"box.lifted", 0x8d826a46fbb271aeull,
                   0x41c19d5e20d1a3efull},
                  {"zonotope.lifted", 0xcafa9539d657d773ull,
                   0xcafa9539d657d773ull},
                  {"deepzono.lifted", 0x9eed9fdad54fe7ebull,
                   0x9eed9fdad54fe7ebull},
                  {"hybridzono.lifted", 0xb7ff9c3cce28eab2ull,
                   0xb7ff9c3cce28eab2ull},
                  {"oom_budget", 0x1757db9bc98294a5ull,
                   0x1757db9bc98294a5ull},
              },
              std::get<0>(GetParam()), std::get<1>(GetParam()));
}

TEST_P(GoldenOutputs, DecoderConvLarge) {
  checkGolden(PipelineKind::DecoderConvLarge,
              {
                  {"genprove0", 0x524a353b3181d3ccull,
                   0x39be68a7ce84085full},
                  {"genprove0.02_100", 0xaea62380cc0a3befull,
                   0x2a252d38b52554aeull},
                  {"quadratic", 0x801ccf1784989a52ull,
                   0xc8065c69065510d1ull},
                  {"box", 0x3c547653837443d1ull,
                   0xe0fc4a80d23e883dull},
                  {"zonotope", 0xd6be022f85e124c4ull,
                   0xa86dca66101b01bfull},
                  {"deepzono", 0x9319603e5053355ull,
                   0xd39998d55d3a2b46ull},
                  {"hybridzono", 0x4eaae9a83700e76aull,
                   0x810c40be4c4a91cfull},
                  {"box.lifted", 0xb542c61fe1c31c9aull,
                   0x2117f90253a28e63ull},
                  {"zonotope.lifted", 0x4b600551b4fb34c8ull,
                   0x4b600551b4fb34c8ull},
                  {"deepzono.lifted", 0x5fc47ce0b913ea10ull,
                   0x5fc47ce0b913ea10ull},
                  {"hybridzono.lifted", 0x881eaefaaefab5bull,
                   0x881eaefaaefab5bull},
                  {"oom_budget", 0xc79d7f86da391ac5ull,
                   0xc79d7f86da391ac5ull},
              },
              std::get<0>(GetParam()), std::get<1>(GetParam()));
}

TEST_P(GoldenOutputs, DeepMlp) {
  checkGolden(PipelineKind::DeepMlp,
              {
                  {"genprove0", 0xdf80a8f25fdf797full,
                   0xa446a303b240995full},
                  {"genprove0.02_100", 0xdf80a8f25fdf797full,
                   0xa446a303b240995full},
                  {"quadratic", 0xb5c023b1ed677990ull,
                   0xbcdbea7e6151b551ull},
                  {"box", 0x95ad04f31dd8ee28ull,
                   0x18a7c155af6413b3ull},
                  {"zonotope", 0x4d018aec63990280ull,
                   0x96efda8c13465b16ull},
                  {"deepzono", 0x6a58cdcdbf2f1690ull,
                   0x354012c922d9d070ull},
                  {"hybridzono", 0x24879022b1e46f6aull,
                   0x8effaefa4dee454full},
                  {"box.lifted", 0xcfaabdf828025663ull,
                   0x18177b661836799aull},
                  {"zonotope.lifted", 0xbf28c25ae2b5d9afull,
                   0xbf28c25ae2b5d9afull},
                  {"deepzono.lifted", 0x321ce84eafd1966full,
                   0x321ce84eafd1966full},
                  {"hybridzono.lifted", 0x5b8a1a9a34a3ca1bull,
                   0x5b8a1a9a34a3ca1bull},
                  {"oom_budget", 0x3a04594964b30d01ull,
                   0x3a04594964b30d01ull},
              },
              std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndRounding, GoldenOutputs,
                         ::testing::Combine(::testing::Values<int64_t>(1, 4),
                                            ::testing::Bool()));

} // namespace
} // namespace genprove
