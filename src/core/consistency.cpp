//===- core/consistency.cpp -----------------------------------*- C++ -*-===//

#include "src/core/consistency.h"

#include "src/domains/box_domain.h"
#include "src/domains/zonotope.h"
#include "src/sampling/sampler.h"
#include "src/util/error.h"
#include "src/util/timer.h"

#include <algorithm>
#include <map>

namespace genprove {

std::vector<SpecPair> sameClassPairs(const Dataset &Set, int64_t NumPairs,
                                     Rng &Generator) {
  std::map<int64_t, std::vector<int64_t>> ByClass;
  for (int64_t I = 0; I < Set.numImages(); ++I)
    ByClass[Set.Labels[static_cast<size_t>(I)]].push_back(I);
  std::vector<int64_t> Usable;
  for (const auto &[Label, Members] : ByClass)
    if (Members.size() >= 2)
      Usable.push_back(Label);
  // A degenerate dataset (every class a singleton) would silently yield an
  // empty pair list and downstream consistency rates over zero pairs; fail
  // loudly instead.
  if (NumPairs > 0 && Usable.empty())
    fatalError("sameClassPairs: no class has two or more images; cannot "
               "sample same-class pairs from this dataset");
  std::vector<SpecPair> Pairs;
  while (static_cast<int64_t>(Pairs.size()) < NumPairs && !Usable.empty()) {
    const int64_t Label = Usable[Generator.below(Usable.size())];
    const auto &Members = ByClass[Label];
    const int64_t A =
        Members[Generator.below(static_cast<uint64_t>(Members.size()))];
    int64_t B = A;
    while (B == A)
      B = Members[Generator.below(static_cast<uint64_t>(Members.size()))];
    Pairs.push_back({A, B});
  }
  return Pairs;
}

std::vector<SpecPair> sameAttributePairs(const Dataset &Set, int64_t NumPairs,
                                         Rng &Generator) {
  // Bucket images by their full attribute signature.
  std::map<std::vector<int>, std::vector<int64_t>> Buckets;
  const int64_t A = Set.numAttributes();
  for (int64_t I = 0; I < Set.numImages(); ++I) {
    std::vector<int> Key(static_cast<size_t>(A));
    for (int64_t J = 0; J < A; ++J)
      Key[static_cast<size_t>(J)] = Set.Attributes.at(I, J) > 0.5 ? 1 : 0;
    Buckets[Key].push_back(I);
  }
  std::vector<const std::vector<int64_t> *> Usable;
  for (const auto &[Key, Members] : Buckets)
    if (Members.size() >= 2)
      Usable.push_back(&Members);
  if (NumPairs > 0 && Usable.empty())
    fatalError("sameAttributePairs: every attribute signature is unique; "
               "cannot sample same-attribute pairs from this dataset");
  std::vector<SpecPair> Pairs;
  while (static_cast<int64_t>(Pairs.size()) < NumPairs && !Usable.empty()) {
    const auto &Members = *Usable[Generator.below(Usable.size())];
    const int64_t X =
        Members[Generator.below(static_cast<uint64_t>(Members.size()))];
    int64_t Y = X;
    while (Y == X)
      Y = Members[Generator.below(static_cast<uint64_t>(Members.size()))];
    Pairs.push_back({X, Y});
  }
  return Pairs;
}

std::vector<SpecPair> flipPairs(int64_t NumImages, int64_t NumPairs,
                                Rng &Generator) {
  std::vector<SpecPair> Pairs;
  for (int64_t I = 0; I < NumPairs; ++I) {
    const int64_t Index =
        static_cast<int64_t>(Generator.below(static_cast<uint64_t>(NumImages)));
    Pairs.push_back({Index, Index});
  }
  return Pairs;
}

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

std::vector<OutputSpec> consistencySpecs(const Dataset &Set, int64_t First,
                                         int64_t NumOutputs) {
  std::vector<OutputSpec> Specs;
  if (Set.numAttributes() > 0) {
    for (int64_t J = 0; J < NumOutputs; ++J)
      Specs.push_back(OutputSpec::attributeSign(
          J, Set.Attributes.at(First, J) > 0.5, NumOutputs));
  } else {
    Specs.push_back(OutputSpec::argmaxWins(
        Set.Labels[static_cast<size_t>(First)], NumOutputs));
  }
  return Specs;
}

ConsistencyReport evaluateConsistency(
    const std::vector<const Layer *> &Pipeline, const Shape &LatentShape,
    const std::vector<ConsistencyPair> &Pairs, Method Which,
    const ConsistencyConfig &Config) {
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
  Rng SampleRng(0x5eed5eedu);

  ConsistencyReport Report;
  double SumWidth = 0.0, SumLower = 0.0, SumUpper = 0.0, SumSeconds = 0.0;
  int64_t NumNonTrivial = 0, NumOom = 0;
  for (const ConsistencyPair &Pair : Pairs) {
    Timer PairTimer;
    std::vector<ProbBounds> Bounds;
    bool Oom = false;
    switch (Which) {
    case Method::Box:
    case Method::HybridZono:
    case Method::Zonotope:
    case Method::DeepZono: {
      DeviceMemoryModel Memory(Config.MemoryBudgetBytes);
      const std::vector<ConvexResult> Results =
          Which == Method::Box
              ? analyzeBoxMulti(Pipeline, LatentShape, Pair.Start, Pair.End,
                                Pair.Specs, Memory)
              : analyzeZonotopeMulti(
                    Pipeline, LatentShape, Pair.Start, Pair.End, Pair.Specs,
                    Which == Method::Zonotope   ? ZonotopeKind::Zonotope
                    : Which == Method::DeepZono ? ZonotopeKind::DeepZono
                                                : ZonotopeKind::HybridZono,
                    Memory);
      for (const ConvexResult &Result : Results) {
        Bounds.push_back(Result.Bounds);
        Oom |= Result.Bounds.OutOfMemory;
        Report.PeakBytes = std::max(Report.PeakBytes, Result.PeakBytes);
      }
      break;
    }
    case Method::Sampling:
      for (const SamplingResult &Result : sampleSegmentBounds(
               Pipeline, LatentShape, Pair.Start, Pair.End, Pair.Specs,
               ParamDistribution::Uniform, Config.SamplesPerPair,
               Config.SamplingAlpha, SampleRng))
        Bounds.push_back({Result.Lower, Result.Upper, false});
      // Sampling keeps only one batch of activations resident.
      Report.PeakBytes = std::max(
          Report.PeakBytes, static_cast<size_t>(256 * 4096 * sizeof(double)));
      break;
    default: {
      const PropagatedState State = Analyzer.propagateSegment(
          Pipeline, LatentShape, Pair.Start, Pair.End);
      Report.PeakBytes = std::max(Report.PeakBytes, State.PeakBytes);
      Report.MaxRegions = std::max(Report.MaxRegions, State.Stats.MaxRegions);
      Report.MaxNodes = std::max(Report.MaxNodes, State.Stats.MaxNodes);
      Report.Retries = std::max(Report.Retries, State.Retries);
      for (const OutputSpec &Spec : Pair.Specs)
        Bounds.push_back(Analyzer.boundsFor(State, Spec));
      Oom = State.OutOfMemory;
      break;
    }
    }
    if (Oom)
      ++NumOom;
    for (const ProbBounds &B : Bounds) {
      SumWidth += B.width();
      SumLower += B.Lower;
      SumUpper += B.Upper;
      if (B.nonTrivial())
        ++NumNonTrivial;
      ++Report.NumBounds;
    }
    SumSeconds += PairTimer.seconds();
  }

  if (Report.NumBounds > 0) {
    const double N = static_cast<double>(Report.NumBounds);
    Report.MeanWidth = SumWidth / N;
    Report.MeanLower = SumLower / N;
    Report.MeanUpper = SumUpper / N;
    Report.FractionNonTrivial = static_cast<double>(NumNonTrivial) / N;
  }
  if (!Pairs.empty()) {
    Report.FractionOom =
        static_cast<double>(NumOom) / static_cast<double>(Pairs.size());
    Report.MeanSeconds = SumSeconds / static_cast<double>(Pairs.size());
  }
  return Report;
}

} // namespace genprove
