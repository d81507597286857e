//===- domains/relaxation.cpp ---------------------------------*- C++ -*-===//

#include "src/domains/relaxation.h"

#include "src/parallel/thread_pool.h"
#include "src/util/stats.h"

#include <algorithm>

namespace genprove {

int64_t totalNodes(const std::vector<Region> &Regions) {
  int64_t Nodes = 0;
  for (const auto &R : Regions)
    Nodes += R.nodes();
  return Nodes;
}

bool boxLowestMassRegions(std::vector<Region> &Regions, int64_t TargetNodes) {
  int64_t Nodes = totalNodes(Regions);
  if (Nodes <= TargetNodes || Regions.empty())
    return false;

  // Curve indices from lightest to heaviest: the cheap pieces lose their
  // exactness first, which costs the least bound mass (a boxed piece can
  // widen the probability interval by at most its weight).
  std::vector<size_t> ByMass;
  for (size_t I = 0; I < Regions.size(); ++I)
    if (Regions[I].Kind == RegionKind::Curve)
      ByMass.push_back(I);
  std::sort(ByMass.begin(), ByMass.end(), [&](size_t A, size_t B) {
    return Regions[A].Weight < Regions[B].Weight;
  });

  Region Acc;
  bool HaveAcc = false;
  std::vector<bool> Removed(Regions.size(), false);
  for (size_t Idx : ByMass) {
    if (Nodes <= TargetNodes)
      break;
    const Region Box = boundingBox(Regions[Idx]);
    Nodes -= Regions[Idx].nodes();
    if (HaveAcc) {
      Acc = mergeBoxes(Acc, Box);
    } else {
      Acc = Box;
      HaveAcc = true;
      Nodes += Acc.nodes();
    }
    Removed[Idx] = true;
  }
  // Still over target with every curve boxed: fold pre-existing boxes into
  // the accumulator too. This is the path that ends in one interval box.
  if (Nodes > TargetNodes) {
    for (size_t I = 0; I < Regions.size(); ++I) {
      if (Removed[I] || Regions[I].Kind != RegionKind::Box)
        continue;
      if (Nodes <= TargetNodes)
        break;
      if (HaveAcc) {
        Acc = mergeBoxes(Acc, Regions[I]);
        Nodes -= Regions[I].nodes();
      } else {
        Acc = Regions[I];
        HaveAcc = true;
      }
      Removed[I] = true;
    }
  }
  if (!HaveAcc)
    return false;

  std::vector<Region> Out;
  Out.reserve(Regions.size());
  for (size_t I = 0; I < Regions.size(); ++I)
    if (!Removed[I])
      Out.push_back(std::move(Regions[I]));
  Out.push_back(std::move(Acc));
  Regions = std::move(Out);
  return true;
}

void relaxRegions(std::vector<Region> &Regions, const RelaxConfig &Config) {
  // Separate the chain of curve pieces (kept in parameter order) from the
  // already-relaxed boxes.
  std::vector<Region> Curves;
  std::vector<Region> Out;
  for (auto &R : Regions) {
    if (R.Kind == RegionKind::Curve)
      Curves.push_back(std::move(R));
    else
      Out.push_back(std::move(R));
  }
  std::sort(Curves.begin(), Curves.end(),
            [](const Region &A, const Region &B) { return A.T0 < B.T0; });

  const int64_t ChainNodes = static_cast<int64_t>(Curves.size()) + 1;
  if (ChainNodes <= Config.NodeThreshold || Config.RelaxPercent <= 0.0) {
    for (auto &C : Curves)
      Out.push_back(std::move(C));
    Regions = std::move(Out);
    return;
  }

  // Length percentile threshold, computed once before any boxing; each
  // piece's length is independent, so they fan out over the pool.
  std::vector<double> Lengths(Curves.size());
  parallelFor(static_cast<int64_t>(Curves.size()),
              [&](int64_t Begin, int64_t End) {
                for (int64_t I = Begin; I < End; ++I)
                  Lengths[static_cast<size_t>(I)] =
                      curveChordLength(Curves[static_cast<size_t>(I)]);
              });
  const double LengthCap = percentile(Lengths, Config.RelaxPercent);

  // Per-step endpoint budget t/k: each merged box may subsume at most this
  // many segment endpoints ("clustering parameter" k).
  const int64_t StepBudget = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(ChainNodes) /
                              std::max(Config.ClusterK, 1.0)));

  size_t I = 0;
  while (I < Curves.size()) {
    // Greedily box a run of short pieces.
    bool HaveGroup = false;
    Region Group;
    int64_t Visited = 0;
    while (I < Curves.size() && Visited < StepBudget &&
           Lengths[I] <= LengthCap) {
      const Region Box = boundingBox(Curves[I]);
      Group = HaveGroup ? mergeBoxes(Group, Box) : Box;
      HaveGroup = true;
      ++Visited;
      ++I;
    }
    if (HaveGroup)
      Out.push_back(std::move(Group));
    // Skip the next piece (chain end, budget breach, or a long piece) and
    // restart the traversal after it.
    if (I < Curves.size()) {
      Out.push_back(std::move(Curves[I]));
      ++I;
    }
  }
  Regions = std::move(Out);
}

} // namespace genprove
