//===- domains/propagate.cpp ----------------------------------*- C++ -*-===//

#include "src/domains/propagate.h"

#include "src/domains/fault_injection.h"
#include "src/domains/prop_cache.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parallel/thread_pool.h"
#include "src/util/fp.h"
#include "src/util/hash.h"
#include "src/util/timer.h"

#include <algorithm>
#include <cmath>

namespace genprove {

const char *layerKindName(Layer::Kind K) {
  switch (K) {
  case Layer::Kind::Linear:
    return "Linear";
  case Layer::Kind::Conv2d:
    return "Conv2d";
  case Layer::Kind::ConvTranspose2d:
    return "ConvTranspose2d";
  case Layer::Kind::ReLU:
    return "ReLU";
  case Layer::Kind::Flatten:
    return "Flatten";
  case Layer::Kind::Reshape:
    return "Reshape";
  }
  return "?";
}

const char *degradeRungName(DegradeRung R) {
  switch (R) {
  case DegradeRung::None:
    return "-";
  case DegradeRung::LocalBox:
    return "local";
  case DegradeRung::FullBox:
    return "box";
  }
  return "?";
}

namespace {

/// Minimum gap between two ReLU split points; closer roots merge.
constexpr double SplitEps = 1e-9;
/// Resilient mode: checkpoint rollbacks allowed per layer before the
/// engine gives up on local boxing and lifts the state to the FullBox rung.
constexpr int64_t MaxLayerRetries = 6;

double evalCdf(const ParamCdf &Cdf, double T) { return Cdf ? Cdf(T) : T; }

/// Apply one affine layer to every region in place (exact for curves,
/// interval arithmetic for boxes), batching all rows of a kind into a
/// single layer application. The kernels read every region's rows where
/// they lie and write straight into its new storage: the engine stages no
/// batch and copies no row.
void applyAffineLayer(const Layer &L, const Shape &InShape,
                      std::vector<Region> &Regions) {
  if (Regions.empty())
    return;
  // Row slots of each kind in region order, so the row lists below can be
  // filled region-parallel with disjoint writes.
  const int64_t NumRegions = static_cast<int64_t>(Regions.size());
  int64_t NumA0 = 0, NumHi = 0, NumBoxes = 0;
  std::vector<int64_t> At(static_cast<size_t>(NumRegions));
  std::vector<int64_t> HiAt(static_cast<size_t>(NumRegions));
  for (int64_t I = 0; I < NumRegions; ++I) {
    const auto &R = Regions[static_cast<size_t>(I)];
    if (R.Kind == RegionKind::Curve) {
      At[static_cast<size_t>(I)] = NumA0++;
      HiAt[static_cast<size_t>(I)] = NumHi;
      NumHi += R.degree();
    } else {
      At[static_cast<size_t>(I)] = NumBoxes++;
    }
  }
  const int64_t N = Regions.front().dim();
  const int64_t OutN = L.outputShape(InShape).numel();
  // Curves: the constant row goes through the affine map, the higher
  // rows through its linear part. Boxes: centers and radii.
  std::vector<const double *> A0In(static_cast<size_t>(NumA0)),
      HiIn(static_cast<size_t>(NumHi)), CenterIn(static_cast<size_t>(NumBoxes)),
      RadiusIn(static_cast<size_t>(NumBoxes));
  std::vector<double *> A0Out(static_cast<size_t>(NumA0)),
      HiOut(static_cast<size_t>(NumHi)), CenterOut(static_cast<size_t>(NumBoxes)),
      RadiusOut(static_cast<size_t>(NumBoxes));
  // Each region's new storage: a curve's coefficients or a box's center,
  // and a box's radius.
  std::vector<Tensor> New(static_cast<size_t>(NumRegions)),
      NewRadius(static_cast<size_t>(NumRegions));
  parallelFor(NumRegions, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I) {
      const auto &R = Regions[static_cast<size_t>(I)];
      const size_t Slot = static_cast<size_t>(At[static_cast<size_t>(I)]);
      Tensor &Next = New[static_cast<size_t>(I)];
      if (R.Kind == RegionKind::Curve) {
        const int64_t Degree = R.degree();
        Next = Tensor({Degree + 1, OutN});
        A0In[Slot] = R.Coeffs.data();
        A0Out[Slot] = Next.data();
        for (int64_t D = 1; D <= Degree; ++D) {
          const size_t Hi =
              static_cast<size_t>(HiAt[static_cast<size_t>(I)] + D - 1);
          HiIn[Hi] = R.Coeffs.data() + D * N;
          HiOut[Hi] = Next.data() + D * OutN;
        }
      } else {
        Next = Tensor({1, OutN});
        Tensor &NextRadius = NewRadius[static_cast<size_t>(I)];
        NextRadius = Tensor({1, OutN});
        CenterIn[Slot] = R.Center.data();
        RadiusIn[Slot] = R.Radius.data();
        CenterOut[Slot] = Next.data();
        RadiusOut[Slot] = NextRadius.data();
      }
    }
  });

  if (NumA0 > 0)
    L.applyAffineRows(InShape, A0In.data(), A0Out.data(), NumA0,
                      /*WithBias=*/true);
  if (NumHi > 0)
    L.applyAffineRows(InShape, HiIn.data(), HiOut.data(), NumHi,
                      /*WithBias=*/false);
  if (NumBoxes > 0) {
    if (soundRoundingEnabled())
      L.applyToBoxSoundRows(InShape, CenterIn.data(), RadiusIn.data(),
                            CenterOut.data(), RadiusOut.data(), NumBoxes);
    else
      L.applyToBoxRows(InShape, CenterIn.data(), RadiusIn.data(),
                       /*Mag=*/nullptr, CenterOut.data(), RadiusOut.data(),
                       /*OutMag=*/nullptr, /*OutBiasImage=*/nullptr,
                       NumBoxes);
  }

  parallelFor(NumRegions, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I) {
      auto &R = Regions[static_cast<size_t>(I)];
      if (R.Kind == RegionKind::Curve) {
        R.Coeffs = std::move(New[static_cast<size_t>(I)]);
      } else {
        R.Center = std::move(New[static_cast<size_t>(I)]);
        R.Radius = std::move(NewRadius[static_cast<size_t>(I)]);
      }
    }
  });
}

/// Interval ReLU on a box region, in place.
void reluBox(Region &Box) {
  const int64_t N = Box.dim();
  if (soundRoundingEnabled()) {
    // Endpoints rounded outward; the re-centered box keeps containing
    // [Lo, Hi] via the directed-up radius (Interval::toCenterRadius).
    for (int64_t J = 0; J < N; ++J) {
      const Interval Clamped =
          Interval(fp::subDown(Box.Center[J], Box.Radius[J]),
                   fp::addUp(Box.Center[J], Box.Radius[J]))
              .relu();
      Clamped.toCenterRadius(Box.Center[J], Box.Radius[J]);
    }
    return;
  }
  for (int64_t J = 0; J < N; ++J) {
    const double Lo = std::max(Box.Center[J] - Box.Radius[J], 0.0);
    const double Hi = std::max(Box.Center[J] + Box.Radius[J], 0.0);
    Box.Center[J] = 0.5 * (Lo + Hi);
    Box.Radius[J] = 0.5 * (Hi - Lo);
  }
}

/// Exact ReLU on a curve region: split at every component zero crossing,
/// then mask each piece by the per-component sign at its midpoint. The
/// curve is consumed: its last piece is masked in place in the curve's own
/// coefficient storage, so an unsplit curve allocates and copies nothing.
/// NumSplits is a plain per-call counter so the function can run on pool
/// workers; the caller folds it into PropagateStats in region order.
///
/// Row loops over the raw coefficient rows, bit for bit the per-component
/// form: cuts are pushed component by component in polyRoots' order (so
/// the sort and the SplitEps merge see the same sequence), and each
/// midpoint value is evalCurveComponent's chain (0 + a0*1) + a1*t +
/// a2*(t*t) + ..., summed row by row.
void reluCurve(Region &Curve, const PropagateConfig &Config,
               std::vector<Region> &Out, int64_t &NumSplits) {
  GENPROVE_SPAN("relu_split");
  const int64_t N = Curve.dim();
  const int64_t Degree = Curve.degree();
  const double *Rows = Curve.Coeffs.data();
  const double Lo = Curve.T0, Hi = Curve.T1;
  std::vector<double> Cuts;
  Cuts.push_back(Lo);
  Cuts.push_back(Hi);
  // A constant component (degree 0) has no root.
  if (Degree == 1)
    for (int64_t J = 0; J < N; ++J)
      polyRoots(Rows[J], Rows[N + J], 0.0, Lo, Hi, Cuts);
  else if (Degree >= 2)
    for (int64_t J = 0; J < N; ++J)
      polyRoots(Rows[J], Rows[N + J], Rows[2 * N + J], Lo, Hi, Cuts);
  std::sort(Cuts.begin(), Cuts.end());
  Cuts.erase(std::unique(Cuts.begin(), Cuts.end(),
                         [&](double A, double B) {
                           return B - A < SplitEps;
                         }),
             Cuts.end());
  // Guard the boundaries after deduplication: never lose the piece.
  if (Cuts.size() == 1)
    Cuts.push_back(Curve.T1);
  Cuts.front() = Curve.T0;
  Cuts.back() = Curve.T1;

  std::vector<double> Mid(static_cast<size_t>(N));
  double F0 = evalCdf(Config.Cdf, Cuts.front());
  for (size_t I = 0; I + 1 < Cuts.size(); ++I) {
    const double T0 = Cuts[I];
    const double T1 = Cuts[I + 1];
    const double Tm = 0.5 * (T0 + T1);
    const double F1 = evalCdf(Config.Cdf, T1);
    for (int64_t J = 0; J < N; ++J)
      Mid[static_cast<size_t>(J)] = 0.0 + Rows[J] * 1.0;
    double Tp = Tm;
    for (int64_t D = 1; D <= Degree; ++D, Tp *= Tm)
      for (int64_t J = 0; J < N; ++J)
        Mid[static_cast<size_t>(J)] += Rows[D * N + J] * Tp;
    Region Piece;
    Piece.Kind = RegionKind::Curve;
    Piece.T0 = T0;
    Piece.T1 = T1;
    Piece.Weight = F1 - F0;
    // Every earlier piece has read the curve's rows by the last one.
    Piece.Coeffs = I + 2 < Cuts.size() ? Tensor({Degree + 1, N})
                                       : std::move(Curve.Coeffs);
    // A component not positive at the midpoint is clamped to zero.
    for (int64_t D = 0; D <= Degree; ++D) {
      const double *Src = Rows + D * N;
      double *Dst = Piece.Coeffs.data() + D * N;
      for (int64_t J = 0; J < N; ++J) {
        const double A = Src[J];
        Dst[J] = Mid[static_cast<size_t>(J)] > 0.0 ? A : 0.0;
      }
    }
    Out.push_back(std::move(Piece));
    F0 = F1;
  }
  NumSplits += static_cast<int64_t>(Cuts.size()) - 2;
}

/// Collapse the whole state to one interval box (the FullBox rung). The
/// box covers every region and carries their total mass, so the lift is a
/// sound widening; propagating it costs two nodes per layer.
void liftToFullBox(std::vector<Region> &Regions) {
  if (Regions.empty())
    return;
  Region Acc;
  bool Have = false;
  for (Region &R : Regions) {
    Region B = R.Kind == RegionKind::Box ? std::move(R) : boundingBox(R);
    Acc = Have ? mergeBoxes(Acc, B) : std::move(B);
    Have = true;
  }
  Regions.clear();
  Regions.push_back(std::move(Acc));
}

} // namespace

uint64_t cacheSaltForConfig(const PropagateConfig &Config,
                            uint64_t CallerTag) {
  uint64_t H = hashing::hashU64(hashing::FnvOffset, CallerTag);
  H = hashing::hashDouble(H, Config.Relax.RelaxPercent);
  H = hashing::hashDouble(H, Config.Relax.ClusterK);
  H = hashing::hashU64(H, static_cast<uint64_t>(Config.Relax.NodeThreshold));
  H = hashing::hashU64(H, soundRoundingEnabled() ? 1 : 0);
  return H;
}

std::vector<Region> propagateRegions(const std::vector<const Layer *> &Layers,
                                     const Shape &InputShape,
                                     std::vector<Region> Regions,
                                     const PropagateConfig &Config,
                                     DeviceMemoryModel &Memory,
                                     PropagateStats &Stats) {
  GENPROVE_SPAN("propagate");
  // Registered once; add() is a no-op while metrics are disabled.
  static Counter &SplitsCtr =
      MetricsRegistry::global().counter("propagate.splits");
  static Counter &BoxedCtr =
      MetricsRegistry::global().counter("propagate.boxed");
  static Counter &OomCtr = MetricsRegistry::global().counter("propagate.oom");
  static Counter &DegradedCtr =
      MetricsRegistry::global().counter("propagate.degraded");
  static Counter &FallbackCtr =
      MetricsRegistry::global().counter("propagate.fallback_box");
  static Counter &RollbackCtr =
      MetricsRegistry::global().counter("propagate.rollbacks");
  static Counter &DeadlineCtr =
      MetricsRegistry::global().counter("propagate.deadline_hits");
  static Counter &QuarantineCtr =
      MetricsRegistry::global().counter("propagate.quarantined");
  static Histogram &LayerSecondsHist =
      MetricsRegistry::global().histogram("propagate.layer_seconds");
  static Counter &CacheWarmCtr =
      MetricsRegistry::global().counter("cache.warm_layers");

  const ResilienceConfig &Res = Config.Resilience;
  const bool Resilient = Res.Enabled;
  if (Res.Faults)
    Res.Faults->arm(Memory);

  Stats = PropagateStats{};
  const auto FlushCounters = [&] {
    CacheWarmCtr.add(Stats.CacheWarmLayers);
    SplitsCtr.add(Stats.NumSplits);
    BoxedCtr.add(Stats.NumBoxed);
    OomCtr.add(Stats.OutOfMemory ? 1 : 0);
    DegradedCtr.add(Stats.Degraded ? 1 : 0);
    RollbackCtr.add(Stats.Rollbacks);
    FallbackCtr.add(Stats.FallbackBoxLayers);
    QuarantineCtr.add(Stats.QuarantinedRegions);
    DeadlineCtr.add(Stats.DeadlineHit ? 1 : 0);
  };

  // Deadline clock: injected test clock if provided, wall clock otherwise.
  Timer WallClock;
  const double ClockStart = Res.Clock ? Res.Clock() : 0.0;
  const auto Elapsed = [&] {
    return Res.Clock ? Res.Clock() - ClockStart : WallClock.seconds();
  };
  const auto DeadlineExpired = [&] {
    return Resilient && Res.DeadlineSeconds > 0.0 &&
           Elapsed() >= Res.DeadlineSeconds;
  };

  // The highest rung reached so far; FullBox is sticky for the rest of
  // the pipeline.
  DegradeRung RunRung = DegradeRung::None;
  const auto Degrade = [&](DegradeRung To) {
    if (static_cast<uint8_t>(To) > static_cast<uint8_t>(RunRung))
      RunRung = To;
    if (static_cast<uint8_t>(To) > static_cast<uint8_t>(Stats.Rung))
      Stats.Rung = To;
    Stats.Degraded = true;
  };

  // Drop non-finite regions, accounting their mass so bound computations
  // can widen soundly. Only active in resilient mode.
  const auto Quarantine = [&](std::vector<Region> &Rs) {
    if (!Resilient)
      return;
    const size_t Before = Rs.size();
    size_t Kept = 0;
    for (size_t I = 0; I < Rs.size(); ++I) {
      if (regionIsFinite(Rs[I])) {
        if (Kept != I)
          Rs[Kept] = std::move(Rs[I]);
        ++Kept;
      } else {
        // A non-finite weight means the mass itself is unknown: assume the
        // worst (the entire unit of probability) to stay sound.
        Stats.QuarantinedMass += std::isfinite(Rs[I].Weight)
                                     ? std::max(Rs[I].Weight, 0.0)
                                     : 1.0;
        ++Stats.QuarantinedRegions;
        Stats.Degraded = true;
      }
    }
    Rs.resize(Kept);
    if (Kept < Before && logEnabled())
      EventLog::global().emit(
          LogLevel::Warn, "propagate.quarantine",
          {{"regions", static_cast<int64_t>(Before - Kept)},
           {"mass", Stats.QuarantinedMass}});
  };

  Shape CurShape = InputShape;
  Quarantine(Regions);
  if (Resilient && Res.StartAtFullBox) {
    // The caller asked for the interval-box rung up front (last-resort
    // shard retries): lift before the initial charge so the whole
    // pipeline runs budget-exempt host interval arithmetic.
    liftToFullBox(Regions);
    Degrade(DegradeRung::FullBox);
  }

  // Propagation-cache warm start. A committed state is memoizable while
  // the run is clean — no rung fired, nothing quarantined — because it is
  // then bit for bit what a cold plain run commits, so plain and resilient
  // runs share entries. Runs with fault injection armed or lifted to the
  // full box up front never touch the cache.
  const auto Clean = [&] {
    return RunRung == DegradeRung::None && Stats.QuarantinedRegions == 0;
  };
  const bool CacheActive =
      Config.Cache && !Res.Faults && Clean() && Config.Cache->enabled();
  std::vector<uint64_t> Chain;
  size_t WarmDepth = 0;
  size_t RunPeakBytes = 0; // peak device charge of the layers run so far
  if (CacheActive) {
    Chain = PropagationCache::chainKeys(Config.CacheSalt, InputShape,
                                        Regions, Layers);
    std::vector<Region> WarmState;
    Shape WarmShape;
    size_t WarmPeak = 0;
    // A resilient run takes a cached prefix only if its budget holds the
    // prefix's peak: every charge of the cold prefix then fits as well, so
    // a cold run would have committed the same clean states. Otherwise the
    // probe is a miss and the run goes cold down the ladder.
    const auto Admit = [&](size_t Peak) {
      return !Resilient || Memory.tryCharge(Peak);
    };
    WarmDepth = Config.Cache->lookupDeepest(Chain, WarmState, WarmShape,
                                            WarmPeak, Admit);
    if (WarmDepth > 0) {
      // Replay the skipped prefix's peak device charge as one charge (a
      // resilient run already did, in Admit): the peak of the cold run's
      // monotone charge sequence is its maximum, so budget exhaustion (and
      // the peak gauge) behaves exactly as a cold run's would.
      if (!Resilient && !Memory.charge(WarmPeak)) {
        Stats.OutOfMemory = true;
        FlushCounters();
        return {};
      }
      Regions = std::move(WarmState);
      CurShape = WarmShape;
      RunPeakBytes = WarmPeak;
      Stats.CacheWarmLayers += static_cast<int64_t>(WarmDepth);
    }
  }

  if (WarmDepth == 0) {
    const int64_t Nodes = totalNodes(Regions);
    const int64_t Dim = Regions.empty() ? 0 : Regions.front().dim();
    RunPeakBytes = stateBytes(Nodes, Dim);
    if (!Resilient) {
      if (!Memory.chargeState(Nodes, Dim)) {
        Stats.OutOfMemory = true;
        FlushCounters();
        return {};
      }
    } else if (!Memory.tryChargeState(Nodes, Dim)) {
      // Even the input does not fit: coarsen it in place before layer 0.
      const int64_t FitNodes =
          Dim > 0 && Memory.budgetBytes() > 0
              ? static_cast<int64_t>(Memory.budgetBytes() /
                                     (static_cast<size_t>(Dim) *
                                      sizeof(double)))
              : Nodes / 2;
      boxLowestMassRegions(Regions, std::max<int64_t>(FitNodes, 2));
      Degrade(DegradeRung::LocalBox);
      if (!Memory.tryChargeState(totalNodes(Regions), Dim)) {
        liftToFullBox(Regions);
        Degrade(DegradeRung::FullBox);
        // The FullBox rung is exempt from the device budget: it models
        // spilling to host interval arithmetic, which always fits.
        (void)Memory.tryChargeState(totalNodes(Regions), Dim);
      }
    }
  }

  for (size_t Li = WarmDepth; Li < Layers.size(); ++Li) {
    const Layer *L = Layers[Li];
    // Refresh the liveness digest unconditionally (one relaxed store —
    // cheaper than branching on a flag) so the worker heartbeat thread
    // always reports the layer being worked on.
    RunLiveness::global().CurrentLayer.store(static_cast<int64_t>(Li),
                                             std::memory_order_relaxed);
    bool FullBoxActive = RunRung == DegradeRung::FullBox;
    if (Res.Faults)
      Res.Faults->beginLayer(static_cast<int64_t>(Li), FullBoxActive);
    if (!FullBoxActive && DeadlineExpired()) {
      // Out of time: lift the remaining pipeline to interval propagation.
      Quarantine(Regions);
      liftToFullBox(Regions);
      Degrade(DegradeRung::FullBox);
      Stats.DeadlineHit = true;
      if (logEnabled())
        EventLog::global().emit(LogLevel::Warn, "propagate.deadline",
                                {{"layer", static_cast<int64_t>(Li)},
                                 {"elapsed_s", Elapsed()}});
      FullBoxActive = true;
    }
    if (FullBoxActive)
      ++Stats.FallbackBoxLayers;

    // Checkpoint the state entering this layer; an OOM rolls back to here
    // and coarsens instead of restarting from layer 0. Host-side only —
    // the simulated device never holds it (a real deployment would spill
    // the checkpoint to host RAM).
    std::vector<Region> Checkpoint;
    if (Resilient && !FullBoxActive)
      Checkpoint = Regions;

    int64_t LayerRollbacks = 0;
    DegradeRung LayerRung =
        FullBoxActive ? DegradeRung::FullBox : DegradeRung::None;

    for (;;) { // Retries this layer only; predecessors are never re-run.
      LayerRecord Rec;
      Rec.Index = static_cast<int64_t>(Li);
      Rec.Kind = layerKindName(L->kind());
      Rec.RegionsIn = static_cast<int64_t>(Regions.size());
      Rec.NodesIn = totalNodes(Regions);
      const int64_t LayerSplits0 = Stats.NumSplits;
      Timer LayerClock;
      GENPROVE_SPAN(Rec.Kind);

      // Relaxation fires right before convolutional layers (Section 3.1),
      // when it may box anything (p > 0).
      const bool IsConvolutional = L->kind() == Layer::Kind::Conv2d ||
                                   L->kind() == Layer::Kind::ConvTranspose2d;
      if (Config.Relax.RelaxPercent > 0.0 && IsConvolutional) {
        GENPROVE_SPAN("relax");
        const int64_t Before = static_cast<int64_t>(Regions.size());
        relaxRegions(Regions, Config.Relax);
        Rec.Boxed = Before - static_cast<int64_t>(Regions.size());
        Stats.NumBoxed += Rec.Boxed;
      }

      Shape NextShape = CurShape;
      bool ChargeFailed = false;
      if (L->isAffine()) {
        // Regions are stored flat, so a shape-only layer moves no data: it
        // changes only the shape the next layer reads.
        if (!L->isShapeOnly())
          applyAffineLayer(*L, CurShape, Regions);
        NextShape = L->outputShape(CurShape);
      } else {
        // Exact ReLU splitting is independent per region, so the split
        // computation fans out over the pool in fixed mega-chunks; the
        // memory-model charges are then replayed serially in region
        // order. The replay issues exactly the same charge sequence (one
        // cumulative charge per region) as the old serial loop, so OOM
        // points, fault-injection interceptor firings, peak bytes and
        // per-layer telemetry are bit-identical for any thread count.
        // The chunk bound keeps host allocation past an OOM point to at
        // most one mega-chunk of split pieces.
        constexpr int64_t RegionChunk = 4096;
        std::vector<Region> Next;
        Next.reserve(Regions.size());
        int64_t RunningNodes = 0;
        const int64_t NumRegions = static_cast<int64_t>(Regions.size());
        for (int64_t CBegin = 0; CBegin < NumRegions && !ChargeFailed;
             CBegin += RegionChunk) {
          const int64_t CCount =
              std::min(NumRegions - CBegin, RegionChunk);
          std::vector<std::vector<Region>> Outs(
              static_cast<size_t>(CCount));
          std::vector<int64_t> Splits(static_cast<size_t>(CCount), 0);
          std::vector<int64_t> Deltas(static_cast<size_t>(CCount), 0);
          parallelFor(CCount, [&](int64_t Begin, int64_t End) {
            for (int64_t I = Begin; I < End; ++I) {
              Region &R = Regions[static_cast<size_t>(CBegin + I)];
              auto &Out = Outs[static_cast<size_t>(I)];
              if (R.Kind == RegionKind::Box) {
                reluBox(R);
                Deltas[static_cast<size_t>(I)] = 2;
                Out.push_back(std::move(R));
              } else {
                const int64_t NodesPerPiece = R.degree() + 1;
                reluCurve(R, Config, Out, Splits[static_cast<size_t>(I)]);
                Deltas[static_cast<size_t>(I)] =
                    static_cast<int64_t>(Out.size()) * NodesPerPiece;
              }
            }
          });
          // Serial charge replay: identical cumulative totals and call
          // count to the pre-parallel per-region loop.
          for (int64_t I = 0; I < CCount && !ChargeFailed; ++I) {
            RunningNodes += Deltas[static_cast<size_t>(I)];
            Stats.NumSplits += Splits[static_cast<size_t>(I)];
            for (Region &P : Outs[static_cast<size_t>(I)])
              Next.push_back(std::move(P));
            const bool Ok =
                Resilient
                    ? Memory.tryChargeState(RunningNodes,
                                            CurShape.numel()) ||
                          FullBoxActive
                    : Memory.chargeState(RunningNodes, CurShape.numel());
            if (!Ok) {
              if (!Resilient) {
                Stats.OutOfMemory = true;
                Stats.OomLayer = static_cast<int64_t>(Li);
                Rec.RegionsOut = static_cast<int64_t>(Next.size());
                Rec.NodesOut = RunningNodes;
                Rec.Splits = Stats.NumSplits - LayerSplits0;
                Rec.ChargedBytes =
                    stateBytes(RunningNodes, CurShape.numel());
                Rec.Seconds = LayerClock.seconds();
                Stats.Layers.push_back(Rec);
                FlushCounters();
                return {};
              }
              ChargeFailed = true;
            }
          }
        }
        if (!ChargeFailed)
          Regions = std::move(Next);
      }

      int64_t Nodes = 0;
      if (!ChargeFailed) {
        Nodes = totalNodes(Regions);
        const bool Ok =
            Resilient
                ? Memory.tryChargeState(Nodes, NextShape.numel()) ||
                      FullBoxActive
                : true; // legacy path charges after recording, below
        if (!Ok)
          ChargeFailed = true;
      }

      if (!ChargeFailed) {
        // Layer committed. Inject / detect non-finite values on the
        // committed state, then record the timeline row.
        if (Res.Faults &&
            Res.Faults->shouldPoison(static_cast<int64_t>(Li)))
          Res.Faults->poisonRegions(Regions);
        Quarantine(Regions);
        CurShape = NextShape;
        Nodes = totalNodes(Regions);
        Stats.MaxRegions =
            std::max(Stats.MaxRegions, static_cast<int64_t>(Regions.size()));
        Stats.MaxNodes = std::max(Stats.MaxNodes, Nodes);
        Rec.RegionsOut = static_cast<int64_t>(Regions.size());
        Rec.NodesOut = Nodes;
        Rec.Splits = Stats.NumSplits - LayerSplits0;
        Rec.ChargedBytes = stateBytes(Nodes, CurShape.numel());
        Rec.Seconds = LayerClock.seconds();
        Rec.Rung = LayerRung;
        Rec.Rollbacks = LayerRollbacks;
        RunLiveness::global().StateBytes.store(Rec.ChargedBytes,
                                               std::memory_order_relaxed);
        LayerSecondsHist.record(Rec.Seconds);
        Stats.Layers.push_back(Rec);
        if (!Resilient &&
            !Memory.chargeState(Nodes, CurShape.numel())) {
          Stats.OutOfMemory = true;
          Stats.OomLayer = static_cast<int64_t>(Li);
          FlushCounters();
          return {};
        }
        if (CacheActive && Clean()) {
          RunPeakBytes = std::max(RunPeakBytes, Rec.ChargedBytes);
          Config.Cache->store(Chain[Li + 1], Regions, CurShape,
                              RunPeakBytes,
                              /*Final=*/Li + 1 == Layers.size());
        }
        break;
      }

      // --- Degradation ladder (resilient mode only from here) ---
      // Roll back to the checkpoint: only this layer is re-executed.
      ++Stats.Rollbacks;
      ++LayerRollbacks;
      if (logEnabled())
        EventLog::global().emit(LogLevel::Warn, "propagate.rollback",
                                {{"layer", static_cast<int64_t>(Li)},
                                 {"layer_rollbacks", LayerRollbacks}});
      Regions = Checkpoint;
      const bool LocalExhausted = LayerRollbacks > MaxLayerRetries;
      bool Lifted = false;
      if (!LocalExhausted) {
        // Local coarsening, Appendix C style: each retry halves the node
        // target, starting from what the budget can actually hold.
        const int64_t Cur = totalNodes(Regions);
        const int64_t Dim =
            std::max(CurShape.numel(), NextShape.numel());
        int64_t FitNodes = Cur;
        if (Dim > 0 && Memory.budgetBytes() > 0)
          FitNodes = static_cast<int64_t>(
              Memory.budgetBytes() /
              (static_cast<size_t>(Dim) * sizeof(double)));
        int64_t Target = std::min(Cur, FitNodes);
        for (int64_t Halve = 0; Halve < LayerRollbacks; ++Halve)
          Target /= 2;
        if (Target < 4 || !boxLowestMassRegions(Regions, Target))
          Lifted = true; // nothing left to box locally
        else
          LayerRung = DegradeRung::LocalBox;
      } else {
        Lifted = true;
      }
      if (Lifted) {
        // Last rung: the rest of the pipeline runs on one interval box,
        // exempt from the device budget (host interval arithmetic).
        Quarantine(Regions);
        liftToFullBox(Regions);
        LayerRung = DegradeRung::FullBox;
        FullBoxActive = true;
        ++Stats.FallbackBoxLayers;
        Degrade(DegradeRung::FullBox);
        if (logEnabled())
          EventLog::global().emit(LogLevel::Warn, "propagate.fallback_box",
                                  {{"layer", static_cast<int64_t>(Li)}});
      } else {
        Degrade(DegradeRung::LocalBox);
      }
    }
  }
  FlushCounters();
  return Regions;
}

} // namespace genprove
