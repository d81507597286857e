//===- audit/audit.cpp ----------------------------------------*- C++ -*-===//

#include "src/audit/audit.h"

#include "src/core/genprove.h"
#include "src/domains/box_domain.h"
#include "src/domains/propagate.h"
#include "src/domains/zonotope.h"
#include "src/nn/architectures.h"
#include "src/nn/init.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/util/error.h"
#include "src/util/fp.h"
#include "src/util/rng.h"

#include <algorithm>
#include <cmath>

namespace genprove {

namespace {

/// Box propagation in lockstep on the production engine: the Box domain's
/// initial box, stepped one layer per propagateRegions call, once under
/// sound rounding and once in round-to-nearest, recording the per-layer
/// dilation of the sound radii. Returns the sound output bounds.
void propagateBoxAudit(const std::vector<const Layer *> &Layers,
                       const Shape &InputShape, const Tensor &Start,
                       const Tensor &End,
                       std::vector<LayerDilation> &Dilations, Tensor &OutLo,
                       Tensor &OutHi) {
  static Histogram &DilationHist =
      MetricsRegistry::global().histogram("audit.layer_dilation_rel");
  static Gauge &MaxDilation =
      MetricsRegistry::global().gauge("audit.max_dilation_rel");

  const PropagateConfig Config;
  const auto Step = [&](bool Sound, const Layer *L, const Shape &InShape,
                        Region &Box) {
    SoundRoundingScope Rounding(Sound);
    DeviceMemoryModel Memory(0);
    PropagateStats Stats;
    std::vector<Region> State;
    State.push_back(std::move(Box));
    State = propagateRegions({L}, InShape, std::move(State), Config, Memory,
                             Stats);
    Box = std::move(State.front());
  };

  Region Sound, Nearest;
  {
    SoundRoundingScope On(true);
    Sound = segmentBox(Start, End);
  }
  {
    SoundRoundingScope Off(false);
    Nearest = segmentBox(Start, End);
  }

  Shape CurShape = InputShape;
  int64_t Index = 0;
  for (const Layer *L : Layers) {
    Step(true, L, CurShape, Sound);
    Step(false, L, CurShape, Nearest);
    CurShape = L->outputShape(CurShape);

    LayerDilation Dil;
    Dil.Index = Index++;
    Dil.Kind = layerKindName(L->kind());
    const Tensor &Rs = Sound.Radius;
    const Tensor &Rr = Nearest.Radius;
    double Sum = 0.0;
    int64_t Counted = 0;
    for (int64_t J = 0; J < Rs.numel(); ++J) {
      if (Rr[J] <= 0.0)
        continue; // zero-width round-to-nearest dims have no relative scale
      const double Rel = (Rs[J] - Rr[J]) / Rr[J];
      Sum += Rel;
      Dil.MaxRel = std::max(Dil.MaxRel, Rel);
      ++Counted;
    }
    Dil.MeanRel = Counted > 0 ? Sum / static_cast<double>(Counted) : 0.0;
    DilationHist.record(Dil.MaxRel);
    MaxDilation.setMax(Dil.MaxRel);
    Dilations.push_back(Dil);
  }

  const int64_t N = Sound.dim();
  OutLo = Tensor({1, N});
  OutHi = Tensor({1, N});
  for (int64_t J = 0; J < N; ++J) {
    OutLo[J] = fp::subDown(Sound.Center[J], Sound.Radius[J]);
    OutHi[J] = fp::addUp(Sound.Center[J], Sound.Radius[J]);
  }
}

/// Concrete outputs [K, M] against sound bounds [1, M]; zero tolerance.
int64_t countViolations(const Tensor &Outputs, const Tensor &Lo,
                        const Tensor &Hi) {
  int64_t Violations = 0;
  const int64_t K = Outputs.dim(0);
  const int64_t M = Outputs.dim(1);
  for (int64_t I = 0; I < K; ++I)
    for (int64_t J = 0; J < M; ++J) {
      const double Y = Outputs.at(I, J);
      if (!(Y >= Lo[J] && Y <= Hi[J]))
        ++Violations;
    }
  return Violations;
}

/// Exact-segment bounds must nest inside coarser ones (strict ULP nesting
/// between independently rounded analyses is not guaranteed, hence the
/// small tolerance).
constexpr double DifferentialTol = 1e-9;

bool nests(const ProbBounds &Inner, const ProbBounds &Outer) {
  if (Outer.OutOfMemory)
    return true;
  return Outer.Lower <= Inner.Lower + DifferentialTol &&
         Inner.Upper <= Outer.Upper + DifferentialTol;
}

} // namespace

ModelAudit auditSegment(const std::string &Name,
                        const std::vector<const Layer *> &Layers,
                        const Shape &InputShape, const Tensor &Start,
                        const Tensor &End, const AuditConfig &Config) {
  static Counter &SamplesCtr =
      MetricsRegistry::global().counter("audit.samples");
  static Counter &ViolationsCtr =
      MetricsRegistry::global().counter("audit.violations");

  check(Start.numel() == End.numel(), "audit segment endpoint dim mismatch");
  ModelAudit Audit;
  Audit.Model = Name;

  // Concrete oracle: round-to-nearest points on the segment (endpoints
  // always included) pushed through the round-to-nearest forward pass.
  const int64_t K = std::max<int64_t>(Config.SamplesPerModel, 2);
  const int64_t N = Start.numel();
  Rng Gen(Config.Seed ^
          std::hash<std::string>{}(Name)); // deterministic per model
  Tensor Points({K, N});
  for (int64_t I = 0; I < K; ++I) {
    const double T = I == 0 ? 0.0 : (I == 1 ? 1.0 : Gen.uniform());
    for (int64_t J = 0; J < N; ++J)
      Points.at(I, J) = Start[J] + T * (End[J] - Start[J]);
  }
  Tensor Outputs;
  {
    SoundRoundingScope Off(false);
    Outputs = forwardConcretePoints(Layers, InputShape, Points);
  }

  // Box bounds (with per-layer dilation against the round-to-nearest run).
  {
    Tensor Lo, Hi;
    propagateBoxAudit(Layers, InputShape, Start, End, Audit.Layers, Lo, Hi);
    DomainAudit Dom;
    Dom.Domain = "box";
    Dom.Samples = K * Outputs.dim(1);
    Dom.Violations = countViolations(Outputs, Lo, Hi);
    Audit.Domains.push_back(Dom);
  }

  // Zonotope family bounds, all computed with directed rounding.
  {
    SoundRoundingScope On(true);
    for (const auto &[DomName, Kind] :
         {std::pair{"zonotope", ZonotopeKind::Zonotope},
          std::pair{"deepzono", ZonotopeKind::DeepZono},
          std::pair{"hybrid", ZonotopeKind::HybridZono}}) {
      DeviceMemoryModel Memory(0);
      const ZonotopeOutputBounds Bounds = zonotopeOutputBounds(
          Layers, InputShape, Start, End, Kind, Memory);
      DomainAudit Dom;
      Dom.Domain = DomName;
      Dom.OutOfMemory = Bounds.OutOfMemory;
      if (!Bounds.OutOfMemory) {
        Dom.Samples = K * Outputs.dim(1);
        Dom.Violations = countViolations(Outputs, Bounds.Lo, Bounds.Hi);
      }
      Audit.Domains.push_back(Dom);
    }
  }

  // Differential mode: the exact-segment probability bounds must nest
  // inside the relaxed analysis' bounds (both with directed rounding).
  if (Config.Differential) {
    SoundRoundingScope On(true);
    const OutputSpec Spec =
        OutputSpec::attributeSign(0, /*Positive=*/true, Outputs.dim(1));

    GenProveConfig ExactCfg;
    ExactCfg.Mode = AnalysisMode::Probabilistic;
    ExactCfg.RelaxPercent = 0.0;
    const GenProve Exact(ExactCfg);
    const ProbBounds ExactBounds =
        Exact.analyzeSegment(Layers, InputShape, Start, End, Spec).Bounds;

    GenProveConfig RelaxCfg = ExactCfg;
    RelaxCfg.RelaxPercent = 0.5;
    const GenProve Relaxed(RelaxCfg);
    const ProbBounds RelaxedBounds =
        Relaxed.analyzeSegment(Layers, InputShape, Start, End, Spec).Bounds;

    if (!nests(ExactBounds, RelaxedBounds)) {
      Audit.DifferentialOk = false;
      Audit.DifferentialNote =
          "exact bounds [" + std::to_string(ExactBounds.Lower) + ", " +
          std::to_string(ExactBounds.Upper) +
          "] not nested in relaxed bounds [" +
          std::to_string(RelaxedBounds.Lower) + ", " +
          std::to_string(RelaxedBounds.Upper) + "]";
    }
  }

  for (const DomainAudit &Dom : Audit.Domains) {
    SamplesCtr.add(Dom.Samples);
    ViolationsCtr.add(Dom.Violations);
  }
  return Audit;
}

AuditReport auditBuiltinZoo(const AuditConfig &Config) {
  AuditReport Report;

  Rng MlpInit(Config.Seed ^ 0x101);
  Sequential Mlp = makeMlp({6, 24, 24, 4});
  kaimingInit(Mlp, MlpInit);

  Rng DecInit(Config.Seed ^ 0x202);
  Sequential Decoder = makeDecoderSmall(/*Latent=*/4, /*ImgChannels=*/1,
                                        /*ImgSize=*/8);
  kaimingInit(Decoder, DecInit);

  Rng ClsInit(Config.Seed ^ 0x303);
  Sequential Classifier = makeConvSmall(/*ImgChannels=*/1, /*ImgSize=*/8,
                                        /*NumOut=*/3);
  kaimingInit(Classifier, ClsInit);

  Rng SegRng(Config.Seed ^ 0x404);
  auto sampleSegment = [&](int64_t Latent, Tensor &Start, Tensor &End) {
    Start = Tensor({1, Latent});
    End = Tensor({1, Latent});
    for (int64_t J = 0; J < Latent; ++J) {
      Start[J] = SegRng.normal();
      End[J] = SegRng.normal();
    }
  };

  {
    Tensor Start, End;
    sampleSegment(6, Start, End);
    Report.Models.push_back(auditSegment("mlp", Mlp.view(), Shape({1, 6}),
                                         Start, End, Config));
  }
  {
    Tensor Start, End;
    sampleSegment(4, Start, End);
    Report.Models.push_back(auditSegment("decoder_small", Decoder.view(),
                                         Shape({1, 4}), Start, End, Config));
  }
  {
    Tensor Start, End;
    sampleSegment(4, Start, End);
    Report.Models.push_back(
        auditSegment("decoder_classifier",
                     concatViews(Decoder.view(), Classifier.view()),
                     Shape({1, 4}), Start, End, Config));
  }

  for (const ModelAudit &M : Report.Models) {
    for (const DomainAudit &Dom : M.Domains) {
      Report.TotalSamples += Dom.Samples;
      Report.TotalViolations += Dom.Violations;
    }
    for (const LayerDilation &Dil : M.Layers)
      Report.MaxDilationRel = std::max(Report.MaxDilationRel, Dil.MaxRel);
  }
  return Report;
}

std::string auditReportJson(const AuditReport &Report) {
  JsonWriter W;
  W.beginObject();
  W.key("ok").value(Report.ok());
  W.key("total_samples").value(Report.TotalSamples);
  W.key("total_violations").value(Report.TotalViolations);
  W.key("max_dilation_rel").value(Report.MaxDilationRel);
  W.key("models").beginArray();
  for (const ModelAudit &M : Report.Models) {
    W.beginObject();
    W.key("model").value(M.Model);
    W.key("differential_ok").value(M.DifferentialOk);
    if (!M.DifferentialNote.empty())
      W.key("differential_note").value(M.DifferentialNote);
    W.key("domains").beginArray();
    for (const DomainAudit &Dom : M.Domains) {
      W.beginObject();
      W.key("domain").value(Dom.Domain);
      W.key("samples").value(Dom.Samples);
      W.key("violations").value(Dom.Violations);
      W.key("oom").value(Dom.OutOfMemory);
      W.endObject();
    }
    W.endArray();
    W.key("layers").beginArray();
    for (const LayerDilation &Dil : M.Layers) {
      W.beginObject();
      W.key("index").value(Dil.Index);
      W.key("kind").value(Dil.Kind);
      W.key("mean_rel").value(Dil.MeanRel);
      W.key("max_rel").value(Dil.MaxRel);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}

} // namespace genprove
