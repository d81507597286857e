//===- examples/curve_certification.cpp - GenProveCurve demo ----*- C++ -*-===//
//
// Exact certification of a *quadratic* latent curve (Section 4.2): the
// curve passes through a face encoding, a moustache-perturbed midpoint,
// and the flipped face encoding. GenProveCurve propagates the quadratic
// exactly (splitting at ReLU boundaries by solving per-dimension
// quadratics), so every bound it reports has zero width.
//
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/core/model_zoo.h"
#include "src/data/attribute_vector.h"
#include "src/data/synth_faces.h"
#include "src/sampling/sampler.h"
#include "src/util/table.h"

#include <cstdio>

using namespace genprove;

int main() {
  ZooConfig ZC;
  ZC.Verbose = true;
  ModelZoo Zoo(ZC);
  const Dataset &Set = Zoo.train(DatasetId::Faces);
  Vae &Model = Zoo.smallDecoderVae(); // DecoderSmall, as in the paper
  Sequential &Detector = Zoo.facesDetector("ConvSmall");

  const Shape ImgShape({1, Set.Channels, Set.Size, Set.Size});
  const Shape LatentShape({1, Model.latentDim()});
  const int64_t NumAttrs = Detector.outputShape(ImgShape).dim(1);
  const auto Pipeline = concatViews(Model.decoder().view(), Detector.view());

  const Tensor Moustache = attributeVector(Model, Set, FaceMoustache);
  const int64_t Image = 2;
  const Tensor E0 = Model.encode(Set.image(Image));
  const Tensor E2 = Model.encode(Set.flippedImage(Image));
  Tensor E1({1, Model.latentDim()});
  for (int64_t J = 0; J < E1.numel(); ++J)
    E1[J] = 0.5 * (E0[J] + E2[J]) + 4.0 * Moustache[J];

  // Quadratic through e0 (t=0), e1 (t=0.5), e2 (t=1) — Section 5.3.
  Tensor A0 = E0.clone();
  Tensor A1({1, E0.numel()});
  Tensor A2({1, E0.numel()});
  for (int64_t J = 0; J < E0.numel(); ++J) {
    A1[J] = 4.0 * E1[J] - E2[J] - 3.0 * E0[J];
    A2[J] = 2.0 * (E2[J] + E0[J] - 2.0 * E1[J]);
  }

  std::printf("Certifying a quadratic latent curve with GenProveCurve\n\n");

  GenProveConfig Config; // exact
  Config.MemoryBudgetBytes = 240ull << 20;
  const GenProve Analyzer(Config);
  const PropagatedState State =
      Analyzer.propagateQuadratic(Pipeline, LatentShape, A0, A1, A2);
  if (State.OutOfMemory) {
    std::printf("analysis ran out of simulated device memory\n");
    return 1;
  }

  Rng R(11);
  TablePrinter Table(
      {"Attribute", "exact Pr[consistent]", "sampled estimate"});
  for (int64_t J = 0; J < NumAttrs; ++J) {
    const OutputSpec Spec = OutputSpec::attributeSign(
        J, Set.Attributes.at(Image, J) > 0.5, NumAttrs);
    const ProbBounds Bounds = Analyzer.boundsFor(State, Spec);
    const SamplingResult Sampled =
        sampleQuadraticBounds(Pipeline, LatentShape, A0, A1, A2, {Spec},
                              ParamDistribution::Uniform, 500, 0.05, R)
            .front();
    char Est[32];
    std::snprintf(Est, sizeof(Est), "%.3f",
                  static_cast<double>(Sampled.Satisfied) /
                      static_cast<double>(Sampled.NumSamples));
    Table.addRow({Set.AttributeNames[static_cast<size_t>(J)],
                  formatBound(Bounds.Lower), Est});
  }
  Table.print();
  std::printf("\nThe exact column has zero bound width; the sampled column "
              "is a Monte-Carlo check of the same probability.\n");
  return 0;
}
