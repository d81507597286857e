//===- tests/consistency_test.cpp - consistency evaluation ------*- C++ -*-===//

#include "src/core/consistency.h"
#include "src/data/synth_faces.h"
#include "src/data/synth_shoes.h"
#include "src/nn/architectures.h"
#include "src/nn/init.h"
#include "src/train/vae.h"

#include <gtest/gtest.h>

namespace genprove {
namespace {

/// What BenchEnv::computeCell hands evaluateConsistency: each pair's
/// encoded endpoints and its specs.
std::vector<ConsistencyPair> encodePairs(Vae &Model, const Dataset &Set,
                                         const std::vector<SpecPair> &Pairs,
                                         int64_t NumOutputs) {
  std::vector<ConsistencyPair> Encoded;
  for (const SpecPair &Pair : Pairs)
    Encoded.push_back({Model.encode(Set.image(Pair.First)),
                       Model.encode(Set.image(Pair.Second)),
                       consistencySpecs(Set, Pair.First, NumOutputs)});
  return Encoded;
}

TEST(Pairs, SameClassPairsShareLabels) {
  const Dataset Set = makeSynthShoes(200, 16, 1);
  Rng R(1);
  const auto Pairs = sameClassPairs(Set, 30, R);
  EXPECT_EQ(Pairs.size(), 30u);
  for (const auto &P : Pairs) {
    EXPECT_NE(P.First, P.Second);
    EXPECT_EQ(Set.Labels[static_cast<size_t>(P.First)],
              Set.Labels[static_cast<size_t>(P.Second)]);
  }
}

TEST(Pairs, SameAttributePairsShareAllAttributes) {
  const Dataset Set = makeSynthFaces(400, 16, 2);
  Rng R(2);
  const auto Pairs = sameAttributePairs(Set, 20, R);
  EXPECT_FALSE(Pairs.empty());
  for (const auto &P : Pairs) {
    EXPECT_NE(P.First, P.Second);
    for (int64_t J = 0; J < Set.numAttributes(); ++J)
      EXPECT_DOUBLE_EQ(Set.Attributes.at(P.First, J),
                       Set.Attributes.at(P.Second, J));
  }
}

TEST(Pairs, FlipPairsSelfPaired) {
  Rng R(3);
  const auto Pairs = flipPairs(50, 10, R);
  EXPECT_EQ(Pairs.size(), 10u);
  for (const auto &P : Pairs) {
    EXPECT_EQ(P.First, P.Second);
    EXPECT_LT(P.First, 50);
  }
}

/// Small end-to-end consistency run over a lightly trained VAE + detector.
TEST(Consistency, EvaluationProducesCoherentReport) {
  const Dataset Set = makeSynthFaces(150, 16, 4);
  Rng R(4);
  Sequential Enc = makeEncoderSmall(3, 16, 2 * 4);
  Sequential Dec = makeDecoderSmall(4, 3, 16);
  kaimingInit(Enc, R);
  kaimingInit(Dec, R);
  Vae Model(std::move(Enc), std::move(Dec), 4);
  Vae::Config VC;
  VC.Epochs = 1;
  Model.train(Set, VC, R);

  Sequential Detector = makeConvSmall(3, 16, Set.numAttributes());
  kaimingInit(Detector, R);

  const auto Pairs = sameAttributePairs(Set, 4, R);
  ASSERT_FALSE(Pairs.empty());

  ConsistencyConfig Config;
  Config.RelaxPercent = 0.1;
  Config.ClusterK = 20.0;
  Config.NodeThreshold = 100;
  Config.MemoryBudgetBytes = 0;
  const ConsistencyReport Report = evaluateConsistency(
      concatViews(Model.decoder().view(), Detector.view()),
      Shape({1, Model.latentDim()}),
      encodePairs(Model, Set, Pairs, Set.numAttributes()),
      Method::GenProveRelax, Config);

  EXPECT_EQ(Report.NumBounds,
            static_cast<int64_t>(Pairs.size()) * Set.numAttributes());
  EXPECT_GE(Report.MeanLower, 0.0);
  EXPECT_LE(Report.MeanUpper, 1.0);
  EXPECT_LE(Report.MeanLower, Report.MeanUpper + 1e-12);
  EXPECT_GE(Report.MeanWidth, 0.0);
  EXPECT_GE(Report.FractionNonTrivial, 0.0);
  EXPECT_LE(Report.FractionNonTrivial, 1.0);
}

/// Every class and every attribute signature a singleton: no usable pair
/// exists and the samplers must fail loudly instead of quietly returning
/// fewer (or zero) pairs.
Dataset degenerateSet() {
  Dataset Set;
  Set.Images = Tensor({3, 1, 2, 2});
  Set.Labels = {0, 1, 2};
  Set.Attributes = Tensor({3, 2});
  Set.Attributes.at(0, 0) = 1.0;
  Set.Attributes.at(1, 1) = 1.0;
  Set.ClassNames = {"a", "b", "c"};
  Set.Channels = 1;
  Set.Size = 2;
  return Set;
}

TEST(PairsDeathTest, SameClassPairsRejectsAllSingletonClasses) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset Set = degenerateSet();
  Rng R(7);
  EXPECT_DEATH(sameClassPairs(Set, 5, R), "no class has two or more images");
}

TEST(PairsDeathTest, SameAttributePairsRejectsUniqueSignatures) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset Set = degenerateSet();
  Rng R(8);
  EXPECT_DEATH(sameAttributePairs(Set, 5, R),
               "every attribute signature is unique");
}

TEST(Pairs, DegenerateSetWithZeroRequestedPairsIsFine) {
  const Dataset Set = degenerateSet();
  Rng R(9);
  EXPECT_TRUE(sameClassPairs(Set, 0, R).empty());
  EXPECT_TRUE(sameAttributePairs(Set, 0, R).empty());
}

TEST(Consistency, ExactAnalysisGivesZeroWidths) {
  const Dataset Set = makeSynthShoes(100, 16, 5);
  Rng R(5);
  Sequential Enc = makeEncoderSmall(3, 16, 2 * 4);
  Sequential Dec = makeDecoderSmall(4, 3, 16);
  kaimingInit(Enc, R);
  kaimingInit(Dec, R);
  Vae Model(std::move(Enc), std::move(Dec), 4);
  Vae::Config VC;
  VC.Epochs = 1;
  Model.train(Set, VC, R);

  Sequential Classifier = makeConvSmall(3, 16, Set.numClasses());
  kaimingInit(Classifier, R);

  const auto Pairs = sameClassPairs(Set, 2, R);
  ConsistencyConfig Config; // exact (p = 0), unlimited memory
  Config.MemoryBudgetBytes = 0;
  const ConsistencyReport Report = evaluateConsistency(
      concatViews(Model.decoder().view(), Classifier.view()),
      Shape({1, Model.latentDim()}),
      encodePairs(Model, Set, Pairs, Set.numClasses()),
      Method::GenProveExact, Config);
  EXPECT_EQ(Report.FractionOom, 0.0);
  EXPECT_NEAR(Report.MeanWidth, 0.0, 1e-9);
}

/// Every table method's cell on the same two pairs of an untrained
/// decoder + ConvSmall detector: each sound method's mean bound contains
/// the exact GenProve^0 cell's, and at the cell's fixed seed the sampling
/// baseline's mean interval brackets it too. Short segments keep the
/// exact cell to a few hundred regions and let DeepZono prove some specs.
TEST(Consistency, EveryMethodContainsTheExactCell) {
  const Dataset Set = makeSynthFaces(60, 16, 6);
  Rng R(6);
  const int64_t Latent = 4;
  Sequential Decoder = makeDecoderSmall(Latent, 3, 16);
  Sequential Detector = makeConvSmall(3, 16, Set.numAttributes());
  kaimingInit(Decoder, R);
  kaimingInit(Detector, R);
  const std::vector<const Layer *> Pipeline =
      concatViews(Decoder.view(), Detector.view());

  std::vector<ConsistencyPair> Pairs;
  for (int64_t First : {0, 1}) {
    const Tensor Start = Tensor::randn({1, Latent}, R);
    Tensor End = Tensor::randn({1, Latent}, R, 0.25);
    for (int64_t J = 0; J < Latent; ++J)
      End[J] += Start[J];
    Pairs.push_back(
        {Start, End, consistencySpecs(Set, First, Set.numAttributes())});
  }
  ConsistencyConfig Config;
  Config.SamplesPerPair = 1000;
  Config.MemoryBudgetBytes = 0;
  const auto Cell = [&](Method Which) {
    return evaluateConsistency(Pipeline, Shape({1, Latent}), Pairs, Which,
                               Config);
  };

  const ConsistencyReport Exact = Cell(Method::GenProveExact);
  ASSERT_EQ(Exact.NumBounds, 2 * Set.numAttributes());
  EXPECT_EQ(Exact.FractionOom, 0.0);
  EXPECT_NEAR(Exact.MeanWidth, 0.0, 1e-9);
  for (Method Which :
       {Method::Box, Method::HybridZono, Method::Zonotope, Method::DeepZono,
        Method::Baseline, Method::GenProveDet, Method::GenProveRelax,
        Method::Sampling}) {
    const ConsistencyReport Report = Cell(Which);
    EXPECT_EQ(Report.NumBounds, Exact.NumBounds) << methodName(Which);
    EXPECT_EQ(Report.FractionOom, 0.0) << methodName(Which);
    EXPECT_LE(Report.MeanLower, Exact.MeanLower + 1e-9) << methodName(Which);
    EXPECT_GE(Report.MeanUpper, Exact.MeanUpper - 1e-9) << methodName(Which);
  }
}

} // namespace
} // namespace genprove
