//===- tests/train_test.cpp - optimizer and trainer tests -------*- C++ -*-===//

#include "src/data/attribute_vector.h"
#include "src/data/synth_digits.h"
#include "src/data/synth_faces.h"
#include "src/nn/architectures.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/train/optimizer.h"
#include "src/train/trainer.h"
#include "src/train/vae.h"

#include <gtest/gtest.h>

namespace genprove {
namespace {

TEST(Optimizer, SgdMinimizesQuadratic) {
  // Minimize 0.5 * w^2 via gradient steps.
  Tensor W({1, 1}, {5.0});
  Tensor G({1, 1});
  Sgd Opt({{&W, &G, "w"}}, 0.1);
  for (int I = 0; I < 200; ++I) {
    G[0] = W[0];
    Opt.step();
  }
  EXPECT_NEAR(W[0], 0.0, 1e-6);
}

TEST(Optimizer, AdamMinimizesQuadratic) {
  Tensor W({1, 2}, {5.0, -3.0});
  Tensor G({1, 2});
  Adam Opt({{&W, &G, "w"}}, 0.1);
  for (int I = 0; I < 500; ++I) {
    G[0] = W[0];
    G[1] = W[1];
    Opt.step();
  }
  EXPECT_NEAR(W[0], 0.0, 1e-3);
  EXPECT_NEAR(W[1], 0.0, 1e-3);
}

// The affine kernels need finite weights, so a step that overflows one
// stops training at that step.
TEST(Optimizer, DivergedStepIsFatal) {
  Tensor W({1, 2}, {1.0, 1e308});
  Tensor G({1, 2}, {0.0, -1e308});
  Sgd Opt({{&W, &G, "w"}}, 10.0);
  EXPECT_DEATH(Opt.step(), "non-finite parameter");
}

TEST(Optimizer, StepZeroesGradients) {
  Tensor W({1, 1}, {1.0});
  Tensor G({1, 1}, {1.0});
  Adam Opt({{&W, &G, "w"}}, 0.01);
  Opt.step();
  EXPECT_DOUBLE_EQ(G[0], 0.0);
}

TEST(Trainer, ClassifierLearnsSmallDigits) {
  const Dataset Train = makeSynthDigits(300, 16, 1);
  const Dataset Test = makeSynthDigits(100, 16, 2);
  Sequential Net = makeConvSmall(1, 16, 10);
  Rng R(3);
  kaimingInit(Net, R);
  const double Before = classifierAccuracy(Net, Test);
  TrainConfig Config;
  Config.Epochs = 4;
  Config.BatchSize = 32;
  trainClassifier(Net, Train, Config, R);
  const double After = classifierAccuracy(Net, Test);
  EXPECT_GT(After, Before);
  EXPECT_GT(After, 0.5); // synthetic digits are easy
}

TEST(Trainer, AttributeDetectorLearnsFaces) {
  const Dataset Train = makeSynthFaces(300, 16, 1);
  const Dataset Test = makeSynthFaces(100, 16, 2);
  Sequential Net = makeConvSmall(3, 16, Train.numAttributes());
  Rng R(4);
  kaimingInit(Net, R);
  TrainConfig Config;
  Config.Epochs = 4;
  Config.BatchSize = 32;
  trainAttributeDetector(Net, Train, Config, R);
  EXPECT_GT(attributeAccuracy(Net, Test), 0.7);
}

TEST(Vae, TrainingReducesLossAndReconstructs) {
  const Dataset Train = makeSynthFaces(200, 16, 5);
  Rng R(5);
  Sequential Enc = makeEncoderSmall(3, 16, 2 * 8);
  Sequential Dec = makeDecoder(8, 3, 16);
  kaimingInit(Enc, R);
  kaimingInit(Dec, R);
  Vae Model(std::move(Enc), std::move(Dec), 8);

  Vae::Config Config;
  Config.Epochs = 1;
  const double Loss1 = Model.train(Train, Config, R);
  Config.Epochs = 3;
  const double Loss2 = Model.train(Train, Config, R);
  EXPECT_LT(Loss2, Loss1);

  // Encoding/decoding shapes.
  const Tensor Z = Model.encode(Train.image(0));
  EXPECT_EQ(Z.shape(), Shape({1, 8}));
  const Tensor X = Model.decode(Z);
  EXPECT_EQ(X.shape(), Shape({1, 3, 16, 16}));
}

TEST(AttributeVector, SeparatesClasses) {
  const Dataset Train = makeSynthFaces(400, 16, 6);
  Rng R(6);
  Sequential Enc = makeEncoderSmall(3, 16, 2 * 8);
  Sequential Dec = makeDecoder(8, 3, 16);
  kaimingInit(Enc, R);
  kaimingInit(Dec, R);
  Vae Model(std::move(Enc), std::move(Dec), 8);
  Vae::Config Config;
  Config.Epochs = 2;
  Model.train(Train, Config, R);

  const Tensor Dir = attributeVector(Model, Train, FaceWearingHat);
  EXPECT_EQ(Dir.shape(), Shape({1, 8}));
  // Adding the direction to encodings of no-hat images should move them
  // toward the hat cluster: projections onto the direction must be larger
  // for hat images on average.
  double HatProj = 0.0, NoHatProj = 0.0;
  int64_t NumHat = 0, NumNoHat = 0;
  for (int64_t I = 0; I < 100; ++I) {
    const Tensor Z = Model.encode(Train.image(I));
    double Proj = 0.0;
    for (int64_t J = 0; J < 8; ++J)
      Proj += Z[J] * Dir[J];
    if (Train.Attributes.at(I, FaceWearingHat) > 0.5) {
      HatProj += Proj;
      ++NumHat;
    } else {
      NoHatProj += Proj;
      ++NumNoHat;
    }
  }
  ASSERT_GT(NumHat, 0);
  ASSERT_GT(NumNoHat, 0);
  EXPECT_GT(HatProj / NumHat, NoHatProj / NumNoHat);
}

} // namespace
} // namespace genprove
