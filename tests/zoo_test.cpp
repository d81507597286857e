//===- tests/zoo_test.cpp - model zoo caching -------------------*- C++ -*-===//

#include "src/core/model_zoo.h"
#include "src/util/timer.h"

#include <gtest/gtest.h>

#include <filesystem>

namespace genprove {
namespace {

ZooConfig tinyConfig(const char *Dir) {
  ZooConfig Config;
  Config.ImgSize = 16;
  Config.Latent = 4;
  Config.TrainSize = 60;
  Config.TestSize = 20;
  Config.VaeEpochs = 1;
  Config.ClassifierEpochs = 1;
  Config.RobustEpochs = 1;
  Config.DiffAiEpochs = 1;
  Config.GenerativeEpochs = 1;
  Config.CacheDir = Dir;
  return Config;
}

TEST(ModelZoo, DatasetsAreDeterministicAndSplit) {
  ModelZoo Zoo(tinyConfig("/tmp/genprove_zoo_test_a"));
  const Dataset &Train = Zoo.train(DatasetId::Shoes);
  const Dataset &Test = Zoo.test(DatasetId::Shoes);
  EXPECT_EQ(Train.numImages(), 60);
  EXPECT_EQ(Test.numImages(), 20);
  // Train/test must differ (different seeds).
  bool Differ = false;
  for (int64_t I = 0; I < 100 && !Differ; ++I)
    if (Train.Images[I] != Test.Images[I])
      Differ = true;
  EXPECT_TRUE(Differ);
  std::filesystem::remove_all("/tmp/genprove_zoo_test_a");
}

// The cache directory appears with the first saved network: a zoo that
// is only constructed (every BenchEnv builds one) or only generates data
// leaves nothing behind.
TEST(ModelZoo, UnsavedZooLeavesNoDirectory) {
  const char *Dir = "/tmp/genprove_zoo_test_fresh";
  std::filesystem::remove_all(Dir);
  {
    ModelZoo Zoo(tinyConfig(Dir));
    EXPECT_EQ(Zoo.train(DatasetId::Shoes).numImages(), 60);
  }
  EXPECT_FALSE(std::filesystem::exists(Dir));
}

TEST(ModelZoo, VaeIsCachedAcrossInstances) {
  const char *Dir = "/tmp/genprove_zoo_test_b";
  std::filesystem::remove_all(Dir);
  Tensor FirstEncoding;
  {
    ModelZoo Zoo(tinyConfig(Dir));
    Vae &Model = Zoo.vae(DatasetId::Digits);
    FirstEncoding = Model.encode(Zoo.train(DatasetId::Digits).image(0));
  }
  {
    // Second instance must load from disk and produce identical output.
    ModelZoo Zoo(tinyConfig(Dir));
    Timer Clock;
    Vae &Model = Zoo.vae(DatasetId::Digits);
    const Tensor Second =
        Model.encode(Zoo.train(DatasetId::Digits).image(0));
    EXPECT_LT(Clock.seconds(), 5.0); // loading, not training
    for (int64_t J = 0; J < FirstEncoding.numel(); ++J)
      EXPECT_DOUBLE_EQ(FirstEncoding[J], Second[J]);
  }
  std::filesystem::remove_all(Dir);
}

TEST(ModelZoo, ClassifierCachedAndAccurateEnough) {
  const char *Dir = "/tmp/genprove_zoo_test_c";
  std::filesystem::remove_all(Dir);
  ModelZoo Zoo(tinyConfig(Dir));
  Sequential &Net = Zoo.shoesClassifier("ConvSmall");
  const Dataset &Set = Zoo.train(DatasetId::Shoes);
  // One epoch on 60 images: not accurate, but better than chance.
  int64_t Correct = 0;
  for (int64_t I = 0; I < Set.numImages(); ++I) {
    const Tensor Logits = Net.predict(Set.image(I));
    int64_t Best = 0;
    for (int64_t J = 1; J < Logits.numel(); ++J)
      if (Logits[J] > Logits[Best])
        Best = J;
    Correct += Best == Set.Labels[static_cast<size_t>(I)];
  }
  EXPECT_GT(Correct, Set.numImages() / 10);
  std::filesystem::remove_all(Dir);
}

TEST(ModelZoo, DisplayNamesMarkSubstitutes) {
  EXPECT_STREQ(datasetDisplayName(DatasetId::Faces), "CelebA*");
  EXPECT_STREQ(datasetDisplayName(DatasetId::Shoes), "Zappos50k*");
  EXPECT_STREQ(datasetDisplayName(DatasetId::Digits), "MNIST*");
}

} // namespace
} // namespace genprove
