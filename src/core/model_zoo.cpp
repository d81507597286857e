//===- core/model_zoo.cpp -------------------------------------*- C++ -*-===//

#include "src/core/model_zoo.h"

#include "src/data/synth_digits.h"
#include "src/data/synth_faces.h"
#include "src/data/synth_shoes.h"
#include "src/nn/architectures.h"
#include "src/nn/init.h"
#include "src/nn/serialize.h"
#include "src/train/trainer.h"
#include "src/util/error.h"

#include <cstdio>
#include <filesystem>

namespace genprove {

const char *datasetDisplayName(DatasetId Id) {
  switch (Id) {
  case DatasetId::Faces:
    return "CelebA*";
  case DatasetId::Shoes:
    return "Zappos50k*";
  case DatasetId::Digits:
    return "MNIST*";
  }
  return "?";
}

namespace {

const char *datasetKey(DatasetId Id) {
  switch (Id) {
  case DatasetId::Faces:
    return "faces";
  case DatasetId::Shoes:
    return "shoes";
  case DatasetId::Digits:
    return "digits";
  }
  return "?";
}

} // namespace

ModelZoo::ModelZoo(ZooConfig InitConfig) : Config(std::move(InitConfig)) {}

std::string ModelZoo::cachePath(const std::string &Name) const {
  return Config.CacheDir + "/" + Name + ".bin";
}

std::string ModelZoo::savePath(const std::string &Name) const {
  std::error_code Ec;
  std::filesystem::create_directories(Config.CacheDir, Ec);
  return cachePath(Name);
}

bool ModelZoo::loadPair(const std::string &Name, Sequential &First,
                        Sequential &Second) const {
  auto A = loadNetwork(cachePath(Name + "-a"));
  auto B = loadNetwork(cachePath(Name + "-b"));
  if (!A || !B)
    return false;
  First = std::move(*A);
  Second = std::move(*B);
  return true;
}

void ModelZoo::savePair(const std::string &Name, const Sequential &First,
                        const Sequential &Second) const {
  saveNetwork(First, savePath(Name + "-a"));
  saveNetwork(Second, savePath(Name + "-b"));
}

const Dataset &ModelZoo::train(DatasetId Id) {
  const std::string Key = std::string(datasetKey(Id)) + "-train";
  auto It = Datasets.find(Key);
  if (It != Datasets.end())
    return It->second;
  Dataset Set;
  switch (Id) {
  case DatasetId::Faces:
    Set = makeSynthFaces(Config.TrainSize, Config.ImgSize, Config.Seed + 1);
    break;
  case DatasetId::Shoes:
    Set = makeSynthShoes(Config.TrainSize, Config.ImgSize, Config.Seed + 2);
    break;
  case DatasetId::Digits:
    Set = makeSynthDigits(Config.TrainSize, Config.ImgSize, Config.Seed + 3);
    break;
  }
  return Datasets.emplace(Key, std::move(Set)).first->second;
}

const Dataset &ModelZoo::test(DatasetId Id) {
  const std::string Key = std::string(datasetKey(Id)) + "-test";
  auto It = Datasets.find(Key);
  if (It != Datasets.end())
    return It->second;
  Dataset Set;
  switch (Id) {
  case DatasetId::Faces:
    Set = makeSynthFaces(Config.TestSize, Config.ImgSize, Config.Seed + 11);
    break;
  case DatasetId::Shoes:
    Set = makeSynthShoes(Config.TestSize, Config.ImgSize, Config.Seed + 12);
    break;
  case DatasetId::Digits:
    Set = makeSynthDigits(Config.TestSize, Config.ImgSize, Config.Seed + 13);
    break;
  }
  return Datasets.emplace(Key, std::move(Set)).first->second;
}

Vae &ModelZoo::vae(DatasetId Id) {
  const std::string Name = std::string("vae-") + datasetKey(Id);
  auto It = Vaes.find(Name);
  if (It != Vaes.end())
    return *It->second;

  const Dataset &Set = train(Id);
  const int64_t Latent =
      Id == DatasetId::Digits ? Config.DigitsLatent : Config.Latent;
  Sequential Encoder =
      Id == DatasetId::Faces
          ? makeEncoder(Set.Channels, Set.Size, 2 * Latent)
          : makeEncoderSmall(Set.Channels, Set.Size, 2 * Latent);
  Sequential Decoder = makeDecoder(Latent, Set.Channels, Set.Size);

  if (!loadPair(Name, Encoder, Decoder)) {
    if (Config.Verbose)
      std::printf("[zoo] training %s\n", Name.c_str());
    Rng Generator(Config.Seed + 101 + static_cast<uint64_t>(Id));
    kaimingInit(Encoder, Generator);
    kaimingInit(Decoder, Generator);
    Vae Model(std::move(Encoder), std::move(Decoder), Latent);
    Vae::Config TrainConfig;
    TrainConfig.Epochs =
        Id == DatasetId::Digits ? 2 * Config.VaeEpochs : Config.VaeEpochs;
    TrainConfig.Verbose = Config.Verbose;
    Model.train(Set, TrainConfig, Generator);
    savePair(Name, Model.encoder(), Model.decoder());
    auto Ptr = std::make_unique<Vae>(std::move(Model));
    return *Vaes.emplace(Name, std::move(Ptr)).first->second;
  }
  auto Ptr =
      std::make_unique<Vae>(std::move(Encoder), std::move(Decoder), Latent);
  return *Vaes.emplace(Name, std::move(Ptr)).first->second;
}

Vae &ModelZoo::smallDecoderVae() {
  const std::string Name = "vae-faces-smalldec";
  auto It = Vaes.find(Name);
  if (It != Vaes.end())
    return *It->second;

  const Dataset &Set = train(DatasetId::Faces);
  Sequential Encoder =
      makeEncoderSmall(Set.Channels, Set.Size, 2 * Config.Latent);
  Sequential Decoder = makeDecoderSmall(Config.Latent, Set.Channels, Set.Size);

  if (!loadPair(Name, Encoder, Decoder)) {
    if (Config.Verbose)
      std::printf("[zoo] training %s\n", Name.c_str());
    Rng Generator(Config.Seed + 151);
    kaimingInit(Encoder, Generator);
    kaimingInit(Decoder, Generator);
    Vae Model(std::move(Encoder), std::move(Decoder), Config.Latent);
    Vae::Config TrainConfig;
    TrainConfig.Epochs = Config.VaeEpochs;
    TrainConfig.Verbose = Config.Verbose;
    Model.train(Set, TrainConfig, Generator);
    savePair(Name, Model.encoder(), Model.decoder());
    auto Ptr = std::make_unique<Vae>(std::move(Model));
    return *Vaes.emplace(Name, std::move(Ptr)).first->second;
  }
  auto Ptr = std::make_unique<Vae>(std::move(Encoder), std::move(Decoder),
                                   Config.Latent);
  return *Vaes.emplace(Name, std::move(Ptr)).first->second;
}

Sequential &ModelZoo::facesDetector(const std::string &Arch) {
  const std::string Name = "detector-faces-" + Arch;
  auto It = Networks.find(Name);
  if (It != Networks.end())
    return *It->second;

  const Dataset &Set = train(DatasetId::Faces);
  Sequential Net =
      makeClassifier(Arch, Set.Channels, Set.Size, Set.numAttributes());
  if (auto Loaded = loadNetwork(cachePath(Name))) {
    Net = std::move(*Loaded);
  } else {
    if (Config.Verbose)
      std::printf("[zoo] training %s\n", Name.c_str());
    Rng Generator(Config.Seed + 201 + std::hash<std::string>{}(Arch) % 1000);
    kaimingInit(Net, Generator);
    TrainConfig TC;
    TC.Epochs = Config.ClassifierEpochs;
    TC.Verbose = Config.Verbose;
    trainAttributeDetector(Net, Set, TC, Generator);
    saveNetwork(Net, savePath(Name));
  }
  auto Ptr = std::make_unique<Sequential>(std::move(Net));
  return *Networks.emplace(Name, std::move(Ptr)).first->second;
}

Sequential &ModelZoo::shoesClassifier(const std::string &Arch) {
  const std::string Name = "classifier-shoes-" + Arch;
  auto It = Networks.find(Name);
  if (It != Networks.end())
    return *It->second;

  const Dataset &Set = train(DatasetId::Shoes);
  Sequential Net =
      makeClassifier(Arch, Set.Channels, Set.Size, Set.numClasses());
  if (auto Loaded = loadNetwork(cachePath(Name))) {
    Net = std::move(*Loaded);
  } else {
    if (Config.Verbose)
      std::printf("[zoo] training %s\n", Name.c_str());
    Rng Generator(Config.Seed + 301 + std::hash<std::string>{}(Arch) % 1000);
    kaimingInit(Net, Generator);
    TrainConfig TC;
    TC.Epochs = Config.ClassifierEpochs;
    TC.Verbose = Config.Verbose;
    trainClassifier(Net, Set, TC, Generator);
    saveNetwork(Net, savePath(Name));
  }
  auto Ptr = std::make_unique<Sequential>(std::move(Net));
  return *Networks.emplace(Name, std::move(Ptr)).first->second;
}

Sequential &ModelZoo::digitsClassifier(TrainScheme Scheme) {
  const char *SchemeName = Scheme == TrainScheme::Standard  ? "standard"
                           : Scheme == TrainScheme::Fgsm    ? "fgsm"
                                                            : "diffai";
  const std::string Name = std::string("classifier-digits-") + SchemeName;
  auto It = Networks.find(Name);
  if (It != Networks.end())
    return *It->second;

  const Dataset &Set = train(DatasetId::Digits);
  Sequential Net = makeConvBiggest(Set.Channels, Set.Size, Set.numClasses());
  if (auto Loaded = loadNetwork(cachePath(Name))) {
    Net = std::move(*Loaded);
  } else {
    if (Config.Verbose)
      std::printf("[zoo] training %s\n", Name.c_str());
    Rng Generator(Config.Seed + 401 + static_cast<uint64_t>(Scheme));
    kaimingInit(Net, Generator);
    RobustTrainConfig RC;
    RC.Epochs = Scheme == TrainScheme::DiffAiBox ? Config.DiffAiEpochs
                                                 : Config.RobustEpochs;
    RC.BatchSize = 32;
    RC.Epsilon = Scheme == TrainScheme::Fgsm ? Config.AttackEpsilon
                                             : Config.AdvEpsilon;
    RC.LearningRate = Scheme == TrainScheme::DiffAiBox ? 3e-4 : 1e-3;
    RC.IbpGradRatio = 1.0; // deep nets collapse at larger ratios
    RC.Verbose = Config.Verbose;
    trainRobustClassifier(Net, Set, Scheme, RC, Generator);
    saveNetwork(Net, savePath(Name));
  }
  auto Ptr = std::make_unique<Sequential>(std::move(Net));
  return *Networks.emplace(Name, std::move(Ptr)).first->second;
}

Sequential &ModelZoo::ganDiscriminator() {
  const std::string Name = "gan-discriminator-faces";
  auto It = Networks.find(Name);
  if (It != Networks.end())
    return *It->second;

  const Dataset &Set = train(DatasetId::Faces);
  Sequential Disc = makeEncoderSmall(Set.Channels, Set.Size, 1);
  if (auto Loaded = loadNetwork(cachePath(Name))) {
    Disc = std::move(*Loaded);
  } else {
    if (Config.Verbose)
      std::printf("[zoo] training %s\n", Name.c_str());
    Rng Generator(Config.Seed + 501);
    // The paper's GAN uses twice the autoencoder latent width.
    Sequential Gen = makeDecoder(2 * Config.Latent, Set.Channels, Set.Size);
    kaimingInit(Gen, Generator);
    kaimingInit(Disc, Generator);
    Gan Model(std::move(Gen), std::move(Disc), 2 * Config.Latent);
    Gan::Config GC;
    GC.Epochs = Config.GenerativeEpochs;
    GC.Verbose = Config.Verbose;
    Model.train(Set, GC, Generator);
    saveNetwork(Model.discriminator(), savePath(Name));
    Disc = std::move(Model.discriminator());
  }
  auto Ptr = std::make_unique<Sequential>(std::move(Disc));
  return *Networks.emplace(Name, std::move(Ptr)).first->second;
}

FactorVae &ModelZoo::facesFactorVae() {
  if (FactorVaeModel)
    return *FactorVaeModel;
  const std::string Name = "factorvae-faces";
  const Dataset &Set = train(DatasetId::Faces);
  Sequential Encoder =
      makeEncoder(Set.Channels, Set.Size, 2 * Config.Latent);
  Sequential Decoder = makeDecoder(Config.Latent, Set.Channels, Set.Size);
  Sequential Critic =
      makeMlp({Config.Latent, 100, 100, 100, 100, 2}); // 5 layers deep

  if (!loadPair(Name, Encoder, Decoder)) {
    if (Config.Verbose)
      std::printf("[zoo] training %s\n", Name.c_str());
    Rng Generator(Config.Seed + 601);
    kaimingInit(Encoder, Generator);
    kaimingInit(Decoder, Generator);
    kaimingInit(Critic, Generator);
    FactorVae Model(std::move(Encoder), std::move(Decoder), std::move(Critic),
                    Config.Latent);
    FactorVae::Config FC;
    FC.Epochs = Config.GenerativeEpochs;
    FC.Verbose = Config.Verbose;
    Model.train(Set, FC, Generator);
    savePair(Name, Model.encoder(), Model.decoder());
    FactorVaeModel = std::make_unique<FactorVae>(std::move(Model));
    return *FactorVaeModel;
  }
  FactorVaeModel = std::make_unique<FactorVae>(
      std::move(Encoder), std::move(Decoder), std::move(Critic),
      Config.Latent);
  return *FactorVaeModel;
}

Acai &ModelZoo::facesAcai() {
  if (AcaiModel)
    return *AcaiModel;
  const std::string Name = "acai-faces";
  const Dataset &Set = train(DatasetId::Faces);
  Sequential Encoder = makeEncoder(Set.Channels, Set.Size, Config.Latent);
  Sequential Decoder = makeDecoder(Config.Latent, Set.Channels, Set.Size);
  // The ACAI critic shares the Encoder architecture (Appendix B).
  Sequential Critic = makeEncoder(Set.Channels, Set.Size, 1);

  if (!loadPair(Name, Encoder, Decoder)) {
    if (Config.Verbose)
      std::printf("[zoo] training %s\n", Name.c_str());
    Rng Generator(Config.Seed + 701);
    kaimingInit(Encoder, Generator);
    kaimingInit(Decoder, Generator);
    kaimingInit(Critic, Generator);
    Acai Model(std::move(Encoder), std::move(Decoder), std::move(Critic),
               Config.Latent);
    Acai::Config AC;
    AC.Epochs = Config.GenerativeEpochs;
    AC.Verbose = Config.Verbose;
    Model.train(Set, AC, Generator);
    savePair(Name, Model.encoder(), Model.decoder());
    AcaiModel = std::make_unique<Acai>(std::move(Model));
    return *AcaiModel;
  }
  AcaiModel = std::make_unique<Acai>(std::move(Encoder), std::move(Decoder),
                                     std::move(Critic), Config.Latent);
  return *AcaiModel;
}

} // namespace genprove
