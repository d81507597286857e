//===- core/model_zoo.h - Trained-model cache for the harness --*- C++ -*-===//
///
/// \file
/// Every benchmark and example needs the same trained substrate: VAEs on
/// the three datasets, attribute detectors / classifiers in three sizes,
/// the robustly-trained digit classifiers, the GAN discriminator, and the
/// FactorVAE / ACAI generators. ModelZoo trains each model once with
/// deterministic seeds and caches the weights under models/, so re-running
/// any binary is cheap and reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_CORE_MODEL_ZOO_H
#define GENPROVE_CORE_MODEL_ZOO_H

#include "src/data/dataset.h"
#include "src/train/acai.h"
#include "src/train/adversarial.h"
#include "src/train/factor_vae.h"
#include "src/train/gan.h"
#include "src/train/vae.h"

#include <map>
#include <memory>

namespace genprove {

/// Shared sizing / training knobs of the reproduction.
struct ZooConfig {
  int64_t ImgSize = 16;
  int64_t Latent = 8;
  /// MNIST* uses a larger code (the paper uses 50 for MNIST vs 64
  /// elsewhere): digit identity does not survive an 8-dim bottleneck well
  /// enough for the Table 6 classifier to recognize reconstructions.
  int64_t DigitsLatent = 16;
  int64_t TrainSize = 800;
  int64_t TestSize = 200;
  int64_t VaeEpochs = 5;
  int64_t ClassifierEpochs = 5;
  int64_t RobustEpochs = 6;    ///< standard / FGSM schemes.
  int64_t DiffAiEpochs = 40;   ///< certified training needs a long ramp.
  int64_t GenerativeEpochs = 4;
  /// L-inf radius for the Table 6 experiments. The paper uses 0.1 on
  /// 28x28 MNIST; at 16x16 each pixel covers ~3x the area and certified
  /// training gets minutes of CPU rather than hours of GPU, so the
  /// certified radius is scaled down accordingly.
  double AdvEpsilon = 0.01;
  /// Attack radius for the PGD column and FGSM training (the paper uses
  /// one radius for everything; at our scale the certified radius is
  /// necessarily smaller than a radius that meaningfully attacks).
  double AttackEpsilon = 0.05;
  /// Radius of the adversarial tube around decoded interpolations; the
  /// decoded (reconstructed) images carry smaller classifier margins
  /// than crisp test digits.
  double TubeEpsilon = 0.002;
  uint64_t Seed = 20210620;
  std::string CacheDir = "models";
  bool Verbose = false;
};

/// The three datasets of the evaluation.
enum class DatasetId : uint8_t { Faces, Shoes, Digits };

/// Lazily-trained, disk-cached model collection.
class ModelZoo {
public:
  explicit ModelZoo(ZooConfig Config = {});

  const ZooConfig &config() const { return Config; }

  /// Training split of a dataset (deterministic per seed).
  const Dataset &train(DatasetId Id);

  /// Held-out split.
  const Dataset &test(DatasetId Id);

  /// The standard VAE of a dataset (Encoder for faces, EncoderSmall for
  /// shoes/digits; Decoder for all — Appendix B).
  Vae &vae(DatasetId Id);

  /// A faces VAE whose decoder is DecoderSmall (the GenProveCurve setup).
  Vae &smallDecoderVae();

  /// CelebA-style attribute detector ("ConvSmall"/"ConvMed"/"ConvLarge").
  Sequential &facesDetector(const std::string &Arch);

  /// Zappos-style classifier of the same three sizes.
  Sequential &shoesClassifier(const std::string &Arch);

  /// ConvBiggest digit classifier under a training scheme (Table 6).
  Sequential &digitsClassifier(TrainScheme Scheme);

  /// LSGAN discriminator on faces (the Table 7 OOD detector).
  Sequential &ganDiscriminator();

  /// FactorVAE generator on faces (Table 7).
  FactorVae &facesFactorVae();

  /// ACAI generator on faces (Table 7).
  Acai &facesAcai();

private:
  std::string cachePath(const std::string &Name) const;
  /// cachePath(Name), after creating the cache directory: a zoo that only
  /// loads, or is never asked for a model, leaves no directory behind.
  std::string savePath(const std::string &Name) const;
  bool loadPair(const std::string &Name, Sequential &First,
                Sequential &Second) const;
  void savePair(const std::string &Name, const Sequential &First,
                const Sequential &Second) const;

  ZooConfig Config;
  std::map<std::string, Dataset> Datasets;
  std::map<std::string, std::unique_ptr<Vae>> Vaes;
  std::map<std::string, std::unique_ptr<Sequential>> Networks;
  std::unique_ptr<FactorVae> FactorVaeModel;
  std::unique_ptr<Acai> AcaiModel;
};

/// Canonical dataset display names ("CelebA*", "Zappos*", "MNIST*"): the
/// synthetic substitutes keep the paper's table labels with a marker.
const char *datasetDisplayName(DatasetId Id);

} // namespace genprove

#endif // GENPROVE_CORE_MODEL_ZOO_H
