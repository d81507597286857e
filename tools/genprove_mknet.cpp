//===- tools/genprove_mknet.cpp - tiny pipeline generator -------*- C++ -*-===//
//
// Write two small deterministic serialized pipelines plus start/end latent
// vectors, so genprove_cli can be exercised without training a model zoo.
// Used by the CI smoke tests and handy for local experiments:
//
//   genprove_mknet OUTDIR
//   genprove_cli --net OUTDIR/tiny_net.bin --input-shape 1x4
//                --start OUTDIR/start.txt --end OUTDIR/end.txt
//                --spec argmax:0:3 --report --trace-out t.json
//
// tiny_net.bin is the quickstart 4 -> 16 -> 16 -> 3 MLP; deep_net.bin is a
// deeper 6 -> 32 -> 32 -> 32 -> 4 chain (start/end in deep_start.txt /
// deep_end.txt, input shape 1x6) with three affine->ReLU pairs, so the
// CI smoke jobs exercise more than one Linear->ReLU pair per forward
// pass.
//
// Exit codes: 0 ok, 2 usage or I/O error.
//
//===----------------------------------------------------------------------===//

#include "src/nn/activations.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/nn/serialize.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

using namespace genprove;

namespace {

bool writeVector(const std::string &Path, const Tensor &V) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  for (int64_t J = 0; J < V.numel(); ++J)
    Out << V[J] << (J + 1 < V.numel() ? " " : "\n");
  return static_cast<bool>(Out);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::fprintf(stderr, "usage: genprove_mknet OUTDIR\n");
    return 2;
  }
  const std::string OutDir = Argv[1];
  std::error_code Ec;
  std::filesystem::create_directories(OutDir, Ec);

  // The quickstart network: 4 -> 16 -> 16 -> 3, fixed seed.
  Rng R(2021);
  Sequential Net;
  Net.add(std::make_unique<Linear>(4, 16));
  Net.add(std::make_unique<ReLU>());
  Net.add(std::make_unique<Linear>(16, 16));
  Net.add(std::make_unique<ReLU>());
  Net.add(std::make_unique<Linear>(16, 3));
  kaimingInit(Net, R);

  const Tensor E1 = Tensor::randn({1, 4}, R);
  const Tensor E2 = Tensor::randn({1, 4}, R);

  const std::string NetPath = OutDir + "/tiny_net.bin";
  if (!saveNetwork(Net, NetPath)) {
    std::fprintf(stderr, "genprove_mknet: cannot write %s\n", NetPath.c_str());
    return 2;
  }
  if (!writeVector(OutDir + "/start.txt", E1) ||
      !writeVector(OutDir + "/end.txt", E2)) {
    std::fprintf(stderr, "genprove_mknet: cannot write vectors under %s\n",
                 OutDir.c_str());
    return 2;
  }

  // The deeper smoke network: 6 -> 32 -> 32 -> 32 -> 4, three
  // affine->ReLU pairs.
  Rng DeepR(2022);
  Sequential Deep;
  Deep.add(std::make_unique<Linear>(6, 32));
  Deep.add(std::make_unique<ReLU>());
  Deep.add(std::make_unique<Linear>(32, 32));
  Deep.add(std::make_unique<ReLU>());
  Deep.add(std::make_unique<Linear>(32, 32));
  Deep.add(std::make_unique<ReLU>());
  Deep.add(std::make_unique<Linear>(32, 4));
  kaimingInit(Deep, DeepR);

  const Tensor D1 = Tensor::randn({1, 6}, DeepR);
  const Tensor D2 = Tensor::randn({1, 6}, DeepR);

  const std::string DeepPath = OutDir + "/deep_net.bin";
  if (!saveNetwork(Deep, DeepPath)) {
    std::fprintf(stderr, "genprove_mknet: cannot write %s\n",
                 DeepPath.c_str());
    return 2;
  }
  if (!writeVector(OutDir + "/deep_start.txt", D1) ||
      !writeVector(OutDir + "/deep_end.txt", D2)) {
    std::fprintf(stderr, "genprove_mknet: cannot write vectors under %s\n",
                 OutDir.c_str());
    return 2;
  }
  std::printf("wrote %s, %s/start.txt, %s/end.txt (input shape 1x4, 3 "
              "outputs)\n",
              NetPath.c_str(), OutDir.c_str(), OutDir.c_str());
  std::printf("wrote %s, %s/deep_start.txt, %s/deep_end.txt (input shape "
              "1x6, 4 outputs)\n",
              DeepPath.c_str(), OutDir.c_str(), OutDir.c_str());
  return 0;
}
