//===- nn/serialize.cpp ---------------------------------------*- C++ -*-===//

#include "src/nn/serialize.h"

#include "src/nn/activations.h"
#include "src/nn/conv.h"
#include "src/nn/conv_transpose.h"
#include "src/nn/linear.h"
#include "src/nn/reshape.h"

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <memory>

namespace genprove {

namespace {

constexpr uint64_t Magic = 0x47454e50524f5645ull; // "GENPROVE"
constexpr uint32_t Version = 1;

void writeU64(std::FILE *F, uint64_t V) { std::fwrite(&V, sizeof(V), 1, F); }
void writeI64(std::FILE *F, int64_t V) { std::fwrite(&V, sizeof(V), 1, F); }
void writeU32(std::FILE *F, uint32_t V) { std::fwrite(&V, sizeof(V), 1, F); }

bool readU64(std::FILE *F, uint64_t &V) {
  return std::fread(&V, sizeof(V), 1, F) == 1;
}
bool readI64(std::FILE *F, int64_t &V) {
  return std::fread(&V, sizeof(V), 1, F) == 1;
}
bool readU32(std::FILE *F, uint32_t &V) {
  return std::fread(&V, sizeof(V), 1, F) == 1;
}

void writeTensor(std::FILE *F, const Tensor &T) {
  writeU64(F, T.rank());
  for (size_t I = 0; I < T.rank(); ++I)
    writeI64(F, T.shape().dim(static_cast<int>(I)));
  std::fwrite(T.data(), sizeof(double), static_cast<size_t>(T.numel()), F);
}

/// True when every dimension is positive and a tensor of them holds fewer
/// than 2^31 elements (16 GiB of doubles), so a layer can be built from
/// them without overflowing its size arithmetic. Checked before a layer
/// allocates anything from a file's geometry.
bool validDims(std::initializer_list<int64_t> Dims) {
  int64_t Elements = 1;
  for (int64_t D : Dims) {
    if (D <= 0 || D > (int64_t(1) << 31) / Elements)
      return false;
    Elements *= D;
  }
  return true;
}

/// Read a stored tensor into \p T, which holds the shape the layer
/// declares. Fails (with a reason) on a short read, on a stored shape that
/// differs from the declared one, or on a non-finite element.
bool readParam(std::FILE *F, Tensor &T, const char *Name, std::string &Why) {
  uint64_t Rank = 0;
  if (!readU64(F, Rank) || Rank > 8) {
    Why = std::string("truncated or malformed ") + Name;
    return false;
  }
  std::vector<int64_t> Dims(Rank);
  for (auto &D : Dims)
    if (!readI64(F, D)) {
      Why = std::string("truncated ") + Name;
      return false;
    }
  if (Dims != T.shape().dims()) {
    Why = std::string(Name) + " is stored as " + Shape(Dims).toString() +
          " but the layer declares " + T.shape().toString();
    return false;
  }
  const size_t N = static_cast<size_t>(T.numel());
  if (std::fread(T.data(), sizeof(double), N, F) != N) {
    Why = std::string("truncated ") + Name;
    return false;
  }
  for (size_t I = 0; I < N; ++I)
    if (!std::isfinite(T.data()[I])) {
      Why = std::string(Name) + " has a non-finite element";
      return false;
    }
  return true;
}

} // namespace

bool saveNetwork(const Sequential &Network, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  writeU64(F, Magic);
  writeU32(F, Version);
  writeU64(F, Network.size());
  for (size_t I = 0; I < Network.size(); ++I) {
    const Layer &L = Network.layer(I);
    writeU32(F, static_cast<uint32_t>(L.kind()));
    switch (L.kind()) {
    case Layer::Kind::Linear: {
      const auto &Lin = static_cast<const Linear &>(L);
      writeI64(F, Lin.inFeatures());
      writeI64(F, Lin.outFeatures());
      writeTensor(F, Lin.weight());
      writeTensor(F, Lin.bias());
      break;
    }
    case Layer::Kind::Conv2d: {
      const auto &Conv = static_cast<const Conv2d &>(L);
      const auto &G = Conv.geometry();
      writeI64(F, G.InChannels);
      writeI64(F, G.OutChannels);
      writeI64(F, G.KernelH);
      writeI64(F, G.Stride);
      writeI64(F, G.Padding);
      writeTensor(F, Conv.weight());
      writeTensor(F, Conv.bias());
      break;
    }
    case Layer::Kind::ConvTranspose2d: {
      const auto &Conv = static_cast<const ConvTranspose2d &>(L);
      const auto &G = Conv.geometry();
      writeI64(F, G.InChannels);
      writeI64(F, G.OutChannels);
      writeI64(F, G.KernelH);
      writeI64(F, G.Stride);
      writeI64(F, G.Padding);
      writeI64(F, G.OutputPadding);
      writeTensor(F, Conv.weight());
      writeTensor(F, Conv.bias());
      break;
    }
    case Layer::Kind::ReLU:
    case Layer::Kind::Flatten:
      break;
    case Layer::Kind::Reshape: {
      const auto &R = static_cast<const Reshape &>(L);
      writeI64(F, R.channels());
      writeI64(F, R.height());
      writeI64(F, R.width());
      break;
    }
    }
  }
  std::fclose(F);
  return true;
}

std::optional<Sequential> loadNetwork(const std::string &Path,
                                      std::string *Why) {
  std::string Reason;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    if (Why)
      *Why = "cannot open the file";
    return std::nullopt;
  }
  auto Fail = [&](std::string Message) -> std::optional<Sequential> {
    std::fclose(F);
    if (Why)
      *Why = std::move(Message);
    return std::nullopt;
  };
  uint64_t Mg = 0;
  uint32_t Ver = 0;
  uint64_t NumLayers = 0;
  if (!readU64(F, Mg) || Mg != Magic || !readU32(F, Ver) || Ver != Version ||
      !readU64(F, NumLayers) || NumLayers > 1024)
    return Fail("not a GenProve network file (bad header)");

  Sequential Net;
  for (uint64_t I = 0; I < NumLayers; ++I) {
    const std::string At = "layer " + std::to_string(I) + ": ";
    uint32_t KindRaw = 0;
    if (!readU32(F, KindRaw))
      return Fail(At + "truncated");
    switch (static_cast<Layer::Kind>(KindRaw)) {
    case Layer::Kind::Linear: {
      int64_t In = 0, Out = 0;
      if (!readI64(F, In) || !readI64(F, Out))
        return Fail(At + "truncated");
      if (!validDims({Out, In}))
        return Fail(At + "Linear feature counts must be positive and the "
                         "weight under 2^31 elements");
      auto L = std::make_unique<Linear>(In, Out);
      if (!readParam(F, L->weight(), "weight", Reason) ||
          !readParam(F, L->bias(), "bias", Reason))
        return Fail(At + Reason);
      Net.add(std::move(L));
      break;
    }
    case Layer::Kind::Conv2d: {
      int64_t Ic = 0, Oc = 0, K = 0, S = 0, P = 0;
      if (!readI64(F, Ic) || !readI64(F, Oc) || !readI64(F, K) ||
          !readI64(F, S) || !readI64(F, P))
        return Fail(At + "truncated");
      if (!validDims({Oc, Ic, K, K}) || S <= 0 || P < 0)
        return Fail(At + "Conv2d channels, kernel and stride must be "
                         "positive, the weight under 2^31 elements and "
                         "padding non-negative");
      auto L = std::make_unique<Conv2d>(Ic, Oc, K, S, P);
      if (!readParam(F, L->weight(), "weight", Reason) ||
          !readParam(F, L->bias(), "bias", Reason))
        return Fail(At + Reason);
      Net.add(std::move(L));
      break;
    }
    case Layer::Kind::ConvTranspose2d: {
      int64_t Ic = 0, Oc = 0, K = 0, S = 0, P = 0, Op = 0;
      if (!readI64(F, Ic) || !readI64(F, Oc) || !readI64(F, K) ||
          !readI64(F, S) || !readI64(F, P) || !readI64(F, Op))
        return Fail(At + "truncated");
      if (!validDims({Ic, Oc, K, K}) || S <= 0 || P < 0 || Op < 0 ||
          Op >= S)
        return Fail(At + "ConvTranspose2d channels, kernel and stride must "
                         "be positive, the weight under 2^31 elements, "
                         "padding non-negative and output padding below "
                         "the stride");
      auto L = std::make_unique<ConvTranspose2d>(Ic, Oc, K, S, P, Op);
      if (!readParam(F, L->weight(), "weight", Reason) ||
          !readParam(F, L->bias(), "bias", Reason))
        return Fail(At + Reason);
      Net.add(std::move(L));
      break;
    }
    case Layer::Kind::ReLU:
      Net.add(std::make_unique<ReLU>());
      break;
    case Layer::Kind::Flatten:
      Net.add(std::make_unique<Flatten>());
      break;
    case Layer::Kind::Reshape: {
      int64_t C = 0, H = 0, W = 0;
      if (!readI64(F, C) || !readI64(F, H) || !readI64(F, W))
        return Fail(At + "truncated");
      if (!validDims({C, H, W}))
        return Fail(At + "Reshape dimensions must be positive and hold "
                         "under 2^31 elements");
      Net.add(std::make_unique<Reshape>(C, H, W));
      break;
    }
    default:
      return Fail(At + "unknown layer kind " + std::to_string(KindRaw));
    }
  }
  std::fclose(F);
  return Net;
}

} // namespace genprove
