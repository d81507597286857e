//===- train/optimizer.cpp ------------------------------------*- C++ -*-===//

#include "src/train/optimizer.h"

#include "src/util/error.h"

#include <cmath>

namespace genprove {

namespace {

/// One pass over the updated parameters. A diverged step leaves an inf or
/// NaN weight, and the affine kernels skip zero inputs, which matches the
/// dense sums only for finite weights (0 * inf would be NaN), so training
/// stops at the step that diverged.
void checkFinite(const std::vector<Param> &Params) {
  for (const auto &P : Params) {
    const double *V = P.Value->data();
    bool Finite = true;
    for (int64_t I = 0; I < P.Value->numel(); ++I)
      Finite &= std::isfinite(V[I]);
    check(Finite, "optimizer step left a non-finite parameter");
  }
}

} // namespace

Sgd::Sgd(std::vector<Param> InitParams, double Lr, double Momentum)
    : Optimizer(std::move(InitParams), Lr), Momentum(Momentum) {
  Velocity.reserve(Params.size());
  for (const auto &P : Params)
    Velocity.emplace_back(P.Value->shape());
}

void Sgd::step() {
  for (size_t I = 0; I < Params.size(); ++I) {
    Tensor &W = *Params[I].Value;
    Tensor &G = *Params[I].Grad;
    Tensor &Vel = Velocity[I];
    for (int64_t J = 0; J < W.numel(); ++J) {
      Vel[J] = Momentum * Vel[J] + G[J];
      W[J] -= Lr * Vel[J];
    }
    G.zero();
  }
  checkFinite(Params);
}

Adam::Adam(std::vector<Param> InitParams, double Lr, double Beta1,
           double Beta2, double Eps)
    : Optimizer(std::move(InitParams), Lr), Beta1(Beta1), Beta2(Beta2),
      Eps(Eps) {
  M.reserve(Params.size());
  V.reserve(Params.size());
  for (const auto &P : Params) {
    M.emplace_back(P.Value->shape());
    V.emplace_back(P.Value->shape());
  }
}

void Adam::step() {
  ++T;
  const double BiasCorr1 = 1.0 - std::pow(Beta1, static_cast<double>(T));
  const double BiasCorr2 = 1.0 - std::pow(Beta2, static_cast<double>(T));
  for (size_t I = 0; I < Params.size(); ++I) {
    Tensor &W = *Params[I].Value;
    Tensor &G = *Params[I].Grad;
    Tensor &Mi = M[I];
    Tensor &Vi = V[I];
    for (int64_t J = 0; J < W.numel(); ++J) {
      Mi[J] = Beta1 * Mi[J] + (1.0 - Beta1) * G[J];
      Vi[J] = Beta2 * Vi[J] + (1.0 - Beta2) * G[J] * G[J];
      const double Mhat = Mi[J] / BiasCorr1;
      const double Vhat = Vi[J] / BiasCorr2;
      W[J] -= Lr * Mhat / (std::sqrt(Vhat) + Eps);
    }
    G.zero();
  }
  checkFinite(Params);
}

double clipGradientNorm(const std::vector<Param> &Params, double MaxNorm) {
  double SqNorm = 0.0;
  for (const auto &P : Params)
    for (int64_t I = 0; I < P.Grad->numel(); ++I)
      SqNorm += (*P.Grad)[I] * (*P.Grad)[I];
  const double Norm = std::sqrt(SqNorm);
  if (Norm > MaxNorm && Norm > 0.0) {
    const double Scale = MaxNorm / Norm;
    for (const auto &P : Params)
      P.Grad->scaleInPlace(Scale);
  }
  return Norm;
}

} // namespace genprove
