//===- train/optimizer.h - SGD and Adam ------------------------*- C++ -*-===//
///
/// \file
/// First-order optimizers over a parameter list. The paper trains all its
/// models with Adam (Appendix B); SGD is provided for the ablations and
/// tests.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_TRAIN_OPTIMIZER_H
#define GENPROVE_TRAIN_OPTIMIZER_H

#include "src/nn/layer.h"

namespace genprove {

/// Common optimizer interface; step() consumes accumulated gradients.
class Optimizer {
public:
  virtual ~Optimizer() = default;

  /// Apply one update using each parameter's accumulated gradient, then
  /// zero the gradients. Aborts if the update left a non-finite parameter.
  virtual void step() = 0;

protected:
  explicit Optimizer(std::vector<Param> Params, double Lr)
      : Params(std::move(Params)), Lr(Lr) {}

  std::vector<Param> Params;
  double Lr;
};

/// Plain stochastic gradient descent with optional momentum.
class Sgd : public Optimizer {
public:
  Sgd(std::vector<Param> Params, double Lr, double Momentum = 0.0);
  void step() override;

private:
  double Momentum;
  std::vector<Tensor> Velocity;
};

/// Adam (Kingma & Ba), the paper's optimizer.
class Adam : public Optimizer {
public:
  Adam(std::vector<Param> Params, double Lr, double Beta1 = 0.9,
       double Beta2 = 0.999, double Eps = 1e-8);
  void step() override;

private:
  double Beta1;
  double Beta2;
  double Eps;
  int64_t T = 0;
  std::vector<Tensor> M;
  std::vector<Tensor> V;
};

/// Scale all accumulated gradients down so their global L2 norm is at most
/// MaxNorm (no-op when already below). Returns the pre-clip norm.
double clipGradientNorm(const std::vector<Param> &Params, double MaxNorm);

} // namespace genprove

#endif // GENPROVE_TRAIN_OPTIMIZER_H
