//===- nn/activations.h - ReLU layer ---------------------------*- C++ -*-===//

#ifndef GENPROVE_NN_ACTIVATIONS_H
#define GENPROVE_NN_ACTIVATIONS_H

#include "src/nn/layer.h"

namespace genprove {

/// ReLU activation. The only nonlinearity in the paper's architectures;
/// abstract domains handle it symbolically (segment splitting, interval
/// clamping, zonotope relaxation), so the affine interface is unavailable.
class ReLU : public Layer {
public:
  ReLU() : Layer(Kind::ReLU) {}

  Tensor forward(const Tensor &Input) override;
  Tensor backward(const Tensor &GradOutput) override;
  bool acceptsInputShape(const Shape &) const override { return true; }
  Shape outputShape(const Shape &InputShape) const override {
    return InputShape;
  }
  std::string describe() const override { return "ReLU"; }

private:
  Tensor CachedMask;
};

} // namespace genprove

#endif // GENPROVE_NN_ACTIVATIONS_H
