//===- nn/reshape.h - Flatten / Reshape layers -----------------*- C++ -*-===//

#ifndef GENPROVE_NN_RESHAPE_H
#define GENPROVE_NN_RESHAPE_H

#include "src/nn/layer.h"

namespace genprove {

/// Flattens NCHW activations to [N, C*H*W]. On flat rows the map is the
/// identity (Layer::isShapeOnly()), so it has no row forms: the Tensor
/// entry points reshape without touching data, and the region engine only
/// changes its shape.
class Flatten : public Layer {
public:
  Flatten() : Layer(Kind::Flatten) {}

  Tensor forward(const Tensor &Input) override;
  Tensor backward(const Tensor &GradOutput) override;
  bool acceptsInputShape(const Shape &InputShape) const override;
  Shape outputShape(const Shape &InputShape) const override;
  std::string describe() const override { return "Flatten"; }

private:
  Shape CachedInputShape;
};

/// Reshapes [N, C*H*W] activations to NCHW with the given channel/size;
/// shape-only like Flatten.
class Reshape : public Layer {
public:
  Reshape(int64_t Channels, int64_t Height, int64_t Width);

  Tensor forward(const Tensor &Input) override;
  Tensor backward(const Tensor &GradOutput) override;
  bool acceptsInputShape(const Shape &InputShape) const override;
  Shape outputShape(const Shape &InputShape) const override;
  std::string describe() const override;

  int64_t channels() const { return Channels; }
  int64_t height() const { return Height; }
  int64_t width() const { return Width; }

private:
  int64_t Channels;
  int64_t Height;
  int64_t Width;
};

} // namespace genprove

#endif // GENPROVE_NN_RESHAPE_H
