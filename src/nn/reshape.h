//===- nn/reshape.h - Flatten / Reshape layers -----------------*- C++ -*-===//

#ifndef GENPROVE_NN_RESHAPE_H
#define GENPROVE_NN_RESHAPE_H

#include "src/nn/layer.h"

namespace genprove {

/// Flattens NCHW activations to [N, C*H*W]. A linear (identity) map, so the
/// affine interface reshapes without touching data.
class Flatten : public Layer {
public:
  Flatten() : Layer(Kind::Flatten) {}

  Tensor forward(const Tensor &Input) override;
  Tensor backward(const Tensor &GradOutput) override;
  void applyAffineRows(const Shape &InShape, const double *const *In,
                       double *const *Out, int64_t Rows,
                       bool WithBias) const override;
  void applyToBoxRows(const Shape &InShape, const double *const *Center,
                      const double *const *Radius, double *const *OutCenter,
                      double *const *OutRadius, int64_t Rows) const override;
  bool acceptsInputShape(const Shape &InputShape) const override;
  Shape outputShape(const Shape &InputShape) const override;
  std::string describe() const override { return "Flatten"; }

private:
  Shape CachedInputShape;
};

/// Reshapes [N, C*H*W] activations to NCHW with the given channel/size.
class Reshape : public Layer {
public:
  Reshape(int64_t Channels, int64_t Height, int64_t Width);

  Tensor forward(const Tensor &Input) override;
  Tensor backward(const Tensor &GradOutput) override;
  void applyAffineRows(const Shape &InShape, const double *const *In,
                       double *const *Out, int64_t Rows,
                       bool WithBias) const override;
  void applyToBoxRows(const Shape &InShape, const double *const *Center,
                      const double *const *Radius, double *const *OutCenter,
                      double *const *OutRadius, int64_t Rows) const override;
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
