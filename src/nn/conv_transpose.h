//===- nn/conv_transpose.h - Transposed convolution layer ------*- C++ -*-===//

#ifndef GENPROVE_NN_CONV_TRANSPOSE_H
#define GENPROVE_NN_CONV_TRANSPOSE_H

#include "src/nn/abs_cache.h"
#include "src/nn/layer.h"
#include "src/tensor/ops.h"

namespace genprove {

/// Transposed 2-D convolution (a.k.a. fractionally strided convolution) as
/// used by the paper's decoders; weight layout [IC, OC, KH, KW].
class ConvTranspose2d : public Layer {
public:
  ConvTranspose2d(int64_t InChannels, int64_t OutChannels, int64_t Kernel,
                  int64_t Stride, int64_t Padding, int64_t OutputPadding);

  Tensor forward(const Tensor &Input) override;
  Tensor backward(const Tensor &GradOutput) override;
  void applyAffineRows(const Shape &InShape, const double *const *In,
                       double *const *Out, int64_t Rows,
                       bool WithBias) const override;
  void applyToBoxRows(const Shape &InShape, const double *const *Center,
                      const double *const *Radius, const double *const *Mag,
                      double *const *OutCenter, double *const *OutRadius,
                      double *const *OutMag, double *const *OutBiasImage,
                      int64_t Rows) const override;
  int64_t accumulationDepth() const override {
    // Each output pixel gathers at most InChannels * KH * KW scattered
    // contributions, plus the bias.
    return Geom.InChannels * Geom.KernelH * Geom.KernelW + 1;
  }
  std::vector<Param> params() override;
  bool acceptsInputShape(const Shape &InputShape) const override;
  Shape outputShape(const Shape &InputShape) const override;
  std::string describe() const override;
  uint64_t fingerprint() const override {
    return AbsCache.paramFingerprint(Layer::fingerprint(), {&Weight, &Bias});
  }

  const ConvGeometry &geometry() const { return Geom; }
  // Mutable parameter access invalidates the memoized |W| (see
  // nn/abs_cache.h for the contract).
  Tensor &weight() {
    AbsCache.invalidate();
    return Weight;
  }
  Tensor &bias() {
    AbsCache.invalidate();
    return Bias;
  }
  const Tensor &weight() const { return Weight; }
  const Tensor &bias() const { return Bias; }

private:
  ConvGeometry Geom;
  Tensor Weight;     // [IC, OC, KH, KW]
  Tensor Bias;       // [OC]
  Tensor GradWeight;
  Tensor GradBias;
  Tensor CachedInput;
  AbsWeightCache AbsCache;
};

} // namespace genprove

#endif // GENPROVE_NN_CONV_TRANSPOSE_H
