//===- nn/conv.h - 2-D convolution layer -----------------------*- C++ -*-===//

#ifndef GENPROVE_NN_CONV_H
#define GENPROVE_NN_CONV_H

#include "src/nn/abs_cache.h"
#include "src/nn/layer.h"
#include "src/tensor/ops.h"

namespace genprove {

/// 2-D convolution over NCHW activations; weight layout [OC, IC, KH, KW].
class Conv2d : public Layer {
public:
  Conv2d(int64_t InChannels, int64_t OutChannels, int64_t Kernel,
         int64_t Stride, int64_t Padding);

  Tensor forward(const Tensor &Input) override;
  Tensor backward(const Tensor &GradOutput) override;
  void applyAffineRows(const Shape &InShape, const double *const *In,
                       double *const *Out, int64_t Rows,
                       bool WithBias) const override;
  void applyToBoxRows(const Shape &InShape, const double *const *Center,
                      const double *const *Radius, double *const *OutCenter,
                      double *const *OutRadius, int64_t Rows) const override;
  int64_t accumulationDepth() const override {
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
  Tensor Weight;     // [OC, IC, KH, KW]
  Tensor Bias;       // [OC]
  Tensor GradWeight;
  Tensor GradBias;
  Tensor CachedInput;
  AbsWeightCache AbsCache;
};

} // namespace genprove

#endif // GENPROVE_NN_CONV_H
