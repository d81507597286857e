//===- nn/linear.h - Fully connected layer ---------------------*- C++ -*-===//

#ifndef GENPROVE_NN_LINEAR_H
#define GENPROVE_NN_LINEAR_H

#include "src/nn/abs_cache.h"
#include "src/nn/layer.h"

namespace genprove {

/// Fully connected layer: y = x W^T + b with W of shape [Out, In].
///
/// Every map runs on a memoized W^T [In, Out] next to W: with the output
/// dimension contiguous, every output element is an ascending-k
/// accumulator chain that vectorizes across outputs, bit-identical to the
/// [Out, In] dot-product form. The training forward is applyAffine() too;
/// it rebuilds W^T once per call, since training mutates W between calls.
class Linear : public Layer {
public:
  Linear(int64_t InFeatures, int64_t OutFeatures);

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
  int64_t accumulationDepth() const override { return InFeatures + 1; }
  std::vector<Param> params() override;
  bool acceptsInputShape(const Shape &InputShape) const override;
  Shape outputShape(const Shape &InputShape) const override;
  std::string describe() const override;
  uint64_t fingerprint() const override {
    // Structural seed from the base hash (kind + description), parameter
    // bits memoized against the AbsWeightCache generation.
    return AbsCache.paramFingerprint(Layer::fingerprint(), {&Weight, &Bias});
  }

  int64_t inFeatures() const { return InFeatures; }
  int64_t outFeatures() const { return OutFeatures; }
  // Mutable parameter access invalidates the memoized W^T (see
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
  int64_t InFeatures;
  int64_t OutFeatures;
  Tensor Weight;     // [Out, In]
  Tensor Bias;       // [Out]
  Tensor GradWeight; // [Out, In]
  Tensor GradBias;   // [Out]
  Tensor CachedInput;
  AbsWeightCache AbsCache;
};

} // namespace genprove

#endif // GENPROVE_NN_LINEAR_H
