//===- nn/linear.cpp ------------------------------------------*- C++ -*-===//

#include "src/nn/linear.h"

#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"

#include <algorithm>
#include <sstream>

namespace genprove {

Linear::Linear(int64_t InFeatures, int64_t OutFeatures)
    : Layer(Kind::Linear), InFeatures(InFeatures), OutFeatures(OutFeatures),
      Weight({OutFeatures, InFeatures}), Bias({OutFeatures}),
      GradWeight({OutFeatures, InFeatures}), GradBias({OutFeatures}) {}

namespace {

/// Out[i, j] += Bias[j] for every row, in place.
void addBiasRows(Tensor &Out, const Tensor &Bias) {
  const int64_t N = Bias.numel();
  double *Od = Out.data();
  const double *Bd = Bias.data();
  parallelFor(Out.dim(0), [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      for (int64_t J = 0; J < N; ++J)
        Od[I * N + J] += Bd[J];
  });
}

} // namespace

Tensor Linear::forward(const Tensor &Input) {
  CachedInput = Input;
  Tensor Out = matmulTransB(Input, Weight); // [B, Out]
  addBiasRows(Out, Bias);
  return Out;
}

Tensor Linear::backward(const Tensor &GradOutput) {
  // dW += dY^T X ; db += column sums of dY ; dX = dY W.
  Tensor Dw = matmulTransA(GradOutput, CachedInput); // [Out, In]
  GradWeight.addInPlace(Dw);
  const int64_t B = GradOutput.dim(0);
  for (int64_t I = 0; I < B; ++I)
    for (int64_t J = 0; J < OutFeatures; ++J)
      GradBias[J] += GradOutput.at(I, J);
  return matmul(GradOutput, Weight); // [B, In]
}

void Linear::applyAffineRows(const Shape &InShape, const double *const *In,
                             double *const *Out, int64_t Rows,
                             bool WithBias) const {
  check(InShape.numel() == InFeatures, "Linear input shape mismatch");
  matmulRows(In, Rows, AbsCache.getTrans(Weight),
             WithBias ? Bias.data() : nullptr, Out);
}

void Linear::applyToBoxRows(const Shape &InShape, const double *const *Center,
                            const double *const *Radius,
                            double *const *OutCenter, double *const *OutRadius,
                            int64_t Rows) const {
  check(InShape.numel() == InFeatures, "Linear input shape mismatch");
  fusedBoxAffineRows(Center, Radius, nullptr, Rows, AbsCache.getTrans(Weight),
                     Bias, OutCenter, OutRadius, nullptr);
}

void Linear::applyToBoxPlanesRows(const Shape &InShape,
                                  const double *const *Center,
                                  const double *const *Radius,
                                  const double *const *Mag,
                                  double *const *OutCenter,
                                  double *const *OutRadius,
                                  double *const *OutMag,
                                  double *const *OutBiasImage,
                                  int64_t Rows) const {
  check(InShape.numel() == InFeatures, "Linear input shape mismatch");
  fusedBoxAffineRows(Center, Radius, Mag, Rows, AbsCache.getTrans(Weight),
                     Bias, OutCenter, OutRadius, OutMag);
  // A zero input's dot product is +0.0, and +0.0 + b == b up to the sign
  // of a zero bias: the bias image is the bias itself.
  for (int64_t I = 0; I < Rows; ++I)
    std::copy_n(Bias.data(), OutFeatures, OutBiasImage[I]);
}

std::vector<Param> Linear::params() {
  AbsCache.invalidate(); // optimizers mutate through the returned pointers
  return {{&Weight, &GradWeight, "weight"}, {&Bias, &GradBias, "bias"}};
}

bool Linear::acceptsInputShape(const Shape &InputShape) const {
  return InputShape.rank() == 2 && InputShape.dim(1) == InFeatures;
}

Shape Linear::outputShape(const Shape &InputShape) const {
  check(acceptsInputShape(InputShape), "Linear input shape mismatch");
  return Shape({InputShape.dim(0), OutFeatures});
}

std::string Linear::describe() const {
  std::ostringstream Out;
  Out << "Linear(" << InFeatures << "->" << OutFeatures << ")";
  return Out.str();
}

} // namespace genprove
