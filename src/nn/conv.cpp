//===- nn/conv.cpp --------------------------------------------*- C++ -*-===//

#include "src/nn/conv.h"

#include <sstream>

namespace genprove {

Conv2d::Conv2d(int64_t InChannels, int64_t OutChannels, int64_t Kernel,
               int64_t Stride, int64_t Padding)
    : Layer(Kind::Conv2d),
      Weight({OutChannels, InChannels, Kernel, Kernel}), Bias({OutChannels}),
      GradWeight({OutChannels, InChannels, Kernel, Kernel}),
      GradBias({OutChannels}) {
  Geom.InChannels = InChannels;
  Geom.OutChannels = OutChannels;
  Geom.KernelH = Kernel;
  Geom.KernelW = Kernel;
  Geom.Stride = Stride;
  Geom.Padding = Padding;
}

Tensor Conv2d::forward(const Tensor &Input) {
  CachedInput = Input;
  return conv2d(Input, Weight, Bias, Geom);
}

Tensor Conv2d::backward(const Tensor &GradOutput) {
  return conv2dBackward(CachedInput, Weight, GradOutput, Geom, GradWeight,
                        GradBias);
}

void Conv2d::applyAffineRows(const Shape &InShape, const double *const *In,
                             double *const *Out, int64_t Rows,
                             bool WithBias) const {
  check(acceptsInputShape(InShape), "Conv2d input shape mismatch");
  const Tensor NoBias;
  conv2dRows(In, Rows, InShape.dim(2), InShape.dim(3), Weight,
             WithBias ? Bias : NoBias, Geom, Out);
}

void Conv2d::applyToBoxRows(const Shape &InShape,
                            const double *const *Center,
                            const double *const *Radius,
                            const double *const *Mag,
                            double *const *OutCenter,
                            double *const *OutRadius, double *const *OutMag,
                            double *const *OutBiasImage, int64_t Rows) const {
  check(acceptsInputShape(InShape), "Conv2d input shape mismatch");
  const int64_t H = InShape.dim(2), W = InShape.dim(3);
  conv2dRows(Center, Rows, H, W, Weight, Bias, Geom, OutCenter);
  // The radius and magnitude images |W| * r: the same kernel on the
  // memoized |W|.
  const Tensor &AbsWeight = AbsCache.get(Weight);
  conv2dRows(Radius, Rows, H, W, AbsWeight, Tensor(), Geom, OutRadius);
  if (Mag)
    conv2dRows(Mag, Rows, H, W, AbsWeight, Tensor(), Geom, OutMag);
  if (OutBiasImage)
    zeroInputImageRows(InShape, OutBiasImage, Rows);
}

std::vector<Param> Conv2d::params() {
  AbsCache.invalidate(); // optimizers mutate through the returned pointers
  return {{&Weight, &GradWeight, "weight"}, {&Bias, &GradBias, "bias"}};
}

bool Conv2d::acceptsInputShape(const Shape &InputShape) const {
  // The kernel must fit inside the padded image.
  return InputShape.rank() == 4 && InputShape.dim(1) == Geom.InChannels &&
         InputShape.dim(2) + 2 * Geom.Padding >= Geom.KernelH &&
         InputShape.dim(3) + 2 * Geom.Padding >= Geom.KernelW;
}

Shape Conv2d::outputShape(const Shape &InputShape) const {
  check(acceptsInputShape(InputShape), "Conv2d input shape mismatch");
  const auto [OH, OW] = Geom.convOutput(InputShape.dim(2), InputShape.dim(3));
  return Shape({InputShape.dim(0), Geom.OutChannels, OH, OW});
}

std::string Conv2d::describe() const {
  std::ostringstream Out;
  Out << "Conv2d(" << Geom.InChannels << "->" << Geom.OutChannels << ", k"
      << Geom.KernelH << ", s" << Geom.Stride << ", p" << Geom.Padding << ")";
  return Out.str();
}

} // namespace genprove
