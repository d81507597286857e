//===- nn/conv_transpose.cpp ----------------------------------*- C++ -*-===//

#include "src/nn/conv_transpose.h"

#include <sstream>

namespace genprove {

ConvTranspose2d::ConvTranspose2d(int64_t InChannels, int64_t OutChannels,
                                 int64_t Kernel, int64_t Stride,
                                 int64_t Padding, int64_t OutputPadding)
    : Layer(Kind::ConvTranspose2d),
      Weight({InChannels, OutChannels, Kernel, Kernel}), Bias({OutChannels}),
      GradWeight({InChannels, OutChannels, Kernel, Kernel}),
      GradBias({OutChannels}) {
  Geom.InChannels = InChannels;
  Geom.OutChannels = OutChannels;
  Geom.KernelH = Kernel;
  Geom.KernelW = Kernel;
  Geom.Stride = Stride;
  Geom.Padding = Padding;
  Geom.OutputPadding = OutputPadding;
}

Tensor ConvTranspose2d::forward(const Tensor &Input) {
  CachedInput = Input;
  return convTranspose2d(Input, Weight, Bias, Geom);
}

Tensor ConvTranspose2d::backward(const Tensor &GradOutput) {
  return convTranspose2dBackward(CachedInput, Weight, GradOutput, Geom,
                                 GradWeight, GradBias);
}

void ConvTranspose2d::applyAffineRows(const Shape &InShape, const double *const *In,
                                      double *const *Out, int64_t Rows,
                                      bool WithBias) const {
  check(acceptsInputShape(InShape), "ConvTranspose2d input shape mismatch");
  const Tensor NoBias;
  convTranspose2dRows(In, Rows, InShape.dim(2), InShape.dim(3), Weight,
                      WithBias ? Bias : NoBias, Geom, Out);
}

void ConvTranspose2d::applyToBoxRows(
    const Shape &InShape, const double *const *Center,
    const double *const *Radius, const double *const *Mag,
    double *const *OutCenter, double *const *OutRadius, double *const *OutMag,
    double *const *OutBiasImage, int64_t Rows) const {
  check(acceptsInputShape(InShape), "ConvTranspose2d input shape mismatch");
  const int64_t H = InShape.dim(2), W = InShape.dim(3);
  convTranspose2dRows(Center, Rows, H, W, Weight, Bias, Geom, OutCenter);
  // The radius and magnitude images |W| * r: the same kernel on the
  // memoized |W|.
  const Tensor &AbsWeight = AbsCache.get(Weight);
  convTranspose2dRows(Radius, Rows, H, W, AbsWeight, Tensor(), Geom,
                      OutRadius);
  if (Mag)
    convTranspose2dRows(Mag, Rows, H, W, AbsWeight, Tensor(), Geom, OutMag);
  if (OutBiasImage)
    zeroInputImageRows(InShape, OutBiasImage, Rows);
}

std::vector<Param> ConvTranspose2d::params() {
  AbsCache.invalidate(); // optimizers mutate through the returned pointers
  return {{&Weight, &GradWeight, "weight"}, {&Bias, &GradBias, "bias"}};
}

bool ConvTranspose2d::acceptsInputShape(const Shape &InputShape) const {
  if (InputShape.rank() != 4 || InputShape.dim(1) != Geom.InChannels)
    return false;
  const auto [OH, OW] =
      Geom.convTransposeOutput(InputShape.dim(2), InputShape.dim(3));
  return OH > 0 && OW > 0;
}

Shape ConvTranspose2d::outputShape(const Shape &InputShape) const {
  check(acceptsInputShape(InputShape),
        "ConvTranspose2d input shape mismatch");
  const auto [OH, OW] =
      Geom.convTransposeOutput(InputShape.dim(2), InputShape.dim(3));
  return Shape({InputShape.dim(0), Geom.OutChannels, OH, OW});
}

std::string ConvTranspose2d::describe() const {
  std::ostringstream Out;
  Out << "ConvTranspose2d(" << Geom.InChannels << "->" << Geom.OutChannels
      << ", k" << Geom.KernelH << ", s" << Geom.Stride << ", p" << Geom.Padding
      << ", op" << Geom.OutputPadding << ")";
  return Out.str();
}

} // namespace genprove
