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

Tensor ConvTranspose2d::applyAffine(const Tensor &Points) const {
  return convTranspose2d(Points, Weight, Bias, Geom);
}

Tensor ConvTranspose2d::applyLinear(const Tensor &Points) const {
  return convTranspose2d(Points, Weight, Tensor(), Geom);
}

void ConvTranspose2d::applyToBox(Tensor &Center, Tensor &Radius) const {
  Center = convTranspose2d(Center, Weight, Bias, Geom);
  // The radius image |W| * r: the same kernel on the memoized |W|.
  Radius = convTranspose2d(Radius, AbsCache.get(Weight), Tensor(), Geom);
}

std::vector<Param> ConvTranspose2d::params() {
  AbsCache.invalidate(); // optimizers mutate through the returned pointers
  return {{&Weight, &GradWeight, "weight"}, {&Bias, &GradBias, "bias"}};
}

Shape ConvTranspose2d::outputShape(const Shape &InputShape) const {
  check(InputShape.rank() == 4 && InputShape.dim(1) == Geom.InChannels,
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
