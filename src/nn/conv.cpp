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

Tensor Conv2d::applyAffine(const Tensor &Points) const {
  return conv2d(Points, Weight, Bias, Geom);
}

Tensor Conv2d::applyLinear(const Tensor &Points) const {
  return conv2d(Points, Weight, Tensor(), Geom);
}

void Conv2d::applyToBox(Tensor &Center, Tensor &Radius) const {
  Center = conv2d(Center, Weight, Bias, Geom);
  // The radius image |W| * r: the same kernel on the memoized |W|.
  Radius = conv2d(Radius, AbsCache.get(Weight), Tensor(), Geom);
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
