//===- nn/reshape.cpp -----------------------------------------*- C++ -*-===//

#include "src/nn/reshape.h"

#include <sstream>

namespace genprove {

Tensor Flatten::forward(const Tensor &Input) {
  CachedInputShape = Input.shape();
  return applyAffine(Input);
}

Tensor Flatten::backward(const Tensor &GradOutput) {
  return GradOutput.reshaped(CachedInputShape);
}

bool Flatten::acceptsInputShape(const Shape &InputShape) const {
  return InputShape.rank() >= 1;
}

Shape Flatten::outputShape(const Shape &InputShape) const {
  check(acceptsInputShape(InputShape), "Flatten input shape mismatch");
  int64_t Features = 1;
  for (size_t I = 1; I < InputShape.rank(); ++I)
    Features *= InputShape.dim(static_cast<int>(I));
  return Shape({InputShape.dim(0), Features});
}

Reshape::Reshape(int64_t Channels, int64_t Height, int64_t Width)
    : Layer(Kind::Reshape), Channels(Channels), Height(Height), Width(Width) {}

Tensor Reshape::forward(const Tensor &Input) { return applyAffine(Input); }

Tensor Reshape::backward(const Tensor &GradOutput) {
  const int64_t B = GradOutput.dim(0);
  return GradOutput.reshaped({B, Channels * Height * Width});
}

bool Reshape::acceptsInputShape(const Shape &InputShape) const {
  return InputShape.rank() == 2 &&
         InputShape.dim(1) == Channels * Height * Width;
}

Shape Reshape::outputShape(const Shape &InputShape) const {
  check(acceptsInputShape(InputShape), "Reshape input shape mismatch");
  return Shape({InputShape.dim(0), Channels, Height, Width});
}

std::string Reshape::describe() const {
  std::ostringstream Out;
  Out << "Reshape(" << Channels << "x" << Height << "x" << Width << ")";
  return Out.str();
}

} // namespace genprove
