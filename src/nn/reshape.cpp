//===- nn/reshape.cpp -----------------------------------------*- C++ -*-===//

#include "src/nn/reshape.h"

#include <algorithm>
#include <sstream>

namespace genprove {

namespace {

/// Flatten and Reshape move data only: each row is copied unchanged.
void copyRows(const Shape &InShape, const double *const *In,
              double *const *Out, int64_t Rows) {
  const int64_t N = InShape.numel();
  for (int64_t I = 0; I < Rows; ++I)
    std::copy_n(In[I], N, Out[I]);
}

} // namespace

Tensor Flatten::forward(const Tensor &Input) {
  CachedInputShape = Input.shape();
  return applyAffine(Input);
}

Tensor Flatten::backward(const Tensor &GradOutput) {
  return GradOutput.reshaped(CachedInputShape);
}

void Flatten::applyAffineRows(const Shape &InShape, const double *const *In,
                              double *const *Out, int64_t Rows, bool) const {
  copyRows(InShape, In, Out, Rows);
}

void Flatten::applyToBoxRows(const Shape &InShape,
                             const double *const *Center,
                             const double *const *Radius,
                             double *const *OutCenter,
                             double *const *OutRadius, int64_t Rows) const {
  copyRows(InShape, Center, OutCenter, Rows);
  copyRows(InShape, Radius, OutRadius, Rows);
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

void Reshape::applyAffineRows(const Shape &InShape, const double *const *In,
                              double *const *Out, int64_t Rows, bool) const {
  copyRows(InShape, In, Out, Rows);
}

void Reshape::applyToBoxRows(const Shape &InShape,
                             const double *const *Center,
                             const double *const *Radius,
                             double *const *OutCenter,
                             double *const *OutRadius, int64_t Rows) const {
  copyRows(InShape, Center, OutCenter, Rows);
  copyRows(InShape, Radius, OutRadius, Rows);
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
