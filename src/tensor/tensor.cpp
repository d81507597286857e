//===- tensor/tensor.cpp --------------------------------------*- C++ -*-===//

#include "src/tensor/tensor.h"

#include "src/util/rng.h"

namespace genprove {

Tensor::Tensor(Shape TensorShape)
    : Dims(std::move(TensorShape)),
      Data(static_cast<size_t>(Dims.numel()), 0.0) {}

Tensor::Tensor(Shape TensorShape, std::vector<double> Values)
    : Dims(std::move(TensorShape)), Data(std::move(Values)) {
  check(static_cast<int64_t>(Data.size()) == Dims.numel(),
        "tensor data size does not match shape");
}

Tensor Tensor::zeros(Shape TensorShape) { return Tensor(std::move(TensorShape)); }

Tensor Tensor::full(Shape TensorShape, double Value) {
  Tensor T(std::move(TensorShape));
  T.fill(Value);
  return T;
}

Tensor Tensor::randn(Shape TensorShape, Rng &Generator, double Stddev) {
  Tensor T(std::move(TensorShape));
  for (int64_t I = 0; I < T.numel(); ++I)
    T[I] = Generator.normal(0.0, Stddev);
  return T;
}

Tensor Tensor::rand(Shape TensorShape, Rng &Generator, double Lo, double Hi) {
  Tensor T(std::move(TensorShape));
  for (int64_t I = 0; I < T.numel(); ++I)
    T[I] = Generator.uniform(Lo, Hi);
  return T;
}

Tensor Tensor::reshaped(Shape NewShape) const & {
  return Tensor(*this).reshaped(std::move(NewShape));
}

Tensor Tensor::reshaped(Shape NewShape) && {
  check(NewShape.numel() == Dims.numel(), "reshape changes element count");
  Dims = std::move(NewShape);
  return std::move(*this);
}

void Tensor::fill(double Value) {
  for (double &V : Data)
    V = Value;
}

void Tensor::addInPlace(const Tensor &Other) {
  check(Other.numel() == numel(), "addInPlace shape mismatch");
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] += Other.Data[I];
}

void Tensor::axpy(double Alpha, const Tensor &Other) {
  check(Other.numel() == numel(), "axpy shape mismatch");
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] += Alpha * Other.Data[I];
}

void Tensor::scaleInPlace(double Alpha) {
  for (double &V : Data)
    V *= Alpha;
}

} // namespace genprove
