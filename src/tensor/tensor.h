//===- tensor/tensor.h - Dense CPU tensors ---------------------*- C++ -*-===//
///
/// \file
/// Tensor is a dense, contiguous, row-major, double-precision array. It is
/// deliberately minimal: the verifier only needs affine layer application to
/// batches of points and interval bounds, and the trainers need elementwise
/// math plus matmul/conv, all of which live in tensor/ops.h.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_TENSOR_TENSOR_H
#define GENPROVE_TENSOR_TENSOR_H

#include "src/tensor/shape.h"
#include "src/util/error.h"

#include <vector>

namespace genprove {

class Rng;

/// Dense row-major double tensor.
class Tensor {
public:
  Tensor() = default;

  /// Uninitialized-to-zero tensor of the given shape.
  explicit Tensor(Shape TensorShape);

  /// Tensor wrapping existing data (copied); numel must match.
  Tensor(Shape TensorShape, std::vector<double> Values);

  /// All-zero tensor.
  static Tensor zeros(Shape TensorShape);

  /// Constant-filled tensor.
  static Tensor full(Shape TensorShape, double Value);

  /// i.i.d. N(0, Stddev^2) entries.
  static Tensor randn(Shape TensorShape, Rng &Generator, double Stddev = 1.0);

  /// i.i.d. U(Lo, Hi) entries.
  static Tensor rand(Shape TensorShape, Rng &Generator, double Lo = 0.0,
                     double Hi = 1.0);

  const Shape &shape() const { return Dims; }
  int64_t numel() const { return static_cast<int64_t>(Data.size()); }
  size_t rank() const { return Dims.rank(); }
  int64_t dim(int I) const { return Dims.dim(I); }

  double *data() { return Data.data(); }
  const double *data() const { return Data.data(); }

  double &operator[](int64_t I) { return Data[static_cast<size_t>(I)]; }
  double operator[](int64_t I) const { return Data[static_cast<size_t>(I)]; }

  /// 2-D access (matrix view); requires rank 2.
  double &at(int64_t I, int64_t J) {
    return Data[static_cast<size_t>(I * Dims.dim(1) + J)];
  }
  double at(int64_t I, int64_t J) const {
    return Data[static_cast<size_t>(I * Dims.dim(1) + J)];
  }

  /// 4-D access (NCHW view); requires rank 4.
  double &at(int64_t N, int64_t C, int64_t H, int64_t W) {
    const int64_t Ch = Dims.dim(1), Hh = Dims.dim(2), Wh = Dims.dim(3);
    return Data[static_cast<size_t>(((N * Ch + C) * Hh + H) * Wh + W)];
  }
  double at(int64_t N, int64_t C, int64_t H, int64_t W) const {
    const int64_t Ch = Dims.dim(1), Hh = Dims.dim(2), Wh = Dims.dim(3);
    return Data[static_cast<size_t>(((N * Ch + C) * Hh + H) * Wh + W)];
  }

  /// Same data, different shape; numel must be preserved. The lvalue form
  /// copies the data, the rvalue form moves it.
  Tensor reshaped(Shape NewShape) const &;
  Tensor reshaped(Shape NewShape) &&;

  /// Deep copy.
  Tensor clone() const { return *this; }

  /// Fill with a constant.
  void fill(double Value);

  /// Set all entries to zero.
  void zero() { fill(0.0); }

  /// In-place: this += Other (same shape).
  void addInPlace(const Tensor &Other);

  /// In-place: this += Alpha * Other (same shape).
  void axpy(double Alpha, const Tensor &Other);

  /// In-place: this *= Alpha.
  void scaleInPlace(double Alpha);

  const std::vector<double> &values() const { return Data; }

private:
  Shape Dims;
  std::vector<double> Data;
};

} // namespace genprove

#endif // GENPROVE_TENSOR_TENSOR_H
