//===- tensor/shape.h - Tensor shapes --------------------------*- C++ -*-===//
///
/// \file
/// Shape describes the dimensions of a Tensor. Tensors in this library are
/// always contiguous row-major; a Shape is just the dimension list plus a
/// few helpers (element count, flattened index computation, printing).
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_TENSOR_SHAPE_H
#define GENPROVE_TENSOR_SHAPE_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace genprove {

/// Dimension list of a row-major contiguous tensor.
class Shape {
public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> Dims);
  explicit Shape(std::vector<int64_t> Dims);

  /// Number of dimensions.
  size_t rank() const { return Dims.size(); }

  /// Size of dimension \p I (supports negative indices from the end).
  int64_t dim(int I) const;

  /// Total number of elements.
  int64_t numel() const;

  /// All dimensions.
  const std::vector<int64_t> &dims() const { return Dims; }

  bool operator==(const Shape &Other) const { return Dims == Other.Dims; }
  bool operator!=(const Shape &Other) const { return Dims != Other.Dims; }

  /// e.g. "[2, 3, 16, 16]".
  std::string toString() const;

private:
  std::vector<int64_t> Dims;
};

/// Parse a "1x4"-style shape: positive decimal dimensions separated by
/// 'x'. False, with \p Out untouched, on empty text, an empty, non-digit
/// or non-positive dimension, or a dimension that overflows int64_t.
bool parseShape(const std::string &Text, Shape &Out);

} // namespace genprove

#endif // GENPROVE_TENSOR_SHAPE_H
