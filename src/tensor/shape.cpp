//===- tensor/shape.cpp ---------------------------------------*- C++ -*-===//

#include "src/tensor/shape.h"

#include "src/util/error.h"
#include "src/util/parse.h"

#include <algorithm>
#include <sstream>

namespace genprove {

Shape::Shape(std::initializer_list<int64_t> InitDims) : Dims(InitDims) {}

Shape::Shape(std::vector<int64_t> InitDims) : Dims(std::move(InitDims)) {}

int64_t Shape::dim(int I) const {
  const int R = static_cast<int>(Dims.size());
  if (I < 0)
    I += R;
  check(I >= 0 && I < R, "shape dimension index out of range");
  return Dims[static_cast<size_t>(I)];
}

int64_t Shape::numel() const {
  int64_t N = 1;
  for (int64_t D : Dims)
    N *= D;
  return N;
}

std::string Shape::toString() const {
  std::ostringstream Out;
  Out << '[';
  for (size_t I = 0; I < Dims.size(); ++I) {
    if (I)
      Out << ", ";
    Out << Dims[I];
  }
  Out << ']';
  return Out.str();
}

bool parseShape(const std::string &Text, Shape &Out) {
  std::vector<int64_t> Dims;
  size_t Begin = 0;
  for (;;) {
    const size_t End = std::min(Text.find('x', Begin), Text.size());
    int64_t Dim = 0;
    if (!parseNumber(std::string_view(Text).substr(Begin, End - Begin), Dim) ||
        Dim <= 0)
      return false;
    Dims.push_back(Dim);
    if (End == Text.size())
      break;
    Begin = End + 1;
  }
  Out = Shape(std::move(Dims));
  return true;
}

} // namespace genprove
