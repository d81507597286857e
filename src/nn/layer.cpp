//===- nn/layer.cpp -------------------------------------------*- C++ -*-===//

#include "src/nn/layer.h"

#include "src/parallel/thread_pool.h"
#include "src/util/fp.h"
#include "src/util/hash.h"

#include <algorithm>
#include <cmath>

namespace genprove {

Tensor rowsToActivations(const Tensor &Rows, const Shape &SampleShape) {
  std::vector<int64_t> Dims = SampleShape.dims();
  Dims[0] = Rows.dim(0);
  return Rows.reshaped(Shape(Dims));
}

Tensor activationsToRows(const Tensor &Acts) {
  const int64_t K = Acts.dim(0);
  return Acts.reshaped({K, Acts.numel() / std::max<int64_t>(K, 1)});
}

uint64_t Layer::fingerprint() const {
  // Parameterless layers (ReLU/Flatten/Reshape) are fully described by
  // their kind and shape description.
  uint64_t H = hashing::hashU64(hashing::FnvOffset,
                                static_cast<uint64_t>(LayerKind));
  return hashing::hashString(H, describe());
}

void Layer::applyToBoxPlanes(Tensor &Center, Tensor &Radius, Tensor &Mag,
                             Tensor &BiasImage) const {
  BiasImage = Tensor(Center.shape());
  applyToBox(BiasImage, Mag);
  applyToBox(Center, Radius);
}

void Layer::applyToBoxSound(Tensor &Center, Tensor &Radius) const {
  const int64_t Depth = accumulationDepth();
  if (Depth <= 0) {
    // Pure data movement (Flatten/Reshape): exact in floating point.
    applyToBox(Center, Radius);
    return;
  }

  // Every point x of the input box satisfies |x| <= |c| + r elementwise,
  // so gamma_K * (|A|(|c| + r) + |b|) bounds the rounding error of the
  // round-to-nearest affine kernels on the center AND of a concrete
  // forward pass of any boxed point, for any summation order the tiled
  // kernels pick (standard dot-product error analysis). The magnitude
  // plane of applyToBoxPlanes() carries |A| * (|c| + r), its bias image
  // the |b| term.
  Tensor Mag(Center.shape());
  const double *C = Center.data();
  const double *R = Radius.data();
  double *M = Mag.data();
  parallelFor(Mag.numel(), [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      M[I] = fp::addUp(std::fabs(C[I]), R[I]);
  });
  Tensor BiasImage;
  applyToBoxPlanes(Center, Radius, Mag, BiasImage);

  const double Gamma = fp::accumulationBound(Depth);
  const double *MOut = Mag.data();
  const double *B = BiasImage.data();
  double *ROut = Radius.data();
  parallelFor(Radius.numel(), [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      ROut[I] = fp::addUp(
          ROut[I], fp::mulUp(Gamma, fp::addUp(MOut[I], std::fabs(B[I]))));
  });
}

} // namespace genprove
