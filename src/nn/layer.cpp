//===- nn/layer.cpp -------------------------------------------*- C++ -*-===//

#include "src/nn/layer.h"

#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"
#include "src/util/fp.h"
#include "src/util/hash.h"

#include <algorithm>
#include <cmath>

namespace genprove {

Tensor rowsToActivations(Tensor Rows, const Shape &SampleShape) {
  std::vector<int64_t> Dims = SampleShape.dims();
  Dims[0] = Rows.dim(0);
  return std::move(Rows).reshaped(Shape(std::move(Dims)));
}

Tensor activationsToRows(Tensor Acts) {
  const int64_t K = Acts.dim(0);
  const int64_t N = Acts.numel() / std::max<int64_t>(K, 1);
  return std::move(Acts).reshaped({K, N});
}

uint64_t Layer::fingerprint() const {
  // Parameterless layers (ReLU/Flatten/Reshape) are fully described by
  // their kind and shape description.
  uint64_t H = hashing::hashU64(hashing::FnvOffset,
                                static_cast<uint64_t>(LayerKind));
  return hashing::hashString(H, describe());
}

namespace {

/// The single-sample activation shape of a batch shape.
Shape sampleShape(const Shape &Batch) {
  std::vector<int64_t> Dims = Batch.dims();
  Dims[0] = 1;
  return Shape(std::move(Dims));
}

/// One batch through the layer's row-form affine map.
Tensor affineBatch(const Layer &L, const Tensor &Points, bool WithBias) {
  Tensor Out(L.outputShape(Points.shape()));
  L.applyAffineRows(sampleShape(Points.shape()), rowPointers(Points).data(),
                    rowPointers(Out).data(), Points.dim(0), WithBias);
  return Out;
}

} // namespace

Tensor Layer::applyAffine(const Tensor &Points) const {
  return affineBatch(*this, Points, /*WithBias=*/true);
}

Tensor Layer::applyLinear(const Tensor &Points) const {
  return affineBatch(*this, Points, /*WithBias=*/false);
}

void Layer::applyToBox(Tensor &Center, Tensor &Radius) const {
  Tensor NewCenter(outputShape(Center.shape()));
  Tensor NewRadius(NewCenter.shape());
  applyToBoxRows(sampleShape(Center.shape()), rowPointers(Center).data(),
                 rowPointers(Radius).data(), rowPointers(NewCenter).data(),
                 rowPointers(NewRadius).data(), Center.dim(0));
  Center = std::move(NewCenter);
  Radius = std::move(NewRadius);
}

void Layer::applyToBoxPlanes(Tensor &Center, Tensor &Radius, Tensor &Mag,
                             Tensor &BiasImage) const {
  Tensor NewCenter(outputShape(Center.shape()));
  Tensor NewRadius(NewCenter.shape()), NewMag(NewCenter.shape());
  BiasImage = Tensor(NewCenter.shape());
  applyToBoxPlanesRows(
      sampleShape(Center.shape()), rowPointers(Center).data(),
      rowPointers(Radius).data(), rowPointers(Mag).data(),
      rowPointers(NewCenter).data(), rowPointers(NewRadius).data(),
      rowPointers(NewMag).data(), rowPointers(BiasImage).data(),
      Center.dim(0));
  Center = std::move(NewCenter);
  Radius = std::move(NewRadius);
  Mag = std::move(NewMag);
}

void Layer::applyAffineRows(const Shape &, const double *const *,
                            double *const *, int64_t, bool) const {
  fatalError("applyAffine called on a non-affine layer");
}

void Layer::applyToBoxRows(const Shape &, const double *const *,
                           const double *const *, double *const *,
                           double *const *, int64_t) const {
  fatalError("applyToBox called on a non-affine layer");
}

void Layer::applyToBoxPlanesRows(const Shape &InShape,
                                 const double *const *Center,
                                 const double *const *Radius,
                                 const double *const *Mag,
                                 double *const *OutCenter,
                                 double *const *OutRadius,
                                 double *const *OutMag,
                                 double *const *OutBiasImage,
                                 int64_t Rows) const {
  const std::vector<double> Zero(static_cast<size_t>(InShape.numel()), 0.0);
  const std::vector<const double *> ZeroRows(static_cast<size_t>(Rows),
                                             Zero.data());
  applyToBoxRows(InShape, ZeroRows.data(), Mag, OutBiasImage, OutMag, Rows);
  applyToBoxRows(InShape, Center, Radius, OutCenter, OutRadius, Rows);
}

void Layer::applyToBoxSoundRows(const Shape &InShape,
                                const double *const *Center,
                                const double *const *Radius,
                                double *const *OutCenter,
                                double *const *OutRadius, int64_t Rows) const {
  const int64_t Depth = accumulationDepth();
  if (Depth <= 0) {
    // Pure data movement (Flatten/Reshape): exact in floating point.
    applyToBoxRows(InShape, Center, Radius, OutCenter, OutRadius, Rows);
    return;
  }

  // Every point x of the input box satisfies |x| <= |c| + r elementwise,
  // so gamma_K * (|A|(|c| + r) + |b|) bounds the rounding error of the
  // round-to-nearest affine kernels on the center AND of a concrete
  // forward pass of any boxed point, for any summation order the tiled
  // kernels pick (standard dot-product error analysis). The magnitude
  // plane of applyToBoxPlanesRows() carries |A| * (|c| + r), its bias
  // image the |b| term.
  const int64_t InN = InShape.numel(), OutN = outputShape(InShape).numel();
  Tensor Mag({Rows, InN}), OutMag({Rows, OutN}), BiasImage({Rows, OutN});
  double *M = Mag.data();
  parallelFor(Rows, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      for (int64_t J = 0; J < InN; ++J)
        M[I * InN + J] = fp::addUp(std::fabs(Center[I][J]), Radius[I][J]);
  });
  applyToBoxPlanesRows(InShape, Center, Radius, rowPointers(Mag).data(),
                       OutCenter, OutRadius, rowPointers(OutMag).data(),
                       rowPointers(BiasImage).data(), Rows);

  const double Gamma = fp::accumulationBound(Depth);
  const double *MOut = OutMag.data();
  const double *B = BiasImage.data();
  parallelFor(Rows, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      for (int64_t J = 0; J < OutN; ++J)
        OutRadius[I][J] = fp::addUp(
            OutRadius[I][J],
            fp::mulUp(Gamma, fp::addUp(MOut[I * OutN + J],
                                       std::fabs(B[I * OutN + J]))));
  });
}

} // namespace genprove
