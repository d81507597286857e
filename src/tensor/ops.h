//===- tensor/ops.h - Tensor kernels ---------------------------*- C++ -*-===//
///
/// \file
/// The numeric kernels: matmul (plus transposed variants used by backprop),
/// the fused interval affine map behind Linear, and 2-D convolution and
/// transposed convolution. Both convolutions run on one batch-innermost
/// tap kernel; interval radii go through the same kernel with |W| (a box
/// with center c and radius r maps through an affine layer as
/// c' = W c + b, r' = |W| r), which the layers memoize.
///
/// Convolution weight layout follows PyTorch:
///   Conv2d:          [OutC, InC, KH, KW]
///   ConvTranspose2d: [InC, OutC, KH, KW]
/// Activations are NCHW.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_TENSOR_OPS_H
#define GENPROVE_TENSOR_OPS_H

#include "src/tensor/tensor.h"

namespace genprove {

/// C = A(MxK) * B(KxN).
Tensor matmul(const Tensor &A, const Tensor &B);

/// C = A^T(KxM -> MxK as given) * B. A is (KxM), result (MxN): C = Aᵀ B.
Tensor matmulTransA(const Tensor &A, const Tensor &B);

/// C = A * Bᵀ where A is (MxK) and B is (NxK); result (MxN).
Tensor matmulTransB(const Tensor &A, const Tensor &B);

/// Interval affine map through a Linear weight supplied pre-transposed:
/// Wt is W^T [K, N] for a weight W [N, K]. One streaming pass over Wt
/// computes, per row i of the [M, K] inputs,
///   OutC[i]   = Centers[i] * Wt + Bias        (center image)
///   OutR[i]   = Radii[i]   * |Wt|             (radius image)
///   OutMags[i]= Mags[i]    * |Wt|             (optional magnitude image)
/// with |Wt| taken elementwise in registers. Every output element
/// accumulates one ascending-k chain and the bias lands after the full
/// dot, so each plane is bit-identical to matmulTransB against W (or
/// |W|) followed by a bias pass; with the output dimension contiguous the
/// chains vectorize across outputs, which the strict-FP dot-product form
/// cannot. Mags/OutMags may be null to skip the magnitude plane. Out
/// tensors are (re)allocated to [M, N].
void fusedBoxAffineTransT(const Tensor &Centers, const Tensor &Radii,
                          const Tensor *Mags, const Tensor &Wt,
                          const Tensor &Bias, Tensor &OutC, Tensor &OutR,
                          Tensor *OutMags);

/// Geometry of a 2-D convolution.
struct ConvGeometry {
  int64_t InChannels = 0;
  int64_t OutChannels = 0;
  int64_t KernelH = 0;
  int64_t KernelW = 0;
  int64_t Stride = 1;
  int64_t Padding = 0;
  int64_t OutputPadding = 0; // transposed conv only

  /// Spatial output size of a forward convolution on (H, W).
  std::pair<int64_t, int64_t> convOutput(int64_t H, int64_t W) const;

  /// Spatial output size of a transposed convolution on (H, W).
  std::pair<int64_t, int64_t> convTransposeOutput(int64_t H, int64_t W) const;
};

/// Forward 2-D convolution of NCHW input with weight [OC, IC, KH, KW] and
/// bias [OC] (pass an empty tensor to skip bias). Each output starts at
/// +0.0, adds its in-bounds (ic, kh, kw) taps in ascending order, then the
/// bias, bit-identical to the direct loop for any thread count and ISA.
Tensor conv2d(const Tensor &Input, const Tensor &Weight, const Tensor &Bias,
              const ConvGeometry &Geom);

/// Gradients of conv2d. GradOutput is NCHW with the conv output shape.
/// Returns gradient w.r.t. input; accumulates into GradWeight/GradBias.
Tensor conv2dBackward(const Tensor &Input, const Tensor &Weight,
                      const Tensor &GradOutput, const ConvGeometry &Geom,
                      Tensor &GradWeight, Tensor &GradBias);

/// Forward transposed convolution; weight [IC, OC, KH, KW], bias [OC]
/// (empty to skip). Each output starts at the bias (or +0.0) and adds its
/// (ic, ih, iw) taps in ascending order, zero inputs included; the weights
/// must be finite, since 0 * inf would poison the sum.
Tensor convTranspose2d(const Tensor &Input, const Tensor &Weight,
                       const Tensor &Bias, const ConvGeometry &Geom);

/// Gradients of convTranspose2d.
Tensor convTranspose2dBackward(const Tensor &Input, const Tensor &Weight,
                               const Tensor &GradOutput,
                               const ConvGeometry &Geom, Tensor &GradWeight,
                               Tensor &GradBias);

/// Elementwise max(x, 0).
Tensor relu(const Tensor &Input);

/// Elementwise derivative mask: 1 where Input > 0 else 0.
Tensor reluMask(const Tensor &Input);

/// Row-wise argmax of a rank-2 tensor.
std::vector<int64_t> argmaxRows(const Tensor &Logits);

/// Numerically stable row-wise softmax of a rank-2 tensor.
Tensor softmaxRows(const Tensor &Logits);

} // namespace genprove

#endif // GENPROVE_TENSOR_OPS_H
