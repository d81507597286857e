//===- tensor/ops.h - Tensor kernels ---------------------------*- C++ -*-===//
///
/// \file
/// The numeric kernels: matmul (plus the transposed-A variant backprop
/// uses), the fused interval affine map behind Linear, and 2-D convolution and
/// transposed convolution. Both convolutions run on one batch-innermost
/// tap kernel; interval radii go through the same kernel with |W| (a box
/// with center c and radius r maps through an affine layer as
/// c' = W c + b, r' = |W| r), which the layers memoize.
///
/// The kernels behind the layers read and write rows where they lie: a
/// batch is a list of row pointers, so the region engine hands over each
/// region's own storage without staging a batch. The Tensor entry points
/// wrap the row forms. Every one of them gives no work to an input
/// component that is zero in every row of a block (a dead input): its
/// terms are ±0 and change no sum that started at +0.0 (docs/PERFORMANCE.md).
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

/// Pointers to the dim(0) contiguous rows of a tensor, for the row forms.
std::vector<const double *> rowPointers(const Tensor &T);
std::vector<double *> rowPointers(Tensor &T);

/// C = A(MxK) * B(KxN); wraps matmulRows, so B must be finite: a k at
/// which A is zero gets no step, which matches the dense sum only when it
/// drops no 0 * inf term. Callers pass layer weights (W^T for a Linear),
/// which loadNetwork and each optimizer step check, or the unfolded
/// training activations of conv2dBackward.
Tensor matmul(const Tensor &A, const Tensor &B);

/// Row form of matmul, behind every Linear map: writes the M rows
/// C[i] = A[i] * B (+ Bias[0, N) after the full dot, when Bias is not
/// null) for rows A[i] of K doubles, B [K, N] and rows C[i] of N doubles.
/// Every output element accumulates ascending k from +0.0. A k at which
/// A is zero in every row of a 4-row block (or in a leftover row) gets no
/// step, since its ±0 terms change no such sum; NaN and Inf count as
/// nonzero. B must be finite: 0 * inf would poison the sum.
void matmulRows(const double *const *A, int64_t M, const Tensor &B,
                const double *Bias, double *const *C);

/// C = A^T(KxM -> MxK as given) * B. A is (KxM), result (MxN): C = Aᵀ B.
Tensor matmulTransA(const Tensor &A, const Tensor &B);

/// Interval affine map through a Linear weight supplied pre-transposed, in
/// row form: Wt is W^T [K, N] for a weight W [N, K]. One streaming pass
/// over Wt computes, per input row i (K doubles each),
///   OutC[i]   = Centers[i] * Wt + Bias       (center image)
///   OutR[i]   = Radii[i]   * |Wt|            (radius image)
///   OutMags[i]= Mags[i]    * |Wt|            (optional magnitude image)
/// with |Wt| taken elementwise in registers. Every output element
/// accumulates one ascending-k chain from +0.0 and the bias lands after
/// the full dot, so each plane is bit-identical to the dot product of the
/// row with W (or |W|) followed by a bias pass, and the center plane to
/// matmulRows; with the output dimension contiguous the chains vectorize
/// across outputs, which the strict-FP dot-product form cannot. A k at
/// which every plane of a row is zero gets no step.
/// Mags/OutMags may be null to skip the magnitude plane; Wt must be
/// finite.
void fusedBoxAffineRows(const double *const *Centers,
                        const double *const *Radii, const double *const *Mags,
                        int64_t M, const Tensor &Wt, const Tensor &Bias,
                        double *const *OutC, double *const *OutR,
                        double *const *OutMags);

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
/// bias, bit-identical to the direct loop for any thread count and ISA
/// when the weights are finite: dead inputs get no tap (conv2dRows), so a
/// 0 * inf term would not poison the sum. Wraps conv2dRows.
Tensor conv2d(const Tensor &Input, const Tensor &Weight, const Tensor &Bias,
              const ConvGeometry &Geom);

/// Row form of conv2d: N samples [IC, H, W] stored flat at In[i], outputs
/// [OC, OH, OW] written at Out[i]. An input component that is zero in
/// every row of a 32-row block gets no transpose slot and no tap; NaN and
/// Inf count as nonzero. The weights must be finite.
void conv2dRows(const double *const *In, int64_t N, int64_t H, int64_t W,
                const Tensor &Weight, const Tensor &Bias,
                const ConvGeometry &Geom, double *const *Out);

/// Gradients of conv2d. GradOutput is NCHW with the conv output shape.
/// Returns gradient w.r.t. input; accumulates into GradWeight/GradBias.
Tensor conv2dBackward(const Tensor &Input, const Tensor &Weight,
                      const Tensor &GradOutput, const ConvGeometry &Geom,
                      Tensor &GradWeight, Tensor &GradBias);

/// Forward transposed convolution; weight [IC, OC, KH, KW], bias [OC]
/// (empty to skip). Each output starts at the bias (or +0.0) and adds its
/// (ic, ih, iw) taps in ascending order; the weights must be finite, since
/// 0 * inf would poison the sum. Wraps convTranspose2dRows.
Tensor convTranspose2d(const Tensor &Input, const Tensor &Weight,
                       const Tensor &Bias, const ConvGeometry &Geom);

/// Row form of convTranspose2d, laid out like conv2dRows. Dead inputs get
/// no slot and no tap unless a bias element is -0.0: a +0.0 tap would
/// turn that sum into +0.0, so such a layer keeps every tap.
void convTranspose2dRows(const double *const *In, int64_t N, int64_t H,
                         int64_t W, const Tensor &Weight, const Tensor &Bias,
                         const ConvGeometry &Geom, double *const *Out);

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
