//===- nn/layer.h - Neural network layer interface -------------*- C++ -*-===//
///
/// \file
/// Layer is the common interface of all network layers. It serves two
/// clients:
///
///  * the trainers, through forward()/backward()/params(); and
///  * the verifier, through the affine interface. Every layer except ReLU
///    is an affine map f(x) = A x + b. The analyzer propagates batches of
///    points (segment/curve coefficient vectors) with applyAffine() and
///    applyLinear() (no bias, for direction vectors and zonotope
///    generators), and interval boxes with applyToBox() (center via the
///    affine map, radius via |A|). ReLU is handled symbolically by the
///    abstract domains, never through this interface.
///
/// The layers implement each map once, in row form: a batch is a list of
/// row pointers, each row one flat sample, read and written where it lies.
/// The region engine hands over each region's own storage that way; the
/// Tensor entry points wrap the row forms. Flatten and Reshape have no row
/// forms: on flat rows their map is the identity (isShapeOnly()), so every
/// client changes only the shape it reads the rows with.
///
/// Dynamic dispatch uses an LLVM-style Kind tag instead of RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_NN_LAYER_H
#define GENPROVE_NN_LAYER_H

#include "src/tensor/tensor.h"

#include <memory>
#include <string>
#include <vector>

namespace genprove {

/// A named parameter tensor paired with its gradient accumulator.
struct Param {
  Tensor *Value = nullptr;
  Tensor *Grad = nullptr;
  std::string Name;
};

/// Base class for all layers.
class Layer {
public:
  enum class Kind : uint8_t {
    Linear,
    Conv2d,
    ConvTranspose2d,
    ReLU,
    Flatten,
    Reshape,
  };

  explicit Layer(Kind LayerKind) : LayerKind(LayerKind) {}
  virtual ~Layer() = default;

  Kind kind() const { return LayerKind; }

  /// True for every layer except ReLU.
  bool isAffine() const { return LayerKind != Kind::ReLU; }

  /// True for Flatten and Reshape: the affine map moves no data, it only
  /// changes the activation shape of the same flat rows.
  bool isShapeOnly() const {
    return LayerKind == Kind::Flatten || LayerKind == Kind::Reshape;
  }

  /// Training-mode forward pass on a batch (first dim is the batch).
  /// Caches whatever backward() needs.
  virtual Tensor forward(const Tensor &Input) = 0;

  /// Backward pass; accumulates parameter gradients, returns grad of input.
  virtual Tensor backward(const Tensor &GradOutput) = 0;

  /// Affine application with bias to a batch of points. Only valid when
  /// isAffine(). Takes the batch by value: pass an rvalue and a
  /// shape-only layer hands back its storage instead of copying it.
  Tensor applyAffine(Tensor Points) const;

  /// Linear part only (no bias); used for direction vectors, curve
  /// coefficients and zonotope generators. Only valid when isAffine().
  Tensor applyLinear(Tensor Points) const;

  /// Interval propagation: Center' = A*Center + b, Radius' = |A|*Radius.
  /// With \p Mag, also the magnitude plane Mag' = |A|*Mag of the sound
  /// transformers; with \p BiasImage, the image A*0 + b of a zero input
  /// (one row per input row; only its absolute value is meaningful, the
  /// sign of a zero entry is unspecified). Each plane is rewritten in
  /// place. Only valid when isAffine().
  void applyToBox(Tensor &Center, Tensor &Radius, Tensor *Mag = nullptr,
                  Tensor *BiasImage = nullptr) const;

  // --- Row forms. Rows input rows In[i], each one sample of the
  // --- single-sample activation shape InShape stored flat, map to output
  // --- rows Out[i] of outputShape(InShape).numel() doubles, which the
  // --- layer writes in full. Input and output rows must not overlap.
  // --- Only valid when isAffine() && !isShapeOnly().

  /// applyAffine (WithBias) or applyLinear (!WithBias) in row form.
  virtual void applyAffineRows(const Shape &InShape, const double *const *In,
                               double *const *Out, int64_t Rows,
                               bool WithBias) const;

  /// applyToBox in row form. Mag and OutMag are both null or both set;
  /// OutBiasImage may be null.
  virtual void applyToBoxRows(const Shape &InShape,
                              const double *const *Center,
                              const double *const *Radius,
                              const double *const *Mag,
                              double *const *OutCenter,
                              double *const *OutRadius, double *const *OutMag,
                              double *const *OutBiasImage, int64_t Rows) const;

  /// Number of round-to-nearest accumulation terms behind one output value
  /// of the affine map (dot-product length plus the bias add). Zero for
  /// the shape-only layers, which are exact in floating point.
  virtual int64_t accumulationDepth() const { return 0; }

  /// Sound variant of applyToBoxRows(): same round-to-nearest kernels, but
  /// the output radius is inflated by a rigorous bound on the accumulated
  /// rounding error so [Center' +- Radius'] contains the exact interval
  /// image — and any round-to-nearest forward pass through this layer of a
  /// point in the input box. Implemented once on the base class in terms
  /// of the applyToBoxRows() planes and accumulationDepth().
  void applyToBoxSoundRows(const Shape &InShape, const double *const *Center,
                           const double *const *Radius,
                           double *const *OutCenter, double *const *OutRadius,
                           int64_t Rows) const;

  /// Learnable parameters (empty for shape/activation layers).
  virtual std::vector<Param> params() { return {}; }

  /// Stable fingerprint of the layer's transfer function: structure plus
  /// the bit patterns of every learnable parameter. Two layers with equal
  /// fingerprints produce bit-identical abstract transformers, which is
  /// what the propagation cache keys on. Parameterless layers hash their
  /// kind and description; parameterized layers memoize the hash against
  /// their AbsWeightCache generation, so any weight mutation through a
  /// mutable accessor is guaranteed to change the fingerprint.
  virtual uint64_t fingerprint() const;

  /// Whether outputShape() accepts \p InputShape (the layer's input
  /// precondition), so callers can refuse a mismatched pipeline instead of
  /// aborting inside it.
  virtual bool acceptsInputShape(const Shape &InputShape) const = 0;

  /// Output activation shape (including batch dim) for a given input
  /// shape; requires acceptsInputShape(InputShape).
  virtual Shape outputShape(const Shape &InputShape) const = 0;

  /// Human-readable description, e.g. "Conv2d(3->16, k4, s2, p1)".
  virtual std::string describe() const = 0;

protected:
  /// The bias image of applyToBoxRows() for layers without a closed form:
  /// the layer's own affine map on Rows shared all-zero input rows.
  void zeroInputImageRows(const Shape &InShape, double *const *Out,
                          int64_t Rows) const;

private:
  const Kind LayerKind;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Reshape a flat [K, N] row batch to the layer activation shape
/// [K, ...SampleShape[1:]] of the single-sample shape \p SampleShape.
/// Both helpers take their tensor by value: pass an rvalue to move its
/// storage instead of copying it.
Tensor rowsToActivations(Tensor Rows, const Shape &SampleShape);

/// Flatten an activation batch [K, ...] back to rows [K, N].
Tensor activationsToRows(Tensor Acts);

} // namespace genprove

#endif // GENPROVE_NN_LAYER_H
