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

  /// Training-mode forward pass on a batch (first dim is the batch).
  /// Caches whatever backward() needs.
  virtual Tensor forward(const Tensor &Input) = 0;

  /// Backward pass; accumulates parameter gradients, returns grad of input.
  virtual Tensor backward(const Tensor &GradOutput) = 0;

  /// Affine application with bias to a batch of points. Only valid when
  /// isAffine().
  virtual Tensor applyAffine(const Tensor &Points) const {
    (void)Points;
    fatalError("applyAffine called on a non-affine layer");
  }

  /// Linear part only (no bias); used for direction vectors, curve
  /// coefficients and zonotope generators. Only valid when isAffine().
  virtual Tensor applyLinear(const Tensor &Points) const {
    (void)Points;
    fatalError("applyLinear called on a non-affine layer");
  }

  /// Interval propagation: Center' = A*Center + b, Radius' = |A|*Radius.
  /// Center and Radius are single-sample batches. Only valid when
  /// isAffine().
  virtual void applyToBox(Tensor &Center, Tensor &Radius) const {
    (void)Center;
    (void)Radius;
    fatalError("applyToBox called on a non-affine layer");
  }

  /// Number of round-to-nearest accumulation terms behind one output value
  /// of the affine map (dot-product length plus the bias add). Zero means
  /// the layer is exact in floating point (pure data movement), so
  /// applyToBoxSound() needs no radius inflation.
  virtual int64_t accumulationDepth() const { return 0; }

  /// The box map of the sound transformers: Center' = A*Center + b and
  /// Radius' = |A|*Radius as in applyToBox(), plus a magnitude plane
  /// Mag' = |A|*Mag, and BiasImage set to the image A*0 + b of a zero
  /// input (one row per input row; only its absolute value is meaningful,
  /// the sign of a zero entry is unspecified). Every plane is
  /// bit-identical to the applyToBox() kernels. The base class runs two
  /// applyToBox() calls; Linear streams all three planes in one pass.
  virtual void applyToBoxPlanes(Tensor &Center, Tensor &Radius, Tensor &Mag,
                                Tensor &BiasImage) const;

  /// Sound variant of applyToBox(): same round-to-nearest kernels, but the
  /// output radius is inflated by a rigorous bound on the accumulated
  /// rounding error so [Center' +- Radius'] contains the exact interval
  /// image — and any round-to-nearest forward pass through this layer of a
  /// point in the input box. Implemented once on the base class in terms
  /// of applyToBoxPlanes()/accumulationDepth().
  void applyToBoxSound(Tensor &Center, Tensor &Radius) const;

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
