//===- tests/nn_test.cpp - layers, architectures, serialization -*- C++ -*-===//

#include "src/nn/architectures.h"
#include "src/nn/conv.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/nn/serialize.h"
#include "src/parallel/thread_pool.h"
#include "src/train/optimizer.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

namespace genprove {
namespace {

TEST(Linear, AffineInterfaceMatchesForward) {
  Rng R(1);
  Linear L(4, 3);
  L.weight() = Tensor::randn({3, 4}, R);
  L.bias() = Tensor::randn({3}, R);
  Tensor X = Tensor::randn({2, 4}, R);
  const Tensor Fwd = L.forward(X);
  const Tensor Aff = L.applyAffine(X);
  for (int64_t I = 0; I < Fwd.numel(); ++I)
    EXPECT_DOUBLE_EQ(Fwd[I], Aff[I]);
  // Linear part + bias = affine.
  const Tensor Lin = L.applyLinear(X);
  for (int64_t I = 0; I < 2; ++I)
    for (int64_t J = 0; J < 3; ++J)
      EXPECT_NEAR(Lin.at(I, J) + L.bias()[J], Aff.at(I, J), 1e-12);
}

/// The dot form of y = x W^T + b: per output an ascending-k sum from +0.0
/// over W's row, then the bias.
Tensor dotFormLinear(const Tensor &X, const Tensor &W, const Tensor &B) {
  const int64_t Rows = X.dim(0), In = X.dim(1), Out = W.dim(0);
  Tensor Y({Rows, Out});
  for (int64_t I = 0; I < Rows; ++I)
    for (int64_t J = 0; J < Out; ++J) {
      double S = 0.0;
      for (int64_t K = 0; K < In; ++K)
        S += X.at(I, K) * W.at(J, K);
      Y.at(I, J) = S + B[J];
    }
  return Y;
}

/// Index of the first element whose bits differ, or -1.
int64_t firstBitDifference(const Tensor &A, const Tensor &B) {
  if (A.numel() != B.numel())
    return 0;
  for (int64_t I = 0; I < A.numel(); ++I) {
    const double X = A[I], Y = B[I];
    if (std::memcmp(&X, &Y, sizeof(double)) != 0)
      return I;
  }
  return -1;
}

// The training forward runs the verifier's W^T GEMM: it must equal the dot
// form bit for bit, on a 4-row block whose column 2 is zero in every row
// (the GEMM gives it no k-step) and with -0.0 inputs, at 1 and 4 threads.
// After an optimizer step through the pointers params() handed out, the
// next forward must read the stepped weights, not a W^T built before it.
TEST(Linear, ForwardIsTheDotFormAndReadsSteppedWeights) {
  Rng R(23);
  Linear L(7, 5);
  L.weight() = Tensor::randn({5, 7}, R);
  L.bias() = Tensor::randn({5}, R);
  Tensor X = Tensor::randn({6, 7}, R);
  for (int64_t I = 0; I < 4; ++I)
    X.at(I, 2) = I % 2 == 0 ? -0.0 : 0.0;
  X.at(1, 5) = -0.0;
  X.at(4, 0) = -0.0;
  // Const views: the mutable accessors would invalidate the W^T memo.
  const Tensor &W = static_cast<const Linear &>(L).weight();
  const Tensor &B = static_cast<const Linear &>(L).bias();
  Sgd Opt(L.params(), 0.1);

  const auto ExpectDotForm = [&](const char *When) {
    for (int64_t Threads : {int64_t(1), int64_t(4)}) {
      ThreadPool::global().setThreads(Threads);
      EXPECT_EQ(firstBitDifference(L.forward(X), dotFormLinear(X, W, B)), -1)
          << When << " @" << Threads;
    }
  };
  ExpectDotForm("initial weights");
  const Tensor Before = W.clone();
  L.backward(Tensor::randn({6, 5}, R));
  Opt.step();
  EXPECT_NE(firstBitDifference(W, Before), -1);
  ExpectDotForm("stepped weights");
  ThreadPool::global().setThreads(ThreadPool::envThreads());
}

TEST(Linear, BoxPropagationIsSound) {
  Rng R(2);
  Linear L(5, 4);
  L.weight() = Tensor::randn({4, 5}, R);
  L.bias() = Tensor::randn({4}, R);
  Tensor Center = Tensor::randn({1, 5}, R);
  Tensor Radius = Tensor::rand({1, 5}, R, 0.0, 0.5);
  Tensor C = Center.clone(), Rr = Radius.clone();
  L.applyToBox(C, Rr);
  // 100 random points inside the input box must land inside the output box.
  for (int Trial = 0; Trial < 100; ++Trial) {
    Tensor X({1, 5});
    for (int64_t J = 0; J < 5; ++J)
      X[J] = Center[J] + Radius[J] * R.uniform(-1.0, 1.0);
    const Tensor Y = L.applyAffine(X);
    for (int64_t J = 0; J < 4; ++J) {
      EXPECT_LE(Y[J], C[J] + Rr[J] + 1e-9);
      EXPECT_GE(Y[J], C[J] - Rr[J] - 1e-9);
    }
  }
}

TEST(Conv, BoxPropagationIsSound) {
  Rng R(3);
  Conv2d L(2, 3, 3, 2, 1);
  L.weight() = Tensor::randn({3, 2, 3, 3}, R);
  L.bias() = Tensor::randn({3}, R);
  Tensor Center = Tensor::randn({1, 2, 6, 6}, R);
  Tensor Radius = Tensor::rand({1, 2, 6, 6}, R, 0.0, 0.3);
  Tensor C = Center.clone(), Rr = Radius.clone();
  L.applyToBox(C, Rr);
  for (int Trial = 0; Trial < 50; ++Trial) {
    Tensor X(Center.shape());
    for (int64_t J = 0; J < X.numel(); ++J)
      X[J] = Center[J] + Radius[J] * R.uniform(-1.0, 1.0);
    const Tensor Y = L.applyAffine(X);
    for (int64_t J = 0; J < Y.numel(); ++J) {
      EXPECT_LE(Y[J], C[J] + Rr[J] + 1e-9);
      EXPECT_GE(Y[J], C[J] - Rr[J] - 1e-9);
    }
  }
}

// The box radius image is the convolution of the radius with |W|.
TEST(Conv, AbsVariantUsesAbsoluteWeights) {
  Rng R(15);
  Conv2d L(2, 3, 3, 1, 1);
  L.weight() = Tensor::randn({3, 2, 3, 3}, R);
  L.bias() = Tensor::randn({3}, R);
  Tensor Wabs = L.weight().clone();
  for (int64_t I = 0; I < Wabs.numel(); ++I)
    Wabs[I] = std::fabs(Wabs[I]);
  Tensor C = Tensor::randn({1, 2, 6, 6}, R);
  Tensor Rr = Tensor::rand({1, 2, 6, 6}, R, 0.0, 1.0); // nonnegative radius
  const Tensor Ref = conv2d(Rr, Wabs, Tensor(), L.geometry());
  L.applyToBox(C, Rr);
  ASSERT_EQ(Rr.shape(), Ref.shape());
  for (int64_t I = 0; I < Rr.numel(); ++I)
    EXPECT_EQ(Rr[I], Ref[I]);
}

TEST(Architectures, OutputShapes) {
  const int64_t S = 16;
  EXPECT_EQ(makeConvSmall(3, S, 10).outputShape({1, 3, S, S}),
            Shape({1, 10}));
  EXPECT_EQ(makeConvMed(3, S, 21).outputShape({1, 3, S, S}), Shape({1, 21}));
  EXPECT_EQ(makeConvLarge(3, S, 8).outputShape({1, 3, S, S}), Shape({1, 8}));
  EXPECT_EQ(makeConvBiggest(1, S, 10).outputShape({1, 1, S, S}),
            Shape({1, 10}));
  EXPECT_EQ(makeEncoderSmall(3, S, 16).outputShape({1, 3, S, S}),
            Shape({1, 16}));
  EXPECT_EQ(makeEncoder(3, S, 16).outputShape({1, 3, S, S}), Shape({1, 16}));
  EXPECT_EQ(makeDecoder(8, 3, S).outputShape({1, 8}), Shape({1, 3, S, S}));
  EXPECT_EQ(makeDecoderSmall(8, 3, S).outputShape({1, 8}),
            Shape({1, 3, S, S}));
}

TEST(Architectures, NeuronCountsOrdered) {
  const int64_t S = 16;
  const int64_t Small = makeConvSmall(3, S, 10).countNeurons({1, 3, S, S});
  const int64_t Med = makeConvMed(3, S, 10).countNeurons({1, 3, S, S});
  const int64_t Large = makeConvLarge(3, S, 10).countNeurons({1, 3, S, S});
  const int64_t Biggest = makeConvBiggest(1, S, 10).countNeurons({1, 1, S, S});
  EXPECT_LT(Small, Med);
  EXPECT_LT(Med, Large);
  EXPECT_LT(Large, Biggest);
  EXPECT_GT(Small, 500); // sanity: non-trivial networks
}

TEST(Architectures, ClassifierByNameMatches) {
  const Sequential A = makeClassifier("ConvSmall", 3, 16, 10);
  const Sequential B = makeConvSmall(3, 16, 10);
  EXPECT_EQ(A.size(), B.size());
}

TEST(Init, KaimingProducesReasonableScales) {
  Rng R(4);
  Sequential Net = makeConvSmall(3, 16, 10);
  kaimingInit(Net, R);
  // Forward of a random input should produce finite non-degenerate output.
  Tensor X = Tensor::rand({4, 3, 16, 16}, R);
  const Tensor Y = Net.forward(X);
  double MaxAbs = 0.0;
  for (int64_t I = 0; I < Y.numel(); ++I) {
    ASSERT_TRUE(std::isfinite(Y[I]));
    MaxAbs = std::max(MaxAbs, std::fabs(Y[I]));
  }
  EXPECT_GT(MaxAbs, 1e-4);
  EXPECT_LT(MaxAbs, 1e4);
}

TEST(Serialize, RoundTripsEveryLayerKind) {
  Rng R(5);
  Sequential Net = makeDecoder(8, 3, 16); // FC + ReLU + Reshape + ConvT
  kaimingInit(Net, R);
  Sequential Cls = makeConvSmall(3, 16, 10); // Conv + Flatten + FC
  kaimingInit(Cls, R);

  const std::string Path1 = "/tmp/genprove_test_net1.bin";
  const std::string Path2 = "/tmp/genprove_test_net2.bin";
  ASSERT_TRUE(saveNetwork(Net, Path1));
  ASSERT_TRUE(saveNetwork(Cls, Path2));

  auto Loaded1 = loadNetwork(Path1);
  auto Loaded2 = loadNetwork(Path2);
  ASSERT_TRUE(Loaded1.has_value());
  ASSERT_TRUE(Loaded2.has_value());

  Tensor Z = Tensor::randn({2, 8}, R);
  const Tensor A = Net.forward(Z);
  const Tensor B = Loaded1->forward(Z);
  ASSERT_EQ(A.shape(), B.shape());
  for (int64_t I = 0; I < A.numel(); ++I)
    EXPECT_DOUBLE_EQ(A[I], B[I]);

  Tensor X = Tensor::rand({2, 3, 16, 16}, R);
  const Tensor C = Cls.forward(X);
  const Tensor D = Loaded2->forward(X);
  for (int64_t I = 0; I < C.numel(); ++I)
    EXPECT_DOUBLE_EQ(C[I], D[I]);

  std::remove(Path1.c_str());
  std::remove(Path2.c_str());
}

/// A one-layer network file in saveNetwork's format, written field by
/// field so a test can store any geometry or parameter it likes.
class NetFile {
public:
  explicit NetFile(Layer::Kind Kind) {
    put<uint64_t>(0x47454e50524f5645ull); // "GENPROVE"
    put<uint32_t>(1);                     // format version
    put<uint64_t>(1);                     // layer count
    put<uint32_t>(static_cast<uint32_t>(Kind));
  }
  NetFile &i64(std::initializer_list<int64_t> Vs) {
    for (int64_t V : Vs)
      put(V);
    return *this;
  }
  /// A stored tensor of the given shape; element 0 is \p First, the rest
  /// are 0.5.
  NetFile &tensor(std::vector<int64_t> Dims, double First = 0.5) {
    put<uint64_t>(Dims.size());
    int64_t N = 1;
    for (int64_t D : Dims) {
      put(D);
      N *= D;
    }
    for (int64_t I = 0; I < N; ++I)
      put(I == 0 ? First : 0.5);
    return *this;
  }
  std::optional<Sequential> load(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    std::fwrite(Bytes.data(), 1, Bytes.size(), F);
    std::fclose(F);
    auto Net = loadNetwork(Path);
    std::remove(Path.c_str());
    return Net;
  }

private:
  template <typename T> void put(T V) {
    const auto *P = reinterpret_cast<const char *>(&V);
    Bytes.insert(Bytes.end(), P, P + sizeof(V));
  }
  std::string Bytes;
};

TEST(Serialize, RejectsMalformedLayers) {
  using K = Layer::Kind;
  const double Nan = std::nan("");
  const double Inf = INFINITY;
  struct Case {
    const char *What;
    NetFile File;
  };
  const Case Bad[] = {
      {"Linear with zero inputs",
       NetFile(K::Linear).i64({0, 2}).tensor({2, 0}).tensor({2})},
      {"Linear whose weight would overflow the element count",
       NetFile(K::Linear).i64({int64_t(1) << 40, int64_t(1) << 40})},
      {"Linear with a NaN weight",
       NetFile(K::Linear).i64({3, 2}).tensor({2, 3}, Nan).tensor({2})},
      {"Linear with an infinite bias",
       NetFile(K::Linear).i64({3, 2}).tensor({2, 3}).tensor({2}, Inf)},
      {"Linear with a transposed weight",
       NetFile(K::Linear).i64({3, 2}).tensor({3, 2}).tensor({2})},
      {"Linear with a short bias",
       NetFile(K::Linear).i64({3, 2}).tensor({2, 3}).tensor({1})},
      {"Conv2d with stride 0", NetFile(K::Conv2d)
                                   .i64({1, 2, 3, 0, 1})
                                   .tensor({2, 1, 3, 3})
                                   .tensor({2})},
      {"Conv2d with zero output channels", NetFile(K::Conv2d)
                                               .i64({1, 0, 3, 1, 1})
                                               .tensor({0, 1, 3, 3})
                                               .tensor({0})},
      {"Conv2d with kernel 0", NetFile(K::Conv2d)
                                   .i64({1, 2, 0, 1, 1})
                                   .tensor({2, 1, 0, 0})
                                   .tensor({2})},
      {"Conv2d with negative padding", NetFile(K::Conv2d)
                                           .i64({1, 2, 3, 1, -1})
                                           .tensor({2, 1, 3, 3})
                                           .tensor({2})},
      {"Conv2d with a NaN weight", NetFile(K::Conv2d)
                                       .i64({1, 2, 3, 1, 1})
                                       .tensor({2, 1, 3, 3}, Nan)
                                       .tensor({2})},
      {"ConvTranspose2d with a 1-element weight",
       NetFile(K::ConvTranspose2d)
           .i64({2, 1, 3, 2, 1, 1})
           .tensor({1})
           .tensor({1})},
      {"ConvTranspose2d with zero input channels",
       NetFile(K::ConvTranspose2d)
           .i64({0, 1, 3, 2, 1, 1})
           .tensor({0, 1, 3, 3})
           .tensor({1})},
      {"ConvTranspose2d with output padding equal to the stride",
       NetFile(K::ConvTranspose2d)
           .i64({2, 1, 3, 2, 1, 2})
           .tensor({2, 1, 3, 3})
           .tensor({1})},
      {"ConvTranspose2d with negative output padding",
       NetFile(K::ConvTranspose2d)
           .i64({2, 1, 3, 2, 1, -1})
           .tensor({2, 1, 3, 3})
           .tensor({1})},
      {"ConvTranspose2d with an infinite weight",
       NetFile(K::ConvTranspose2d)
           .i64({2, 1, 3, 2, 1, 1})
           .tensor({2, 1, 3, 3}, -Inf)
           .tensor({1})},
      {"Reshape with a zero dimension", NetFile(K::Reshape).i64({4, 0, 2})},
      {"Reshape with a negative dimension",
       NetFile(K::Reshape).i64({4, -2, 2})},
  };
  const std::string Path = "/tmp/genprove_malformed_layer.bin";
  for (const Case &C : Bad)
    EXPECT_FALSE(C.File.load(Path).has_value()) << C.What;

  // The same records with sound fields load: the table above fails for
  // the stated reason, not for a framing mistake.
  EXPECT_TRUE(NetFile(K::Linear).i64({3, 2}).tensor({2, 3}).tensor({2})
                  .load(Path)
                  .has_value());
  EXPECT_TRUE(NetFile(K::Conv2d).i64({1, 2, 3, 1, 0}).tensor({2, 1, 3, 3})
                  .tensor({2})
                  .load(Path)
                  .has_value());
  EXPECT_TRUE(NetFile(K::ConvTranspose2d).i64({2, 1, 3, 2, 1, 1})
                  .tensor({2, 1, 3, 3})
                  .tensor({1})
                  .load(Path)
                  .has_value());
  EXPECT_TRUE(NetFile(K::Reshape).i64({4, 1, 2}).load(Path).has_value());
}

TEST(Serialize, RejectionCarriesTheReason) {
  const std::string Path = "/tmp/genprove_reason_net.bin";
  Sequential Net;
  Net.add(std::make_unique<Linear>(3, 2));
  auto Conv = std::make_unique<Conv2d>(1, 2, 3, 1, 1);
  Conv->weight().at(1, 0, 2, 2) = std::nan("");
  Net.add(std::move(Conv));
  ASSERT_TRUE(saveNetwork(Net, Path));
  std::string Why;
  EXPECT_FALSE(loadNetwork(Path, &Why).has_value());
  EXPECT_EQ(Why, "layer 1: weight has a non-finite element");
  std::remove(Path.c_str());
}

TEST(Serialize, MissingFileReturnsNullopt) {
  EXPECT_FALSE(loadNetwork("/tmp/definitely_missing_genprove.bin").has_value());
}

TEST(Sequential, ViewAndConcat) {
  Sequential A = makeDecoder(8, 3, 16);
  Sequential B = makeConvSmall(3, 16, 10);
  const auto V = concatViews(A.view(), B.view());
  EXPECT_EQ(V.size(), A.size() + B.size());
}

} // namespace
} // namespace genprove
