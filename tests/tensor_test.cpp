//===- tests/tensor_test.cpp - tensor and kernel unit tests -----*- C++ -*-===//

#include "src/tensor/ops.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace genprove {
namespace {

TEST(Shape, BasicProperties) {
  Shape S({2, 3, 4});
  EXPECT_EQ(S.rank(), 3u);
  EXPECT_EQ(S.numel(), 24);
  EXPECT_EQ(S.dim(0), 2);
  EXPECT_EQ(S.dim(-1), 4);
  EXPECT_EQ(S.toString(), "[2, 3, 4]");
  EXPECT_EQ(S, Shape({2, 3, 4}));
  EXPECT_NE(S, Shape({2, 3, 5}));
}

TEST(Tensor, ConstructionAndFill) {
  Tensor T({2, 3});
  EXPECT_EQ(T.numel(), 6);
  for (int64_t I = 0; I < 6; ++I)
    EXPECT_DOUBLE_EQ(T[I], 0.0);
  T.fill(2.5);
  EXPECT_DOUBLE_EQ(T.at(1, 2), 2.5);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor T({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor R = T.reshaped({3, 2});
  EXPECT_DOUBLE_EQ(R.at(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(R.at(0, 1), 2.0);
}

TEST(Tensor, AxpyAndScale) {
  Tensor A({1, 3}, {1, 2, 3});
  Tensor B({1, 3}, {10, 20, 30});
  A.axpy(0.5, B);
  EXPECT_DOUBLE_EQ(A[0], 6.0);
  A.scaleInPlace(2.0);
  EXPECT_DOUBLE_EQ(A[0], 12.0);
}

TEST(Matmul, MatchesNaive) {
  Rng R(3);
  Tensor A = Tensor::randn({5, 7}, R);
  Tensor B = Tensor::randn({7, 4}, R);
  Tensor C = matmul(A, B);
  for (int64_t I = 0; I < 5; ++I)
    for (int64_t J = 0; J < 4; ++J) {
      double Acc = 0.0;
      for (int64_t K = 0; K < 7; ++K)
        Acc += A.at(I, K) * B.at(K, J);
      EXPECT_NEAR(C.at(I, J), Acc, 1e-12);
    }
}

TEST(Matmul, TransposedVariantsAgree) {
  Rng R(5);
  Tensor A = Tensor::randn({6, 3}, R);
  Tensor B = Tensor::randn({6, 4}, R);
  // A^T B via matmulTransA should equal manual transpose + matmul.
  Tensor At({3, 6});
  for (int64_t I = 0; I < 6; ++I)
    for (int64_t J = 0; J < 3; ++J)
      At.at(J, I) = A.at(I, J);
  const Tensor Ref = matmul(At, B);
  const Tensor Got = matmulTransA(A, B);
  for (int64_t I = 0; I < Ref.numel(); ++I)
    EXPECT_NEAR(Got[I], Ref[I], 1e-12);

  // A B^T via matmulTransB.
  Tensor C = Tensor::randn({5, 3}, R);
  Tensor D = Tensor::randn({2, 3}, R);
  Tensor Dt({3, 2});
  for (int64_t I = 0; I < 2; ++I)
    for (int64_t J = 0; J < 3; ++J)
      Dt.at(J, I) = D.at(I, J);
  const Tensor Ref2 = matmul(C, Dt);
  const Tensor Got2 = matmulTransB(C, D);
  for (int64_t I = 0; I < Ref2.numel(); ++I)
    EXPECT_NEAR(Got2[I], Ref2[I], 1e-12);
}

/// Direct convolution reference in conv2d's accumulation order: +0.0, the
/// in-bounds (ic, kh, kw) taps ascending, then the bias.
Tensor convNaive(const Tensor &In, const Tensor &W, const Tensor &B,
                 const ConvGeometry &G) {
  const int64_t N = In.dim(0), C = In.dim(1), H = In.dim(2), Wd = In.dim(3);
  const auto [OH, OW] = G.convOutput(H, Wd);
  Tensor Out({N, G.OutChannels, OH, OW});
  for (int64_t S = 0; S < N; ++S)
    for (int64_t Oc = 0; Oc < G.OutChannels; ++Oc)
      for (int64_t Oh = 0; Oh < OH; ++Oh)
        for (int64_t Ow = 0; Ow < OW; ++Ow) {
          double Acc = 0.0;
          for (int64_t Ic = 0; Ic < C; ++Ic)
            for (int64_t Kh = 0; Kh < G.KernelH; ++Kh)
              for (int64_t Kw = 0; Kw < G.KernelW; ++Kw) {
                const int64_t Ih = Oh * G.Stride - G.Padding + Kh;
                const int64_t Iw = Ow * G.Stride - G.Padding + Kw;
                if (Ih < 0 || Ih >= H || Iw < 0 || Iw >= Wd)
                  continue;
                Acc += In.at(S, Ic, Ih, Iw) *
                       W.at(Oc, Ic, Kh, Kw);
              }
          Out.at(S, Oc, Oh, Ow) = B.numel() ? Acc + B[Oc] : Acc;
        }
  return Out;
}

struct ConvCase {
  int64_t InC, OutC, K, S, P, Size;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, Im2colMatchesNaive) {
  const ConvCase CC = GetParam();
  Rng R(9);
  ConvGeometry G;
  G.InChannels = CC.InC;
  G.OutChannels = CC.OutC;
  G.KernelH = G.KernelW = CC.K;
  G.Stride = CC.S;
  G.Padding = CC.P;
  Tensor In = Tensor::randn({2, CC.InC, CC.Size, CC.Size}, R);
  Tensor W = Tensor::randn({CC.OutC, CC.InC, CC.K, CC.K}, R);
  Tensor B = Tensor::randn({CC.OutC}, R);
  const Tensor Fast = conv2d(In, W, B, G);
  const Tensor Ref = convNaive(In, W, B, G);
  ASSERT_EQ(Fast.shape(), Ref.shape());
  EXPECT_EQ(std::memcmp(Fast.data(), Ref.data(),
                        static_cast<size_t>(Fast.numel()) * sizeof(double)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParamTest,
    ::testing::Values(ConvCase{1, 4, 3, 1, 1, 8}, ConvCase{3, 16, 4, 2, 1, 16},
                      ConvCase{2, 3, 4, 1, 1, 7}, ConvCase{4, 8, 3, 2, 1, 9},
                      ConvCase{1, 1, 1, 1, 0, 5}));

TEST(ConvTranspose, InvertsConvGeometry) {
  ConvGeometry G;
  G.InChannels = 4;
  G.OutChannels = 2;
  G.KernelH = G.KernelW = 3;
  G.Stride = 2;
  G.Padding = 1;
  G.OutputPadding = 1;
  const auto [OH, OW] = G.convTransposeOutput(8, 8);
  EXPECT_EQ(OH, 16);
  EXPECT_EQ(OW, 16);
}

TEST(ConvTranspose, MatchesAdjointOfConv) {
  // convT with weight W equals the adjoint of conv: <conv(x), y> =
  // <x, convT(y)> when geometries correspond and padding matches.
  Rng R(21);
  ConvGeometry G;
  G.InChannels = 3; // conv input channels
  G.OutChannels = 5;
  G.KernelH = G.KernelW = 3;
  G.Stride = 2;
  G.Padding = 1;
  Tensor X = Tensor::randn({1, 3, 8, 8}, R);
  Tensor W = Tensor::randn({5, 3, 3, 3}, R);
  const Tensor Cx = conv2d(X, W, Tensor(), G); // [1, 5, 4, 4]
  Tensor Y = Tensor::randn(Cx.shape(), R);

  ConvGeometry Gt;
  Gt.InChannels = 5;
  Gt.OutChannels = 3;
  Gt.KernelH = Gt.KernelW = 3;
  Gt.Stride = 2;
  Gt.Padding = 1;
  Gt.OutputPadding = 1; // to reach 8 from 4
  // Transposed-conv weight layout is [IC, OC, KH, KW] = [5, 3, 3, 3]; the
  // adjoint of conv(W) has the same entries with in/out swapped.
  Tensor Wt({5, 3, 3, 3});
  for (int64_t Oc = 0; Oc < 5; ++Oc)
    for (int64_t Ic = 0; Ic < 3; ++Ic)
      for (int64_t Kh = 0; Kh < 3; ++Kh)
        for (int64_t Kw = 0; Kw < 3; ++Kw)
          Wt.at(Oc, Ic, Kh, Kw) = W.at(Oc, Ic, Kh, Kw);
  const Tensor Ty = convTranspose2d(Y, Wt, Tensor(), Gt); // [1, 3, 8, 8]

  double Lhs = 0.0, Rhs = 0.0;
  for (int64_t I = 0; I < Cx.numel(); ++I)
    Lhs += Cx[I] * Y[I];
  for (int64_t I = 0; I < X.numel(); ++I)
    Rhs += X[I] * Ty[I];
  EXPECT_NEAR(Lhs, Rhs, 1e-9);
}

TEST(Relu, ClampsNegatives) {
  Tensor T({1, 4}, {-1.0, 0.0, 2.0, -0.5});
  const Tensor Out = relu(T);
  EXPECT_DOUBLE_EQ(Out[0], 0.0);
  EXPECT_DOUBLE_EQ(Out[2], 2.0);
  const Tensor Mask = reluMask(T);
  EXPECT_DOUBLE_EQ(Mask[0], 0.0);
  EXPECT_DOUBLE_EQ(Mask[1], 0.0);
  EXPECT_DOUBLE_EQ(Mask[2], 1.0);
}

TEST(ArgmaxSoftmax, RowWise) {
  Tensor L({2, 3}, {0.1, 2.0, -1.0, 5.0, 1.0, 4.0});
  const auto Arg = argmaxRows(L);
  EXPECT_EQ(Arg[0], 1);
  EXPECT_EQ(Arg[1], 0);
  const Tensor P = softmaxRows(L);
  double Row0 = P.at(0, 0) + P.at(0, 1) + P.at(0, 2);
  EXPECT_NEAR(Row0, 1.0, 1e-12);
  EXPECT_GT(P.at(0, 1), P.at(0, 0));
}

} // namespace
} // namespace genprove
