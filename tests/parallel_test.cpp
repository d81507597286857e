//===- tests/parallel_test.cpp - parallel runtime & determinism -*- C++ -*-===//
//
// The parallel engine's contract is "bit-identical results for any thread
// count". These tests pin that down at three levels: the pool itself
// (coverage, fixed chunking, ordered reduction, nested calls, exception
// propagation), the tiled kernels (bitwise equal to a naive ascending-k
// reference), and a full propagation (regions, stats and memory peak
// identical at 1 and 4 threads). Plus a concurrency hammer for the
// memory model and the |W| cache.
//
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/domains/memory_model.h"
#include "src/domains/propagate.h"
#include "src/nn/abs_cache.h"
#include "src/nn/activations.h"
#include "src/nn/conv.h"
#include "src/nn/conv_transpose.h"
#include "src/nn/linear.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace genprove {
namespace {

/// Pin the global pool to N threads for the scope of one test body, then
/// restore the environment-derived default.
struct ThreadCount {
  explicit ThreadCount(int64_t N) { ThreadPool::global().setThreads(N); }
  ~ThreadCount() { ThreadPool::global().setThreads(ThreadPool::envThreads()); }
};

bool bitIdentical(const Tensor &A, const Tensor &B) {
  return A.numel() == B.numel() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.numel()) * sizeof(double)) == 0;
}

TEST(ThreadPoolTest, SetThreadsClamps) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.threads(), 1);
  Pool.setThreads(100000);
  EXPECT_EQ(Pool.threads(), 256);
  Pool.setThreads(3);
  EXPECT_EQ(Pool.threads(), 3);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int64_t Threads : {int64_t(1), int64_t(4)}) {
    ThreadPool Pool(Threads);
    for (int64_t N : {int64_t(0), int64_t(1), int64_t(5), int64_t(64),
                      int64_t(1000)}) {
      for (int64_t Grain : {int64_t(0), int64_t(1), int64_t(7)}) {
        std::vector<std::atomic<int>> Hits(static_cast<size_t>(N));
        Pool.parallelFor(N, Grain, [&](int64_t Begin, int64_t End) {
          for (int64_t I = Begin; I < End; ++I)
            Hits[static_cast<size_t>(I)].fetch_add(1);
        });
        for (int64_t I = 0; I < N; ++I)
          ASSERT_EQ(Hits[static_cast<size_t>(I)].load(), 1)
              << "threads=" << Threads << " N=" << N << " grain=" << Grain
              << " index=" << I;
      }
    }
  }
}

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  const int64_t N = 531, Grain = 13;
  auto chunksAt = [&](int64_t Threads) {
    ThreadPool Pool(Threads);
    std::mutex Mu;
    std::set<std::pair<int64_t, int64_t>> Chunks;
    Pool.parallelFor(N, Grain, [&](int64_t Begin, int64_t End) {
      std::lock_guard<std::mutex> Lock(Mu);
      Chunks.insert({Begin, End});
    });
    return Chunks;
  };
  const auto Serial = chunksAt(1);
  const auto Parallel = chunksAt(4);
  EXPECT_EQ(Serial, Parallel);
  // Fixed chunking: ceil(531 / 13) chunks, last one short.
  EXPECT_EQ(Serial.size(), static_cast<size_t>((N + Grain - 1) / Grain));
}

TEST(ThreadPoolTest, ReductionGroupingFixedAcrossThreadCounts) {
  // Values spread over many magnitudes so FP addition order matters.
  Rng R(1234);
  const Tensor V = Tensor::randn({1, 100000}, R, 1.0);
  auto sumAt = [&](int64_t Threads) {
    ThreadPool Pool(Threads);
    return Pool.parallelReduce(
        V.numel(), 0, 0.0,
        [&](int64_t Begin, int64_t End) {
          double S = 0.0;
          for (int64_t I = Begin; I < End; ++I)
            S += std::exp(V[I]); // non-trivial per-element work
          return S;
        },
        [](double A, double B) { return A + B; });
  };
  const double S1 = sumAt(1);
  const double S4 = sumAt(4);
  EXPECT_EQ(std::memcmp(&S1, &S4, sizeof(double)), 0)
      << "serial " << S1 << " vs parallel " << S4;
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineAndCompletes) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(64 * 16);
  Pool.parallelFor(64, 1, [&](int64_t OBegin, int64_t OEnd) {
    for (int64_t O = OBegin; O < OEnd; ++O) {
      EXPECT_TRUE(ThreadPool::inParallelRegion());
      // The nested call must run inline (no deadlock, no oversubscription)
      // and still cover its whole range.
      Pool.parallelFor(16, 1, [&](int64_t IBegin, int64_t IEnd) {
        for (int64_t I = IBegin; I < IEnd; ++I)
          Hits[static_cast<size_t>(O * 16 + I)].fetch_add(1);
      });
    }
  });
  EXPECT_FALSE(ThreadPool::inParallelRegion());
  for (auto &H : Hits)
    ASSERT_EQ(H.load(), 1);
}

TEST(ThreadPoolTest, PropagatesChunkException) {
  for (int64_t Threads : {int64_t(1), int64_t(4)}) {
    ThreadPool Pool(Threads);
    EXPECT_THROW(Pool.parallelFor(100, 1,
                                  [&](int64_t Begin, int64_t) {
                                    if (Begin == 42)
                                      throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must stay usable after an exceptional job.
    std::atomic<int64_t> Sum{0};
    Pool.parallelFor(10, 1, [&](int64_t Begin, int64_t End) {
      for (int64_t I = Begin; I < End; ++I)
        Sum.fetch_add(I);
    });
    EXPECT_EQ(Sum.load(), 45);
  }
}

// --- Tiled kernels vs a naive ascending-k reference -----------------------
//
// The tiling/unrolling in ops.cpp keeps each output element's accumulation
// in ascending-k order, so the result must be bitwise equal to the naive
// triple loop — not merely close.

Tensor naiveMatmul(const Tensor &A, const Tensor &B) {
  const int64_t M = A.dim(0), K = A.dim(1), N = B.dim(1);
  Tensor C({M, N});
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      double S = 0.0;
      for (int64_t Kk = 0; Kk < K; ++Kk)
        S += A.at(I, Kk) * B.at(Kk, J);
      C.at(I, J) = S;
    }
  return C;
}

Tensor naiveMatmulTransA(const Tensor &A, const Tensor &B) {
  const int64_t K = A.dim(0), M = A.dim(1), N = B.dim(1);
  Tensor C({M, N});
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      double S = 0.0;
      for (int64_t Kk = 0; Kk < K; ++Kk)
        S += A.at(Kk, I) * B.at(Kk, J);
      C.at(I, J) = S;
    }
  return C;
}

Tensor naiveMatmulTransB(const Tensor &A, const Tensor &B) {
  const int64_t M = A.dim(0), K = A.dim(1), N = B.dim(0);
  Tensor C({M, N});
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      double S = 0.0;
      for (int64_t Kk = 0; Kk < K; ++Kk)
        S += A.at(I, Kk) * B.at(J, Kk);
      C.at(I, J) = S;
    }
  return C;
}

/// Rows of A plus Bias broadcast, as the dot-form bias pass adds it.
Tensor addBiasRows(Tensor A, const Tensor &Bias) {
  for (int64_t I = 0; I < A.dim(0); ++I)
    for (int64_t J = 0; J < A.dim(1); ++J)
      A.at(I, J) += Bias[J];
  return A;
}

Tensor absTensor(Tensor A) {
  for (int64_t I = 0; I < A.numel(); ++I)
    A[I] = std::fabs(A[I]);
  return A;
}

/// Every Linear plane on its memoized W^T against the naive dot form
/// over W = Bt [Out, In], bit for bit, at 1 and 4 threads.
void expectLinearMatchesDotForm(const Tensor &A, const Tensor &Bt,
                                const Tensor &Bias, const Tensor &Radii,
                                const Tensor &Mags, const std::string &Label) {
  const int64_t M = A.dim(0), K = A.dim(1), N = Bt.dim(0);
  Linear Lin(K, N);
  Lin.weight() = Bt.clone();
  Lin.bias() = Bias.clone();
  const Tensor AbsW = absTensor(Bt);
  const Tensor RefTb = naiveMatmulTransB(A, Bt);
  const Tensor RefAffine = addBiasRows(RefTb, Bias);
  const Tensor RefRadius = naiveMatmulTransB(Radii, AbsW);
  const Tensor RefMag = naiveMatmulTransB(Mags, AbsW);
  const Tensor RefBiasImage =
      addBiasRows(naiveMatmulTransB(Tensor({M, K}), Bt), Bias);
  for (int64_t Threads : {int64_t(1), int64_t(4)}) {
    ThreadCount Scope(Threads);
    const std::string At = Label + " @" + std::to_string(Threads);
    EXPECT_TRUE(bitIdentical(Lin.applyAffine(A), RefAffine))
        << "applyAffine " << At;
    EXPECT_TRUE(bitIdentical(Lin.applyLinear(A), RefTb))
        << "applyLinear " << At;
    Tensor Center = A.clone(), Radius = Radii.clone();
    Lin.applyToBox(Center, Radius);
    EXPECT_TRUE(bitIdentical(Center, RefAffine)) << "applyToBox center " << At;
    EXPECT_TRUE(bitIdentical(Radius, RefRadius)) << "applyToBox radius " << At;
    Tensor PCenter = A.clone(), PRadius = Radii.clone(), PMag = Mags.clone();
    Tensor BiasImage;
    Lin.applyToBox(PCenter, PRadius, &PMag, &BiasImage);
    EXPECT_TRUE(bitIdentical(PCenter, RefAffine))
        << "applyToBox planes center " << At;
    EXPECT_TRUE(bitIdentical(PRadius, RefRadius))
        << "applyToBox planes radius " << At;
    EXPECT_TRUE(bitIdentical(PMag, RefMag))
        << "applyToBox planes magnitude " << At;
    EXPECT_TRUE(bitIdentical(BiasImage, RefBiasImage))
        << "applyToBox planes bias image " << At;
  }
}

TEST(TiledGemmTest, BitwiseEqualToNaiveReference) {
  Rng R(99);
  // 300 crosses the k-tile boundary (GemmTileK = 256); 23/29 exercise the
  // 4-row unroll tails.
  for (auto Dims : {std::vector<int64_t>{23, 17, 29},
                    std::vector<int64_t>{4, 300, 8},
                    std::vector<int64_t>{1, 64, 1}}) {
    const int64_t M = Dims[0], K = Dims[1], N = Dims[2];
    const Tensor A = Tensor::randn({M, K}, R, 1.0);
    const Tensor B = Tensor::randn({K, N}, R, 1.0);
    const Tensor At = Tensor::randn({K, M}, R, 1.0);
    const Tensor Bt = Tensor::randn({N, K}, R, 1.0);
    const Tensor RefAB = naiveMatmul(A, B);
    const Tensor RefTa = naiveMatmulTransA(At, B);
    const Tensor RefTb = naiveMatmulTransB(A, Bt);
    const std::string Label = std::to_string(M) + "x" + std::to_string(K) +
                              "x" + std::to_string(N);
    for (int64_t Threads : {int64_t(1), int64_t(4)}) {
      ThreadCount Scope(Threads);
      EXPECT_TRUE(bitIdentical(matmul(A, B), RefAB))
          << "matmul " << Label << " @" << Threads;
      EXPECT_TRUE(bitIdentical(matmulTransA(At, B), RefTa))
          << "matmulTransA " << Label << " @" << Threads;
    }
    const Tensor Bias = Tensor::randn({N}, R, 1.0);
    const Tensor Radii = absTensor(Tensor::randn({M, K}, R, 1.0));
    const Tensor Mags = absTensor(Tensor::randn({M, K}, R, 1.0));
    expectLinearMatchesDotForm(A, Bt, Bias, Radii, Mags, Label);
  }
}

// --- Dead inputs -------------------------------------------------------------
//
// Adjacent pieces of one segment share their ReLU pattern, so a post-ReLU
// batch has components that are zero in every row. The kernels give them
// no slot, tap or k-step; the cases below must still match the dense
// reference loops bit for bit.

/// Zero the components picked with probability DeadFrac in every row of
/// each batch (one pick shared by all of them); every third such entry is
/// -0.0. Returns the dead components in ascending order.
std::vector<int64_t> zeroColumns(std::initializer_list<Tensor *> Batches,
                                 double DeadFrac, Rng &R) {
  const Tensor &First = **Batches.begin();
  const int64_t Rows = First.dim(0), N = First.numel() / Rows;
  std::vector<int64_t> Dead;
  for (int64_t J = 0; J < N; ++J)
    if (R.uniform() < DeadFrac)
      Dead.push_back(J);
  for (Tensor *T : Batches)
    for (int64_t I = 0; I < Rows; ++I)
      for (int64_t J : Dead)
        (*T)[I * N + J] = (I + J) % 3 == 0 ? -0.0 : 0.0;
  return Dead;
}

/// Zero the first Count rows of each batch: an all-zero 32-row block.
void zeroRows(std::initializer_list<Tensor *> Batches, int64_t Count) {
  for (Tensor *T : Batches) {
    const int64_t N = T->numel() / T->dim(0);
    std::fill_n(T->data(), std::min(Count, T->dim(0)) * N, 0.0);
  }
}

/// The dead-input shapes of a batch: row-shared dead components at one of
/// two fractions, an all-zero block (under a -0.0 bias element, where the
/// caller passes a bias), and a NaN in an otherwise dead column.
enum class DeadCase { Fraction0, Fraction1, ZeroBlock, NaNInDeadColumn };

const char *deadCaseName(DeadCase Case) {
  switch (Case) {
  case DeadCase::Fraction0:
    return "dead fraction 0";
  case DeadCase::Fraction1:
    return "dead fraction 1";
  case DeadCase::ZeroBlock:
    return "all-zero block";
  case DeadCase::NaNInDeadColumn:
    return "NaN in a dead column";
  }
  return "?";
}

/// Apply a dead case to the batches (Points first) and the bias (may be
/// null), with the two dead fractions measured for the layer kind.
void applyDeadCase(DeadCase Case, const double (&Fractions)[2],
                   std::initializer_list<Tensor *> Batches, Tensor *Bias,
                   Rng &R) {
  const std::vector<int64_t> Dead = zeroColumns(
      Batches, Case == DeadCase::Fraction1 ? Fractions[1] : Fractions[0], R);
  Tensor &Points = **Batches.begin();
  const int64_t Rows = Points.dim(0), N = Points.numel() / Rows;
  if (Case == DeadCase::ZeroBlock) {
    zeroRows(Batches, 32);
    if (Bias)
      (*Bias)[0] = -0.0;
  }
  if (Case == DeadCase::NaNInDeadColumn && !Dead.empty())
    Points[(Rows / 2) * N + Dead[Dead.size() / 2]] =
        std::numeric_limits<double>::quiet_NaN();
}

constexpr DeadCase AllDeadCases[] = {DeadCase::Fraction0, DeadCase::Fraction1,
                                     DeadCase::ZeroBlock,
                                     DeadCase::NaNInDeadColumn};

// Linear inputs on the paper cells are 30-49% dead across a block. (The
// bias image copies the bias, whose zero sign is unspecified, so these
// cases keep a nonzero bias.)
TEST(TiledGemmTest, DeadColumnsBitwiseEqualToNaiveReference) {
  Rng R(31);
  const double Fractions[2] = {0.30, 0.49};
  // K = 300 crosses the k-tile boundary; 19 and 37 rows leave 4-row tails.
  const int64_t K = 300, N = 29;
  for (int64_t M : {int64_t(1), int64_t(19), int64_t(37)})
    for (DeadCase Case : AllDeadCases) {
      Tensor A = relu(Tensor::randn({M, K}, R, 1.0));
      Tensor Radii = relu(Tensor::randn({M, K}, R, 1.0));
      Tensor Mags = absTensor(Tensor::randn({M, K}, R, 1.0));
      Tensor Bias = Tensor::randn({N}, R, 1.0);
      applyDeadCase(Case, Fractions, {&A, &Radii, &Mags}, nullptr, R);
      const Tensor B = Tensor::randn({K, N}, R, 1.0);
      const Tensor Bt = Tensor::randn({N, K}, R, 1.0);
      const std::string Label =
          std::string(deadCaseName(Case)) + ", " + std::to_string(M) + " rows";
      const Tensor RefAB = naiveMatmul(A, B);
      for (int64_t Threads : {int64_t(1), int64_t(4)}) {
        ThreadCount Scope(Threads);
        EXPECT_TRUE(bitIdentical(matmul(A, B), RefAB))
            << "matmul " << Label << " @" << Threads;
      }
      expectLinearMatchesDotForm(A, Bt, Bias, Radii, Mags, Label);
    }
}

TEST(TiledGemmTest, ConvBitIdenticalAcrossThreadCounts) {
  Rng R(7);
  ConvGeometry Geom;
  Geom.InChannels = 3;
  Geom.OutChannels = 5;
  Geom.KernelH = Geom.KernelW = 3;
  Geom.Stride = 2;
  Geom.Padding = 1;
  const Tensor In = Tensor::randn({4, 3, 9, 9}, R, 1.0);
  const Tensor W = Tensor::randn({5, 3, 3, 3}, R, 0.5);
  const Tensor Bias = Tensor::randn({5}, R, 0.1);
  Tensor Fwd1, Fwd4;
  {
    ThreadCount Scope(1);
    Fwd1 = conv2d(In, W, Bias, Geom);
  }
  {
    ThreadCount Scope(4);
    Fwd4 = conv2d(In, W, Bias, Geom);
  }
  EXPECT_TRUE(bitIdentical(Fwd1, Fwd4));

  ConvGeometry TGeom;
  TGeom.InChannels = 5;
  TGeom.OutChannels = 3;
  TGeom.KernelH = TGeom.KernelW = 4;
  TGeom.Stride = 2;
  TGeom.Padding = 1;
  const Tensor TIn = relu(Tensor::randn({3, 5, 5, 5}, R, 1.0));
  const Tensor TW = Tensor::randn({5, 3, 4, 4}, R, 0.5);
  Tensor Up1, Up4;
  {
    ThreadCount Scope(1);
    Up1 = convTranspose2d(TIn, TW, Tensor(), TGeom);
  }
  {
    ThreadCount Scope(4);
    Up4 = convTranspose2d(TIn, TW, Tensor(), TGeom);
  }
  EXPECT_TRUE(bitIdentical(Up1, Up4));
}

// The conv layers' accumulation order: Conv2d starts at +0.0, adds its
// in-bounds (ic, kh, kw) taps in ascending order, then the bias;
// ConvTranspose2d starts at the bias (or +0.0) and adds its (ic, ih, iw)
// taps in ascending order.

// Both index raw storage: Tensor::at's range-checked shape lookups would
// dominate the sanitizer builds' run time.

Tensor naiveConv2d(const Tensor &In, const Tensor &W, const Tensor &Bias,
                   const ConvGeometry &G) {
  const int64_t N = In.dim(0), C = In.dim(1), H = In.dim(2), Wd = In.dim(3);
  const int64_t OC = G.OutChannels, KH = G.KernelH, KW = G.KernelW;
  const auto [OH, OW] = G.convOutput(H, Wd);
  Tensor Out({N, OC, OH, OW});
  const double *X = In.data(), *Wt = W.data();
  double *Y = Out.data();
  for (int64_t S = 0; S < N; ++S)
    for (int64_t Oc = 0; Oc < OC; ++Oc)
      for (int64_t Oh = 0; Oh < OH; ++Oh)
        for (int64_t Ow = 0; Ow < OW; ++Ow) {
          double Acc = 0.0;
          for (int64_t Ic = 0; Ic < C; ++Ic)
            for (int64_t Kh = 0; Kh < KH; ++Kh)
              for (int64_t Kw = 0; Kw < KW; ++Kw) {
                const int64_t Ih = Oh * G.Stride - G.Padding + Kh;
                const int64_t Iw = Ow * G.Stride - G.Padding + Kw;
                if (Ih >= 0 && Ih < H && Iw >= 0 && Iw < Wd)
                  Acc += X[((S * C + Ic) * H + Ih) * Wd + Iw] *
                         Wt[((Oc * C + Ic) * KH + Kh) * KW + Kw];
              }
          Y[((S * OC + Oc) * OH + Oh) * OW + Ow] =
              Bias.numel() ? Acc + Bias[Oc] : Acc;
        }
  return Out;
}

Tensor naiveConvTranspose2d(const Tensor &In, const Tensor &W,
                            const Tensor &Bias, const ConvGeometry &G) {
  const int64_t N = In.dim(0), C = In.dim(1), H = In.dim(2), Wd = In.dim(3);
  const int64_t OC = G.OutChannels, KH = G.KernelH, KW = G.KernelW;
  const auto [OH, OW] = G.convTransposeOutput(H, Wd);
  Tensor Out({N, OC, OH, OW});
  const double *X = In.data(), *Wt = W.data();
  double *Y = Out.data();
  for (int64_t S = 0; S < N; ++S)
    for (int64_t Oc = 0; Oc < OC; ++Oc)
      for (int64_t Oh = 0; Oh < OH; ++Oh)
        for (int64_t Ow = 0; Ow < OW; ++Ow) {
          double Acc = Bias.numel() ? Bias[Oc] : 0.0;
          for (int64_t Ic = 0; Ic < C; ++Ic)
            for (int64_t Ih = 0; Ih < H; ++Ih) {
              const int64_t Kh = Oh + G.Padding - Ih * G.Stride;
              if (Kh < 0 || Kh >= KH)
                continue;
              for (int64_t Iw = 0; Iw < Wd; ++Iw) {
                const int64_t Kw = Ow + G.Padding - Iw * G.Stride;
                if (Kw >= 0 && Kw < KW)
                  Acc += X[((S * C + Ic) * H + Ih) * Wd + Iw] *
                         Wt[((Ic * OC + Oc) * KH + Kh) * KW + Kw];
              }
            }
          Y[((S * OC + Oc) * OH + Oh) * OW + Ow] = Acc;
        }
  return Out;
}

struct ConvLayerCase {
  const char *Name;
  bool Transposed;
  int64_t InC, OutC, Kernel, Stride, Padding, OutPadding, Size;
};

const ConvLayerCase ConvLayerCases[] = {
    // The paper decoders and classifiers at 16x16 images.
    {"decoder convT 32->16 s2", true, 32, 16, 3, 2, 1, 1, 8},
    {"decoder convT 16->3 s1", true, 16, 3, 3, 1, 1, 0, 16},
    {"ConvSmall conv 3->16 k4 s2", false, 3, 16, 4, 2, 1, 0, 16},
    {"ConvSmall conv 16->32 k4 s2", false, 16, 32, 4, 2, 1, 0, 8},
    {"ConvMed conv 3->12 k4 s1", false, 3, 12, 4, 1, 1, 0, 16},
    {"ConvMed conv 12->16 k4 s2, odd input", false, 12, 16, 4, 2, 1, 0, 15},
    {"ConvLarge conv 16->16 k4 s2", false, 16, 16, 4, 2, 1, 0, 16},
    {"ConvLarge conv 32->32 k4 s2", false, 32, 32, 4, 2, 1, 0, 8},
    // Padding 0, odd sizes, output padding, kernels smaller than the
    // stride.
    {"conv k3 s1 p0, odd", false, 2, 5, 3, 1, 0, 0, 7},
    {"conv k1 s2 p0", false, 3, 4, 1, 2, 0, 0, 9},
    {"conv k2 s3 p1, odd", false, 2, 3, 2, 3, 1, 0, 11},
    {"convT k3 s2 p0 op1, odd", true, 3, 5, 3, 2, 0, 1, 5},
    {"convT k4 s2 p1", true, 5, 3, 4, 2, 1, 0, 5},
    {"convT k1 s2 p0 op1", true, 4, 2, 1, 2, 0, 1, 4},
    {"convT k2 s3 p0 op2, odd", true, 3, 4, 2, 3, 0, 2, 3},
};
/// The first eight cases are the paper's layers.
constexpr size_t NumPaperConvCases = 8;

/// A random weight for the case's layer.
Tensor convCaseWeight(const ConvLayerCase &C, Rng &R) {
  return C.Transposed
             ? Tensor::randn({C.InC, C.OutC, C.Kernel, C.Kernel}, R, 0.5)
             : Tensor::randn({C.OutC, C.InC, C.Kernel, C.Kernel}, R, 0.5);
}

/// Every conv entry point (applyAffine, applyLinear, applyToBox with and
/// without the magnitude and bias-image planes) of the case's layer with
/// weight W and bias Bias against the naive loops above, bit for bit, at
/// 1 and 4 threads.
void expectConvMatchesNaive(const ConvLayerCase &C, const Tensor &W,
                            const Tensor &Bias, const Tensor &Points,
                            const Tensor &Dirs, const Tensor &Radii,
                            const Tensor &Mags, const std::string &Label) {
  std::unique_ptr<Layer> L;
  ConvGeometry G;
  if (C.Transposed) {
    auto T = std::make_unique<ConvTranspose2d>(
        C.InC, C.OutC, C.Kernel, C.Stride, C.Padding, C.OutPadding);
    T->weight() = W.clone();
    T->bias() = Bias.clone();
    G = T->geometry();
    L = std::move(T);
  } else {
    auto T = std::make_unique<Conv2d>(C.InC, C.OutC, C.Kernel, C.Stride,
                                      C.Padding);
    T->weight() = W.clone();
    T->bias() = Bias.clone();
    G = T->geometry();
    L = std::move(T);
  }
  auto Naive = [&](const Tensor &In, const Tensor &Wt, const Tensor &B) {
    return C.Transposed ? naiveConvTranspose2d(In, Wt, B, G)
                        : naiveConv2d(In, Wt, B, G);
  };
  const Tensor AbsW = absTensor(W);
  const Tensor RefAffine = Naive(Points, W, Bias);
  const Tensor RefLinear = Naive(Dirs, W, Tensor());
  const Tensor RefRadius = Naive(Radii, AbsW, Tensor());
  const Tensor RefMag = Naive(Mags, AbsW, Tensor());
  const Tensor RefBiasImage = Naive(Tensor(Points.shape()), W, Bias);
  for (int64_t Threads : {int64_t(1), int64_t(4)}) {
    ThreadCount Scope(Threads);
    const std::string At = std::string(C.Name) + ", " + Label + ", " +
                           std::to_string(Points.dim(0)) + " rows @" +
                           std::to_string(Threads);
    EXPECT_TRUE(bitIdentical(L->applyAffine(Points), RefAffine))
        << "applyAffine " << At;
    EXPECT_TRUE(bitIdentical(L->applyLinear(Dirs), RefLinear))
        << "applyLinear " << At;
    Tensor Center = Points.clone(), Radius = Radii.clone();
    L->applyToBox(Center, Radius);
    EXPECT_TRUE(bitIdentical(Center, RefAffine)) << "applyToBox center " << At;
    EXPECT_TRUE(bitIdentical(Radius, RefRadius)) << "applyToBox radius " << At;
    Tensor PCenter = Points.clone(), PRadius = Radii.clone(),
           PMag = Mags.clone(), BiasImage;
    L->applyToBox(PCenter, PRadius, &PMag, &BiasImage);
    EXPECT_TRUE(bitIdentical(PCenter, RefAffine))
        << "applyToBox planes center " << At;
    EXPECT_TRUE(bitIdentical(PRadius, RefRadius))
        << "applyToBox planes radius " << At;
    EXPECT_TRUE(bitIdentical(PMag, RefMag))
        << "applyToBox planes magnitude " << At;
    EXPECT_TRUE(bitIdentical(BiasImage, RefBiasImage))
        << "applyToBox planes bias image " << At;
  }
}

// Every conv layer entry point against the naive loops above, bit for bit,
// at 1 and 4 threads, on 1, 19 and 37 rows: a single row, a lone partial
// block the kernel pads to 24 vector lanes, and one full 32-row block
// plus a partial one.
TEST(TiledGemmTest, ConvLayersBitwiseEqualToNaiveReference) {
  Rng R(7);
  for (const ConvLayerCase &C : ConvLayerCases) {
    const Tensor Bias = Tensor::randn({C.OutC}, R, 0.1);
    const Tensor W = convCaseWeight(C, R);
    for (int64_t Rows : {int64_t(1), int64_t(19), int64_t(37)}) {
      const Shape InShape({Rows, C.InC, C.Size, C.Size});
      // Post-ReLU points (exact zeros) as the engine feeds them.
      const Tensor Points = relu(Tensor::randn(InShape, R, 1.0));
      const Tensor Dirs = Tensor::randn(InShape, R, 1.0);
      const Tensor Radii = relu(Tensor::randn(InShape, R, 1.0));
      const Tensor Mags = absTensor(Tensor::randn(InShape, R, 1.0));
      expectConvMatchesNaive(C, W, Bias, Points, Dirs, Radii, Mags,
                             "relu(randn)");
    }
  }
}

// The paper's conv layers that read post-ReLU inputs, on row-shared dead
// inputs at the fractions measured on the paper cells (29-44% of
// post-ReLU Conv2d inputs, 63-71% of ConvTranspose2d inputs), an all-zero
// block under a -0.0 bias element (a ConvTranspose2d must then keep its
// dense taps), and a NaN in an otherwise dead column. The row counts give
// a lone block padded to 24 and to 16 lanes, a single row, and a full
// block plus one row.
TEST(TiledGemmTest, ConvDeadInputsBitwiseEqualToNaiveReference) {
  Rng R(13);
  const std::pair<DeadCase, int64_t> Runs[] = {
      {DeadCase::Fraction0, 19},
      {DeadCase::Fraction1, 33},
      {DeadCase::Fraction1, 1},
      {DeadCase::ZeroBlock, 33},
      {DeadCase::NaNInDeadColumn, 9}};
  const double ConvFractions[2] = {0.29, 0.44};
  const double ConvTFractions[2] = {0.63, 0.71};
  for (size_t I = 0; I < NumPaperConvCases; ++I) {
    const ConvLayerCase &C = ConvLayerCases[I];
    // A classifier's first layer reads the decoder's dense image.
    if (C.InC == 3)
      continue;
    const Tensor W = convCaseWeight(C, R);
    for (const auto &[Case, Rows] : Runs) {
      const Shape InShape({Rows, C.InC, C.Size, C.Size});
      Tensor Points = relu(Tensor::randn(InShape, R, 1.0));
      Tensor Dirs = Tensor::randn(InShape, R, 1.0);
      Tensor Radii = relu(Tensor::randn(InShape, R, 1.0));
      Tensor Mags = absTensor(Tensor::randn(InShape, R, 1.0));
      Tensor Bias = Tensor::randn({C.OutC}, R, 0.1);
      applyDeadCase(Case, C.Transposed ? ConvTFractions : ConvFractions,
                    {&Points, &Dirs, &Radii, &Mags}, &Bias, R);
      expectConvMatchesNaive(C, W, Bias, Points, Dirs, Radii, Mags,
                             deadCaseName(Case));
    }
  }
}

/// The rows of Batch, each copied into its own buffer at an address off a
/// 64-byte boundary, as the engine hands a layer each region's storage.
std::vector<std::vector<double>> separateRows(const Tensor &Batch) {
  const int64_t Rows = Batch.dim(0), Width = Batch.numel() / Rows;
  std::vector<std::vector<double>> Bufs(static_cast<size_t>(Rows));
  for (int64_t I = 0; I < Rows; ++I) {
    Bufs[static_cast<size_t>(I)].assign(static_cast<size_t>(Width + 2), 0.0);
    std::copy_n(Batch.data() + I * Width, Width,
                Bufs[static_cast<size_t>(I)].data() + 1);
  }
  return Bufs;
}

/// The start of the row in Buf: one or two doubles in, whichever is off a
/// 64-byte boundary.
double *offLine(std::vector<double> &Buf) {
  double *Row = Buf.data() + 1;
  return reinterpret_cast<uintptr_t>(Row) % 64 == 0 ? Row + 1 : Row;
}

// The paper's conv layers and two odd geometries the way the engine calls
// them: 115 rows (three full 32-row blocks and one of 19, padded to 24
// lanes), each in its own buffer off a cache line, in shuffled order, at 1
// and 4 threads. Several blocks make the kernel accumulate each block's
// whole output plane, whose pixel count is not always a multiple of the
// 8-pixel write-back tile (225, 49, 25 and 100 here). The inputs are
// dense (the classifiers' first layers read the decoder's image) or have
// half their components zero in every row. Every output element, written
// over a NaN, must equal the direct loops bit for bit.
TEST(TiledGemmTest, ConvSeparateRowBlocksBitwiseEqualToNaiveReference) {
  Rng R(17);
  const ConvLayerCase Cases[] = {
      {"decoder convT 32->16 s2", true, 32, 16, 3, 2, 1, 1, 8},
      {"decoder convT 16->3 s1", true, 16, 3, 3, 1, 1, 0, 16},
      {"ConvSmall conv 3->16 k4 s2", false, 3, 16, 4, 2, 1, 0, 16},
      {"ConvSmall conv 16->32 k4 s2", false, 16, 32, 4, 2, 1, 0, 8},
      {"ConvMed conv 3->12 k4 s1", false, 3, 12, 4, 1, 1, 0, 16},
      {"ConvMed conv 12->16 k4 s2", false, 12, 16, 4, 2, 1, 0, 15},
      {"ConvLarge conv 3->16 k3 s1", false, 3, 16, 3, 1, 1, 0, 16},
      {"ConvLarge conv 16->16 k4 s2", false, 16, 16, 4, 2, 1, 0, 16},
      {"ConvLarge conv 16->32 k3 s1", false, 16, 32, 3, 1, 1, 0, 8},
      {"ConvLarge conv 32->32 k4 s2", false, 32, 32, 4, 2, 1, 0, 8},
      {"conv k3 s1 p0, odd", false, 2, 5, 3, 1, 0, 0, 7},
      {"convT k2 s3 p0 op2, odd", true, 3, 4, 2, 3, 0, 2, 3}};
  const int64_t Rows = 115;
  for (const ConvLayerCase &C : Cases) {
    std::unique_ptr<Layer> L;
    ConvGeometry G;
    const Tensor W = convCaseWeight(C, R);
    const Tensor Bias = Tensor::randn({C.OutC}, R, 0.1);
    if (C.Transposed) {
      auto T = std::make_unique<ConvTranspose2d>(
          C.InC, C.OutC, C.Kernel, C.Stride, C.Padding, C.OutPadding);
      T->weight() = W.clone();
      T->bias() = Bias.clone();
      G = T->geometry();
      L = std::move(T);
    } else {
      auto T = std::make_unique<Conv2d>(C.InC, C.OutC, C.Kernel, C.Stride,
                                        C.Padding);
      T->weight() = W.clone();
      T->bias() = Bias.clone();
      G = T->geometry();
      L = std::move(T);
    }
    const Shape InShape({1, C.InC, C.Size, C.Size});
    const int64_t OutWidth = L->outputShape(InShape).numel();
    for (bool Dead : {false, true}) {
      // A first layer's image has no zero component.
      if (Dead && C.InC == 3)
        continue;
      Tensor In = Tensor::randn({Rows, C.InC, C.Size, C.Size}, R, 1.0);
      if (C.InC != 3)
        In = relu(In);
      if (Dead)
        zeroColumns({&In}, 0.5, R);
      const Tensor Ref = C.Transposed ? naiveConvTranspose2d(In, W, Bias, G)
                                      : naiveConv2d(In, W, Bias, G);
      std::vector<std::vector<double>> InBufs = separateRows(In);
      // Row pointer I reads and writes sample Order[I].
      std::vector<int64_t> Order(static_cast<size_t>(Rows));
      for (int64_t I = 0; I < Rows; ++I)
        Order[static_cast<size_t>(I)] = I;
      for (int64_t I = Rows - 1; I > 0; --I)
        std::swap(Order[static_cast<size_t>(I)],
                  Order[static_cast<size_t>(R.below(I + 1))]);
      for (int64_t Threads : {int64_t(1), int64_t(4)}) {
        ThreadCount Scope(Threads);
        std::vector<std::vector<double>> OutBufs(
            static_cast<size_t>(Rows),
            std::vector<double>(static_cast<size_t>(OutWidth + 2),
                                std::numeric_limits<double>::quiet_NaN()));
        std::vector<const double *> InPtrs;
        std::vector<double *> OutPtrs;
        for (int64_t Sample : Order) {
          InPtrs.push_back(offLine(InBufs[static_cast<size_t>(Sample)]));
          OutPtrs.push_back(offLine(OutBufs[static_cast<size_t>(Sample)]));
        }
        L->applyAffineRows(InShape, InPtrs.data(), OutPtrs.data(), Rows,
                           /*WithBias=*/true);
        int64_t Mismatched = 0;
        for (int64_t I = 0; I < Rows; ++I)
          Mismatched += std::memcmp(
                            offLine(OutBufs[static_cast<size_t>(I)]),
                            Ref.data() + I * OutWidth,
                            static_cast<size_t>(OutWidth) * sizeof(double)) != 0;
        EXPECT_EQ(Mismatched, 0)
            << C.Name << (Dead ? ", half dead" : ", dense") << " @"
            << Threads;
      }
    }
  }
}

// --- End-to-end propagation determinism -----------------------------------

Sequential makeRandomMlp(Rng &R, const std::vector<int64_t> &Dims) {
  Sequential Net;
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.8);
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.5);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

struct PropagationSnapshot {
  std::vector<Region> Regions;
  PropagateStats Stats;
  size_t PeakBytes = 0;
};

PropagationSnapshot propagateAt(int64_t Threads) {
  ThreadCount Scope(Threads);
  Rng R(4242);
  Sequential Net = makeRandomMlp(R, {6, 24, 24, 4});
  const auto Layers = Net.view();
  const Shape InShape({1, 6});
  const Tensor E1 = Tensor::randn({1, 6}, R);
  const Tensor E2 = Tensor::randn({1, 6}, R);
  // A curve and a box region together exercise both ReLU transfer paths.
  std::vector<Region> Init{makeSegmentRegion(E1, E2, 0.75),
                           makeBoxRegion(E1, Tensor::randn({1, 6}, R, 0.01),
                                         0.25)};
  for (int64_t J = 0; J < 6; ++J)
    Init[1].Radius[J] = std::fabs(Init[1].Radius[J]);
  const PropagateConfig Config;
  PropagationSnapshot Snap;
  DeviceMemoryModel Memory(64ull << 20);
  Snap.Regions = propagateRegions(Layers, InShape, std::move(Init), Config,
                                  Memory, Snap.Stats);
  Snap.PeakBytes = Memory.peakBytes();
  return Snap;
}

TEST(DeterminismTest, PropagationBitIdenticalAcrossThreadCounts) {
  const PropagationSnapshot Serial = propagateAt(1);
  const PropagationSnapshot Parallel = propagateAt(4);

  EXPECT_EQ(Serial.Stats.NumSplits, Parallel.Stats.NumSplits);
  EXPECT_EQ(Serial.Stats.MaxRegions, Parallel.Stats.MaxRegions);
  EXPECT_EQ(Serial.Stats.MaxNodes, Parallel.Stats.MaxNodes);
  EXPECT_EQ(Serial.Stats.NumBoxed, Parallel.Stats.NumBoxed);
  EXPECT_EQ(Serial.Stats.OutOfMemory, Parallel.Stats.OutOfMemory);
  EXPECT_EQ(Serial.PeakBytes, Parallel.PeakBytes);

  ASSERT_EQ(Serial.Regions.size(), Parallel.Regions.size());
  ASSERT_FALSE(Serial.Regions.empty());
  for (size_t I = 0; I < Serial.Regions.size(); ++I) {
    const Region &A = Serial.Regions[I];
    const Region &B = Parallel.Regions[I];
    ASSERT_EQ(A.Kind, B.Kind) << "region " << I;
    // Weights and parameter intervals are doubles produced by the same
    // FP operations; compare bitwise, not approximately.
    EXPECT_EQ(std::memcmp(&A.Weight, &B.Weight, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&A.T0, &B.T0, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&A.T1, &B.T1, sizeof(double)), 0);
    if (A.Kind == RegionKind::Curve) {
      EXPECT_TRUE(bitIdentical(A.Coeffs, B.Coeffs)) << "region " << I;
    } else {
      EXPECT_TRUE(bitIdentical(A.Center, B.Center)) << "region " << I;
      EXPECT_TRUE(bitIdentical(A.Radius, B.Radius)) << "region " << I;
    }
  }
}

// --- DeviceMemoryModel under concurrency ----------------------------------

TEST(MemoryModelConcurrencyTest, TryChargeHammer) {
  const size_t Budget = 10000;
  DeviceMemoryModel Memory(Budget);
  ThreadPool Pool(4);
  std::atomic<int64_t> Accepted{0}, Rejected{0};
  const int64_t N = 20000;
  Pool.parallelFor(N, 1, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I) {
      // Sizes sweep 1..2*Budget: half fit, half must be rejected.
      const size_t Bytes = static_cast<size_t>(I % 20000) + 1;
      if (Memory.tryCharge(Bytes))
        Accepted.fetch_add(1);
      else
        Rejected.fetch_add(1);
    }
  });
  EXPECT_EQ(Accepted.load() + Rejected.load(), N);
  EXPECT_EQ(Accepted.load(), N / 2);
  // tryCharge never records a failing charge: the peak is the largest
  // accepted size, and the model is not exhausted.
  EXPECT_EQ(Memory.peakBytes(), Budget);
  EXPECT_FALSE(Memory.exhausted());
}

TEST(MemoryModelConcurrencyTest, ChargePeakIsCasMax) {
  DeviceMemoryModel Memory(0); // unlimited
  ThreadPool Pool(4);
  const int64_t N = 50000;
  Pool.parallelFor(N, 1, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      Memory.charge(static_cast<size_t>(I) + 1);
  });
  // Concurrent charges must never lose the maximum.
  EXPECT_EQ(Memory.peakBytes(), static_cast<size_t>(N));
}

// --- |W| cache -------------------------------------------------------------

TEST(AbsWeightCacheTest, RebuildsOnInvalidateAndSurvivesConcurrentReads) {
  Rng R(5);
  Tensor W = Tensor::randn({8, 8}, R, 1.0);
  AbsWeightCache Cache;
  const Tensor &Abs = Cache.get(W);
  ASSERT_EQ(Abs.numel(), W.numel());
  for (int64_t I = 0; I < W.numel(); ++I)
    EXPECT_EQ(Abs[I], std::fabs(W[I]));
  // Same version: get() must not rebuild (same storage address).
  EXPECT_EQ(&Cache.get(W), &Abs);

  W[0] = -123.5;
  Cache.invalidate();
  EXPECT_EQ(Cache.get(W)[0], 123.5);

  // Concurrent readers on a stable version all see |W|.
  ThreadPool Pool(4);
  std::atomic<int64_t> Mismatches{0};
  Pool.parallelFor(2000, 1, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I) {
      const Tensor &A = Cache.get(W);
      if (A[0] != 123.5)
        Mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(Mismatches.load(), 0);
}

TEST(AbsWeightCacheTest, LinearAccessorInvalidates) {
  Linear L(3, 2);
  L.weight() = Tensor({2, 3}, {1.0, -2.0, 3.0, -4.0, 5.0, -6.0});
  L.bias() = Tensor({2}, {0.0, 0.0});
  const Tensor Center({1, 3}, {0.0, 0.0, 0.0});
  const Tensor Radius({1, 3}, {1.0, 1.0, 1.0});
  Tensor C1 = Center.clone(), R1 = Radius.clone();
  L.applyToBox(C1, R1);
  // |W| row sums: 1+2+3 = 6, 4+5+6 = 15.
  EXPECT_DOUBLE_EQ(R1[0], 6.0);
  EXPECT_DOUBLE_EQ(R1[1], 15.0);
  // Mutating through the accessor must invalidate the cached |W|.
  L.weight()[0] = -10.0;
  Tensor C2 = Center.clone(), R2 = Radius.clone();
  L.applyToBox(C2, R2);
  EXPECT_DOUBLE_EQ(R2[0], 15.0);
  EXPECT_DOUBLE_EQ(R2[1], 15.0);
}

} // namespace
} // namespace genprove
