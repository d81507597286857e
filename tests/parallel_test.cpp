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
#include "src/nn/linear.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
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

    // Linear's verifier interface runs on its memoized W^T; every plane
    // must equal the dot form (W = Bt, [Out, In]) that training keeps.
    Linear Lin(K, N);
    Lin.weight() = Bt.clone();
    Lin.bias() = Tensor::randn({N}, R, 1.0);
    const Tensor AbsW = absTensor(Bt);
    const Tensor Radii = absTensor(Tensor::randn({M, K}, R, 1.0));
    const Tensor Mags = absTensor(Tensor::randn({M, K}, R, 1.0));
    const Tensor RefAffine = addBiasRows(RefTb, Lin.bias());
    const Tensor RefRadius = naiveMatmulTransB(Radii, AbsW);
    const Tensor RefMag = naiveMatmulTransB(Mags, AbsW);
    const Tensor RefBiasImage =
        addBiasRows(naiveMatmulTransB(Tensor({M, K}), Bt), Lin.bias());

    for (int64_t Threads : {int64_t(1), int64_t(4)}) {
      ThreadCount Scope(Threads);
      EXPECT_TRUE(bitIdentical(matmul(A, B), RefAB))
          << "matmul " << M << "x" << K << "x" << N << " @" << Threads;
      EXPECT_TRUE(bitIdentical(matmulTransA(At, B), RefTa))
          << "matmulTransA " << M << "x" << K << "x" << N << " @" << Threads;
      EXPECT_TRUE(bitIdentical(matmulTransB(A, Bt), RefTb))
          << "matmulTransB " << M << "x" << K << "x" << N << " @" << Threads;

      EXPECT_TRUE(bitIdentical(Lin.applyAffine(A), RefAffine))
          << "applyAffine " << M << "x" << K << "x" << N << " @" << Threads;
      EXPECT_TRUE(bitIdentical(Lin.applyLinear(A), RefTb))
          << "applyLinear " << M << "x" << K << "x" << N << " @" << Threads;
      Tensor Center = A.clone(), Radius = Radii.clone();
      Lin.applyToBox(Center, Radius);
      EXPECT_TRUE(bitIdentical(Center, RefAffine))
          << "applyToBox center " << M << "x" << K << "x" << N << " @"
          << Threads;
      EXPECT_TRUE(bitIdentical(Radius, RefRadius))
          << "applyToBox radius " << M << "x" << K << "x" << N << " @"
          << Threads;
      Tensor PCenter = A.clone(), PRadius = Radii.clone(), PMag = Mags.clone();
      Tensor BiasImage;
      Lin.applyToBoxPlanes(PCenter, PRadius, PMag, BiasImage);
      EXPECT_TRUE(bitIdentical(PCenter, RefAffine))
          << "applyToBoxPlanes center " << M << "x" << K << "x" << N << " @"
          << Threads;
      EXPECT_TRUE(bitIdentical(PRadius, RefRadius))
          << "applyToBoxPlanes radius " << M << "x" << K << "x" << N << " @"
          << Threads;
      EXPECT_TRUE(bitIdentical(PMag, RefMag))
          << "applyToBoxPlanes magnitude " << M << "x" << K << "x" << N
          << " @" << Threads;
      EXPECT_TRUE(bitIdentical(BiasImage, RefBiasImage))
          << "applyToBoxPlanes bias image " << M << "x" << K << "x" << N
          << " @" << Threads;
    }
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
  PropagateConfig Config;
  Config.EnableRelax = false;
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
