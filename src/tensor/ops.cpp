//===- tensor/ops.cpp -----------------------------------------*- C++ -*-===//

#include "src/tensor/ops.h"

#include "src/parallel/thread_pool.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace genprove {

namespace {

/// k-block size of the tiled GEMM kernels: a [TileK, N] slab of B stays
/// hot in cache while a block of C rows accumulates against it. Purely a
/// cache parameter — every C element still accumulates in ascending-k
/// order, so tiling never changes the floating-point result.
constexpr int64_t GemmTileK = 256;

/// One k-step of 4 C rows against 4 B rows: C[R][J] += Av[R][U] * B[U][J]
/// in ascending U, with each C element held in a register across the 4
/// multiply-adds.
__attribute__((always_inline)) inline void
gemmStep4(double *__restrict__ C0, double *__restrict__ C1,
          double *__restrict__ C2, double *__restrict__ C3,
          const double *const *Bp, const double (&Av)[4][4], int64_t N) {
  double *__restrict__ Cr[4] = {C0, C1, C2, C3};
  const double *__restrict__ B0 = Bp[0];
  const double *__restrict__ B1 = Bp[1];
  const double *__restrict__ B2 = Bp[2];
  const double *__restrict__ B3 = Bp[3];
  double A[4][4];
  for (int R = 0; R < 4; ++R)
    for (int U = 0; U < 4; ++U)
      A[R][U] = Av[R][U];
  for (int64_t J = 0; J < N; ++J) {
    const double Bv[4] = {B0[J], B1[J], B2[J], B3[J]};
    for (int R = 0; R < 4; ++R) {
      double Acc = Cr[R][J];
      for (int U = 0; U < 4; ++U)
        Acc += A[R][U] * Bv[U];
      Cr[R][J] = Acc;
    }
  }
}

/// One k-step of a single C row against 4 B rows.
__attribute__((always_inline)) inline void
gemmStep1(double *__restrict__ Crow, const double *const *Bp,
          const double (&Av)[4], int64_t N) {
  const double *__restrict__ B0 = Bp[0];
  const double *__restrict__ B1 = Bp[1];
  const double *__restrict__ B2 = Bp[2];
  const double *__restrict__ B3 = Bp[3];
  const double A0 = Av[0], A1 = Av[1], A2 = Av[2], A3 = Av[3];
  for (int64_t J = 0; J < N; ++J) {
    double Acc = Crow[J];
    Acc += A0 * B0[J];
    Acc += A1 * B1[J];
    Acc += A2 * B2[J];
    Acc += A3 * B3[J];
    Crow[J] = Acc;
  }
}

/// C rows [IBegin, IEnd) = A rows * B (+ Bias) for rows A[I] of K doubles,
/// row-major B [K, N] and rows C[I] of N doubles.
///
/// Structure: 4 C-row streams against 4 B rows per step. The
/// k-unroll-by-4 keeps each C element in a register across 4 multiply-adds
/// (one C load + store per 4 k-steps instead of per k-step), and the 4
/// A-broadcast x B-row streams saturate the vector units without asking
/// the compiler to register-promote accumulator arrays (which GCC 12
/// declines to do — measured slower than the naive loop).
///
/// Live k-steps: the A values of each k are loaded once, and a k at which
/// they are zero in every row of the block adds only ±0 terms to sums
/// that start at +0.0, so it does not take a step slot: each step runs
/// the next 4 live k's. Dense data fills every slot in order, so it pays
/// one compare per loaded value and no branch miss.
///
/// Determinism: every C element accumulates in ascending-k order over its
/// nonzero terms and the dispatch wrappers below pin fp-contract=off, so
/// the result is bit-identical to the naive i-k-j loop on every ISA path.
__attribute__((always_inline)) inline void
gemmRows4Body(const double *const *A, const double *__restrict__ Bd,
              const double *Bias, double *const *C, int64_t IBegin,
              int64_t IEnd, int64_t K, int64_t N) {
  for (int64_t I = IBegin; I < IEnd; ++I)
    std::fill_n(C[I], N, 0.0);
  for (int64_t Kk = 0; Kk < K; Kk += GemmTileK) {
    const int64_t KEnd = std::min(K, Kk + GemmTileK);
    int64_t I = IBegin;
    for (; I + 4 <= IEnd; I += 4) {
      const double *Ar[4] = {A[I], A[I + 1], A[I + 2], A[I + 3]};
      double *C0 = C[I], *C1 = C[I + 1], *C2 = C[I + 2], *C3 = C[I + 3];
      double Av[4][4];
      const double *Bp[4];
      int U = 0;
      for (int64_t Kc = Kk; Kc < KEnd; ++Kc) {
        bool Live = false;
        for (int R = 0; R < 4; ++R) {
          Av[R][U] = Ar[R][Kc];
          Live |= Av[R][U] != 0.0;
        }
        Bp[U] = Bd + Kc * N;
        U += Live;
        if (U == 4) {
          gemmStep4(C0, C1, C2, C3, Bp, Av, N);
          U = 0;
        }
      }
      // The block's last 1-3 live k's, as one step padded with zero A
      // values against a real B row: finite B makes each pad term ±0.
      if (U > 0) {
        for (int P = U; P < 4; ++P) {
          for (int R = 0; R < 4; ++R)
            Av[R][P] = 0.0;
          Bp[P] = Bp[0];
        }
        gemmStep4(C0, C1, C2, C3, Bp, Av, N);
      }
    }
    // Leftover rows (M % 4, and the single rows of the convex domains):
    // still 4 live k's per step, so each C element is loaded and stored
    // once per 4 of them.
    for (; I < IEnd; ++I) {
      const double *Arow = A[I];
      double *Crow = C[I];
      double Av[4];
      const double *Bp[4];
      int U = 0;
      for (int64_t Kc = Kk; Kc < KEnd; ++Kc) {
        Av[U] = Arow[Kc];
        Bp[U] = Bd + Kc * N;
        U += Av[U] != 0.0;
        if (U == 4) {
          gemmStep1(Crow, Bp, Av, N);
          U = 0;
        }
      }
      if (U > 0) {
        for (int P = U; P < 4; ++P) {
          Av[P] = 0.0;
          Bp[P] = Bp[0];
        }
        gemmStep1(Crow, Bp, Av, N);
      }
    }
  }
  // The bias lands after the full dot.
  if (Bias)
    for (int64_t I = IBegin; I < IEnd; ++I) {
      double *__restrict__ Crow = C[I];
      for (int64_t J = 0; J < N; ++J)
        Crow[J] += Bias[J];
    }
}

/// Same streaming structure for C[IBegin..IEnd) += A^T * B with A [K,M]:
/// the A operand is read column-wise (stride M) instead of row-wise.
/// Reorganized from the old k-outer form (which a row-parallel split
/// would race on) to i-block-parallel; per C element the accumulation is
/// still ascending-k.
__attribute__((always_inline)) inline void
gemmRows4TransABody(const double *__restrict__ Ad,
                    const double *__restrict__ Bd, double *__restrict__ Cd,
                    int64_t IBegin, int64_t IEnd, int64_t K, int64_t M,
                    int64_t N) {
  for (int64_t Kk = 0; Kk < K; Kk += GemmTileK) {
    const int64_t KEnd = std::min(K, Kk + GemmTileK);
    int64_t I = IBegin;
    for (; I + 4 <= IEnd; I += 4) {
      double *__restrict__ Cr[4];
      for (int R = 0; R < 4; ++R)
        Cr[R] = Cd + (I + R) * N;
      int64_t Kc = Kk;
      for (; Kc + 4 <= KEnd; Kc += 4) {
        double Av[4][4];
        for (int U = 0; U < 4; ++U)
          for (int R = 0; R < 4; ++R)
            Av[R][U] = Ad[(Kc + U) * M + I + R];
        const double *__restrict__ Br = Bd + Kc * N;
        for (int64_t J = 0; J < N; ++J) {
          double Bv[4];
          for (int U = 0; U < 4; ++U)
            Bv[U] = Br[U * N + J];
          for (int R = 0; R < 4; ++R) {
            double Acc = Cr[R][J];
            for (int U = 0; U < 4; ++U)
              Acc += Av[R][U] * Bv[U];
            Cr[R][J] = Acc;
          }
        }
      }
      for (; Kc < KEnd; ++Kc) {
        const double *__restrict__ Acol = Ad + Kc * M + I;
        double Av[4];
        for (int R = 0; R < 4; ++R)
          Av[R] = Acol[R];
        const double *__restrict__ Br = Bd + Kc * N;
        for (int64_t J = 0; J < N; ++J) {
          const double Bv = Br[J];
          for (int R = 0; R < 4; ++R)
            Cr[R][J] += Av[R] * Bv;
        }
      }
    }
    for (; I < IEnd; ++I) {
      double *__restrict__ Crow = Cd + I * N;
      int64_t Kc = Kk;
      for (; Kc + 4 <= KEnd; Kc += 4) {
        const double Av0 = Ad[Kc * M + I], Av1 = Ad[(Kc + 1) * M + I],
                     Av2 = Ad[(Kc + 2) * M + I], Av3 = Ad[(Kc + 3) * M + I];
        const double *__restrict__ Br = Bd + Kc * N;
        for (int64_t J = 0; J < N; ++J) {
          double Acc = Crow[J];
          Acc += Av0 * Br[J];
          Acc += Av1 * Br[N + J];
          Acc += Av2 * Br[2 * N + J];
          Acc += Av3 * Br[3 * N + J];
          Crow[J] = Acc;
        }
      }
      for (; Kc < KEnd; ++Kc) {
        const double Av = Ad[Kc * M + I];
        const double *__restrict__ Brow = Bd + Kc * N;
        for (int64_t J = 0; J < N; ++J)
          Crow[J] += Av * Brow[J];
      }
    }
  }
}

// The GEMM body is compiled twice — once for the build's baseline ISA and
// once for AVX-512 — and dispatched per-call on cpuid. Both variants pin
// fp-contract=off: FMA contraction (GCC's default at -O3 when the ISA has
// fused multiply-add) would drop the intermediate rounding and break the
// bit-for-bit match with the scalar reference, which the determinism
// contract (ISSUE 4) requires across thread counts AND ISA paths.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__)
#define GENPROVE_GEMM_MULTIVERSION 1
#else
#define GENPROVE_GEMM_MULTIVERSION 0
#endif

__attribute__((optimize("fp-contract=off"))) void
gemmRowBlockPlain(const double *const *A, const double *Bd, const double *Bias,
                  double *const *C, int64_t IBegin, int64_t IEnd, int64_t K,
                  int64_t N) {
  gemmRows4Body(A, Bd, Bias, C, IBegin, IEnd, K, N);
}

__attribute__((optimize("fp-contract=off"))) void
gemmTransARowBlockPlain(const double *Ad, const double *Bd, double *Cd,
                        int64_t IBegin, int64_t IEnd, int64_t K, int64_t M,
                        int64_t N) {
  gemmRows4TransABody(Ad, Bd, Cd, IBegin, IEnd, K, M, N);
}

#if GENPROVE_GEMM_MULTIVERSION

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
gemmRowBlockAvx512(const double *const *A, const double *Bd,
                   const double *Bias, double *const *C, int64_t IBegin,
                   int64_t IEnd, int64_t K, int64_t N) {
  gemmRows4Body(A, Bd, Bias, C, IBegin, IEnd, K, N);
}

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
gemmTransARowBlockAvx512(const double *Ad, const double *Bd, double *Cd,
                         int64_t IBegin, int64_t IEnd, int64_t K, int64_t M,
                         int64_t N) {
  gemmRows4TransABody(Ad, Bd, Cd, IBegin, IEnd, K, M, N);
}

#endif // GENPROVE_GEMM_MULTIVERSION

/// True when the AVX-512 clones should run: checked once, overridable with
/// GENPROVE_NO_AVX512=1 so the portable path stays testable on wide
/// machines (CI exercises both).
bool useAvx512() {
#if GENPROVE_GEMM_MULTIVERSION
  static const bool Use = __builtin_cpu_supports("avx512f") &&
                          std::getenv("GENPROVE_NO_AVX512") == nullptr;
  return Use;
#else
  return false;
#endif
}

void gemmRowBlock(const double *const *A, const double *Bd, const double *Bias,
                  double *const *C, int64_t IBegin, int64_t IEnd, int64_t K,
                  int64_t N) {
#if GENPROVE_GEMM_MULTIVERSION
  if (useAvx512())
    return gemmRowBlockAvx512(A, Bd, Bias, C, IBegin, IEnd, K, N);
#endif
  gemmRowBlockPlain(A, Bd, Bias, C, IBegin, IEnd, K, N);
}

void gemmTransARowBlock(const double *Ad, const double *Bd, double *Cd,
                        int64_t IBegin, int64_t IEnd, int64_t K, int64_t M,
                        int64_t N) {
#if GENPROVE_GEMM_MULTIVERSION
  if (useAvx512())
    return gemmTransARowBlockAvx512(Ad, Bd, Cd, IBegin, IEnd, K, M, N);
#endif
  gemmTransARowBlockPlain(Ad, Bd, Cd, IBegin, IEnd, K, M, N);
}

/// Chunk grain for the 4-row-blocked GEMMs: the default grain would hand
/// out 1-2 row chunks for small M and starve the 4-row fast path (row
/// partitioning can't change FP results — every C element lives in
/// exactly one row — so the grain is a pure perf knob here, still a pure
/// function of M for reproducible chunking).
int64_t gemmGrain(int64_t M) {
  const int64_t Grain = (ThreadPool::defaultGrain(M) + 3) / 4 * 4;
  return std::max<int64_t>(4, Grain);
}

/// The interval affine body behind fusedBoxAffineRows: Wt is W^T [K, N],
/// so for each input element k the accumulator rows advance over the
/// contiguous output axis — independent per-output ascending-k chains
/// that the vectorizer can run in lanes (a dot-product form over W [N, K]
/// keeps the chain in one scalar register and cannot be vectorized under
/// strict FP semantics). Every chain starts at +0.0, so a k at which every
/// plane of the row is zero is skipped. The bias lands after the complete
/// dot, so every output is bit-identical to the dot form plus a bias pass.
template <bool WithMag>
__attribute__((always_inline)) inline void
fusedBoxAffineTBody(const double *const *Cen, const double *const *Rad,
                    const double *const *Mag, const double *__restrict__ Wtd,
                    const double *__restrict__ Biasd, double *const *OutC,
                    double *const *OutR, double *const *OutM, int64_t IBegin,
                    int64_t IEnd, int64_t K, int64_t N) {
  for (int64_t I = IBegin; I < IEnd; ++I) {
    const double *__restrict__ Crow = Cen[I];
    const double *__restrict__ Rrow = Rad[I];
    const double *__restrict__ Mrow = WithMag ? Mag[I] : nullptr;
    double *__restrict__ OC = OutC[I];
    double *__restrict__ OR = OutR[I];
    double *__restrict__ OM = WithMag ? OutM[I] : nullptr;
    for (int64_t J = 0; J < N; ++J) {
      OC[J] = 0.0;
      OR[J] = 0.0;
      if (WithMag)
        OM[J] = 0.0;
    }
    for (int64_t Kk = 0; Kk < K; ++Kk) {
      const double Cv = Crow[Kk];
      const double Rv = Rrow[Kk];
      const double Mv = WithMag ? Mrow[Kk] : 0.0;
      if (Cv == 0.0 && Rv == 0.0 && Mv == 0.0)
        continue;
      const double *__restrict__ Wt = Wtd + Kk * N;
      for (int64_t J = 0; J < N; ++J) {
        const double Wv = Wt[J];
        const double Av = std::fabs(Wv);
        OC[J] += Cv * Wv;
        OR[J] += Rv * Av;
        if (WithMag)
          OM[J] += Mv * Av;
      }
    }
    for (int64_t J = 0; J < N; ++J)
      OC[J] += Biasd[J];
  }
}

// Like the GEMM bodies above, the interval kernel compiles once for the
// baseline ISA and once for AVX-512, both with fp-contract=off: an FMA
// contraction would single-round the multiply-add and break the bitwise
// match with matmulRows, which runs the same chains for applyAffineRows.
__attribute__((optimize("fp-contract=off"))) void
fusedBoxTRowBlockPlain(const double *const *Cen, const double *const *Rad,
                       const double *const *Mag, const double *Wtd,
                       const double *Biasd, double *const *OutC,
                       double *const *OutR, double *const *OutM,
                       int64_t IBegin, int64_t IEnd, int64_t K, int64_t N) {
  if (Mag)
    fusedBoxAffineTBody<true>(Cen, Rad, Mag, Wtd, Biasd, OutC, OutR, OutM,
                              IBegin, IEnd, K, N);
  else
    fusedBoxAffineTBody<false>(Cen, Rad, nullptr, Wtd, Biasd, OutC, OutR,
                               nullptr, IBegin, IEnd, K, N);
}

#if GENPROVE_GEMM_MULTIVERSION

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
fusedBoxTRowBlockAvx512(const double *const *Cen, const double *const *Rad,
                        const double *const *Mag, const double *Wtd,
                        const double *Biasd, double *const *OutC,
                        double *const *OutR, double *const *OutM,
                        int64_t IBegin, int64_t IEnd, int64_t K, int64_t N) {
  if (Mag)
    fusedBoxAffineTBody<true>(Cen, Rad, Mag, Wtd, Biasd, OutC, OutR, OutM,
                              IBegin, IEnd, K, N);
  else
    fusedBoxAffineTBody<false>(Cen, Rad, nullptr, Wtd, Biasd, OutC, OutR,
                               nullptr, IBegin, IEnd, K, N);
}

#endif // GENPROVE_GEMM_MULTIVERSION

void fusedBoxTRowBlock(const double *const *Cen, const double *const *Rad,
                       const double *const *Mag, const double *Wtd,
                       const double *Biasd, double *const *OutC,
                       double *const *OutR, double *const *OutM,
                       int64_t IBegin, int64_t IEnd, int64_t K, int64_t N) {
#if GENPROVE_GEMM_MULTIVERSION
  if (useAvx512())
    return fusedBoxTRowBlockAvx512(Cen, Rad, Mag, Wtd, Biasd, OutC, OutR,
                                   OutM, IBegin, IEnd, K, N);
#endif
  fusedBoxTRowBlockPlain(Cen, Rad, Mag, Wtd, Biasd, OutC, OutR, OutM, IBegin,
                         IEnd, K, N);
}

} // namespace

namespace {

/// One pointer per row of T's storage at Data, also for rows of width 0.
template <typename Ptr>
std::vector<Ptr> rowPointersAt(Ptr Data, const Tensor &T) {
  const int64_t Rows = T.rank() == 0 ? 0 : T.dim(0);
  const int64_t Width = Rows == 0 ? 0 : T.numel() / Rows;
  std::vector<Ptr> Ptrs(static_cast<size_t>(Rows));
  for (int64_t I = 0; I < Rows; ++I)
    Ptrs[static_cast<size_t>(I)] = Data + I * Width;
  return Ptrs;
}

} // namespace

std::vector<const double *> rowPointers(const Tensor &T) {
  return rowPointersAt(T.data(), T);
}

std::vector<double *> rowPointers(Tensor &T) {
  return rowPointersAt(T.data(), T);
}

Tensor matmul(const Tensor &A, const Tensor &B) {
  check(A.rank() == 2 && B.rank() == 2, "matmul requires rank-2 tensors");
  const int64_t M = A.dim(0), K = A.dim(1), N = B.dim(1);
  check(B.dim(0) == K, "matmul inner dimension mismatch");
  Tensor C({M, N});
  matmulRows(rowPointers(A).data(), M, B, nullptr, rowPointers(C).data());
  return C;
}

void matmulRows(const double *const *A, int64_t M, const Tensor &B,
                const double *Bias, double *const *C) {
  check(B.rank() == 2, "matmulRows requires a rank-2 B");
  const int64_t K = B.dim(0), N = B.dim(1);
  const double *Bd = B.data();
  parallelFor(M, gemmGrain(M), [&](int64_t IBegin, int64_t IEnd) {
    gemmRowBlock(A, Bd, Bias, C, IBegin, IEnd, K, N);
  });
}

Tensor matmulTransA(const Tensor &A, const Tensor &B) {
  check(A.rank() == 2 && B.rank() == 2, "matmulTransA requires rank-2");
  const int64_t K = A.dim(0), M = A.dim(1), N = B.dim(1);
  check(B.dim(0) == K, "matmulTransA inner dimension mismatch");
  Tensor C({M, N});
  const double *Ad = A.data();
  const double *Bd = B.data();
  double *Cd = C.data();
  parallelFor(M, gemmGrain(M), [&](int64_t IBegin, int64_t IEnd) {
    gemmTransARowBlock(Ad, Bd, Cd, IBegin, IEnd, K, M, N);
  });
  return C;
}

void fusedBoxAffineRows(const double *const *Centers,
                        const double *const *Radii, const double *const *Mags,
                        int64_t M, const Tensor &Wt, const Tensor &Bias,
                        double *const *OutC, double *const *OutR,
                        double *const *OutMags) {
  check(Wt.rank() == 2, "fusedBoxAffineRows requires a rank-2 weight");
  const int64_t K = Wt.dim(0), N = Wt.dim(1);
  check(Bias.numel() == N, "fusedBoxAffineRows bias length mismatch");
  check(!Mags == !OutMags, "fusedBoxAffineRows needs OutMags iff Mags");
  const double *Wtd = Wt.data();
  const double *Biasd = Bias.data();
  parallelFor(M, [&](int64_t IBegin, int64_t IEnd) {
    fusedBoxTRowBlock(Centers, Radii, Mags, Wtd, Biasd, OutC, OutR, OutMags,
                      IBegin, IEnd, K, N);
  });
}

std::pair<int64_t, int64_t> ConvGeometry::convOutput(int64_t H,
                                                     int64_t W) const {
  const int64_t OH = (H + 2 * Padding - KernelH) / Stride + 1;
  const int64_t OW = (W + 2 * Padding - KernelW) / Stride + 1;
  return {OH, OW};
}

std::pair<int64_t, int64_t>
ConvGeometry::convTransposeOutput(int64_t H, int64_t W) const {
  const int64_t OH = (H - 1) * Stride - 2 * Padding + KernelH + OutputPadding;
  const int64_t OW = (W - 1) * Stride - 2 * Padding + KernelW + OutputPadding;
  return {OH, OW};
}

namespace {

/// Unfold one sample [C, H, W] into an [OH*OW, C*KH*KW] patch matrix: one
/// row per output pixel, the layout matmul takes as its B operand. Each
/// row is written in order; the sample it reads stays in cache.
void im2row(const double *Input, int64_t C, int64_t H, int64_t W,
            const ConvGeometry &G, double *Patches) {
  const auto [OH, OW] = G.convOutput(H, W);
  for (int64_t Oh = 0; Oh < OH; ++Oh) {
    for (int64_t Ow = 0; Ow < OW; ++Ow) {
      double *Row = Patches;
      Patches += C * G.KernelH * G.KernelW;
      for (int64_t Ch = 0; Ch < C; ++Ch) {
        for (int64_t Kh = 0; Kh < G.KernelH; ++Kh) {
          const int64_t Ih = Oh * G.Stride - G.Padding + Kh;
          for (int64_t Kw = 0; Kw < G.KernelW; ++Kw) {
            const int64_t Iw = Ow * G.Stride - G.Padding + Kw;
            *Row++ = Ih >= 0 && Ih < H && Iw >= 0 && Iw < W
                         ? Input[(Ch * H + Ih) * W + Iw]
                         : 0.0;
          }
        }
      }
    }
  }
}

/// Fold a column matrix back into a [C, H, W] sample, accumulating overlaps.
void col2im(const double *Col, int64_t C, int64_t H, int64_t W,
            const ConvGeometry &G, double *Output) {
  const auto [OH, OW] = G.convOutput(H, W);
  std::fill(Output, Output + C * H * W, 0.0);
  for (int64_t Ch = 0; Ch < C; ++Ch) {
    for (int64_t Kh = 0; Kh < G.KernelH; ++Kh) {
      for (int64_t Kw = 0; Kw < G.KernelW; ++Kw) {
        const int64_t Row = (Ch * G.KernelH + Kh) * G.KernelW + Kw;
        const double *ColRow = Col + Row * OH * OW;
        for (int64_t Oh = 0; Oh < OH; ++Oh) {
          const int64_t Ih = Oh * G.Stride - G.Padding + Kh;
          if (Ih < 0 || Ih >= H)
            continue;
          for (int64_t Ow = 0; Ow < OW; ++Ow) {
            const int64_t Iw = Ow * G.Stride - G.Padding + Kw;
            if (Iw < 0 || Iw >= W)
              continue;
            Output[(Ch * H + Ih) * W + Iw] += ColRow[Oh * OW + Ow];
          }
        }
      }
    }
  }
}

/// Batch rows the conv tap kernel transposes together: every tap then
/// streams TapRows contiguous doubles (four AVX-512 vectors) through the
/// register block. Rows never interact, so this only trades the block's
/// cache footprint against per-tap overhead.
constexpr int64_t TapRows = 32;

/// Eight doubles and their bit patterns, the unit of the conv kernel's
/// transposes: one register in the avx512f clones, four SSE2 registers in
/// the baseline ones.
typedef double Vec8 __attribute__((vector_size(64)));
typedef uint64_t Bits8 __attribute__((vector_size(64)));

/// Transpose the 8x8 block whose rows are V[0..7] in place: three rounds
/// of two-register shuffles.
__attribute__((always_inline)) inline void transpose8(Vec8 (&V)[8]) {
  Vec8 T[8], U[8];
  for (int K = 0; K < 8; K += 2) {
    T[K] = __builtin_shufflevector(V[K], V[K + 1], 0, 8, 2, 10, 4, 12, 6, 14);
    T[K + 1] =
        __builtin_shufflevector(V[K], V[K + 1], 1, 9, 3, 11, 5, 13, 7, 15);
  }
  for (int K = 0; K < 8; K += 4)
    for (int J = K; J < K + 2; ++J) {
      U[J] = __builtin_shufflevector(T[J], T[J + 2], 0, 1, 8, 9, 4, 5, 12, 13);
      U[J + 2] =
          __builtin_shufflevector(T[J], T[J + 2], 2, 3, 10, 11, 6, 7, 14, 15);
    }
  for (int J = 0; J < 4; ++J) {
    V[J] = __builtin_shufflevector(U[J], U[J + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    V[J + 4] =
        __builtin_shufflevector(U[J], U[J + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

/// Uninitialized kernel scratch that starts on a cache line, so the tap
/// loops' row vectors and the write-back's tiles never straddle one. It
/// grows to the largest size asked for and is freed with its owner.
class LineScratch {
public:
  double *get(int64_t Size) {
    if (Size > Capacity) {
      Storage = std::make_unique_for_overwrite<double[]>(
          static_cast<size_t>(Size + 7));
      Capacity = Size;
    }
    const auto Addr = reinterpret_cast<uintptr_t>(Storage.get());
    return Storage.get() + ((64 - Addr % 64) % 64) / sizeof(double);
  }

private:
  std::unique_ptr<double[]> Storage;
  int64_t Capacity = 0;
};

/// C[R*Rows + J] += Wr[R][Col[T]] * X[T][J] over the taps T in list order,
/// for NR output channels whose weight rows are OcStride apart and whose
/// accumulator rows lie back to back in C. The streaming structure of
/// gemmRows4Body with the batch as the contiguous axis: per 4 taps each
/// accumulator is loaded and stored once, and every accumulator keeps one
/// add chain in tap order.
template <int NR, int64_t FixedRows>
__attribute__((always_inline)) inline void
tapRowsBody(const double *const *X, const int64_t *Col, int64_t NumTaps,
            const double *Wd, int64_t OcStride, double *__restrict__ C,
            int64_t RowsArg) {
  const int64_t Rows = FixedRows ? FixedRows : RowsArg;
  int64_t T = 0;
  for (; T + 4 <= NumTaps; T += 4) {
    double Wv[NR][4];
    for (int R = 0; R < NR; ++R)
      for (int U = 0; U < 4; ++U)
        Wv[R][U] = Wd[R * OcStride + Col[T + U]];
    const double *__restrict__ X0 = X[T];
    const double *__restrict__ X1 = X[T + 1];
    const double *__restrict__ X2 = X[T + 2];
    const double *__restrict__ X3 = X[T + 3];
#pragma GCC ivdep
    for (int64_t J = 0; J < Rows; ++J) {
      const double B0 = X0[J], B1 = X1[J], B2 = X2[J], B3 = X3[J];
      for (int R = 0; R < NR; ++R) {
        double A = C[R * Rows + J];
        A += Wv[R][0] * B0;
        A += Wv[R][1] * B1;
        A += Wv[R][2] * B2;
        A += Wv[R][3] * B3;
        C[R * Rows + J] = A;
      }
    }
  }
  for (; T < NumTaps; ++T) {
    double Wv[NR];
    for (int R = 0; R < NR; ++R)
      Wv[R] = Wd[R * OcStride + Col[T]];
    const double *__restrict__ X0 = X[T];
#pragma GCC ivdep
    for (int64_t J = 0; J < Rows; ++J)
      for (int R = 0; R < NR; ++R)
        C[R * Rows + J] += Wv[R] * X0[J];
  }
}

/// All OC accumulator rows of one output pixel ([OC, Rows] at Acc) against
/// its tap list, in 4-channel register blocks and one narrower tail block.
template <int64_t FixedRows>
__attribute__((always_inline)) inline void
tapPixelRows(const double *const *X, const int64_t *Col, int64_t NumTaps,
             const double *Wd, int64_t OcStride, int64_t OC, double *Acc,
             int64_t Rows) {
  int64_t Oc = 0;
  for (; Oc + 4 <= OC; Oc += 4)
    tapRowsBody<4, FixedRows>(X, Col, NumTaps, Wd + Oc * OcStride, OcStride,
                              Acc + Oc * Rows, Rows);
  const double *WTail = Wd + Oc * OcStride;
  double *AccTail = Acc + Oc * Rows;
  switch (OC - Oc) {
  case 3:
    tapRowsBody<3, FixedRows>(X, Col, NumTaps, WTail, OcStride, AccTail, Rows);
    break;
  case 2:
    tapRowsBody<2, FixedRows>(X, Col, NumTaps, WTail, OcStride, AccTail, Rows);
    break;
  case 1:
    tapRowsBody<1, FixedRows>(X, Col, NumTaps, WTail, OcStride, AccTail, Rows);
    break;
  default:
    break;
  }
}

/// Full blocks and single rows (the convex domains' boxes) run with a
/// compile-time width, which the vectorizer unrolls without remainder
/// loops; other partial blocks take the runtime width.
__attribute__((always_inline)) inline void
tapPixelBody(const double *const *X, const int64_t *Col, int64_t NumTaps,
             const double *Wd, int64_t OcStride, int64_t OC, double *Acc,
             int64_t Rows) {
  if (Rows == TapRows)
    tapPixelRows<TapRows>(X, Col, NumTaps, Wd, OcStride, OC, Acc, Rows);
  else if (Rows == 1)
    tapPixelRows<1>(X, Col, NumTaps, Wd, OcStride, OC, Acc, Rows);
  else
    tapPixelRows<0>(X, Col, NumTaps, Wd, OcStride, OC, Acc, Rows);
}

// Compiled twice like the GEMM bodies, with fp-contract=off on both. The
// tap loops stay out of line: inlined into the pixel loop, the single-row
// convex calls' scalar loops ran up to a fifth slower.
__attribute__((optimize("fp-contract=off"))) void
tapPixelPlain(const double *const *X, const int64_t *Col, int64_t NumTaps,
              const double *Wd, int64_t OcStride, int64_t OC, double *Acc,
              int64_t Rows) {
  tapPixelBody(X, Col, NumTaps, Wd, OcStride, OC, Acc, Rows);
}

#if GENPROVE_GEMM_MULTIVERSION

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
tapPixelAvx512(const double *const *X, const int64_t *Col, int64_t NumTaps,
               const double *Wd, int64_t OcStride, int64_t OC, double *Acc,
               int64_t Rows) {
  tapPixelBody(X, Col, NumTaps, Wd, OcStride, OC, Acc, Rows);
}

#endif // GENPROVE_GEMM_MULTIVERSION

void tapPixel(const double *const *X, const int64_t *Col, int64_t NumTaps,
              const double *Wd, int64_t OcStride, int64_t OC, double *Acc,
              int64_t Rows) {
#if GENPROVE_GEMM_MULTIVERSION
  if (useAvx512())
    return tapPixelAvx512(X, Col, NumTaps, Wd, OcStride, OC, Acc, Rows);
#endif
  tapPixelPlain(X, Col, NumTaps, Wd, OcStride, OC, Acc, Rows);
}

/// The receptive field of output position O along one spatial axis (In
/// inputs, kernel size K): inputs [Lo, Hi) feed it, input Lo through
/// kernel index K0, and each later input moves the kernel index by KStep.
struct TapSpan {
  int64_t Lo, Hi, K0, KStep;
};

TapSpan tapSpan(int64_t O, int64_t In, int64_t K, const ConvGeometry &G,
                bool Transposed) {
  if (!Transposed) {
    // Conv2d reads input O*S - P + k. Inputs in the padding are left out:
    // their ±0 terms cannot change a sum that starts at +0.0.
    const int64_t Base = O * G.Stride - G.Padding;
    const int64_t Lo = std::max<int64_t>(0, Base);
    const int64_t Hi = std::max(Lo, std::min(In, Base + K));
    return {Lo, Hi, Lo - Base, 1};
  }
  // ConvTranspose2d scatters input i to output i*S - P + k, so output O
  // gathers kernel index k = O + P - i*S from each i with 0 <= k < K.
  const int64_t Top = O + G.Padding;
  const int64_t Lo = Top < K ? 0 : (Top - K + G.Stride) / G.Stride;
  const int64_t Hi = std::max(Lo, std::min(In, Top / G.Stride + 1));
  return {Lo, Hi, Top - Lo * G.Stride, -G.Stride};
}

/// One convTaps call's operands and geometry.
struct TapLayer {
  const double *Wd, *BiasD;
  const ConvGeometry *G;
  bool Transposed;
  int64_t C, H, W, OC, KH, KW, OW, P, OcStride, IcStride;
};

/// One row block's transposed inputs. XT is [live inputs, Lanes], lanes
/// Rows..Lanes-1 zero; input i is live when LiveBefore[i + 1] >
/// LiveBefore[i], and then takes slot LiveBefore[i]; LiveInput[s] is the
/// input in slot s. Out holds the block's Rows output rows.
struct TapBlock {
  const double *XT;
  const int64_t *LiveBefore, *LiveInput;
  int64_t Rows, Lanes;
  double *const *Out;
};

/// Doubles between two pixels' accumulators: one pixel's OC rows of Lanes,
/// plus one cache line from 8 lanes up, so that the 8 pixels of a
/// write-back tile never lie a multiple of 4 KiB apart.
int64_t accStride(int64_t OC, int64_t Lanes) {
  return OC * Lanes + (Lanes >= 8 ? 8 : 0);
}

/// Transpose the block rows In[0..Rows) into XT and list their live inputs
/// (TapBlock). Groups of 8 inputs go through 8x8 register tiles; the OR of
/// a group's row vectors has, in lane k, every bit set in input k, so an
/// input whose OR has no magnitude bit saw only ±0 (NaN and Inf keep
/// exponent bits) and, with SkipDead, is dead. A dead input's slot is
/// closed by moving the group's later live inputs down while they are in
/// L1; dense data moves nothing.
__attribute__((always_inline)) inline void
transposeLiveBody(const double *const *In, int64_t Rows, int64_t Lanes,
                  int64_t CHW, bool SkipDead, double *__restrict__ XT,
                  int64_t *__restrict__ LiveBefore,
                  int64_t *__restrict__ LiveInput) {
  int64_t NumLive = 0, I = 0;
  for (; Lanes >= 8 && I + 8 <= CHW; I += 8) {
    const int64_t Base = NumLive;
    double *Dst = XT + Base * Lanes;
    Bits8 Or = {};
    for (int64_t G = 0; G < Lanes; G += 8) {
      Vec8 V[8];
      for (int K = 0; K < 8; ++K) {
        if (G + K < Rows)
          std::memcpy(&V[K], In[G + K] + I, sizeof(Vec8));
        else
          V[K] = Vec8{};
        Or |= (Bits8)V[K];
      }
      transpose8(V);
      for (int K = 0; K < 8; ++K)
        std::memcpy(Dst + K * Lanes + G, &V[K], sizeof(Vec8));
    }
    const Bits8 Magnitude = Or << 1;
    for (int K = 0; K < 8; ++K) {
      LiveBefore[I + K] = NumLive;
      if (SkipDead && Magnitude[K] == 0)
        continue;
      if (NumLive != Base + K)
        std::copy_n(Dst + K * Lanes, Lanes, XT + NumLive * Lanes);
      LiveInput[NumLive++] = I + K;
    }
  }
  // Blocks under 8 rows (Lanes == Rows) and the last CHW % 8 inputs go one
  // input at a time.
  for (; I < CHW; ++I) {
    double *Dst = XT + NumLive * Lanes;
    uint64_t Bits = 0;
    for (int64_t R = 0; R < Rows; ++R) {
      Dst[R] = In[R][I];
      Bits |= std::bit_cast<uint64_t>(Dst[R]);
    }
    for (int64_t R = Rows; R < Lanes; ++R)
      Dst[R] = 0.0;
    LiveBefore[I] = NumLive;
    LiveInput[NumLive] = I;
    NumLive += !SkipDead || (Bits << 1) != 0;
  }
  LiveBefore[CHW] = NumLive;
}

/// Write-back tile: V[k] = the 8 lanes at Src + k*Stride for k < Pixels
/// (zero beyond), transposed so that V[j] holds lane j's pixels, plus *Bias
/// when Bias is not null.
__attribute__((always_inline)) inline void
loadTile(Vec8 (&V)[8], const double *Src, int64_t Stride, int64_t Pixels,
         const double *Bias) {
  for (int K = 0; K < 8; ++K) {
    if (K < Pixels)
      std::memcpy(&V[K], Src + K * Stride, sizeof(Vec8));
    else
      V[K] = Vec8{};
  }
  transpose8(V);
  if (Bias)
    for (int J = 0; J < 8; ++J)
      V[J] += *Bias;
}

/// Pixels the write-back runs ahead of its stores, prefetching for write:
/// the output lines are not in cache, and stores that miss would otherwise
/// wait for them one after another.
constexpr int64_t WriteAhead = 32;

/// Write NumPix pixels' accumulators ([NumPix, accStride], pixel-major) to
/// the block's output rows at pixel PBegin, adding Bias (when not null)
/// after the sum. From 8 lanes up, 8 pixels of 8 lanes of one channel go
/// through an 8x8 register tile. Each group of 8 rows then writes its
/// planes in channel order, every (row, channel) run in whole vectors, so
/// each row's output is one stream, which the write-back prefetches
/// WriteAhead pixels ahead; a last tile of under 8 pixels stores only
/// those.
__attribute__((always_inline)) inline void
writeBackBody(const double *__restrict__ Acc, int64_t NumPix, int64_t OC,
              const double *Bias, int64_t P, int64_t PBegin,
              const TapBlock &B) {
  const int64_t Lanes = B.Lanes, Stride = accStride(OC, Lanes);
  if (Lanes < 8) {
    for (int64_t R = 0; R < B.Rows; ++R)
      for (int64_t Oc = 0; Oc < OC; ++Oc) {
        double *Dst = B.Out[R] + Oc * P + PBegin;
        const double *Src = Acc + Oc * Lanes + R;
        for (int64_t Px = 0; Px < NumPix; ++Px)
          Dst[Px] = Bias ? Src[Px * Stride] + Bias[Oc] : Src[Px * Stride];
      }
    return;
  }
  for (int64_t G = 0; G < B.Rows; G += 8) {
    const int64_t TileRows = std::min<int64_t>(8, B.Rows - G);
    double *const *Dst = B.Out + G;
    // The prefetch position, pixel AheadQ of channel AheadOc, runs
    // WriteAhead pixels ahead along the rows' streams.
    int64_t AheadOc = 0, AheadQ = 0;
    auto Advance = [&](int64_t Pixels) {
      for (AheadQ += Pixels; AheadQ >= NumPix && AheadOc < OC; ++AheadOc)
        AheadQ -= NumPix;
    };
    auto PrefetchAhead = [&] {
      if (AheadOc < OC)
        for (int J = 0; J < TileRows; ++J)
          __builtin_prefetch(Dst[J] + AheadOc * P + PBegin + AheadQ, 1);
    };
    for (int64_t Q = 0; Q < WriteAhead; Q += 8) {
      PrefetchAhead();
      Advance(8);
    }
    for (int64_t Oc = 0; Oc < OC; ++Oc) {
      const double *Src = Acc + Oc * Lanes + G;
      const int64_t Offset = Oc * P + PBegin;
      int64_t Q = 0;
      for (; Q + 8 <= NumPix; Q += 8) {
        PrefetchAhead();
        Advance(8);
        Vec8 V[8];
        loadTile(V, Src + Q * Stride, Stride, 8, Bias ? Bias + Oc : nullptr);
        for (int J = 0; J < TileRows; ++J)
          std::memcpy(Dst[J] + Offset + Q, &V[J], sizeof(Vec8));
      }
      if (Q < NumPix) {
        PrefetchAhead();
        Advance(NumPix - Q);
        Vec8 V[8];
        loadTile(V, Src + Q * Stride, Stride, NumPix - Q,
                 Bias ? Bias + Oc : nullptr);
        for (int J = 0; J < TileRows; ++J)
          for (int64_t K = 0; K < NumPix - Q; ++K)
            Dst[J][Offset + Q + K] = V[J][K];
      }
    }
  }
}

// The transpose and the write-back are compiled twice like the tap loops.
__attribute__((optimize("fp-contract=off"))) void
transposeLivePlain(const double *const *In, int64_t Rows, int64_t Lanes,
                   int64_t CHW, bool SkipDead, double *XT,
                   int64_t *LiveBefore, int64_t *LiveInput) {
  transposeLiveBody(In, Rows, Lanes, CHW, SkipDead, XT, LiveBefore,
                    LiveInput);
}

__attribute__((optimize("fp-contract=off"))) void
writeBackPlain(const double *Acc, int64_t NumPix, int64_t OC,
               const double *Bias, int64_t P, int64_t PBegin,
               const TapBlock &B) {
  writeBackBody(Acc, NumPix, OC, Bias, P, PBegin, B);
}

#if GENPROVE_GEMM_MULTIVERSION

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
transposeLiveAvx512(const double *const *In, int64_t Rows, int64_t Lanes,
                    int64_t CHW, bool SkipDead, double *XT,
                    int64_t *LiveBefore, int64_t *LiveInput) {
  transposeLiveBody(In, Rows, Lanes, CHW, SkipDead, XT, LiveBefore,
                    LiveInput);
}

__attribute__((target("avx512f,prfchw"), optimize("fp-contract=off"))) void
writeBackAvx512(const double *Acc, int64_t NumPix, int64_t OC,
                const double *Bias, int64_t P, int64_t PBegin,
                const TapBlock &B) {
  writeBackBody(Acc, NumPix, OC, Bias, P, PBegin, B);
}

#endif // GENPROVE_GEMM_MULTIVERSION

void transposeLive(const double *const *In, int64_t Rows, int64_t Lanes,
                   int64_t CHW, bool SkipDead, double *XT, int64_t *LiveBefore,
                   int64_t *LiveInput) {
#if GENPROVE_GEMM_MULTIVERSION
  if (useAvx512())
    return transposeLiveAvx512(In, Rows, Lanes, CHW, SkipDead, XT, LiveBefore,
                               LiveInput);
#endif
  transposeLivePlain(In, Rows, Lanes, CHW, SkipDead, XT, LiveBefore,
                     LiveInput);
}

void writeBack(const double *Acc, int64_t NumPix, int64_t OC,
               const double *Bias, int64_t P, int64_t PBegin,
               const TapBlock &B) {
#if GENPROVE_GEMM_MULTIVERSION
  if (useAvx512())
    return writeBackAvx512(Acc, NumPix, OC, Bias, P, PBegin, B);
#endif
  writeBackPlain(Acc, NumPix, OC, Bias, P, PBegin, B);
}

/// Output pixels [PBegin, PBegin + NumPix) of block B into Acc ([NumPix,
/// accStride]), then out to its rows. Each pixel's tap list holds its live
/// inputs in ascending (ic, ih, iw) order: per input row of its receptive
/// field, the slots LiveBefore[row + Lo] .. LiveBefore[row + Hi], so dead
/// inputs cost no step of the list. X and Col hold C*KH*KW entries.
void convPixels(const TapLayer &L, const TapBlock &B, int64_t PBegin,
                int64_t NumPix, const double **X, int64_t *Col, double *Acc) {
  const int64_t Lanes = B.Lanes, Stride = accStride(L.OC, Lanes);
  for (int64_t Px = 0; Px < NumPix; ++Px) {
    const int64_t Oh = (PBegin + Px) / L.OW, Ow = (PBegin + Px) % L.OW;
    const TapSpan Hs = tapSpan(Oh, L.H, L.KH, *L.G, L.Transposed);
    const TapSpan Ws = tapSpan(Ow, L.W, L.KW, *L.G, L.Transposed);
    // Input First + j of a field row (ih, iw = Ws.Lo + j) meets weight
    // column C0 + KStep * (First + j); both move by a fixed step per row
    // and per channel.
    const int64_t Width = Ws.Hi - Ws.Lo, KStep = Ws.KStep;
    const int64_t RowStep = Hs.KStep * L.KW - KStep * L.W;
    const int64_t ChanStep = L.IcStride - KStep * L.H * L.W;
    int64_t NumTaps = 0, ChanFirst = Hs.Lo * L.W + Ws.Lo;
    int64_t ChanC0 = Hs.K0 * L.KW + Ws.K0 - KStep * ChanFirst;
    for (int64_t Ic = 0; Ic < L.C && Width > 0; ++Ic) {
      int64_t First = ChanFirst, C0 = ChanC0;
      for (int64_t Ih = Hs.Lo; Ih < Hs.Hi; ++Ih) {
        const int64_t SEnd = B.LiveBefore[First + Width];
        for (int64_t S = B.LiveBefore[First]; S < SEnd; ++S) {
          X[NumTaps] = B.XT + S * Lanes;
          Col[NumTaps] = C0 + KStep * B.LiveInput[S];
          ++NumTaps;
        }
        First += L.W;
        C0 += RowStep;
      }
      ChanFirst += L.H * L.W;
      ChanC0 += ChanStep;
    }
    double *PixAcc = Acc + Px * Stride;
    for (int64_t Oc = 0; Oc < L.OC; ++Oc)
      std::fill_n(PixAcc + Oc * Lanes, Lanes,
                  L.Transposed && L.BiasD ? L.BiasD[Oc] : 0.0);
    tapPixel(X, Col, NumTaps, L.Wd, L.OcStride, L.OC, PixAcc, Lanes);
  }
  writeBack(Acc, NumPix, L.OC, L.Transposed ? nullptr : L.BiasD, L.P, PBegin,
            B);
}

/// The forward of both conv layers, batch-innermost, on N sample rows of
/// C*H*W doubles read at In[i] and output rows of OC*OH*OW doubles written
/// at Out[i]. Blocks of TapRows rows are transposed to [live inputs, rows];
/// each output pixel then walks its live (ic, ih, iw) taps in ascending
/// order over those contiguous row vectors. Every output element therefore
/// keeps the add chain of the direct loop over its nonzero terms, whatever
/// the blocking and thread count:
///  * Conv2d starts at +0.0, adds its in-bounds (ic, kh, kw) taps in
///    ascending order, then the bias;
///  * ConvTranspose2d starts at the bias (or +0.0) and adds its (ic, ih,
///    iw) taps in ascending order.
/// Dead inputs: with finite weights, an input that is zero in every row of
/// the block adds only ±0 terms, and those change no sum that starts at
/// +0.0 or at a nonzero bias (round-to-nearest never rounds a sum to
/// -0.0 unless both terms are -0.0). So such an input gets no transpose
/// slot and no tap. A -0.0 bias element is the exception: a +0.0 tap
/// turns it into +0.0, so a ConvTranspose2d with one keeps every tap.
void convTaps(const double *const *In, int64_t N, int64_t H, int64_t W,
              const Tensor &Weight, const Tensor &Bias, const ConvGeometry &G,
              bool Transposed, double *const *Out) {
  const int64_t C = G.InChannels;
  const auto [OH, OW] =
      Transposed ? G.convTransposeOutput(H, W) : G.convOutput(H, W);
  const int64_t OC = G.OutChannels, KH = G.KernelH, KW = G.KernelW;
  check(Weight.numel() == OC * C * KH * KW, "conv weight size mismatch");
  check(Bias.numel() == 0 || Bias.numel() == OC, "conv bias size mismatch");
  const int64_t CHW = C * H * W, P = OH * OW;
  if (N == 0 || P == 0)
    return;
  // Conv2d weights are [OC, IC, KH, KW], ConvTranspose2d's [IC, OC, KH, KW].
  const int64_t OcStride = Transposed ? KH * KW : C * KH * KW;
  const int64_t IcStride = Transposed ? OC * KH * KW : KH * KW;
  const TapLayer L{Weight.data(), Bias.numel() ? Bias.data() : nullptr, &G,
                   Transposed, C, H, W, OC, KH, KW, OW, P, OcStride, IcStride};
  bool SkipDead = true;
  for (int64_t Oc = 0; Transposed && L.BiasD && Oc < OC; ++Oc)
    if (L.BiasD[Oc] == 0.0 && std::signbit(L.BiasD[Oc]))
      SkipDead = false;
  const int64_t Blocks = (N + TapRows - 1) / TapRows, MaxTaps = C * KH * KW;
  // Several blocks keep the pool busy, so each accumulates all its pixels
  // and writes every (row, channel) plane in one run. A single block fans
  // out over chunks of whole 8-pixel tiles instead (the nested parallelFor
  // runs inline otherwise).
  const int64_t PixGrain =
      Blocks > 1 ? P
                 : std::max<int64_t>(
                       16, (ThreadPool::defaultGrain(P) + 7) / 8 * 8);
  const int64_t Chunks = (P + PixGrain - 1) / PixGrain;
  // Row blocks run in parallel, each on its own transposed copy, so no
  // thread reads lines another one wrote.
  parallelFor(Blocks, 1, [&](int64_t BBegin, int64_t BEnd) {
    LineScratch XT, Acc;
    std::vector<int64_t> LiveBefore(static_cast<size_t>(CHW + 1));
    std::vector<int64_t> LiveInput(static_cast<size_t>(CHW));
    std::vector<const double *> X(static_cast<size_t>(MaxTaps));
    std::vector<int64_t> Col(static_cast<size_t>(MaxTaps));
    for (int64_t Blk = BBegin; Blk < BEnd; ++Blk) {
      const int64_t Row0 = Blk * TapRows, Rows = std::min(TapRows, N - Row0);
      // A partial block of 8 or more rows is padded with zero rows to whole
      // 8-double vectors; their results are dropped.
      const int64_t Lanes = Rows < 8 ? Rows : (Rows + 7) / 8 * 8;
      double *XTd = XT.get(CHW * Lanes);
      transposeLive(In + Row0, Rows, Lanes, CHW, SkipDead, XTd,
                    LiveBefore.data(), LiveInput.data());
      const TapBlock B{XTd, LiveBefore.data(), LiveInput.data(), Rows, Lanes,
                       Out + Row0};
      const int64_t AccSize = PixGrain * accStride(OC, Lanes);
      if (Chunks == 1) {
        convPixels(L, B, 0, P, X.data(), Col.data(), Acc.get(AccSize));
        continue;
      }
      parallelFor(Chunks, 1, [&](int64_t Begin, int64_t End) {
        LineScratch ChunkAcc;
        std::vector<const double *> ChunkX(static_cast<size_t>(MaxTaps));
        std::vector<int64_t> ChunkCol(static_cast<size_t>(MaxTaps));
        for (int64_t Chunk = Begin; Chunk < End; ++Chunk) {
          const int64_t PBegin = Chunk * PixGrain;
          convPixels(L, B, PBegin, std::min(PixGrain, P - PBegin),
                     ChunkX.data(), ChunkCol.data(), ChunkAcc.get(AccSize));
        }
      });
    }
  });
}

/// The Tensor entry points: one NCHW batch through convTaps.
Tensor convTensor(const Tensor &Input, const Tensor &Weight,
                  const Tensor &Bias, const ConvGeometry &G, bool Transposed) {
  check(Input.rank() == 4, "conv expects NCHW input");
  const int64_t N = Input.dim(0), H = Input.dim(2), W = Input.dim(3);
  check(Input.dim(1) == G.InChannels, "conv channel mismatch");
  const auto [OH, OW] =
      Transposed ? G.convTransposeOutput(H, W) : G.convOutput(H, W);
  Tensor Output({N, G.OutChannels, OH, OW});
  convTaps(rowPointers(Input).data(), N, H, W, Weight, Bias, G, Transposed,
           rowPointers(Output).data());
  return Output;
}

} // namespace

Tensor conv2d(const Tensor &Input, const Tensor &Weight, const Tensor &Bias,
              const ConvGeometry &Geom) {
  return convTensor(Input, Weight, Bias, Geom, /*Transposed=*/false);
}

void conv2dRows(const double *const *In, int64_t N, int64_t H, int64_t W,
                const Tensor &Weight, const Tensor &Bias,
                const ConvGeometry &Geom, double *const *Out) {
  convTaps(In, N, H, W, Weight, Bias, Geom, /*Transposed=*/false, Out);
}

Tensor conv2dBackward(const Tensor &Input, const Tensor &Weight,
                      const Tensor &GradOutput, const ConvGeometry &Geom,
                      Tensor &GradWeight, Tensor &GradBias) {
  const int64_t N = Input.dim(0), C = Input.dim(1), H = Input.dim(2),
                W = Input.dim(3);
  const auto [OH, OW] = Geom.convOutput(H, W);
  const int64_t OC = Geom.OutChannels;
  const int64_t KSize = C * Geom.KernelH * Geom.KernelW;

  const Tensor WeightMat = Weight.reshaped({OC, KSize});
  Tensor GradInput({N, C, H, W});
  Tensor Patches({OH * OW, KSize});

  for (int64_t Sample = 0; Sample < N; ++Sample) {
    const Tensor GradOutMat =
        Tensor({OC, OH * OW},
               std::vector<double>(GradOutput.data() + Sample * OC * OH * OW,
                                   GradOutput.data() +
                                       (Sample + 1) * OC * OH * OW));
    // Grad wrt weight: dW += dOut * Patches, each element an ascending-p
    // chain over the output pixels. Training activations are finite, so
    // matmul's skipped all-zero dOut columns drop only ±0 terms.
    im2row(Input.data() + Sample * C * H * W, C, H, W, Geom, Patches.data());
    Tensor Dw = matmul(GradOutMat, Patches); // [OC, KSize]
    GradWeight.addInPlace(Dw.reshaped(Weight.shape()));
    // Grad wrt bias: row sums of dOut.
    for (int64_t Oc = 0; Oc < OC; ++Oc) {
      double Acc = 0.0;
      for (int64_t P = 0; P < OH * OW; ++P)
        Acc += GradOutMat.at(Oc, P);
      GradBias[Oc] += Acc;
    }
    // Grad wrt input: col grad = W^T * dOut, then col2im.
    Tensor ColGrad = matmulTransA(WeightMat, GradOutMat); // [KSize, OH*OW]
    col2im(ColGrad.data(), C, H, W, Geom,
           GradInput.data() + Sample * C * H * W);
  }
  return GradInput;
}

Tensor convTranspose2d(const Tensor &Input, const Tensor &Weight,
                       const Tensor &Bias, const ConvGeometry &Geom) {
  return convTensor(Input, Weight, Bias, Geom, /*Transposed=*/true);
}

void convTranspose2dRows(const double *const *In, int64_t N, int64_t H,
                         int64_t W, const Tensor &Weight, const Tensor &Bias,
                         const ConvGeometry &Geom, double *const *Out) {
  convTaps(In, N, H, W, Weight, Bias, Geom, /*Transposed=*/true, Out);
}

Tensor convTranspose2dBackward(const Tensor &Input, const Tensor &Weight,
                               const Tensor &GradOutput,
                               const ConvGeometry &Geom, Tensor &GradWeight,
                               Tensor &GradBias) {
  const int64_t N = Input.dim(0), C = Input.dim(1), H = Input.dim(2),
                W = Input.dim(3);
  const auto [OH, OW] = Geom.convTransposeOutput(H, W);
  const int64_t OC = Geom.OutChannels;

  Tensor GradInput({N, C, H, W});
  const double *Wd = Weight.data();
  double *Gw = GradWeight.data();

  for (int64_t Sample = 0; Sample < N; ++Sample) {
    const double *In = Input.data() + Sample * C * H * W;
    const double *Go = GradOutput.data() + Sample * OC * OH * OW;
    double *Gi = GradInput.data() + Sample * C * H * W;
    // Bias gradient: sum over spatial positions.
    for (int64_t Oc = 0; Oc < OC; ++Oc) {
      double Acc = 0.0;
      for (int64_t P = 0; P < OH * OW; ++P)
        Acc += Go[Oc * OH * OW + P];
      GradBias[Oc] += Acc;
    }
    for (int64_t Ic = 0; Ic < C; ++Ic) {
      for (int64_t Ih = 0; Ih < H; ++Ih) {
        for (int64_t Iw = 0; Iw < W; ++Iw) {
          const double V = In[(Ic * H + Ih) * W + Iw];
          double GiAcc = 0.0;
          for (int64_t Oc = 0; Oc < OC; ++Oc) {
            const double *Kslice =
                Wd + ((Ic * OC + Oc) * Geom.KernelH) * Geom.KernelW;
            double *GwSlice =
                Gw + ((Ic * OC + Oc) * Geom.KernelH) * Geom.KernelW;
            for (int64_t Kh = 0; Kh < Geom.KernelH; ++Kh) {
              const int64_t Oh = Ih * Geom.Stride - Geom.Padding + Kh;
              if (Oh < 0 || Oh >= OH)
                continue;
              for (int64_t Kw = 0; Kw < Geom.KernelW; ++Kw) {
                const int64_t Ow = Iw * Geom.Stride - Geom.Padding + Kw;
                if (Ow < 0 || Ow >= OW)
                  continue;
                const double G = Go[(Oc * OH + Oh) * OW + Ow];
                GiAcc += G * Kslice[Kh * Geom.KernelW + Kw];
                GwSlice[Kh * Geom.KernelW + Kw] += G * V;
              }
            }
          }
          Gi[(Ic * H + Ih) * W + Iw] = GiAcc;
        }
      }
    }
  }
  return GradInput;
}

Tensor relu(const Tensor &Input) {
  Tensor Out = Input.clone();
  double *D = Out.data();
  parallelFor(Out.numel(), [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      D[I] = std::max(0.0, D[I]);
  });
  return Out;
}

Tensor reluMask(const Tensor &Input) {
  Tensor Out(Input.shape());
  const double *In = Input.data();
  double *D = Out.data();
  parallelFor(Input.numel(), [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      D[I] = In[I] > 0.0 ? 1.0 : 0.0;
  });
  return Out;
}

std::vector<int64_t> argmaxRows(const Tensor &Logits) {
  check(Logits.rank() == 2, "argmaxRows requires rank-2");
  const int64_t Rows = Logits.dim(0), Cols = Logits.dim(1);
  std::vector<int64_t> Result(static_cast<size_t>(Rows), 0);
  for (int64_t I = 0; I < Rows; ++I) {
    int64_t Best = 0;
    for (int64_t J = 1; J < Cols; ++J)
      if (Logits.at(I, J) > Logits.at(I, Best))
        Best = J;
    Result[static_cast<size_t>(I)] = Best;
  }
  return Result;
}

Tensor softmaxRows(const Tensor &Logits) {
  check(Logits.rank() == 2, "softmaxRows requires rank-2");
  const int64_t Rows = Logits.dim(0), Cols = Logits.dim(1);
  Tensor Out(Logits.shape());
  for (int64_t I = 0; I < Rows; ++I) {
    double Max = Logits.at(I, 0);
    for (int64_t J = 1; J < Cols; ++J)
      Max = std::max(Max, Logits.at(I, J));
    double Sum = 0.0;
    for (int64_t J = 0; J < Cols; ++J) {
      const double E = std::exp(Logits.at(I, J) - Max);
      Out.at(I, J) = E;
      Sum += E;
    }
    for (int64_t J = 0; J < Cols; ++J)
      Out.at(I, J) /= Sum;
  }
  return Out;
}

} // namespace genprove
