//===- bench/micro_kernels.cpp - kernel microbenchmarks ---------*- C++ -*-===//
//
// google-benchmark microbenchmarks of the kernels the verifier spends its
// time in: matmul (tiled vs the pre-optimization naive kernel, across
// sizes and thread counts), the conv tap kernel at the paper's conv and
// transposed-conv layer shapes, concurrent grid-cell style propagation,
// segment ReLU splitting, relaxation, and degree-1 vs degree-2
// propagation (the GenProveCurve ablation from DESIGN.md).
//
// Emit the machine-readable record with:
//   micro_kernels --benchmark_repetitions=5
//                 --benchmark_enable_random_interleaving=true
//                 --benchmark_out=BENCH_kernels.json --benchmark_out_format=json
//
// BM_Instrumentation measures the telemetry plane's own cost — the same
// propagation with metrics off (the relaxed-load fast path) vs on — and is
// recorded separately:
//   micro_kernels --benchmark_filter=BM_Instrumentation \
//                 --benchmark_out=BENCH_obs.json --benchmark_out_format=json
//
// BM_PropagatePerSpec / BM_PropagateAmortized / BM_CacheWarmStart
// measure the propagation cache (docs/PERFORMANCE.md): many segment specs
// through one shared decoder cold vs warm-started, and a repeated query
// cold vs warm. CI records them to BENCH_batch.json:
//   micro_kernels --benchmark_filter='BM_Propagate(PerSpec|Amortized)|BM_CacheWarmStart'
//                 --benchmark_repetitions=5
//                 --benchmark_out=BENCH_batch.json --benchmark_out_format=json
//
// BM_PropagateLayerPair measures a deep Linear->ReLU chain, and
// BM_ReluSplit the exact ReLU split alone on the decoder's widest layer.
//
// Every benchmark that pins the pool reports real time (main-thread CPU
// time would hide the workers' share), and registers a threads:N row only
// on a host with at least N hardware threads — on fewer, the row would
// measure the scheduler, not the kernel.
//
//===----------------------------------------------------------------------===//

#include "src/core/genprove.h"
#include "src/domains/prop_cache.h"
#include "src/domains/propagate.h"
#include "src/nn/activations.h"
#include "src/nn/architectures.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/obs/metrics.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace {

using namespace genprove;

/// The seed's GEMM: plain i-k-j triple loop with the zero-skip branch,
/// always serial. Kept verbatim as the reference the tiled kernel is
/// measured against (BM_Matmul / BM_MatmulNaive at threads=1 isolates the
/// tiling + unrolling win from the threading win).
Tensor naiveMatmul(const Tensor &A, const Tensor &B) {
  const int64_t M = A.dim(0), K = A.dim(1), N = B.dim(1);
  Tensor C({M, N});
  const double *Ad = A.data();
  const double *Bd = B.data();
  double *Cd = C.data();
  for (int64_t I = 0; I < M; ++I)
    for (int64_t Kk = 0; Kk < K; ++Kk) {
      const double Aik = Ad[I * K + Kk];
      if (Aik == 0.0)
        continue;
      const double *Brow = Bd + Kk * N;
      double *Crow = Cd + I * N;
      for (int64_t J = 0; J < N; ++J)
        Crow[J] += Aik * Brow[J];
    }
  return C;
}

/// Pin the pool to State.range(1) threads for the benchmark body.
struct PoolScope {
  explicit PoolScope(int64_t Threads) {
    ThreadPool::global().setThreads(Threads);
  }
  ~PoolScope() { ThreadPool::global().setThreads(ThreadPool::envThreads()); }
};

/// Register the Args rows whose last entry (the pool thread count) the
/// host has hardware threads for, reporting real time.
void threadRows(benchmark::internal::Benchmark *B,
                const std::vector<std::vector<int64_t>> &Rows) {
  const int64_t Cores =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  for (const std::vector<int64_t> &Row : Rows)
    if (Row.back() <= Cores)
      B->Args(Row);
  B->UseRealTime();
}

void BM_Matmul(benchmark::State &State) {
  const int64_t N = State.range(0);
  PoolScope Scope(State.range(1));
  Rng R(1);
  Tensor A = Tensor::randn({N, N}, R);
  Tensor B = Tensor::randn({N, N}, R);
  for (auto _ : State) {
    Tensor C = matmul(A, B);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * N * N * N);
}
BENCHMARK(BM_Matmul)
    ->ArgNames({"n", "threads"})
    ->Apply([](benchmark::internal::Benchmark *B) {
      threadRows(B, {{64, 1},
                     {128, 1},
                     {256, 1},
                     {512, 1},
                     {128, 2},
                     {256, 2},
                     {512, 2},
                     {128, 4},
                     {256, 4},
                     {512, 4}});
    });

void BM_MatmulNaive(benchmark::State &State) {
  const int64_t N = State.range(0);
  Rng R(1);
  Tensor A = Tensor::randn({N, N}, R);
  Tensor B = Tensor::randn({N, N}, R);
  for (auto _ : State) {
    Tensor C = naiveMatmul(A, B);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * N * N * N);
}
BENCHMARK(BM_MatmulNaive)->ArgName("n")->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_MatmulTransB(benchmark::State &State) {
  const int64_t N = State.range(0);
  PoolScope Scope(State.range(1));
  Rng R(6);
  Tensor A = Tensor::randn({N, N}, R);
  Tensor B = Tensor::randn({N, N}, R);
  for (auto _ : State) {
    Tensor C = matmulTransB(A, B);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * N * N * N);
}
BENCHMARK(BM_MatmulTransB)
    ->ArgNames({"n", "threads"})
    ->Apply([](benchmark::internal::Benchmark *B) {
      threadRows(B, {{256, 1}, {256, 4}});
    });

/// One of the paper's conv layers at 16x16 images (the batch-innermost
/// tap kernel's hot shapes). A post-ReLU layer reads relu(randn), the
/// classifiers' first layer the decoder's dense image (randn).
struct ConvBenchLayer {
  bool Transposed;
  int64_t InC, OutC, Kernel, Stride, Padding, OutPadding, Size;
  bool PostRelu = true;
};

constexpr ConvBenchLayer ConvLargeConv = {false, 16, 16, 4, 2, 1, 0, 16};
constexpr ConvBenchLayer ConvLargeFirst = {false, 3, 16, 3, 1, 1, 0, 16, false};
constexpr ConvBenchLayer DecoderConvT1 = {true, 32, 16, 3, 2, 1, 1, 8};
constexpr ConvBenchLayer DecoderConvT2 = {true, 16, 3, 3, 1, 1, 0, 16};

/// Multiply-adds per sample: every in-bounds tap, zero inputs included,
/// as the kernel runs them.
int64_t convMadds(const ConvBenchLayer &L, const ConvGeometry &G) {
  // (input, output) position pairs one kernel axis links, squared for the
  // square layers here.
  const int64_t Out = L.Transposed ? G.convTransposeOutput(L.Size, L.Size).first
                                   : G.convOutput(L.Size, L.Size).first;
  int64_t Pairs = 0;
  for (int64_t O = 0; O < Out; ++O)
    for (int64_t I = 0; I < L.Size; ++I) {
      const int64_t K = L.Transposed ? O + L.Padding - I * L.Stride
                                     : I - O * L.Stride + L.Padding;
      Pairs += K >= 0 && K < L.Kernel;
    }
  return Pairs * Pairs * L.InC * L.OutC;
}

/// A conv layer forward on Batch samples with Threads pool threads. On a
/// post-ReLU layer, DeadPercent 0 feeds relu(randn), whose zeros fall per
/// element, so no input is zero across a whole row block. Otherwise that percentage
/// of the input components is zero in every row as well, the way adjacent
/// pieces of one segment share their ReLU pattern (63-71% of the decoder's
/// ConvTranspose2d inputs on the paper cells), and the kernel skips them.
/// items_per_second is multiply-adds per second, zero inputs included.
void runConvBench(benchmark::State &State, const ConvBenchLayer &L,
                  int64_t Batch, int64_t Threads, int64_t DeadPercent) {
  PoolScope Scope(Threads);
  Rng R(2);
  ConvGeometry G;
  G.InChannels = L.InC;
  G.OutChannels = L.OutC;
  G.KernelH = G.KernelW = L.Kernel;
  G.Stride = L.Stride;
  G.Padding = L.Padding;
  G.OutputPadding = L.OutPadding;
  Tensor In = Tensor::randn({Batch, L.InC, L.Size, L.Size}, R);
  if (L.PostRelu)
    In = relu(In);
  // dead:0 rows draw nothing more, so they keep the data of the rows
  // recorded before the dead rows existed.
  const int64_t Features = L.InC * L.Size * L.Size;
  for (int64_t J = 0; DeadPercent > 0 && J < Features; ++J)
    if (R.uniform() * 100.0 < static_cast<double>(DeadPercent))
      for (int64_t I = 0; I < Batch; ++I)
        In[I * Features + J] = 0.0;
  const Tensor W =
      L.Transposed ? Tensor::randn({L.InC, L.OutC, L.Kernel, L.Kernel}, R)
                   : Tensor::randn({L.OutC, L.InC, L.Kernel, L.Kernel}, R);
  const Tensor B = Tensor::randn({L.OutC}, R);
  for (auto _ : State) {
    Tensor Out = L.Transposed ? convTranspose2d(In, W, B, G)
                              : conv2d(In, W, B, G);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * Batch * convMadds(L, G));
}

void BM_Conv2d(benchmark::State &State) {
  runConvBench(State, ConvLargeConv, State.range(0), State.range(2),
               State.range(1));
}
BENCHMARK(BM_Conv2d)
    ->ArgNames({"batch", "dead", "threads"})
    ->Apply([](benchmark::internal::Benchmark *B) {
      threadRows(B, {{1, 0, 1},
                     {256, 0, 1},
                     {256, 0, 2},
                     {256, 63, 1},
                     {256, 63, 2}});
    });

/// The classifiers' first Conv2d (ConvLarge's 3->16 k3 s1) on the
/// decoder's dense image: 27 taps per output, the fewest multiply-adds per
/// written output of the paper's conv layers.
void BM_Conv2dImage(benchmark::State &State) {
  runConvBench(State, ConvLargeFirst, State.range(0), State.range(1), 0);
}
BENCHMARK(BM_Conv2dImage)
    ->ArgNames({"batch", "threads"})
    ->Apply([](benchmark::internal::Benchmark *B) {
      threadRows(B, {{1, 1}, {256, 1}, {256, 2}});
    });

void BM_ConvTranspose2d(benchmark::State &State) {
  runConvBench(State, State.range(0) == 16 ? DecoderConvT1 : DecoderConvT2,
               State.range(1), State.range(3), State.range(2));
}
BENCHMARK(BM_ConvTranspose2d)
    ->ArgNames({"out", "batch", "dead", "threads"})
    ->Apply([](benchmark::internal::Benchmark *B) {
      // The measured dead shares: 71% before the 32->16 layer, 63% before
      // the 16->3 one.
      for (int64_t Out : {16, 3}) {
        const int64_t Dead = Out == 16 ? 71 : 63;
        threadRows(B, {{Out, 1, 0, 1},
                       {Out, 256, 0, 1},
                       {Out, 256, 0, 2},
                       {Out, 256, Dead, 1},
                       {Out, 256, Dead, 2}});
      }
    });

/// Grid-cell style concurrency: independent propagations through
/// independent networks fanned out over the pool, the same shape as
/// BenchEnv::prefetchCells. items_per_second is cells/s; the threads=1 vs
/// threads=4 ratio is the harness-level scaling number recorded in
/// BENCH_kernels.json.
void BM_ConcurrentCells(benchmark::State &State) {
  const int64_t NumCells = 8;
  PoolScope Scope(State.range(0));
  Rng R(8);
  std::vector<Sequential> Nets;
  std::vector<Tensor> Starts, Ends;
  for (int64_t C = 0; C < NumCells; ++C) {
    Sequential Net;
    const std::vector<int64_t> Dims{8, 48, 48, 10};
    for (size_t I = 0; I + 1 < Dims.size(); ++I) {
      auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
      L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.5);
      L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.3);
      Net.add(std::move(L));
      if (I + 2 < Dims.size())
        Net.add(std::make_unique<ReLU>());
    }
    Nets.push_back(std::move(Net));
    Starts.push_back(Tensor::randn({1, 8}, R));
    Ends.push_back(Tensor::randn({1, 8}, R));
  }
  for (auto _ : State) {
    std::vector<size_t> Sizes(static_cast<size_t>(NumCells));
    parallelFor(NumCells, 1, [&](int64_t Begin, int64_t End) {
      for (int64_t I = Begin; I < End; ++I) {
        PropagateConfig Config;
        DeviceMemoryModel Memory;
        PropagateStats Stats;
        std::vector<Region> Init{
            makeSegmentRegion(Starts[static_cast<size_t>(I)],
                              Ends[static_cast<size_t>(I)])};
        auto Final = propagateRegions(Nets[static_cast<size_t>(I)].view(),
                                      Shape({1, 8}), std::move(Init), Config,
                                      Memory, Stats);
        Sizes[static_cast<size_t>(I)] = Final.size();
      }
    });
    benchmark::DoNotOptimize(Sizes.data());
  }
  State.SetItemsProcessed(State.iterations() * NumCells);
}
BENCHMARK(BM_ConcurrentCells)
    ->ArgName("threads")
    ->Apply([](benchmark::internal::Benchmark *B) {
      threadRows(B, {{1}, {2}, {4}});
    });

/// Segment vs quadratic propagation through a random MLP: the degree-2
/// overhead ablation.
void propagateDegree(benchmark::State &State, int Degree) {
  Rng R(4);
  Sequential Net;
  const std::vector<int64_t> Dims{8, 64, 64, 10};
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.5);
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.3);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  Tensor A0 = Tensor::randn({1, 8}, R);
  Tensor A1 = Tensor::randn({1, 8}, R);
  Tensor A2 = Tensor::randn({1, 8}, R);

  for (auto _ : State) {
    std::vector<Region> Init;
    if (Degree == 1)
      Init.push_back(makeSegmentRegion(A0, A1));
    else
      Init.push_back(makeQuadraticRegion(A0, A1, A2));
    PropagateConfig Config;
    DeviceMemoryModel Memory;
    PropagateStats Stats;
    auto Final = propagateRegions(Net.view(), Shape({1, 8}), std::move(Init),
                                  Config, Memory, Stats);
    benchmark::DoNotOptimize(Final.size());
  }
}

void BM_PropagateSegment(benchmark::State &State) {
  propagateDegree(State, 1);
}
BENCHMARK(BM_PropagateSegment);

void BM_PropagateQuadratic(benchmark::State &State) {
  propagateDegree(State, 2);
}
BENCHMARK(BM_PropagateQuadratic);

/// Instrumentation overhead: one full propagation with the metrics switch
/// off (arg 0 — every counter site is a single relaxed atomic load) vs on
/// (arg 1 — loads plus relaxed fetch-adds and histogram records). The
/// off/on time ratio is the number the "disabled telemetry costs nothing"
/// claim in docs/OBSERVABILITY.md stands on; CI records it to
/// BENCH_obs.json. Tracing stays off in both arms: the trace buffer grows
/// without bound across benchmark iterations and would measure allocation,
/// not instrumentation.
void BM_Instrumentation(benchmark::State &State) {
  const bool Enable = State.range(0) != 0;
  const bool SavedMetrics = metricsEnabled();
  setMetricsEnabled(Enable);
  Rng R(7);
  Sequential Net;
  const std::vector<int64_t> Dims{8, 64, 64, 10};
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.5);
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.3);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  Tensor A0 = Tensor::randn({1, 8}, R);
  Tensor A1 = Tensor::randn({1, 8}, R);
  for (auto _ : State) {
    std::vector<Region> Init{makeSegmentRegion(A0, A1)};
    PropagateConfig Config;
    DeviceMemoryModel Memory;
    PropagateStats Stats;
    auto Final = propagateRegions(Net.view(), Shape({1, 8}), std::move(Init),
                                  Config, Memory, Stats);
    benchmark::DoNotOptimize(Final.size());
  }
  setMetricsEnabled(SavedMetrics);
}
BENCHMARK(BM_Instrumentation)->ArgName("metrics")->Arg(0)->Arg(1);

//===----------------------------------------------------------------------===//
// Propagation-cache amortization (docs/PERFORMANCE.md): the
// shared-decoder workload — many latent segments against ONE frozen
// pipeline — propagated cold per spec vs with the propagation cache warm.
// Bounds are bit-identical either way; the wall-clock ratio is the cache
// win recorded in BENCH_batch.json.
//===----------------------------------------------------------------------===//

Sequential sharedDecoder(Rng &R) {
  Sequential Net;
  const std::vector<int64_t> Dims{8, 128, 128, 10};
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.5);
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.3);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

/// Tight segments — the certification traffic shape: each query perturbs
/// a latent point slightly, so it crosses few ReLUs and its per-layer
/// GEMMs are a handful of rows.
std::vector<std::pair<Tensor, Tensor>> sharedDecoderSegments(int64_t K,
                                                             Rng &R) {
  std::vector<std::pair<Tensor, Tensor>> Segments;
  for (int64_t I = 0; I < K; ++I) {
    Tensor Start = Tensor::randn({1, 8}, R);
    Tensor End = Start.clone();
    for (int64_t J = 0; J < 8; ++J)
      End[J] += R.normal(0.0, 0.02);
    Segments.emplace_back(std::move(Start), std::move(End));
  }
  return Segments;
}

void BM_PropagatePerSpec(benchmark::State &State) {
  const int64_t NumSpecs = State.range(0);
  PoolScope Scope(State.range(1));
  Rng R(9);
  Sequential Net = sharedDecoder(R);
  const auto Segments = sharedDecoderSegments(NumSpecs, R);
  const GenProve Analyzer(GenProveConfig{});
  for (auto _ : State) {
    size_t Regions = 0;
    for (const auto &[Start, End] : Segments) {
      const PropagatedState Final =
          Analyzer.propagateSegment(Net.view(), Shape({1, 8}), Start, End);
      Regions += Final.Regions.size();
    }
    benchmark::DoNotOptimize(Regions);
  }
  State.SetItemsProcessed(State.iterations() * NumSpecs);
}
BENCHMARK(BM_PropagatePerSpec)
    ->ArgNames({"specs", "threads"})
    ->Apply([](benchmark::internal::Benchmark *B) {
      threadRows(B, {{16, 1}, {32, 1}, {16, 4}, {64, 4}});
    });

/// The propagation cache on hot traffic: the same ≥16-spec
/// shared-decoder workload as BM_PropagatePerSpec, one propagateSegment
/// per spec with the cache on. The first iteration runs cold and stores
/// every boundary state; every following iteration — the steady state of
/// repeated-spec traffic — warm starts past the whole pipeline.
/// BM_PropagatePerSpec vs this ratio is the ≥2x amortization number CI
/// asserts from BENCH_batch.json (bounds stay bit-identical: a warm start
/// only skips work).
void BM_PropagateAmortized(benchmark::State &State) {
  const int64_t NumSpecs = State.range(0);
  Rng R(9); // same seed as PerSpec: identical workload
  Sequential Net = sharedDecoder(R);
  const auto Segments = sharedDecoderSegments(NumSpecs, R);
  const GenProve Analyzer(GenProveConfig{});
  PropagationCache::global().configure(64u << 20);
  for (auto _ : State) {
    size_t Regions = 0;
    for (const auto &[Start, End] : Segments) {
      const PropagatedState Final =
          Analyzer.propagateSegment(Net.view(), Shape({1, 8}), Start, End);
      Regions += Final.Regions.size();
    }
    benchmark::DoNotOptimize(Regions);
  }
  PropagationCache::global().configure(0);
  State.SetItemsProcessed(State.iterations() * NumSpecs);
}
BENCHMARK(BM_PropagateAmortized)->ArgName("specs")->Arg(16)->Arg(32);

/// A repeated query, cold (cache off, full propagation every time) vs
/// warm (the propagation cache holds the final boundary state, so the
/// repeat skips every layer). The ratio bounds what the serve daemon's
/// hot repeated-spec traffic can save per request.
void BM_CacheWarmStart(benchmark::State &State) {
  const bool Warm = State.range(0) != 0;
  Rng R(10);
  Sequential Net = sharedDecoder(R);
  const Tensor Start = Tensor::randn({1, 8}, R);
  const Tensor End = Tensor::randn({1, 8}, R);
  const GenProve Analyzer(GenProveConfig{});
  PropagationCache::global().configure(Warm ? (64u << 20) : 0);
  if (Warm) // prime: the first propagation stores every boundary state
    Analyzer.propagateSegment(Net.view(), Shape({1, 8}), Start, End);
  for (auto _ : State) {
    const PropagatedState Final =
        Analyzer.propagateSegment(Net.view(), Shape({1, 8}), Start, End);
    benchmark::DoNotOptimize(Final.Regions.size());
  }
  PropagationCache::global().configure(0);
}
BENCHMARK(BM_CacheWarmStart)->ArgName("warm")->Arg(0)->Arg(1);

//===----------------------------------------------------------------------===//
// Deep Linear->ReLU chains (docs/PERFORMANCE.md).
// BM_PropagateLayerPair propagates a segment through a 64->512^4->10 MLP:
// every Linear layer runs on the memoized W^T kernels.
//===----------------------------------------------------------------------===//

Sequential deepPairChain(Rng &R) {
  Sequential Net;
  const std::vector<int64_t> Dims{64, 512, 512, 512, 512, 10};
  for (size_t I = 0; I + 1 < Dims.size(); ++I) {
    auto L = std::make_unique<Linear>(Dims[I], Dims[I + 1]);
    L->weight() = Tensor::randn({Dims[I + 1], Dims[I]}, R, 0.3);
    L->bias() = Tensor::randn({Dims[I + 1]}, R, 0.2);
    Net.add(std::move(L));
    if (I + 2 < Dims.size())
      Net.add(std::make_unique<ReLU>());
  }
  return Net;
}

void BM_PropagateLayerPair(benchmark::State &State) {
  PoolScope Scope(State.range(0));
  Rng R(11);
  Sequential Net = deepPairChain(R);
  const Tensor Start = Tensor::randn({1, 64}, R, 0.1);
  Tensor End = Start.clone();
  for (int64_t J = 0; J < 64; ++J)
    End[J] += R.normal(0.0, 0.05);
  const GenProve Analyzer(GenProveConfig{});
  for (auto _ : State) {
    const PropagatedState Final =
        Analyzer.propagateSegment(Net.view(), Shape({1, 64}), Start, End);
    benchmark::DoNotOptimize(Final.Regions.size());
  }
}
BENCHMARK(BM_PropagateLayerPair)
    ->ArgName("threads")
    ->Apply([](benchmark::internal::Benchmark *B) {
      threadRows(B, {{1}, {4}});
    });

/// The exact ReLU split alone, on the paper decoder's 4096-wide ReLU
/// (16x16x16, after the first transposed conv) at the zoo's shapes
/// (latent 8, 3x16x16 images): a segment between two latent points is
/// propagated through the layers before it once, and every iteration
/// splits that state. Copying the state into the engine is not timed.
/// The regions and pieces counters give the state's shape.
void BM_ReluSplit(benchmark::State &State) {
  PoolScope Scope(State.range(0));
  Rng R(12);
  Sequential Decoder = makeDecoder(/*Latent=*/8, /*ImgChannels=*/3,
                                   /*ImgSize=*/16);
  kaimingInit(Decoder, R);
  const std::vector<const Layer *> Layers = Decoder.view();
  const auto ReluAt = std::find_if(
      Layers.begin() + 4, Layers.end(),
      [](const Layer *L) { return L->kind() == Layer::Kind::ReLU; });
  const std::vector<const Layer *> Prefix(Layers.begin(), ReluAt);
  const Tensor Start = Tensor::randn({1, 8}, R);
  Tensor End = Start.clone();
  for (int64_t J = 0; J < 8; ++J)
    End[J] += R.normal(0.0, 0.06);
  PropagateConfig Config;
  Config.EnableRelax = false;
  DeviceMemoryModel PrefixMemory;
  PropagateStats PrefixStats;
  const std::vector<Region> Split = propagateRegions(
      Prefix, Shape({1, 8}), {makeSegmentRegion(Start, End)}, Config,
      PrefixMemory, PrefixStats);
  Shape ReluShape({1, 8});
  for (const Layer *L : Prefix)
    ReluShape = L->outputShape(ReluShape);
  size_t Pieces = 0;
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<Region> In = Split;
    DeviceMemoryModel Memory;
    PropagateStats Stats;
    State.ResumeTiming();
    const std::vector<Region> Out = propagateRegions(
        {*ReluAt}, ReluShape, std::move(In), Config, Memory, Stats);
    Pieces = Out.size();
    benchmark::DoNotOptimize(Out.data());
  }
  State.counters["width"] = static_cast<double>(ReluShape.numel());
  State.counters["regions"] = static_cast<double>(Split.size());
  State.counters["pieces"] = static_cast<double>(Pieces);
}
BENCHMARK(BM_ReluSplit)
    ->ArgName("threads")
    ->Apply([](benchmark::internal::Benchmark *B) {
      threadRows(B, {{1}, {2}});
    });

void BM_RelaxHeuristic(benchmark::State &State) {
  const int64_t NumPieces = State.range(0);
  Rng R(5);
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<Region> Chain;
    Tensor Prev = Tensor::randn({1, 32}, R);
    for (int64_t I = 0; I < NumPieces; ++I) {
      Tensor Next = Prev.clone();
      for (int64_t J = 0; J < 32; ++J)
        Next[J] += R.normal(0.0, 0.05);
      const double T0 = static_cast<double>(I) / NumPieces;
      const double T1 = static_cast<double>(I + 1) / NumPieces;
      Chain.push_back(makeSegmentRegion(Prev, Next, T1 - T0, T0, T1));
      Prev = Next;
    }
    State.ResumeTiming();
    RelaxConfig Config;
    Config.RelaxPercent = 0.5;
    Config.ClusterK = 50.0;
    Config.NodeThreshold = 100;
    relaxRegions(Chain, Config);
    benchmark::DoNotOptimize(Chain.size());
  }
}
BENCHMARK(BM_RelaxHeuristic)->Arg(1000)->Arg(10000);

} // namespace

BENCHMARK_MAIN();
