// Micro-benchmarks (google-benchmark) backing the paper's complexity
// analysis (Section IV-E):
//  * FFT vs naive DFT — O(n log n) vs O(n^2).
//  * Sliding CV statistics, FFT vs two-loop — O(N·S·logS) vs O(N·S·W).
//  * Self-attention forward cost vs sequence length — the O(L·D·S^2) term.
//  * The GEMM kernel that dominates training.
//
// Run with --tensor_backend_json=PATH to skip google-benchmark and instead
// sweep the parallel tensor backend (GEMM / batched matmul / attention /
// train step at 1, 2, 4 and hardware-concurrency threads), writing a
// machine-readable JSON report with GFLOP/s and speedups over the frozen
// seed kernel and over the 1-thread run.
//
// Run with --obs_json=PATH to exercise the observability layer: a fixed
// GEMM + attention workload is run with instrumentation enabled, the per-op
// totals recorded by the obs registry are compared against externally
// measured wall time (they must agree within 10%), and the full metrics
// snapshot is written to PATH as JSON.
//
// Run with --memory_plane_json=PATH to benchmark the memory plane: a
// Transformer-layer + Adam training step is timed with the buffer pool on
// and off at 1, 2 and 4 threads, recording ns/step, physical heap
// allocations per step, pool hit rate, and logical allocation churn. The
// summary records the pooled-vs-unpooled alloc reduction and speedup, and
// verifies the final losses are bitwise identical across all configurations.
//
// Run with --resilience_json=PATH to drill the resilience plane: a small
// TFMAE fit is trained to completion, then re-run with periodic crash-safe
// checkpoints, killed mid-epoch at a step budget and resumed; the report
// records checkpoint write/load timings and whether the resumed weights are
// bitwise identical to the uninterrupted run. The drill then injects NaN
// losses and checkpoint-write failures and records the numeric-guard
// recovery counters.
//
// Run with --inference_plan_json=PATH to benchmark pre-planned inference
// (DESIGN.md §10): eager TfmaeModel::ScoreWindow vs InferencePlan replay
// over an identical pre-prepared window batch at 1, 2 and 4 threads,
// recording ns/window, allocations/window, the bitwise eager-vs-planned
// comparison, and the 1T->4T scaling of the coarse elementwise dispatch.
//
// Run with --serving_json=PATH to load-generate the fleet-serving plane
// (docs/SERVING.md): one shared detector serves 64/256/1024 concurrent
// streams through serve::FleetServer at 1, 2 and 4 threads, recording
// rows/sec, windows/sec, per-window latency quantiles and bytes/stream per
// cell; verifying batched scores stay bitwise-identical to a sequential
// per-stream StreamingDetector at every thread count; and comparing batched
// throughput against the sequential wrapper (batch_efficiency_x).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/detector.h"
#include "core/quant.h"
#include "core/streaming.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "eval/detection.h"
#include "fft/fft.h"
#include "masking/coefficient_of_variation.h"
#include "masking/frequency_mask.h"
#include "nn/adam.h"
#include "nn/attention.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fleet_server.h"
#include "serve/fleet_snapshot.h"
#include "tensor/gemm_kernels.h"
#include "tensor/op_kernels.h"
#include "tensor/quant_kernels.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "util/fault.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tfmae {
namespace {

std::vector<fft::Complex> RandomComplex(std::int64_t n) {
  Rng rng(static_cast<std::uint64_t>(n));
  std::vector<fft::Complex> signal(static_cast<std::size_t>(n));
  for (auto& v : signal) v = fft::Complex(rng.Normal(), rng.Normal());
  return signal;
}

void BM_FftForward(benchmark::State& state) {
  const auto signal = RandomComplex(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fft::Fft(signal));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FftForward)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_NaiveDft(benchmark::State& state) {
  const auto signal = RandomComplex(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fft::NaiveDft(signal));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveDft)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

std::vector<float> RandomSeries(std::int64_t length, std::int64_t features) {
  Rng rng(static_cast<std::uint64_t>(length * 31 + features));
  std::vector<float> series(static_cast<std::size_t>(length * features));
  for (float& v : series) v = static_cast<float>(rng.Normal());
  return series;
}

// Args: {series length, CV window W}. Feature count fixed at 8.
void BM_CvStatisticFft(benchmark::State& state) {
  const std::int64_t length = state.range(0);
  const std::int64_t window = state.range(1);
  const auto series = RandomSeries(length, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(masking::CoefficientOfVariation(
        series, length, 8, window, masking::CvMethod::kFft));
  }
}
BENCHMARK(BM_CvStatisticFft)
    ->Args({512, 10})
    ->Args({2048, 10})
    ->Args({2048, 50})
    ->Args({8192, 50});

void BM_CvStatisticNaive(benchmark::State& state) {
  const std::int64_t length = state.range(0);
  const std::int64_t window = state.range(1);
  const auto series = RandomSeries(length, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(masking::CoefficientOfVariation(
        series, length, 8, window, masking::CvMethod::kNaive));
  }
}
BENCHMARK(BM_CvStatisticNaive)
    ->Args({512, 10})
    ->Args({2048, 10})
    ->Args({2048, 50})
    ->Args({8192, 50});

void BM_AttentionForward(benchmark::State& state) {
  const std::int64_t t_len = state.range(0);
  Rng rng(3);
  nn::MultiHeadSelfAttention attention(32, 4, &rng);
  Tensor x = Tensor::Randn({t_len, 32}, &rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attention.Forward(x));
  }
  state.SetComplexityN(t_len);
}
BENCHMARK(BM_AttentionForward)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Complexity();

void BM_MatMul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(4);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_FrequencyMasking(benchmark::State& state) {
  const std::int64_t length = state.range(0);
  Rng rng(5);
  std::vector<float> column(static_cast<std::size_t>(length));
  for (float& v : column) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(masking::MaskFrequencyColumn(
        column, 0.3, masking::FrequencyMaskVariant::kAmplitude, nullptr));
  }
}
BENCHMARK(BM_FrequencyMasking)->Arg(50)->Arg(100)->Arg(512);

// ---- tensor backend sweep (--tensor_backend_json=PATH) ---------------------

/// Median-of-reps seconds per call. Calibrates the iteration count so each
/// rep runs for roughly `target_sec`.
template <typename Fn>
double TimePerCall(const Fn& fn, double target_sec = 0.15) {
  using clock = std::chrono::steady_clock;
  fn();  // warm caches and the thread pool
  auto t0 = clock::now();
  fn();
  double once = std::chrono::duration<double>(clock::now() - t0).count();
  const int iters = std::max(1, static_cast<int>(target_sec / std::max(once, 1e-7)));
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = clock::now();
    for (int it = 0; it < iters; ++it) fn();
    double sec =
        std::chrono::duration<double>(clock::now() - t0).count() / iters;
    best = std::min(best, sec);
  }
  return best;
}

struct SweepRow {
  std::string op;
  std::string shape;
  int threads;
  double seconds;
  double gflops;            // <= 0 when flop count is not meaningful
  double speedup_vs_seed;   // <= 0 when no seed baseline applies
  double speedup_vs_1t;
};

std::vector<float> RandomBuffer(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

int RunTensorBackendSweep(const std::string& path) {
  std::vector<int> threads = {1, 2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 4) threads.push_back(hw);

  std::vector<SweepRow> rows;
  char shape_buf[64];

  // GEMM shapes: the acceptance shape, a square, and a tall-skinny reduce.
  const std::int64_t gemm_shapes[][3] = {
      {256, 512, 512}, {512, 512, 512}, {64, 2048, 64}};
  for (const auto& s : gemm_shapes) {
    const std::int64_t m = s[0], k = s[1], n = s[2];
    std::snprintf(shape_buf, sizeof(shape_buf), "%ldx%ldx%ld",
                  static_cast<long>(m), static_cast<long>(k),
                  static_cast<long>(n));
    const auto a = RandomBuffer(m * k, 1);
    const auto b = RandomBuffer(k * n, 2);
    std::vector<float> c(static_cast<std::size_t>(m * n));
    const double flops = 2.0 * static_cast<double>(m) * k * n;

    const double seed_sec = TimePerCall([&] {
      std::fill(c.begin(), c.end(), 0.0f);
      gemm::GemmNaiveSeed(a.data(), b.data(), c.data(), m, k, n);
    });
    rows.push_back({"gemm_seed", shape_buf, 1, seed_sec, flops / seed_sec / 1e9,
                    1.0, 1.0});

    double one_sec = 0.0;
    for (int t : threads) {
      ThreadPool::Instance().SetNumThreads(t);
      const double sec = TimePerCall([&] {
        std::fill(c.begin(), c.end(), 0.0f);
        gemm::Gemm(a.data(), b.data(), c.data(), m, k, n);
      });
      if (t == 1) one_sec = sec;
      rows.push_back({"gemm", shape_buf, t, sec, flops / sec / 1e9,
                      seed_sec / sec, one_sec / sec});
    }
  }

  // Batched matmul at the attention shape: H heads of [T, Dh] x [Dh, T].
  {
    const std::int64_t h = 8, t_len = 256, dh = 64;
    std::snprintf(shape_buf, sizeof(shape_buf), "%ldx%ldx%ldx%ld",
                  static_cast<long>(h), static_cast<long>(t_len),
                  static_cast<long>(dh), static_cast<long>(t_len));
    const auto a = RandomBuffer(h * t_len * dh, 3);
    const auto b = RandomBuffer(h * dh * t_len, 4);
    std::vector<float> c(static_cast<std::size_t>(h * t_len * t_len));
    const double flops = 2.0 * h * t_len * dh * t_len;
    double one_sec = 0.0;
    for (int t : threads) {
      ThreadPool::Instance().SetNumThreads(t);
      const double sec = TimePerCall([&] {
        std::fill(c.begin(), c.end(), 0.0f);
        gemm::BatchedGemm(a.data(), b.data(), c.data(), h, t_len, dh, t_len);
      });
      if (t == 1) one_sec = sec;
      rows.push_back({"batched_matmul", shape_buf, t, sec, flops / sec / 1e9,
                      -1.0, one_sec / sec});
    }
  }

  // Attention forward and a full Transformer-layer train step: end-to-end
  // time (GEMM + softmax + layernorm + elementwise), no flop count.
  {
    const std::int64_t t_len = 256, dim = 64, heads = 8, ff = 256;
    Rng rng(5);
    nn::MultiHeadSelfAttention attention(dim, heads, &rng);
    nn::TransformerLayer layer(dim, heads, ff, &rng);
    Tensor x = Tensor::Randn({t_len, dim}, &rng);
    std::snprintf(shape_buf, sizeof(shape_buf), "T%ld_D%ld_H%ld",
                  static_cast<long>(t_len), static_cast<long>(dim),
                  static_cast<long>(heads));
    double one_attn = 0.0, one_step = 0.0;
    for (int t : threads) {
      ThreadPool::Instance().SetNumThreads(t);
      const double attn_sec = TimePerCall([&] {
        NoGradGuard no_grad;
        benchmark::DoNotOptimize(attention.Forward(x));
      });
      if (t == 1) one_attn = attn_sec;
      rows.push_back({"attention_forward", shape_buf, t, attn_sec, -1.0, -1.0,
                      one_attn / attn_sec});
      const double step_sec = TimePerCall([&] {
        Tensor input = x.Clone().set_requires_grad(true);
        ops::SumAll(layer.Forward(input)).Backward();
      });
      if (t == 1) one_step = step_sec;
      rows.push_back({"train_step", shape_buf, t, step_sec, -1.0, -1.0,
                      one_step / step_sec});
    }
  }
  ThreadPool::Instance().SetNumThreads(0);  // back to 1 worker thread

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"shape\": \"%s\", \"threads\": %d, "
                 "\"seconds\": %.6e",
                 r.op.c_str(), r.shape.c_str(), r.threads, r.seconds);
    if (r.gflops > 0) std::fprintf(f, ", \"gflops\": %.2f", r.gflops);
    if (r.speedup_vs_seed > 0) {
      std::fprintf(f, ", \"speedup_vs_seed\": %.2f", r.speedup_vs_seed);
    }
    std::fprintf(f, ", \"speedup_vs_1thread\": %.2f, \"hw_cores\": %d}%s\n",
                 r.speedup_vs_1t,
                 static_cast<int>(std::thread::hardware_concurrency()),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %zu rows to %s\n", rows.size(), path.c_str());
  return 0;
}

// ---- memory plane sweep (--memory_plane_json=PATH) -------------------------

struct MemPlaneRow {
  bool pooled;
  int threads;
  double ns_per_step;
  double heap_allocs_per_step;     // physical: pool misses + unpooled news
  double logical_allocs_per_step;  // MemoryStats buffer creations
  double hit_rate;                 // pooled acquisitions served from cache
  std::int64_t peak_logical_bytes;
  std::int64_t peak_pool_bytes;
  float final_loss;
};

/// Times a TransformerLayer + Adam training step with the buffer pool on and
/// off across thread counts. Steady-state pooled steps must be (nearly)
/// malloc-free for tensor buffers, at least 10x fewer physical allocations
/// and 1.2x faster than unpooled, and bitwise loss-identical to unpooled at
/// every thread count — the determinism contract of the memory plane.
int RunMemoryPlaneSweep(const std::string& path) {
  // Window lengths cycle per step, mirroring TFMAE training where temporal
  // masking leaves a different number of visible tokens each batch. The
  // pool's power-of-two size classes absorb the variation (all three
  // lengths share classes, so steady-state hit rate stays 1.0); the
  // unpooled path faces the realistic malloc churn of varying sizes.
  //
  // Long windows are the regime the pool targets: each attention score
  // matrix is heads * len^2 floats (32-42 MiB here), above glibc's mmap
  // threshold ceiling, so with TFMAE_POOL=0 every such buffer is a fresh
  // mmap/munmap pair whose pages are faulted in and kernel-zeroed on every
  // single step. The pool hands back the same warm pages instead.
  const std::int64_t kLens[3] = {1024, 1088, 1152};
  const std::int64_t dim = 64, heads = 8, ff = 256;
  const int kWarmSteps = 3;
  const int kSteps = 10;
  const int kReps = 3;
  const std::vector<int> threads = {1, 2, 4};

  std::vector<MemPlaneRow> rows;
  for (int pass = 0; pass < 2; ++pass) {
    const bool pooled = pass == 0;
    for (int t : threads) {
      pool::SetEnabled(pooled);
      pool::Trim();
      ThreadPool::Instance().SetNumThreads(t);
      // Identical seeds in every configuration: the loss sequences must
      // match bitwise regardless of pooling or thread count.
      Rng rng(5);
      nn::TransformerLayer layer(dim, heads, ff, &rng);
      Rng data_rng(11);
      Tensor xs[3];
      Tensor targets[3];
      for (int li = 0; li < 3; ++li) {
        xs[li] = Tensor::Randn({kLens[li], dim}, &data_rng);
        targets[li] = Tensor::Randn({kLens[li], dim}, &data_rng);
      }
      nn::AdamOptions opts;
      opts.learning_rate = 1e-3f;
      nn::Adam adam(layer.Parameters(), opts);
      float loss_val = 0.0f;
      std::int64_t step_index = 0;
      auto step = [&] {
        const int li = static_cast<int>(step_index++ % 3);
        Tensor out = layer.Forward(xs[li]);
        Tensor loss = ops::MseLoss(out, targets[li]);
        adam.ZeroGrad();
        loss.Backward();
        adam.Step();
        loss_val = loss.item();
      };
      for (int i = 0; i < kWarmSteps; ++i) step();
      MemoryStats::ResetPeak();
      // Full counter reset (not just the peak): rows earlier in the sweep —
      // and their warm-up steps — must not bleed into this row's
      // peak_pool_bytes or hit-rate deltas.
      pool::ResetCounters();
      const pool::PoolStats s0 = pool::Stats();
      const std::int64_t logical0 = MemoryStats::AllocCalls();
      // Min-of-reps: each rep times kSteps further training steps; the
      // minimum is robust to scheduler and frequency noise. Every
      // configuration executes the same total step count, so the final
      // losses stay comparable bitwise.
      double best_sec = 1e30;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kSteps; ++i) step();
        best_sec = std::min(
            best_sec,
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
      }
      const double sec = best_sec;
      const pool::PoolStats s1 = pool::Stats();
      const std::int64_t acquisitions =
          (s1.hits - s0.hits) + (s1.misses - s0.misses);
      MemPlaneRow row;
      row.pooled = pooled;
      row.threads = t;
      row.ns_per_step = sec * 1e9 / kSteps;
      const int measured_steps = kReps * kSteps;
      row.heap_allocs_per_step =
          static_cast<double>(s1.HeapAllocs() - s0.HeapAllocs()) /
          measured_steps;
      row.logical_allocs_per_step =
          static_cast<double>(MemoryStats::AllocCalls() - logical0) /
          measured_steps;
      row.hit_rate = acquisitions > 0 ? static_cast<double>(s1.hits - s0.hits) /
                                            static_cast<double>(acquisitions)
                                      : 0.0;
      row.peak_logical_bytes = MemoryStats::PeakBytes();
      row.peak_pool_bytes = s1.peak_outstanding_bytes;
      row.final_loss = loss_val;
      rows.push_back(row);
      std::printf(
          "%-8s threads=%d  %10.0f ns/step  %7.2f heap allocs/step  "
          "hit_rate=%.4f  loss=%.9g\n",
          pooled ? "pooled" : "unpooled", t, row.ns_per_step,
          row.heap_allocs_per_step, row.hit_rate,
          static_cast<double>(row.final_loss));
    }
  }
  pool::SetEnabled(true);

  // Summary: per-thread pooled vs unpooled ratios, plus the bitwise loss
  // check across all six configurations.
  bool losses_match = true;
  std::uint32_t loss0_bits = 0;
  std::memcpy(&loss0_bits, &rows[0].final_loss, sizeof(loss0_bits));
  for (const MemPlaneRow& r : rows) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &r.final_loss, sizeof(bits));
    if (bits != loss0_bits) losses_match = false;
  }
  double worst_speedup = 1e30;
  double worst_alloc_reduction = 1e30;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const MemPlaneRow& pr = rows[i];
    const MemPlaneRow& ur = rows[i + threads.size()];
    worst_speedup = std::min(worst_speedup, ur.ns_per_step / pr.ns_per_step);
    // A pooled steady state can be exactly 0 allocs/step; floor at one
    // allocation over the whole measured run so the ratio stays finite.
    const double floor_allocs = 1.0 / (kReps * kSteps);
    worst_alloc_reduction =
        std::min(worst_alloc_reduction,
                 ur.heap_allocs_per_step /
                     std::max(pr.heap_allocs_per_step, floor_allocs));
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"transformer_layer_adam_step\",\n");
  std::fprintf(f,
               "  \"shape\": \"T%ld-%ld_D%ld_H%ld_FF%ld\",\n"
               "  \"steps_per_rep\": %d,\n  \"reps\": %d,\n",
               static_cast<long>(kLens[0]), static_cast<long>(kLens[2]),
               static_cast<long>(dim), static_cast<long>(heads),
               static_cast<long>(ff), kSteps, kReps);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const MemPlaneRow& r = rows[i];
    std::uint32_t bits = 0;
    std::memcpy(&bits, &r.final_loss, sizeof(bits));
    std::fprintf(f,
                 "    {\"pool\": %s, \"threads\": %d, \"ns_per_step\": %.0f, "
                 "\"heap_allocs_per_step\": %.3f, "
                 "\"logical_allocs_per_step\": %.3f, \"hit_rate\": %.4f, "
                 "\"peak_logical_bytes\": %lld, \"peak_pool_bytes\": %lld, "
                 "\"final_loss\": %.9g, \"final_loss_bits\": \"0x%08x\", "
                 "\"hw_cores\": %d}%s\n",
                 r.pooled ? "true" : "false", r.threads, r.ns_per_step,
                 r.heap_allocs_per_step, r.logical_allocs_per_step, r.hit_rate,
                 static_cast<long long>(r.peak_logical_bytes),
                 static_cast<long long>(r.peak_pool_bytes),
                 static_cast<double>(r.final_loss), bits,
                 static_cast<int>(std::thread::hardware_concurrency()),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::fprintf(f, "    \"alloc_reduction_x\": %.1f,\n", worst_alloc_reduction);
  std::fprintf(f, "    \"speedup_x\": %.2f,\n", worst_speedup);
  std::fprintf(f, "    \"losses_bitwise_identical\": %s,\n",
               losses_match ? "true" : "false");
  std::fprintf(f, "    \"hw_cores\": %d\n",
               static_cast<int>(std::thread::hardware_concurrency()));
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("summary: alloc_reduction_x=%.1f speedup_x=%.2f "
              "losses_bitwise_identical=%s\n",
              worst_alloc_reduction, worst_speedup,
              losses_match ? "true" : "false");
  std::printf("wrote %s\n", path.c_str());
  return losses_match ? 0 : 1;
}

// ---- observability self-check (--obs_json=PATH) ----------------------------

/// Runs a fixed GEMM + attention workload with instrumentation enabled and
/// checks that the per-op totals the obs registry recorded agree with wall
/// time measured outside the instrumented code. Writes the full metrics
/// snapshot to `path`. Returns non-zero if the recorded totals drift more
/// than 10% from wall time.
int RunObsProfile(const std::string& path) {
  obs::SetEnabled(true);
  obs::Registry::Instance().Reset();
  using clock = std::chrono::steady_clock;

  // GEMM workload: time the instrumented call and nothing else, so the
  // external wall measurement is directly comparable to tensor.gemm.total_ns.
  const std::int64_t m = 256, k = 512, n = 512;
  const auto a = RandomBuffer(m * k, 1);
  const auto b = RandomBuffer(k * n, 2);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  const int gemm_iters = 40;
  gemm::Gemm(a.data(), b.data(), c.data(), m, k, n);  // warm up, recorded
  const std::uint64_t gemm_ns_before =
      obs::Registry::Instance().CounterValue("tensor.gemm.total_ns");
  auto t0 = clock::now();
  for (int it = 0; it < gemm_iters; ++it) {
    gemm::Gemm(a.data(), b.data(), c.data(), m, k, n);
  }
  const double gemm_wall =
      std::chrono::duration<double>(clock::now() - t0).count();
  const double gemm_obs =
      static_cast<double>(
          obs::Registry::Instance().CounterValue("tensor.gemm.total_ns") -
          gemm_ns_before) /
      1e9;

  // Attention forward workload against nn.attention.fwd.total_ns.
  Rng rng(7);
  nn::MultiHeadSelfAttention attention(64, 8, &rng);
  Tensor x = Tensor::Randn({256, 64}, &rng);
  const int attn_iters = 40;
  {
    NoGradGuard no_grad;
    benchmark::DoNotOptimize(attention.Forward(x));  // warm up, recorded
  }
  const std::uint64_t attn_ns_before =
      obs::Registry::Instance().CounterValue("nn.attention.fwd.total_ns");
  t0 = clock::now();
  {
    NoGradGuard no_grad;
    for (int it = 0; it < attn_iters; ++it) {
      benchmark::DoNotOptimize(attention.Forward(x));
    }
  }
  const double attn_wall =
      std::chrono::duration<double>(clock::now() - t0).count();
  const double attn_obs =
      static_cast<double>(
          obs::Registry::Instance().CounterValue("nn.attention.fwd.total_ns") -
          attn_ns_before) /
      1e9;

  const double gemm_ratio = gemm_obs / gemm_wall;
  const double attn_ratio = attn_obs / attn_wall;
  std::printf("obs coverage: gemm %.4fs obs / %.4fs wall = %.3f\n", gemm_obs,
              gemm_wall, gemm_ratio);
  std::printf("obs coverage: attention %.4fs obs / %.4fs wall = %.3f\n",
              attn_obs, attn_wall, attn_ratio);
  obs::DumpJson(path);
  std::printf("wrote metrics snapshot to %s\n", path.c_str());
  const bool ok = std::abs(gemm_ratio - 1.0) <= 0.10 &&
                  std::abs(attn_ratio - 1.0) <= 0.10;
  if (!ok) {
    std::fprintf(stderr,
                 "obs totals drifted more than 10%% from wall time\n");
  }
  return ok ? 0 : 1;
}

// ---- inference plan sweep (--inference_plan_json=PATH) ---------------------

struct PlanSweepRow {
  bool planned;
  int threads;
  double ns_per_window;
  double logical_allocs_per_window;  // MemoryStats buffer creations
  double heap_allocs_per_window;     // pool misses + unpooled news
  std::int64_t peak_pool_bytes;
};

/// Benchmarks pre-planned inference (DESIGN.md §10) against the eager
/// scoring path: a small detector is fitted once, a fixed batch of windows
/// is prepared once, and both TfmaeModel::ScoreWindow and
/// InferencePlan::Score are timed over the identical windows at 1, 2 and 4
/// threads. The summary records the worst planned-vs-eager speedup, whether
/// steady-state replay is allocation-free, whether every planned score is
/// bitwise-identical to eager, and the 1T->4T scaling of the coarse
/// elementwise dispatch the replay executor uses (hardware-qualified:
/// hw_cores lets the gate skip the absolute scaling floor on small hosts).
int RunInferencePlanSweep(const std::string& path) {
  using clock = std::chrono::steady_clock;

  // The fast-config geometry the repo's tests and the resilience drill
  // score with (window 32, D=32): small windows are exactly the regime the
  // plan targets — streaming detectors replaying millions of them.
  core::TfmaeConfig config;
  config.window = 32;
  config.model_dim = 32;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ff_hidden = 64;
  config.epochs = 1;
  config.stride = 64;
  config.seed = 17;
  config.per_window_normalization = false;

  data::BaseSignalConfig signal;
  signal.length = 1024;
  signal.num_features = 4;
  signal.seed = 20240605;
  const data::TimeSeries series = data::GenerateBaseSignal(signal);

  std::printf("fitting detector (W=%lld D=%lld L=%lld)...\n",
              static_cast<long long>(config.window),
              static_cast<long long>(config.model_dim),
              static_cast<long long>(config.num_layers));
  core::TfmaeDetector detector(config);
  detector.Fit(series);
  core::TfmaeModel* model = detector.model();

  // A fixed window batch, prepared ONCE with a fixed rng: eager and planned
  // timing loops score byte-identical inputs, so their outputs must match
  // bitwise and neither pays preparation cost inside the timed region.
  const int kNumWindows = 24;
  std::vector<core::MaskedWindow> windows;
  Rng mask_rng(123);
  for (int w = 0; w < kNumWindows; ++w) {
    const std::int64_t start =
        (static_cast<std::int64_t>(w) * 37) %
        (series.length - config.window + 1);
    std::vector<float> values(
        static_cast<std::size_t>(config.window * series.num_features));
    std::memcpy(values.data(),
                series.values.data() +
                    static_cast<std::size_t>(start * series.num_features),
                values.size() * sizeof(float));
    windows.push_back(model->PrepareWindow(values, &mask_rng));
  }

  std::string capture_error;
  std::vector<float> capture_scores;
  std::unique_ptr<core::InferencePlan> plan = core::InferencePlan::Capture(
      *model, windows[0], &capture_scores, &capture_error);
  if (plan == nullptr) {
    std::fprintf(stderr, "plan capture failed: %s\n", capture_error.c_str());
    return 1;
  }
  const core::InferencePlanStats& ps = plan->stats();
  std::printf(
      "plan: %lld ops (%lld captured, %lld fused away, %lld reshapes "
      "elided), %lld slots, %lld arena bytes\n",
      static_cast<long long>(ps.ops), static_cast<long long>(ps.captured_ops),
      static_cast<long long>(ps.fused_ops),
      static_cast<long long>(ps.elided_reshapes),
      static_cast<long long>(ps.slots), static_cast<long long>(ps.arena_bytes));

  const int kReps = 5;
  const std::vector<int> threads = {1, 2, 4};
  std::vector<PlanSweepRow> rows;
  bool bitwise_identical = true;
  bool planned_zero_alloc = true;
  double worst_speedup = 1e30;

  std::vector<std::vector<float>> eager_scores(windows.size());
  std::vector<float> planned_out;
  for (int t : threads) {
    ThreadPool::Instance().SetNumThreads(t);
    double row_ns[2] = {0.0, 0.0};  // [eager, planned]
    for (int pass = 0; pass < 2; ++pass) {
      const bool planned = pass == 1;
      // Per-row stats reset (the bench-sweep discipline): earlier rows'
      // churn must not inflate this row's peaks or alloc deltas.
      pool::ResetCounters();
      // Warm-up pass, also the correctness pass: collect this thread
      // count's eager scores, then check every planned replay against them.
      for (std::size_t w = 0; w < windows.size(); ++w) {
        if (!planned) {
          eager_scores[w] = model->ScoreWindow(windows[w]);
        } else {
          plan->Score(windows[w], &planned_out);
          const std::vector<float>& ref = eager_scores[w];
          if (planned_out.size() != ref.size() ||
              std::memcmp(planned_out.data(), ref.data(),
                          ref.size() * sizeof(float)) != 0) {
            bitwise_identical = false;
          }
        }
      }
      const std::int64_t logical0 = MemoryStats::AllocCalls();
      const std::int64_t heap0 = pool::Stats().HeapAllocs();
      double best_sec = 1e30;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = clock::now();
        for (const core::MaskedWindow& w : windows) {
          if (!planned) {
            std::vector<float> s = model->ScoreWindow(w);
            (void)s;
          } else {
            plan->Score(w, &planned_out);
          }
        }
        best_sec = std::min(
            best_sec,
            std::chrono::duration<double>(clock::now() - t0).count());
      }
      const double measured_windows =
          static_cast<double>(kReps) * static_cast<double>(windows.size());
      PlanSweepRow row;
      row.planned = planned;
      row.threads = t;
      row.ns_per_window = best_sec * 1e9 / static_cast<double>(windows.size());
      row.logical_allocs_per_window =
          static_cast<double>(MemoryStats::AllocCalls() - logical0) /
          measured_windows;
      row.heap_allocs_per_window =
          static_cast<double>(pool::Stats().HeapAllocs() - heap0) /
          measured_windows;
      row.peak_pool_bytes = pool::Stats().peak_outstanding_bytes;
      if (planned && (row.logical_allocs_per_window != 0.0 ||
                      row.heap_allocs_per_window != 0.0)) {
        planned_zero_alloc = false;
      }
      row_ns[pass] = row.ns_per_window;
      rows.push_back(row);
      std::printf("%-8s threads=%d  %9.0f ns/window  %6.2f allocs/window\n",
                  planned ? "planned" : "eager", t, row.ns_per_window,
                  row.logical_allocs_per_window);
    }
    worst_speedup = std::min(worst_speedup, row_ns[0] / row_ns[1]);
  }

  // Thread scaling of the coarse elementwise dispatch itself — the replay
  // executor's fused elementwise regions in isolation, where scaling is
  // memory-bound rather than GEMM-bound. 1T vs 4T over a fixed FMA chain.
  const std::int64_t kElems = std::int64_t{1} << 22;
  std::vector<float> ea(static_cast<std::size_t>(kElems), 1.25f);
  std::vector<float> eb(static_cast<std::size_t>(kElems), 0.75f);
  std::vector<float> ec(static_cast<std::size_t>(kElems), 0.0f);
  double elem_sec[2] = {0.0, 0.0};
  const int kElemReps = 7;
  for (int pass = 0; pass < 2; ++pass) {
    const int t = pass == 0 ? 1 : 4;
    ThreadPool::Instance().SetNumThreads(t);
    const float* pa = ea.data();
    const float* pb = eb.data();
    float* pc = ec.data();
    auto body = [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        pc[i] = pa[i] * pb[i] + pc[i] * 0.5f;
      }
    };
    ops::kernels::ForEachElemChunkCoarse(kElems, body);  // warm-up
    double best = 1e30;
    for (int rep = 0; rep < kElemReps; ++rep) {
      const auto t0 = clock::now();
      ops::kernels::ForEachElemChunkCoarse(kElems, body);
      best = std::min(
          best, std::chrono::duration<double>(clock::now() - t0).count());
    }
    elem_sec[pass] = best;
  }
  const double elementwise_4t_speedup = elem_sec[0] / elem_sec[1];
  const int hw_cores =
      static_cast<int>(std::thread::hardware_concurrency());
  ThreadPool::Instance().SetNumThreads(1);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"tfmae_score_window\",\n");
  std::fprintf(f,
               "  \"shape\": \"W%lld_D%lld_L%lld_F%lld\",\n"
               "  \"windows\": %d,\n  \"reps\": %d,\n",
               static_cast<long long>(config.window),
               static_cast<long long>(config.model_dim),
               static_cast<long long>(config.num_layers),
               static_cast<long long>(series.num_features), kNumWindows,
               kReps);
  std::fprintf(f,
               "  \"plan\": {\"ops\": %lld, \"captured_ops\": %lld, "
               "\"fused_ops\": %lld, \"elided_reshapes\": %lld, "
               "\"slots\": %lld, \"arena_bytes\": %lld},\n",
               static_cast<long long>(ps.ops),
               static_cast<long long>(ps.captured_ops),
               static_cast<long long>(ps.fused_ops),
               static_cast<long long>(ps.elided_reshapes),
               static_cast<long long>(ps.slots),
               static_cast<long long>(ps.arena_bytes));
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PlanSweepRow& r = rows[i];
    std::fprintf(f,
                 "    {\"planned\": %s, \"threads\": %d, "
                 "\"ns_per_window\": %.0f, "
                 "\"logical_allocs_per_window\": %.3f, "
                 "\"heap_allocs_per_window\": %.3f, "
                 "\"peak_pool_bytes\": %lld, \"hw_cores\": %d}%s\n",
                 r.planned ? "true" : "false", r.threads, r.ns_per_window,
                 r.logical_allocs_per_window, r.heap_allocs_per_window,
                 static_cast<long long>(r.peak_pool_bytes), hw_cores,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::fprintf(f, "    \"speedup_x\": %.2f,\n", worst_speedup);
  std::fprintf(f, "    \"planned_zero_alloc\": %s,\n",
               planned_zero_alloc ? "true" : "false");
  std::fprintf(f, "    \"scores_bitwise_identical\": %s,\n",
               bitwise_identical ? "true" : "false");
  std::fprintf(f, "    \"elementwise_4t_speedup\": %.2f,\n",
               elementwise_4t_speedup);
  std::fprintf(f, "    \"hw_cores\": %d\n", hw_cores);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf(
      "summary: speedup_x=%.2f planned_zero_alloc=%s "
      "scores_bitwise_identical=%s elementwise_4t_speedup=%.2f hw_cores=%d\n",
      worst_speedup, planned_zero_alloc ? "true" : "false",
      bitwise_identical ? "true" : "false", elementwise_4t_speedup, hw_cores);
  std::printf("wrote %s\n", path.c_str());
  return (bitwise_identical && planned_zero_alloc) ? 0 : 1;
}

// ---- int8 quant sweep (--quant_json=PATH) ----------------------------------

struct QuantLatencyRow {
  const char* precision;  // "fp32" | "int8"
  int threads;
  double ns_per_window;
};

struct QuantParityRow {
  std::string dataset;
  double f1_fp32;
  double f1_int8;
  double delta;
  bool fell_back;
};

/// Epochs used for the parity fits. Quantization parity measures score
/// AGREEMENT between two precisions of the same weights, not absolute
/// detection quality, so a short fit with the per-dataset masking recipe is
/// representative and keeps the sweep minutes, not hours. Eight epochs is
/// the shortest fit at which every profile's fp32 F1 has stabilized;
/// under-trained fits leave borderline segments whose point-adjust F1
/// flips on sub-percent score perturbations, which measures threshold
/// luck, not quantization quality.
constexpr std::int64_t kQuantParityEpochs = 8;

/// |F1_int8 - F1_fp32| tolerance per dataset profile (the gate's hard
/// f1_parity condition).
constexpr double kQuantF1Tolerance = 0.005;

/// Benchmarks the int8 scoring path (DESIGN.md §12) against the fp32
/// inference plan, and verifies detection parity. Three parts:
///  1. Latency: fp32 plan vs int8 plan over one fixed window batch at 1, 2
///     and 4 threads (best-of-reps). The gate's floor is the 1-thread
///     speedup — it must not depend on core count.
///  2. Determinism: int8 scores must be bitwise-identical across thread
///     counts (the same contract the fp32 plan has vs eager).
///  3. F1 parity: on each dataset profile, fit once, evaluate the paper's
///     protocol with fp32 scoring and with int8 scoring (identical weights,
///     aligned mask rng streams), and require |dF1| <= 0.005 with zero
///     quant fallbacks. `max_profiles` > 0 limits the profile list (the
///     check.sh smoke runs 3).
int RunQuantSweep(const std::string& path, int max_profiles) {
  using clock = std::chrono::steady_clock;

  core::TfmaeConfig config;
  config.window = 32;
  config.model_dim = 32;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ff_hidden = 64;
  config.epochs = 1;
  config.stride = 64;
  config.seed = 17;
  config.per_window_normalization = false;

  data::BaseSignalConfig signal;
  signal.length = 1024;
  signal.num_features = 4;
  signal.seed = 20240605;
  const data::TimeSeries series = data::GenerateBaseSignal(signal);

  std::printf("fitting + calibrating detector (W=%lld D=%lld L=%lld)...\n",
              static_cast<long long>(config.window),
              static_cast<long long>(config.model_dim),
              static_cast<long long>(config.num_layers));
  core::TfmaeDetector detector(config);
  detector.SetQuantMode(core::TfmaeDetector::QuantMode::kOff);
  detector.Fit(series);
  std::string error;
  if (!detector.Calibrate(series, &error)) {
    std::fprintf(stderr, "calibration failed: %s\n", error.c_str());
    return 1;
  }
  core::TfmaeModel* model = detector.model();
  const core::QuantSpec& spec = detector.quant_spec();

  const int kNumWindows = 24;
  std::vector<core::MaskedWindow> windows;
  Rng mask_rng(123);
  for (int w = 0; w < kNumWindows; ++w) {
    const std::int64_t start =
        (static_cast<std::int64_t>(w) * 37) %
        (series.length - config.window + 1);
    std::vector<float> values(
        static_cast<std::size_t>(config.window * series.num_features));
    std::memcpy(values.data(),
                series.values.data() +
                    static_cast<std::size_t>(start * series.num_features),
                values.size() * sizeof(float));
    windows.push_back(model->PrepareWindow(values, &mask_rng));
  }

  std::vector<float> capture_scores;
  std::unique_ptr<core::InferencePlan> fp32_plan = core::InferencePlan::Capture(
      *model, windows[0], &capture_scores, &error);
  if (fp32_plan == nullptr) {
    std::fprintf(stderr, "fp32 plan capture failed: %s\n", error.c_str());
    return 1;
  }
  std::unique_ptr<core::InferencePlan> int8_plan = core::InferencePlan::Capture(
      *model, windows[0], &capture_scores, &error, &spec);
  if (int8_plan == nullptr) {
    std::fprintf(stderr, "int8 plan capture failed: %s\n", error.c_str());
    return 1;
  }
  const core::InferencePlanStats& qs = int8_plan->stats();
  std::printf(
      "int8 plan: %lld ops, %lld quant linears, %lld elided quant pairs, "
      "%lld B quant arena (fp32 arena %lld B), isa=%s\n",
      static_cast<long long>(qs.ops),
      static_cast<long long>(qs.quant_linear_ops),
      static_cast<long long>(qs.elided_quant_pairs),
      static_cast<long long>(qs.quant_arena_bytes),
      static_cast<long long>(qs.arena_bytes), quant::QuantGemmIsa());

  // 1+2. Latency and cross-thread determinism.
  const int kReps = 5;
  std::vector<QuantLatencyRow> rows;
  bool bitwise_identical = true;
  double speedup_1t = 0.0;
  std::vector<std::vector<float>> int8_ref(windows.size());
  std::vector<float> out;
  for (const int t : {1, 2, 4}) {
    ThreadPool::Instance().SetNumThreads(t);
    double row_ns[2] = {0.0, 0.0};  // [fp32, int8]
    for (int pass = 0; pass < 2; ++pass) {
      core::InferencePlan* plan = pass == 0 ? fp32_plan.get()
                                            : int8_plan.get();
      // Warm-up + determinism check: int8 scores at every thread count
      // must equal the 1-thread reference bitwise.
      for (std::size_t w = 0; w < windows.size(); ++w) {
        plan->Score(windows[w], &out);
        if (pass == 1) {
          if (int8_ref[w].empty()) {
            int8_ref[w] = out;
          } else if (out.size() != int8_ref[w].size() ||
                     std::memcmp(out.data(), int8_ref[w].data(),
                                 out.size() * sizeof(float)) != 0) {
            bitwise_identical = false;
          }
        }
      }
      double best_sec = 1e30;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = clock::now();
        for (const core::MaskedWindow& w : windows) plan->Score(w, &out);
        best_sec = std::min(
            best_sec,
            std::chrono::duration<double>(clock::now() - t0).count());
      }
      row_ns[pass] = best_sec * 1e9 / static_cast<double>(windows.size());
      rows.push_back({pass == 0 ? "fp32" : "int8", t, row_ns[pass]});
      std::printf("%-5s threads=%d  %9.0f ns/window\n",
                  pass == 0 ? "fp32" : "int8", t, row_ns[pass]);
    }
    if (t == 1) speedup_1t = row_ns[0] / row_ns[1];
  }
  ThreadPool::Instance().SetNumThreads(1);

  // 3. Detection parity across the dataset profiles. Two identically
  // fitted detectors per profile keep the scoring mask-rng streams aligned
  // (Calibrate uses a private rng), so the only difference between the two
  // evaluations is the kernel precision. Parity always runs at dataset
  // scale 1.0 regardless of TFMAE_BENCH_SCALE: point-adjust F1 on a
  // fractional split is chunky enough that a single borderline point
  // crossing the threshold flips whole anomaly segments, which measures
  // sample-size brittleness rather than kernel fidelity.
  const double scale = 1.0;
  std::vector<data::BenchmarkDataset> datasets = data::MainDatasets();
  if (max_profiles > 0 &&
      static_cast<std::size_t>(max_profiles) < datasets.size()) {
    datasets.resize(static_cast<std::size_t>(max_profiles));
  }
  std::vector<QuantParityRow> parity;
  bool f1_parity = true;
  double max_f1_delta = 0.0;
  for (const data::BenchmarkDataset dataset : datasets) {
    const data::LabeledDataset ds = data::MakeBenchmarkDataset(dataset, scale);
    core::TfmaeConfig pc = bench::TfmaeConfigFor(dataset);
    pc.epochs = std::min<std::int64_t>(pc.epochs, kQuantParityEpochs);
    const double fraction = bench::AnomalyFractionFor(dataset);

    core::TfmaeDetector fp32_det(pc);
    fp32_det.SetQuantMode(core::TfmaeDetector::QuantMode::kOff);
    fp32_det.Fit(ds.train);
    const std::vector<float> val_fp = fp32_det.Score(ds.val);
    const std::vector<float> test_fp = fp32_det.Score(ds.test);
    const eval::DetectionReport rep_fp = eval::EvaluateDetection(
        val_fp, test_fp, ds.test.labels, fraction);

    core::TfmaeDetector int8_det(pc);
    int8_det.SetQuantMode(core::TfmaeDetector::QuantMode::kOff);
    int8_det.Fit(ds.train);
    if (!int8_det.Calibrate(ds.val, &error)) {
      std::fprintf(stderr, "%s: calibration failed: %s\n",
                   data::DatasetName(dataset).c_str(), error.c_str());
      return 1;
    }
    int8_det.SetQuantMode(core::TfmaeDetector::QuantMode::kInt8);
    const std::vector<float> val_q = int8_det.Score(ds.val);
    const std::vector<float> test_q = int8_det.Score(ds.test);
    const eval::DetectionReport rep_q = eval::EvaluateDetection(
        val_q, test_q, ds.test.labels, fraction);

    QuantParityRow row;
    row.dataset = data::DatasetName(dataset);
    row.f1_fp32 = rep_fp.adjusted.f1;
    row.f1_int8 = rep_q.adjusted.f1;
    row.delta = std::fabs(row.f1_int8 - row.f1_fp32);
    row.fell_back = int8_det.quant_fallbacks() > 0;
    max_f1_delta = std::max(max_f1_delta, row.delta);
    if (row.delta > kQuantF1Tolerance || row.fell_back) f1_parity = false;
    std::printf("%-16s f1_fp32=%.4f f1_int8=%.4f delta=%.4f%s\n",
                row.dataset.c_str(), row.f1_fp32, row.f1_int8, row.delta,
                row.fell_back ? "  (FELL BACK TO FP32)" : "");
    parity.push_back(std::move(row));
  }

  const int hw_cores =
      static_cast<int>(std::thread::hardware_concurrency());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"tfmae_score_window_int8\",\n");
  std::fprintf(f,
               "  \"shape\": \"W%lld_D%lld_L%lld_F%lld\",\n"
               "  \"windows\": %d,\n  \"reps\": %d,\n  \"isa\": \"%s\",\n"
               "  \"parity_epochs\": %lld,\n  \"parity_dataset_scale\": %.3f,\n",
               static_cast<long long>(config.window),
               static_cast<long long>(config.model_dim),
               static_cast<long long>(config.num_layers),
               static_cast<long long>(series.num_features), kNumWindows,
               kReps, quant::QuantGemmIsa(),
               static_cast<long long>(kQuantParityEpochs), scale);
  std::fprintf(f,
               "  \"plan\": {\"ops\": %lld, \"quant_linear_ops\": %lld, "
               "\"elided_quant_pairs\": %lld, \"quant_arena_bytes\": %lld, "
               "\"fp32_arena_bytes\": %lld},\n",
               static_cast<long long>(qs.ops),
               static_cast<long long>(qs.quant_linear_ops),
               static_cast<long long>(qs.elided_quant_pairs),
               static_cast<long long>(qs.quant_arena_bytes),
               static_cast<long long>(qs.arena_bytes));
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"precision\": \"%s\", \"threads\": %d, "
                 "\"ns_per_window\": %.0f, \"hw_cores\": %d}%s\n",
                 rows[i].precision, rows[i].threads, rows[i].ns_per_window,
                 hw_cores, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"profiles\": [\n");
  for (std::size_t i = 0; i < parity.size(); ++i) {
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"f1_fp32\": %.4f, "
                 "\"f1_int8\": %.4f, \"delta\": %.4f, \"fell_back\": %s}%s\n",
                 parity[i].dataset.c_str(), parity[i].f1_fp32,
                 parity[i].f1_int8, parity[i].delta,
                 parity[i].fell_back ? "true" : "false",
                 i + 1 < parity.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::fprintf(f, "    \"speedup_1t_x\": %.2f,\n", speedup_1t);
  std::fprintf(f, "    \"scores_bitwise_identical\": %s,\n",
               bitwise_identical ? "true" : "false");
  std::fprintf(f, "    \"f1_parity\": %s,\n", f1_parity ? "true" : "false");
  std::fprintf(f, "    \"max_f1_delta\": %.4f,\n", max_f1_delta);
  std::fprintf(f, "    \"profiles_evaluated\": %zu,\n", parity.size());
  std::fprintf(f, "    \"hw_cores\": %d\n", hw_cores);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf(
      "summary: speedup_1t_x=%.2f scores_bitwise_identical=%s f1_parity=%s "
      "max_f1_delta=%.4f hw_cores=%d\n",
      speedup_1t, bitwise_identical ? "true" : "false",
      f1_parity ? "true" : "false", max_f1_delta, hw_cores);
  std::printf("wrote %s\n", path.c_str());
  return (bitwise_identical && f1_parity) ? 0 : 1;
}

// ---- resilience drill (--resilience_json=PATH) -----------------------------

/// Exercises the crash-safe training path end to end: an uninterrupted
/// reference fit, then a checkpointed fit killed at a step budget and
/// resumed from disk. Verifies the resumed weights match the reference
/// bitwise (the DESIGN.md §9 contract) and that a fit under injected NaN
/// losses and checkpoint-write failures still converges. Writes a JSON
/// report to `path`.
int RunResilienceSweep(const std::string& path) {
  using clock = std::chrono::steady_clock;

  core::TfmaeConfig config;
  config.window = 32;
  config.model_dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.epochs = 2;
  config.stride = 8;
  config.per_window_normalization = false;

  data::BaseSignalConfig signal;
  signal.length = 512;
  signal.num_features = 3;
  signal.seed = 20240311;
  const data::TimeSeries series = data::GenerateBaseSignal(signal);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "tfmae_resilience_drill")
          .string();
  std::filesystem::remove_all(dir);

  // Reference: one uninterrupted fit, no checkpointing overhead.
  core::TfmaeDetector reference(config);
  auto t0 = clock::now();
  reference.Fit(series);
  const double ref_sec = std::chrono::duration<double>(clock::now() - t0).count();
  const std::vector<char> ref_weights =
      nn::EncodeParameters(*reference.model());
  const std::int64_t total_steps = reference.train_stats().num_steps;

  // Kill-and-resume: checkpoint every few steps, stop mid-run, resume.
  core::FitOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 5;
  options.keep_last = 3;
  options.max_steps = total_steps / 2;
  core::TfmaeDetector killed(config);
  t0 = clock::now();
  killed.Fit(series, options);
  const double killed_sec =
      std::chrono::duration<double>(clock::now() - t0).count();
  const std::int64_t checkpoints_written =
      killed.train_stats().checkpoints_written;
  const bool interrupted = killed.train_stats().interrupted;

  core::FitOptions resume_options = options;
  resume_options.max_steps = 0;
  t0 = clock::now();
  const bool resumed = killed.Resume(series, resume_options);
  const double resume_sec =
      std::chrono::duration<double>(clock::now() - t0).count();
  const std::int64_t resumed_at_step = killed.train_stats().resumed_at_step;

  bool bitwise_identical = false;
  if (resumed) {
    const std::vector<char> resumed_weights =
        nn::EncodeParameters(*killed.model());
    bitwise_identical =
        resumed_weights.size() == ref_weights.size() &&
        std::memcmp(resumed_weights.data(), ref_weights.data(),
                    ref_weights.size()) == 0;
  }
  std::printf(
      "resilience: %lld steps, %lld checkpoints, resumed at step %lld, "
      "bitwise_identical=%s\n",
      static_cast<long long>(total_steps),
      static_cast<long long>(checkpoints_written),
      static_cast<long long>(resumed_at_step),
      bitwise_identical ? "true" : "false");

  // Fault drill: NaN losses and checkpoint-write failures injected at fixed
  // probabilities must leave training finished, finite, and accounted for
  // in the numeric-guard counters.
  fault::Configure("train.nan_loss:0.05,io.checkpoint_write:0.25", 42);
  const std::string drill_dir = dir + "_faulty";
  std::filesystem::remove_all(drill_dir);
  core::FitOptions drill_options;
  drill_options.checkpoint_dir = drill_dir;
  drill_options.checkpoint_every = 4;
  core::TfmaeDetector drilled(config);
  drilled.Fit(series, drill_options);
  const core::TrainStats drill_stats = drilled.train_stats();
  const std::int64_t drill_injected =
      static_cast<std::int64_t>(fault::InjectedCount("train.nan_loss")) +
      static_cast<std::int64_t>(fault::InjectedCount("io.checkpoint_write"));
  fault::Clear();
  const bool fault_drill_ok = !drill_stats.interrupted &&
                              std::isfinite(drill_stats.mean_loss_last_epoch) &&
                              drill_stats.numeric.skipped_steps ==
                                  drill_stats.numeric.nonfinite_loss +
                                      drill_stats.numeric.nonfinite_grad;
  std::filesystem::remove_all(drill_dir);
  std::printf(
      "fault drill: %lld injected, %lld steps skipped, %lld checkpoint "
      "failures, final loss %.6g\n",
      static_cast<long long>(drill_injected),
      static_cast<long long>(drill_stats.numeric.skipped_steps),
      static_cast<long long>(drill_stats.checkpoint_failures),
      drill_stats.mean_loss_last_epoch);
  std::filesystem::remove_all(dir);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"workload\": \"tfmae_fit_kill_resume\",\n"
               "  \"series\": \"L%lld_F%lld\",\n"
               "  \"config\": \"W%lld_D%lld_E%lld\",\n",
               static_cast<long long>(signal.length),
               static_cast<long long>(signal.num_features),
               static_cast<long long>(config.window),
               static_cast<long long>(config.model_dim),
               static_cast<long long>(config.epochs));
  std::fprintf(f,
               "  \"reference\": {\"num_steps\": %lld, \"fit_seconds\": %.4f, "
               "\"mean_loss_last_epoch\": %.9g},\n",
               static_cast<long long>(total_steps), ref_sec,
               reference.train_stats().mean_loss_last_epoch);
  std::fprintf(
      f,
      "  \"kill_and_resume\": {\"max_steps\": %lld, \"interrupted\": %s, "
      "\"checkpoints_written\": %lld, \"checkpoint_every\": %lld, "
      "\"killed_seconds\": %.4f, \"resumed\": %s, \"resumed_at_step\": %lld, "
      "\"resume_seconds\": %.4f, \"weights_bitwise_identical\": %s},\n",
      static_cast<long long>(options.max_steps), interrupted ? "true" : "false",
      static_cast<long long>(checkpoints_written),
      static_cast<long long>(options.checkpoint_every), killed_sec,
      resumed ? "true" : "false", static_cast<long long>(resumed_at_step),
      resume_sec, bitwise_identical ? "true" : "false");
  std::fprintf(
      f,
      "  \"fault_drill\": {\"spec\": "
      "\"train.nan_loss:0.05,io.checkpoint_write:0.25\", "
      "\"seed\": 42, \"injected\": %lld, \"skipped_steps\": %lld, "
      "\"restores\": %lld, \"lr_backoffs\": %lld, "
      "\"checkpoint_failures\": %lld, \"final_loss\": %.9g, "
      "\"recovered\": %s},\n",
      static_cast<long long>(drill_injected),
      static_cast<long long>(drill_stats.numeric.skipped_steps),
      static_cast<long long>(drill_stats.numeric.restores),
      static_cast<long long>(drill_stats.numeric.lr_backoffs),
      static_cast<long long>(drill_stats.checkpoint_failures),
      drill_stats.mean_loss_last_epoch, fault_drill_ok ? "true" : "false");
  std::fprintf(f,
               "  \"summary\": {\"weights_bitwise_identical\": %s, "
               "\"fault_drill_recovered\": %s}\n}\n",
               bitwise_identical ? "true" : "false",
               fault_drill_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return (bitwise_identical && fault_drill_ok) ? 0 : 1;
}

// ---- fleet serving sweep (--serving_json=PATH) -----------------------------

struct ServingSweepRow {
  std::int64_t streams;
  int threads;
  double rows_per_sec;
  double windows_per_sec;
  double p50_window_us;
  double p95_window_us;
  double p99_window_us;
  std::int64_t bytes_per_stream;
  std::int64_t batches;
  std::int64_t max_batch;
};

/// Load-generates the fleet-serving plane (docs/SERVING.md): one shared
/// fitted detector serves `streams` concurrent StreamState fleets, replayed
/// tick-major for a fixed row budget through serve::FleetServer at 1, 2 and
/// 4 threads. Per cell: rows/sec, windows/sec, per-window score latency
/// quantiles and bytes/stream. The summary verifies the serving contract —
/// batched scores bitwise-identical to a sequential per-stream
/// StreamingDetector at every thread count — and measures
/// batch_efficiency_x, the batched-vs-sequential windows/sec ratio at one
/// thread (two timings from the same process, so it is host-independent and
/// gateable; absolute rows/sec are recorded but not gated).
int RunServingSweep(const std::string& path) {
  using clock = std::chrono::steady_clock;

  // The serving geometry: same fast config as the inference-plan sweep (the
  // planner's target regime), hop 8 so one window amortizes over 8 rows.
  core::TfmaeConfig config;
  config.window = 32;
  config.model_dim = 32;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ff_hidden = 64;
  config.epochs = 1;
  config.stride = 64;
  config.seed = 17;
  config.per_window_normalization = false;

  data::BaseSignalConfig signal;
  signal.length = 2048;
  signal.num_features = 4;
  signal.seed = 20240605;
  const data::TimeSeries series = data::GenerateBaseSignal(signal);

  std::printf("fitting shared detector (W=%lld D=%lld L=%lld)...\n",
              static_cast<long long>(config.window),
              static_cast<long long>(config.model_dim),
              static_cast<long long>(config.num_layers));
  core::TfmaeDetector detector(config);
  detector.Fit(series);
  const std::vector<float> calibration = detector.Score(series);

  core::StreamingOptions streaming;
  streaming.window = 32;
  streaming.hop = 8;

  // 96 ticks/stream -> rescores at pushes 32, 40, ..., 96 = 9 windows per
  // stream (clean synthetic data: no quarantine, cadence is exact).
  const std::int64_t kRows = 96;
  const std::int64_t kWindowsPerStream =
      (kRows - streaming.window) / streaming.hop + 1;

  // Deterministic fleet replay: every stream walks the same base signal at a
  // stream-specific phase offset, so any two runs see byte-identical rows.
  auto row_for = [&](std::int64_t stream, std::int64_t t) {
    std::vector<float> row(static_cast<std::size_t>(series.num_features));
    const std::int64_t idx = (t + 17 * stream) % series.length;
    for (std::int64_t f = 0; f < series.num_features; ++f) {
      row[static_cast<std::size_t>(f)] =
          series.values[static_cast<std::size_t>(idx * series.num_features + f)];
    }
    return row;
  };
  auto bitwise_eq = [](const std::vector<float>& a,
                       const std::vector<float>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(float)) == 0);
  };

  // Sequential reference: the per-stream synchronous wrapper, one thread.
  // Records the fresh tail score at each rescore push — exactly the scores
  // FleetServer delivers via TakeResults for the same rows.
  const std::int64_t kVerifyStreams = 8;
  ThreadPool::Instance().SetNumThreads(1);
  std::vector<std::vector<float>> reference(
      static_cast<std::size_t>(kVerifyStreams));
  for (std::int64_t s = 0; s < kVerifyStreams; ++s) {
    core::StreamingDetector sd(&detector, streaming);
    sd.CalibrateThreshold(calibration, 0.05);
    for (std::int64_t t = 0; t < kRows; ++t) {
      const auto r = sd.Push(row_for(s, t));
      const std::int64_t push = t + 1;  // 1-based push index
      const bool rescore = push >= streaming.window &&
                           (push - streaming.window) % streaming.hop == 0;
      if (r.has_value() && rescore) {
        reference[static_cast<std::size_t>(s)].push_back(r->score);
      }
    }
  }

  const std::vector<int> thread_counts = {1, 2, 4};
  bool batched_bitwise_identical = true;
  for (int t : thread_counts) {
    ThreadPool::Instance().SetNumThreads(t);
    serve::FleetOptions fopts;
    fopts.streaming = streaming;
    fopts.max_streams = kVerifyStreams;
    fopts.queue_capacity = 4096;
    fopts.batch_max = 5;  // non-divisor of the fleet: batches straddle ticks
    serve::FleetServer server(&detector, fopts);
    server.CalibrateThreshold(calibration, 0.05);
    for (std::int64_t s = 0; s < kVerifyStreams; ++s) server.OpenStream();
    for (std::int64_t tick = 0; tick < kRows; ++tick) {
      for (std::int64_t s = 0; s < kVerifyStreams; ++s) {
        const std::vector<float> row = row_for(s, tick);
        while (server.Push(s, row) == serve::AdmitStatus::kOverloaded) {
          server.Flush();
        }
      }
    }
    server.Drain();
    std::vector<std::vector<float>> got(
        static_cast<std::size_t>(kVerifyStreams));
    for (const serve::ScoredWindow& w : server.TakeResults()) {
      got[static_cast<std::size_t>(w.stream)].push_back(w.score);
    }
    for (std::int64_t s = 0; s < kVerifyStreams; ++s) {
      if (!bitwise_eq(got[static_cast<std::size_t>(s)],
                      reference[static_cast<std::size_t>(s)])) {
        batched_bitwise_identical = false;
      }
    }
    std::printf("verify threads=%d  batched==sequential: %s\n", t,
                batched_bitwise_identical ? "ok" : "MISMATCH");
  }

  // Crash-safety contract (docs/RESILIENCE.md, "Serving resilience"): a run
  // snapshotted mid-stream, "killed", restored into a fresh server, and
  // re-fed from total_pushed() on must produce — as the union of the two
  // runs' results — exactly the uninterrupted reference, bit for bit, at
  // every thread count. Keyed by (stream, seq) so coverage gaps and
  // disagreeing duplicates both fail.
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint32_t> ref_map;
  for (std::int64_t s = 0; s < kVerifyStreams; ++s) {
    const auto& scores = reference[static_cast<std::size_t>(s)];
    for (std::size_t k = 0; k < scores.size(); ++k) {
      const std::int64_t seq = streaming.window - 1 +
                               static_cast<std::int64_t>(k) * streaming.hop;
      std::uint32_t bits = 0;
      std::memcpy(&bits, &scores[k], sizeof(bits));
      ref_map[{s, seq}] = bits;
    }
  }
  bool snapshot_restore_bitwise = true;
  for (int t : thread_counts) {
    ThreadPool::Instance().SetNumThreads(t);
    const std::string snap_dir =
        (std::filesystem::temp_directory_path() /
         ("tfmae_bench_serving_snap_t" + std::to_string(t)))
            .string();
    std::filesystem::remove_all(snap_dir);
    serve::FleetOptions fopts;
    fopts.streaming = streaming;
    fopts.max_streams = kVerifyStreams;
    fopts.queue_capacity = 4096;
    fopts.batch_max = 5;
    fopts.snapshot_dir = snap_dir;
    const std::int64_t kCut = 50;  // mid-hop: queued windows are in flight
    std::map<std::pair<std::int64_t, std::int64_t>, std::uint32_t> got;
    auto take_into = [&](serve::FleetServer* server) {
      for (const serve::ScoredWindow& w : server->TakeResults()) {
        if (w.shed) continue;
        std::uint32_t bits = 0;
        std::memcpy(&bits, &w.score, sizeof(bits));
        const auto [it, inserted] = got.insert({{w.stream, w.seq}, bits});
        if (!inserted && it->second != bits) snapshot_restore_bitwise = false;
      }
    };
    {
      serve::FleetServer server(&detector, fopts);
      server.CalibrateThreshold(calibration, 0.05);
      for (std::int64_t s = 0; s < kVerifyStreams; ++s) server.OpenStream();
      for (std::int64_t tick = 0; tick < kCut; ++tick) {
        for (std::int64_t s = 0; s < kVerifyStreams; ++s) {
          const std::vector<float> row = row_for(s, tick);
          while (server.Push(s, row) == serve::AdmitStatus::kOverloaded) {
            server.Flush();
          }
        }
        take_into(&server);
      }
      std::string error;
      if (!server.SnapshotNow(&error)) {
        std::fprintf(stderr, "serving snapshot failed: %s\n", error.c_str());
        snapshot_restore_bitwise = false;
      }
      // Post-snapshot work whose results are never observed — the "crash":
      // the resumed run must regenerate all of it.
      for (std::int64_t tick = kCut; tick < kCut + 7; ++tick) {
        for (std::int64_t s = 0; s < kVerifyStreams; ++s) {
          const std::vector<float> row = row_for(s, tick);
          while (server.Push(s, row) == serve::AdmitStatus::kOverloaded) {
            server.Flush();
          }
        }
      }
    }
    std::string error;
    auto found = serve::FindLatestValidFleetSnapshot(snap_dir, &error);
    if (!found.has_value()) {
      std::fprintf(stderr, "no valid serving snapshot: %s\n", error.c_str());
      snapshot_restore_bitwise = false;
    } else {
      serve::FleetServer resumed(&detector, fopts);
      if (!resumed.Restore(found->second, &error)) {
        std::fprintf(stderr, "serving restore failed: %s\n", error.c_str());
        snapshot_restore_bitwise = false;
      } else {
        for (std::int64_t tick = resumed.total_pushed(0); tick < kRows;
             ++tick) {
          for (std::int64_t s = 0; s < kVerifyStreams; ++s) {
            const std::vector<float> row = row_for(s, tick);
            while (resumed.Push(s, row) == serve::AdmitStatus::kOverloaded) {
              resumed.Flush();
            }
          }
          take_into(&resumed);
        }
        resumed.Drain();
        take_into(&resumed);
      }
    }
    if (got != ref_map) snapshot_restore_bitwise = false;
    std::filesystem::remove_all(snap_dir);
    std::printf("verify threads=%d  restore==uninterrupted: %s\n", t,
                snapshot_restore_bitwise ? "ok" : "MISMATCH");
  }

  // Sequential windows/sec at one thread (the batch-efficiency denominator):
  // the same fleet replay, but each stream owns a synchronous wrapper.
  const std::int64_t kEffStreams = 256;
  ThreadPool::Instance().SetNumThreads(1);
  double sequential_windows_per_sec = 0.0;
  {
    pool::ResetCounters();
    std::vector<std::unique_ptr<core::StreamingDetector>> fleet;
    for (std::int64_t s = 0; s < kEffStreams; ++s) {
      fleet.push_back(
          std::make_unique<core::StreamingDetector>(&detector, streaming));
      fleet.back()->CalibrateThreshold(calibration, 0.05);
    }
    const auto t0 = clock::now();
    for (std::int64_t tick = 0; tick < kRows; ++tick) {
      for (std::int64_t s = 0; s < kEffStreams; ++s) {
        (void)fleet[static_cast<std::size_t>(s)]->Push(row_for(s, tick));
      }
    }
    const double sec =
        std::chrono::duration<double>(clock::now() - t0).count();
    sequential_windows_per_sec =
        static_cast<double>(kEffStreams * kWindowsPerStream) / sec;
    std::printf("sequential threads=1 streams=%lld  %9.0f windows/sec\n",
                static_cast<long long>(kEffStreams),
                sequential_windows_per_sec);
  }

  // The load matrix: streams x threads.
  const std::vector<std::int64_t> stream_counts = {64, 256, 1024};
  std::vector<ServingSweepRow> rows;
  double serve_windows_per_sec_256_1t = 0.0;
  double windows_per_sec_1t = 0.0;
  std::int64_t bytes_per_stream = 0;
  for (std::int64_t n : stream_counts) {
    for (int t : thread_counts) {
      ThreadPool::Instance().SetNumThreads(t);
      // Per-cell stats reset (the bench-sweep discipline): earlier cells'
      // churn must not inflate this cell's pool peaks.
      pool::ResetCounters();
      serve::FleetOptions fopts;
      fopts.streaming = streaming;
      fopts.max_streams = n;
      fopts.queue_capacity = 4096;
      fopts.batch_max = 64;
      serve::FleetServer server(&detector, fopts);
      server.CalibrateThreshold(calibration, 0.05);
      for (std::int64_t s = 0; s < n; ++s) server.OpenStream();
      const auto t0 = clock::now();
      for (std::int64_t tick = 0; tick < kRows; ++tick) {
        for (std::int64_t s = 0; s < n; ++s) {
          const std::vector<float> row = row_for(s, tick);
          while (server.Push(s, row) == serve::AdmitStatus::kOverloaded) {
            server.Flush();
          }
        }
      }
      server.Drain();
      const double sec =
          std::chrono::duration<double>(clock::now() - t0).count();
      (void)server.TakeResults();
      const serve::ServeStats st = server.stats();
      ServingSweepRow row;
      row.streams = n;
      row.threads = t;
      row.rows_per_sec = static_cast<double>(n * kRows) / sec;
      row.windows_per_sec = static_cast<double>(st.windows_scored) / sec;
      row.p50_window_us = st.p50_window_ns * 1e-3;
      row.p95_window_us = st.p95_window_ns * 1e-3;
      row.p99_window_us = st.p99_window_ns * 1e-3;
      row.bytes_per_stream = st.bytes_per_stream;
      row.batches = st.batches;
      row.max_batch = st.max_batch;
      rows.push_back(row);
      bytes_per_stream = st.bytes_per_stream;
      if (t == 1 && n == kEffStreams) {
        serve_windows_per_sec_256_1t = row.windows_per_sec;
      }
      if (t == 1 && n == stream_counts.back()) {
        windows_per_sec_1t = row.windows_per_sec;
      }
      std::printf(
          "streams=%-5lld threads=%d  %9.0f rows/sec  %8.0f windows/sec  "
          "p50 %.0f us  p99 %.0f us  %lld bytes/stream\n",
          static_cast<long long>(n), t, row.rows_per_sec,
          row.windows_per_sec, row.p50_window_us, row.p99_window_us,
          static_cast<long long>(row.bytes_per_stream));
    }
  }
  const double batch_efficiency_x =
      sequential_windows_per_sec > 0.0
          ? serve_windows_per_sec_256_1t / sequential_windows_per_sec
          : 0.0;
  const int hw_cores =
      static_cast<int>(std::thread::hardware_concurrency());
  ThreadPool::Instance().SetNumThreads(1);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"tfmae_fleet_serving\",\n");
  std::fprintf(f,
               "  \"shape\": \"W%lld_D%lld_L%lld_F%lld\",\n"
               "  \"rows_per_stream\": %lld,\n  \"hop\": %lld,\n"
               "  \"windows_per_stream\": %lld,\n",
               static_cast<long long>(config.window),
               static_cast<long long>(config.model_dim),
               static_cast<long long>(config.num_layers),
               static_cast<long long>(series.num_features),
               static_cast<long long>(kRows),
               static_cast<long long>(streaming.hop),
               static_cast<long long>(kWindowsPerStream));
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ServingSweepRow& r = rows[i];
    std::fprintf(f,
                 "    {\"streams\": %lld, \"threads\": %d, "
                 "\"rows_per_sec\": %.0f, \"windows_per_sec\": %.0f, "
                 "\"p50_window_us\": %.1f, \"p95_window_us\": %.1f, "
                 "\"p99_window_us\": %.1f, \"bytes_per_stream\": %lld, "
                 "\"batches\": %lld, \"max_batch\": %lld, "
                 "\"hw_cores\": %d}%s\n",
                 static_cast<long long>(r.streams), r.threads,
                 r.rows_per_sec, r.windows_per_sec, r.p50_window_us,
                 r.p95_window_us, r.p99_window_us,
                 static_cast<long long>(r.bytes_per_stream),
                 static_cast<long long>(r.batches),
                 static_cast<long long>(r.max_batch), hw_cores,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::fprintf(f, "    \"batch_efficiency_x\": %.2f,\n", batch_efficiency_x);
  std::fprintf(f, "    \"batched_bitwise_identical\": %s,\n",
               batched_bitwise_identical ? "true" : "false");
  std::fprintf(f, "    \"snapshot_restore_bitwise\": %s,\n",
               snapshot_restore_bitwise ? "true" : "false");
  std::fprintf(f, "    \"max_streams\": %lld,\n",
               static_cast<long long>(stream_counts.back()));
  std::fprintf(f, "    \"windows_per_sec_1t\": %.0f,\n", windows_per_sec_1t);
  std::fprintf(f, "    \"bytes_per_stream\": %lld,\n",
               static_cast<long long>(bytes_per_stream));
  std::fprintf(f, "    \"hw_cores\": %d\n", hw_cores);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf(
      "summary: batch_efficiency_x=%.2f batched_bitwise_identical=%s "
      "snapshot_restore_bitwise=%s max_streams=%lld bytes_per_stream=%lld "
      "hw_cores=%d\n",
      batch_efficiency_x, batched_bitwise_identical ? "true" : "false",
      snapshot_restore_bitwise ? "true" : "false",
      static_cast<long long>(stream_counts.back()),
      static_cast<long long>(bytes_per_stream), hw_cores);
  std::printf("wrote %s\n", path.c_str());
  return batched_bitwise_identical && snapshot_restore_bitwise ? 0 : 1;
}

}  // namespace
}  // namespace tfmae

int main(int argc, char** argv) {
  using tfmae::bench::FlagValue;
  if (const auto path = FlagValue(argc, argv, "--tensor_backend_json=")) {
    return tfmae::RunTensorBackendSweep(*path);
  }
  if (const auto path = FlagValue(argc, argv, "--obs_json=")) {
    return tfmae::RunObsProfile(*path);
  }
  if (const auto path = FlagValue(argc, argv, "--memory_plane_json=")) {
    return tfmae::RunMemoryPlaneSweep(*path);
  }
  if (const auto path = FlagValue(argc, argv, "--resilience_json=")) {
    return tfmae::RunResilienceSweep(*path);
  }
  if (const auto path = FlagValue(argc, argv, "--inference_plan_json=")) {
    return tfmae::RunInferencePlanSweep(*path);
  }
  if (const auto path = FlagValue(argc, argv, "--serving_json=")) {
    return tfmae::RunServingSweep(*path);
  }
  if (const auto path = FlagValue(argc, argv, "--quant_json=")) {
    int max_profiles = 0;  // 0 = all dataset profiles
    if (const auto limit = FlagValue(argc, argv, "--quant_profiles=")) {
      max_profiles = std::atoi(limit->c_str());
    }
    return tfmae::RunQuantSweep(*path, max_profiles);
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
