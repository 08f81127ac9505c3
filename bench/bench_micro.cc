// Micro-benchmarks (google-benchmark) backing the paper's complexity
// analysis (Section IV-E):
//  * FFT vs naive DFT — O(n log n) vs O(n^2).
//  * Sliding CV statistics, FFT vs two-loop — O(N·S·logS) vs O(N·S·W).
//  * Self-attention forward cost vs sequence length — the O(L·D·S^2) term.
//  * The GEMM kernel that dominates training.
//  * Frequency masking of one column.
//
// A plain google-benchmark binary: pass --benchmark_filter=REGEX to run a
// subset. End-to-end serving and fit performance is measured by
// benchmark/run.py (benchmark/README.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "fft/fft.h"
#include "masking/coefficient_of_variation.h"
#include "masking/frequency_mask.h"
#include "nn/attention.h"
#include "tensor/ops.h"
#include "util/rng.h"

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

}  // namespace
}  // namespace tfmae

BENCHMARK_MAIN();
