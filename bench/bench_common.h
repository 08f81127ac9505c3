// Shared helpers for the table/figure report generators.
//
// Each bench binary regenerates one table or figure of the paper on the
// simulated dataset profiles. Results print as an aligned console table and
// are also written as CSV into ./bench_results/ for diffing across runs.
//
// The per-dataset configuration helpers are inline, so code outside bench/
// can use them header-only without linking tfmae_bench_common:
// benchmark/tfmae_bench.cc (fit_msl) and the int8 F1 parity test in
// tests/quant_test.cc.
//
// Environment knobs:
//   TFMAE_BENCH_SCALE  — multiplies every dataset split length (default 1).
//                        Use 0.5 for a quick pass, 2 for a longer one.
#ifndef TFMAE_BENCH_BENCH_COMMON_H_
#define TFMAE_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <string>

#include "core/config.h"
#include "data/profiles.h"

namespace tfmae::bench {

/// Dataset scale from TFMAE_BENCH_SCALE (default 1.0).
inline double DatasetScale() {
  const char* env = std::getenv("TFMAE_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double value = std::atof(env);
  return value > 0.0 ? value : 1.0;
}

/// Tuned TFMAE configuration for one benchmark dataset (the analogue of the
/// paper's per-dataset masking ratios in Section V-A.4 / Fig. 6).
inline core::TfmaeConfig TfmaeConfigFor(data::BenchmarkDataset dataset) {
  core::TfmaeConfig config;
  config.epochs = 60;
  using B = data::BenchmarkDataset;
  switch (dataset) {
    case B::kSwat:
      config.per_window_normalization = false;
      config.temporal_mask_ratio = 0.25;
      config.frequency_mask_ratio = 0.4;
      break;
    case B::kPsm:
      config.per_window_normalization = true;
      config.temporal_mask_ratio = 0.65;
      config.frequency_mask_ratio = 0.1;
      break;
    case B::kSmd:
      config.per_window_normalization = false;
      config.temporal_mask_ratio = 0.5;
      config.frequency_mask_ratio = 0.2;
      break;
    case B::kMsl:
      config.per_window_normalization = true;
      config.temporal_mask_ratio = 0.55;
      config.frequency_mask_ratio = 0.4;
      break;
    case B::kSmap:
      config.per_window_normalization = true;
      config.temporal_mask_ratio = 0.65;
      config.frequency_mask_ratio = 0.3;
      break;
    case B::kNipsTsGlobal:
      config.per_window_normalization = false;
      config.temporal_mask_ratio = 0.25;
      config.frequency_mask_ratio = 0.3;
      config.epochs = 30;
      break;
    case B::kNipsTsSeasonal:
      config.per_window_normalization = false;
      config.temporal_mask_ratio = 0.5;
      config.frequency_mask_ratio = 0.3;
      break;
  }
  return config;
}

/// Threshold fraction r per dataset (paper: 0.3%-0.9%; scaled up here in
/// proportion to the shorter simulated series).
inline double AnomalyFractionFor(data::BenchmarkDataset dataset) {
  switch (dataset) {
    case data::BenchmarkDataset::kNipsTsGlobal:
      return 0.04;
    case data::BenchmarkDataset::kNipsTsSeasonal:
      return 0.03;
    default:
      return 0.05;
  }
}

/// Creates ./bench_results (best effort) and returns "bench_results/<name>".
std::string ResultPath(const std::string& file_name);

}  // namespace tfmae::bench

#endif  // TFMAE_BENCH_BENCH_COMMON_H_
