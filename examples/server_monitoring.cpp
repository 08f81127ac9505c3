// Server-fleet monitoring: the SMD-style scenario from the paper's
// introduction. Trains TFMAE on a week of multichannel server telemetry,
// persists the fitted detector, restores it as a monitoring daemon would,
// then monitors new data chunk by chunk, raising alerts on contiguous
// anomalous segments.
//
//   $ ./build/examples/server_monitoring
//
// Demonstrates: multivariate data, checkpointing (SaveCheckpoint /
// LoadCheckpoint), chunked scoring, and segment-level alerting.
#include <algorithm>
#include <cstdio>

#include "core/attribution.h"
#include "core/detector.h"
#include "data/profiles.h"
#include "eval/detection.h"
#include "obs/export.h"

int main(int argc, char** argv) {
  tfmae::obs::MaybeProfileFromArgs(&argc, argv);
  using namespace tfmae;

  // Simulated 38-channel server-machine dataset (SMD profile).
  const data::LabeledDataset dataset =
      data::MakeBenchmarkDataset(data::BenchmarkDataset::kSmd, 0.6);
  std::printf("channels: %lld, train: %lld steps, monitoring: %lld steps\n",
              static_cast<long long>(dataset.train.num_features),
              static_cast<long long>(dataset.train.length),
              static_cast<long long>(dataset.test.length));

  // Train once on the historical window...
  core::TfmaeConfig config;
  config.per_window_normalization = false;
  config.epochs = 30;
  core::TfmaeDetector trainer(config);
  trainer.Fit(dataset.train);
  std::printf("model trained: %lld parameters, %.1fs\n",
              static_cast<long long>(trainer.model()->NumParameters()),
              trainer.train_stats().fit_seconds);

  // ...checkpoint it on deploy: config, normalizer and weights in one file...
  const std::string checkpoint = "/tmp/tfmae_server_monitor.ckpt";
  if (!trainer.SaveCheckpoint(checkpoint)) {
    std::fprintf(stderr, "cannot write checkpoint %s\n", checkpoint.c_str());
    return 1;
  }
  std::printf("checkpoint written to %s\n", checkpoint.c_str());

  // ...and rebuild the detector from that file alone, as the monitoring
  // daemon does when it starts.
  core::TfmaeDetector detector(core::TfmaeConfig{});
  if (!detector.LoadCheckpoint(checkpoint)) {
    std::fprintf(stderr, "cannot load checkpoint %s\n", checkpoint.c_str());
    return 1;
  }

  // Calibrate the alert threshold on the validation stream.
  const std::vector<float> val_scores = detector.Score(dataset.val);
  const std::vector<float> all_test_scores = detector.Score(dataset.test);
  std::vector<float> combined = val_scores;
  combined.insert(combined.end(), all_test_scores.begin(),
                  all_test_scores.end());
  const float threshold = eval::QuantileThreshold(combined, 0.05);
  std::printf("alert threshold: %.5f\n\n", threshold);

  // Monitor in chunks of 200 steps, emitting one alert per contiguous
  // anomalous segment.
  const std::int64_t chunk = 200;
  int alerts = 0;
  for (std::int64_t begin = 0; begin < dataset.test.length; begin += chunk) {
    const std::int64_t len = std::min(chunk, dataset.test.length - begin);
    if (len < detector.config().window) break;
    const data::TimeSeries window = dataset.test.Slice(begin, len);
    const std::vector<float> scores = detector.Score(window);
    const auto flags = eval::ApplyThreshold(scores, threshold);
    std::size_t t = 0;
    while (t < flags.size()) {
      if (flags[t] == 0) {
        ++t;
        continue;
      }
      std::size_t end = t;
      float peak = 0.0f;
      while (end < flags.size() && flags[end] != 0) {
        peak = std::max(peak, scores[end]);
        ++end;
      }
      std::printf("ALERT: steps [%lld, %lld) score peak %.4f\n",
                  static_cast<long long>(begin + static_cast<std::int64_t>(t)),
                  static_cast<long long>(begin + static_cast<std::int64_t>(end)),
                  peak);
      ++alerts;
      t = end;
    }
  }

  // Root-cause hint for the strongest alert: which channels drive it?
  {
    std::size_t peak_at = 0;
    for (std::size_t t = 1; t < all_test_scores.size(); ++t) {
      if (all_test_scores[t] > all_test_scores[peak_at]) peak_at = t;
    }
    const std::vector<float> attribution = core::OcclusionAttribution(
        &detector, dataset.test, static_cast<std::int64_t>(peak_at));
    std::vector<std::size_t> order(attribution.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return attribution[a] > attribution[b];
    });
    std::printf("\nstrongest alert at t=%zu; top contributing channels:", peak_at);
    for (int i = 0; i < 3; ++i) {
      std::printf(" f%zu(%.4f)", order[static_cast<std::size_t>(i)],
                  attribution[order[static_cast<std::size_t>(i)]]);
    }
    std::printf("\n");
  }

  // How did the alerting do against ground truth?
  const auto predictions = eval::ApplyThreshold(all_test_scores, threshold);
  const auto adjusted = eval::PointAdjust(predictions, dataset.test.labels);
  const auto metrics = eval::ComputePrf(adjusted, dataset.test.labels);
  std::printf("\n%d alerts; precision %.1f%%, recall %.1f%%, F1 %.1f%%\n",
              alerts, metrics.precision * 100, metrics.recall * 100,
              metrics.f1 * 100);
  std::remove(checkpoint.c_str());
  return 0;
}
