// Int8 calibration: per-channel activation ranges for the quantized
// inference plan (DESIGN.md §12).
//
// A QuantSpec records, for every weight-bearing matmul in the scoring graph
// (the Linear layers: temporal/frequency input projections, attention
// q/k/v/o projections, feed-forward fc1/fc2), the observed absmax of each
// input channel plus a Welford mean/variance summary, measured by replaying
// calibration windows through the fp32 inference plan with observers
// attached. Sites are keyed by the model's stable parameter index
// (capture::NodeInfo::weight_index), which survives save/load because
// parameter order is the construction order of the network.
//
// The spec is persisted as the optional "quant_spec" section of the
// detector file (TfmaeDetector::SaveCheckpoint); a detector loaded without
// one scores fp32 until calibrated.
#ifndef TFMAE_CORE_QUANT_H_
#define TFMAE_CORE_QUANT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tfmae::core {

class TfmaeModel;
struct MaskedWindow;

/// Streaming Welford accumulator over every observed activation value of
/// one site (reported in the ledger `quant` event; not used for scales).
struct QuantSiteMoments {
  std::int64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;

  void Observe(double x) {
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
  }
  double Variance() const {
    return count > 1 ? m2 / static_cast<double>(count - 1) : 0.0;
  }
};

/// Calibrated input ranges of one weight-bearing matmul.
struct QuantSite {
  int weight_index = -1;        ///< stable parameter index of the weight
  std::int64_t in_features = 0; ///< K of the matmul (input channel count)
  std::vector<float> absmax;    ///< per-input-channel |x| maximum, size K
  QuantSiteMoments moments;

  /// Per-tensor activation range: the max over channels. Constant-zero
  /// inputs calibrate to 0; ActivationScale() clamps.
  float TensorAbsMax() const {
    float v = 0.0f;
    for (float a : absmax) v = v > a ? v : a;
    return v;
  }
  /// u8 scale = absmax / 127, clamped to a positive floor so zero-variance
  /// calibration data can never produce a 0/inf/NaN scale.
  float ActivationScale() const {
    const float amax = TensorAbsMax();
    return (amax > 1e-20f ? amax : 1.0f) / 127.0f;
  }
};

/// The full calibration artifact for one fitted model.
struct QuantSpec {
  std::int64_t num_features = 0;  ///< raw feature count the model was fit on
  std::int64_t windows = 0;       ///< calibration windows observed
  std::vector<QuantSite> sites;

  bool empty() const { return sites.empty(); }
  const QuantSite* Find(int weight_index) const {
    for (const QuantSite& s : sites) {
      if (s.weight_index == weight_index) return &s;
    }
    return nullptr;
  }
};

/// Section name inside the detector file.
inline constexpr char kQuantSpecSection[] = "quant_spec";

/// Serializes a QuantSpec into a section payload (ByteWriter format,
/// versioned).
std::vector<char> EncodeQuantSpec(const QuantSpec& spec);

/// Bounds-checked decode; returns false (`spec` untouched) on any
/// truncation, version skew, or implausible length.
bool DecodeQuantSpec(const std::vector<char>& payload, QuantSpec* spec);

/// Runs `windows` through a freshly captured fp32 inference plan with
/// absmax/Welford observers on every weight-bearing matmul input and fills
/// `spec`. `num_features` stamps the spec for the feature-count-mismatch
/// refusal at scoring time. Returns false (reason in `error`) when the
/// fp32 plan cannot capture or `windows` is empty — calibration never
/// falls back to an approximation.
bool CalibrateQuantSpec(const TfmaeModel& model,
                        const std::vector<MaskedWindow>& windows,
                        std::int64_t num_features, QuantSpec* spec,
                        std::string* error = nullptr);

}  // namespace tfmae::core

#endif  // TFMAE_CORE_QUANT_H_
