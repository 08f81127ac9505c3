// Int8 calibration pass and QuantSpec persistence (core/quant.h).
#include "core/quant.h"

#include <cmath>
#include <map>
#include <utility>

#include "core/inference_plan.h"
#include "core/model.h"
#include "util/checkpoint_file.h"

namespace tfmae::core {
namespace {

constexpr std::uint32_t kQuantSpecVersion = 1;

// Hard ceiling on decoded counts: a corrupt length prefix must fail the
// decode, not drive a multi-gigabyte allocation.
constexpr std::int64_t kMaxSites = 4096;
constexpr std::int64_t kMaxChannels = 1 << 20;

}  // namespace

std::vector<char> EncodeQuantSpec(const QuantSpec& spec) {
  util::ByteWriter w;
  w.U32(kQuantSpecVersion);
  w.I64(spec.num_features);
  w.I64(spec.windows);
  w.U32(static_cast<std::uint32_t>(spec.sites.size()));
  for (const QuantSite& s : spec.sites) {
    w.I64(s.weight_index);
    w.I64(s.in_features);
    w.FloatArray(s.absmax);
    w.I64(s.moments.count);
    w.F64(s.moments.mean);
    w.F64(s.moments.m2);
  }
  return w.Take();
}

bool DecodeQuantSpec(const std::vector<char>& payload, QuantSpec* spec) {
  util::ByteReader r(payload);
  std::uint32_t version = 0;
  if (!r.U32(&version) || version != kQuantSpecVersion) return false;
  QuantSpec out;
  std::uint32_t count = 0;
  if (!r.I64(&out.num_features) || !r.I64(&out.windows) || !r.U32(&count)) {
    return false;
  }
  if (count > kMaxSites) return false;
  out.sites.resize(count);
  for (QuantSite& s : out.sites) {
    std::int64_t weight_index = -1;
    if (!r.I64(&weight_index) || !r.I64(&s.in_features) ||
        !r.FloatArray(&s.absmax) || !r.I64(&s.moments.count) ||
        !r.F64(&s.moments.mean) || !r.F64(&s.moments.m2)) {
      return false;
    }
    if (weight_index < 0 || weight_index > kMaxSites) return false;
    s.weight_index = static_cast<int>(weight_index);
    if (s.in_features <= 0 || s.in_features > kMaxChannels ||
        static_cast<std::int64_t>(s.absmax.size()) != s.in_features) {
      return false;
    }
    for (float a : s.absmax) {
      if (!std::isfinite(a) || a < 0.0f) return false;
    }
  }
  if (!r.AtEnd()) return false;
  *spec = std::move(out);
  return true;
}

bool CalibrateQuantSpec(const TfmaeModel& model,
                        const std::vector<MaskedWindow>& windows,
                        std::int64_t num_features, QuantSpec* spec,
                        std::string* error) {
  if (windows.empty()) {
    if (error != nullptr) *error = "quant: no calibration windows";
    return false;
  }
  std::vector<float> scores;
  std::string capture_error;
  std::unique_ptr<InferencePlan> plan =
      InferencePlan::Capture(model, windows.front(), &scores, &capture_error);
  if (plan == nullptr) {
    if (error != nullptr) {
      *error = "quant: fp32 calibration plan failed: " + capture_error;
    }
    return false;
  }

  // Sites keyed by stable parameter index; ordered so the encoded spec is
  // deterministic for a given model and window set.
  std::map<int, QuantSite> sites;
  auto observer = [&sites](int weight_index, const float* data,
                           std::int64_t rows, std::int64_t cols) {
    QuantSite& site = sites[weight_index];
    if (site.weight_index < 0) {
      site.weight_index = weight_index;
      site.in_features = cols;
      site.absmax.assign(static_cast<std::size_t>(cols), 0.0f);
    }
    for (std::int64_t i = 0; i < rows; ++i) {
      const float* row = data + i * cols;
      for (std::int64_t j = 0; j < cols; ++j) {
        const float a = std::fabs(row[j]);
        float& mx = site.absmax[static_cast<std::size_t>(j)];
        if (a > mx) mx = a;
        site.moments.Observe(row[j]);
      }
    }
  };
  for (const MaskedWindow& window : windows) {
    if (!plan->Matches(window)) {
      if (error != nullptr) {
        *error = "quant: calibration window geometry mismatch";
      }
      return false;
    }
    plan->ScoreWithActivationObserver(window, &scores, observer);
  }
  if (sites.empty()) {
    if (error != nullptr) *error = "quant: graph has no weight-bearing matmuls";
    return false;
  }

  // Score-head guard: the final layer of each decoder stack is excluded
  // from the spec, so its matmuls stay fp32. The SymKL anomaly score is
  // second-order in the gap between the two views' distributions — on
  // well-reconstructed points that gap is near zero, and int8 noise
  // injected directly into the score-forming logits inflates scores
  // multiplicatively (relative score error grows as training shrinks the
  // fp32 scores). Keeping just these last layers fp32 cuts int8 score
  // error roughly 4x and is what holds point-adjust F1 inside the parity
  // tolerance; quantizing everything upstream is parity-neutral.
  for (int idx : model.ScoreHeadParameterIndices()) sites.erase(idx);
  if (sites.empty()) {
    if (error != nullptr) *error = "quant: no quantizable sites after guard";
    return false;
  }

  spec->num_features = num_features;
  spec->windows = static_cast<std::int64_t>(windows.size());
  spec->sites.clear();
  spec->sites.reserve(sites.size());
  for (auto& [index, site] : sites) spec->sites.push_back(std::move(site));
  return true;
}

}  // namespace tfmae::core
