#include "core/model.h"

#include <numeric>

#include "tensor/capture.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace tfmae::core {
namespace {

// Positions 0..length-1 (full-sequence positional decoration).
std::vector<std::int64_t> AllPositions(std::int64_t length) {
  std::vector<std::int64_t> positions(static_cast<std::size_t>(length));
  std::iota(positions.begin(), positions.end(), 0);
  return positions;
}

}  // namespace

TfmaeModel::TfmaeModel(std::int64_t num_features, const TfmaeConfig& config,
                       Rng* rng)
    : num_features_(num_features),
      config_(config),
      temporal_proj_(num_features, config.model_dim, rng),
      frequency_proj_(num_features, config.model_dim, rng),
      temporal_encoder_(config.num_layers, config.model_dim, config.num_heads,
                        config.ff_hidden, rng),
      temporal_decoder_(config.num_layers, config.model_dim, config.num_heads,
                        config.ff_hidden, rng),
      frequency_decoder_(config.num_layers, config.model_dim, config.num_heads,
                         config.ff_hidden, rng) {
  TFMAE_CHECK(num_features >= 1);
  temporal_mask_token_ = RegisterParameter(
      "temporal_mask_token",
      Tensor::Randn({config.model_dim}, rng, 0.02f));
  frequency_token_re_ = RegisterParameter(
      "frequency_token_re", Tensor::Randn({num_features}, rng, 0.02f));
  frequency_token_im_ = RegisterParameter(
      "frequency_token_im", Tensor::Randn({num_features}, rng, 0.02f));
  RegisterModule("temporal_proj", &temporal_proj_);
  RegisterModule("frequency_proj", &frequency_proj_);
  RegisterModule("temporal_encoder", &temporal_encoder_);
  RegisterModule("temporal_decoder", &temporal_decoder_);
  RegisterModule("frequency_decoder", &frequency_decoder_);
}

bool TfmaeModel::ConfigIsBuildable(const TfmaeConfig& config) {
  const auto ratio_ok = [](double r) { return r >= 0.0 && r < 1.0; };
  return config.model_dim >= 1 && config.num_heads >= 1 &&
         config.model_dim % config.num_heads == 0 && config.num_layers >= 1 &&
         config.ff_hidden >= 1 && config.window >= 2 &&
         config.cv_window >= 1 && ratio_ok(config.temporal_mask_ratio) &&
         ratio_ok(config.frequency_mask_ratio);
}

std::optional<std::uint64_t> TfmaeModel::ParameterCount(
    std::int64_t num_features, const TfmaeConfig& config) {
  // Below 2^31 per dimension the count cannot overflow 128 bits; no model
  // with a dimension that large fits in memory anyway.
  constexpr std::int64_t kMaxDim = std::int64_t{1} << 31;
  if (num_features > kMaxDim || config.model_dim > kMaxDim ||
      config.ff_hidden > kMaxDim || config.num_layers > kMaxDim) {
    return std::nullopt;
  }
  using U128 = unsigned __int128;
  const U128 f = num_features, d = config.model_dim, h = config.ff_hidden;
  // A layer: four attention projections, the two feed-forward layers (each
  // with its bias) and two layer norms (gain and offset). The model: two
  // input projections, the temporal mask token, the frequency token's real
  // and imaginary parts, and three stacks of layers.
  const U128 layer = 4 * (d * d + d) + (d * h + h) + (h * d + d) + 4 * d;
  const U128 total = 2 * (f * d + d) + d + 2 * f +
                     3 * static_cast<U128>(config.num_layers) * layer;
  if (total > UINT64_MAX) return std::nullopt;
  return static_cast<std::uint64_t>(total);
}

std::vector<int> TfmaeModel::ScoreHeadParameterIndices() const {
  const std::string last = "layer" + std::to_string(config_.num_layers - 1);
  const std::string temporal_prefix = "temporal_decoder." + last + ".";
  const std::string frequency_prefix = "frequency_decoder." + last + ".";
  std::vector<int> out;
  const auto named = NamedParameters();
  for (std::size_t i = 0; i < named.size(); ++i) {
    const std::string& name = named[i].first;
    if (name.rfind(temporal_prefix, 0) == 0 ||
        name.rfind(frequency_prefix, 0) == 0) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

void MaskedWindow::Reserve(std::int64_t length, std::int64_t num_features) {
  const auto len = static_cast<std::size_t>(length);
  values.reserve(len * static_cast<std::size_t>(num_features));
  temporal.masked.reserve(len);
  temporal.unmasked.reserve(len);
  frequency.resize(static_cast<std::size_t>(num_features));
  for (masking::FrequencyMaskedColumn& column : frequency) {
    column.base.reserve(len);
    column.cos_coef.reserve(len);
    column.sin_coef.reserve(len);
    column.masked_bins.reserve(len);
  }
}

MaskedWindow TfmaeModel::PrepareWindow(const std::vector<float>& values,
                                       Rng* mask_rng) const {
  MaskedWindow window;
  window.values = values;
  PrepareWindowInto(&window, mask_rng);
  return window;
}

void TfmaeModel::PrepareWindowInto(MaskedWindow* window, Rng* mask_rng) const {
  const std::vector<float>& values = window->values;
  window->num_features = num_features_;
  TFMAE_CHECK_MSG(
      static_cast<std::int64_t>(values.size()) % num_features_ == 0,
      "window size not a multiple of the feature count");
  const std::int64_t length =
      static_cast<std::int64_t>(values.size()) / num_features_;
  window->length = length;
  TFMAE_CHECK(length >= 2);

  masking::TemporalMask& temporal = window->temporal;
  if (config_.use_temporal_branch) {
    const masking::TemporalMask mask = masking::ComputeTemporalMask(
        values, length, num_features_, config_.cv_window,
        config_.temporal_mask_ratio, config_.temporal_mask, config_.cv_method,
        mask_rng);
    temporal.masked.assign(mask.masked.begin(), mask.masked.end());
    temporal.unmasked.assign(mask.unmasked.begin(), mask.unmasked.end());
  } else {
    // Unmasked pass-through: everything is "unmasked".
    temporal.masked.clear();
    temporal.unmasked.resize(static_cast<std::size_t>(length));
    std::iota(temporal.unmasked.begin(), temporal.unmasked.end(), 0);
  }

  if (config_.use_frequency_branch) {
    window->frequency.resize(static_cast<std::size_t>(num_features_));
    for (std::int64_t n = 0; n < num_features_; ++n) {
      masking::MaskFrequencyColumnInto(
          values.data() + n, length, num_features_,
          config_.frequency_mask_ratio, config_.frequency_mask, mask_rng,
          &window->frequency[static_cast<std::size_t>(n)]);
    }
  } else {
    window->frequency.clear();
  }
}

Tensor TfmaeModel::TemporalView(const MaskedWindow& window) const {
  const std::int64_t t_len = window.length;
  ops::capture::TagNextInput(ops::capture::InputTag::kTemporalValues);
  Tensor input = Tensor::FromData({t_len, num_features_}, window.values);

  if (!config_.use_temporal_branch) {
    // "w/o Tem": the view degrades to the decorated input projection.
    Tensor projected = temporal_proj_.Forward(input);
    return nn::AddPositionalEncoding(projected, AllPositions(t_len));
  }

  const auto& mask = window.temporal;
  Tensor full;
  if (mask.masked.empty()) {
    Tensor projected = temporal_proj_.Forward(input);
    Tensor decorated =
        nn::AddPositionalEncoding(projected, AllPositions(t_len));
    full = config_.use_temporal_encoder
               ? temporal_encoder_.Forward(decorated)
               : decorated;
  } else {
    // Unmasked tokens: project, decorate, encode (Eq. (3) + encoder).
    Tensor unmasked_input = ops::IndexRows(input, mask.unmasked);
    Tensor unmasked = temporal_proj_.Forward(unmasked_input);
    unmasked = nn::AddPositionalEncoding(unmasked, mask.unmasked);
    if (config_.use_temporal_encoder) {
      unmasked = temporal_encoder_.Forward(unmasked);
    }
    // Masked tokens: learnable m^(T) decorated with the original location.
    Tensor masked = ops::RepeatRow(
        temporal_mask_token_, static_cast<std::int64_t>(mask.masked.size()));
    masked = nn::AddPositionalEncoding(masked, mask.masked);
    // Insert masked representations into the encoded unmasked ones (the ||
    // operation of Fig. 5).
    full = ops::Add(ops::ScatterRows(unmasked, mask.unmasked, t_len),
                    ops::ScatterRows(masked, mask.masked, t_len));
  }
  if (config_.use_temporal_decoder) {
    full = temporal_decoder_.Forward(full);
  }
  return full;
}

Tensor TfmaeModel::FrequencyView(const MaskedWindow& window) const {
  const std::int64_t t_len = window.length;

  if (!config_.use_frequency_branch) {
    // "w/o Fre": the view degrades to the decorated input projection.
    ops::capture::TagNextInput(ops::capture::InputTag::kTemporalValues);
    Tensor input = Tensor::FromData({t_len, num_features_}, window.values);
    Tensor projected = frequency_proj_.Forward(input);
    return nn::AddPositionalEncoding(projected, AllPositions(t_len));
  }

  TFMAE_CHECK(static_cast<std::int64_t>(window.frequency.size()) ==
              num_features_);
  // Assemble the frequency-masked series: base + Re(m) * C + Im(m) * S,
  // where the coefficient matrices collect the masked bins' basis functions
  // per feature (see masking/frequency_mask.h).
  std::vector<float> base(static_cast<std::size_t>(t_len * num_features_));
  std::vector<float> cos_coef(base.size());
  std::vector<float> sin_coef(base.size());
  for (std::int64_t n = 0; n < num_features_; ++n) {
    const auto& column = window.frequency[static_cast<std::size_t>(n)];
    for (std::int64_t t = 0; t < t_len; ++t) {
      const std::size_t flat = static_cast<std::size_t>(t * num_features_ + n);
      base[flat] = column.base[static_cast<std::size_t>(t)];
      cos_coef[flat] = column.cos_coef[static_cast<std::size_t>(t)];
      sin_coef[flat] = column.sin_coef[static_cast<std::size_t>(t)];
    }
  }
  ops::capture::TagNextInput(ops::capture::InputTag::kFreqBase);
  Tensor base_t = Tensor::FromData({t_len, num_features_}, base);
  ops::capture::TagNextInput(ops::capture::InputTag::kFreqCos);
  Tensor cos_t = Tensor::FromData({t_len, num_features_}, cos_coef);
  ops::capture::TagNextInput(ops::capture::InputTag::kFreqSin);
  Tensor sin_t = Tensor::FromData({t_len, num_features_}, sin_coef);
  Tensor masked_series =
      ops::Add(base_t, ops::Add(ops::Mul(cos_t, frequency_token_re_),
                                ops::Mul(sin_t, frequency_token_im_)));

  Tensor projected = frequency_proj_.Forward(masked_series);  // Eq. (10)
  Tensor decorated =
      nn::AddPositionalEncoding(projected, AllPositions(t_len));  // Eq. (11)
  if (config_.use_frequency_decoder) {
    decorated = frequency_decoder_.Forward(decorated);
  }
  return decorated;
}

TfmaeModel::Views TfmaeModel::Forward(const MaskedWindow& window) const {
  Views views;
  views.temporal = TemporalView(window);
  views.frequency = FrequencyView(window);
  return views;
}

Tensor TfmaeModel::Loss(const Views& views) const {
  const Tensor& p = views.temporal;
  const Tensor& f = views.frequency;
  if (!config_.use_adversarial) {
    // Eq. (14) with the temporal gradient halted.
    Tensor loss = ops::SymmetricKlLoss(p.Detach(), f);
    if (config_.joint_alignment) {
      loss = ops::Add(loss, ops::SymmetricKlLoss(f.Detach(), p));
    }
    return loss;
  }
  Tensor minimize_stage;
  Tensor maximize_stage;
  if (!config_.reverse_adversarial) {
    // Eq. (15): minimize w.r.t. F^(L) (temporal side acts as the label),
    // maximize w.r.t. P^(L) (frequency side detached).
    minimize_stage = ops::SymmetricKlLoss(p.Detach(), f);
    maximize_stage = ops::SymmetricKlLoss(p, f.Detach());
  } else {
    // "w/ L_radv": swapped roles.
    minimize_stage = ops::SymmetricKlLoss(f.Detach(), p);
    maximize_stage = ops::SymmetricKlLoss(f, p.Detach());
  }
  if (config_.joint_alignment) {
    minimize_stage = ops::Add(
        minimize_stage,
        ops::SymmetricKlLoss(config_.reverse_adversarial ? p.Detach()
                                                         : f.Detach(),
                             config_.reverse_adversarial ? f : p));
  }
  return ops::Sub(minimize_stage,
                  ops::Scale(maximize_stage, config_.adversarial_weight));
}

std::vector<float> TfmaeModel::ScoreWindow(const MaskedWindow& window) const {
  NoGradGuard no_grad;
  const Views views = Forward(window);
  return ops::SymmetricKlPerRow(views.temporal, views.frequency);
}

}  // namespace tfmae::core
