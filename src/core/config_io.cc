#include "core/config_io.h"

#include <functional>
#include <map>
#include <sstream>

#include "util/logging.h"

namespace tfmae::core {
namespace {

std::string TemporalMaskName(masking::TemporalMaskVariant variant) {
  switch (variant) {
    case masking::TemporalMaskVariant::kCoefficientOfVariation:
      return "cv";
    case masking::TemporalMaskVariant::kStdDev:
      return "stddev";
    case masking::TemporalMaskVariant::kRandom:
      return "random";
    case masking::TemporalMaskVariant::kNone:
      return "none";
  }
  return "cv";
}

std::string FrequencyMaskName(masking::FrequencyMaskVariant variant) {
  switch (variant) {
    case masking::FrequencyMaskVariant::kAmplitude:
      return "amplitude";
    case masking::FrequencyMaskVariant::kHighFrequency:
      return "high_frequency";
    case masking::FrequencyMaskVariant::kRandom:
      return "random";
    case masking::FrequencyMaskVariant::kNone:
      return "none";
  }
  return "amplitude";
}

// Field registry: each entry knows how to print itself and parse a value.
struct Field {
  std::function<std::string(const TfmaeConfig&)> print;
  std::function<bool(const std::string&, TfmaeConfig*)> parse;
};

template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  std::istringstream stream(text);
  stream >> *out;
  return static_cast<bool>(stream) && stream.eof();
}

bool ParseBool(const std::string& text, bool* out) {
  if (text == "true" || text == "1") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0") {
    *out = false;
    return true;
  }
  return false;
}

const std::map<std::string, Field>& Registry() {
  auto number_field = [](auto member) {
    return Field{
        [member](const TfmaeConfig& c) {
          std::ostringstream out;
          out << c.*member;
          return out.str();
        },
        [member](const std::string& text, TfmaeConfig* c) {
          return ParseNumber(text, &(c->*member));
        }};
  };
  auto bool_field = [](bool TfmaeConfig::* member) {
    return Field{
        [member](const TfmaeConfig& c) { return c.*member ? "true" : "false"; },
        [member](const std::string& text, TfmaeConfig* c) {
          return ParseBool(text, &(c->*member));
        }};
  };
  static const std::map<std::string, Field> registry = {
      {"window", number_field(&TfmaeConfig::window)},
      {"model_dim", number_field(&TfmaeConfig::model_dim)},
      {"num_layers", number_field(&TfmaeConfig::num_layers)},
      {"num_heads", number_field(&TfmaeConfig::num_heads)},
      {"ff_hidden", number_field(&TfmaeConfig::ff_hidden)},
      {"cv_window", number_field(&TfmaeConfig::cv_window)},
      {"temporal_mask_ratio", number_field(&TfmaeConfig::temporal_mask_ratio)},
      {"frequency_mask_ratio",
       number_field(&TfmaeConfig::frequency_mask_ratio)},
      {"learning_rate", number_field(&TfmaeConfig::learning_rate)},
      {"epochs", number_field(&TfmaeConfig::epochs)},
      {"clip_grad_norm", number_field(&TfmaeConfig::clip_grad_norm)},
      {"stride", number_field(&TfmaeConfig::stride)},
      {"batch_size", number_field(&TfmaeConfig::batch_size)},
      {"seed", number_field(&TfmaeConfig::seed)},
      {"use_adversarial", bool_field(&TfmaeConfig::use_adversarial)},
      {"reverse_adversarial", bool_field(&TfmaeConfig::reverse_adversarial)},
      {"adversarial_weight", number_field(&TfmaeConfig::adversarial_weight)},
      {"joint_alignment", bool_field(&TfmaeConfig::joint_alignment)},
      {"use_frequency_branch",
       bool_field(&TfmaeConfig::use_frequency_branch)},
      {"use_frequency_decoder",
       bool_field(&TfmaeConfig::use_frequency_decoder)},
      {"use_temporal_branch", bool_field(&TfmaeConfig::use_temporal_branch)},
      {"use_temporal_encoder",
       bool_field(&TfmaeConfig::use_temporal_encoder)},
      {"use_temporal_decoder",
       bool_field(&TfmaeConfig::use_temporal_decoder)},
      {"anomaly_fraction", number_field(&TfmaeConfig::anomaly_fraction)},
      {"score_stride", number_field(&TfmaeConfig::score_stride)},
      {"per_window_normalization",
       bool_field(&TfmaeConfig::per_window_normalization)},
      {"temporal_mask",
       Field{[](const TfmaeConfig& c) { return TemporalMaskName(c.temporal_mask); },
             [](const std::string& text, TfmaeConfig* c) {
               if (text == "cv") {
                 c->temporal_mask =
                     masking::TemporalMaskVariant::kCoefficientOfVariation;
               } else if (text == "stddev") {
                 c->temporal_mask = masking::TemporalMaskVariant::kStdDev;
               } else if (text == "random") {
                 c->temporal_mask = masking::TemporalMaskVariant::kRandom;
               } else if (text == "none") {
                 c->temporal_mask = masking::TemporalMaskVariant::kNone;
               } else {
                 return false;
               }
               return true;
             }}},
      {"frequency_mask",
       Field{[](const TfmaeConfig& c) {
               return FrequencyMaskName(c.frequency_mask);
             },
             [](const std::string& text, TfmaeConfig* c) {
               if (text == "amplitude") {
                 c->frequency_mask = masking::FrequencyMaskVariant::kAmplitude;
               } else if (text == "high_frequency") {
                 c->frequency_mask =
                     masking::FrequencyMaskVariant::kHighFrequency;
               } else if (text == "random") {
                 c->frequency_mask = masking::FrequencyMaskVariant::kRandom;
               } else if (text == "none") {
                 c->frequency_mask = masking::FrequencyMaskVariant::kNone;
               } else {
                 return false;
               }
               return true;
             }}},
      {"cv_method",
       Field{[](const TfmaeConfig& c) {
               return std::string(
                   c.cv_method == masking::CvMethod::kFft ? "fft" : "naive");
             },
             [](const std::string& text, TfmaeConfig* c) {
               if (text == "fft") {
                 c->cv_method = masking::CvMethod::kFft;
               } else if (text == "naive") {
                 c->cv_method = masking::CvMethod::kNaive;
               } else {
                 return false;
               }
               return true;
             }}},
  };
  return registry;
}

}  // namespace

std::string ConfigToString(const TfmaeConfig& config) {
  std::ostringstream out;
  out << "# TFMAE configuration\n";
  for (const auto& [key, field] : Registry()) {
    out << key << " = " << field.print(config) << '\n';
  }
  return out.str();
}

std::optional<TfmaeConfig> ConfigFromString(const std::string& text) {
  TfmaeConfig config;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    // Strip comments and whitespace.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::size_t equals = line.find('=');
    if (equals == std::string::npos) {
      if (line.find_first_not_of(" \t\r") != std::string::npos) {
        Log(LogLevel::kError,
            "config line " + std::to_string(line_number) + ": missing '='");
        return std::nullopt;
      }
      continue;
    }
    auto trim = [](std::string s) {
      const std::size_t begin = s.find_first_not_of(" \t\r");
      const std::size_t end = s.find_last_not_of(" \t\r");
      if (begin == std::string::npos) return std::string();
      return s.substr(begin, end - begin + 1);
    };
    const std::string key = trim(line.substr(0, equals));
    const std::string value = trim(line.substr(equals + 1));
    const auto it = Registry().find(key);
    if (it == Registry().end()) {
      Log(LogLevel::kError, "config: unknown key '" + key + "'");
      return std::nullopt;
    }
    if (!it->second.parse(value, &config)) {
      Log(LogLevel::kError,
          "config: bad value '" + value + "' for key '" + key + "'");
      return std::nullopt;
    }
  }
  return config;
}

}  // namespace tfmae::core
