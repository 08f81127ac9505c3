// Textual (de)serialization of TfmaeConfig — reproducibility plumbing so an
// experiment's exact configuration travels with its checkpoint and results.
// Format: one "key = value" pair per line, '#' comments allowed; unknown
// keys are rejected so typos fail loudly.
#ifndef TFMAE_CORE_CONFIG_IO_H_
#define TFMAE_CORE_CONFIG_IO_H_

#include <optional>
#include <string>

#include "core/config.h"

namespace tfmae::core {

/// Renders every field of `config` as "key = value" lines.
std::string ConfigToString(const TfmaeConfig& config);

/// Parses ConfigToString output (or a hand-written subset; omitted keys keep
/// their defaults). Returns std::nullopt and logs on malformed input or an
/// unknown key.
std::optional<TfmaeConfig> ConfigFromString(const std::string& text);

}  // namespace tfmae::core

#endif  // TFMAE_CORE_CONFIG_IO_H_
