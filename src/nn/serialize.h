// Byte-level (de)serialization of module parameters.
//
// EncodeParameters/DecodeParameters produce and consume the "params"
// section payload that both CRC-checked containers of util/checkpoint_file.h
// carry: the detector file (TfmaeDetector::SaveCheckpoint) and the
// TrainingCheckpoint bundle (core/checkpoint.h), which stores it next to
// optimizer and RNG state. The container supplies atomic writes and
// corruption detection (docs/RESILIENCE.md).
//
// Payload layout: u64 count, then per parameter { string name, u64 numel,
// numel float32 values }. Decoding matches by name and fails (returns false)
// on any missing parameter or element-count mismatch, so payloads are
// portable only across runs of the same architecture.
#ifndef TFMAE_NN_SERIALIZE_H_
#define TFMAE_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "nn/module.h"

namespace tfmae::nn {

/// Section name under which containers store the weight payload.
inline constexpr char kParametersSection[] = "params";

/// Serializes all named parameters of `module` into a byte payload.
std::vector<char> EncodeParameters(const Module& module);

/// Restores a payload produced by EncodeParameters into `module`. Every
/// parameter of the module must be present with a matching element count;
/// returns false (module unchanged) otherwise.
bool DecodeParameters(Module* module, const std::vector<char>& payload);

}  // namespace tfmae::nn

#endif  // TFMAE_NN_SERIALIZE_H_
