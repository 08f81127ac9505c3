#include "nn/serialize.h"

#include <cstring>
#include <map>

#include "util/checkpoint_file.h"

namespace tfmae::nn {

std::vector<char> EncodeParameters(const Module& module) {
  util::ByteWriter writer;
  const auto named = module.NamedParameters();
  writer.U64(named.size());
  for (const auto& [name, tensor] : named) {
    writer.String(name);
    writer.U64(static_cast<std::uint64_t>(tensor.numel()));
    writer.Raw(tensor.data(),
               static_cast<std::size_t>(tensor.numel()) * sizeof(float));
  }
  return writer.Take();
}

bool DecodeParameters(Module* module, const std::vector<char>& payload) {
  util::ByteReader reader(payload);
  std::uint64_t count = 0;
  if (!reader.U64(&count)) return false;

  // Stage everything first so a mismatch part-way through cannot leave the
  // module half-overwritten.
  std::map<std::string, std::vector<float>> loaded;
  for (std::uint64_t i = 0; i < count; ++i) {
    // { u64 numel, floats } is FloatArray's layout, which bounds numel by
    // the bytes left before it allocates.
    std::string name;
    std::vector<float> values;
    if (!reader.String(&name) || !reader.FloatArray(&values)) return false;
    loaded.emplace(std::move(name), std::move(values));
  }
  if (!reader.AtEnd()) return false;

  const auto named = module->NamedParameters();
  for (const auto& [name, tensor] : named) {
    auto it = loaded.find(name);
    if (it == loaded.end() ||
        static_cast<std::int64_t>(it->second.size()) != tensor.numel()) {
      return false;
    }
  }
  for (auto& [name, tensor] : module->NamedParameters()) {
    const auto& values = loaded.at(name);
    std::memcpy(tensor.data(), values.data(), values.size() * sizeof(float));
  }
  return true;
}

}  // namespace tfmae::nn
