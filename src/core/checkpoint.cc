#include "core/checkpoint.h"

#include "util/checkpoint_file.h"
#include "util/logging.h"

namespace tfmae::core {
namespace {

constexpr char kMetaSection[] = "train.meta";
constexpr char kAdamSection[] = "train.adam";
constexpr char kWeightsSection[] = "params";

constexpr char kFilePrefix[] = "ckpt_";

std::vector<char> EncodeMeta(const TrainingCheckpoint& c) {
  util::ByteWriter w;
  w.U32(c.config_crc);
  w.I64(c.num_features);
  w.I64(c.progress.epoch);
  w.I64(c.progress.next_window);
  w.I64(c.progress.steps);
  w.F64(c.progress.loss_sum);
  w.F64(c.progress.mean_loss_first_epoch);
  w.I64Array(c.progress.order);
  for (std::uint64_t word : c.rng.s) w.U64(word);
  w.U32(c.rng.has_cached_normal ? 1 : 0);
  w.F64(c.rng.cached_normal);
  return w.Take();
}

bool DecodeMeta(const std::vector<char>& payload, TrainingCheckpoint* c) {
  util::ByteReader r(payload);
  std::uint32_t cached_flag = 0;
  bool ok = r.U32(&c->config_crc) && r.I64(&c->num_features) &&
            r.I64(&c->progress.epoch) && r.I64(&c->progress.next_window) &&
            r.I64(&c->progress.steps) && r.F64(&c->progress.loss_sum) &&
            r.F64(&c->progress.mean_loss_first_epoch) &&
            r.I64Array(&c->progress.order);
  for (std::uint64_t& word : c->rng.s) ok = ok && r.U64(&word);
  ok = ok && r.U32(&cached_flag) && r.F64(&c->rng.cached_normal) && r.AtEnd();
  c->rng.has_cached_normal = cached_flag != 0;
  return ok;
}

std::vector<char> EncodeAdam(const nn::AdamState& adam) {
  util::ByteWriter w;
  w.I64(adam.step_count);
  w.U64(adam.m.size());
  for (const auto& moment : adam.m) w.FloatArray(moment);
  w.U64(adam.v.size());
  for (const auto& moment : adam.v) w.FloatArray(moment);
  return w.Take();
}

bool DecodeAdam(const std::vector<char>& payload, nn::AdamState* adam) {
  util::ByteReader r(payload);
  std::uint64_t count = 0;
  if (!r.I64(&adam->step_count) || !r.U64(&count)) return false;
  adam->m.resize(static_cast<std::size_t>(count));
  for (auto& moment : adam->m) {
    if (!r.FloatArray(&moment)) return false;
  }
  if (!r.U64(&count)) return false;
  adam->v.resize(static_cast<std::size_t>(count));
  for (auto& moment : adam->v) {
    if (!r.FloatArray(&moment)) return false;
  }
  return r.AtEnd();
}

}  // namespace

bool SaveTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                            const std::string& path) {
  util::CheckpointFileWriter writer;
  writer.AddSection(kMetaSection, EncodeMeta(checkpoint));
  writer.AddSection(kAdamSection, EncodeAdam(checkpoint.adam));
  writer.AddSection(kWeightsSection, checkpoint.weights);
  return writer.WriteAtomic(path);
}

std::optional<TrainingCheckpoint> LoadTrainingCheckpoint(
    const std::string& path, std::string* error) {
  const auto reader = util::CheckpointFileReader::Open(path, error);
  if (!reader.has_value()) return std::nullopt;
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const std::vector<char>* meta = reader->Section(kMetaSection);
  const std::vector<char>* adam = reader->Section(kAdamSection);
  const std::vector<char>* weights = reader->Section(kWeightsSection);
  if (meta == nullptr || adam == nullptr || weights == nullptr) {
    return fail("missing checkpoint section");
  }
  TrainingCheckpoint checkpoint;
  if (!DecodeMeta(*meta, &checkpoint)) return fail("malformed meta section");
  if (!DecodeAdam(*adam, &checkpoint.adam)) {
    return fail("malformed adam section");
  }
  checkpoint.weights = *weights;
  return checkpoint;
}

std::string TrainingCheckpointPath(const std::string& dir, std::int64_t step) {
  return util::NumberedFilePath(dir, kFilePrefix, step);
}

std::optional<std::pair<std::string, TrainingCheckpoint>>
FindLatestValidCheckpoint(const std::string& dir, std::string* error) {
  std::string last_error = "no checkpoint files in " + dir;
  for (const auto& [step, path] : util::ListNumberedFiles(dir, kFilePrefix)) {
    std::string open_error;
    if (auto checkpoint = LoadTrainingCheckpoint(path, &open_error)) {
      return std::make_pair(path, std::move(*checkpoint));
    }
    Log(LogLevel::kWarning, "checkpoint " + path +
                                " rejected (" + open_error +
                                "), falling back to the previous one");
    last_error = open_error;
  }
  if (error != nullptr) *error = last_error;
  return std::nullopt;
}

void PruneTrainingCheckpoints(const std::string& dir, int keep_last) {
  util::PruneNumberedFiles(dir, kFilePrefix, keep_last);
}

}  // namespace tfmae::core
