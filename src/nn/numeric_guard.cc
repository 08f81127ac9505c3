#include "nn/numeric_guard.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace tfmae::nn {

namespace {

// True when no gradient element is a NaN or an Inf: one pass of exponent
// tests that vectorizes, where GlobalGradNorm's double sum does not. A sum
// of squares of finite floats cannot overflow a double, so this is the
// verdict of std::isfinite(GlobalGradNorm(parameters)).
bool GradsFinite(const std::vector<Tensor>& parameters) {
  constexpr std::uint32_t kExponent = 0x7f800000u;
  for (const Tensor& p : parameters) {
    const float* g = p.grad_data();
    if (g == nullptr) continue;
    const std::int64_t n = p.numel();
    std::uint32_t nonfinite = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      nonfinite |= (std::bit_cast<std::uint32_t>(g[i]) & kExponent) ==
                   kExponent;
    }
    if (nonfinite != 0) return false;
  }
  return true;
}

}  // namespace

double GlobalGradNorm(const std::vector<Tensor>& parameters) {
  double sq = 0.0;
  for (const Tensor& p : parameters) {
    const float* g = p.grad_data();
    if (g == nullptr) continue;
    const std::int64_t n = p.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      if (!std::isfinite(g[i])) return std::nan("");
      sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
    }
  }
  return std::sqrt(sq);
}

NumericGuard::NumericGuard(Adam* optimizer, NumericGuardOptions options)
    : optimizer_(optimizer), options_(options) {
  TFMAE_CHECK(optimizer != nullptr);
  // Register the counters up front so a healthy run's dump shows them at 0
  // (absent keys would read as "not monitored", not "no incidents").
  TFMAE_COUNTER_ADD("train.numeric.nonfinite_loss", 0);
  TFMAE_COUNTER_ADD("train.numeric.nonfinite_grad", 0);
  TFMAE_COUNTER_ADD("train.numeric.skipped_steps", 0);
  TFMAE_COUNTER_ADD("train.numeric.lr_backoffs", 0);
  TFMAE_COUNTER_ADD("train.numeric.restores", 0);
  if (options_.enabled) Snapshot();
}

bool NumericGuard::PreStep(float loss_value) {
  if (!options_.enabled) return true;
  if (gave_up_) return false;
  TFMAE_TRACE("train.numeric.guard");

  bool healthy = true;
  const char* trip_kind = nullptr;
  if (!std::isfinite(loss_value)) {
    ++stats_.nonfinite_loss;
    TFMAE_COUNTER_ADD("train.numeric.nonfinite_loss", 1);
    trip_kind = "nonfinite_loss";
    healthy = false;
  }
  if (healthy && !GradsFinite(optimizer_->parameters())) {
    ++stats_.nonfinite_grad;
    TFMAE_COUNTER_ADD("train.numeric.nonfinite_grad", 1);
    trip_kind = "nonfinite_grad";
    healthy = false;
  }
  if (healthy) {
    consecutive_skips_ = 0;
    return true;
  }

  ++stats_.skipped_steps;
  TFMAE_COUNTER_ADD("train.numeric.skipped_steps", 1);
  Restore();
  const float backed_off =
      optimizer_->options().learning_rate * options_.lr_backoff;
  if (backed_off >= options_.lr_min) {
    optimizer_->set_learning_rate(backed_off);
    ++stats_.lr_backoffs;
    TFMAE_COUNTER_ADD("train.numeric.lr_backoffs", 1);
  }
  if (obs::LedgerActive()) {
    obs::Ledger::Instance().GuardTrip(
        committed_steps_, trip_kind, loss_value,
        static_cast<double>(optimizer_->options().learning_rate));
  }
  if (obs::FlightRecorderActive()) {
    obs::FlightRecorder::Instance().Note(
        "guard", std::string(trip_kind) + " at committed step " +
                     std::to_string(committed_steps_));
  }
  if (++consecutive_skips_ > options_.max_consecutive_skips) {
    gave_up_ = true;
    if (obs::LedgerActive()) {
      obs::Ledger::Instance().GuardGiveUp(committed_steps_,
                                          consecutive_skips_);
    }
    if (obs::FlightRecorderActive()) {
      obs::FlightRecorder::Instance().Note(
          "guard", "give_up after " + std::to_string(consecutive_skips_) +
                       " consecutive skips");
    }
    Log(LogLevel::kError,
        "numeric guard: " + std::to_string(consecutive_skips_) +
            " consecutive blown steps — giving up; model left at the last "
            "good snapshot");
  } else {
    Log(LogLevel::kWarning,
        "numeric guard: blown step skipped (lr now " +
            std::to_string(optimizer_->options().learning_rate) + ")");
  }
  return false;
}

void NumericGuard::CommitGoodStep() {
  ++committed_steps_;
  if (!options_.enabled) return;
  Snapshot();
}

void NumericGuard::Snapshot() {
  const std::vector<Tensor>& parameters = optimizer_->parameters();
  weight_snapshot_.resize(parameters.size());
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    const Tensor& p = parameters[i];
    weight_snapshot_[i].resize(static_cast<std::size_t>(p.numel()));
    std::memcpy(weight_snapshot_[i].data(), p.data(),
                weight_snapshot_[i].size() * sizeof(float));
  }
  optimizer_->ExportState(&adam_snapshot_);
}

void NumericGuard::Restore() {
  ++stats_.restores;
  TFMAE_COUNTER_ADD("train.numeric.restores", 1);
  const std::vector<Tensor>& parameters = optimizer_->parameters();
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    Tensor p = parameters[i];  // handle copy; shares the underlying buffer
    std::memcpy(p.data(), weight_snapshot_[i].data(),
                weight_snapshot_[i].size() * sizeof(float));
  }
  TFMAE_CHECK(optimizer_->ImportState(adam_snapshot_));
}

}  // namespace tfmae::nn
