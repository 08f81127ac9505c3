#include "util/fault.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <mutex>

#include "util/logging.h"
#include "util/rng.h"

namespace tfmae::fault {
namespace {

struct Point {
  // Exactly one trigger is active: fire_at > 0 selects occurrence mode.
  double probability = 0.0;
  std::uint64_t fire_at = 0;  // 1-based check index; 0 = probability mode
  Rng rng{0};
  std::uint64_t checks = 0;
  std::uint64_t fires = 0;
};

struct State {
  std::mutex mu;
  std::map<std::string, Point> points;
};

// Mirrors !points.empty() (written under State::mu). ShouldInject reads it
// without the lock, so an unconfigured check costs one relaxed load: no
// mutex, no std::string key, not even the State singleton's init guard.
std::atomic<bool> g_configured{false};

State& GetState() {
  static State* state = new State();  // leaked: checked from atexit paths
  return *state;
}

// FNV-1a, to give each point an independent stream from the same seed.
std::uint64_t HashName(const std::string& name) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : name) h = (h ^ c) * 0x100000001B3ull;
  return h;
}

}  // namespace

bool TryConfigure(const std::string& spec, std::uint64_t seed,
                  std::string* error) {
  // Parse into a scratch map first: a malformed spec must leave the live
  // registry untouched (all-or-nothing, like every other config load here).
  std::map<std::string, Point> parsed;
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= entry.size()) {
      return fail("fault spec entry must be point:trigger, got '" + entry +
                  "'");
    }
    const std::string name = entry.substr(0, colon);
    const std::string trigger = entry.substr(colon + 1);
    Point point;
    point.rng = Rng(seed ^ HashName(name));
    if (trigger[0] == '#') {
      char* parse_end = nullptr;
      const unsigned long long n =
          std::strtoull(trigger.c_str() + 1, &parse_end, 10);
      if (parse_end == nullptr || parse_end == trigger.c_str() + 1 ||
          *parse_end != '\0' || n < 1) {
        return fail("bad occurrence trigger '" + trigger + "'");
      }
      point.fire_at = n;
    } else {
      char* parse_end = nullptr;
      const double p = std::strtod(trigger.c_str(), &parse_end);
      if (parse_end == nullptr || parse_end == trigger.c_str() ||
          *parse_end != '\0' || !(p >= 0.0 && p <= 1.0)) {
        return fail("bad probability trigger '" + trigger + "'");
      }
      point.probability = p;
    }
    parsed.insert_or_assign(name, std::move(point));
  }
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.points = std::move(parsed);
  g_configured.store(!state.points.empty(), std::memory_order_relaxed);
  return true;
}

void Configure(const std::string& spec, std::uint64_t seed) {
  std::string error;
  const bool ok = TryConfigure(spec, seed, &error);
  TFMAE_CHECK_MSG(ok, error);
}

void ConfigureFromEnv() {
  const char* spec = std::getenv("TFMAE_FAULTS");
  if (spec == nullptr || spec[0] == '\0') return;
  std::uint64_t seed = 1;
  if (const char* seed_env = std::getenv("TFMAE_FAULTS_SEED")) {
    // A mistyped seed must fail like a malformed spec, not run another sweep.
    char* end = nullptr;
    errno = 0;
    seed = std::strtoull(seed_env, &end, 10);
    TFMAE_CHECK_MSG(std::isdigit(static_cast<unsigned char>(seed_env[0])) &&
                        *end == '\0' && errno == 0,
                    std::string("bad TFMAE_FAULTS_SEED '") + seed_env +
                        "': expected a decimal number");
  }
  Configure(spec, seed);
  Log(LogLevel::kWarning,
      std::string("fault injection active: TFMAE_FAULTS=") + spec);
}

void Clear() {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.points.clear();
  g_configured.store(false, std::memory_order_relaxed);
}

bool ShouldInject(const char* point) {
  if (!g_configured.load(std::memory_order_relaxed)) return false;
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.points.find(point);
  if (it == state.points.end()) return false;
  Point& p = it->second;
  ++p.checks;
  bool fire = false;
  if (p.fire_at > 0) {
    fire = p.checks == p.fire_at;
  } else if (p.probability > 0.0) {
    fire = p.rng.Bernoulli(p.probability);
  }
  if (fire) ++p.fires;
  return fire;
}

std::uint64_t InjectedCount(const std::string& point) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.points.find(point);
  return it == state.points.end() ? 0 : it->second.fires;
}

std::uint64_t CheckCount(const std::string& point) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.points.find(point);
  return it == state.points.end() ? 0 : it->second.checks;
}

std::vector<std::pair<std::string, std::uint64_t>> AllCounts() {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  counts.reserve(state.points.size() * 2);
  for (const auto& [name, point] : state.points) {
    counts.emplace_back("fault.checks." + name, point.checks);
    counts.emplace_back("fault.injected." + name, point.fires);
  }
  std::sort(counts.begin(), counts.end());
  return counts;
}

}  // namespace tfmae::fault
