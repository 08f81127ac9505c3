// Deterministic fault injection — the test substrate of the resilience
// plane (docs/RESILIENCE.md).
//
// Production code marks its recoverable failure sites with
// `TFMAE_FAULT("point.name")`, which evaluates to true when that point is
// configured to fire. Every build compiles the sites in; the registry
// decides, driven entirely by an explicit seed so sweeps are reproducible.
// While nothing is configured a site costs a call, one relaxed atomic load
// and a branch.
//
// Spec grammar (TFMAE_FAULTS environment variable or Configure()):
//
//   spec    := entry ("," entry)*
//   entry   := point ":" trigger
//   trigger := probability            e.g. "io.checkpoint_write:0.05"
//            | "#" occurrence         e.g. "train.interrupt:#12"
//
// A probability trigger fires each check with the given chance, drawn from
// a per-point Rng seeded with `seed ^ hash(point)` — decisions at one point
// do not perturb another point's sequence, and equal (spec, seed) pairs
// reproduce exactly. An occurrence trigger fires on exactly the n-th check
// (1-based) of that point and never again — the precise scalpel the
// kill-and-resume tests use.
//
// Every configured point maintains `fault.injected.<point>` and
// `fault.checks.<point>` counters, surfaced through AllCounts(). The obs
// exporters merge these into every metrics dump, so injected faults are
// visible in --obs_json output alongside the recovery counters they provoke
// (util must not depend on obs, hence the pull model).
//
// Points are checked from the training loop, serialization, and the fleet
// ingest path, which producers may call concurrently. Once a spec is
// configured the registry takes a mutex per check, so those checks are
// safe, merely serialized.
#ifndef TFMAE_UTIL_FAULT_H_
#define TFMAE_UTIL_FAULT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tfmae::fault {

/// Replaces the active configuration with `spec` (see grammar above).
/// An empty spec disables all points. CHECK-fails on a malformed spec —
/// a typo'd fault plan must not silently test nothing.
void Configure(const std::string& spec, std::uint64_t seed = 1);

/// Non-aborting Configure: returns false (reason in `*error`, live registry
/// untouched — all-or-nothing) on a malformed spec. For callers that accept
/// specs from outside the process and want to report instead of abort;
/// Configure() delegates here and CHECKs the result.
bool TryConfigure(const std::string& spec, std::uint64_t seed = 1,
                  std::string* error = nullptr);

/// Configure() from the TFMAE_FAULTS / TFMAE_FAULTS_SEED environment
/// variables. Never called automatically: binaries opt in (benches, examples
/// and tfmae_serve via their flag glue, tests via ScopedFaults), so an
/// exported TFMAE_FAULTS cannot perturb processes that did not ask for it.
/// CHECK-fails on a malformed spec or a seed that is not a whole decimal
/// number, like Configure().
void ConfigureFromEnv();

/// Removes every configured point.
void Clear();

/// Decision function behind TFMAE_FAULT. Returns true when `point` is
/// configured and its trigger fires for this check. While the registry is
/// empty it returns false after one relaxed atomic load; once any point is
/// configured, every check takes the mutex and looks `point` up.
bool ShouldInject(const char* point);

/// Times `point` fired / was checked since its configuration.
std::uint64_t InjectedCount(const std::string& point);
std::uint64_t CheckCount(const std::string& point);

/// All live fault counters as ("fault.injected.<point>", n) and
/// ("fault.checks.<point>", n) pairs, sorted by name. Empty when nothing is
/// configured — the obs exporters splice this into their dumps.
std::vector<std::pair<std::string, std::uint64_t>> AllCounts();

/// RAII configuration for tests: applies (spec, seed), restores an empty
/// registry on destruction.
class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& spec, std::uint64_t seed = 1) {
    Configure(spec, seed);
  }
  ~ScopedFaults() { Clear(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

}  // namespace tfmae::fault

#define TFMAE_FAULT(point) (::tfmae::fault::ShouldInject(point))

#endif  // TFMAE_UTIL_FAULT_H_
