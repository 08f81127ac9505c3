#include "obs/trace.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>

namespace tfmae::obs {
namespace {

bool EnvEnabled() {
  const char* v = std::getenv("TFMAE_OBS");
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "on") == 0;
}

std::chrono::steady_clock::time_point ProcessOrigin() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return origin;
}

/// Per-thread capture buffer. Owned by the global tracing state (events
/// must outlive the thread that produced them); threads hold only a
/// pointer.
struct EventBuffer {
  int thread_index = 0;
  std::size_t capacity = 0;
  std::vector<TraceEvent> events;
};

struct TracingState {
  std::mutex mu;
  std::atomic<bool> active{false};
  std::atomic<std::uint64_t> dropped{0};
  std::size_t capacity = std::size_t{1} << 16;
  /// Generation counter: bumped by ClearTraceEvents so threads drop stale
  /// buffer pointers. Atomic so that a thread can check its cached buffer
  /// without taking mu.
  std::atomic<std::uint64_t> generation{1};
  std::vector<EventBuffer*> buffers;  // creation order = thread index order
};

TracingState& Tracing() {
  static TracingState* state = new TracingState();
  return *state;
}

struct SiteState {
  std::mutex mu;
  // Keyed by name so repeated GetTraceSite("x") from different translation
  // units share one site (and one set of metric ids).
  std::unordered_map<std::string, TraceSite*> sites;
  // Autograd per-op counter ids, cached by pointer identity (op names are
  // string literals with process lifetime).
  std::unordered_map<const char*, std::pair<int, int>> autograd_ids;
};

SiteState& Sites() {
  static SiteState* state = new SiteState();
  return *state;
}

// The calling thread's buffer for the current generation. Only creating a
// buffer takes the lock; a recording thread otherwise touches no shared
// state but the generation counter.
EventBuffer* LocalEventBuffer() {
  thread_local EventBuffer* buffer = nullptr;
  thread_local std::uint64_t buffer_generation = 0;
  TracingState& tr = Tracing();
  if (buffer != nullptr &&
      buffer_generation == tr.generation.load(std::memory_order_acquire)) {
    return buffer;
  }
  std::lock_guard<std::mutex> lock(tr.mu);
  auto* b = new EventBuffer();
  b->thread_index = static_cast<int>(tr.buffers.size());
  b->capacity = tr.capacity;
  b->events.reserve(b->capacity);
  tr.buffers.push_back(b);
  buffer = b;
  buffer_generation = tr.generation.load(std::memory_order_relaxed);
  return buffer;
}

}  // namespace

namespace internal {
std::atomic<bool> g_enabled{EnvEnabled()};
}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - ProcessOrigin())
          .count());
}

TraceSite* GetTraceSite(const char* name) {
  SiteState& st = Sites();
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.sites.find(name);
  if (it != st.sites.end()) return it->second;
  auto* site = new TraceSite();  // process lifetime, like the registry
  site->name = name;
  Registry& reg = Registry::Instance();
  const std::string base(name);
  site->hist_time_ns = reg.HistogramId(base + ".time_ns");
  site->counter_calls = reg.CounterId(base + ".calls");
  site->counter_total = reg.CounterId(base + ".total_ns");
  st.sites.emplace(base, site);
  return site;
}

void ScopedTrace::Record() {
  const std::uint64_t end = NowNs();
  const std::uint64_t dur = end - start_;
  Registry& reg = Registry::Instance();
  reg.HistogramRecord(site_->hist_time_ns, dur);
  reg.CounterAdd(site_->counter_calls, 1);
  reg.CounterAdd(site_->counter_total, dur);
  TracingState& tr = Tracing();
  if (tr.active.load(std::memory_order_relaxed)) {
    EventBuffer* buffer = LocalEventBuffer();
    if (buffer->events.size() < buffer->capacity) {
      buffer->events.push_back(TraceEvent{site_, start_, dur});
    } else {
      tr.dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void AppendTraceEvent(const TraceSite* site, std::uint64_t start_ns,
                      std::uint64_t dur_ns) {
  TracingState& tr = Tracing();
  if (!tr.active.load(std::memory_order_relaxed)) return;
  EventBuffer* buffer = LocalEventBuffer();
  if (buffer->events.size() < buffer->capacity) {
    buffer->events.push_back(TraceEvent{site, start_ns, dur_ns});
  } else {
    tr.dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void AutogradRecord(const char* op, std::uint64_t self_ns) {
  int self_id;
  int calls_id;
  {
    SiteState& st = Sites();
    std::lock_guard<std::mutex> lock(st.mu);
    auto it = st.autograd_ids.find(op);
    if (it == st.autograd_ids.end()) {
      Registry& reg = Registry::Instance();
      const std::string base = std::string("autograd.") + op;
      it = st.autograd_ids
               .emplace(op, std::make_pair(reg.CounterId(base + ".self_ns"),
                                           reg.CounterId(base + ".calls")))
               .first;
    }
    self_id = it->second.first;
    calls_id = it->second.second;
  }
  Registry& reg = Registry::Instance();
  reg.CounterAdd(self_id, self_ns);
  reg.CounterAdd(calls_id, 1);
}

void StartTracing(std::size_t max_events_per_thread) {
  TracingState& tr = Tracing();
  std::lock_guard<std::mutex> lock(tr.mu);
  tr.capacity = max_events_per_thread == 0 ? 1 : max_events_per_thread;
  tr.active.store(true, std::memory_order_relaxed);
}

void StopTracing() {
  Tracing().active.store(false, std::memory_order_relaxed);
}

bool TracingActive() {
  return Tracing().active.load(std::memory_order_relaxed);
}

std::vector<std::pair<int, TraceEvent>> CollectTraceEvents() {
  TracingState& tr = Tracing();
  std::lock_guard<std::mutex> lock(tr.mu);
  std::vector<std::pair<int, TraceEvent>> out;
  for (const EventBuffer* buffer : tr.buffers) {
    for (const TraceEvent& e : buffer->events) {
      out.emplace_back(buffer->thread_index, e);
    }
  }
  return out;
}

void ClearTraceEvents() {
  TracingState& tr = Tracing();
  std::lock_guard<std::mutex> lock(tr.mu);
  // Buffers are abandoned (leaked by design, like the registry): a thread
  // mid-Record may still hold a pointer into the old generation, and the
  // few megabytes at stake do not justify a hazard scheme. New records go
  // to fresh buffers.
  tr.buffers.clear();
  tr.generation.fetch_add(1, std::memory_order_release);
  tr.dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t DroppedTraceEvents() {
  return Tracing().dropped.load(std::memory_order_relaxed);
}

}  // namespace tfmae::obs
