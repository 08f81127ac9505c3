// Process-lifetime memo of immutable tables keyed by a length.
//
// The FFT and the frequency mask derive constants from nothing but a
// transform length: Bluestein's chirp and filter spectrum, the ones-kernel
// spectrum of a moving sum, the per-bin cos/sin coefficient table. These
// are built once per key on first use and read by every thread after that.
#ifndef TFMAE_UTIL_LENGTH_CACHE_H_
#define TFMAE_UTIL_LENGTH_CACHE_H_

#include <atomic>
#include <cstdint>

namespace tfmae {

/// Get(key, build) returns the value built for `key`, calling build() on
/// the first request. Lookups take no lock: an acquire load of the list
/// head and a walk over the few keys a process uses. Entries are never
/// modified or freed, so a returned reference stays valid for the life of
/// the process. Two threads that miss the same key at once may both build;
/// the first insert wins and the other copy is discarded, which is
/// harmless because builds are deterministic.
template <typename Value>
class LengthCache {
 public:
  template <typename Build>
  const Value& Get(std::int64_t key, Build&& build) {
    Node* seen = head_.load(std::memory_order_acquire);
    if (const Value* hit = Find(seen, nullptr, key)) return *hit;
    auto* node = new Node{key, build(), seen};
    while (!head_.compare_exchange_weak(node->next, node,
                                        std::memory_order_release,
                                        std::memory_order_acquire)) {
      // node->next is now the current head: look only at what other
      // threads pushed since `seen`.
      if (const Value* hit = Find(node->next, seen, key)) {
        delete node;
        return *hit;
      }
      seen = node->next;
    }
    return node->value;
  }

 private:
  struct Node {
    std::int64_t key;
    Value value;
    Node* next;
  };

  static const Value* Find(const Node* from, const Node* until,
                           std::int64_t key) {
    for (; from != until; from = from->next) {
      if (from->key == key) return &from->value;
    }
    return nullptr;
  }

  std::atomic<Node*> head_{nullptr};
};

}  // namespace tfmae

#endif  // TFMAE_UTIL_LENGTH_CACHE_H_
