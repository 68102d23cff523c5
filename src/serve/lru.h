#pragma once
// Bounded, thread-safe LRU keyed by 64-bit hashes. Each instance
// counts its traffic under a prefix: <prefix>.{hit,miss,store,evict}.
// lvf2d holds two (serve/handlers.h):
//
//   serve.lru          the hot-entry LRU in front of the result-cache
//                      shard files. It memoizes the entry's serialized
//                      cache document (17 digits) keyed by its
//                      content-addressed hash, so a hot hit skips the
//                      shard store's lock and a miss's Monte Carlo +
//                      EM. It does not skip the decode:
//                      lookup_cached_entry (serve/handlers.cpp)
//                      re-parses and re-decodes the string on every
//                      hit. Capacity comes from LVF2_SERVE_LRU
//                      (default kDefaultLruCapacity entries).
//   serve.yield_shift  the yield_hs proposal memo: the frozen
//                      importance-sampling mean shift per (entry,
//                      seed, threshold), so a repeat request skips the
//                      pilot search (DESIGN.md decision 28). Fixed
//                      capacity kDefaultLruCapacity.
//
// The manifest's serve section and the stats op read the counters.

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace lvf2::serve {

inline constexpr std::size_t kDefaultLruCapacity = 4096;

template <class V>
class Lru {
 public:
  explicit Lru(std::string_view counter_prefix,
               std::size_t capacity = kDefaultLruCapacity)
      : capacity_(capacity),
        hit_(prefixed(counter_prefix, ".hit")),
        miss_(prefixed(counter_prefix, ".miss")),
        store_(prefixed(counter_prefix, ".store")),
        evict_(prefixed(counter_prefix, ".evict")) {}

  /// The cached value, refreshed to most-recent; counts hit/miss.
  std::optional<V> get(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      miss_.add(1);
      return std::nullopt;
    }
    order_.splice(order_.begin(), order_, it->second);
    hit_.add(1);
    return it->second->second;
  }

  /// Inserts or refreshes `key`, evicting the least-recent entry when
  /// over capacity. A capacity of 0 disables the LRU (every get
  /// misses).
  void put(std::uint64_t key, V value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ == 0) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    store_.add(1);
    evict_down_locked();
  }

  /// Re-sizes in place (the LRU is not movable — it owns a mutex),
  /// evicting down to the new capacity.
  void set_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
    evict_down_locked();
  }

  /// Drops every entry (not counted as evictions).
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    index_.clear();
    order_.clear();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_.size();
  }
  std::size_t capacity() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
  }

 private:
  using Entry = std::pair<std::uint64_t, V>;

  static obs::Counter& prefixed(std::string_view prefix, const char* name) {
    return obs::counter(std::string(prefix) + name);
  }

  void evict_down_locked() {
    while (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      evict_.add(1);
    }
  }

  mutable std::mutex mutex_;
  std::size_t capacity_;
  obs::Counter& hit_;
  obs::Counter& miss_;
  obs::Counter& store_;
  obs::Counter& evict_;
  std::list<Entry> order_;  ///< most-recent first
  std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
      index_;
};

}  // namespace lvf2::serve
