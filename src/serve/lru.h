#pragma once
// In-memory hot-entry LRU in front of the result-cache shard files.
// The LRU memoizes the entry's serialized cache document (17 digits)
// keyed by its content-addressed hash, so a hot hit skips the shard
// store's lock and a miss's Monte Carlo + EM. It does not skip the
// decode: lookup_cached_entry (serve/handlers.cpp) re-parses and
// re-decodes the string on every hit, which is a mutex + string copy
// + json_parse + decode_cached_entry. Capacity comes from LVF2_SERVE_LRU
// (default 4096 entries); serve.lru.{hit,miss,store,evict} count the
// traffic for the manifest's serve section.

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace lvf2::serve {

inline constexpr std::size_t kDefaultLruCapacity = 4096;

/// Thread-safe LRU of serialized JSON values keyed by 64-bit hashes.
class HotLru {
 public:
  explicit HotLru(std::size_t capacity = kDefaultLruCapacity);

  /// The cached value, refreshed to most-recent; counts hit/miss.
  std::optional<std::string> get(std::uint64_t key);

  /// Inserts or refreshes `key`, evicting the least-recent entry when
  /// over capacity. A capacity of 0 disables the LRU (every get
  /// misses).
  void put(std::uint64_t key, std::string value);

  /// Re-sizes in place (the LRU is not movable — it owns a mutex),
  /// evicting down to the new capacity.
  void set_capacity(std::size_t capacity);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<std::uint64_t, std::string>;

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> order_;  ///< most-recent first
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace lvf2::serve
