#include "cache/cache.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#define LVF2_CACHE_HAS_FLOCK 1
#endif

#include "obs/obs.h"
#include "robust/faults.h"

namespace lvf2::cache {

namespace detail {
std::atomic<bool> g_cache_enabled{false};
}  // namespace detail

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

// Arms the singleton at static-initialization time so a cache covers
// main() end to end, mirroring LVF2_MANIFEST / LVF2_TRACE.
struct CacheEnvInit {
  CacheEnvInit() { arm_from_env(); }
} g_cache_env_init;

#if LVF2_CACHE_HAS_FLOCK

// One attempt at reading `path` whole. Returns false on a hard I/O
// failure; real EINTR and injected transient cache.read_io faults are
// absorbed in the read loop (each absorption counts cache.io_retry).
// An injected fault is "hard" on one draw in four, exercising the
// caller's backoff path too.
bool read_file_once(const std::string& path, std::string& out,
                    bool& absent) {
  out.clear();
  absent = false;
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    absent = (errno == ENOENT);
    return absent;  // missing shard is a clean empty read, not an error
  }
  char buf[1 << 16];
  for (;;) {
    if (robust::fire(robust::Fault::kCacheReadIo)) {
      const bool hard =
          robust::FaultInjector::instance().draw(robust::Fault::kCacheReadIo) %
              4 ==
          0;
      if (hard) {
        ::close(fd);
        return false;
      }
      obs::counter("cache.io_retry").add(1);
      continue;  // transient: behave like an absorbed EINTR
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        obs::counter("cache.io_retry").add(1);
        continue;
      }
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

// Reads a shard file with bounded retry + exponential backoff and
// deterministic jitter around transient I/O failures. A persistently
// unreadable shard degrades to an absent one (its entries recompute)
// with a robust.downgrade.cache_io count — the failure is surfaced,
// never silent, and never fatal.
std::string read_file(const std::string& path) {
  constexpr int kAttempts = 4;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    if (attempt > 0) {
      // 1/2/4 ms base with +-25% jitter derived from (path, attempt):
      // deterministic per call site, yet de-synchronized across the
      // shards so replica fleets do not retry in lockstep.
      const std::uint64_t h =
          std::hash<std::string>()(path) * 0x9e3779b97f4a7c15ull +
          static_cast<std::uint64_t>(attempt);
      const double jitter = 0.75 + 0.5 * static_cast<double>(h % 1024) / 1024.0;
      const double base_ms = static_cast<double>(1 << (attempt - 1));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(base_ms * jitter));
      obs::counter("cache.io_retry").add(1);
    }
    std::string out;
    bool absent = false;
    if (read_file_once(path, out, absent)) return out;
  }
  obs::counter("robust.downgrade.cache_io").add(1);
  obs::log_warn("cache.shard_io_failed", {{"path", path}});
  return {};
}

#else  // !LVF2_CACHE_HAS_FLOCK

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

#endif  // LVF2_CACHE_HAS_FLOCK

// A damaged cache file or entry degrades to recompute; both counters
// exist so the robustness layer and the cache stats agree on it.
void count_corrupt(std::uint64_t n = 1) {
  obs::counter("robust.downgrade.cache_corrupt").add(n);
  obs::counter("cache.evict").add(n);
}

// The manifest "cache" section from the live counters + the armed
// singleton's load state. Registered as a manifest section provider
// while the cache is armed.
obs::JsonValue manifest_section() {
  ResultCache& c = ResultCache::instance();
  const auto count = [](const char* name) {
    return obs::json_u64(obs::counter(name).value());
  };
  return obs::json_object(
      {{"dir", obs::json_string(c.dir())},
       {"mode", obs::json_string(to_string(c.mode()))},
       {"hit", count("cache.hit")},
       {"miss", count("cache.miss")},
       {"store", count("cache.store")},
       {"evict", count("cache.evict")},
       {"loaded", obs::json_u64(c.loaded_entries())},
       {"entries", obs::json_u64(c.size())}});
}

}  // namespace

void KeyHasher::feed_bytes(const void* data, std::size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= kFnvPrime;
  }
}

void KeyHasher::feed(std::string_view s) {
  feed(static_cast<std::uint64_t>(s.size()));
  feed_bytes(s.data(), s.size());
}

void KeyHasher::feed(std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  feed_bytes(bytes, sizeof(bytes));
}

void KeyHasher::feed(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  feed(bits);
}

void KeyHasher::feed(bool v) { feed(static_cast<std::uint64_t>(v ? 1 : 2)); }

Mode parse_mode(const char* text) {
  if (text == nullptr || text[0] == '\0') return Mode::kReadWrite;
  const std::string_view s(text);
  if (s == "rw" || s == "readwrite") return Mode::kReadWrite;
  if (s == "readonly" || s == "ro") return Mode::kReadOnly;
  if (s == "refresh") return Mode::kRefresh;
  obs::log_warn("cache.bad_mode", {{"value", std::string(s)}});
  return Mode::kReadWrite;
}

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kReadWrite: return "rw";
    case Mode::kReadOnly: return "readonly";
    case Mode::kRefresh: return "refresh";
  }
  return "off";
}

ResultCache::~ResultCache() {
  // Offline instances flush themselves; the armed singleton is leaked
  // and flushed by its atexit hook instead.
  flush();
}

ResultCache& ResultCache::instance() {
  static ResultCache* cache = new ResultCache();  // leaked
  return *cache;
}

std::string ResultCache::shard_file_name(std::size_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%02zu.json", shard);
  return buf;
}

std::string ResultCache::format_key(std::uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

std::optional<std::uint64_t> ResultCache::parse_key(std::string_view hex) {
  if (hex.size() != 16) return std::nullopt;
  std::uint64_t key = 0;
  for (char c : hex) {
    key <<= 4;
    if (c >= '0' && c <= '9') {
      key |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      key |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return key;
}

void ResultCache::arm(const std::string& dir, Mode mode) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (armed_) return;
    armed_ = true;
    mode_ = mode;
    dir_ = dir;
#if LVF2_CACHE_HAS_FLOCK
    ::mkdir(dir.c_str(), 0755);  // single level; EEXIST is fine
#endif
    load_locked();
  }
  if (this == &instance()) {
    detail::g_cache_enabled.store(true, std::memory_order_relaxed);
    obs::ManifestRecorder::instance().set_section_provider(
        "cache", manifest_section);
  }
  obs::log_info("cache.armed", {{"dir", dir},
                                {"mode", to_string(mode)},
                                {"loaded", loaded_entries()}});
}

void ResultCache::disarm() {
  flush();
  if (this == &instance()) {
    detail::g_cache_enabled.store(false, std::memory_order_relaxed);
    obs::ManifestRecorder::instance().clear_section_provider("cache");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = false;
  mode_ = Mode::kOff;
  dir_.clear();
  entries_.clear();
  erased_.clear();
  std::fill(std::begin(dirty_), std::end(dirty_), false);
  loaded_ = 0;
  load_failures_ = 0;
}

bool ResultCache::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return armed_;
}

Mode ResultCache::mode() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return mode_;
}

std::string ResultCache::dir() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dir_;
}

std::optional<obs::JsonValue> ResultCache::lookup(std::uint64_t key) {
  std::string serialized;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_ || mode_ == Mode::kRefresh) return std::nullopt;
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    serialized = it->second;
  }
  std::string error;
  std::optional<obs::JsonValue> doc = obs::json_parse(serialized, &error);
  if (!doc.has_value()) {
    // The stored bytes rotted (should be unreachable — entries are
    // validated at load); evict so the next run recomputes cleanly.
    // erase() counts the evict, so only the downgrade is counted here.
    obs::counter("robust.downgrade.cache_corrupt").add(1);
    erase(key);
    obs::log_warn("cache.entry_corrupt",
                  {{"key", format_key(key)}, {"error", error}});
    return std::nullopt;
  }
  return doc;
}

void ResultCache::store(std::uint64_t key, const obs::JsonValue& value) {
  // Full-precision serialization: cached doubles must round-trip
  // bitwise so a warm run renders byte-identical manifests.
  const std::string serialized =
      obs::json_write(value, obs::JsonWriteOptions{17});
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_ || mode_ == Mode::kReadOnly) return;
    entries_[key] = serialized;
    erased_.erase(key);
    dirty_[shard_of(key)] = true;
  }
  obs::counter("cache.store").add(1);
}

bool ResultCache::erase(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const bool existed = entries_.erase(key) > 0;
  if (existed) {
    erased_.insert(key);  // suppress the on-disk copy at flush time
    dirty_[shard_of(key)] = true;
    obs::counter("cache.evict").add(1);
  }
  return existed;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t ResultCache::loaded_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loaded_;
}

std::uint64_t ResultCache::load_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return load_failures_;
}

void ResultCache::for_each_entry(
    const std::function<void(std::uint64_t, const std::string&)>& fn) const {
  // Snapshot under the lock, call back outside it.
  std::vector<std::pair<std::uint64_t, std::string>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.assign(entries_.begin(), entries_.end());
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, value] : snapshot) fn(key, value);
}

void ResultCache::load_locked() {
  for (std::size_t shard = 0; shard < kShardCount; ++shard) {
    load_shard_file(dir_ + "/" + shard_file_name(shard));
  }
  loaded_ = entries_.size();
}

void ResultCache::load_shard_file(const std::string& path) {
  const std::string text = read_file(path);
  if (text.empty()) return;  // absent or empty shard: nothing to load
  std::string error;
  const std::optional<obs::JsonValue> doc = obs::json_parse(text, &error);
  const obs::JsonValue* entries =
      doc.has_value() ? doc->find("entries") : nullptr;
  if (!doc.has_value() || !doc->is_object() || entries == nullptr ||
      !entries->is_object() ||
      doc->number_or("schema_version", 0.0) != kShardSchemaVersion) {
    // A truncated / corrupted / foreign shard file degrades to an
    // empty shard: every entry it held recomputes on the next run.
    ++load_failures_;
    count_corrupt();
    obs::log_warn("cache.shard_corrupt", {{"path", path}, {"error", error}});
    return;
  }
  for (const auto& [hex, value] : entries->object) {
    const std::optional<std::uint64_t> key = parse_key(hex);
    if (!key.has_value() || !value.is_object()) {
      count_corrupt();
      obs::log_warn("cache.entry_corrupt", {{"path", path}, {"key", hex}});
      continue;
    }
    entries_[*key] = obs::json_write(value, obs::JsonWriteOptions{17});
  }
}

bool ResultCache::flush_shard_locked(std::size_t shard) {
  const std::string path = dir_ + "/" + shard_file_name(shard);

#if LVF2_CACHE_HAS_FLOCK
  // Per-shard advisory lock: concurrent populating processes merge
  // their entries instead of clobbering each other.
  const std::string lock_path = path + ".lock";
  int lock_fd = -1;
  do {
    lock_fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
  } while (lock_fd < 0 && errno == EINTR);
  if (lock_fd >= 0) {
    // A signal-interrupted flock must be retried, not abandoned: an
    // unlocked merge would let two writers clobber each other.
    while (::flock(lock_fd, LOCK_EX) != 0) {
      if (errno != EINTR) break;
      obs::counter("cache.io_retry").add(1);
    }
  }
#endif

  // Merge: start from what is on disk now (another process may have
  // flushed since we loaded), overlay our entries (content-addressed
  // values are identical for identical keys, so "ours win" is safe).
  // Keys this process erased are tombstoned and stay deleted instead
  // of being resurrected from the on-disk copy (gc depends on this).
  std::vector<std::pair<std::uint64_t, std::string>> merged;
  {
    ResultCache disk;  // scratch holder for the on-disk shard
    disk.load_shard_file(path);
    for (auto& [key, value] : disk.entries_) {
      if (entries_.find(key) == entries_.end() &&
          erased_.find(key) == erased_.end()) {
        merged.emplace_back(key, std::move(value));
      }
    }
  }
  for (const auto& [key, value] : entries_) {
    if (shard_of(key) == shard) merged.emplace_back(key, value);
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string out = "{\"schema_version\":";
  out += std::to_string(kShardSchemaVersion);
  out += ",\"entries\":{";
  bool first = true;
  for (const auto& [key, value] : merged) {
    if (shard_of(key) != shard) continue;
    if (!first) out += ',';
    first = false;
    obs::json_append_string(out, format_key(key));
    out += ':';
    out += value;
  }
  out += "}}\n";
  const bool ok = obs::write_file_atomic(path, out);

#if LVF2_CACHE_HAS_FLOCK
  if (lock_fd >= 0) {
    ::flock(lock_fd, LOCK_UN);
    ::close(lock_fd);
  }
#endif
  return ok;
}

void ResultCache::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!armed_) return;
  for (std::size_t shard = 0; shard < kShardCount; ++shard) {
    if (!dirty_[shard]) continue;
    if (flush_shard_locked(shard)) {
      dirty_[shard] = false;
      // The deletions are on disk; the tombstones have done their job.
      std::erase_if(erased_,
                    [shard](std::uint64_t key) { return shard_of(key) == shard; });
    }
  }
}

void arm_from_env() {
  const char* dir = std::getenv("LVF2_CACHE");
  if (dir == nullptr || dir[0] == '\0') return;
  ResultCache& cache = ResultCache::instance();
  if (cache.armed()) return;
  cache.arm(dir, parse_mode(std::getenv("LVF2_CACHE_MODE")));
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit([] { ResultCache::instance().flush(); });
  }
}

}  // namespace lvf2::cache
