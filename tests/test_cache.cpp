// Tests of the content-addressed result cache: the generic sharded
// store (cache::ResultCache), the characterization glue (key
// sensitivity, cold/warm byte-identical manifests, corruption
// degradation, cache modes), the concurrent-populate path, and the
// lvf2_cache CLI. Tests that arm the process singleton disarm it
// before returning; counters are asserted as deltas because the
// metrics registry is process-wide.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "cache_tool.h"
#include "cells/characterize.h"
#include "cells/characterize_cache.h"
#include "exec/pool.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "report.h"

namespace lvf2 {
namespace {

// A fresh cache directory under the gtest temp dir: removes any shard
// and lock files a previous run of the same test left behind.
std::string fresh_cache_dir(const char* name) {
  const std::string dir = testing::TempDir() + name;
  for (std::size_t s = 0; s < cache::ResultCache::kShardCount; ++s) {
    const std::string path =
        dir + "/" + cache::ResultCache::shard_file_name(s);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
  }
  return dir;
}

obs::JsonValue small_doc(double x) {
  obs::JsonValue doc;
  doc.type = obs::JsonValue::Type::kObject;
  obs::JsonValue num;
  num.type = obs::JsonValue::Type::kNumber;
  num.number = x;
  doc.object.emplace_back("x", num);
  return doc;
}

// 2x2-grid, small-sample characterization setup shared by the
// characterize-level cache tests.
struct SmallSetup {
  cells::CharacterizeOptions options;
  spice::ProcessCorner corner = spice::ProcessCorner::tt_global_local_mc();
  cells::Cell cell = cells::build_cell(cells::CellFamily::kInv, 1, 1.0);

  SmallSetup() {
    options.grid = cells::SlewLoadGrid::reduced(4);
    options.mc_samples = 600;
  }

  cells::Characterizer characterizer() const {
    return cells::Characterizer(corner, options);
  }
  const cells::TimingArc& arc() const { return cell.arcs[0]; }
  std::string label() const { return cell.arcs[0].label(); }
  std::uint64_t key(std::size_t load_idx, std::size_t slew_idx) const {
    return cells::entry_cache_key(corner, options, cell, cell.arcs[0],
                                  label(), load_idx, slew_idx);
  }
};

// Arms the singleton on a fresh dir (disarming whatever the
// environment may have armed first) and disarms on scope exit.
class ScopedSingletonCache {
 public:
  ScopedSingletonCache(const std::string& dir, cache::Mode mode) {
    cache::ResultCache::instance().disarm();
    cache::ResultCache::instance().arm(dir, mode);
  }
  ~ScopedSingletonCache() { cache::ResultCache::instance().disarm(); }
};

TEST(CacheStore, DisabledByDefaultWhenEnvUnset) {
  if (std::getenv("LVF2_CACHE") != nullptr) {
    GTEST_SKIP() << "LVF2_CACHE is set in this environment";
  }
  EXPECT_FALSE(cache::enabled());
  EXPECT_FALSE(cache::ResultCache::instance().armed());
}

TEST(CacheStore, KeyHasherSeparatesAdjacentFields) {
  // Length-prefixed strings: ("ab","c") must not alias ("a","bc").
  cache::KeyHasher h1;
  h1.feed(std::string_view("ab"));
  h1.feed(std::string_view("c"));
  cache::KeyHasher h2;
  h2.feed(std::string_view("a"));
  h2.feed(std::string_view("bc"));
  EXPECT_NE(h1.digest(), h2.digest());

  // Identical feeds digest identically.
  cache::KeyHasher h3;
  h3.feed(std::string_view("ab"));
  h3.feed(std::string_view("c"));
  EXPECT_EQ(h1.digest(), h3.digest());

  // false encodes as 2, so a cleared flag never aliases a zero count.
  cache::KeyHasher hb;
  hb.feed(false);
  cache::KeyHasher hu;
  hu.feed(std::uint64_t{0});
  EXPECT_NE(hb.digest(), hu.digest());
  cache::KeyHasher ht;
  ht.feed(true);
  EXPECT_NE(ht.digest(), hb.digest());

  // -0.0 and +0.0 have different bit patterns, hence different keys.
  cache::KeyHasher hz1;
  hz1.feed(0.0);
  cache::KeyHasher hz2;
  hz2.feed(-0.0);
  EXPECT_NE(hz1.digest(), hz2.digest());
}

TEST(CacheStore, ModeParsing) {
  EXPECT_EQ(cache::parse_mode(nullptr), cache::Mode::kReadWrite);
  EXPECT_EQ(cache::parse_mode(""), cache::Mode::kReadWrite);
  EXPECT_EQ(cache::parse_mode("rw"), cache::Mode::kReadWrite);
  EXPECT_EQ(cache::parse_mode("readonly"), cache::Mode::kReadOnly);
  EXPECT_EQ(cache::parse_mode("ro"), cache::Mode::kReadOnly);
  EXPECT_EQ(cache::parse_mode("refresh"), cache::Mode::kRefresh);
  EXPECT_EQ(cache::parse_mode("bogus"), cache::Mode::kReadWrite);
  EXPECT_STREQ(cache::to_string(cache::Mode::kRefresh), "refresh");
}

TEST(CacheStore, KeyFormatRoundTrip) {
  for (const std::uint64_t key :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeefcafef00d},
        std::uint64_t{0xffffffffffffffff}}) {
    const std::string hex = cache::ResultCache::format_key(key);
    EXPECT_EQ(hex.size(), 16u);
    const auto back = cache::ResultCache::parse_key(hex);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, key);
  }
  EXPECT_FALSE(cache::ResultCache::parse_key("123").has_value());
  EXPECT_FALSE(
      cache::ResultCache::parse_key("zzzzzzzzzzzzzzzz").has_value());
}

TEST(CacheStore, PersistsAcrossInstancesInShardedFiles) {
  const std::string dir = fresh_cache_dir("lvf2_cache_persist");
  // Keys with different top nibbles land in different shards.
  const std::uint64_t key_a = 0x0123456789abcdefull;
  const std::uint64_t key_b = 0xf123456789abcdefull;
  EXPECT_NE(cache::ResultCache::shard_of(key_a),
            cache::ResultCache::shard_of(key_b));
  {
    cache::ResultCache store;
    store.arm(dir, cache::Mode::kReadWrite);
    store.store(key_a, small_doc(1.5));
    store.store(key_b, small_doc(0.1 + 0.2));  // not exactly 0.3
    store.flush();
    EXPECT_EQ(store.size(), 2u);
  }
  cache::ResultCache reloaded;
  reloaded.arm(dir, cache::Mode::kReadOnly);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.loaded_entries(), 2u);
  const auto a = reloaded.lookup(key_a);
  const auto b = reloaded.lookup(key_b);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->number_or("x", 0.0), 1.5);
  // Full-precision round trip: bitwise, not approximately.
  EXPECT_EQ(b->number_or("x", 0.0), 0.1 + 0.2);
  EXPECT_FALSE(reloaded.lookup(0x7777777777777777ull).has_value());
  reloaded.disarm();
}

TEST(CacheStore, CorruptShardFileDegradesToEmptyShard) {
  const std::string dir = fresh_cache_dir("lvf2_cache_corrupt_shard");
  {
    cache::ResultCache store;
    store.arm(dir, cache::Mode::kReadWrite);
    store.store(0x0000000000000001ull, small_doc(1.0));
    store.flush();
  }
  // Truncate shard 0 mid-document.
  {
    std::ofstream out(dir + "/" + cache::ResultCache::shard_file_name(0),
                      std::ios::trunc);
    out << "{\"schema_version\":1,\"entries\":{\"00000000000";
  }
  const std::uint64_t corrupt_before =
      obs::counter("robust.downgrade.cache_corrupt").value();
  cache::ResultCache store;
  store.arm(dir, cache::Mode::kReadWrite);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.load_failures(), 1u);
  EXPECT_GE(obs::counter("robust.downgrade.cache_corrupt").value(),
            corrupt_before + 1);
  // The store still works; a flush heals the shard file.
  store.store(0x0000000000000002ull, small_doc(2.0));
  store.flush();
  cache::ResultCache healed;
  healed.arm(dir, cache::Mode::kReadOnly);
  EXPECT_EQ(healed.size(), 1u);
  EXPECT_EQ(healed.load_failures(), 0u);
  healed.disarm();
  store.disarm();
}

TEST(CacheStore, ConcurrentStoreAndLookupFromFourThreads) {
  const std::string dir = fresh_cache_dir("lvf2_cache_threads");
  cache::ResultCache store;
  store.arm(dir, cache::Mode::kReadWrite);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 64;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        // Spread keys over every shard (top nibble varies with i).
        const std::uint64_t key = (static_cast<std::uint64_t>(i) << 60) |
                                  (t * kPerThread + i);
        store.store(key, small_doc(static_cast<double>(i)));
        const auto back = store.lookup(key);
        EXPECT_TRUE(back.has_value());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(store.size(), kThreads * kPerThread);
  store.flush();
  cache::ResultCache reloaded;
  reloaded.arm(dir, cache::Mode::kReadOnly);
  EXPECT_EQ(reloaded.size(), kThreads * kPerThread);
  reloaded.disarm();
  store.disarm();
}

TEST(CacheCharacterize, KeyChangesWhenAnySingleInputChanges) {
  const SmallSetup base;
  std::set<std::uint64_t> keys;
  keys.insert(base.key(0, 0));
  // Grid position.
  keys.insert(base.key(1, 0));
  keys.insert(base.key(0, 1));
  // Every single scalar knob must flip the key.
  {
    SmallSetup s;
    s.options.mc_samples += 1;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.options.use_lhs = !s.options.use_lhs;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.options.seed_base += 1;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.options.fit.seed += 1;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.options.fit.likelihood_bins += 1;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.options.fit.em_max_iterations += 1;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.options.fit.em_tolerance *= 2.0;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.options.grid.slews_ns[0] *= 1.01;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.options.grid.loads_pf[0] *= 1.01;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.corner.vdd += 0.01;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.corner.sigma_vth_n *= 1.1;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.corner.temp_c += 10.0;
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.cell = cells::build_cell(cells::CellFamily::kInv, 1, 2.0);
    keys.insert(s.key(0, 0));
  }
  {
    SmallSetup s;
    s.cell = cells::build_cell(cells::CellFamily::kNand, 2, 1.0);
    keys.insert(s.key(0, 0));
  }
  // 16 variants + baseline: every one distinct.
  EXPECT_EQ(keys.size(), 17u);
}

TEST(CacheCharacterize, ColdWarmManifestsAreByteIdentical) {
  const std::string dir = fresh_cache_dir("lvf2_cache_coldwarm");
  const std::string cold_path = testing::TempDir() + "lvf2_cold.json";
  const std::string warm_path = testing::TempDir() + "lvf2_warm.json";
  ScopedSingletonCache armed(dir, cache::Mode::kReadWrite);

  const SmallSetup setup;
  const cells::Characterizer ch = setup.characterizer();

  obs::ManifestRecorder::instance().start(cold_path);
  ch.characterize_arc(setup.cell, setup.arc());
  obs::ManifestRecorder::instance().stop();

  const std::uint64_t hits_before = obs::counter("cache.hit").value();
  const std::uint64_t misses_before = obs::counter("cache.miss").value();

  obs::ManifestRecorder::instance().start(warm_path);
  ch.characterize_arc(setup.cell, setup.arc());
  obs::ManifestRecorder::instance().stop();

  // Every one of the 2x2 entries hit; nothing recomputed.
  EXPECT_EQ(obs::counter("cache.hit").value(), hits_before + 4);
  EXPECT_EQ(obs::counter("cache.miss").value(), misses_before);

  std::string error;
  const auto cold = tools::load_manifest(cold_path, &error);
  ASSERT_TRUE(cold.has_value()) << error;
  const auto warm = tools::load_manifest(warm_path, &error);
  ASSERT_TRUE(warm.has_value()) << error;
  std::remove(cold_path.c_str());
  std::remove(warm_path.c_str());

  // The replayed QoR rows render byte-identical to the cold run's.
  EXPECT_EQ(obs::json_write(tools::canonicalize(*cold)),
            obs::json_write(tools::canonicalize(*warm)));
  const tools::DiffResult diff = tools::diff_manifests(
      *cold, *warm, tools::DiffOptions{0.0, 0.0, {}});
  EXPECT_TRUE(diff.ok()) << diff.regressions.front();

  // Both manifests carry the cache section (appended after the fixed
  // schema keys, so the documented key order is unchanged).
  const obs::JsonValue* section = warm->find("cache");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->string_or("mode", ""), "rw");
  EXPECT_EQ(section->number_or("entries", 0.0), 4.0);
}

TEST(CacheCharacterize, CorruptedEntryDegradesToRecompute) {
  const std::string dir = fresh_cache_dir("lvf2_cache_corrupt_entry");
  ScopedSingletonCache armed(dir, cache::Mode::kReadWrite);
  const SmallSetup setup;
  const std::uint64_t key = setup.key(0, 0);

  // Valid JSON, not a valid entry: decodes to nullopt, must degrade.
  cache::ResultCache::instance().store(key, small_doc(42.0));

  const std::uint64_t decode_before =
      obs::counter("robust.downgrade.cache_decode").value();
  const std::uint64_t misses_before = obs::counter("cache.miss").value();
  const cells::ConditionCharacterization cc =
      setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                               setup.label(), 0, 0);
  EXPECT_TRUE(cc.status.is_ok());
  EXPECT_GT(cc.lvf_delay.stddev, 0.0);
  EXPECT_EQ(obs::counter("robust.downgrade.cache_decode").value(),
            decode_before + 1);
  EXPECT_EQ(obs::counter("cache.miss").value(), misses_before + 1);

  // The bogus entry was replaced by the recomputed one.
  const auto healed = cache::ResultCache::instance().lookup(key);
  ASSERT_TRUE(healed.has_value());
  EXPECT_TRUE(cells::decode_cached_entry(*healed).has_value());
}

// An entry stored under salt 3, by the builds before the accelerated
// EM changed every LVF^2 fit, is never served: the current key misses,
// the entry is recomputed, and the old one stays where it was for
// `lvf2_cache gc` to collect.
TEST(CacheCharacterize, EntryStoredUnderPreviousSaltMisses) {
  const SmallSetup setup;
  cache::ResultCache::instance().disarm();
  cells::ConditionCharacterization stale =
      setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                               setup.label(), 0, 0);
  stale.lvf2_delay.lambda = 0.25;  // a marker only the old entry has
  ScopedSingletonCache armed(fresh_cache_dir("lvf2_cache_old_salt"),
                             cache::Mode::kReadWrite);
  obs::JsonValue doc = cells::encode_cached_entry(
      setup.corner, setup.options, setup.cell, setup.label(), 0, 0, stale,
      nullptr);
  const std::uint64_t old_salt = 3;
  ASSERT_EQ(doc.object.front().first, "salt");
  doc.object.front().second.string = std::to_string(old_salt);
  const std::uint64_t old_key = cells::entry_cache_key(
      setup.corner, setup.options, setup.cell, setup.arc(), setup.label(), 0,
      0, old_salt);
  ASSERT_NE(old_key, setup.key(0, 0));
  cache::ResultCache::instance().store(old_key, doc);

  const std::uint64_t hits_before = obs::counter("cache.hit").value();
  const std::uint64_t misses_before = obs::counter("cache.miss").value();
  const cells::ConditionCharacterization cc =
      setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                               setup.label(), 0, 0);
  EXPECT_EQ(obs::counter("cache.hit").value(), hits_before);
  EXPECT_EQ(obs::counter("cache.miss").value(), misses_before + 1);
  EXPECT_NE(cc.lvf2_delay.lambda, 0.25);
  EXPECT_EQ(cache::ResultCache::instance().size(), 2u);
}

TEST(CacheCharacterize, ReadonlyModeServesHitsButNeverWrites) {
  const std::string dir = fresh_cache_dir("lvf2_cache_readonly");
  const SmallSetup setup;
  {
    ScopedSingletonCache armed(dir, cache::Mode::kReadWrite);
    setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                             setup.label(), 0, 0);
    EXPECT_EQ(cache::ResultCache::instance().size(), 1u);
  }
  ScopedSingletonCache armed(dir, cache::Mode::kReadOnly);
  const std::uint64_t hits_before = obs::counter("cache.hit").value();
  const std::uint64_t stores_before = obs::counter("cache.store").value();
  // The populated entry hits...
  setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                           setup.label(), 0, 0);
  EXPECT_EQ(obs::counter("cache.hit").value(), hits_before + 1);
  // ...a fresh entry misses and is NOT written back.
  setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                           setup.label(), 1, 1);
  EXPECT_EQ(obs::counter("cache.store").value(), stores_before);
  EXPECT_EQ(cache::ResultCache::instance().size(), 1u);
}

TEST(CacheCharacterize, RefreshModeRecomputesAndOverwrites) {
  const std::string dir = fresh_cache_dir("lvf2_cache_refresh");
  const SmallSetup setup;
  {
    ScopedSingletonCache armed(dir, cache::Mode::kReadWrite);
    setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                             setup.label(), 0, 0);
  }
  ScopedSingletonCache armed(dir, cache::Mode::kRefresh);
  const std::uint64_t hits_before = obs::counter("cache.hit").value();
  const std::uint64_t misses_before = obs::counter("cache.miss").value();
  const std::uint64_t stores_before = obs::counter("cache.store").value();
  setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                           setup.label(), 0, 0);
  EXPECT_EQ(obs::counter("cache.hit").value(), hits_before);
  EXPECT_EQ(obs::counter("cache.miss").value(), misses_before + 1);
  EXPECT_EQ(obs::counter("cache.store").value(), stores_before + 1);
}

TEST(CacheCharacterize, ConcurrentPopulateUnderPoolThenFullHit) {
  const std::string dir = fresh_cache_dir("lvf2_cache_pool");
  ScopedSingletonCache armed(dir, cache::Mode::kReadWrite);
  const SmallSetup setup;
  const cells::Characterizer ch = setup.characterizer();

  exec::set_thread_count(4);
  const cells::ArcCharacterization cold =
      ch.characterize_arc(setup.cell, setup.arc());
  EXPECT_EQ(cache::ResultCache::instance().size(), 4u);

  const std::uint64_t hits_before = obs::counter("cache.hit").value();
  const cells::ArcCharacterization warm =
      ch.characterize_arc(setup.cell, setup.arc());
  exec::set_thread_count(0);
  EXPECT_EQ(obs::counter("cache.hit").value(), hits_before + 4);

  // A cached run is byte-identical to the computing run.
  ASSERT_EQ(cold.entries.size(), warm.entries.size());
  for (std::size_t i = 0; i < cold.entries.size(); ++i) {
    EXPECT_EQ(cold.entries[i].nominal_delay_ns,
              warm.entries[i].nominal_delay_ns);
    EXPECT_EQ(cold.entries[i].lvf_delay.mean, warm.entries[i].lvf_delay.mean);
    EXPECT_EQ(cold.entries[i].lvf2_delay.lambda,
              warm.entries[i].lvf2_delay.lambda);
    EXPECT_EQ(cold.entries[i].lvf2_delay.theta1.stddev,
              warm.entries[i].lvf2_delay.theta1.stddev);
  }
}

TEST(CacheCharacterize, HitWithoutStoredQorDegradesUnderManifest) {
  const std::string dir = fresh_cache_dir("lvf2_cache_noqor");
  ScopedSingletonCache armed(dir, cache::Mode::kReadWrite);
  const SmallSetup setup;
  // Populate with no manifest armed: the entry carries no QoR row.
  setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                           setup.label(), 0, 0);

  const std::string path = testing::TempDir() + "lvf2_cache_noqor.json";
  const std::uint64_t misses_before = obs::counter("cache.miss").value();
  obs::ManifestRecorder::instance().start(path);
  setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                           setup.label(), 0, 0);
  obs::ManifestRecorder::instance().stop();
  std::remove(path.c_str());
  // The hit was unusable (manifest armed, no stored row): recomputed
  // and re-stored with the row attached.
  EXPECT_EQ(obs::counter("cache.miss").value(), misses_before + 1);

  const std::uint64_t hits_before = obs::counter("cache.hit").value();
  setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                           setup.label(), 0, 0);
  EXPECT_EQ(obs::counter("cache.hit").value(), hits_before + 1);
}

TEST(CacheCli, StatsGcVerifyAndPurge) {
  const std::string dir = fresh_cache_dir("lvf2_cache_cli");
  const SmallSetup setup;
  {
    ScopedSingletonCache armed(dir, cache::Mode::kReadWrite);
    setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                             setup.label(), 0, 0);
  }
  // An undecodable entry for gc to collect.
  {
    cache::ResultCache store;
    store.arm(dir, cache::Mode::kReadWrite);
    store.store(0x0000000000000042ull, small_doc(1.0));
    store.flush();
  }
  const auto run = [](std::initializer_list<const char*> argv) {
    std::vector<const char*> args(argv);
    return tools::cache_tool_main(static_cast<int>(args.size()),
                                  args.data());
  };
  EXPECT_EQ(run({"lvf2_cache"}), 2);
  EXPECT_EQ(run({"lvf2_cache", "bogus", dir.c_str()}), 2);
  EXPECT_EQ(run({"lvf2_cache", "stats", dir.c_str()}), 0);
  // Verify re-runs the sampled entry and matches the stored result.
  EXPECT_EQ(run({"lvf2_cache", "verify", dir.c_str(), "--sample", "8"}), 0);
  EXPECT_EQ(run({"lvf2_cache", "gc", dir.c_str()}), 0);
  {
    cache::ResultCache store;
    store.arm(dir, cache::Mode::kReadOnly);
    EXPECT_EQ(store.size(), 1u);  // the bogus entry was collected
    store.disarm();
  }
  EXPECT_EQ(run({"lvf2_cache", "purge", dir.c_str()}), 0);
  cache::ResultCache store;
  store.arm(dir, cache::Mode::kReadOnly);
  EXPECT_EQ(store.size(), 0u);
  store.disarm();
}

TEST(CacheCli, VerifyFlagsTamperedEntry) {
  const std::string dir = fresh_cache_dir("lvf2_cache_tamper");
  const SmallSetup setup;
  const std::uint64_t key = setup.key(0, 0);
  {
    ScopedSingletonCache armed(dir, cache::Mode::kReadWrite);
    setup.characterizer().characterize_entry(setup.cell, setup.arc(),
                                             setup.label(), 0, 0);
  }
  // Tamper with the stored result: nudge one number.
  {
    cache::ResultCache store;
    store.arm(dir, cache::Mode::kReadWrite);
    auto doc = store.lookup(key);
    ASSERT_TRUE(doc.has_value());
    for (auto& [k, v] : doc->object) {
      if (k == "result") {
        for (auto& [rk, rv] : v.object) {
          if (rk == "nominal_delay_ns") rv.number *= 1.5;
        }
      }
    }
    store.store(key, *doc);
    store.flush();
  }
  const char* argv[] = {"lvf2_cache", "verify", dir.c_str(),
                        "--sample", "8"};
  EXPECT_EQ(tools::cache_tool_main(5, argv), 1);
}

}  // namespace
}  // namespace lvf2
