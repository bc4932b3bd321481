// PlanCache LRU residency tests: eviction order, the byte bound under
// concurrent build-once misses, protection of in-use entries, and
// counter exactness (hits / misses / builds / evictions / bytes).
//
// The cache's original contracts — build-once per key, shared
// immutable artifacts — are pinned by test_engine_property; this file
// pins the BSMP_PLAN_CACHE_BYTES budget semantics added on top.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "engine/plan_cache.hpp"
#include "tables/cached.hpp"

using namespace bsmp;
using engine::PlanCache;
using engine::PlanKey;

namespace {

PlanKey key_of(std::int64_t width) {
  PlanKey k;
  k.d = 1;
  k.family = engine::PlanFamily::kUser;
  k.width = width;
  return k;
}

/// An artifact with a known plan_bytes footprint (set via `weight`).
struct Plan {
  std::int64_t id = 0;
  std::size_t weight = 0;
};

std::size_t plan_bytes(const Plan& p) { return p.weight; }

/// Build a Plan of `weight` accountable bytes under key `width`.
std::shared_ptr<const Plan> put(PlanCache& c, std::int64_t width,
                                std::size_t weight) {
  return c.get_or_build<Plan>(key_of(width),
                              [&] { return Plan{width, weight}; });
}

}  // namespace

TEST(PlanCacheLru, UnboundedByDefaultKeepsEverything) {
  PlanCache c;
  ASSERT_EQ(c.max_bytes(), 0u) << "BSMP_PLAN_CACHE_BYTES leaked into test env";
  for (std::int64_t i = 0; i < 64; ++i) put(c, i, 1000);
  EXPECT_EQ(c.size(), 64u);
  const auto st = c.stats();
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.bytes, 64u * 1000u);
}

TEST(PlanCacheLru, EvictsLeastRecentlyUsedFirst) {
  PlanCache c;
  c.set_max_bytes(3000);
  put(c, 1, 1000);
  put(c, 2, 1000);
  put(c, 3, 1000);
  EXPECT_EQ(c.size(), 3u);

  // Touch 1 so 2 becomes the LRU, then overflow by one entry.
  ASSERT_NE(c.lookup<Plan>(key_of(1)), nullptr);
  put(c, 4, 1000);

  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.lookup<Plan>(key_of(2)), nullptr) << "LRU entry survived";
  EXPECT_NE(c.lookup<Plan>(key_of(1)), nullptr);
  EXPECT_NE(c.lookup<Plan>(key_of(3)), nullptr);
  EXPECT_NE(c.lookup<Plan>(key_of(4)), nullptr);
  const auto st = c.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.bytes, 3000u);
}

TEST(PlanCacheLru, RepeatedHitsRefreshRecency) {
  PlanCache c;
  c.set_max_bytes(2000);
  put(c, 1, 1000);
  put(c, 2, 1000);
  // Keep hitting 1 while streaming new entries through: 1 must survive
  // every round, the streamed keys must evict each other.
  for (std::int64_t i = 3; i < 10; ++i) {
    ASSERT_NE(c.lookup<Plan>(key_of(1)), nullptr) << "hot entry evicted";
    put(c, i, 1000);
  }
  EXPECT_NE(c.lookup<Plan>(key_of(1)), nullptr);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.stats().evictions, 7u);
}

TEST(PlanCacheLru, InUseEntriesAreNeverEvicted) {
  PlanCache c;
  c.set_max_bytes(1000);
  auto held = put(c, 1, 800);  // pinned by this shared_ptr
  // Over budget, but at accounting time both entries are in use (key 1
  // by `held`, key 2 by its own builder's result): the budget is a
  // soft bound while readers hold the artifacts, nothing is evicted.
  put(c, 2, 800);
  EXPECT_EQ(c.stats().bytes, 1600u);
  EXPECT_NE(c.lookup<Plan>(key_of(1)), nullptr);
  EXPECT_NE(c.lookup<Plan>(key_of(2)), nullptr);

  // The next pressure resolves: key 2 is no longer held, key 1 still
  // is — so 2 goes and pinned 1 survives despite being the LRU.
  put(c, 3, 800);
  EXPECT_NE(c.lookup<Plan>(key_of(1)), nullptr) << "pinned entry evicted";
  EXPECT_EQ(c.lookup<Plan>(key_of(2)), nullptr);
  EXPECT_NE(c.lookup<Plan>(key_of(3)), nullptr);
  EXPECT_EQ(c.stats().bytes, 1600u);

  // Dropping the pin makes key 1 evictable on the next pressure.
  held.reset();
  put(c, 4, 1000);
  EXPECT_EQ(c.lookup<Plan>(key_of(1)), nullptr);
  EXPECT_EQ(c.lookup<Plan>(key_of(3)), nullptr);
  EXPECT_EQ(c.stats().bytes, 1000u);
}

TEST(PlanCacheLru, EvictedEntryStaysReadableForItsHolders) {
  PlanCache c;
  c.set_max_bytes(500);
  auto a = put(c, 1, 400);
  a.reset();                // now evictable
  auto b = put(c, 2, 400);  // evicts 1
  EXPECT_EQ(c.lookup<Plan>(key_of(1)), nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->id, 2);
  // A rebuilt key is a fresh artifact, not the evicted one.
  auto a2 = put(c, 1, 400);
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a2->id, 1);
  EXPECT_GE(c.stats().builds, 3u);
}

TEST(PlanCacheLru, SetMaxBytesEvictsDownImmediately) {
  PlanCache c;
  for (std::int64_t i = 0; i < 8; ++i) put(c, i, 100);
  EXPECT_EQ(c.stats().bytes, 800u);
  c.set_max_bytes(250);
  EXPECT_LE(c.stats().bytes, 250u);
  EXPECT_EQ(c.size(), 2u);
  // The survivors are the most recently used keys.
  EXPECT_NE(c.lookup<Plan>(key_of(6)), nullptr);
  EXPECT_NE(c.lookup<Plan>(key_of(7)), nullptr);
}

TEST(PlanCacheLru, ClearResetsResidencyCounters) {
  PlanCache c;
  c.set_max_bytes(150);
  put(c, 1, 100);
  put(c, 2, 100);
  c.clear();
  const auto st = c.stats();
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(c.size(), 0u);
  // Budget survives clear(); the counters do not.
  EXPECT_EQ(c.max_bytes(), 150u);
}

TEST(PlanCacheLru, CounterExactnessSingleThread) {
  PlanCache c;
  c.set_max_bytes(2000);
  put(c, 1, 600);                        // miss + build
  put(c, 1, 600);                        // hit
  ASSERT_NE(c.lookup<Plan>(key_of(1)), nullptr);  // hit
  EXPECT_EQ(c.lookup<Plan>(key_of(9)), nullptr);  // miss, no entry made
  put(c, 2, 600);                        // miss + build
  put(c, 3, 600);                        // miss + build
  put(c, 4, 600);  // miss + build; 2400 > 2000 evicts the LRU (key 1)

  const auto st = c.stats();
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 5u);  // first put of 1, lookup of 9, puts of 2..4
  EXPECT_EQ(st.builds, 4u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.bytes, 1800u);
  EXPECT_EQ(st.lookups(), 7u);
}

TEST(PlanCacheLru, ByteBoundHoldsUnderConcurrentMisses) {
  PlanCache c;
  const std::size_t kBudget = 4000;
  c.set_max_bytes(kBudget);
  constexpr int kThreads = 8;
  constexpr std::int64_t kKeys = 40;
  std::atomic<std::uint64_t> built{0};

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c, &built, t] {
      for (std::int64_t i = 0; i < kKeys; ++i) {
        // Thread-dependent key order, all threads racing on every key.
        std::int64_t w = (t % 2 == 0) ? i : kKeys - 1 - i;
        auto p = c.get_or_build<Plan>(key_of(w), [&built, w] {
          built.fetch_add(1, std::memory_order_relaxed);
          return Plan{w, 500};
        });
        ASSERT_NE(p, nullptr);
        ASSERT_EQ(p->id, w);
      }
    });
  }
  for (auto& t : ts) t.join();

  const auto st = c.stats();
  // Quiescent: nothing is held outside the cache, so the budget holds.
  EXPECT_LE(st.bytes, kBudget);
  EXPECT_EQ(st.bytes, std::uint64_t{500} * c.size());
  // Every build the cache ran is one the builders counted (a key may
  // build more than once across evictions, never concurrently).
  EXPECT_EQ(st.builds, built.load());
  EXPECT_GE(st.builds, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(st.lookups(), static_cast<std::uint64_t>(kThreads) * kKeys);
}

TEST(PlanCacheLru, AccountingSurvivesClearDuringBuild) {
  // clear() while a build is in flight: account() must detect the
  // entry is no longer the mapped one and not charge ghost bytes.
  PlanCache c;
  c.set_max_bytes(1000);
  std::atomic<bool> in_build{false};
  std::atomic<bool> cleared{false};
  std::thread builder([&] {
    c.get_or_build<Plan>(key_of(1), [&] {
      in_build.store(true);
      while (!cleared.load()) std::this_thread::yield();
      return Plan{1, 600};
    });
  });
  while (!in_build.load()) std::this_thread::yield();
  c.clear();
  cleared.store(true);
  builder.join();
  EXPECT_EQ(c.stats().bytes, 0u);
  EXPECT_EQ(c.size(), 0u);
}

// The byte hook of a cached reference run: the result object plus its
// flat final-value array, exactly — so the BSMP_PLAN_CACHE_BYTES budget
// charges what the entry holds.
TEST(PlanCacheBytes, ReferenceRunIsItsResultPlusFinalArray) {
  PlanCache cache;
  cache.set_max_bytes(0);
  auto ref = tables::cached_reference<2>(cache, {6, 5}, 9, 4, 3);
  ASSERT_EQ(ref->final_values.size(), 6u * 5u * 4u);
  EXPECT_EQ(ref->final_values.capacity(), ref->final_values.size());
  const std::size_t want =
      sizeof(sim::SimResult<2>) +
      ref->final_values.capacity() * sizeof(sep::Word);
  EXPECT_EQ(sim::plan_bytes(*ref), want);
  // The cache holds the reference run and its guest (header only).
  EXPECT_EQ(cache.stats().bytes, want + sizeof(sep::Guest<2>));

  // Batched values: same rule, LaneBatch-sized slots.
  auto batch = sim::reference_run<1>(sep::broadcast_guest<1>(
      workload::make_mix_guest<1>({16}, 8, 3, 1)));
  EXPECT_EQ(sim::plan_bytes(batch),
            sizeof(batch) +
                batch.final_values.capacity() * sizeof(sep::LaneBatch));
  EXPECT_EQ(batch.final_values.capacity(), 16u * 3u);
}
