// engine::Arena + epoch-slabbed StagingStore property tests.
//
// The contract under test: the arena changes *where* slab and scratch
// memory comes from, never what is computed. Recycled slabs carry
// stale bytes by design; the epoch liveness marks must make every
// read/insert/erase/iteration sequence byte-identical to the cold
// (BSMP_ARENA=off) path, and the slab-allocation metric must not see
// the difference either.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "engine/arena.hpp"
#include "geom/lattice.hpp"
#include "sep/staging.hpp"

using namespace bsmp;
using engine::Arena;
using engine::ArenaStats;
using sep::Word;

namespace {

/// Pin the arena switch for a test body and restore it after.
class ArenaGuard {
 public:
  explicit ArenaGuard(bool on) : saved_(engine::arena_enabled()) {
    engine::set_arena_enabled(on);
  }
  ~ArenaGuard() { engine::set_arena_enabled(saved_); }

 private:
  bool saved_;
};

geom::Stencil<1> stencil1(std::int64_t w, std::int64_t horizon,
                          std::int64_t m = 1) {
  geom::Stencil<1> st;
  st.extent = {w};
  st.horizon = horizon;
  st.m = m;
  return st;
}

geom::Point<1> pt(std::int64_t x, std::int64_t t) {
  geom::Point<1> p;
  p.x = {x};
  p.t = t;
  return p;
}

/// A scratch type that records clears and keeps capacity, mirroring
/// what ChargeLog / phase logs do.
struct Probe {
  std::vector<int> data;
  int clears = 0;
  void clear() {
    data.clear();
    ++clears;
  }
};

}  // namespace

TEST(Arena, AcquireReusesReleasedBlocksOfTheSameClass) {
  ArenaGuard on(true);
  Arena& a = Arena::instance();
  const ArenaStats before = a.stats();

  Arena::Block b1 = a.acquire(1000);
  ASSERT_TRUE(b1);
  EXPECT_GE(b1.bytes, 1000u);
  void* data = b1.data;
  a.release(std::move(b1));

  // Same size class: the pooled slab comes back, marked recycled.
  Arena::Block b2 = a.acquire(700);
  ASSERT_TRUE(b2);
  EXPECT_EQ(b2.data, data);
  EXPECT_TRUE(b2.recycled);
  a.release(std::move(b2));

  const ArenaStats after = a.stats() - before;
  EXPECT_GE(after.slab_reuses, 1u);
  EXPECT_EQ(after.releases, 2u);
}

TEST(Arena, ZeroByteAcquireIsNull) {
  Arena::Block b = Arena::instance().acquire(0);
  EXPECT_FALSE(b);
  Arena::instance().release(std::move(b));  // null release is a no-op
}

TEST(Arena, DisabledArenaNeverRecycles) {
  ArenaGuard off(false);
  Arena& a = Arena::instance();
  const ArenaStats before = a.stats();
  Arena::Block b1 = a.acquire(256);
  ASSERT_TRUE(b1);
  a.release(std::move(b1));
  Arena::Block b2 = a.acquire(256);
  ASSERT_TRUE(b2);
  EXPECT_FALSE(b2.recycled);
  a.release(std::move(b2));
  const ArenaStats after = a.stats() - before;
  EXPECT_EQ(after.cold_allocs, 2u);
  EXPECT_EQ(after.slab_reuses, 0u);
}

TEST(Arena, TrimDropsPooledBytes) {
  ArenaGuard on(true);
  Arena& a = Arena::instance();
  Arena::Block b = a.acquire(4096);
  ASSERT_TRUE(b);
  a.release(std::move(b));
  a.trim();
  EXPECT_EQ(a.stats().bytes_held, 0u);
}

TEST(Arena, ScratchReusesClearedObjectsOnOneThread) {
  ArenaGuard on(true);
  int* first = nullptr;
  {
    engine::Scratch<Probe> s;
    s->data.assign(100, 7);
    first = s->data.data();
  }
  {
    engine::Scratch<Probe> s;
    // Recycled: cleared but with its buffer (and clear count) intact.
    EXPECT_TRUE(s->data.empty());
    EXPECT_EQ(s->clears, 1);
    EXPECT_GE(s->data.capacity(), 100u);
    s->data.push_back(1);
    EXPECT_EQ(s->data.data(), first);
  }
}

TEST(Arena, ScratchColdWhenDisabled) {
  ArenaGuard off(false);
  { engine::Scratch<Probe> s; s->data.assign(8, 3); }
  engine::Scratch<Probe> s;
  EXPECT_EQ(s->clears, 0);  // fresh object, not a pooled one
  EXPECT_TRUE(s->data.empty());
}

TEST(Arena, StatsCountScratchTraffic) {
  ArenaGuard on(true);
  // Drain any pooled Probes so the first checkout below is
  // deterministic about hitting the pool.
  { engine::Scratch<Probe> warm; (void)warm; }
  const ArenaStats before = Arena::instance().stats();
  { engine::Scratch<Probe> s; (void)s; }
  const ArenaStats after = Arena::instance().stats() - before;
  EXPECT_EQ(after.scratch_checkouts + after.scratch_cold, 1u);
}

// ---------------------------------------------------------------------
// StagingStore on recycled slabs.
// ---------------------------------------------------------------------

TEST(StagingArena, RecycledLevelDoesNotResurrectValues) {
  ArenaGuard on(true);
  auto st = stencil1(16, 8);
  sep::StagingStore<1> s(&st);

  for (std::int64_t x = 0; x < 16; ++x) s.insert(pt(x, 0), Word(100 + x));
  EXPECT_EQ(s.size(), 16u);

  // Retire level 0 and re-materialize it from the store's own recycle
  // stack: every old value must read as absent.
  s.prune_below(1, 8);
  EXPECT_EQ(s.size(), 0u);
  s.insert(pt(3, 0), Word(1));
  for (std::int64_t x = 0; x < 16; ++x) {
    const Word* v = s.find(pt(x, 0));
    if (x == 3) {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, Word(1));
    } else {
      EXPECT_EQ(v, nullptr) << "stale value resurrected at x=" << x;
    }
  }
}

TEST(StagingArena, EpochWrapStaysSound) {
  ArenaGuard on(true);
  auto st = stencil1(4, 2);
  sep::StagingStore<1> s(&st);
  // 300 retire/reuse rounds pushes the 8-bit epoch through its wrap;
  // liveness must never alias an old epoch's marks.
  for (int round = 0; round < 300; ++round) {
    s.insert(pt(round % 4, 0), Word(round));
    s.prune_below(1, 2);
  }
  EXPECT_EQ(s.size(), 0u);
  for (std::int64_t x = 0; x < 4; ++x) EXPECT_EQ(s.find(pt(x, 0)), nullptr);
  s.insert(pt(2, 0), Word(9));
  EXPECT_EQ(s.size(), 1u);
  std::size_t visited = 0;
  s.for_each([&](const geom::Point<1>& p, Word v) {
    ++visited;
    EXPECT_EQ(p, pt(2, 0));
    EXPECT_EQ(v, Word(9));
  });
  EXPECT_EQ(visited, 1u);
}

TEST(StagingArena, LevelAllocsIdenticalArenaOnAndOff) {
  auto st = stencil1(32, 6, 2);
  auto run = [&st] {
    sep::StagingStore<1> s(&st);
    for (std::int64_t t = 0; t < 6; ++t)
      for (std::int64_t x = 0; x < 32; x += 3) s.insert(pt(x, t), Word(x + t));
    s.prune_below(3, 6);
    for (std::int64_t x = 0; x < 32; ++x) s.insert(pt(x, 1), Word(x));
    return s.level_allocs();
  };
  std::size_t allocs_on, allocs_off;
  {
    ArenaGuard on(true);
    allocs_on = run();
  }
  {
    ArenaGuard off(false);
    allocs_off = run();
  }
  // 6 initial materializations + 1 re-materialization of level 1.
  EXPECT_EQ(allocs_on, 7u);
  EXPECT_EQ(allocs_off, allocs_on);
}

TEST(StagingArena, ContentsIdenticalArenaOnAndOff) {
  auto st = stencil1(24, 5, 2);
  auto run = [&st] {
    sep::StagingStore<1> s(&st);
    for (std::int64_t t = 0; t < 5; ++t)
      for (std::int64_t x = 0; x < 24; ++x)
        s.insert(pt(x, t), Word(1000 * t + x));
    for (std::int64_t x = 0; x < 24; x += 2) s.erase(pt(x, 2));
    s.prune_below(2, 5);
    s.insert(pt(5, 0), Word(77));
    std::vector<std::pair<geom::Point<1>, Word>> out;
    s.for_each([&](const geom::Point<1>& p, Word v) {
      out.emplace_back(p, v);
    });
    return out;
  };
  std::vector<std::pair<geom::Point<1>, Word>> got_on, got_off;
  {
    ArenaGuard on(true);
    got_on = run();
  }
  {
    ArenaGuard off(false);
    got_off = run();
  }
  EXPECT_EQ(got_on, got_off);
}

TEST(StagingArena, ResetForReuseAndRebindForgetEverything) {
  ArenaGuard on(true);
  auto st = stencil1(8, 4);
  sep::StagingStore<1> s(&st);
  for (std::int64_t t = 0; t < 4; ++t) s.insert(pt(t, t), Word(t));
  s.reset_for_reuse();

  auto st2 = stencil1(8, 4, 3);  // same layout, different m: rebindable
  ASSERT_TRUE(s.try_rebind(&st2));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.level_allocs(), 0u);
  for (std::int64_t t = 0; t < 4; ++t) EXPECT_EQ(s.find(pt(t, t)), nullptr);

  // Slabs stayed bound through the reset: re-inserting into a
  // previously-present level is a pure epoch reuse, not an allocation.
  // (Shard-local allocs never feed the hot-path metric — only the base
  // store's level_allocs() is read — so the count tracks real slab
  // materializations only.)
  s.insert(pt(0, 0), Word(5));
  EXPECT_EQ(s.level_allocs(), 0u);
  ASSERT_NE(s.find(pt(0, 0)), nullptr);
  EXPECT_EQ(*s.find(pt(0, 0)), Word(5));
}

TEST(StagingArena, RebindRejectsDifferentGeometry) {
  ArenaGuard on(true);
  auto st = stencil1(8, 4);
  sep::StagingStore<1> s(&st);
  s.reset_for_reuse();
  auto narrower = stencil1(4, 4);
  auto shorter = stencil1(8, 3);
  EXPECT_FALSE(s.try_rebind(&narrower));
  EXPECT_FALSE(s.try_rebind(&shorter));
}

TEST(StagingArena, ShardMergeKeepsLevelAllocsEqualPooledAndCold) {
  // The pre-allocation accounting contract: a shard merged into a base
  // store pre-touches every level it ever wrote, and the base's
  // level_allocs() must be the same whether the shard's local store
  // was pooled (arena on, possibly recycled) or cold.
  auto st = stencil1(16, 6, 2);
  auto run = [&st] {
    sep::StagingStore<1> base(&st);
    base.insert(pt(0, 0), Word(1));
    for (int round = 0; round < 3; ++round) {
      sep::StagingShard<1> shard(sep::overlay, base);
      shard.insert(pt(1, 1), Word(10 + round));
      shard.insert(pt(2, 4), Word(20 + round));
      // An insert erased again still pre-touches its level on merge.
      shard.insert(pt(3, 5), Word(30 + round));
      shard.erase(pt(3, 5));
      shard.merge_into(base);
    }
    return std::make_pair(base.level_allocs(), base.size());
  };
  std::pair<std::size_t, std::size_t> on, off;
  {
    ArenaGuard g(true);
    on = run();
  }
  {
    ArenaGuard g(false);
    off = run();
  }
  EXPECT_EQ(on, off);
  // Levels 0, 1, 4 and 5 materialized exactly once each.
  EXPECT_EQ(on.first, 4u);
  EXPECT_EQ(on.second, 3u);  // (0,0), (1,1), (2,4)
}

TEST(StagingArena, MoveTransfersSlabs) {
  ArenaGuard on(true);
  auto st = stencil1(8, 2);
  sep::StagingStore<1> a(&st);
  a.insert(pt(1, 0), Word(4));
  sep::StagingStore<1> b(std::move(a));
  ASSERT_NE(b.find(pt(1, 0)), nullptr);
  EXPECT_EQ(*b.find(pt(1, 0)), Word(4));
  EXPECT_EQ(b.size(), 1u);

  sep::StagingStore<1> c(&st);
  c = std::move(b);
  ASSERT_NE(c.find(pt(1, 0)), nullptr);
  EXPECT_EQ(c.size(), 1u);
}

TEST(StagingArena, CrossThreadReleaseIsSafe) {
  ArenaGuard on(true);
  auto st = stencil1(64, 4);
  // Materialize on one thread, destroy (release into the pool) on
  // another, then reuse from a third. TSan/ASan legs make this a real
  // race check, not just a smoke test.
  auto holder = std::make_unique<sep::StagingStore<1>>(&st);
  std::thread t1([&] {
    for (std::int64_t t = 0; t < 4; ++t)
      holder->insert(pt(t, t), Word(t));
  });
  t1.join();
  std::thread t2([&] { holder.reset(); });
  t2.join();
  std::thread t3([&] {
    sep::StagingStore<1> s(&st);
    for (std::int64_t t = 0; t < 4; ++t) {
      s.insert(pt(t + 1, t), Word(9));
      EXPECT_EQ(s.find(pt(t, t)), nullptr) << "recycled slab leaked a value";
    }
    EXPECT_EQ(s.size(), 4u);
  });
  t3.join();
}
