// PlanCache: a thread-safe memo for the immutable artifacts sweep
// points rebuild over and over — separator-tree / Prop-2 plans
// (sched::Planner output), guest computations (sep::Executor input),
// and reference runs. Entries are shared across threads as
// shared_ptr-to-const: once built, an artifact is immutable, so any
// number of sweep points may read it concurrently.
//
// Keys carry the paper's plan identity — (d, domain family, width,
// horizon, m, access-fn tag) — plus an `aux` word folding whatever
// else the family needs (tile/leaf widths, space constants, seeds).
// Build-once semantics: if two threads miss on the same key at once,
// one builds while the other blocks on the entry and then shares the
// result — the builder runs exactly once per key.
//
// Residency (BSMP_PLAN_CACHE_BYTES; 0 = unbounded): the cache is an
// LRU over its byte budget. Every built artifact is charged its
// plan_bytes() estimate; when the total exceeds the budget, entries
// are evicted least-recently-used first — skipping any entry whose
// artifact is still referenced outside the cache, and never an entry
// whose build is still in flight. An evicted entry keeps its value
// alive for lookups that already held it, so eviction can never
// invalidate a reader; a later request for the key simply rebuilds.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <typeinfo>
#include <unordered_map>

#include "core/expect.hpp"
#include "engine/trace.hpp"

namespace bsmp::engine {

/// Resident-byte estimate of a cached artifact, used for the cache's
/// byte budget. ADL customization point: overload plan_bytes(const A&)
/// in A's own namespace to account heap payloads (a Schedule's op
/// vector, a reference run's final values); this fallback charges the
/// object header alone.
template <typename A>
inline std::size_t plan_bytes(const A& a) {
  return sizeof(a);
}

/// Discriminates what kind of artifact a key names (and thereby the
/// stored type); families never share entries.
enum class PlanFamily : int {
  kSchedule = 0,   ///< sched::Schedule<D> — Planner output, Prop-2 plan
  kGuest,          ///< sep::Guest<D> — Executor input
  kReference,      ///< sim::SimResult<D> of the direct guest run
  kUser,           ///< caller-defined artifacts
};

struct PlanKey {
  int d = 0;                     ///< lattice dimension D
  PlanFamily family = PlanFamily::kSchedule;
  std::int64_t width = 0;        ///< domain width / spatial extent
  std::int64_t horizon = 0;      ///< time extent T
  std::int64_t m = 0;            ///< memory density
  std::uint64_t access_tag = 0;  ///< identity of the access function
  std::uint64_t aux = 0;         ///< folded extras (widths, consts, seed)

  bool operator==(const PlanKey&) const = default;
};

/// Fold a value into an accumulating key word (FNV-1a step); use to
/// build PlanKey::aux from several parameters.
inline std::uint64_t key_fold(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Bit-exact key word for a double-valued parameter.
std::uint64_t key_of_double(double v);

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = key_fold(h, static_cast<std::uint64_t>(k.d));
    h = key_fold(h, static_cast<std::uint64_t>(k.family));
    h = key_fold(h, static_cast<std::uint64_t>(k.width));
    h = key_fold(h, static_cast<std::uint64_t>(k.horizon));
    h = key_fold(h, static_cast<std::uint64_t>(k.m));
    h = key_fold(h, k.access_tag);
    h = key_fold(h, k.aux);
    return static_cast<std::size_t>(h);
  }
};

class PlanCache {
 public:
  /// The byte budget defaults from BSMP_PLAN_CACHE_BYTES at process
  /// start (0 = unbounded).
  PlanCache();

  /// Lookup/build accounting, snapshot by stats(). `hits`/`misses`
  /// count lookups; `builds` counts builder invocations that actually
  /// ran (at most one per key unless a build threw and was retried);
  /// `evictions` counts LRU evictions and `bytes` is the resident
  /// plan_bytes total right now — the metrics layer serializes all of
  /// them per pass.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t builds = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;
    std::uint64_t lookups() const { return hits + misses; }
    double hit_rate() const {
      return lookups() == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(lookups());
    }
  };

  /// Return the artifact for `key`, building it with `build()` (which
  /// must return a value convertible to std::shared_ptr<const T> or a
  /// plain T) if absent. Concurrent requests for the same key share
  /// one build. A lookup that creates the entry counts as a miss; any
  /// other lookup — including one that waits on an in-flight build —
  /// counts as a hit.
  template <typename T, typename Build>
  std::shared_ptr<const T> get_or_build(const PlanKey& key, Build&& build) {
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = map_.find(key);
      if (it == map_.end()) {
        it = map_.emplace(key, std::make_shared<Entry>()).first;
        it->second->type = &typeid(T);
        ++misses_;
      } else {
        ++hits_;
        touch_locked(*it->second);
      }
      entry = it->second;
    }
    BSMP_REQUIRE_MSG(*entry->type == typeid(T),
                     "PlanCache key reused with a different artifact type");
    std::shared_ptr<const T> result;
    {
      std::lock_guard<std::mutex> lk(entry->mu);
      // Null also when a previous build threw: retry it here so a
      // failed build never poisons the key.
      if (entry->value == nullptr) {
        builds_.fetch_add(1, std::memory_order_relaxed);
        trace::Span span(trace::Cat::kSweepPoint, "plan-build", key.width,
                         static_cast<std::int64_t>(key.family));
        entry->value = to_shared(build());
      }
      BSMP_ASSERT(entry->value != nullptr);
      result = std::static_pointer_cast<const T>(entry->value);
    }
    // Charge the artifact into the LRU after releasing the entry lock
    // (mu_ and entry->mu are never held together). plan_bytes is found
    // by ADL in T's namespace, sizeof(T) otherwise.
    account(key, entry, plan_bytes(*result));
    return result;
  }

  /// Lookup without building; null when absent. Counts as hit/miss.
  template <typename T>
  std::shared_ptr<const T> lookup(const PlanKey& key) {
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = map_.find(key);
      if (it == map_.end()) {
        ++misses_;
        return nullptr;
      }
      ++hits_;
      touch_locked(*it->second);
      entry = it->second;
    }
    BSMP_REQUIRE_MSG(*entry->type == typeid(T),
                     "PlanCache key reused with a different artifact type");
    std::lock_guard<std::mutex> lk(entry->mu);
    return std::static_pointer_cast<const T>(entry->value);
  }

  Stats stats() const;
  std::size_t size() const;
  void clear();

  /// Change the byte budget (0 = unbounded) and evict down to it.
  void set_max_bytes(std::size_t bytes);
  std::size_t max_bytes() const;

 private:
  struct Entry {
    std::mutex mu;
    std::shared_ptr<const void> value;
    const std::type_info* type = nullptr;
    // LRU state, guarded by the cache's mu_ (never entry->mu):
    // accounted entries sit in lru_ (front = most recent) and are
    // charged `bytes` against the budget.
    std::size_t bytes = 0;
    bool accounted = false;
    std::list<PlanKey>::iterator lru_it;
  };

  /// Move an accounted entry to the front of the LRU (under mu_).
  void touch_locked(Entry& e) {
    if (e.accounted) lru_.splice(lru_.begin(), lru_, e.lru_it);
  }

  /// First-time byte accounting for a built artifact, then eviction
  /// down to the budget. No-op if the entry was evicted (or the cache
  /// cleared) while the build ran — its value simply dies with its
  /// last reader.
  void account(const PlanKey& key, const std::shared_ptr<Entry>& entry,
               std::size_t bytes) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!entry->accounted) {
      auto it = map_.find(key);
      if (it == map_.end() || it->second != entry) return;
      entry->bytes = bytes;
      entry->accounted = true;
      lru_.push_front(key);
      entry->lru_it = lru_.begin();
      bytes_ += bytes;
    }
    evict_locked();
  }

  /// Evict least-recently-used entries until the budget holds. An
  /// entry whose artifact is still referenced outside the cache
  /// (use_count > 1) is skipped; the erased entry keeps its value, so
  /// holders of the Entry from an in-flight get_or_build still read it.
  void evict_locked() {
    if (max_bytes_ == 0 || bytes_ <= max_bytes_) return;
    auto it = lru_.end();
    while (bytes_ > max_bytes_ && it != lru_.begin()) {
      --it;
      auto mit = map_.find(*it);
      BSMP_ASSERT(mit != map_.end());
      Entry& e = *mit->second;
      if (e.value.use_count() > 1) continue;  // in use outside the cache
      bytes_ -= e.bytes;
      ++evictions_;
      it = lru_.erase(it);
      map_.erase(mit);
    }
  }

  template <typename T>
  static std::shared_ptr<const void> to_shared(std::shared_ptr<const T> p) {
    return p;
  }
  template <typename T>
  static std::shared_ptr<const void> to_shared(std::shared_ptr<T> p) {
    return std::shared_ptr<const T>(std::move(p));
  }
  template <typename T>
  static std::shared_ptr<const void> to_shared(T&& value) {
    using V = std::decay_t<T>;
    return std::make_shared<const V>(std::forward<T>(value));
  }

  mutable std::mutex mu_;
  std::unordered_map<PlanKey, std::shared_ptr<Entry>, PlanKeyHash> map_;
  std::list<PlanKey> lru_;  // front = most recently used, accounted only
  std::size_t bytes_ = 0;
  std::size_t max_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  // Incremented under the *entry* mutex, not mu_, hence atomic.
  std::atomic<std::uint64_t> builds_{0};
};

}  // namespace bsmp::engine
