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
// result — the builder runs exactly once per key. Entries stay until
// clear() or the cache's destruction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <typeinfo>
#include <unordered_map>

#include "core/expect.hpp"
#include "engine/trace.hpp"

namespace bsmp::engine {

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
  /// Lookup/build accounting, snapshot by stats(). `hits`/`misses`
  /// count lookups; `builds` counts builder invocations that actually
  /// ran (at most one per key unless a build threw and was retried) —
  /// the metrics layer serializes all three per pass.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t builds = 0;
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
      }
      entry = it->second;
    }
    BSMP_REQUIRE_MSG(*entry->type == typeid(T),
                     "PlanCache key reused with a different artifact type");
    std::lock_guard<std::mutex> lk(entry->mu);
    // Null also when a previous build threw: retry it here so a failed
    // build never poisons the key.
    if (entry->value == nullptr) {
      builds_.fetch_add(1, std::memory_order_relaxed);
      trace::Span span(trace::Cat::kSweepPoint, "plan-build", key.width,
                       static_cast<std::int64_t>(key.family));
      entry->value = to_shared(build());
    }
    BSMP_ASSERT(entry->value != nullptr);
    return std::static_pointer_cast<const T>(entry->value);
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

 private:
  struct Entry {
    std::mutex mu;
    std::shared_ptr<const void> value;
    const std::type_info* type = nullptr;
  };

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
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  // Incremented under the *entry* mutex, not mu_, hence atomic.
  std::atomic<std::uint64_t> builds_{0};
};

}  // namespace bsmp::engine
