// Virtual-time cost accounting.
//
// All bsmp simulators charge *virtual time* in the paper's units: one
// unit = the execution time of a RAM instruction on the lowest address
// (Section 2). A CostLedger accumulates charged time split by mechanism
// so that experiments can separate the parallelism slowdown (n/p) from
// the locality slowdown (the paper's A term).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/expect.hpp"

namespace bsmp::core {

/// Virtual time. Fractional values arise from the H-RAM access function
/// f(x) = (x/m)^(1/d); totals of interest are far below 2^53 so double
/// keeps them exact enough for ratio reporting.
using Cost = double;

/// Mechanism that incurred a charge. The split mirrors the paper's
/// accounting in Propositions 1-2 and Section 4.2.
enum class CostKind : unsigned {
  kCompute = 0,    ///< unit-time operation at a dag vertex
  kLocalAccess,    ///< H-RAM read/write charged f(address)
  kBlockMove,      ///< data relocation between memory regions (Prop. 2 steps 1/3)
  kComm,           ///< interprocessor transfer, charged (words x distance)
  kRearrange,      ///< one-time memory rearrangement pi2*pi1 (Sec. 4.2 preprocessing)
  kKindCount
};

/// Name of a cost kind, for tables and reports.
const char* to_string(CostKind k);

/// Accumulator of charged virtual time and event counts per CostKind.
class CostLedger {
 public:
  static constexpr std::size_t kNumKinds =
      static_cast<std::size_t>(CostKind::kKindCount);

  CostLedger() { reset(); }

  /// Charge `cost` units of virtual time under `kind`, covering `events`
  /// primitive events (default one).
  void charge(CostKind kind, Cost cost, std::uint64_t events = 1);

  /// Inline accumulation handle for hot loops. Each add_cost() performs
  /// the same `slot += cost` addition a charge() call would, in the same
  /// order — so streamed totals are bit-identical to per-call totals
  /// (floating-point addition is order-sensitive; this preserves the
  /// order) — but without the out-of-line call and precondition checks
  /// per event. Event counts are integers, so they may be accumulated
  /// locally and added once via add_events(). The handle is invalidated
  /// by destroying the ledger.
  class Stream {
   public:
    void add_cost(Cost cost) { *cost_ += cost; }
    void add_events(std::uint64_t events) { *events_ += events; }

   private:
    friend class CostLedger;
    Stream(Cost* cost, std::uint64_t* events)
        : cost_(cost), events_(events) {}
    Cost* cost_;
    std::uint64_t* events_;
  };

  /// Accumulation handle for one kind (see Stream).
  Stream stream(CostKind kind) {
    BSMP_REQUIRE(kind != CostKind::kKindCount);
    auto i = static_cast<std::size_t>(kind);
    return Stream(&cost_[i], &events_[i]);
  }

  /// Total charged virtual time across all kinds.
  Cost total() const;

  /// Charged virtual time for one kind.
  Cost cost(CostKind kind) const;

  /// Number of primitive events recorded for one kind.
  std::uint64_t events(CostKind kind) const;

  /// Merge another ledger into this one (used to fold per-processor or
  /// per-phase ledgers into a run total).
  CostLedger& operator+=(const CostLedger& other);

  void reset();

  /// Multi-line human-readable breakdown.
  std::string report() const;

 private:
  std::array<Cost, kNumKinds> cost_{};
  std::array<std::uint64_t, kNumKinds> events_{};
};

}  // namespace bsmp::core
