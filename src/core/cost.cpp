#include "core/cost.hpp"

#include <sstream>

#include "core/expect.hpp"

namespace bsmp::core {

const char* to_string(CostKind k) {
  switch (k) {
    case CostKind::kCompute:     return "compute";
    case CostKind::kLocalAccess: return "local_access";
    case CostKind::kBlockMove:   return "block_move";
    case CostKind::kComm:        return "comm";
    case CostKind::kRearrange:   return "rearrange";
    case CostKind::kKindCount:   break;
  }
  return "?";
}

void CostLedger::charge(CostKind kind, Cost cost, std::uint64_t events) {
  BSMP_REQUIRE(kind != CostKind::kKindCount);
  BSMP_REQUIRE_MSG(cost >= 0.0, "negative cost charged");
  auto i = static_cast<std::size_t>(kind);
  cost_[i] += cost;
  events_[i] += events;
}

Cost CostLedger::total() const {
  Cost t = 0;
  for (Cost c : cost_) t += c;
  return t;
}

Cost CostLedger::cost(CostKind kind) const {
  return cost_[static_cast<std::size_t>(kind)];
}

std::uint64_t CostLedger::events(CostKind kind) const {
  return events_[static_cast<std::size_t>(kind)];
}

CostLedger& CostLedger::operator+=(const CostLedger& other) {
  for (std::size_t i = 0; i < kNumKinds; ++i) {
    cost_[i] += other.cost_[i];
    events_[i] += other.events_[i];
  }
  return *this;
}

void CostLedger::reset() {
  cost_.fill(0);
  events_.fill(0);
}

void ChargeLog::replay_into(CostLedger& ledger) const {
  // Per-kind addition order is all that matters for the merged doubles:
  // each kind accumulates into its own slot, so replaying kind by kind
  // reproduces the serial per-slot addition sequence even though the
  // serial execution interleaved kinds.
  for (std::size_t i = 0; i < kNumKinds; ++i) {
    if (addends_[i].empty() && events_[i] == 0) continue;
    auto s = ledger.stream(static_cast<CostKind>(i));
    for (Cost c : addends_[i]) s.add_cost(c);
    s.add_events(events_[i]);
  }
}

void ChargeLog::replay_into(ChargeLog& log) const {
  for (std::size_t i = 0; i < kNumKinds; ++i) {
    log.addends_[i].insert(log.addends_[i].end(), addends_[i].begin(),
                           addends_[i].end());
    log.events_[i] += events_[i];
  }
}

Cost ChargeLog::cost(CostKind kind) const {
  Cost t = 0;
  for (Cost c : addends_[static_cast<std::size_t>(kind)]) t += c;
  return t;
}

std::uint64_t ChargeLog::events(CostKind kind) const {
  return events_[static_cast<std::size_t>(kind)];
}

std::string CostLedger::report() const {
  std::ostringstream os;
  os << "total=" << total();
  for (std::size_t i = 0; i < kNumKinds; ++i) {
    if (events_[i] == 0 && cost_[i] == 0) continue;
    os << "  " << to_string(static_cast<CostKind>(i)) << "=" << cost_[i]
       << " (" << events_[i] << " ev)";
  }
  return os.str();
}

}  // namespace bsmp::core
