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
