#include "hram/hram.hpp"

#include "core/expect.hpp"

namespace bsmp::hram {

HRam::HRam(std::size_t size, AccessFn f, bool pipelined)
    : mem_(size, 0), cost_(f, size), pipelined_(pipelined) {
  BSMP_REQUIRE(size >= 1);
}

void HRam::note_addr(std::size_t addr) {
  BSMP_REQUIRE_MSG(addr < mem_.size(),
                   "H-RAM address " << addr << " out of range (size "
                                    << mem_.size() << ")");
  if (addr > peak_addr_) peak_addr_ = addr;
}

Word HRam::read(std::size_t addr) {
  note_addr(addr);
  ledger_.charge(core::CostKind::kLocalAccess, cost_(addr));
  return mem_[addr];
}

void HRam::write(std::size_t addr, Word value) {
  note_addr(addr);
  ledger_.charge(core::CostKind::kLocalAccess, cost_(addr));
  mem_[addr] = value;
}

core::Cost HRam::touch(std::size_t addr) {
  note_addr(addr);
  core::Cost c = cost_(addr);
  ledger_.charge(core::CostKind::kLocalAccess, c);
  return c;
}

core::Cost HRam::touch_block(std::size_t max_addr, std::size_t len) {
  if (len == 0) return 0.0;
  note_addr(max_addr);
  const AccessFn& f = cost_.fn();
  core::Cost c = pipelined_ ? f.block_pipelined(max_addr, len)
                            : f.block(max_addr, len);
  ledger_.charge(core::CostKind::kBlockMove, c, len);
  return c;
}

void HRam::block_copy(std::size_t src, std::size_t dst, std::size_t len) {
  if (len == 0) return;
  BSMP_REQUIRE_MSG(src + len <= dst || dst + len <= src,
                   "H-RAM block_copy ranges overlap: [" << src << ", "
                       << src + len << ") and [" << dst << ", " << dst + len
                       << ")");
  note_addr(src + len - 1);
  note_addr(dst + len - 1);
  std::size_t max_addr = std::max(src, dst) + len - 1;
  const AccessFn& f = cost_.fn();
  core::Cost c = pipelined_ ? 2.0 * f.block_pipelined(max_addr, len)
                            : 2.0 * f.block(max_addr, len);
  ledger_.charge(core::CostKind::kBlockMove, c, len);
  for (std::size_t i = 0; i < len; ++i) mem_[dst + i] = mem_[src + i];
}

}  // namespace bsmp::hram
