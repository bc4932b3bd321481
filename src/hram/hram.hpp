// The H-RAM: a value-carrying memory whose every access is charged
// through an AccessFn into a CostLedger. This is the concrete machine
// node of Definition 2 — a (processing-element, memory-module) pair.
//
// The H-RAM is used two ways:
//  * concretely, by workloads (e.g. the matrix-multiply example of the
//    paper's introduction) that read/write real words at real addresses;
//  * as the cost oracle of the separator executor, which charges block
//    transfers at model addresses without materializing each word.
//
// Single-word charges (read, write, touch) come from the RAM's
// CostTable, so f is evaluated once per distinct address; block
// charges evaluate f at the block's far end, once per call.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost.hpp"
#include "hram/access_fn.hpp"
#include "hram/cost_table.hpp"

namespace bsmp::hram {

using Word = std::uint64_t;

class HRam {
 public:
  /// An H-RAM with `size` cells, all initially zero. If `pipelined` is
  /// true, block operations use the Section-6 pipelined-memory cost
  /// (latency + one word per unit time) instead of per-word latency.
  HRam(std::size_t size, AccessFn f, bool pipelined = false);

  std::size_t size() const { return mem_.size(); }

  /// Read the word at `addr`, charging f(addr).
  Word read(std::size_t addr);

  /// Write the word at `addr`, charging f(addr).
  void write(std::size_t addr, Word value);

  /// Charge an access to `addr` without touching data (cost-model-only
  /// paths). Returns the charged cost.
  core::Cost touch(std::size_t addr);

  /// Charge a transfer of `len` words whose farthest address is
  /// `max_addr`, without touching data. Honors pipelining.
  core::Cost touch_block(std::size_t max_addr, std::size_t len);

  /// Copy `len` words from `src` to `dst`, charging the read block and
  /// the write block. Overlapping ranges are rejected before anything
  /// is charged.
  void block_copy(std::size_t src, std::size_t dst, std::size_t len);

  const AccessFn& access_fn() const { return cost_.fn(); }
  bool pipelined() const { return pipelined_; }

  core::CostLedger& ledger() { return ledger_; }
  const core::CostLedger& ledger() const { return ledger_; }

  /// Highest address accessed so far (space high-water mark).
  std::size_t peak_addr() const { return peak_addr_; }

 private:
  void note_addr(std::size_t addr);

  std::vector<Word> mem_;
  CostTable cost_;
  bool pipelined_;
  core::CostLedger ledger_;
  std::size_t peak_addr_ = 0;
};

}  // namespace bsmp::hram
