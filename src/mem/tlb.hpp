// Per-core data TLB model: fully associative, true-LRU, as in the paper's
// gem5 configuration (64 entries, 1-cycle access). Used both on the demand
// access path and by the iterative VA->PA translation that the tdnuca_register
// / invalidate / flush instructions perform.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "stats/counters.hpp"

namespace tdn::mem {

struct TlbConfig {
  unsigned entries = 64;
  Cycle hit_latency = 1;
  /// Page-walk cost on a TLB miss: an x86 hardware walker with warm
  /// paging-structure caches resolves most walks in a couple of memory
  /// accesses.
  Cycle miss_penalty = 24;
};

class Tlb {
 public:
  explicit Tlb(TlbConfig cfg = {}, Addr page_size = 4 * kKiB);

  /// Look up the page of @p vaddr; updates LRU and fills on miss.
  /// Returns the access latency (hit_latency or hit_latency + miss_penalty).
  Cycle access(Addr vaddr);

  /// Drop the entry for the page containing @p vaddr (TLB shootdown).
  void invalidate_page(Addr vaddr);
  void invalidate_all();
  /// Drop every entry WITHOUT counting shootdowns — checkpoint cold
  /// normalization is a simulation artifact, not an architectural event,
  /// and the count must not depend on occupancy at the fold (a restored
  /// lineage's TLB is empty where the continuing one's was warm).
  void ckpt_cold_reset() { clear(); }

  bool contains(Addr vaddr) const;
  std::uint64_t hits() const noexcept { return hits_.value(); }
  std::uint64_t misses() const noexcept { return misses_.value(); }
  std::uint64_t shootdowns() const noexcept { return shootdowns_.value(); }
  /// Zero the counters (checkpoint counter folding); entries are untouched.
  void ckpt_reset_stats() noexcept {
    hits_.reset();
    misses_.reset();
    shootdowns_.reset();
  }

 private:
  static constexpr Addr kFree = ~Addr{0};
  static constexpr std::size_t kMissing = ~std::size_t{0};
  /// Slot holding @p vpage, or kMissing.
  std::size_t find(Addr vpage) const;
  void clear();

  TlbConfig cfg_;
  Addr page_size_;
  // A fixed array of entries, searched linearly (64 by default), with
  // true LRU from last-use stamps: a lookup or fill never allocates. The
  // arrays are sized at the first fill, so an unused TLB costs nothing.
  std::vector<Addr> vpage_;            ///< kFree marks an empty slot
  std::vector<std::uint64_t> stamp_;   ///< last use of each slot
  std::uint64_t clock_ = 0;
  std::size_t valid_ = 0;
  std::size_t mru_ = 0;  ///< slot of the last hit or fill, checked first
  stats::Counter hits_;
  stats::Counter misses_;
  stats::Counter shootdowns_;
};

}  // namespace tdn::mem
