// Hardware page-table walker model.
//
// On a TLB miss the walker resolves the translation by issuing the radix
// walk's PTE loads as *real memory accesses* through the coherent cache
// hierarchy — they travel the NoC, can hit in LLC banks, and fall through
// to DRAM, so walk latency responds to cache pressure and NUCA distance
// instead of being a constant penalty. Paging-structure caches (PSCs, one
// small LRU per non-leaf radix level, as in x86 MMUs) let warm walks skip
// the upper levels: a walk for a 4K page costs 4 dependent loads cold but
// typically 1-2 warm.
//
// Page-table layout: the simulated kernel places each radix table at a
// deterministic pseudo-random 4K-aligned address inside [kKernelBase,
// kKernelBase + 256 MiB), derived by hashing (level, va-prefix). Entries
// are 8 bytes, so walks for neighbouring pages hit the same PTE cache
// lines — the spatial locality real walkers exploit.
//
// Two entry points mirror the two translation contexts:
//  * walk()        — demand-path TLB miss: fully event-driven, dependent
//                    loads chained through the hierarchy, completion via
//                    callback.
//  * charge_walk() — ISA path (tdnuca_register's iterative translation,
//                    executed under the runtime lock): returns a
//                    deterministic synchronous cycle charge and fires the
//                    same PTE loads fire-and-forget so the hierarchy is
//                    warmed/perturbed like hardware would.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/inline_function.hpp"
#include "vm/config.hpp"
#include "vm/tlb_hierarchy.hpp"

namespace tdn::sim {
class EventQueue;
}
namespace tdn::coherence {
class CoherentSystem;
}

namespace tdn::vm {

class PageWalker {
 public:
  /// @p caches may be null only when vm is disabled (the walker is then
  /// never invoked) — lets tests build legacy-mode Mmus without a system.
  PageWalker(CoreId core, sim::EventQueue& eq,
             coherence::CoherentSystem* caches, const VmConfig& cfg);

  /// Resolve the translation for an established mapping of size @p span
  /// covering @p vaddr. Issues the (PSC-shortened) chain of dependent PTE
  /// loads; @p done fires with the walk's total cycle cost when the last
  /// load returns.
  /// Inline budget of @p done: the MMU's translation continuation.
  using WalkDone = sim::InlineFunction<void(Cycle), 112>;
  void walk(Addr vaddr, Addr span, WalkDone done);

  /// Synchronous ISA-path walk: returns psc_latency + loads *
  /// walk_charge_per_level, fires the PTE loads into the hierarchy in the
  /// background, and fills the PSC as if the walk completed.
  Cycle charge_walk(Addr vaddr, Addr span);

  void invalidate_psc(Addr vaddr);
  void clear_psc();

  std::uint64_t walks() const noexcept { return walks_; }
  std::uint64_t walk_loads() const noexcept { return walk_loads_; }
  /// Demand-walk cycles measured through the hierarchy.
  Cycle walk_cycles() const noexcept { return walk_cycles_; }
  /// ISA-path walk cycles charged synchronously.
  Cycle charge_cycles() const noexcept { return charge_cycles_; }
  std::uint64_t psc_hits() const noexcept { return psc_hits_; }
  void reset_stats() {
    walks_ = walk_loads_ = psc_hits_ = 0;
    walk_cycles_ = charge_cycles_ = 0;
  }

 private:
  /// Radix levels are numbered 1 (leaf PTE) .. 4 (PML4E); a page of size S
  /// has its leaf entry at level 1 (4K), 2 (2M) or 3 (1G).
  static unsigned leaf_level(Addr span);
  static Addr level_prefix(Addr vaddr, unsigned level);
  Addr pte_paddr(unsigned level, Addr vaddr) const;
  /// PTE load addresses root→leaf after PSC shortening; probes (and, via
  /// @p fill, updates) the PSCs.
  void plan_loads(Addr vaddr, Addr span, Addr out[4], unsigned& n);
  void fill_psc(Addr vaddr, Addr span);

  CoreId core_;
  sim::EventQueue& eq_;
  coherence::CoherentSystem* caches_;
  VmConfig cfg_;
  TlbArray psc_l4_;  // caches PML4E: skips the level-4 load
  TlbArray psc_l3_;  // caches PDPTE: skips levels 4-3
  TlbArray psc_l2_;  // caches PDE:   skips levels 4-2
  std::uint64_t walks_ = 0;
  std::uint64_t walk_loads_ = 0;
  Cycle walk_cycles_ = 0;
  Cycle charge_cycles_ = 0;
  std::uint64_t psc_hits_ = 0;
};

}  // namespace tdn::vm
