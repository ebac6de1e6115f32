// Per-core MMU — the single translation front-end the timing core and the
// runtime's ISA-path translation talk to.
//
// Legacy mode (vm.enabled == false, the default): delegates to the flat
// single-level mem::Tlb + PageTable exactly as before — translate() answers
// synchronously and consumes the same PRNG/LRU state in the same order, so
// every pre-vm fingerprint reproduces bit-identically.
//
// vm mode: two-level TLB (vm::TlbHierarchy) backed by the hardware page
// walker (vm::PageWalker) whose PTE loads travel the real cache hierarchy.
// translate() becomes asynchronous on a TLB miss; charge_translation()
// keeps the ISA path synchronous by charging a deterministic walk cost
// while firing the walk's loads in the background.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "mem/page_table.hpp"
#include "mem/tlb.hpp"
#include "obs/latency_histogram.hpp"
#include "sim/inline_function.hpp"
#include "vm/config.hpp"
#include "vm/page_walker.hpp"
#include "vm/tlb_hierarchy.hpp"

namespace tdn::vm {

class Mmu {
 public:
  /// Translation continuation: (translation cycles, physical address).
  /// Inline, so a demand access's translation never allocates.
  using TranslateDone = sim::InlineFunction<void(Cycle, Addr), 48>;

  /// @p caches may be null only when @p vm is disabled (tests building
  /// legacy-mode Mmus without a cache hierarchy).
  Mmu(CoreId core, sim::EventQueue& eq, coherence::CoherentSystem* caches,
      mem::PageTable& pt, const mem::TlbConfig& legacy_cfg,
      const VmConfig& vm);

  /// Translate @p vaddr for a demand access, allocating the page on first
  /// touch. @p done receives (translation cycles, physical address); it is
  /// invoked synchronously on a TLB hit (and always, in legacy mode).
  void translate(Addr vaddr, TranslateDone done);

  /// Synchronous translation charge for the runtime's ISA path (the
  /// iterative tdnuca_register walk executes under the runtime lock).
  /// Returns the cycle cost; fills TLB/PSC state as a side effect.
  Cycle charge_translation(Addr vaddr);

  /// TLB shootdown for the page covering @p vaddr.
  void invalidate_page(Addr vaddr);
  void invalidate_all();
  /// Checkpoint cold-normalization: drop every cached translation — TLBs
  /// and, in vm mode, the walker's paging-structure caches — WITHOUT
  /// counting shootdowns. The continuing lineage must end up in the same
  /// state as a freshly restored one, and a restored lineage's TLBs start
  /// empty, so counting here would make the shootdown metric depend on
  /// occupancy at the fold and break resume bit-identity.
  void ckpt_cold_reset();
  /// Zero every translation counter (checkpoint counter folding: the caller
  /// accumulates them into a snapshotted baseline first).
  void ckpt_reset_stats() noexcept {
    tlb_.ckpt_reset_stats();
    tlbs_.reset_stats();
    walker_.reset_stats();
  }

  // --- statistics -------------------------------------------------------
  std::uint64_t tlb_hits() const noexcept {
    return vm_.enabled ? tlbs_.hits() : tlb_.hits();
  }
  std::uint64_t tlb_misses() const noexcept {
    return vm_.enabled ? tlbs_.misses() : tlb_.misses();
  }
  std::uint64_t tlb_shootdowns() const noexcept {
    return vm_.enabled ? tlbs_.shootdowns() : tlb_.shootdowns();
  }
  std::uint64_t l2_tlb_hits() const noexcept {
    return vm_.enabled ? tlbs_.l2_hits() : 0;
  }
  std::uint64_t walks() const noexcept {
    return vm_.enabled ? walker_.walks() : 0;
  }
  std::uint64_t walk_loads() const noexcept {
    return vm_.enabled ? walker_.walk_loads() : 0;
  }
  Cycle walk_cycles() const noexcept {
    return vm_.enabled ? walker_.walk_cycles() : 0;
  }
  Cycle charge_walk_cycles() const noexcept {
    return vm_.enabled ? walker_.charge_cycles() : 0;
  }
  std::uint64_t psc_hits() const noexcept {
    return vm_.enabled ? walker_.psc_hits() : 0;
  }

  /// Observability sinks (null = off): per-translation latency and
  /// per-demand-walk cycles, feeding the tdn-obs-report-v1 translation
  /// section. Wired by the system when a latency report is requested;
  /// never feeds back into timing.
  void set_obs_sinks(obs::LatencyHistogram* translation,
                     obs::LatencyHistogram* walk) {
    obs_translation_ = translation;
    obs_walk_ = walk;
  }

  /// Legacy single-level TLB (tests; legacy mode only).
  mem::Tlb& legacy_tlb() noexcept { return tlb_; }
  bool vm_enabled() const noexcept { return vm_.enabled; }

 private:
  mem::PageTable& pt_;
  VmConfig vm_;
  mem::Tlb tlb_;         // legacy mode
  TlbHierarchy tlbs_;    // vm mode
  PageWalker walker_;    // vm mode
  obs::LatencyHistogram* obs_translation_ = nullptr;
  obs::LatencyHistogram* obs_walk_ = nullptr;
};

}  // namespace tdn::vm
