#include "vm/mmu.hpp"

#include "common/require.hpp"

namespace tdn::vm {

Mmu::Mmu(CoreId core, sim::EventQueue& eq, coherence::CoherentSystem* caches,
         mem::PageTable& pt, const mem::TlbConfig& legacy_cfg,
         const VmConfig& vm)
    : pt_(pt), vm_(vm), tlb_(legacy_cfg, pt.page_size()), tlbs_(vm),
      walker_(core, eq, caches, vm) {
  TDN_REQUIRE(!vm.enabled || caches != nullptr,
              "vm mode needs a cache hierarchy for page walks");
}

void Mmu::translate(Addr vaddr, TranslateDone done) {
  if (!vm_.enabled) {
    const Cycle lat = tlb_.access(vaddr);
    if (obs_translation_ != nullptr) obs_translation_->add(lat);
    done(lat, pt_.translate(vaddr));
    return;
  }
  const TlbHierarchy::Result r = tlbs_.lookup(vaddr);
  if (r.hit) {
    if (obs_translation_ != nullptr) obs_translation_->add(r.latency);
    done(r.latency, pt_.translate(vaddr));
    return;
  }
  const mem::PageTable::PageMapping m = pt_.touch_page(vaddr);
  walker_.walk(vaddr, m.span,
               [this, vaddr, m, probe = r.latency,
                done = std::move(done)](Cycle walk_cycles) mutable {
                 tlbs_.fill(m.va_base, m.span);
                 const Cycle lat = probe + walk_cycles;
                 if (obs_translation_ != nullptr) obs_translation_->add(lat);
                 if (obs_walk_ != nullptr) obs_walk_->add(walk_cycles);
                 done(lat, m.pa_base + (vaddr - m.va_base));
               });
}

Cycle Mmu::charge_translation(Addr vaddr) {
  if (!vm_.enabled) return tlb_.access(vaddr);
  const TlbHierarchy::Result r = tlbs_.lookup(vaddr);
  if (r.hit) return r.latency;
  const mem::PageTable::PageMapping m = pt_.touch_page(vaddr);
  const Cycle walk = walker_.charge_walk(vaddr, m.span);
  tlbs_.fill(m.va_base, m.span);
  return r.latency + walk;
}

void Mmu::invalidate_page(Addr vaddr) {
  if (!vm_.enabled) {
    tlb_.invalidate_page(vaddr);
    return;
  }
  tlbs_.invalidate_page(vaddr);
  walker_.invalidate_psc(vaddr);
}

void Mmu::invalidate_all() {
  if (!vm_.enabled) {
    tlb_.invalidate_all();
    return;
  }
  tlbs_.invalidate_all();
  walker_.clear_psc();
}

void Mmu::ckpt_cold_reset() {
  if (!vm_.enabled) {
    tlb_.ckpt_cold_reset();
    return;
  }
  tlbs_.ckpt_cold_reset();
  walker_.clear_psc();
}

}  // namespace tdn::vm
