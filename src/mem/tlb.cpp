#include "mem/tlb.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace tdn::mem {

Tlb::Tlb(TlbConfig cfg, Addr page_size)
    : cfg_(cfg), page_size_(page_size) {
  TDN_REQUIRE(cfg_.entries > 0, "TLB needs at least one entry");
  TDN_REQUIRE(is_pow2(page_size_), "page size must be a power of two");
}

std::size_t Tlb::find(Addr vpage) const {
  if (vpage_.empty()) return kMissing;
  if (vpage_[mru_] == vpage) return mru_;
  for (std::size_t i = 0; i < vpage_.size(); ++i)
    if (vpage_[i] == vpage) return i;
  return kMissing;
}

void Tlb::clear() {
  std::fill(vpage_.begin(), vpage_.end(), kFree);
  valid_ = 0;
}

Cycle Tlb::access(Addr vaddr) {
  const Addr vpage = vaddr / page_size_;
  std::size_t slot = find(vpage);
  if (slot != kMissing) {
    hits_.inc();
    stamp_[slot] = ++clock_;
    mru_ = slot;
    return cfg_.hit_latency;
  }
  misses_.inc();
  if (vpage_.empty()) {
    vpage_.assign(cfg_.entries, kFree);
    stamp_.assign(cfg_.entries, 0);
  }
  if (valid_ >= cfg_.entries) {
    // Full: replace the least recently used entry.
    slot = static_cast<std::size_t>(
        std::min_element(stamp_.begin(), stamp_.end()) - stamp_.begin());
  } else {
    slot = find(kFree);
    ++valid_;
  }
  vpage_[slot] = vpage;
  stamp_[slot] = ++clock_;
  mru_ = slot;
  return cfg_.hit_latency + cfg_.miss_penalty;
}

void Tlb::invalidate_page(Addr vaddr) {
  const std::size_t slot = find(vaddr / page_size_);
  if (slot == kMissing) return;
  shootdowns_.inc();
  vpage_[slot] = kFree;
  --valid_;
}

void Tlb::invalidate_all() {
  shootdowns_.inc(valid_);
  clear();
}

bool Tlb::contains(Addr vaddr) const {
  return find(vaddr / page_size_) != kMissing;
}

}  // namespace tdn::mem
