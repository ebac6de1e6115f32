// Counting-allocator test: the simulator's steady-state per-access and
// per-miss path (core issue, translation, L1/MSHR, NoC, directory, LLC,
// DRAM, invalidation joins, writebacks) performs no heap allocation.
//
// Its own executable because it replaces the global operator new: every
// allocation in the process is counted, and two observer events bracket a
// window in the middle of the run, after the pools have warmed up.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "coherence/coherent_system.hpp"
#include "core/sim_core.hpp"
#include "mem/dram.hpp"
#include "mem/page_table.hpp"
#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "nuca/snuca.hpp"
#include "sim/event_queue.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace tdn;

namespace {

/// What the window saw: allocations and the protocol events it covered.
struct Snapshot {
  std::uint64_t allocs = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t llc_writebacks = 0;
  std::uint64_t accesses = 0;
  bool taken = false;
};

/// A small 2x2 machine with shrunken caches running a gauss-shaped
/// program on every core: all cores stream the shared pivot rows, update
/// their own row block in place, and read and write a hot shared region.
struct Machine {
  sim::EventQueue eq;
  noc::Mesh mesh{2, 2};
  noc::Network net{mesh, eq, {}};
  mem::MemControllers mcs{1, {0}, {}};
  nuca::SNucaPolicy policy{4};
  std::unique_ptr<coherence::CoherentSystem> caches;
  mem::PageTable pt;
  std::vector<std::unique_ptr<core::SimCore>> cores;
  std::vector<core::TaskProgram> programs;

  Machine() {
    coherence::HierarchyConfig cfg;
    cfg.l1 = {4 * kKiB, 4, 64};         // 64 lines
    cfg.llc_bank = {16 * kKiB, 8, 64};  // 64 KiB of LLC in all
    caches = std::make_unique<coherence::CoherentSystem>(eq, net, mesh, mcs,
                                                         policy, cfg, 4);
    constexpr Addr kPivots = 0x1000'0000, kHot = 0x2000'0000,
                   kRows = 0x3000'0000;
    for (CoreId c = 0; c < 4; ++c) {
      cores.push_back(std::make_unique<core::SimCore>(c, eq, *caches, pt));
      core::AccessPhase pivots;  // 256 KiB: misses all the way to DRAM
      pivots.range = {kPivots, kPivots + 256 * kKiB};
      pivots.passes = 16;
      core::AccessPhase rows;  // private rows, written: dirty evictions
      rows.range = {kRows + c * 0x100'0000, kRows + c * 0x100'0000 + 64 * kKiB};
      rows.kind = AccessKind::Write;
      rows.passes = 64;
      core::AccessPhase hot_read;  // shared and written: invalidations
      hot_read.range = {kHot, kHot + 8 * kKiB};
      hot_read.order = core::AccessPhase::Order::RandomSample;
      hot_read.touches = 64'000;
      hot_read.seed = 11 + c;
      core::AccessPhase hot_write = hot_read;
      hot_write.kind = AccessKind::Write;
      hot_write.seed = 101 + c;
      core::TaskProgram prog;
      prog.add_group({pivots, rows, hot_read, hot_write});
      programs.push_back(std::move(prog));
    }
  }

  void snapshot(Snapshot& s) {
    s.allocs = g_allocs.load(std::memory_order_relaxed);
    const auto& st = caches->stats();
    s.l1_misses = st.l1_misses.value();
    s.invalidations = st.invalidations_sent.value();
    s.llc_misses = st.llc_misses.value();
    s.llc_writebacks = st.llc_writebacks.value();
    s.dram_reads = mcs.mc(0).reads();
    s.accesses = st.l1_hits.value() + st.l1_misses.value();
    s.taken = true;
  }
};

}  // namespace

TEST(Alloc, SteadyStateMissPathAllocatesNothing) {
  Machine m;
  unsigned finished = 0;
  for (CoreId c = 0; c < 4; ++c)
    m.cores[c]->execute(m.programs[c], [&finished] { ++finished; });
  // Warm-up runs to cycle 1.5M (pools, tables and free lists reach their
  // peak); the window then covers 500k cycles of the same steady state.
  Snapshot before, after;
  m.eq.schedule_observer_at(1'500'000, [&] { m.snapshot(before); });
  m.eq.schedule_observer_at(2'000'000, [&] { m.snapshot(after); });
  m.eq.run();
  ASSERT_EQ(finished, 4u);
  ASSERT_TRUE(before.taken && after.taken);
  // The window covers every kind of miss-path work.
  EXPECT_GT(after.accesses - before.accesses, 100'000u);
  EXPECT_GT(after.l1_misses - before.l1_misses, 10'000u);
  EXPECT_GT(after.invalidations - before.invalidations, 1'000u);
  EXPECT_GT(after.llc_misses - before.llc_misses, 1'000u);
  EXPECT_GT(after.dram_reads - before.dram_reads, 1'000u);
  EXPECT_GT(after.llc_writebacks - before.llc_writebacks, 1'000u);
  EXPECT_EQ(after.allocs - before.allocs, 0u);
}
