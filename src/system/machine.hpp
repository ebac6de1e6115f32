// Machine — the one simulated machine every run mode drives (DESIGN.md
// decision 8, docs/architecture.md).
//
// It owns the substrate: the event queue, mesh, page table, NoC, memory
// controllers, the NUCA policy bundles, the coherent hierarchy and the
// timing cores, plus the fault injector, the watchdog, the machine-level
// observability probes, the machine statistics block and the checkpoint
// fold. Three thin drivers sit on top:
//
//   * system::TiledSystem       — closed: one task graph, whole machine;
//   * multi::MultiProgramSystem — colocated: N fixed apps on partitions;
//   * serve::ServeSystem        — serving: open arrivals on worker slots.
//
// A driver describes its partitions with a MachineLayout, builds its
// runtimes with make_app_runtime(), and runs through Machine::run(), which
// fixes the order of the real events scheduled before the loop starts:
// recorder, fault plan, the driver's runtimes or arrivals, then watchdog.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coherence/coherent_system.hpp"
#include "core/sim_core.hpp"
#include "energy/energy_model.hpp"
#include "fault/injector.hpp"
#include "fault/watchdog.hpp"
#include "mem/dram.hpp"
#include "mem/page_table.hpp"
#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "nuca/rnuca.hpp"
#include "nuca/snuca.hpp"
#include "nuca/tdnuca_policy.hpp"
#include "runtime/runtime_system.hpp"
#include "runtime/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "stats/registry.hpp"
#include "system/config.hpp"
#include "tdnuca/runtime_hooks.hpp"

namespace tdn::obs {
class Recorder;
}
namespace tdn::ckpt {
class Encoder;
class Decoder;
}
namespace tdn::multi {
class AppRouter;
}

namespace tdn::system {

/// The NUCA policies of one partition, built per SystemConfig::policy.
/// Exactly one of the three is non-null, except for TdNucaDryRun (TD-NUCA
/// bookkeeping next to an active S-NUCA) and adaptive serving (an R-NUCA
/// alternate next to the active TD-NUCA).
struct PolicySet {
  std::unique_ptr<nuca::SNucaPolicy> snuca;
  std::unique_ptr<nuca::RNucaPolicy> rnuca;
  std::unique_ptr<nuca::TdNucaPolicy> tdnuca;
  nuca::MappingPolicy* active = nullptr;  ///< what the hierarchy consults

  PolicySet(const SystemConfig& cfg, const noc::Mesh& mesh,
            mem::PageTable& pt, bool rnuca_alternate);

  /// Apply @p fn to every non-null policy.
  template <typename F>
  void for_each(F&& fn) {
    if (snuca) fn(static_cast<nuca::MappingPolicy&>(*snuca));
    if (rnuca) fn(static_cast<nuca::MappingPolicy&>(*rnuca));
    if (tdnuca) fn(static_cast<nuca::MappingPolicy&>(*tdnuca));
  }
};

/// One partition of the machine: its policies are confined to @p banks
/// (and @p cores, for TD-NUCA cluster clipping). An empty bank mask leaves
/// the policies machine-wide.
struct Partition {
  BankMask banks;
  CoreMask cores;
};

/// How a driver carves up the machine.
struct MachineLayout {
  /// One PolicySet per partition.
  std::vector<Partition> partitions{Partition{}};
  /// Set for colocated and serving runs: a multi::AppRouter fronts the
  /// partitions' policies (owner by address-space slice) and the hierarchy
  /// keeps per-app counters, one app per partition. An empty core_app
  /// attributes each core to the partition that owns it. Unset, the
  /// hierarchy consults partition 0's policy directly.
  std::optional<coherence::CoherentSystem::AppView> view;
  bool wrap = false;             ///< AppRouter wrap mode (serving slices)
  bool rnuca_alternate = false;  ///< TD-NUCA partitions also carry R-NUCA
};

/// One app's runtime: scheduler, hooks (TD-NUCA or no-op) and the
/// RuntimeSystem over the app's cores. Members are destroyed runtime first.
struct AppRuntime {
  std::unique_ptr<runtime::Scheduler> scheduler;
  std::unique_ptr<runtime::RuntimeHooks> hooks;
  tdnuca::TdNucaRuntimeHooks* td = nullptr;  ///< hooks, when TD-NUCA
  std::unique_ptr<runtime::RuntimeSystem> rt;
};

/// Per-epoch delta of a cumulative counter, for interval probes. A
/// checkpoint fold (Machine::folds()) zeroes the live counters mid-run; the
/// delta then restarts from the fold instead of wrapping around.
struct Interval {
  std::uint64_t prev = 0;
  std::uint64_t folds = 0;
  std::uint64_t next(std::uint64_t cur, std::uint64_t folds_now) {
    if (folds_now != folds) {
      folds = folds_now;
      prev = 0;
    }
    const std::uint64_t d = cur - prev;
    prev = cur;
    return d;
  }
};

inline double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return (hits + misses) > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
}

class Machine;

/// Build one app's runtime on @p cores. @p td selects TD-NUCA hooks over
/// that policy (null: no-op hooks). @p jitter_salt gives co-scheduled or
/// successive runtimes distinct dispatch-jitter streams (0 keeps the
/// configured seed).
AppRuntime make_app_runtime(Machine& m, nuca::TdNucaPolicy* td,
                            const CoreMask& cores, std::uint64_t jitter_salt);

class Machine {
 public:
  /// @p rec (optional) observes only: the hierarchy and runtimes trace into
  /// it and the machine registers its epoch probes and heatmaps.
  Machine(const SystemConfig& cfg, MachineLayout layout,
          obs::Recorder* rec = nullptr);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const SystemConfig& config() const noexcept { return cfg_; }
  unsigned num_cores() const noexcept { return cfg_.num_cores(); }
  obs::Recorder* recorder() const noexcept { return rec_; }

  sim::EventQueue& events() noexcept { return eq_; }
  const sim::EventQueue& events() const noexcept { return eq_; }
  const noc::Mesh& mesh() const noexcept { return mesh_; }
  noc::Network& network() noexcept { return *net_; }
  mem::MemControllers& mcs() noexcept { return *mcs_; }
  mem::PageTable& page_table() noexcept { return page_table_; }
  coherence::CoherentSystem& caches() noexcept { return *caches_; }
  const coherence::CoherentSystem& caches() const noexcept { return *caches_; }
  core::SimCore& core(CoreId id) { return *cores_.at(id); }
  const core::SimCore& core(CoreId id) const { return *cores_.at(id); }

  const Partition& partition(unsigned p) const { return partitions_.at(p); }
  PolicySet& policies(unsigned partition) { return policies_.at(partition); }
  const PolicySet& policies(unsigned partition) const {
    return policies_.at(partition);
  }
  /// Non-null with MachineLayout::view.
  multi::AppRouter* router() noexcept { return router_.get(); }

  /// Non-null only when cfg.fault.plan is non-empty.
  fault::FaultInjector* fault_injector() noexcept { return injector_.get(); }
  const fault::FaultInjector* fault_injector() const noexcept {
    return injector_.get();
  }
  const fault::HealthState* health() const noexcept { return health_; }
  /// Built and armed by run() when cfg.fault.watchdog_budget > 0.
  fault::Watchdog* watchdog() noexcept { return watchdog_.get(); }

  /// The driver's share of the watchdog: progress terms added to the
  /// machine's own witness (memory-system traffic), and named diagnostic
  /// sections appended to the machine's. Call before run().
  void watch(std::function<std::uint64_t()> progress);
  void add_diagnostic(std::string name, std::function<std::string()> fn);
  /// Watch one app runtime (tasks completed join the witness; a
  /// @p prefix + "runtime" diagnostic) and, with a recorder, sample its
  /// @p prefix + "runtime.ready_tasks" and "tasks.completed" series.
  void observe(const AppRuntime& app, const std::string& prefix);

  /// Arm the recorder and the fault plan (from @p resume on a restored
  /// lineage, after fast-forwarding the clock there), call @p start — the
  /// driver schedules its runtimes or arrivals — arm the watchdog and run
  /// the event loop to @p cycle_limit.
  void run(Cycle cycle_limit, const std::function<void()>& start,
           std::optional<Cycle> resume = std::nullopt);

  /// End-of-run fault::check_invariants (when cfg.fault.check_invariants).
  /// The RRT-health check covers the policy the fault injector scrubs
  /// (closed runs); @p hooks adds the TD-NUCA quiescence check.
  void check_invariants(const tdnuca::TdNucaRuntimeHooks* hooks) const;

  // --- statistics -------------------------------------------------------
  /// RRT lookups across every partition's TD-NUCA policy (0 for dry runs:
  /// bookkeeping-only tables draw no lookup energy).
  std::uint64_t rrt_lookups() const;
  /// Energy-model inputs: checkpoint baseline + live counters.
  energy::EnergyInputs energy_inputs() const;
  /// The machine block shared by every run mode: sim.events, l1.*, llc.*,
  /// nuca.*, noc.*, dram.*, tlb.*, mem.* aggregates, vm.* and energy.*.
  /// Every value is baseline + fresh; with no checkpoint fold the baseline
  /// is zero and the sums are exact.
  void collect_stats(stats::Registry& r) const;
  /// One app's (MachineLayout::view) LLC counters: baseline + fresh.
  coherence::CoherentSystem::AppCounters app_counters(unsigned app) const;
  /// cache.forced_unsafe_evictions and the llc.bankN.* breakdown (closed
  /// and colocated runs; not folded, so not for checkpointed runs).
  void collect_bank_stats(stats::Registry& r) const;

  // --- checkpoint fold (tdn::ckpt) ----------------------------------------
  /// Checkpoint folds so far.
  std::uint64_t folds() const noexcept { return folds_; }
  /// Fold every machine counter into the baseline and reset it.
  void fold_counters();
  /// Drop all cached and translated state: arrays, TLBs, RRTs, page
  /// classifications, VA mappings.
  void cold_normalize();
  /// One app's folded counters, in snapshot payload order.
  void encode_app_baseline(ckpt::Encoder& e, unsigned app) const;
  void decode_app_baseline(ckpt::Decoder& d, unsigned app);
  /// Baseline + page-allocator state, in snapshot payload order. Call from
  /// inside the executing fold event.
  void encode_baseline(ckpt::Encoder& e) const;
  void decode_baseline(ckpt::Decoder& d);

 private:
  /// Every machine counter the statistics block reports. baseline_ holds
  /// the totals folded at checkpoint boundaries; totals() adds the live
  /// counters on top.
  struct Totals {
    std::uint64_t events = 0;  ///< executed events (restored lineages only)
    std::uint64_t llc_hits = 0;
    std::uint64_t bypass_reads = 0;
    std::uint64_t noc_messages = 0;
    energy::EnergyInputs en;  ///< l1/llc/flush/noc/dram/rrt event counts
    double nuca_total = 0.0;  ///< Sampled numerators/denominators
    double nuca_weight = 0.0;
    double miss_lat_total = 0.0;
    double miss_lat_weight = 0.0;
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t tlb_shootdowns = 0;
    std::uint64_t l2_tlb_hits = 0;
    std::uint64_t walks = 0;
    std::uint64_t walk_loads = 0;
    Cycle walk_cycles = 0;
    Cycle isa_walk_cycles = 0;
    std::uint64_t psc_hits = 0;
    std::uint64_t huge_fallbacks = 0;

    /// Apply @p f to every field, in snapshot payload order.
    template <typename T, typename F>
    static void visit(T& t, F&& f) {
      for (auto* v : {&t.events, &t.llc_hits, &t.bypass_reads,
                      &t.noc_messages, &t.en.llc_requests, &t.en.llc_misses,
                      &t.en.llc_writebacks, &t.en.flush_llc_lines,
                      &t.en.l1_hits, &t.en.l1_misses, &t.en.flush_l1_lines,
                      &t.en.noc_router_bytes, &t.en.dram_accesses,
                      &t.en.rrt_lookups})
        f(*v);
      for (auto* v : {&t.nuca_total, &t.nuca_weight, &t.miss_lat_total,
                      &t.miss_lat_weight})
        f(*v);
      for (auto* v : {&t.tlb_hits, &t.tlb_misses, &t.tlb_shootdowns,
                      &t.l2_tlb_hits, &t.walks, &t.walk_loads, &t.walk_cycles,
                      &t.isa_walk_cycles, &t.psc_hits, &t.huge_fallbacks})
        f(*v);
    }
  };
  /// baseline_ plus the live counters (events excepted: the live queue's
  /// count is added where it is reported).
  Totals totals() const;
  void register_observability();

  SystemConfig cfg_;
  obs::Recorder* rec_ = nullptr;
  sim::EventQueue eq_;
  noc::Mesh mesh_;
  mem::PageTable page_table_;
  std::unique_ptr<noc::Network> net_;
  std::unique_ptr<mem::MemControllers> mcs_;
  std::vector<Partition> partitions_;
  std::vector<PolicySet> policies_;
  std::unique_ptr<multi::AppRouter> router_;
  std::unique_ptr<coherence::CoherentSystem> caches_;
  std::vector<std::unique_ptr<core::SimCore>> cores_;
  std::unique_ptr<fault::FaultInjector> injector_;
  const fault::HealthState* health_ = nullptr;
  std::unique_ptr<fault::Watchdog> watchdog_;
  std::vector<std::function<std::uint64_t()>> progress_terms_;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      diagnostics_;
  Totals baseline_;
  std::vector<coherence::CoherentSystem::AppCounters> app_baseline_;
  std::uint64_t folds_ = 0;
};

}  // namespace tdn::system
