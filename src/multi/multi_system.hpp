// MultiProgramSystem — N independent task-dataflow applications colocated on
// one shared machine substrate (DESIGN.md Sec. 3, docs/multiprog.md).
//
// A thin driver on system::Machine, which owns everything the apps share:
// the event queue, mesh/NoC, memory controllers, page table, the banked
// coherent LLC, and one NUCA policy bundle per app (own RRTs / page
// classifications). Per app this class adds a workload, an offset virtual
// address space (mix.hpp's kAppStride keeps streams alias-free) and a
// runtime over that app's core partition. The machine's AppRouter presents
// the per-app policies to the hierarchy as one; the CoherentSystem's
// AppView provides per-app LLC counters, optional way quotas and inter-app
// bank-conflict accounting.
//
// Determinism: one single-threaded event loop drives all apps, per-app PRNG
// seeds derive from the app index alone, so mixes are bit-identical across
// repeated runs and SweepRunner job counts — and cacheable like any run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "multi/mix.hpp"
#include "system/machine.hpp"
#include "workloads/workload.hpp"

namespace tdn::obs {
class Recorder;
}

namespace tdn::multi {

class MultiProgramSystem {
 public:
  /// Builds the machine and the per-app runtimes; call build() to create
  /// the task graphs and run() to execute them. @p cfg.policy selects the
  /// NUCA policy *every* app runs (the colocation benchmarks compare
  /// policies, not mixed-policy systems); TdNucaDryRun is not supported.
  /// @p rec (optional) observes only, as in TiledSystem.
  MultiProgramSystem(system::SystemConfig cfg, MixSpec mix,
                     MultiOptions opts = {}, obs::Recorder* rec = nullptr);
  ~MultiProgramSystem();
  MultiProgramSystem(const MultiProgramSystem&) = delete;
  MultiProgramSystem& operator=(const MultiProgramSystem&) = delete;

  /// Instantiate every app's workload into its own runtime and offset
  /// address space. Per-app seeds are derived from @p params.seed and the
  /// app index, so two copies of the same workload never run in lockstep.
  void build(const workloads::WorkloadParams& params);

  /// Run all apps to completion; returns the mix makespan (the cycle the
  /// last app finished). @p cycle_limit guards tests against deadlock.
  Cycle run(Cycle cycle_limit = kNeverCycle);
  bool completed() const noexcept { return completed_; }

  // --- introspection ----------------------------------------------------
  unsigned num_apps() const noexcept {
    return static_cast<unsigned>(apps_.size());
  }
  const std::string& app_name(unsigned a) const {
    return apps_.at(a)->workload_name;
  }
  mem::VirtualSpace& app_vspace(unsigned a) { return apps_.at(a)->vspace; }
  runtime::RuntimeSystem& app_runtime(unsigned a) {
    return *apps_.at(a)->runtime.rt;
  }
  const CoreMask& app_cores(unsigned a) const { return apps_.at(a)->cores; }
  /// Empty in Shared mode (whole LLC).
  const BankMask& app_banks(unsigned a) const {
    return m_.partition(a).banks;
  }
  /// The app's completion cycle (its slowdown numerator in WS/ANTT).
  Cycle app_makespan(unsigned a) const {
    return apps_.at(a)->runtime.rt->makespan();
  }
  const workloads::WorkloadStats& app_workload_stats(unsigned a) const {
    return apps_.at(a)->workload->stats();
  }
  nuca::TdNucaPolicy* app_tdnuca_policy(unsigned a) {
    return m_.policies(a).tdnuca.get();
  }

  sim::EventQueue& events() noexcept { return m_.events(); }
  coherence::CoherentSystem& caches() noexcept { return m_.caches(); }
  const system::SystemConfig& config() const noexcept { return m_.config(); }
  const MultiOptions& options() const noexcept { return opts_; }
  fault::FaultInjector* fault_injector() noexcept {
    return m_.fault_injector();
  }
  /// Non-null only when config().fault.watchdog_budget > 0, once run()
  /// starts.
  fault::Watchdog* watchdog() noexcept { return m_.watchdog(); }

  /// Global keys mirror TiledSystem::collect_stats; per-app metrics are
  /// namespaced appK.* (appK.sim.cycles, appK.llc.requests, ...), and the
  /// colocation aggregates live under multi.* — see docs/multiprog.md.
  stats::Registry collect_stats() const;

 private:
  struct App {
    explicit App(Addr vspace_base) : vspace(vspace_base) {}
    std::string workload_name;
    mem::VirtualSpace vspace;
    CoreMask cores;
    system::AppRuntime runtime;
    std::unique_ptr<workloads::Workload> workload;
    bool done = false;
  };


  MultiOptions opts_;
  system::Machine m_;
  std::vector<std::unique_ptr<App>> apps_;

  bool built_ = false;
  bool completed_ = false;
};

}  // namespace tdn::multi
