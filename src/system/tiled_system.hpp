// TiledSystem — the closed run mode: one task graph on the whole machine.
// A thin driver on system::Machine (machine.hpp), which builds and owns the
// mesh, NoC, memory controllers, page table, NUCA policy, coherent cache
// hierarchy, timing cores and fault wiring; this class adds the one task
// dataflow runtime over every core, wired per the selected PolicyKind, and
// the closed run's extra statistics. This is the top-level object
// workloads and the benchmark harness interact with.
#pragma once

#include <memory>

#include "energy/energy_model.hpp"
#include "mem/address_space.hpp"
#include "system/machine.hpp"

namespace tdn::obs {
class Recorder;
}

namespace tdn::system {

class TiledSystem {
 public:
  /// @p rec (optional) is wired through every layer at construction: the
  /// runtime, TD-NUCA hooks and cache hierarchy emit trace events into it,
  /// and the system registers its epoch time-series probes and heatmap
  /// providers. run() arms the epoch sampler. The recorder observes only —
  /// results are bit-identical with and without one attached.
  explicit TiledSystem(SystemConfig cfg, obs::Recorder* rec = nullptr);
  ~TiledSystem();
  TiledSystem(const TiledSystem&) = delete;
  TiledSystem& operator=(const TiledSystem&) = delete;

  const SystemConfig& config() const noexcept { return m_.config(); }

  // --- the pieces workloads need ---------------------------------------
  mem::VirtualSpace& vspace() noexcept { return vspace_; }
  runtime::RuntimeSystem& runtime() noexcept { return *app_.rt; }

  // --- execution --------------------------------------------------------
  /// Run the created task graph to completion; returns the makespan cycle.
  /// @p cycle_limit guards against protocol deadlock in tests.
  Cycle run(Cycle cycle_limit = kNeverCycle);
  bool completed() const noexcept { return completed_; }

  // --- component access (stats, tests) ----------------------------------
  sim::EventQueue& events() noexcept { return m_.events(); }
  const noc::Mesh& mesh() const noexcept { return m_.mesh(); }
  noc::Network& network() noexcept { return m_.network(); }
  coherence::CoherentSystem& caches() noexcept { return m_.caches(); }
  mem::MemControllers& mcs() noexcept { return m_.mcs(); }
  mem::PageTable& page_table() noexcept { return m_.page_table(); }
  core::SimCore& core(CoreId id) { return m_.core(id); }

  /// Non-null only for the matching PolicyKind.
  nuca::TdNucaPolicy* tdnuca_policy() noexcept {
    return m_.policies(0).tdnuca.get();
  }
  nuca::RNucaPolicy* rnuca_policy() noexcept {
    return m_.policies(0).rnuca.get();
  }
  tdnuca::TdNucaRuntimeHooks* tdnuca_hooks() noexcept { return app_.td; }

  /// Non-null only when cfg.fault.plan is non-empty.
  fault::FaultInjector* fault_injector() noexcept {
    return m_.fault_injector();
  }
  /// Non-null only when cfg.fault.watchdog_budget > 0, once run() starts.
  fault::Watchdog* watchdog() noexcept { return m_.watchdog(); }

  energy::EnergyBreakdown energy(
      const energy::EnergyParams& params = {}) const;

  /// Export the run's headline statistics into a registry.
  stats::Registry collect_stats() const;

 private:
  Machine m_;
  mem::VirtualSpace vspace_;
  AppRuntime app_;
  bool completed_ = false;
};

}  // namespace tdn::system
