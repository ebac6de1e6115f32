#include "system/tiled_system.hpp"

#include <sstream>
#include <string>

#include "common/prng.hpp"
#include "common/require.hpp"
#include "obs/recorder.hpp"

namespace tdn::system {

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::SNuca: return "S-NUCA";
    case PolicyKind::RNuca: return "R-NUCA";
    case PolicyKind::TdNuca: return "TD-NUCA";
    case PolicyKind::TdNucaBypassOnly: return "TD-NUCA(bypass-only)";
    case PolicyKind::TdNucaDryRun: return "TD-NUCA(dry-run)";
  }
  return "?";
}

std::uint64_t SystemConfig::fingerprint() const {
  // Serialize every field that affects simulation results and hash it.
  std::ostringstream os;
  os << mesh_w << '/' << mesh_h << '/' << static_cast<int>(policy) << '/'
     << static_cast<int>(scheduler) << '/' << hierarchy.l1.size_bytes << '/'
     << hierarchy.l1.associativity << '/' << hierarchy.l1.line_size << '/'
     << hierarchy.l1_latency << '/' << hierarchy.llc_bank.size_bytes << '/'
     << hierarchy.llc_bank.associativity << '/' << hierarchy.llc_latency << '/'
     << hierarchy.bank_service_interval << '/' << hierarchy.l1_mshrs << '/'
     << hierarchy.flush_lines_per_cycle << '/' << hierarchy.mshr_retry_delay
     << '/' << network.link_latency << '/' << network.router_latency << '/'
     << network.link_bytes_per_cycle << '/' << network.control_bytes << '/'
     << network.data_bytes << '/' << dram.access_latency << '/'
     << dram.service_interval << '/' << num_memory_controllers << '/'
     << page_table.page_size << '/' << page_table.fragmentation << '/'
     << page_table.seed << '/' << tlb.entries << '/' << tlb.hit_latency << '/'
     << tlb.miss_penalty << '/' << core.store_buffer_entries << '/'
     << core.store_issue_cost << '/' << core.load_window << '/'
     << core.load_issue_cost << '/' << runtime.dispatch_overhead << '/'
     << runtime.per_dep_overhead << '/' << runtime.dispatch_jitter << '/'
     << runtime.jitter_seed << '/' << tdnuca.rrt_entries << '/'
     << tdnuca.rrt_latency << '/' << tdnuca.bypass_only << '/'
     << rnuca.reclassification_penalty << '/' << rnuca.first_touch_penalty
     << '/' << hooks.decision_overhead << '/' << hooks.isa.per_rrt_slot << '/'
     << hooks.isa.issue_overhead << '/' << hooks.isa.flush_poll_overhead << '/'
     << hooks.dry_run << '/' << hooks.line_size << '/'
     << network.dead_link_backoff << '/' << network.dead_link_max_retries
     << '/' << fault::FaultPlan::parse(fault.plan).canonical() << '/'
     << fault.seed << '/' << fault.rrt_scrub_delay << '/' << vm.canonical();
  const std::string s = os.str();
  return fnv1a64(s.data(), s.size());
}

TiledSystem::TiledSystem(SystemConfig cfg, obs::Recorder* rec)
    : m_(cfg, MachineLayout{}, rec),
      app_(make_app_runtime(m_, tdnuca_policy(),
                            CoreMask::first_n(cfg.num_cores()),
                            /*jitter_salt=*/0)) {
  m_.observe(app_, "");
  if (nuca::TdNucaPolicy* td = tdnuca_policy(); td && m_.recorder()) {
    for (unsigned c = 0; c < cfg.num_cores(); ++c) {
      m_.recorder()->add_series(
          "rrt.core" + std::to_string(c) + ".entries",
          [td, c] { return static_cast<double>(td->rrt(c).size()); });
    }
  }
}

TiledSystem::~TiledSystem() = default;

Cycle TiledSystem::run(Cycle cycle_limit) {
  completed_ = false;
  m_.run(cycle_limit,
         [this] { app_.rt->run([this] { completed_ = true; }); });
  TDN_REQUIRE(completed_, "simulation drained without completing all tasks");
  m_.check_invariants(app_.td);
  return app_.rt->makespan();
}

energy::EnergyBreakdown TiledSystem::energy(
    const energy::EnergyParams& params) const {
  return energy::compute_energy(m_.energy_inputs(), params);
}

stats::Registry TiledSystem::collect_stats() const {
  stats::Registry r;
  m_.collect_stats(r);
  m_.collect_bank_stats(r);
  r.set("sim.cycles", static_cast<double>(app_.rt->makespan()));
  r.set("tasks.completed", static_cast<double>(app_.rt->tasks_completed()));
  // Closed runs also break translation and flush activity down per core.
  Cycle flush_cycles = 0;
  for (CoreId c = 0; c < config().num_cores(); ++c) {
    const vm::Mmu& m = m_.core(c).mmu();
    const std::string p = "mem.core" + std::to_string(c);
    r.set(p + ".tlb_hits", static_cast<double>(m.tlb_hits()));
    r.set(p + ".tlb_misses", static_cast<double>(m.tlb_misses()));
    r.set(p + ".tlb_shootdowns", static_cast<double>(m.tlb_shootdowns()));
    flush_cycles += m_.caches().flush_busy_cycles(c);
  }
  r.set("flush.busy_cycles", static_cast<double>(flush_cycles));
  const PolicySet& pol = m_.policies(0);
  if (pol.tdnuca) {
    r.set("rrt.mean_occupancy", pol.tdnuca->mean_rrt_occupancy());
    r.set("rrt.max_occupancy",
          static_cast<double>(pol.tdnuca->max_rrt_occupancy()));
    r.set("rrt.lookups", static_cast<double>(pol.tdnuca->rrt_hits() +
                                             pol.tdnuca->rrt_misses()));
  }
  if (const tdnuca::TdNucaRuntimeHooks* td = app_.td) {
    r.set("tdnuca.bypass_placements",
          static_cast<double>(td->bypass_placements()));
    r.set("tdnuca.local_placements",
          static_cast<double>(td->local_placements()));
    r.set("tdnuca.replicated_placements",
          static_cast<double>(td->replicated_placements()));
    r.set("tdnuca.runtime_overhead_cycles",
          static_cast<double>(td->runtime_overhead_cycles()));
    r.set("tdnuca.translate_pages",
          static_cast<double>(td->translate_pages()));
    r.set("tdnuca.translate_cycles",
          static_cast<double>(td->translate_cycles()));
  }
  if (pol.rnuca) {
    const auto c = pol.rnuca->census();
    r.set("rnuca.private_pages", static_cast<double>(c.private_pages));
    r.set("rnuca.shared_ro_pages", static_cast<double>(c.shared_ro_pages));
    r.set("rnuca.shared_pages", static_cast<double>(c.shared_pages));
  }
  if (const fault::HealthState* health = m_.health()) {
    // Only present with an active plan so healthy runs keep the pre-fault
    // key set (and thus byte-identical serialized results).
    const fault::FaultCounters& fc = health->counters;
    r.set("fault.banks_failed", static_cast<double>(fc.banks_failed));
    r.set("fault.banks_slowed", static_cast<double>(fc.banks_slowed));
    r.set("fault.links_failed", static_cast<double>(fc.links_failed));
    r.set("fault.links_degraded", static_cast<double>(fc.links_degraded));
    r.set("fault.bounced_requests",
          static_cast<double>(fc.bounced_requests));
    r.set("fault.dead_bank_writebacks",
          static_cast<double>(fc.dead_bank_writebacks));
    r.set("fault.evacuated_lines", static_cast<double>(fc.evacuated_lines));
    r.set("fault.evacuated_dirty", static_cast<double>(fc.evacuated_dirty));
    r.set("fault.rrt_entries_narrowed",
          static_cast<double>(fc.rrt_entries_narrowed));
    r.set("fault.rrt_entries_dropped",
          static_cast<double>(fc.rrt_entries_dropped));
    r.set("fault.rrt_corruptions", static_cast<double>(fc.rrt_corruptions));
    r.set("fault.rrt_evictions", static_cast<double>(fc.rrt_evictions));
    r.set("fault.rrt_scrubs", static_cast<double>(fc.rrt_scrubs));
    r.set("fault.noc_reroutes", static_cast<double>(fc.noc_reroutes));
    r.set("fault.noc_retries", static_cast<double>(fc.noc_retries));
    r.set("fault.dram_stalls", static_cast<double>(fc.dram_stalls));
    r.set("fault.healthy_banks",
          static_cast<double>(health->num_healthy()));
  }
  return r;
}

}  // namespace tdn::system
