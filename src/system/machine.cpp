#include "system/machine.hpp"

#include <sstream>

#include "ckpt/codec.hpp"
#include "common/require.hpp"
#include "fault/invariant.hpp"
#include "multi/app_router.hpp"
#include "obs/recorder.hpp"

namespace tdn::system {

PolicySet::PolicySet(const SystemConfig& cfg, const noc::Mesh& mesh,
                     mem::PageTable& pt, bool rnuca_alternate) {
  const unsigned n = cfg.num_cores();
  const unsigned line = cfg.hierarchy.l1.line_size;
  switch (cfg.policy) {
    case PolicyKind::SNuca:
      snuca = std::make_unique<nuca::SNucaPolicy>(n, line);
      active = snuca.get();
      break;
    case PolicyKind::RNuca:
      rnuca = std::make_unique<nuca::RNucaPolicy>(mesh, n, pt, cfg.rnuca);
      active = rnuca.get();
      break;
    case PolicyKind::TdNuca:
    case PolicyKind::TdNucaBypassOnly: {
      auto td_cfg = cfg.tdnuca;
      td_cfg.bypass_only = (cfg.policy == PolicyKind::TdNucaBypassOnly);
      tdnuca = std::make_unique<nuca::TdNucaPolicy>(mesh, n, td_cfg);
      active = tdnuca.get();
      if (rnuca_alternate)
        rnuca = std::make_unique<nuca::RNucaPolicy>(mesh, n, pt, cfg.rnuca);
      break;
    }
    case PolicyKind::TdNucaDryRun:
      // Bookkeeping runs (the hooks) but the hierarchy behaves as S-NUCA.
      tdnuca = std::make_unique<nuca::TdNucaPolicy>(mesh, n, cfg.tdnuca);
      snuca = std::make_unique<nuca::SNucaPolicy>(n, line);
      active = snuca.get();
      break;
  }
}

AppRuntime make_app_runtime(Machine& m, nuca::TdNucaPolicy* td,
                            const CoreMask& cores, std::uint64_t jitter_salt) {
  const SystemConfig& cfg = m.config();
  AppRuntime a;
  switch (cfg.scheduler) {
    case SchedulerKind::Fifo:
      a.scheduler = std::make_unique<runtime::FifoScheduler>();
      break;
    case SchedulerKind::Affinity:
      a.scheduler = std::make_unique<runtime::AffinityScheduler>();
      break;
  }
  if (td != nullptr) {
    auto hooks_cfg = cfg.hooks;
    hooks_cfg.dry_run = (cfg.policy == PolicyKind::TdNucaDryRun);
    hooks_cfg.line_size = cfg.hierarchy.l1.line_size;
    auto hooks = std::make_unique<tdnuca::TdNucaRuntimeHooks>(
        *td, m.page_table(), cfg.num_cores(), hooks_cfg, m.recorder());
    if (m.health() != nullptr) hooks->set_health(m.health());
    a.td = hooks.get();
    a.hooks = std::move(hooks);
  } else {
    a.hooks = std::make_unique<runtime::RuntimeHooks>();
  }
  // Distinct jitter streams: co-scheduled runtimes must not mirror each
  // other's dispatch noise (and a shared stream would make results depend
  // on app completion interleaving).
  auto rt_cfg = cfg.runtime;
  rt_cfg.jitter_seed += 0x9E3779B97F4A7C15ull * jitter_salt;
  std::vector<core::SimCore*> core_ptrs;
  cores.for_each([&](CoreId c) { core_ptrs.push_back(&m.core(c)); });
  a.rt = std::make_unique<runtime::RuntimeSystem>(
      m.events(), std::move(core_ptrs), *a.scheduler, *a.hooks, rt_cfg,
      m.recorder());
  if (a.td != nullptr) a.td->set_runtime(a.rt.get());
  if (auto* aff = dynamic_cast<runtime::AffinityScheduler*>(a.scheduler.get()))
    aff->set_tasks(&a.rt->tasks());
  return a;
}

Machine::Machine(const SystemConfig& cfg, MachineLayout layout,
                 obs::Recorder* rec)
    : cfg_(cfg), rec_(rec), mesh_(cfg.mesh_w, cfg.mesh_h),
      page_table_(cfg.page_table, cfg.vm) {
  const unsigned n = cfg_.num_cores();
  TDN_REQUIRE(n > 0, "system needs at least one tile");
  TDN_REQUIRE(!layout.partitions.empty(), "a machine needs a partition");
  TDN_REQUIRE(layout.view || layout.partitions.size() == 1,
              "several partitions need an app view to route between them");

  net_ = std::make_unique<noc::Network>(mesh_, eq_, cfg_.network);

  // Memory controllers attach along the top and bottom mesh edges (where
  // the DDR PHYs sit on real tiled parts), alternating rows so traffic to
  // memory spreads instead of concentrating on corner links.
  std::vector<CoreId> mc_tiles;
  std::vector<CoreId> edge_tiles;
  for (unsigned x = 0; x < cfg_.mesh_w; ++x) {
    edge_tiles.push_back(x);                                    // top row
    edge_tiles.push_back((cfg_.mesh_h - 1) * cfg_.mesh_w + x);  // bottom row
  }
  for (unsigned i = 0; i < cfg_.num_memory_controllers; ++i)
    mc_tiles.push_back(edge_tiles[i % edge_tiles.size()]);
  mcs_ = std::make_unique<mem::MemControllers>(cfg_.num_memory_controllers,
                                               mc_tiles, cfg_.dram);

  // --- NUCA policies, one bundle per partition -----------------------------
  partitions_ = std::move(layout.partitions);
  policies_.reserve(partitions_.size());
  std::vector<nuca::MappingPolicy*> actives;
  for (const Partition& p : partitions_) {
    PolicySet& ps = policies_.emplace_back(cfg_, mesh_, page_table_,
                                           layout.rnuca_alternate);
    if (!p.banks.empty())
      ps.for_each([&](nuca::MappingPolicy& pol) {
        pol.set_partition(p.banks, p.cores);
      });
    actives.push_back(ps.active);
  }
  nuca::MappingPolicy* policy = policies_[0].active;
  if (layout.view) {
    router_ = std::make_unique<multi::AppRouter>(actives, layout.wrap);
    policy = router_.get();
  }
  caches_ = std::make_unique<coherence::CoherentSystem>(
      eq_, *net_, mesh_, *mcs_, *policy, cfg_.hierarchy, n, rec_);
  // The hierarchy hands its CacheOps to the policy it consults; every
  // policy needs them (R-NUCA reclassification, TD-NUCA flushes), routed,
  // dry-run bookkeeping and adaptive alternates included.
  for (PolicySet& ps : policies_)
    ps.for_each([&](nuca::MappingPolicy& pol) { pol.set_ops(caches_.get()); });
  if (layout.view) {
    coherence::CoherentSystem::AppView& view = *layout.view;
    view.num_apps = static_cast<unsigned>(partitions_.size());
    if (view.core_app.empty()) {
      view.core_app.resize(n);
      for (unsigned p = 0; p < partitions_.size(); ++p)
        partitions_[p].cores.for_each([&](CoreId c) {
          view.core_app[c] = static_cast<std::uint8_t>(p);
        });
    }
    app_baseline_.resize(view.num_apps);
    caches_->set_app_view(std::move(view));
  }

  // --- cores ---------------------------------------------------------------
  cores_.reserve(n);
  std::vector<vm::Mmu*> mmus;
  for (unsigned i = 0; i < n; ++i) {
    cores_.push_back(std::make_unique<core::SimCore>(
        i, eq_, *caches_, page_table_, cfg_.core, cfg_.tlb, cfg_.vm));
    mmus.push_back(&cores_.back()->mmu());
  }
  for (PolicySet& ps : policies_)
    if (ps.rnuca) ps.rnuca->set_mmus(mmus);

  // --- fault injection -----------------------------------------------------
  // Wiring only happens with a non-empty plan: every layer keeps a null
  // HealthState pointer otherwise, so an empty plan is bit-identical to a
  // build without fault support.
  if (!cfg_.fault.plan.empty()) {
    fault::FaultInjector::Targets t;
    t.eq = &eq_;
    t.mesh = &mesh_;
    t.net = net_.get();
    t.caches = caches_.get();
    t.mcs = mcs_.get();
    // RRT scrubs target the closed run's one RRT set. Routed partitions
    // each own theirs, and the policies' in-map health guards already mask
    // dead banks out of stale entries.
    t.tdnuca = router_ ? nullptr : policies_[0].tdnuca.get();
    t.rec = rec_;
    injector_ = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(cfg_.fault.plan), cfg_.fault, t, n,
        cfg_.hierarchy.l1.line_size);
    health_ = &injector_->health();
    for (PolicySet& ps : policies_)
      ps.for_each([&](nuca::MappingPolicy& pol) { pol.set_health(health_); });
    caches_->set_health(health_);
    net_->set_health(health_);
  }

  if (rec_ != nullptr) register_observability();
}

Machine::~Machine() = default;

void Machine::watch(std::function<std::uint64_t()> progress) {
  progress_terms_.push_back(std::move(progress));
}

void Machine::add_diagnostic(std::string name,
                             std::function<std::string()> fn) {
  diagnostics_.emplace_back(std::move(name), std::move(fn));
}

void Machine::observe(const AppRuntime& app, const std::string& prefix) {
  const AppRuntime* a = &app;
  watch([a] { return a->rt->tasks_completed(); });
  add_diagnostic(prefix + "runtime", [a] {
    std::ostringstream os;
    os << " ready_tasks=" << a->scheduler->size()
       << " tasks_completed=" << a->rt->tasks_completed();
    if (a->td) os << " pending_flushes=" << a->td->pending_flushes();
    return os.str();
  });
  if (rec_ == nullptr) return;
  rec_->add_series(prefix + "runtime.ready_tasks", [a] {
    return static_cast<double>(a->scheduler->size());
  });
  rec_->add_series(prefix + "tasks.completed", [a] {
    return static_cast<double>(a->rt->tasks_completed());
  });
}

void Machine::run(Cycle cycle_limit, const std::function<void()>& start,
                  std::optional<Cycle> resume) {
  // Restored lineage: jump the fresh queue's clock to the quiescent point
  // first, so everything below schedules at absolute post-restore cycles.
  if (resume) eq_.fast_forward(*resume);
  if (rec_ != nullptr) rec_->arm(eq_);
  // Scheduling order is load-bearing for same-cycle ties: plan events get
  // the lowest sequence numbers, before the driver's runtimes or arrivals,
  // in the original and every restored lineage alike.
  if (injector_) {
    if (resume)
      injector_->arm_from(*resume);
    else
      injector_->arm();
  }
  start();
  if (cfg_.fault.watchdog_budget > 0) {
    watchdog_ =
        std::make_unique<fault::Watchdog>(eq_, cfg_.fault.watchdog_budget);
    // Witness: memory-system traffic plus the driver's own progress. Any of
    // it moving within a budget window is forward progress; a checkpoint
    // fold resets the counters, which the inequality test also counts as
    // progress (a fold IS progress).
    watchdog_->set_progress([this] {
      const auto& cs = caches_->stats();
      std::uint64_t p = mcs_->total_accesses() + caches_->llc_accesses() +
                        cs.l1_hits.value() + cs.l1_misses.value();
      for (const auto& term : progress_terms_) p += term();
      return p;
    });
    watchdog_->add_diagnostic("mshr_outstanding", [this] {
      std::ostringstream os;
      for (unsigned c = 0; c < num_cores(); ++c)
        if (const auto v = caches_->mshr_outstanding(c); v != 0)
          os << " core" << c << '=' << v;
      return os.str().empty() ? std::string(" none") : os.str();
    });
    watchdog_->add_diagnostic("blocked_bank_lines", [this] {
      std::ostringstream os;
      for (unsigned b = 0; b < num_cores(); ++b)
        if (const auto v = caches_->bank_blocked_lines(b); v != 0)
          os << " bank" << b << '=' << v;
      return os.str().empty() ? std::string(" none") : os.str();
    });
    for (const auto& [name, fn] : diagnostics_)
      watchdog_->add_diagnostic(name, fn);
    watchdog_->arm();
  }
  eq_.run_until(cycle_limit);
}

void Machine::check_invariants(const tdnuca::TdNucaRuntimeHooks* hooks) const {
  if (!cfg_.fault.check_invariants) return;
  const fault::InvariantReport report = fault::check_invariants(
      *caches_, router_ ? nullptr : policies_[0].tdnuca.get(), hooks, health_,
      num_cores());
  TDN_CHECK(report.ok(), report.to_string());
}

// --- statistics ------------------------------------------------------------

std::uint64_t Machine::rrt_lookups() const {
  if (cfg_.policy == PolicyKind::TdNucaDryRun) return 0;
  std::uint64_t n = 0;
  for (const PolicySet& ps : policies_)
    if (ps.tdnuca) n += ps.tdnuca->rrt_hits() + ps.tdnuca->rrt_misses();
  return n;
}

Machine::Totals Machine::totals() const {
  // Integer counts combine as u64 before any double conversion, and 0 + x
  // and 0.0 + x are exact for the finite values here, so an unfolded run
  // reports exactly the live counters.
  Totals t = baseline_;
  const auto& cs = caches_->stats();
  t.llc_hits += cs.llc_hits.value();
  t.bypass_reads += cs.bypass_reads.value();
  t.noc_messages += net_->messages();
  t.en.llc_requests += cs.llc_requests.value();
  t.en.llc_misses += cs.llc_misses.value();
  t.en.llc_writebacks += cs.llc_writebacks.value();
  t.en.flush_llc_lines += cs.flush_llc_lines.value();
  t.en.l1_hits += cs.l1_hits.value();
  t.en.l1_misses += cs.l1_misses.value();
  t.en.flush_l1_lines += cs.flush_l1_lines.value();
  t.en.noc_router_bytes += net_->total_router_bytes();
  t.en.dram_accesses += mcs_->total_accesses();
  t.en.rrt_lookups += rrt_lookups();
  t.nuca_total += cs.nuca_distance.total();
  t.nuca_weight += cs.nuca_distance.weight();
  t.miss_lat_total += cs.miss_latency.total();
  t.miss_lat_weight += cs.miss_latency.weight();
  for (const auto& core : cores_) {
    const vm::Mmu& m = core->mmu();
    t.tlb_hits += m.tlb_hits();
    t.tlb_misses += m.tlb_misses();
    t.tlb_shootdowns += m.tlb_shootdowns();
    t.l2_tlb_hits += m.l2_tlb_hits();
    t.walks += m.walks();
    t.walk_loads += m.walk_loads();
    t.walk_cycles += m.walk_cycles();
    t.isa_walk_cycles += m.charge_walk_cycles();
    t.psc_hits += m.psc_hits();
  }
  t.huge_fallbacks += page_table_.huge_fallbacks();
  return t;
}

energy::EnergyInputs Machine::energy_inputs() const { return totals().en; }

void Machine::collect_stats(stats::Registry& r) const {
  const Totals t = totals();
  r.set("sim.events", static_cast<double>(t.events + eq_.executed()));
  r.set("l1.hits", static_cast<double>(t.en.l1_hits));
  r.set("l1.misses", static_cast<double>(t.en.l1_misses));
  r.set("llc.requests", static_cast<double>(t.en.llc_requests));
  r.set("llc.hits", static_cast<double>(t.llc_hits));
  r.set("llc.misses", static_cast<double>(t.en.llc_misses));
  r.set("llc.writebacks", static_cast<double>(t.en.llc_writebacks));
  r.set("llc.accesses",
        static_cast<double>(t.en.llc_requests + t.en.llc_writebacks));
  {
    const double h = static_cast<double>(t.llc_hits);
    const double m = static_cast<double>(t.en.llc_misses);
    r.set("llc.hit_ratio", (h + m) > 0 ? h / (h + m) : 0.0);
  }
  r.set("llc.bypass_reads", static_cast<double>(t.bypass_reads));
  r.set("nuca.mean_distance",
        t.nuca_weight > 0 ? t.nuca_total / t.nuca_weight : 0.0);
  r.set("l1.mean_miss_latency",
        t.miss_lat_weight > 0 ? t.miss_lat_total / t.miss_lat_weight : 0.0);
  r.set("noc.router_bytes", static_cast<double>(t.en.noc_router_bytes));
  r.set("noc.messages", static_cast<double>(t.noc_messages));
  r.set("dram.accesses", static_cast<double>(t.en.dram_accesses));

  // Translation aggregates. State-derived keys (page census) need no
  // folding: mappings and the buddy pool are part of a snapshot itself.
  r.set("tlb.hits", static_cast<double>(t.tlb_hits));
  r.set("tlb.misses", static_cast<double>(t.tlb_misses));
  r.set("mem.tlb_shootdowns", static_cast<double>(t.tlb_shootdowns));
  r.set("mem.mapped_pages", static_cast<double>(page_table_.mapped_pages()));
  r.set("mem.frames_used", static_cast<double>(page_table_.frames_used()));
  if (cfg_.vm.enabled) {
    // tdn::vm keys appear only when the subsystem is on so legacy runs keep
    // the pre-vm key set.
    r.set("vm.walks", static_cast<double>(t.walks));
    r.set("vm.walk_loads", static_cast<double>(t.walk_loads));
    r.set("vm.walk_cycles", static_cast<double>(t.walk_cycles));
    r.set("vm.isa_walk_cycles", static_cast<double>(t.isa_walk_cycles));
    r.set("vm.psc_hits", static_cast<double>(t.psc_hits));
    r.set("vm.l2_tlb_hits", static_cast<double>(t.l2_tlb_hits));
    r.set("vm.pages_4k",
          static_cast<double>(page_table_.pages_of(vm::kPage4K)));
    r.set("vm.pages_2m",
          static_cast<double>(page_table_.pages_of(vm::kPage2M)));
    r.set("vm.pages_1g",
          static_cast<double>(page_table_.pages_of(vm::kPage1G)));
    r.set("vm.huge_fallbacks", static_cast<double>(t.huge_fallbacks));
    r.set("vm.punctured_frames",
          static_cast<double>(page_table_.punctured_frames()));
  }

  const auto e = energy::compute_energy(t.en, energy::EnergyParams{});
  r.set("energy.llc_pj", e.llc_pj);
  r.set("energy.noc_pj", e.noc_pj);
  r.set("energy.dram_pj", e.dram_pj);
  r.set("energy.total_pj", e.total_pj());
}

coherence::CoherentSystem::AppCounters Machine::app_counters(
    unsigned app) const {
  coherence::CoherentSystem::AppCounters c = app_baseline_.at(app);
  const auto& live = caches_->app_counters(app);
  c.llc_requests += live.llc_requests;
  c.llc_hits += live.llc_hits;
  c.llc_misses += live.llc_misses;
  c.llc_writebacks += live.llc_writebacks;
  c.bypass_reads += live.bypass_reads;
  return c;
}

void Machine::collect_bank_stats(stats::Registry& r) const {
  r.set("cache.forced_unsafe_evictions",
        static_cast<double>(caches_->forced_unsafe_evictions()));
  for (unsigned b = 0; b < num_cores(); ++b) {
    const auto& bc = caches_->bank_counters(b);
    const std::string p = "llc.bank" + std::to_string(b);
    r.set(p + ".requests", static_cast<double>(bc.requests));
    r.set(p + ".hits", static_cast<double>(bc.hits));
    r.set(p + ".misses", static_cast<double>(bc.misses));
    r.set(p + ".writebacks", static_cast<double>(bc.writebacks));
  }
}

// --- checkpoint fold -------------------------------------------------------

void Machine::fold_counters() {
  // Double accumulation is not associative: the continuing run folds too,
  // so it and every restored lineage compute each metric from identical
  // operands.
  baseline_ = totals();
  for (unsigned a = 0; a < app_baseline_.size(); ++a)
    app_baseline_[a] = app_counters(a);
  for (auto& core : cores_) core->mmu().ckpt_reset_stats();
  page_table_.ckpt_reset_stats();
  caches_->ckpt_reset_stats();
  net_->ckpt_reset_stats();
  for (unsigned m = 0; m < mcs_->count(); ++m) mcs_->mc(m).ckpt_reset_stats();
  ++folds_;
}

void Machine::cold_normalize() {
  caches_->ckpt_cold_reset();
  // Stale TLB entries can never *match* a future request's slice (slices
  // are generation-unique), but their residency would skew replacement —
  // the restored lineage's TLBs are empty, so the continuing one's must be.
  // In vm mode this also clears the paging-structure caches, matching the
  // freshly constructed walkers on the restored side.
  for (auto& core : cores_) core->mmu().ckpt_cold_reset();
  for (PolicySet& ps : policies_) {
    if (ps.tdnuca) ps.tdnuca->ckpt_reset();
    if (ps.rnuca) ps.rnuca->ckpt_reset();
  }
  page_table_.ckpt_drop_mappings();
}

namespace {

/// Snapshot codec for one counter: u64 or a bit-exact double.
struct Write {
  ckpt::Encoder& e;
  void operator()(std::uint64_t v) const { e.u64(v); }
  void operator()(double v) const { e.f64(v); }
};
struct Read {
  ckpt::Decoder& d;
  void operator()(std::uint64_t& v) const { v = d.u64(); }
  void operator()(double& v) const { v = d.f64(); }
};

template <typename T, typename F>
void visit_app(T& c, F&& f) {
  for (auto* v : {&c.llc_requests, &c.llc_hits, &c.llc_misses,
                  &c.llc_writebacks, &c.bypass_reads})
    f(*v);
}

}  // namespace

void Machine::encode_baseline(ckpt::Encoder& e) const {
  // The fresh counters were just folded and reset, so the baseline alone is
  // the cumulative machine history. The events field carries a +1
  // compensation: the fold event executing right now is counted by the
  // live queue only after its action returns, but it belongs to the
  // restored lineage's past.
  Totals b = baseline_;
  b.events += eq_.executed() + 1;
  Totals::visit(b, Write{e});
  // Derived-PRNG position of the page allocator: a restored run's
  // first-touch allocations continue the exact fragmentation sample
  // sequence the snapshotted lineage would have drawn.
  const mem::PageTable::AllocState as = page_table_.alloc_state();
  e.u64(as.next_frame);
  e.u64(as.rng_state);
  e.u64_vec(as.skipped_frames);
  e.u64_vec(as.vm_words);
}

void Machine::encode_app_baseline(ckpt::Encoder& e, unsigned app) const {
  visit_app(app_baseline_.at(app), Write{e});
}

void Machine::decode_app_baseline(ckpt::Decoder& d, unsigned app) {
  visit_app(app_baseline_.at(app), Read{d});
}

void Machine::decode_baseline(ckpt::Decoder& d) {
  Totals::visit(baseline_, Read{d});
  mem::PageTable::AllocState as;
  as.next_frame = d.u64();
  as.rng_state = d.u64();
  as.skipped_frames = d.u64_vec();
  as.vm_words = d.u64_vec();
  page_table_.set_alloc_state(as);
}

// --- observability ---------------------------------------------------------

void Machine::register_observability() {
  const unsigned n = num_cores();
  rec_->attach_clock(&eq_);

  // --- latency attribution sinks -----------------------------------------
  // The coherence layer stamps through rec_->attribution() directly; the
  // NoC, DRAM and translation models additionally feed their own
  // histograms.
  if (obs::LatencyAttribution* attr = rec_->attribution()) {
    net_->set_transit_sinks(&attr->noc_transit(0), &attr->noc_transit(1));
    for (unsigned m = 0; m < mcs_->count(); ++m)
      mcs_->mc(m).set_queue_sink(&attr->dram_queue());
    for (const auto& c : cores_)
      c->mmu().set_obs_sinks(&attr->translation(), &attr->walk());
  }

  // --- trace tracks -----------------------------------------------------
  for (unsigned i = 0; i < n; ++i)
    rec_->set_track_name(i, "core " + std::to_string(i));
  rec_->set_track_name(obs::Recorder::kRuntimeTrack, "runtime");
  rec_->set_track_name(obs::Recorder::kFlushTrack, "flush engine");
  rec_->set_track_name(obs::Recorder::kCoherenceTrack, "coherence");

  // --- epoch time series -------------------------------------------------
  // Interval probes report per-epoch deltas of cumulative counters; gauges
  // read current state directly.
  for (unsigned b = 0; b < n; ++b) {
    rec_->add_series("llc.bank" + std::to_string(b) + ".hit_ratio",
                     [this, b, h = Interval{}, m = Interval{}]() mutable {
                       const auto& c = caches_->bank_counters(b);
                       const std::uint64_t dh = h.next(c.hits, folds_);
                       return hit_ratio(dh, m.next(c.misses, folds_));
                     });
    rec_->add_series("llc.bank" + std::to_string(b) + ".occupancy",
                     [this, b] {
                       return static_cast<double>(
                                  caches_->bank_occupied_lines(b)) /
                              static_cast<double>(
                                  caches_->bank_capacity_lines());
                     });
  }
  for (unsigned t = 0; t < n; ++t) {
    for (unsigned d = 0; d < noc::Network::kLinkDirs; ++d) {
      if (!net_->has_link(t, d)) continue;
      rec_->add_series(
          "noc.t" + std::to_string(t) + "." + noc::Network::dir_name(d) +
              ".util",
          [this, t, d, bytes = Interval{}]() mutable {
            const double delta =
                static_cast<double>(bytes.next(net_->link_bytes(t, d), folds_));
            const double cap =
                static_cast<double>(cfg_.network.link_bytes_per_cycle) *
                static_cast<double>(rec_->config().epoch_cycles);
            return cap > 0 ? delta / cap : 0.0;
          });
    }
  }
  for (unsigned c = 0; c < n; ++c) {
    rec_->add_series("mem.core" + std::to_string(c) + ".tlb_misses",
                     [this, c, misses = Interval{}]() mutable {
                       return static_cast<double>(misses.next(
                           cores_[c]->mmu().tlb_misses(), folds_));
                     });
  }
  rec_->add_series("mem.mapped_pages", [this] {
    return static_cast<double>(page_table_.mapped_pages());
  });
  rec_->add_series("mem.frames_used", [this] {
    return static_cast<double>(page_table_.frames_used());
  });
  if (cfg_.vm.enabled) {
    rec_->add_series("vm.walk_cycles",
                     [this, cycles = Interval{}]() mutable {
                       Cycle cur = 0;
                       for (const auto& c : cores_)
                         cur += c->mmu().walk_cycles();
                       return static_cast<double>(cycles.next(cur, folds_));
                     });
  }
  for (unsigned m = 0; m < cfg_.num_memory_controllers; ++m) {
    rec_->add_series("dram.mc" + std::to_string(m) + ".backlog", [this, m] {
      const auto& mc = mcs_->mc(m);
      const Cycle now = eq_.now();
      if (mc.busy_until() <= now) return 0.0;
      // Backlog horizon expressed in queued requests.
      return static_cast<double>(mc.busy_until() - now) /
             static_cast<double>(mc.config().service_interval);
    });
  }
  if (injector_) {
    rec_->set_track_name(obs::Recorder::kFaultTrack, "faults");
    rec_->add_series("fault.healthy_banks", [this] {
      return static_cast<double>(health_->num_healthy());
    });
    rec_->add_series("fault.bounced_requests", [this] {
      return static_cast<double>(health_->counters.bounced_requests);
    });
    rec_->add_series("fault.noc_reroutes", [this] {
      return static_cast<double>(health_->counters.noc_reroutes);
    });
  }

  // --- heatmaps -----------------------------------------------------------
  const unsigned w = cfg_.mesh_w;
  const unsigned h = cfg_.mesh_h;
  rec_->add_heatmap("llc_bank_accesses", w, h, [this, n] {
    std::vector<double> v(n);
    for (unsigned b = 0; b < n; ++b) {
      const auto& c = caches_->bank_counters(b);
      v[b] = static_cast<double>(c.requests + c.writebacks);
    }
    return v;
  });
  rec_->add_heatmap("llc_bank_hits", w, h, [this, n] {
    std::vector<double> v(n);
    for (unsigned b = 0; b < n; ++b)
      v[b] = static_cast<double>(caches_->bank_counters(b).hits);
    return v;
  });
  rec_->add_heatmap("noc_router_bytes", w, h, [this, n] {
    std::vector<double> v(n);
    for (unsigned t = 0; t < n; ++t)
      v[t] = static_cast<double>(net_->router_bytes_at(t));
    return v;
  });
  for (unsigned d = 0; d < noc::Network::kLinkDirs; ++d) {
    rec_->add_heatmap(
        std::string("noc_link_bytes_") + noc::Network::dir_name(d), w, h,
        [this, n, d] {
          std::vector<double> v(n);
          for (unsigned t = 0; t < n; ++t)
            v[t] = net_->has_link(t, d)
                       ? static_cast<double>(net_->link_bytes(t, d))
                       : 0.0;
          return v;
        });
  }
}

}  // namespace tdn::system
