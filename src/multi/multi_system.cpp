#include "multi/multi_system.hpp"

#include <string>

#include "common/require.hpp"
#include "obs/recorder.hpp"

namespace tdn::multi {

namespace {

/// Validate the mix and carve the machine into row-granular per-app
/// partitions (multi::row_partitions): app a owns mesh rows
/// [a*rpa, (a+1)*rpa).
system::MachineLayout colocation_layout(const system::SystemConfig& cfg,
                                        unsigned num_apps,
                                        const MultiOptions& opts) {
  const unsigned n = cfg.num_cores();
  TDN_REQUIRE(num_apps >= 1, "a mix needs at least one app");
  TDN_REQUIRE(num_apps <= n, "more apps than cores");
  TDN_REQUIRE(cfg.policy != system::PolicyKind::TdNucaDryRun,
              "TdNucaDryRun is a single-program overhead study; "
              "not supported in multiprogram mode");
  const std::vector<CoreMask> part =
      row_partitions(cfg.mesh_w, cfg.mesh_h, num_apps);
  const bool partitioned = opts.mode == PartitionMode::Partitioned;

  system::MachineLayout layout;
  layout.partitions.clear();
  for (unsigned a = 0; a < num_apps; ++a)
    layout.partitions.push_back({partitioned ? part[a] : BankMask{}, part[a]});

  // Per-app LLC accounting (+ optional way quotas).
  coherence::CoherentSystem::AppView& view = layout.view.emplace();
  if (opts.overlap_cores) {
    for (unsigned c = 0; c < n; ++c)  // home-app attribution
      view.core_app.push_back(static_cast<std::uint8_t>(c % num_apps));
  }
  if (partitioned && opts.ways_per_app > 0) {
    TDN_REQUIRE(num_apps * opts.ways_per_app <=
                    cfg.hierarchy.llc_bank.associativity,
                "way quotas exceed LLC associativity");
    view.ways.resize(num_apps);
    for (unsigned a = 0; a < num_apps; ++a)
      view.ways[a] = {a * opts.ways_per_app, opts.ways_per_app};
  }
  return layout;
}

}  // namespace

MultiProgramSystem::MultiProgramSystem(system::SystemConfig cfg, MixSpec mix,
                                       MultiOptions opts, obs::Recorder* rec)
    : opts_(opts),
      m_(cfg,
         colocation_layout(cfg, static_cast<unsigned>(mix.apps.size()), opts),
         rec) {
  const unsigned n = cfg.num_cores();
  const unsigned num_apps = static_cast<unsigned>(mix.apps.size());
  apps_.reserve(num_apps);
  for (unsigned a = 0; a < num_apps; ++a) {
    apps_.push_back(std::make_unique<App>(a * kAppStride + mem::kHeapBase));
    App& app = *apps_.back();
    app.workload_name = mix.apps[a];
    app.cores =
        opts_.overlap_cores ? CoreMask::first_n(n) : m_.partition(a).cores;
    app.runtime = system::make_app_runtime(m_, m_.policies(a).tdnuca.get(),
                                           app.cores, a);
    m_.observe(app.runtime, "app" + std::to_string(a) + ".");
  }

  if (rec == nullptr) return;
  // Machine-level series and heatmaps come from system::Machine, exactly as
  // in a single-app run; these are the colocation extras.
  const unsigned w = config().mesh_w;
  const unsigned h = config().mesh_h;
  rec->add_heatmap("cross_app_conflicts", w, h, [this, n] {
    std::vector<double> v(n);
    for (unsigned b = 0; b < n; ++b)
      v[b] = static_cast<double>(m_.caches().bank_cross_app_conflicts(b));
    return v;
  });
  const double cap = static_cast<double>(m_.caches().bank_capacity_lines()) *
                     static_cast<double>(n);
  for (unsigned a = 0; a < num_apps; ++a) {
    // Where each app's footprint actually lives — the colocation heatmap.
    rec->add_heatmap("app" + std::to_string(a) + "_resident_lines", w, h,
                     [this, a, n] {
                       std::vector<double> v(n);
                       for (unsigned b = 0; b < n; ++b)
                         v[b] = static_cast<double>(
                             m_.caches().app_resident_lines(a, b));
                       return v;
                     });
  }
  for (unsigned a = 0; a < num_apps; ++a) {
    const std::string p = "app" + std::to_string(a);
    rec->add_series(p + ".llc.occupancy", [this, a, cap] {
      return static_cast<double>(m_.caches().app_resident_lines(a)) / cap;
    });
    rec->add_series(
        p + ".llc.hit_ratio",
        [this, a, h = system::Interval{}, m = system::Interval{}]() mutable {
          const auto& c = m_.caches().app_counters(a);
          const std::uint64_t dh = h.next(c.llc_hits, m_.folds());
          return system::hit_ratio(dh, m.next(c.llc_misses, m_.folds()));
        });
  }
  rec->add_series("multi.cross_app_conflicts", [this] {
    return static_cast<double>(m_.caches().cross_app_conflicts());
  });
}

MultiProgramSystem::~MultiProgramSystem() = default;

void MultiProgramSystem::build(const workloads::WorkloadParams& params) {
  TDN_REQUIRE(!built_, "build() already called");
  built_ = true;
  for (unsigned a = 0; a < num_apps(); ++a) {
    App& app = *apps_[a];
    workloads::WorkloadParams p = params;
    // Decorrelate identical workloads: "gauss+gauss" must model two
    // independent instances, not one program mirrored.
    p.seed = params.seed + 1000003ull * a;
    app.workload = workloads::make_workload(app.workload_name, p);
    app.workload->build(
        workloads::BuildContext{app.vspace, *app.runtime.rt});
    TDN_REQUIRE(app.vspace.footprint() < kAppStride,
                "app footprint overflows its address-space slot");
  }
}

Cycle MultiProgramSystem::run(Cycle cycle_limit) {
  TDN_REQUIRE(built_, "call build() before run()");
  completed_ = false;
  unsigned remaining = num_apps();
  m_.run(cycle_limit, [this, &remaining] {
    for (unsigned a = 0; a < num_apps(); ++a) {
      apps_[a]->done = false;
      apps_[a]->runtime.rt->run([this, a, &remaining] {
        apps_[a]->done = true;
        if (--remaining == 0) completed_ = true;
      });
    }
    if (opts_.overlap_cores) {
      // Apps contend for cores task-by-task: when one app frees a core,
      // every co-runner gets a chance to claim it.
      for (unsigned a = 0; a < num_apps(); ++a) {
        apps_[a]->runtime.rt->set_on_task_complete([this, a] {
          for (unsigned b = 0; b < num_apps(); ++b)
            if (b != a && !apps_[b]->done) apps_[b]->runtime.rt->kick();
        });
      }
    }
  });
  TDN_REQUIRE(completed_, "mix drained without completing every app");
  for (const auto& app : apps_) m_.check_invariants(app->runtime.td);
  Cycle makespan = 0;
  for (const auto& app : apps_)
    makespan = std::max(makespan, app->runtime.rt->makespan());
  return makespan;
}

stats::Registry MultiProgramSystem::collect_stats() const {
  stats::Registry r;
  const unsigned n = m_.num_cores();
  const coherence::CoherentSystem& caches = m_.caches();
  m_.collect_stats(r);
  m_.collect_bank_stats(r);
  for (unsigned b = 0; b < n; ++b)
    r.set("llc.bank" + std::to_string(b) + ".cross_app_conflicts",
          static_cast<double>(caches.bank_cross_app_conflicts(b)));

  Cycle makespan = 0;
  std::size_t tasks = 0;
  for (const auto& app : apps_) {
    makespan = std::max(makespan, app->runtime.rt->makespan());
    tasks += app->runtime.rt->tasks_completed();
  }
  r.set("sim.cycles", static_cast<double>(makespan));
  r.set("tasks.completed", static_cast<double>(tasks));

  // --- colocation aggregates -------------------------------------------
  r.set("multi.num_apps", static_cast<double>(num_apps()));
  r.set("multi.ways_per_app", static_cast<double>(opts_.ways_per_app));
  r.set("multi.partitioned",
        opts_.mode == PartitionMode::Partitioned ? 1.0 : 0.0);
  r.set("multi.overlap_cores", opts_.overlap_cores ? 1.0 : 0.0);
  r.set("multi.cross_app_conflicts",
        static_cast<double>(caches.cross_app_conflicts()));

  // --- per-app namespaces -----------------------------------------------
  const double llc_cap = static_cast<double>(caches.bank_capacity_lines()) *
                         static_cast<double>(n);
  for (unsigned a = 0; a < num_apps(); ++a) {
    const App& app = *apps_[a];
    const std::string p = "app" + std::to_string(a);
    r.set(p + ".sim.cycles", static_cast<double>(app.runtime.rt->makespan()));
    r.set(p + ".tasks.completed",
          static_cast<double>(app.runtime.rt->tasks_completed()));
    r.set(p + ".cores", static_cast<double>(app.cores.count()));
    const BankMask& banks = app_banks(a);
    r.set(p + ".banks",
          static_cast<double>(banks.empty() ? n : banks.count()));
    const auto ac = m_.app_counters(a);
    r.set(p + ".llc.requests", static_cast<double>(ac.llc_requests));
    r.set(p + ".llc.hits", static_cast<double>(ac.llc_hits));
    r.set(p + ".llc.misses", static_cast<double>(ac.llc_misses));
    r.set(p + ".llc.writebacks", static_cast<double>(ac.llc_writebacks));
    r.set(p + ".llc.bypass_reads", static_cast<double>(ac.bypass_reads));
    r.set(p + ".llc.hit_ratio",
          (ac.llc_hits + ac.llc_misses) > 0
              ? static_cast<double>(ac.llc_hits) /
                    static_cast<double>(ac.llc_hits + ac.llc_misses)
              : 0.0);
    const std::uint64_t resident = caches.app_resident_lines(a);
    r.set(p + ".llc.resident_lines", static_cast<double>(resident));
    r.set(p + ".llc.occupancy", static_cast<double>(resident) / llc_cap);
    if (const nuca::TdNucaPolicy* td = m_.policies(a).tdnuca.get()) {
      r.set(p + ".rrt.lookups",
            static_cast<double>(td->rrt_hits() + td->rrt_misses()));
    }
    const auto& ws = app.workload->stats();
    r.set(p + ".workload.input_bytes", static_cast<double>(ws.input_bytes));
    r.set(p + ".workload.num_tasks", static_cast<double>(ws.num_tasks));
    r.set(p + ".workload.num_phases", static_cast<double>(ws.num_phases));
  }
  return r;
}

}  // namespace tdn::multi
