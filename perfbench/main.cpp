// tdn_perfbench — end-to-end benchmark of the TD-NUCA simulator.
//
//   tdn_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--out DIR]
//
// Drives the library's public entry points from outside, on one thread and
// one process: system::TiledSystem with workloads::make_workload /
// Workload::build for the closed workloads, serve::ServeSystem for the
// serving one. Nothing goes through harness::run_experiment, so no run reads
// or writes the on-disk ResultsCache; the only files written are the report
// and span files under --out.
//
// Workloads (perfbench/README.md gives the reasons):
//   closed_llc     gauss, histo, knn x S-NUCA, R-NUCA, TD-NUCA, scale 1.0
//   closed_bypass  jacobi, md5, redblack, kmeans x TD-NUCA, scale 1.0
//   serve_open     ServeSystem, TD-NUCA, Reject admission: one gauss and
//                  one histo service on fixed-gap open arrivals, below the
//                  knee
//
// Every simulated cache starts empty. A run first times repeated set-ups
// (construction + task-graph build) of every case, then runs the
// cases in rotation until one full pass plus one repeat has run and
// --seconds have passed. Host metrics take each case's median over its
// repeats; simulated metrics come from the first run of each case, and every
// repeat must reproduce them bit for bit.
//
// --trace 1 additionally runs one traced pass (host spans around every layer
// call, the latency-attribution recorder on) and the per-layer kernels, and
// prints the per-layer metrics instead of the end-to-end ones. The last line
// of standard output is always one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value":
//    X, "unit": U}, ...}}
// Exit status: 0 after a result is printed, 2 on a usage error, 1 when
// set-up outside the timed runs throws (no result is printed then).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "fault/invariant.hpp"
#include "harness/runner.hpp"
#include "kernels.hpp"
#include "multi/mix.hpp"
#include "obs/attribution.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/recorder.hpp"
#include "serve/serve_system.hpp"
#include "spans.hpp"
#include "system/tiled_system.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace tdn;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;
using system::PolicyKind;

/// The harness default seed (WorkloadParams::seed). With it every seeded
/// input — workload sampling, page placement, dispatch jitter, the serving
/// arrival trace — is exactly what the figure harness uses.
constexpr std::uint64_t kDefaultSeed = workloads::WorkloadParams{}.seed;
/// Seed kept out of tuning, for checking a claim on unseen inputs.
constexpr std::uint64_t kHeldOutSeed = 9001;
/// setup_s is the median over set-up rounds (every case constructed and
/// built once per round): at least kSetupRounds rounds, and more until
/// kSetupSeconds have been spent, so sub-millisecond set-ups get a steady
/// median too.
constexpr int kSetupRounds = 5;
constexpr int kMaxSetupRounds = 200;
constexpr double kSetupSeconds = 0.5;

// serve_open: request task graphs at 1/50 of the closed-run footprint (the
// bench_fig_serving setting) arriving on a fixed open-loop schedule. Each
// tenant's gap puts its 2 worker slots at a utilization of ~0.75, below the
// knee (mean service: ~344k cycles per gauss request, ~205k per histo one).
constexpr double kServeRequestScale = 0.02;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "tdn_perfbench: %s\n"
               "usage: tdn_perfbench --workload closed_llc|closed_bypass|"
               "serve_open [--seed N] [--seconds S] [--trace 0|1] "
               "[--out DIR]\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || end == v.c_str() || *end != '\0')
    usage(flag + " needs a non-negative integer, got '" + v + "'");
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, v);
      if (s < 1 || s > 600) usage("--seconds must be in [1, 600]");
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// --- workloads --------------------------------------------------------------

/// One simulation the workload runs. Serving cases name an arrival spec
/// and a horizon; closed cases leave them empty.
struct CaseDef {
  const char* workload;
  PolicyKind policy;
  const char* arrival = nullptr;
  Cycle horizon = 0;
};

struct WorkloadDef {
  const char* name;
  bool serve;
  std::vector<CaseDef> cases;
};

std::vector<CaseDef> closed_cases(std::vector<const char*> benches,
                                  std::vector<PolicyKind> policies) {
  std::vector<CaseDef> out;
  for (const char* b : benches) {
    for (const PolicyKind p : policies) out.push_back({b, p});
  }
  return out;
}

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"closed_llc", false,
       closed_cases({"gauss", "histo", "knn"},
                    {PolicyKind::SNuca, PolicyKind::RNuca,
                     PolicyKind::TdNuca})},
      {"closed_bypass", false,
       closed_cases({"jacobi", "md5", "redblack", "kmeans"},
                    {PolicyKind::TdNuca})},
      // One single-tenant service per tenant. A histo request costs ~8x
      // the host time of a gauss one, so gauss gets 3x the requests.
      {"serve_open", true,
       {{"gauss", PolicyKind::TdNuca, "fixed:gap=230k", 14'000'000},
        {"histo", PolicyKind::TdNuca, "fixed:gap=140k", 2'900'000}}},
  };
  return defs;
}

/// --seed drives the workload seed, the physical page-placement seed and the
/// runtime's dispatch-jitter seed. The latter two are shifted by a multiple
/// of the seed's distance from kDefaultSeed, so kDefaultSeed leaves them at
/// their defaults.
void apply_seed(harness::RunConfig& cfg, std::uint64_t seed) {
  const std::uint64_t shift = (seed - kDefaultSeed) * 0x9E3779B97F4A7C15ull;
  cfg.params.seed = seed;
  cfg.sys.page_table.seed += shift;
  cfg.sys.runtime.jitter_seed += shift;
}

std::vector<harness::RunConfig> make_cases(const WorkloadDef& def,
                                           std::uint64_t seed) {
  std::vector<harness::RunConfig> cases;
  for (const CaseDef& c : def.cases) {
    harness::RunConfig cfg;
    cfg.workload = c.workload;
    cfg.policy = c.policy;
    cfg.sys.policy = c.policy;
    if (c.arrival != nullptr) {
      cfg.serve.arrival = c.arrival;
      cfg.serve.horizon = c.horizon;
      cfg.serve.request_scale = kServeRequestScale;
      cfg.serve.admission = serve::AdmissionPolicy::Reject;
    }
    apply_seed(cfg, seed);
    cases.push_back(std::move(cfg));
  }
  return cases;
}

// --- one simulation run ------------------------------------------------------

constexpr unsigned kAttrComponents = obs::LatencyAttribution::kComponents;

struct RunOutcome {
  // Host seconds per phase.
  double ctor_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  double collect_s = 0.0;
  double teardown_s = 0.0;
  /// The run's registry plus counts the benchmark reads from the layers
  /// (core.accesses, core.stalls, runtime.tasks_built).
  std::map<std::string, double> m;
  /// Simulated sojourn: per task (ready -> retire) in closed runs, per
  /// request (arrival -> completion) in serving runs.
  obs::LatencyHistogram sojourn;
  /// Latency-attribution cycles per component (traced runs only).
  std::array<double, kAttrComponents> attr{};
  std::vector<std::string> failures;
  std::uint64_t digest = 0;

  double wall_s() const {
    return ctor_s + build_s + run_s + collect_s + teardown_s;
  }
  double get(const std::string& key) const {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  }
};

/// Phase timer: each lap() returns seconds since the previous one.
class Laps {
 public:
  double lap() {
    const auto now = Clock::now();
    const double s = std::chrono::duration<double>(now - t_).count();
    t_ = now;
    return s;
  }
  void reset() { t_ = Clock::now(); }

 private:
  Clock::time_point t_ = Clock::now();
};

std::uint64_t digest_of(const RunOutcome& o) {
  std::string s;
  char buf[64];
  for (const auto& [k, v] : o.m) {
    std::snprintf(buf, sizeof buf, "=%.17g\n", v);
    s += k;
    s += buf;
  }
  for (const double q : {0.5, 0.9, 0.99, 1.0}) {
    std::snprintf(buf, sizeof buf, "q%g=%llu\n", q,
                  static_cast<unsigned long long>(o.sojourn.percentile(q)));
    s += buf;
  }
  return fnv1a64(s.data(), s.size());
}

void expect(RunOutcome& o, bool ok, const std::string& what) {
  if (!ok) o.failures.push_back(what);
}

void take_attribution(const obs::Recorder* rec, RunOutcome& o) {
  if (rec == nullptr || rec->attribution() == nullptr) return;
  for (unsigned c = 0; c < kAttrComponents; ++c) {
    o.attr[c] = static_cast<double>(
        rec->attribution()
            ->component(static_cast<obs::LatencyComponent>(c))
            .sum());
  }
}

void check_closed(system::TiledSystem& sys, const workloads::Workload& wl,
                  RunOutcome& o) {
  std::uint64_t accesses = 0, stalls = 0;
  const unsigned cores = sys.config().num_cores();
  for (CoreId c = 0; c < cores; ++c) {
    const core::SimCore& core = sys.core(c);
    accesses += core.loads() + core.stores();
    stalls += core.store_buffer_stalls() + core.load_window_stalls();
  }
  o.m["core.accesses"] = static_cast<double>(accesses);
  o.m["core.stalls"] = static_cast<double>(stalls);
  const auto& tasks = sys.runtime().tasks();
  o.m["runtime.tasks_built"] = static_cast<double>(tasks.size());
  for (const runtime::Task& t : tasks)
    o.sojourn.add(t.finished_at - t.ready_at);

  expect(o, sys.completed(), "run() returned without completing");
  const fault::HealthState* health =
      sys.fault_injector() != nullptr ? &sys.fault_injector()->health()
                                      : nullptr;
  const fault::InvariantReport inv =
      fault::check_invariants(sys.caches(), sys.tdnuca_policy(),
                              sys.tdnuca_hooks(), health, cores);
  expect(o, inv.ok(), "invariant checker: " + inv.to_string());
  expect(o, o.get("tasks.completed") == static_cast<double>(tasks.size()),
         "tasks completed != tasks built");
  expect(o, tasks.size() == wl.stats().num_tasks,
         "runtime task count != the workload's own count");
  expect(o, accesses > 0, "no simulated accesses");
}

RunOutcome run_closed(const harness::RunConfig& cfg, Tracer* tr, int run,
                      obs::Recorder* rec) {
  RunOutcome o;
  ScopedSpan whole(tr, "run", run);
  try {
    Laps t;
    std::unique_ptr<system::TiledSystem> sys;
    std::unique_ptr<workloads::Workload> wl;
    {
      ScopedSpan s(tr, "system.ctor", run);
      sys = std::make_unique<system::TiledSystem>(cfg.sys, rec);
    }
    o.ctor_s = t.lap();
    {
      ScopedSpan s(tr, "workloads.build", run);
      wl = workloads::make_workload(cfg.workload, cfg.params);
      wl->build(*sys);
    }
    o.build_s = t.lap();
    {
      ScopedSpan s(tr, "sim.run", run);
      sys->run();
    }
    o.run_s = t.lap();
    {
      ScopedSpan s(tr, "stats.collect", run);
      o.m = sys->collect_stats().all();
    }
    o.collect_s = t.lap();
    check_closed(*sys, *wl, o);
    take_attribution(rec, o);
    t.reset();
    {
      ScopedSpan s(tr, "system.teardown", run);
      wl.reset();
      sys.reset();
    }
    o.teardown_s = t.lap();
  } catch (const std::exception& e) {
    o.failures.push_back(std::string("exception: ") + e.what());
  }
  o.digest = digest_of(o);
  return o;
}

void check_serve(const serve::ServeSystem& ss, const harness::RunConfig& cfg,
                 RunOutcome& o) {
  o.m["core.accesses"] = o.get("l1.hits") + o.get("l1.misses");
  o.sojourn = ss.sojourn();
  const double offered = o.get("serve.offered");
  const double admitted = o.get("serve.admitted");
  const double shed = o.get("serve.shed");
  const double done = o.get("serve.completed");
  expect(o, ss.completed(), "run() returned without completing");
  expect(o, offered > 0, "no requests arrived");
  expect(o, offered == admitted + shed, "offered != admitted + shed");
  expect(o, admitted == done, "an admitted request never completed");
  double t_offered = 0, t_shed = 0, t_done = 0;
  for (unsigned t = 0; t < ss.num_tenants(); ++t) {
    const std::string p = "serve.tenant" + std::to_string(t);
    t_offered += o.get(p + ".offered");
    t_shed += o.get(p + ".shed");
    t_done += o.get(p + ".completed");
  }
  expect(o, t_offered == offered, "per-tenant offered does not sum to total");
  expect(o, t_shed == shed, "per-tenant shed does not sum to total");
  expect(o, t_done == done, "per-tenant completed does not sum to total");
  expect(o, o.get("serve.queue.max_depth") <= cfg.serve.max_pending,
         "pending queue exceeded its bound");
  expect(o, static_cast<double>(ss.sojourn().count()) == done,
         "sojourn samples != completed requests");
  const double p50 = o.get("serve.sojourn.p50");
  const double p99 = o.get("serve.sojourn.p99");
  const double p999 = o.get("serve.sojourn.p999");
  expect(o, p50 > 0 && p99 >= p50 && p999 >= p99,
         "sojourn percentiles are not ordered");
  expect(o, o.get("tasks.completed") > 0, "no request task graph executed");
  expect(o, o.get("core.accesses") > 0, "no simulated accesses");
}

RunOutcome run_serve(const harness::RunConfig& cfg, Tracer* tr, int run,
                     obs::Recorder* rec) {
  RunOutcome o;
  ScopedSpan whole(tr, "run", run);
  try {
    Laps t;
    std::unique_ptr<serve::ServeSystem> ss;
    {
      ScopedSpan s(tr, "system.ctor", run);
      ss = std::make_unique<serve::ServeSystem>(
          cfg.sys, multi::MixSpec::parse(cfg.workload), cfg.serve, rec);
    }
    o.ctor_s = t.lap();
    {
      ScopedSpan s(tr, "workloads.build", run);
      ss->build(cfg.params);
    }
    o.build_s = t.lap();
    {
      ScopedSpan s(tr, "serve.run", run);
      ss->run();
    }
    o.run_s = t.lap();
    {
      ScopedSpan s(tr, "stats.collect", run);
      o.m = ss->collect_stats().all();
    }
    o.collect_s = t.lap();
    check_serve(*ss, cfg, o);
    take_attribution(rec, o);
    t.reset();
    {
      ScopedSpan s(tr, "system.teardown", run);
      ss.reset();
    }
    o.teardown_s = t.lap();
  } catch (const std::exception& e) {
    o.failures.push_back(std::string("exception: ") + e.what());
  }
  o.digest = digest_of(o);
  return o;
}

RunOutcome run_case(const harness::RunConfig& cfg, Tracer* tr, int run,
                    obs::Recorder* rec) {
  return cfg.serve.enabled() ? run_serve(cfg, tr, run, rec)
                             : run_closed(cfg, tr, run, rec);
}

/// Host seconds to construct the machine and build the task graph of @p cfg
/// (the set-up every run pays), excluding the teardown.
double time_setup(const harness::RunConfig& cfg) {
  const auto t0 = Clock::now();
  auto elapsed = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  if (cfg.serve.enabled()) {
    serve::ServeSystem ss(cfg.sys, multi::MixSpec::parse(cfg.workload),
                          cfg.serve);
    ss.build(cfg.params);
    return elapsed();
  }
  system::TiledSystem sys(cfg.sys);
  auto wl = workloads::make_workload(cfg.workload, cfg.params);
  wl->build(sys);
  return elapsed();
}

// --- the measured section ---------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Measured {
  std::vector<harness::RunConfig> cases;
  std::vector<std::vector<RunOutcome>> samples;  ///< per case, in run order
  std::vector<double> setup_rounds;  ///< per round, summed over cases
  int attempted = 0;
  int failed = 0;

  const RunOutcome& first(std::size_t c) const { return samples[c].front(); }
  /// Host seconds for one pass over every case: the sum of each case's
  /// median run.
  double pass_wall_s() const {
    double s = 0.0;
    for (const auto& runs : samples) {
      std::vector<double> w;
      for (const RunOutcome& o : runs) w.push_back(o.wall_s());
      s += median(w);
    }
    return s;
  }
};

/// Counts @p o as attempted, and as failed, printing why, when a check
/// missed. @p reference, when non-null, is an earlier run of the same case
/// whose simulated stats @p o must reproduce bit for bit.
void account(Measured& ms, std::size_t c, RunOutcome& o,
             const RunOutcome* reference, const char* label) {
  if (reference != nullptr && o.failures.empty() &&
      reference->failures.empty() && o.digest != reference->digest) {
    o.failures.push_back(
        "simulated stats differ from this case's first run in the same "
        "invocation");
  }
  ++ms.attempted;
  if (o.failures.empty()) return;
  ++ms.failed;
  std::printf("FAILED %s: %s\n", label, ms.cases[c].describe().c_str());
  for (const std::string& f : o.failures) std::printf("  %s\n", f.c_str());
}

Measured measure(const WorkloadDef& def, const Args& a) {
  Measured ms;
  ms.cases = make_cases(def, a.seed);
  const std::size_t n = ms.cases.size();
  ms.samples.resize(n);

  double spent = 0.0;
  for (int r = 0; r < kMaxSetupRounds &&
                  (r < kSetupRounds || spent < kSetupSeconds);
       ++r) {
    double sum = 0.0;
    for (const auto& cfg : ms.cases) sum += time_setup(cfg);
    ms.setup_rounds.push_back(sum);
    spent += sum;
  }

  // Rotate the starting case with the seed so that, across seeds, every
  // case gets its within-invocation repeat check.
  const std::size_t start = static_cast<std::size_t>(a.seed % n);
  const auto t0 = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const std::size_t c = (start + k) % n;
    RunOutcome o = run_case(ms.cases[c], nullptr, static_cast<int>(k), nullptr);
    account(ms, c, o, ms.samples[c].empty() ? nullptr : &ms.first(c), "run");
    ms.samples[c].push_back(std::move(o));
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (k >= n && elapsed >= a.seconds) break;
  }
  return ms;
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Sum of @p key over the first run of every case.
double total(const Measured& ms, const std::string& key) {
  double s = 0.0;
  for (std::size_t c = 0; c < ms.cases.size(); ++c) s += ms.first(c).get(key);
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Tail {
  double q;       ///< percentile, as a fraction
  double cycles;  ///< its value
  std::uint64_t samples;
};

/// The highest percentile (on a 0.1% grid) with at least 10 samples beyond
/// it; never below the median.
Tail tail_of(const obs::LatencyHistogram& h) {
  const double n = static_cast<double>(h.count());
  double q = n > 0 ? std::floor(1000.0 * (1.0 - 10.0 / n)) / 1000.0 : 0.5;
  q = std::max(q, 0.5);
  return {q, static_cast<double>(h.percentile(q)), h.count()};
}

obs::LatencyHistogram merged_sojourn(const Measured& ms) {
  obs::LatencyHistogram h;
  for (std::size_t c = 0; c < ms.cases.size(); ++c)
    h.merge(ms.first(c).sojourn);
  return h;
}

std::vector<Metric> end_to_end(const WorkloadDef& def, const Measured& ms) {
  const double wall = ms.pass_wall_s();
  const obs::LatencyHistogram soj = merged_sojourn(ms);
  const Tail tail = tail_of(soj);
  const double graphs =
      def.serve ? total(ms, "serve.completed")
                : static_cast<double>(ms.cases.size());
  const double admit =
      def.serve ? ratio(total(ms, "serve.admitted"), total(ms, "serve.offered"))
                : ratio(total(ms, "tasks.completed"),
                        total(ms, "runtime.tasks_built"));
  std::printf("sojourn tail: p%.1f over %llu samples (%s)\n", 100.0 * tail.q,
              static_cast<unsigned long long>(tail.samples),
              def.serve ? "requests" : "tasks");
  return {
      {"wall_s", wall, "s"},
      {"setup_s", median(ms.setup_rounds), "s"},
      {"sim_accesses_per_s", ratio(total(ms, "core.accesses"), wall), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_cycles", total(ms, "sim.cycles"), "cycles"},
      {"sim_energy_uj",
       (total(ms, "energy.llc_pj") + total(ms, "energy.noc_pj") +
        total(ms, "energy.dram_pj")) /
           1e6,
       "uJ"},
      {"graphs_per_s", ratio(graphs, wall), "1/s"},
      {"sojourn_p50_cycles", static_cast<double>(soj.percentile(0.5)),
       "cycles"},
      {"sojourn_tail_cycles", tail.cycles, "cycles"},
      {"admit_ratio", admit, "ratio"},
  };
}

/// One traced pass: every case once, with host spans and the latency
/// attribution recorder on. Returns the outcomes in case order.
std::vector<RunOutcome> traced_pass(Measured& ms, Tracer& tr) {
  std::vector<RunOutcome> out;
  obs::RecorderConfig rc;
  rc.attribution = true;
  for (std::size_t c = 0; c < ms.cases.size(); ++c) {
    obs::Recorder rec(rc);
    RunOutcome o = run_case(ms.cases[c], &tr, static_cast<int>(c), &rec);
    // Recording observes only: the traced run must match the untraced one.
    account(ms, c, o, &ms.first(c), "traced run");
    out.push_back(std::move(o));
  }
  return out;
}

std::vector<Metric> per_layer(const WorkloadDef& def, const Measured& ms,
                              const std::vector<RunOutcome>& traced,
                              const Tracer& tr,
                              const std::map<std::string, double>& kernels) {
  const auto self = tr.self_ms(0, static_cast<int>(ms.cases.size()));
  auto span_ms = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  auto kernel = [&kernels](const char* name) { return kernels.at(name); };
  const double accesses = total(ms, "core.accesses");
  const double events = total(ms, "sim.events");
  const double run_ms = span_ms(def.serve ? "serve.run" : "sim.run");
  double traced_wall = 0.0;
  std::array<double, kAttrComponents> attr{};
  for (const RunOutcome& o : traced) {
    traced_wall += o.wall_s();
    for (unsigned c = 0; c < kAttrComponents; ++c) attr[c] += o.attr[c];
  }
  double attr_total = 0.0;
  for (const double v : attr) attr_total += v;
  auto share = [&](obs::LatencyComponent c) {
    return ratio(attr[static_cast<unsigned>(c)], attr_total);
  };
  // Weighted means across cases: each case's mean weighted by its samples.
  double miss_lat = 0.0, distance = 0.0, rrt_occ = 0.0, rrt_runs = 0.0;
  double llc_tdnuca = 0.0;
  for (std::size_t c = 0; c < ms.cases.size(); ++c) {
    const RunOutcome& o = ms.first(c);
    if (ms.cases[c].policy == PolicyKind::TdNuca)
      llc_tdnuca += o.get("llc.requests");
    miss_lat += o.get("l1.mean_miss_latency") * o.get("l1.misses");
    distance += o.get("nuca.mean_distance") * o.get("llc.requests");
    if (o.m.count("rrt.mean_occupancy") != 0) {
      rrt_occ += o.get("rrt.mean_occupancy");
      rrt_runs += 1.0;
    }
  }
  // Serving means, weighted by each case's completed requests.
  const double requests = total(ms, "serve.completed");
  auto per_request = [&ms](const char* key) {
    double s = 0.0;
    for (std::size_t c = 0; c < ms.cases.size(); ++c)
      s += ms.first(c).get(key) * ms.first(c).get("serve.completed");
    return s;
  };
  const double l1 = total(ms, "l1.hits") + total(ms, "l1.misses");
  const double llc = total(ms, "llc.hits") + total(ms, "llc.misses");
  const double tlb = total(ms, "tlb.hits") + total(ms, "tlb.misses");
  using LC = obs::LatencyComponent;
  return {
      {"sim.events", events, "count"},
      {"sim.events_per_access", ratio(events, accesses), "ratio"},
      {"sim.ns_per_event", ratio(run_ms * 1e6, events), "ns"},
      {"sim.dispatch_ns", kernel("sim.dispatch_ns"), "ns"},
      {"system.ctor_ms", span_ms("system.ctor"), "ms"},
      {"workloads.build_ms", span_ms("workloads.build"), "ms"},
      {"runtime.tasks", total(ms, "tasks.completed"), "count"},
      {"runtime.tasks_per_kaccess",
       ratio(1e3 * total(ms, "tasks.completed"), accesses), "ratio"},
      {"runtime.region_map_ns", kernel("runtime.region_map_ns"), "ns"},
      {"core.accesses", accesses, "count"},
      {"core.stalls", total(ms, "core.stalls"), "count"},
      {"l1.hit_ratio", ratio(total(ms, "l1.hits"), l1), "ratio"},
      {"llc.hit_ratio", ratio(total(ms, "llc.hits"), llc), "ratio"},
      {"cache.probe_ns", kernel("cache.probe_ns"), "ns"},
      {"cache.fill_ns", kernel("cache.fill_ns"), "ns"},
      {"llc.requests", total(ms, "llc.requests"), "count"},
      {"llc.requests_tdnuca", llc_tdnuca, "count"},
      {"llc.writebacks", total(ms, "llc.writebacks"), "count"},
      {"coherence.miss_cycles_mean", ratio(miss_lat, total(ms, "l1.misses")),
       "cycles"},
      {"coherence.mshr_ns", kernel("coherence.mshr_ns"), "ns"},
      {"attr.mshr_wait", share(LC::MshrWait), "share"},
      {"attr.noc_request", share(LC::NocRequest), "share"},
      {"attr.bank_queue", share(LC::BankQueue), "share"},
      {"attr.bank_service", share(LC::BankService), "share"},
      {"attr.dram", share(LC::Dram), "share"},
      {"attr.noc_reply", share(LC::NocReply), "share"},
      {"noc.messages", total(ms, "noc.messages"), "count"},
      {"noc.messages_per_access", ratio(total(ms, "noc.messages"), accesses),
       "ratio"},
      {"noc.router_bytes", total(ms, "noc.router_bytes"), "bytes"},
      {"nuca.mean_distance", ratio(distance, total(ms, "llc.requests")),
       "hops"},
      {"noc.route_ns", kernel("noc.route_ns"), "ns"},
      {"dram.accesses", total(ms, "dram.accesses"), "count"},
      {"tlb.miss_ratio", ratio(total(ms, "tlb.misses"), tlb), "ratio"},
      {"rrt.lookups", total(ms, "rrt.lookups"), "count"},
      {"rrt.mean_occupancy", ratio(rrt_occ, rrt_runs), "entries"},
      {"tdnuca.bypass_placements", total(ms, "tdnuca.bypass_placements"),
       "count"},
      {"tdnuca.local_placements", total(ms, "tdnuca.local_placements"),
       "count"},
      {"tdnuca.replicated_placements",
       total(ms, "tdnuca.replicated_placements"), "count"},
      {"flush.busy_cycles", total(ms, "flush.busy_cycles"), "cycles"},
      {"tdnuca.runtime_overhead_cycles",
       total(ms, "tdnuca.runtime_overhead_cycles"), "cycles"},
      {"tdnuca.rrt_lookup_ns", kernel("tdnuca.rrt_lookup_ns"), "ns"},
      {"tdnuca.rrt_register_ns", kernel("tdnuca.rrt_register_ns"), "ns"},
      {"serve.offered", total(ms, "serve.offered"), "count"},
      {"serve.admitted", total(ms, "serve.admitted"), "count"},
      {"serve.completed", total(ms, "serve.completed"), "count"},
      {"serve.queue_wait_mean_cycles",
       ratio(per_request("serve.queue_wait.mean"), requests), "cycles"},
      {"serve.service_mean_cycles",
       ratio(per_request("serve.service.mean"), requests), "cycles"},
      {"serve.run_ms", def.serve ? run_ms : 0.0, "ms"},
      {"stats.collect_ms", span_ms("stats.collect"), "ms"},
      {"obs.overhead_ratio", ratio(traced_wall, ms.pass_wall_s()), "ratio"},
  };
}

// --- output -----------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string result_json(const Measured& ms,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += ms.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(ms.attempted);
  s += ", \"failed\": " + std::to_string(ms.failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    s += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
         ": {\"value\": " + buf +
         ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return s + "}}";
}

}  // namespace

int run_benchmark(const Args& a) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : workload_defs()) {
    if (a.workload == d.name) def = &d;
  }
  if (def == nullptr) usage("unknown workload '" + a.workload + "'");

  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string cpu = cpu_model();
  std::printf("perfbench: workload=%s seed=%llu%s seconds=%g trace=%d\n",
              def->name, static_cast<unsigned long long>(a.seed),
              a.seed == kDefaultSeed   ? " (default)"
              : a.seed == kHeldOutSeed ? " (held out)"
                                       : "",
              a.seconds, a.trace ? 1 : 0);
  std::printf("host: nproc=%u cpu=\"%s\"\n", nproc, cpu.c_str());
  std::fflush(stdout);

  Measured ms = measure(*def, a);
  std::vector<Metric> metrics = end_to_end(*def, ms);
  std::string stem = a.out_dir + "/" + def->name + "_seed" +
                     std::to_string(a.seed) + "_trace" + (a.trace ? "1" : "0");
  if (a.trace) {
    Tracer tr;
    const std::vector<RunOutcome> traced = traced_pass(ms, tr);
    const auto kernels = perfbench::run_kernels(&tr);
    metrics = per_layer(*def, ms, traced, tr, kernels);
    if (!tr.write_json(stem + "_spans.json"))
      std::printf("warning: cannot write %s_spans.json\n", stem.c_str());
  }

  for (std::size_t c = 0; c < ms.cases.size(); ++c) {
    std::printf("case %-58s host s/run:", ms.cases[c].describe().c_str());
    for (const RunOutcome& o : ms.samples[c]) std::printf(" %.3f", o.wall_s());
    std::printf("\n");
  }
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics)
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("runs: attempted=%d failed=%d\n", ms.attempted, ms.failed);

  const std::string result = result_json(ms, metrics);
  if (std::FILE* f = std::fopen((stem + "_report.json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"schema\":\"tdn-perfbench-report-v1\",\"workload\":%s,"
                 "\"seed\":%llu,\"seconds\":%g,\"host\":{\"nproc\":%u,"
                 "\"cpu\":%s},\"result\":%s}\n",
                 json_string(def->name).c_str(),
                 static_cast<unsigned long long>(a.seed), a.seconds, nproc,
                 json_string(cpu).c_str(), result.c_str());
    std::fclose(f);
  } else {
    std::printf("warning: cannot write %s_report.json\n", stem.c_str());
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    return run_benchmark(a);
  } catch (const std::exception& e) {
    // Only set-up outside any timed run can get here (each run catches its
    // own failures); there is no measurement to report.
    std::fprintf(stderr, "tdn_perfbench: %s\n", e.what());
    return 1;
  }
}
