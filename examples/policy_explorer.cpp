// policy_explorer — run any of the paper's workloads under every policy and
// print the headline metrics side by side. The four runs execute
// concurrently on a SweepRunner pool (docs/harness.md).
//
//   $ ./policy_explorer [workload] [scale] [--jobs N]
//   $ ./policy_explorer lu 0.5 -j 2
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "harness/sweep_runner.hpp"
#include "stats/table.hpp"
#include "workloads/workload.hpp"

using namespace tdn;

namespace {

/// A bad command line: print @p msg and the usage to stderr, exit 2.
[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "%s\nusage: policy_explorer [workload] [scale] [--jobs N]\n"
               "  workload  one of: %s (default lu)\n"
               "  scale     problem-size multiplier > 0 (default 1.0)\n"
               "  --jobs N  simulations run N at a time (0 = all cores)\n",
               msg.c_str(), workloads::valid_workload_names().c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "lu";
  double scale = 1.0;
  unsigned jobs = 0;  // 0 = hardware_concurrency
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--jobs" || a == "-j") {
      if (i + 1 >= argc) usage_error(a + " requires a value");
      const std::string v = argv[++i];
      char* end = nullptr;
      const unsigned long n = std::strtoul(v.c_str(), &end, 10);
      if (v.empty() || v[0] < '0' || v[0] > '9' || *end != '\0' ||
          n > std::numeric_limits<unsigned>::max())
        usage_error(a + ": not a thread count: '" + v + "'");
      jobs = static_cast<unsigned>(n);
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() > 2) usage_error("too many arguments");
  if (!positional.empty()) workload = positional[0];
  if (!workloads::is_valid_workload(workload))
    usage_error("unknown workload '" + workload + "'");
  if (positional.size() > 1) {
    char* end = nullptr;
    scale = std::strtod(positional[1].c_str(), &end);
    if (end == positional[1].c_str() || *end != '\0' ||
        !std::isfinite(scale) || scale <= 0)
      usage_error("not a scale: '" + positional[1] + "'");
  }

  std::printf("policy explorer: workload=%s scale=%.2f\n\n", workload.c_str(),
              scale);
  std::vector<harness::RunConfig> cfgs;
  for (const auto policy :
       {system::PolicyKind::SNuca, system::PolicyKind::RNuca,
        system::PolicyKind::TdNuca, system::PolicyKind::TdNucaBypassOnly}) {
    harness::RunConfig cfg;
    cfg.workload = workload;
    cfg.policy = policy;
    cfg.params.scale = scale;
    cfgs.push_back(std::move(cfg));
  }
  harness::SweepOptions opts;
  opts.jobs = jobs;
  opts.progress = true;
  harness::SweepRunner runner(opts);
  const auto results = runner.run(cfgs);

  stats::Table table({"policy", "cycles", "LLC accesses", "hit ratio",
                      "NUCA dist", "NoC bytes", "DRAM accesses"});
  for (const auto& r : results) {
    table.add_row({r.policy, stats::Table::num(r.get("sim.cycles"), 0),
                   stats::Table::num(r.get("llc.accesses"), 0),
                   stats::Table::num(r.get("llc.hit_ratio"), 3),
                   stats::Table::num(r.get("nuca.mean_distance"), 2),
                   stats::Table::num(r.get("noc.router_bytes"), 0),
                   stats::Table::num(r.get("dram.accesses"), 0)});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
