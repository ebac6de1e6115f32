// Determinism lock-in: end-to-end golden fingerprints and metric hashes.
//
// The simulation substrate (event queue, coherence, NoC) is allowed to be
// rewritten for speed, but never to change a single simulated cycle. These
// goldens pin one workload per NUCA policy: if any of them moves, either
// the metric schema changed on purpose (bump the fingerprint version in
// RunConfig::fingerprint and regenerate below) or determinism regressed.
//
// Regenerate by printing cfg.fingerprint() and the fnv1a64 of the
// precision-17 "key,value\n" serialization of RunResult::metrics for each
// case (scale=0.25, defaults otherwise, cache disabled).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "common/prng.hpp"
#include "harness/runner.hpp"

namespace tdn {
namespace {

std::uint64_t metrics_hash(const std::map<std::string, double>& m) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [k, v] : m) os << k << ',' << v << '\n';
  const std::string s = os.str();
  return fnv1a64(s.data(), s.size());
}

struct GoldenCase {
  const char* workload;
  system::PolicyKind policy;
  std::uint64_t fingerprint;
  std::uint64_t metrics;
  const char* fault_plan = "";  ///< SystemConfig::fault.plan
  const char* arrival = "";     ///< ServeOptions::arrival (empty = closed)
};

// Schema v8 goldens (v8 added the tdn::vm options segment — disabled runs
// carry the "off" sentinel — and the always-present mem.* per-core TLB /
// allocator keys plus tdnuca.translate_*, so both the fingerprints and the
// metric hashes moved; every v7 metric key kept its exact value, verified
// key-by-key against the seed build).
const GoldenCase kGoldens[] = {
    {"gauss", system::PolicyKind::SNuca, 0x917e4b660d1975ddull,
     0xb4d29d2e391d7bf8ull},
    {"histo", system::PolicyKind::RNuca, 0xdf544619f4ad4980ull,
     0xa32be5730695fe6full},
    {"jacobi", system::PolicyKind::TdNuca, 0x511cb6ff7d847ddeull,
     0xf2def87b56b8b1b1ull},
    // Colocated, fault-degraded and serving runs: each run mode assembles
    // the same machine, so each gets a row of its own.
    {"gauss+histo", system::PolicyKind::TdNuca, 0x22b06a7aa9310b71ull,
     0x23ab24e70c010450ull},
    {"gauss+histo", system::PolicyKind::RNuca, 0x125a598cf3d404e6ull,
     0x061340f4e4c250feull, "bank_fail@5:cycle=200k"},
    {"gauss+histo", system::PolicyKind::TdNuca, 0x50258b4ba616b5e1ull,
     0xaab30ff0208c9f3full, "", "poisson:gap=40k"},
    {"gauss", system::PolicyKind::TdNuca, 0x53bc30d8202f58f3ull,
     0xa3604783419b2e87ull, "bank_fail@5:cycle=200k"},
};

harness::RunConfig golden_config(const GoldenCase& c) {
  harness::RunConfig cfg;
  cfg.workload = c.workload;
  cfg.policy = c.policy;
  cfg.params.scale = 0.25;
  cfg.sys.fault.plan = c.fault_plan;
  cfg.serve.arrival = c.arrival;
  return cfg;
}

TEST(Determinism, FingerprintGoldensV8) {
  for (const GoldenCase& c : kGoldens) {
    const harness::RunConfig cfg = golden_config(c);
    EXPECT_EQ(cfg.fingerprint(), c.fingerprint)
        << c.workload << "/" << system::to_string(c.policy) << " fingerprint 0x"
        << std::hex << cfg.fingerprint();
  }
}

TEST(Determinism, MetricsGoldensV8) {
  for (const GoldenCase& c : kGoldens) {
    const harness::RunConfig cfg = golden_config(c);
    const harness::RunResult r =
        harness::run_experiment(cfg, /*use_cache=*/false);
    EXPECT_EQ(metrics_hash(r.metrics), c.metrics)
        << cfg.describe() << " metrics hash 0x" << std::hex << metrics_hash(r.metrics)
        << " over " << std::dec << r.metrics.size() << " keys";
  }
}

// Latency attribution observes and never perturbs: with the report sink on
// (which enables attribution, epoch-free), every metric hashes to the same
// committed golden as the plain run. This is the obs-on/obs-off identity
// the v2 observability layer promises.
TEST(Determinism, MetricsGoldensV8WithAttributionEnabled) {
  const GoldenCase& c = kGoldens[0];  // gauss / S-NUCA
  harness::RunConfig cfg = golden_config(c);
  cfg.obs.latency_report_path =
      "/tmp/tdn_test_determinism_report_" + std::to_string(::getpid()) +
      ".json";
  const harness::RunResult r =
      harness::run_experiment(cfg, /*use_cache=*/false);
  EXPECT_EQ(metrics_hash(r.metrics), c.metrics)
      << "attribution-enabled run drifted from the attribution-off golden";
  std::remove(cfg.obs.latency_report_path.c_str());
}

// Two fresh in-process runs of the same config are bit-identical, key by
// key — a sharper diagnostic than the hash when something does drift.
TEST(Determinism, RepeatRunsBitIdentical) {
  const harness::RunConfig cfg = golden_config(kGoldens[2]);  // TD-NUCA
  const harness::RunResult a =
      harness::run_experiment(cfg, /*use_cache=*/false);
  const harness::RunResult b =
      harness::run_experiment(cfg, /*use_cache=*/false);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [key, value] : a.metrics) {
    const auto it = b.metrics.find(key);
    ASSERT_NE(it, b.metrics.end()) << key;
    EXPECT_EQ(value, it->second) << key;
  }
}

}  // namespace
}  // namespace tdn
