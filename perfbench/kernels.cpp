#include "kernels.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cache/cache_array.hpp"
#include "cache/mshr.hpp"
#include "coherence/config.hpp"
#include "common/prng.hpp"
#include "noc/mesh.hpp"
#include "runtime/region_map.hpp"
#include "sim/event_queue.hpp"
#include "tdnuca/rrt.hpp"

namespace perfbench {

namespace {

using namespace tdn;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

/// Keeps kernel results observable so the timed loops are not elided.
volatile std::uint64_t g_sink = 0;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median ns-per-call over kReps runs of @p rep, which returns
/// {elapsed ns, calls}.
template <typename Rep>
double median_ns(Rep&& rep) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) {
    const auto [ns, calls] = rep();
    v.push_back(ns / static_cast<double>(calls));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Timed {
  double ns;
  std::uint64_t calls;
};

/// What a coherence miss continuation carries: ids, addresses and a
/// std::function completion (~80 bytes, inside sim::kActionCapacity).
struct MissPayload {
  void* self;
  std::uint64_t vaddr, line, issued;
  std::uint32_t core;
  std::uint8_t kind;
  std::function<void(Cycle)> done;
};

Timed dispatch() {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  const std::function<void(Cycle)> done = [&sink](Cycle c) { sink += c; };
  constexpr int kWaves = 200;
  constexpr int kPerWave = 1024;
  const auto t0 = Clock::now();
  for (int w = 0; w < kWaves; ++w) {
    for (int i = 0; i < kPerWave; ++i) {
      MissPayload p{&q, 0x1000ull * i, 64ull * i, q.now(),
                    static_cast<std::uint32_t>(i), 1, done};
      q.schedule_at(q.now() + static_cast<Cycle>(i * 7 % 997),
                    [p = std::move(p), &sink]() mutable {
                      sink += p.line;
                      p.done(p.issued);
                    });
    }
    q.run();
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + sink;
  return {ns, std::uint64_t{kWaves} * kPerWave};
}

Timed region_map() {
  constexpr int kGraphs = 400;
  constexpr TaskId kTasks = 256;
  std::uint64_t deps = 0;
  const auto t0 = Clock::now();
  for (int g = 0; g < kGraphs; ++g) {
    runtime::RegionMap rm;
    for (TaskId t = 0; t < kTasks; ++t) {
      const Addr base = (t % 64) * 0x8000;
      deps += rm.access({base, base + 0x8000}, t, t % 3 == 0).size();
    }
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + deps;
  return {ns, std::uint64_t{kGraphs} * kTasks};
}

struct LineMeta {
  bool dirty = false;
};

/// One LLC bank's array (default geometry), filled to capacity.
cache::CacheArray<LineMeta> full_llc_bank() {
  cache::CacheArray<LineMeta> arr(coherence::HierarchyConfig{}.llc_bank);
  std::optional<cache::CacheArray<LineMeta>::Eviction> ev;
  const Addr lines =
      coherence::HierarchyConfig{}.llc_bank.size_bytes / arr.line_size();
  for (Addr i = 0; i < lines; ++i) arr.allocate(i * arr.line_size(), ev);
  return arr;
}

Timed cache_probe() {
  auto arr = full_llc_bank();
  const Addr lines =
      coherence::HierarchyConfig{}.llc_bank.size_bytes / arr.line_size();
  SplitMix64 rng(2);
  constexpr std::uint64_t kIters = 2'000'000;
  std::uint64_t hits = 0;
  const auto t0 = Clock::now();
  // Half the probes hit: the pool is twice the bank's capacity.
  for (std::uint64_t i = 0; i < kIters; ++i)
    hits += arr.find(rng.next_below(2 * lines) * arr.line_size()) != nullptr;
  const double ns = ns_since(t0);
  g_sink = g_sink + hits;
  return {ns, kIters};
}

Timed cache_fill() {
  auto arr = full_llc_bank();
  const Addr lines =
      coherence::HierarchyConfig{}.llc_bank.size_bytes / arr.line_size();
  std::optional<cache::CacheArray<LineMeta>::Eviction> ev;
  constexpr std::uint64_t kIters = 500'000;
  std::uint64_t evictions = 0;
  const auto t0 = Clock::now();
  // Every fill is a new line into a full set, so each one evicts.
  for (std::uint64_t i = 0; i < kIters; ++i) {
    arr.allocate((lines + i) * arr.line_size(), ev);
    evictions += ev.has_value();
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + evictions;
  return {ns, kIters};
}

Timed mshr() {
  cache::MshrFile m(coherence::HierarchyConfig{}.l1_mshrs);
  std::uint64_t fills = 0;
  constexpr int kRounds = 100'000;
  constexpr Addr kLines = 8;  // the core's load window
  const auto t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    const Addr base = static_cast<Addr>(r) * kLines * 64;
    for (Addr l = 0; l < kLines; ++l)
      m.register_miss(base + l * 64, [&fills] { ++fills; });
    for (Addr l = 0; l < kLines; ++l) {
      for (auto& cb : m.complete(base + l * 64)) cb();
    }
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + fills;
  return {ns, std::uint64_t{kRounds} * kLines};
}

Timed route() {
  const noc::Mesh mesh(4, 4);
  SplitMix64 rng(4);
  constexpr std::uint64_t kIters = 1'000'000;
  std::uint64_t hops = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    hops += mesh.xy_route(static_cast<CoreId>(rng.next_below(16)),
                          static_cast<CoreId>(rng.next_below(16)))
                .size();
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + hops;
  return {ns, kIters};
}

/// Dependency-sized (32 KiB) disjoint ranges, 64 KiB apart.
AddrRange rrt_range(unsigned i) {
  const Addr base = static_cast<Addr>(i) * 0x10000;
  return {base, base + 0x8000};
}

Timed rrt_lookup() {
  tdnuca::Rrt rrt;
  for (unsigned i = 0; i < kBypassRrtOccupancy; ++i)
    rrt.register_range(rrt_range(i), BankMask::single(i % 16));
  SplitMix64 rng(3);
  constexpr std::uint64_t kIters = 2'000'000;
  std::uint64_t found = 0;
  const auto t0 = Clock::now();
  // Half the lookups hit a registered range, half fall in the gaps.
  for (std::uint64_t i = 0; i < kIters; ++i) {
    found += rrt.lookup(rng.next_below(kBypassRrtOccupancy) * 0x10000 +
                        rng.next_below(2) * 0x8000 + 0x40)
                 .has_value();
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + found;
  return {ns, kIters};
}

Timed rrt_register() {
  tdnuca::Rrt rrt;
  constexpr int kFills = 50'000;
  std::uint64_t ok = 0;
  const auto t0 = Clock::now();
  for (int f = 0; f < kFills; ++f) {
    rrt.clear();
    for (unsigned i = 0; i < kBypassRrtOccupancy; ++i)
      ok += rrt.register_range(rrt_range(i), BankMask::single(i % 16));
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + ok;
  return {ns, std::uint64_t{kFills} * kBypassRrtOccupancy};
}

}  // namespace

std::map<std::string, double> run_kernels(Tracer* tracer) {
  struct Kernel {
    const char* metric;
    Timed (*fn)();
  };
  static constexpr Kernel kKernels[] = {
      {"sim.dispatch_ns", dispatch},
      {"runtime.region_map_ns", region_map},
      {"cache.probe_ns", cache_probe},
      {"cache.fill_ns", cache_fill},
      {"coherence.mshr_ns", mshr},
      {"noc.route_ns", route},
      {"tdnuca.rrt_lookup_ns", rrt_lookup},
      {"tdnuca.rrt_register_ns", rrt_register},
  };
  std::map<std::string, double> out;
  for (const Kernel& k : kKernels) {
    ScopedSpan span(tracer, k.metric, -1);
    out[k.metric] = median_ns(k.fn);
  }
  return out;
}

}  // namespace perfbench
