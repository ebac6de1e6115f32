#include "noc/network.hpp"

#include <memory>

#include "common/require.hpp"

namespace tdn::noc {

Network::Network(const Mesh& mesh, sim::EventQueue& eq, NetworkConfig cfg)
    : mesh_(mesh), eq_(eq), cfg_(cfg), links_(mesh.tiles()),
      per_router_bytes_(mesh.tiles(), 0) {
  TDN_REQUIRE(cfg_.link_bytes_per_cycle > 0, "link bandwidth must be positive");
}

bool Network::path_blocked(std::span<const CoreId> path) const {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!health_->link_ok(path[i], mesh_.dir_between(path[i], path[i + 1])))
      return true;
  }
  return false;
}

bool Network::find_detour(CoreId src, CoreId dst,
                          std::vector<CoreId>& path) const {
  // X-Y and Y-X coincide when src and dst share a row or column, so a dead
  // link between neighbours defeats both. Dog-leg through each healthy
  // neighbour of src (fixed direction order keeps routing deterministic)
  // and take the first fully healthy path.
  for (unsigned dir = 0; dir < kLinkDirs; ++dir) {
    if (!has_link(src, dir) || !health_->link_ok(src, dir)) continue;
    const CoreId w = mesh_.neighbor(src, dir);
    for (const bool yx : {false, true}) {
      std::vector<CoreId> cand{src};
      if (yx) {
        const auto tail = mesh_.yx_route(w, dst);
        cand.insert(cand.end(), tail.begin(), tail.end());
      } else {
        const auto tail = mesh_.xy_route(w, dst);
        cand.insert(cand.end(), tail.begin(), tail.end());
      }
      if (!path_blocked(cand)) {
        path = std::move(cand);
        return true;
      }
    }
  }
  return false;
}

Cycle Network::reserve(CoreId src, CoreId dst, MsgClass cls,
                       unsigned attempt) {
  std::span<const CoreId> path = mesh_.xy_route(src, dst);
  std::span<const std::uint8_t> dirs = mesh_.xy_route_dirs(src, dst);
  // Fault path only: a rerouted message walks a freshly built hop list.
  std::vector<CoreId> alt;
  std::vector<std::uint8_t> alt_dirs;
  if (health_ != nullptr && health_->any_link_failed() && path_blocked(path)) {
    alt = mesh_.yx_route(src, dst);
    if (path_blocked(alt) && !find_detour(src, dst, alt)) {
      // Every known route crosses a dead link (a cut through the mesh).
      // Back off and retry a bounded number of times; the bound turns a
      // silent livelock into a diagnosable failure.
      TDN_CHECK(attempt < cfg_.dead_link_max_retries,
                "message cannot route around failed links");
      ++health_->counters.noc_retries;
      return kUnroutable;
    }
    ++health_->counters.noc_reroutes;
    for (std::size_t i = 0; i + 1 < alt.size(); ++i)
      alt_dirs.push_back(
          static_cast<std::uint8_t>(mesh_.dir_between(alt[i], alt[i + 1])));
    path = alt;
    dirs = alt_dirs;
  }
  const unsigned bytes = bytes_of(cls);
  messages_.inc();
  if (cls == MsgClass::Data) data_messages_.inc();

  // Every router the message traverses (including src and dst) moves the
  // payload through its crossbar once.
  for (const CoreId t : path) per_router_bytes_[t] += bytes;
  router_bytes_ += static_cast<std::uint64_t>(bytes) * path.size();
  hops_total_ += dirs.size();

  const Cycle start = eq_.now();
  Cycle t = start;
  const Cycle serialization =
      (bytes + cfg_.link_bytes_per_cycle - 1) / cfg_.link_bytes_per_cycle;
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    Link& link = links_[path[i]][dirs[i]];
    link.bytes += bytes;
    const Cycle depart = t > link.next_free ? t : link.next_free;
    // A bandwidth-degraded link serializes the same bytes over a longer
    // occupancy window (the degradation factor).
    Cycle occupancy = serialization;
    if (health_ != nullptr)
      occupancy *= health_->link_factor(path[i], dirs[i]);
    link.next_free = depart + occupancy;
    t = depart + cfg_.router_latency + cfg_.link_latency;
  }
  latency_.add(static_cast<double>(t - start));
  if (auto* sink = transit_sinks_[static_cast<unsigned>(cls) & 1])
    sink->add(t - start);
  return t;
}

void Network::retry_later(CoreId src, CoreId dst, MsgClass cls,
                          sim::Action&& deliver, unsigned attempt) {
  // An Action cannot nest inside another Action of the same capacity; box
  // it for the (rare, fault-only) backoff. This is the one place on the
  // message path that may allocate, and only when links have failed.
  auto boxed = std::make_shared<sim::Action>(std::move(deliver));
  eq_.schedule_in(cfg_.dead_link_backoff * (attempt + 1),
                  [this, src, dst, cls, boxed, attempt] {
                    const Cycle arrive = reserve(src, dst, cls, attempt + 1);
                    if (arrive == kUnroutable) {
                      retry_later(src, dst, cls, std::move(*boxed),
                                  attempt + 1);
                      return;
                    }
                    eq_.schedule_at(arrive, std::move(*boxed));
                  });
}

}  // namespace tdn::noc
