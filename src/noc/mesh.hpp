// 2D mesh topology: tile numbering, coordinates, Manhattan (NUCA) distance
// and deterministic XY (dimension-ordered) routes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/require.hpp"
#include "common/types.hpp"

namespace tdn::noc {

struct Coord {
  unsigned x = 0;
  unsigned y = 0;
  friend constexpr bool operator==(const Coord&, const Coord&) = default;
};

class Mesh {
 public:
  /// Link directions out of a tile: 0=E, 1=W, 2=N, 3=S (y grows downward).
  static constexpr unsigned kDirs = 4;

  /// Builds the XY route table: one route per (src, dst) pair, stored
  /// back to back in one flat array, so xy_route() is a lookup.
  Mesh(unsigned width, unsigned height);

  unsigned width() const noexcept { return w_; }
  unsigned height() const noexcept { return h_; }
  unsigned tiles() const noexcept { return w_ * h_; }

  Coord coord(CoreId tile) const {
    TDN_ASSERT(tile < tiles());
    return Coord{tile % w_, tile / w_};
  }
  CoreId tile(Coord c) const {
    TDN_ASSERT(c.x < w_ && c.y < h_);
    return c.y * w_ + c.x;
  }

  /// Manhattan hop count — the paper's "NUCA distance" (local bank = 0).
  unsigned hops(CoreId a, CoreId b) const {
    const Coord ca = coord(a);
    const Coord cb = coord(b);
    const unsigned dx = ca.x > cb.x ? ca.x - cb.x : cb.x - ca.x;
    const unsigned dy = ca.y > cb.y ? ca.y - cb.y : cb.y - ca.y;
    return dx + dy;
  }

  /// Tiles on the XY route from src to dst, inclusive of both endpoints —
  /// a view into the precomputed route table.
  std::span<const CoreId> xy_route(CoreId src, CoreId dst) const {
    const std::size_t k = route_index(src, dst);
    return {route_tiles_.data() + route_off_[k],
            route_off_[k + 1] - route_off_[k]};
  }
  /// Direction of each hop of xy_route(src, dst): entry i is the link from
  /// route tile i to tile i + 1.
  std::span<const std::uint8_t> xy_route_dirs(CoreId src, CoreId dst) const {
    // A route of n tiles has n - 1 hops, so route k's dirs start k entries
    // earlier in the dir array than its tiles do in the tile array.
    const std::size_t k = route_index(src, dst);
    return {route_dirs_.data() + route_off_[k] - k,
            route_off_[k + 1] - route_off_[k] - 1};
  }

  /// Tiles on the YX (Y-dimension first) route from src to dst, inclusive of
  /// both endpoints. The deterministic fallback route when a link on the XY
  /// path has failed.
  std::vector<CoreId> yx_route(CoreId src, CoreId dst) const;

  /// Direction (0=E,1=W,2=N,3=S) of the link from @p from to the adjacent
  /// tile @p to.
  unsigned dir_between(CoreId from, CoreId to) const;
  /// Whether @p tile has a neighbour in direction @p dir.
  bool has_neighbor(CoreId tile, unsigned dir) const;
  /// The tile adjacent to @p tile in direction @p dir (must exist).
  CoreId neighbor(CoreId tile, unsigned dir) const;

  /// The quadrant cluster (paper Sec. III "LLC Cluster Replication"):
  /// the mesh is divided into (w/2 x h/2)-aligned 2x2 quadrants on a 4x4
  /// mesh. Returns the cluster index of a tile.
  unsigned cluster_of(CoreId tile, unsigned cluster_w = 2,
                      unsigned cluster_h = 2) const {
    const Coord c = coord(tile);
    const unsigned clusters_per_row = w_ / cluster_w;
    return (c.y / cluster_h) * clusters_per_row + (c.x / cluster_w);
  }

  /// Tiles belonging to a cluster, ascending.
  std::vector<CoreId> cluster_tiles(unsigned cluster, unsigned cluster_w = 2,
                                    unsigned cluster_h = 2) const;

  /// Theoretical mean hop distance from a uniformly random tile to a
  /// uniformly random tile (2.5 on a 4x4 mesh; paper Sec. V-B).
  double theoretical_mean_distance() const;

 private:
  std::size_t route_index(CoreId src, CoreId dst) const {
    TDN_ASSERT(src < tiles() && dst < tiles());
    return static_cast<std::size_t>(src) * tiles() + dst;
  }

  unsigned w_;
  unsigned h_;
  /// Route k = src * tiles() + dst occupies route_tiles_[route_off_[k],
  /// route_off_[k + 1]) and route_dirs_ from route_off_[k] - k on.
  std::vector<std::size_t> route_off_;
  std::vector<CoreId> route_tiles_;
  std::vector<std::uint8_t> route_dirs_;
};

}  // namespace tdn::noc
