#include "noc/mesh.hpp"

namespace tdn::noc {

Mesh::Mesh(unsigned width, unsigned height) : w_(width), h_(height) {
  TDN_REQUIRE(width > 0 && height > 0, "mesh dimensions must be positive");
  const std::size_t n = tiles();
  // Sum of |a - b| over all pairs in [0, k) is (k^3 - k) / 3, so the routes
  // hold n^2 + w^2 (h^3 - h) / 3 + h^2 (w^3 - w) / 3 tiles in all.
  const std::size_t w = w_, h = h_;
  const std::size_t hops = w * w * (h * h * h - h) / 3 + h * h * (w * w * w - w) / 3;
  route_off_.reserve(n * n + 1);
  route_tiles_.reserve(n * n + hops);
  route_dirs_.reserve(hops);
  route_off_.push_back(0);
  for (CoreId src = 0; src < n; ++src) {
    const Coord s = coord(src);
    for (CoreId dst = 0; dst < n; ++dst) {
      const Coord d{dst % w_, dst / w_};
      Coord c = s;
      route_tiles_.push_back(src);
      while (c.x != d.x) {  // X first: east (0) or west (1)
        const bool east = d.x > c.x;
        c.x = east ? c.x + 1 : c.x - 1;
        route_dirs_.push_back(east ? 0 : 1);
        route_tiles_.push_back(tile(c));
      }
      while (c.y != d.y) {  // then Y: south (3) or north (2)
        const bool south = d.y > c.y;
        c.y = south ? c.y + 1 : c.y - 1;
        route_dirs_.push_back(south ? 3 : 2);
        route_tiles_.push_back(tile(c));
      }
      route_off_.push_back(route_tiles_.size());
    }
  }
  TDN_ASSERT(route_tiles_.size() == n * n + hops);
}

std::vector<CoreId> Mesh::yx_route(CoreId src, CoreId dst) const {
  std::vector<CoreId> path;
  Coord c = coord(src);
  const Coord d = coord(dst);
  path.push_back(tile(c));
  while (c.y != d.y) {  // Y first
    c.y += (d.y > c.y) ? 1 : -1;
    path.push_back(tile(c));
  }
  while (c.x != d.x) {  // then X
    c.x += (d.x > c.x) ? 1 : -1;
    path.push_back(tile(c));
  }
  return path;
}

unsigned Mesh::dir_between(CoreId from, CoreId to) const {
  const Coord a = coord(from);
  const Coord b = coord(to);
  if (b.x == a.x + 1) return 0;  // east
  if (a.x == b.x + 1) return 1;  // west
  if (b.y == a.y + 1) return 3;  // south (y grows downward)
  return 2;                      // north
}

bool Mesh::has_neighbor(CoreId tile, unsigned dir) const {
  const Coord c = coord(tile);
  switch (dir) {
    case 0: return c.x + 1 < w_;
    case 1: return c.x > 0;
    case 2: return c.y > 0;
    case 3: return c.y + 1 < h_;
  }
  return false;
}

CoreId Mesh::neighbor(CoreId tile, unsigned dir) const {
  Coord c = coord(tile);
  switch (dir) {
    case 0: ++c.x; break;
    case 1: --c.x; break;
    case 2: --c.y; break;
    case 3: ++c.y; break;
  }
  return this->tile(c);
}

std::vector<CoreId> Mesh::cluster_tiles(unsigned cluster, unsigned cluster_w,
                                        unsigned cluster_h) const {
  std::vector<CoreId> out;
  for (CoreId t = 0; t < tiles(); ++t) {
    if (cluster_of(t, cluster_w, cluster_h) == cluster) out.push_back(t);
  }
  return out;
}

double Mesh::theoretical_mean_distance() const {
  std::uint64_t total = 0;
  const unsigned n = tiles();
  for (CoreId a = 0; a < n; ++a)
    for (CoreId b = 0; b < n; ++b) total += hops(a, b);
  return static_cast<double>(total) / (static_cast<double>(n) * n);
}

}  // namespace tdn::noc
