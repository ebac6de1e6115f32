// Unit tests: mesh geometry, XY routing, cluster partitioning, network
// timing and traffic accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"

using namespace tdn;
using namespace tdn::noc;

TEST(Mesh, CoordsRoundTrip) {
  Mesh m(4, 4);
  for (CoreId t = 0; t < 16; ++t) EXPECT_EQ(m.tile(m.coord(t)), t);
  EXPECT_EQ(m.coord(5).x, 1u);
  EXPECT_EQ(m.coord(5).y, 1u);
}

TEST(Mesh, ManhattanHops) {
  Mesh m(4, 4);
  EXPECT_EQ(m.hops(0, 0), 0u);
  EXPECT_EQ(m.hops(0, 3), 3u);
  EXPECT_EQ(m.hops(0, 15), 6u);
  EXPECT_EQ(m.hops(5, 10), 2u);
}

TEST(Mesh, XyRouteProperties) {
  Mesh m(4, 4);
  for (CoreId a = 0; a < 16; ++a) {
    for (CoreId b = 0; b < 16; ++b) {
      const auto path = m.xy_route(a, b);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      EXPECT_EQ(path.size(), m.hops(a, b) + 1);
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_EQ(m.hops(path[i], path[i + 1]), 1u);
    }
  }
}

TEST(Mesh, TheoreticalMeanDistanceIs2Point5On4x4) {
  Mesh m(4, 4);
  EXPECT_NEAR(m.theoretical_mean_distance(), 2.5, 1e-9);
}

TEST(Mesh, QuadrantClusters) {
  Mesh m(4, 4);
  // Quadrants: {0,1,4,5}, {2,3,6,7}, {8,9,12,13}, {10,11,14,15}
  EXPECT_EQ(m.cluster_of(0), m.cluster_of(5));
  EXPECT_NE(m.cluster_of(0), m.cluster_of(2));
  const auto c0 = m.cluster_tiles(0);
  EXPECT_EQ(c0, (std::vector<CoreId>{0, 1, 4, 5}));
  const auto c3 = m.cluster_tiles(3);
  EXPECT_EQ(c3, (std::vector<CoreId>{10, 11, 14, 15}));
}

TEST(Network, LatencyMatchesHops) {
  sim::EventQueue eq;
  Mesh m(4, 4);
  Network net(m, eq, {.link_latency = 1, .router_latency = 1});
  Cycle arrival = 0;
  net.send(0, 3, MsgClass::Control, [&] { arrival = eq.now(); });
  eq.run();
  EXPECT_EQ(arrival, 3u * 2u);  // 3 hops x (router + link)
}

TEST(Network, LocalDeliveryIsImmediateButOrdered) {
  sim::EventQueue eq;
  Mesh m(2, 2);
  Network net(m, eq, {});
  bool delivered = false;
  net.send(1, 1, MsgClass::Data, [&] { delivered = true; });
  EXPECT_FALSE(delivered);  // deferred through the queue
  eq.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(eq.now(), 0u);
}

TEST(Network, RouterByteAccounting) {
  sim::EventQueue eq;
  Mesh m(4, 4);
  NetworkConfig cfg;
  Network net(m, eq, cfg);
  net.send(0, 1, MsgClass::Data, [] {});
  eq.run();
  // Data message traverses 2 routers (src + dst).
  EXPECT_EQ(net.total_router_bytes(), 2u * cfg.data_bytes);
  EXPECT_EQ(net.router_bytes_at(0), cfg.data_bytes);
  EXPECT_EQ(net.router_bytes_at(1), cfg.data_bytes);
  EXPECT_EQ(net.router_bytes_at(2), 0u);
  EXPECT_EQ(net.messages(), 1u);
  EXPECT_EQ(net.data_messages(), 1u);
  EXPECT_EQ(net.total_hops(), 1u);
}

TEST(Network, LinkSerializationQueues) {
  sim::EventQueue eq;
  Mesh m(4, 1);
  NetworkConfig cfg;
  cfg.link_bytes_per_cycle = 8;  // 72B data = 9 cycles serialization
  Network net(m, eq, cfg);
  Cycle first = 0, second = 0;
  net.send(0, 1, MsgClass::Data, [&] { first = eq.now(); });
  net.send(0, 1, MsgClass::Data, [&] { second = eq.now(); });
  eq.run();
  EXPECT_EQ(first, 2u);
  // Second message waits for the link: departs at 9, arrives 9+2.
  EXPECT_EQ(second, 11u);
}

TEST(Network, RouteTableMatchesXyRoute) {
  // The precomputed route table against coordinate-stepped XY routing, on
  // square and non-square meshes: the tiles and hop directions the mesh
  // hands out, and the routers and links a sent message is charged to.
  for (const auto& [w, h] : {std::pair{4u, 4u}, {3u, 5u}, {8u, 2u}}) {
    const Mesh m(w, h);
    for (CoreId a = 0; a < m.tiles(); ++a) {
      for (CoreId b = 0; b < m.tiles(); ++b) {
        std::vector<CoreId> want{a};
        std::vector<unsigned> want_dirs;
        Coord c = m.coord(a);
        const Coord d = m.coord(b);
        while (c.x != d.x) {
          want_dirs.push_back(d.x > c.x ? 0 : 1);  // E / W
          c.x = d.x > c.x ? c.x + 1 : c.x - 1;
          want.push_back(m.tile(c));
        }
        while (c.y != d.y) {
          want_dirs.push_back(d.y > c.y ? 3 : 2);  // S / N
          c.y = d.y > c.y ? c.y + 1 : c.y - 1;
          want.push_back(m.tile(c));
        }
        const auto route = m.xy_route(a, b);
        const auto dirs = m.xy_route_dirs(a, b);
        ASSERT_EQ(std::vector<CoreId>(route.begin(), route.end()), want)
            << w << "x" << h << " " << a << "->" << b;
        ASSERT_EQ(std::vector<unsigned>(dirs.begin(), dirs.end()), want_dirs)
            << w << "x" << h << " " << a << "->" << b;

        sim::EventQueue eq;
        Network net(m, eq, {});
        Cycle arrival = 0;
        net.send(a, b, MsgClass::Control, [&] { arrival = eq.now(); });
        eq.run();
        const unsigned bytes = net.bytes_of(MsgClass::Control);
        EXPECT_EQ(arrival, 2u * (want.size() - 1));
        EXPECT_EQ(net.total_hops(), want.size() - 1);
        for (CoreId t = 0; t < m.tiles(); ++t) {
          const bool on_path =
              std::find(want.begin(), want.end(), t) != want.end();
          EXPECT_EQ(net.router_bytes_at(t), on_path ? bytes : 0u);
        }
        std::uint64_t link_total = 0;
        for (std::size_t i = 0; i < want_dirs.size(); ++i)
          EXPECT_EQ(net.link_bytes(want[i], want_dirs[i]), bytes);
        for (CoreId t = 0; t < m.tiles(); ++t)
          for (unsigned dir = 0; dir < Network::kLinkDirs; ++dir)
            link_total += net.link_bytes(t, dir);
        EXPECT_EQ(link_total, bytes * want_dirs.size());
      }
    }
  }
}

TEST(Network, ControlSmallerThanData) {
  sim::EventQueue eq;
  Mesh m(2, 2);
  Network net(m, eq, {});
  EXPECT_LT(net.bytes_of(MsgClass::Control), net.bytes_of(MsgClass::Data));
}
