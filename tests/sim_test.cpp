// Tests for the driving-world simulator: town generation, routing, BEV
// rendering, expert autopilot behaviour, and data collection.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/fingerprint.h"
#include "sim/bev.h"
#include "sim/route.h"
#include "sim/town.h"
#include "sim/world.h"

namespace lbchat::sim {
namespace {

// ---------------------------------------------------------------- town

class TownSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TownSeedTest, GeneratedMapIsConnected) {
  Rng rng{GetParam()};
  const TownMap map = TownMap::generate({}, rng);
  EXPECT_TRUE(map.connected());
  EXPECT_GT(map.nodes().size(), 20u);
  EXPECT_GT(map.edges().size(), map.nodes().size() - 1);  // more than a tree
}

TEST_P(TownSeedTest, AllNodesInsideExtentAndOnRoad) {
  Rng rng{GetParam()};
  const TownConfig cfg;
  const TownMap map = TownMap::generate(cfg, rng);
  for (const auto& n : map.nodes()) {
    EXPECT_GE(n.pos.x, 0.0);
    EXPECT_LE(n.pos.x, cfg.extent_m);
    EXPECT_GE(n.pos.y, 0.0);
    EXPECT_LE(n.pos.y, cfg.extent_m);
    EXPECT_TRUE(map.on_road(n.pos)) << "node centre must be on the road raster";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TownSeedTest, ::testing::Values(1, 2, 3, 17, 99));

TEST(TownTest, DeterministicForSeed) {
  Rng rng1{5};
  Rng rng2{5};
  const TownMap a = TownMap::generate({}, rng1);
  const TownMap b = TownMap::generate({}, rng2);
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    EXPECT_EQ(a.nodes()[i].pos, b.nodes()[i].pos);
  }
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(TownTest, OnRoadQueries) {
  Rng rng{9};
  const TownMap map = TownMap::generate({}, rng);
  // Midpoint of an edge is on the road; a point far off the map is not.
  const auto& [a, b] = map.edges().front();
  const Vec2 mid = (map.nodes()[static_cast<std::size_t>(a)].pos +
                    map.nodes()[static_cast<std::size_t>(b)].pos) /
                   2.0;
  EXPECT_TRUE(map.on_road(mid));
  EXPECT_FALSE(map.on_road({-50.0, -50.0}));
  EXPECT_FALSE(map.on_road({1e6, 1e6}));
}

TEST(TownTest, RandomRoadPointsAreOnRoad) {
  Rng rng{11};
  const TownMap map = TownMap::generate({}, rng);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(map.on_road(map.random_road_point(rng)));
  }
}

TEST(TownTest, UrbanBiasSkewsNodeChoice) {
  Rng rng{13};
  const TownMap map = TownMap::generate({}, rng);
  int urban = 0;
  const int draws = 2000;
  for (int i = 0; i < draws; ++i) {
    urban += map.is_urban_node(map.random_node_biased(rng, 0.9)) ? 1 : 0;
  }
  EXPECT_GT(urban, draws * 3 / 4);
}

// ---------------------------------------------------------------- routes

class RouteFixture : public ::testing::Test {
 protected:
  RouteFixture() : rng_(15), map_(TownMap::generate({}, rng_)) {}
  Rng rng_;
  TownMap map_;
};

TEST_F(RouteFixture, PlannedRouteUsesAdjacentNodes) {
  const Route r = plan_route(map_, 0, static_cast<int>(map_.nodes().size()) - 1);
  ASSERT_FALSE(r.empty());
  const auto& seq = r.node_sequence();
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const auto& nbrs = map_.nodes()[static_cast<std::size_t>(seq[i - 1])].neighbors;
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), seq[i]), nbrs.end())
        << "route hops between non-adjacent nodes";
  }
  EXPECT_EQ(seq.front(), 0);
  EXPECT_EQ(seq.back(), static_cast<int>(map_.nodes().size()) - 1);
}

TEST_F(RouteFixture, AStarIsNoWorseThanAnyGreedyPath) {
  // Route length must be at least the straight-line distance and finite.
  const Route r = plan_route(map_, 0, 10);
  ASSERT_FALSE(r.empty());
  const double straight = distance(map_.nodes()[0].pos, map_.nodes()[10].pos);
  EXPECT_GE(r.length(), straight - 1e-9);
  EXPECT_LT(r.length(), 20.0 * straight + 2000.0);
}

TEST_F(RouteFixture, SameNodeYieldsEmptyRoute) {
  EXPECT_TRUE(plan_route(map_, 3, 3).empty());
  EXPECT_THROW(plan_route(map_, -1, 3), std::invalid_argument);
  EXPECT_THROW(plan_route(map_, 3, 100000), std::invalid_argument);
}

TEST_F(RouteFixture, PositionAtEndpoints) {
  const Route r = plan_route(map_, 0, 7);
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(r.position_at(0.0), map_.nodes()[0].pos);
  EXPECT_EQ(r.position_at(r.length()), map_.nodes()[7].pos);
  EXPECT_EQ(r.position_at(-5.0), map_.nodes()[0].pos);        // clamped
  EXPECT_EQ(r.position_at(r.length() + 50.0), map_.nodes()[7].pos);
}

TEST_F(RouteFixture, ArcLengthParameterizationIsMetric) {
  const Route r = plan_route(map_, 0, 12);
  ASSERT_FALSE(r.empty());
  // Walking 10m along the route moves at most 10m in space.
  for (double s = 0.0; s + 10.0 < r.length(); s += 25.0) {
    EXPECT_LE(distance(r.position_at(s), r.position_at(s + 10.0)), 10.0 + 1e-9);
  }
}

TEST_F(RouteFixture, ProjectRecoversArcLength) {
  const Route r = plan_route(map_, 0, 12);
  ASSERT_FALSE(r.empty());
  for (double s = 0.0; s < r.length(); s += 17.0) {
    const double back = r.project(r.position_at(s));
    // Projection may legitimately differ where the polyline self-approaches,
    // but for most points it recovers s.
    EXPECT_NEAR(distance(r.position_at(back), r.position_at(s)), 0.0, 1.0);
  }
}

TEST_F(RouteFixture, TurnClassificationIsSymmetricOverManyRoutes) {
  int left = 0;
  int right = 0;
  Rng rng{17};
  for (int i = 0; i < 300; ++i) {
    const Route r = plan_route(map_, map_.random_node(rng), map_.random_node(rng));
    for (const auto& [s, cmd] : r.turns()) {
      left += cmd == data::Command::kLeft ? 1 : 0;
      right += cmd == data::Command::kRight ? 1 : 0;
    }
  }
  ASSERT_GT(left + right, 50);
  const double ratio = static_cast<double>(left) / (left + right);
  EXPECT_NEAR(ratio, 0.5, 0.15) << "turn direction distribution badly skewed";
}

TEST_F(RouteFixture, CommandWindowCoversApproachAndCorner) {
  Rng rng{19};
  for (int attempt = 0; attempt < 100; ++attempt) {
    const Route r = plan_route(map_, map_.random_node(rng), map_.random_node(rng));
    if (r.turns().empty()) continue;
    const auto& [turn_s, cmd] = r.turns().front();
    if (turn_s < 20.0) continue;
    EXPECT_EQ(r.command_at(turn_s - 20.0), cmd);  // within the 35 m lookahead
    EXPECT_EQ(r.command_at(turn_s + 5.0), cmd);   // still active just past it
    if (turn_s > 60.0) {
      EXPECT_EQ(r.command_at(turn_s - 50.0), data::Command::kFollow);
    }
    return;
  }
  GTEST_SKIP() << "no suitable turn found";
}

// ---------------------------------------------------------------- world

TEST(WorldTest, TrafficActuallyMoves) {
  World world{WorldConfig{}, 6, 1};
  std::vector<Vec2> start;
  for (int v = 0; v < 6; ++v) start.push_back(world.vehicle(v).pos);
  for (int i = 0; i < 600; ++i) world.step(0.5);  // 5 simulated minutes
  double total_displacement = 0.0;
  for (int v = 0; v < 6; ++v) total_displacement += distance(start[static_cast<std::size_t>(v)],
                                                             world.vehicle(v).pos);
  EXPECT_GT(total_displacement, 200.0) << "fleet appears gridlocked";
}

TEST(WorldTest, DeterministicEvolution) {
  World a{WorldConfig{}, 4, 3};
  World b{WorldConfig{}, 4, 3};
  for (int i = 0; i < 100; ++i) {
    a.step(0.5);
    b.step(0.5);
  }
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(a.vehicle(v).pos, b.vehicle(v).pos);
    EXPECT_DOUBLE_EQ(a.vehicle(v).speed, b.vehicle(v).speed);
  }
}

TEST(WorldTest, LaneOffsetSeparatesOpposingTraffic) {
  World world{WorldConfig{}, 1, 5};
  const auto& v = world.vehicle(0);
  const Vec2 lane = world.lane_position(v.route, 10.0);
  const Vec2 centre = v.route.position_at(10.0);
  EXPECT_NEAR(distance(lane, centre), world.config().lane_offset_m, 1e-9);
}

TEST(WorldTest, AllowedSpeedDropsBehindObstacle) {
  WorldConfig cfg;
  cfg.num_background_cars = 0;
  cfg.num_pedestrians = 0;
  World world{cfg, 1, 7};
  const auto& v = world.vehicle(0);
  const double free = world.allowed_speed_at(v.pos, v.heading, 12.0, 0);
  EXPECT_NEAR(free, 12.0, 1e-9);
  // Plant the external car 10 m dead ahead.
  world.set_external_car(v.pos + Vec2{std::cos(v.heading), std::sin(v.heading)} * 10.0);
  const double blocked = world.allowed_speed_at(v.pos, v.heading, 12.0, 0);
  EXPECT_LT(blocked, 5.0);
  world.set_external_car(std::nullopt);
}

TEST(WorldTest, CollisionDetection) {
  WorldConfig cfg;
  cfg.num_background_cars = 0;
  cfg.num_pedestrians = 0;
  World world{cfg, 2, 9};
  const Vec2 at = world.vehicle(1).pos;
  EXPECT_TRUE(world.collides(at, 1.0));
  EXPECT_FALSE(world.collides(at, 1.0, /*exclude_vehicle=*/1));
  EXPECT_FALSE(world.collides({-100.0, -100.0}, 1.0));
}

TEST(WorldTest, CollectSampleBasics) {
  World world{WorldConfig{}, 2, 11};
  for (int i = 0; i < 20; ++i) world.step(0.5);
  const data::Sample s = world.collect_sample(1, 12345);
  EXPECT_EQ(s.id, 12345u);
  EXPECT_EQ(s.source_vehicle, 1u);
  EXPECT_EQ(s.bev.bits.size(), data::bev_bytes(world.config().bev));
  EXPECT_GE(s.weight, 1.0);
  // Waypoint labels are finite and mostly ahead.
  for (const float w : s.waypoints) EXPECT_TRUE(std::isfinite(w));
}

TEST(WorldTest, CollectSampleDeterministicPerId) {
  World world{WorldConfig{}, 1, 13};
  for (int i = 0; i < 10; ++i) world.step(0.5);
  const data::Sample a = world.collect_sample(0, 42);
  const data::Sample b = world.collect_sample(0, 42);
  EXPECT_EQ(a.bev.bits, b.bev.bits);
  EXPECT_EQ(a.waypoints, b.waypoints);
}

TEST(WorldTest, WaypointLabelsTrackExpertSpeed) {
  WorldConfig cfg;
  cfg.num_background_cars = 0;
  cfg.num_pedestrians = 0;
  cfg.perturb_prob = 0.0;  // no recovery augmentation for this check
  World world{cfg, 1, 17};
  // Cruise until up to speed.
  for (int i = 0; i < 60; ++i) world.step(0.5);
  const data::Sample s = world.collect_sample(0, 1);
  // First waypoint sits roughly v * dt ahead (straight road segments).
  const double wp0 = std::hypot(s.waypoints[0], s.waypoints[1]) * data::kWaypointScale;
  EXPECT_GT(wp0, 2.0);
  EXPECT_LT(wp0, world.config().car_max_speed * world.config().waypoint_dt_s + 3.0);
}

// ---------------------------------------------------------------- bev

/// The BEV of explicit agent lists: cars, then pedestrians, then the route.
data::BevGrid render_bev(const data::BevSpec& spec, const TownMap& map, const Vec2& ego,
                         double heading, const std::vector<Vec2>& cars,
                         const std::vector<Vec2>& peds, const Route& route, double route_s,
                         double car_radius_m = 2.0) {
  BevRaster raster{spec, map, ego, heading};
  for (const Vec2& c : cars) raster.add_car(c, car_radius_m);
  for (const Vec2& p : peds) raster.add_pedestrian(p);
  raster.add_route(route, route_s);
  return std::move(raster).take();
}

TEST(BevTest, RoadChannelMarksEgoCell) {
  Rng rng{21};
  const TownMap map = TownMap::generate({}, rng);
  const auto& [a, b] = map.edges().front();
  const Vec2 pa = map.nodes()[static_cast<std::size_t>(a)].pos;
  const Vec2 pb = map.nodes()[static_cast<std::size_t>(b)].pos;
  const Vec2 mid = (pa + pb) / 2.0;
  const double heading = (pb - pa).heading();
  const auto spec = data::kDefaultBevSpec;
  const data::BevGrid g = render_bev(spec, map, mid, heading, {}, {}, Route{}, 0.0);
  EXPECT_EQ(g.at(spec, static_cast<int>(data::BevChannel::kRoad), ego_row(spec),
                 ego_col(spec)),
            1)
      << "the cell under the ego must be road";
}

TEST(BevTest, VehicleAheadAppearsInUpperRows) {
  Rng rng{23};
  const TownMap map = TownMap::generate({}, rng);
  const Vec2 ego{500.0, 500.0};
  const double heading = 0.0;  // facing +x
  const std::vector<Vec2> cars{ego + Vec2{10.0, 0.0}};
  const auto spec = data::kDefaultBevSpec;
  const data::BevGrid g = render_bev(spec, map, ego, heading, cars, {}, Route{}, 0.0);
  int marked_row = -1;
  for (int r = 0; r < spec.height; ++r) {
    for (int c = 0; c < spec.width; ++c) {
      if (g.at(spec, static_cast<int>(data::BevChannel::kVehicles), r, c) != 0) {
        marked_row = r;
      }
    }
  }
  ASSERT_GE(marked_row, 0) << "car ahead not rendered";
  EXPECT_LT(marked_row, ego_row(spec)) << "car ahead must appear above the ego row";
}

TEST(BevTest, PedestrianLeftAppearsLeftOfCentre) {
  Rng rng{25};
  const TownMap map = TownMap::generate({}, rng);
  const Vec2 ego{500.0, 500.0};
  const std::vector<Vec2> peds{ego + Vec2{6.0, 6.0}};  // ahead-left (heading 0)
  const auto spec = data::kDefaultBevSpec;
  const data::BevGrid g = render_bev(spec, map, ego, 0.0, {}, peds, Route{}, 0.0);
  bool found_left = false;
  for (int r = 0; r < spec.height; ++r) {
    for (int c = 0; c < ego_col(spec); ++c) {
      found_left |= g.at(spec, static_cast<int>(data::BevChannel::kPedestrians), r, c) != 0;
    }
  }
  EXPECT_TRUE(found_left);
}

TEST(BevTest, RouteChannelTracesPathAhead) {
  Rng rng{27};
  const TownMap map = TownMap::generate({}, rng);
  const Route r = plan_route(map, 0, 8);
  ASSERT_FALSE(r.empty());
  const auto spec = data::kDefaultBevSpec;
  const data::BevGrid g =
      render_bev(spec, map, r.position_at(0.0), r.heading_at(0.0), {}, {}, r, 0.0);
  int marked = 0;
  for (int i = 0; i < spec.height * spec.width; ++i) {
    marked += g.at(static_cast<std::size_t>(
        static_cast<int>(data::BevChannel::kRoute) * spec.height * spec.width + i));
  }
  EXPECT_GE(marked, 5) << "route channel should trace the path ahead";
}

TEST(BevTest, RenderDigestPinned) {
  // One digest over renders at a sweep of poses and headings (road, car
  // footprints clipped at the raster edge, pedestrians, route), over a
  // world's own renders with each vehicle excluded in turn, and over
  // collected samples and braking speeds. It pins the frame rotations and
  // the marking rule bit for bit.
  Rng rng{31};
  const TownMap map = TownMap::generate({}, rng);
  const Route route = plan_route(map, 0, 8);
  ASSERT_FALSE(route.empty());
  const auto spec = data::kDefaultBevSpec;
  FnvHasher h;
  const auto add_grid = [&](const data::BevGrid& g) {
    for (const std::uint8_t b : g.bits) h.add(static_cast<int>(b));
  };
  for (int k = 0; k < 64; ++k) {
    const double s = route.length() * k / 64.0;
    const Vec2 ego = route.position_at(s) + Vec2{0.3 * (k % 5), -0.7 * (k % 3)};
    const double heading = route.heading_at(s) + 0.37 * k;
    std::vector<Vec2> cars;
    std::vector<Vec2> peds;
    for (int j = 0; j < 12; ++j) {
      cars.push_back(route.position_at(s + 4.0 * j) + Vec2{1.1 * (j % 4), -2.3 * (j % 3)});
      peds.push_back(ego + Vec2{std::cos(0.9 * j), std::sin(0.9 * j)} * (3.0 + 2.5 * j));
    }
    add_grid(render_bev(spec, map, ego, heading, cars, peds, route, s));
    add_grid(render_bev(spec, map, ego, -heading, cars, {}, Route{}, 0.0, 3.2));
  }
  World world{WorldConfig{}, 6, 7};
  for (int step = 0; step < 40; ++step) {
    world.step(0.5);
    for (int v = 0; v < world.num_vehicles(); ++v) {
      const CarAgent& a = world.vehicle(v);
      add_grid(world.render_ego_bev(a.pos, a.heading, a.route, a.s, v));
      const data::Sample smp =
          world.collect_sample(v, (static_cast<std::uint64_t>(v) << 32) | step);
      add_grid(smp.bev);
      for (const float w : smp.waypoints) h.add(static_cast<double>(w));
      h.add(smp.weight);
      h.add(world.allowed_speed_at(a.pos, a.heading, 12.0, v));
      h.add(world.allowed_speed_at(a.pos, a.heading + 1.0, 12.0, -1, true));
    }
  }
  EXPECT_EQ(h.digest(), 0x62a5e5e4bcdbab77ull);
}

TEST(BevTest, DistantAgentsNotRendered) {
  Rng rng{29};
  const TownMap map = TownMap::generate({}, rng);
  const Vec2 ego{500.0, 500.0};
  const std::vector<Vec2> cars{ego + Vec2{300.0, 0.0}};
  const auto spec = data::kDefaultBevSpec;
  const data::BevGrid g = render_bev(spec, map, ego, 0.0, cars, {}, Route{}, 0.0);
  for (int i = 0; i < spec.height * spec.width; ++i) {
    EXPECT_EQ(g.at(static_cast<std::size_t>(
                  static_cast<int>(data::BevChannel::kVehicles) * spec.height * spec.width + i)),
              0);
  }
}

}  // namespace
}  // namespace lbchat::sim
