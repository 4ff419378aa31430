#include "sim/world.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/bytes.h"
#include "common/thread_pool.h"

namespace lbchat::sim {

World::World(const WorldConfig& cfg, int num_vehicles, std::uint64_t seed)
    : cfg_(cfg),
      map_([&] {
        Rng map_rng = Rng{seed}.fork("map");
        return TownMap::generate(cfg.town, map_rng);
      }()),
      route_rng_(Rng{seed}.fork("routes")),
      ped_rng_(Rng{seed}.fork("peds")) {
  Rng spawn = Rng{seed}.fork("spawn");

  vehicles_.resize(static_cast<std::size_t>(num_vehicles));
  for (int i = 0; i < num_vehicles; ++i) {
    CarAgent& a = vehicles_[static_cast<std::size_t>(i)];
    // Half the fleet prefers urban destinations, half rural: this regional
    // bias is what makes per-vehicle datasets heterogeneous.
    const bool urban = spawn.uniform() <
                       cfg.urban_dweller_fraction;  // deterministic per spawn order
    a.urban_bias = urban ? 0.92 : 0.12;
    a.at_node = map_.random_node_biased(spawn, a.urban_bias);
    a.pos = map_.nodes()[static_cast<std::size_t>(a.at_node)].pos;
    assign_new_route(a, spawn);
  }

  cars_.resize(static_cast<std::size_t>(cfg.num_background_cars));
  for (CarAgent& a : cars_) {
    a.urban_bias = 0.6;
    a.at_node = map_.random_node_biased(spawn, a.urban_bias);
    a.pos = map_.nodes()[static_cast<std::size_t>(a.at_node)].pos;
    assign_new_route(a, spawn);
  }

  peds_.resize(static_cast<std::size_t>(cfg.num_pedestrians));
  for (PedAgent& p : peds_) {
    p.pos = map_.random_road_point(spawn);
    p.target = map_.random_road_point(spawn);
  }
}

void World::assign_new_route(CarAgent& a, Rng& rng) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int dest = map_.random_node_biased(rng, a.urban_bias);
    if (dest == a.at_node) continue;
    Route r = plan_route(map_, a.at_node, dest);
    if (r.empty()) continue;
    a.route = std::move(r);
    a.s = 0.0;
    a.at_node = dest;
    a.heading = a.route.heading_at(0.0);
    return;
  }
  throw std::logic_error{"World::assign_new_route: could not plan a route"};
}

Vec2 World::lane_position(const Route& route, double s) const {
  const Vec2 centre = route.position_at(s);
  const double h = route.heading_at(s);
  // Right normal of the tangent: rotate (cos h, sin h) by -90 degrees.
  return centre + Vec2{std::sin(h), -std::cos(h)} * cfg_.lane_offset_m;
}

double World::allowed_speed_at(const Vec2& pos, double heading, double base_speed,
                               int exclude_vehicle, bool ignore_cars) const {
  double gap = std::numeric_limits<double>::infinity();
  const Rotation minus_heading{-heading};
  const auto consider = [&](const Vec2& obstacle, double radius) {
    const Vec2 e = to_ego_frame(obstacle, pos, minus_heading);
    if (e.x <= 0.5 || e.x > cfg_.obstacle_lookahead_m) return;
    if (std::abs(e.y) > cfg_.corridor_halfwidth_m + radius) return;
    gap = std::min(gap, e.x);
  };
  if (!ignore_cars) {
    for (int i = 0; i < num_vehicles(); ++i) {
      if (i == exclude_vehicle) continue;
      consider(vehicles_[static_cast<std::size_t>(i)].pos, cfg_.car_radius_m);
    }
    for (const CarAgent& c : cars_) consider(c.pos, cfg_.car_radius_m);
    if (external_car_.has_value()) consider(*external_car_, cfg_.car_radius_m);
  }
  for (const PedAgent& p : peds_) consider(p.pos, cfg_.ped_radius_m);

  if (!std::isfinite(gap)) return base_speed;
  const double headroom = std::max(gap - cfg_.min_gap_m, 0.0);
  return std::min(base_speed, std::sqrt(2.0 * cfg_.brake_decel * headroom));
}

double World::base_target_speed(const CarAgent& a) const {
  double base = cfg_.car_max_speed;
  if (a.route.command_at(a.s) != data::Command::kFollow) base = cfg_.turn_speed;
  // Slow for sharp geometric bends too (degree-2 corners carry no command
  // but are dynamically just as demanding as commanded turns).
  const double bend = std::abs(wrap_angle(a.route.heading_at(a.s + cfg_.bend_lookahead_m) -
                                          a.route.heading_at(a.s)));
  if (bend > cfg_.bend_threshold_rad) base = std::min(base, cfg_.turn_speed);
  return base;
}

double World::expert_target_speed(const CarAgent& a, int vehicle_index) const {
  const double base = base_target_speed(a);
  const bool ignore_cars = a.ignore_cars_until_s > time_;
  return allowed_speed_at(a.pos, a.heading, base, vehicle_index, ignore_cars);
}

double World::allowed_speed_snapshot(const Vec2& pos, double heading, double base_speed,
                                     int exclude, bool ignore_cars) const {
  double gap = std::numeric_limits<double>::infinity();
  // Same corridor predicate as allowed_speed_at. Every obstacle it accepts
  // lies within hypot(lookahead, halfwidth + radius) of the ego, so a disc
  // query of that radius yields a candidate superset, and min over the
  // filtered superset equals min over a full scan — the grid is exact.
  const Rotation minus_heading{-heading};
  const auto consider = [&](const Vec2& obstacle, double radius) {
    const Vec2 e = to_ego_frame(obstacle, pos, minus_heading);
    if (e.x <= 0.5 || e.x > cfg_.obstacle_lookahead_m) return;
    if (std::abs(e.y) > cfg_.corridor_halfwidth_m + radius) return;
    gap = std::min(gap, e.x);
  };
  const double max_radius = std::max(cfg_.car_radius_m, cfg_.ped_radius_m);
  const double query_r =
      std::hypot(cfg_.obstacle_lookahead_m, cfg_.corridor_halfwidth_m + max_radius) + 1e-9;
  snap_grid_.for_each_candidate(pos, query_r, [&](std::uint32_t i) {
    if (static_cast<int>(i) == exclude) return;
    const bool is_ped = i >= snap_peds_begin_;
    if (ignore_cars && !is_ped) return;
    consider(snap_pos_[i], is_ped ? cfg_.ped_radius_m : cfg_.car_radius_m);
  });
  if (!std::isfinite(gap)) return base_speed;
  const double headroom = std::max(gap - cfg_.min_gap_m, 0.0);
  return std::min(base_speed, std::sqrt(2.0 * cfg_.brake_decel * headroom));
}

void World::step(double dt) {
  // Tick-start obstacle snapshot: vehicles, background cars, the external
  // car (if any), then pedestrians. Index i < snap_peds_begin_ is a car.
  const std::size_t nv = vehicles_.size();
  const std::size_t nc = cars_.size();
  snap_pos_.clear();
  snap_pos_.reserve(nv + nc + 1 + peds_.size());
  for (const CarAgent& a : vehicles_) snap_pos_.push_back(a.pos);
  for (const CarAgent& c : cars_) snap_pos_.push_back(c.pos);
  if (external_car_.has_value()) snap_pos_.push_back(*external_car_);
  snap_peds_begin_ = snap_pos_.size();
  for (const PedAgent& p : peds_) snap_pos_.push_back(p.pos);
  const double max_radius = std::max(cfg_.car_radius_m, cfg_.ped_radius_m);
  snap_grid_.rebuild(snap_pos_,
                     std::hypot(cfg_.obstacle_lookahead_m,
                                cfg_.corridor_halfwidth_m + max_radius) + 1e-6);

  // Phase 1 (parallel-safe): per-car speed/arc-length update against the
  // snapshot. Each lane writes only its own car's speed/s/deadlock fields
  // and reads only snapshot positions — pos/heading stay untouched until
  // the commit phase, so there are no cross-lane races and the result is
  // independent of lane count.
  const auto advance = [&](std::int64_t k) {
    CarAgent& a = k < static_cast<std::int64_t>(nv)
                      ? vehicles_[static_cast<std::size_t>(k)]
                      : cars_[static_cast<std::size_t>(k) - nv];
    const bool ignore_cars = a.ignore_cars_until_s > time_;
    const int exclude = k < static_cast<std::int64_t>(nv) ? static_cast<int>(k) : -1;
    const double target =
        allowed_speed_snapshot(a.pos, a.heading, base_target_speed(a), exclude, ignore_cars);
    if (a.speed < target) {
      a.speed = std::min(target, a.speed + cfg_.accel * dt);
    } else {
      a.speed = std::max(target, a.speed - cfg_.brake_decel * dt);
    }
    // Deadlock breaker: a car halted too long (crossing stalemate) briefly
    // ignores other cars and creeps through.
    if (a.speed < 0.1) {
      if (a.blocked_since_s < 0.0) a.blocked_since_s = time_;
      if (time_ - a.blocked_since_s > cfg_.deadlock_patience_s &&
          a.ignore_cars_until_s < time_) {
        a.ignore_cars_until_s = time_ + cfg_.deadlock_ignore_s;
        a.blocked_since_s = -1.0;
      }
    } else {
      a.blocked_since_s = -1.0;
    }
    a.s += a.speed * dt;
  };
  const auto ncars = static_cast<std::int64_t>(nv + nc);
  parallel_for(pool_, 0, ncars, advance);

  // Phase 2 (ordered commit): route reassignment consumes the shared route
  // RNG strictly in agent order — the same id order at any thread count —
  // then positions/headings are published.
  for (std::int64_t k = 0; k < ncars; ++k) {
    CarAgent& a = k < static_cast<std::int64_t>(nv)
                      ? vehicles_[static_cast<std::size_t>(k)]
                      : cars_[static_cast<std::size_t>(k) - nv];
    if (a.s >= a.route.length() - 0.5) assign_new_route(a, route_rng_);
    a.pos = lane_position(a.route, a.s);
    a.heading = a.route.heading_at(a.s);
  }
  step_peds(dt);
  time_ += dt;
}

void World::step_peds(double dt) {
  for (PedAgent& p : peds_) {
    const Vec2 delta = p.target - p.pos;
    const double d = delta.norm();
    if (d < 1.0) {
      // Pick a new wander target near the current position (on a road, so
      // pedestrians keep crossing streets and creating braking events).
      for (int attempt = 0; attempt < 8; ++attempt) {
        const Vec2 cand = map_.random_road_point(ped_rng_);
        if (distance(cand, p.pos) <= cfg_.ped_target_radius_m) {
          p.target = cand;
          break;
        }
      }
      if (distance(p.target, p.pos) < 1.0) p.target = map_.random_road_point(ped_rng_);
    } else {
      p.pos += delta * (std::min(cfg_.ped_speed * dt, d) / d);
    }
  }
}

std::vector<Vec2> World::car_positions() const {
  std::vector<Vec2> out;
  out.reserve(vehicles_.size() + cars_.size());
  for (const CarAgent& a : vehicles_) out.push_back(a.pos);
  for (const CarAgent& c : cars_) out.push_back(c.pos);
  return out;
}

std::vector<Vec2> World::pedestrian_positions() const {
  std::vector<Vec2> out;
  out.reserve(peds_.size());
  for (const PedAgent& p : peds_) out.push_back(p.pos);
  return out;
}

data::BevGrid World::render_ego_bev(const Vec2& pos, double heading, const Route& route,
                                    double route_s, int exclude_vehicle) const {
  BevRaster raster{cfg_.bev, map_, pos, heading};
  for (int i = 0; i < num_vehicles(); ++i) {
    if (i == exclude_vehicle) continue;
    raster.add_car(vehicles_[static_cast<std::size_t>(i)].pos, cfg_.car_radius_m);
  }
  for (const CarAgent& c : cars_) raster.add_car(c.pos, cfg_.car_radius_m);
  for (const PedAgent& p : peds_) raster.add_pedestrian(p.pos);
  raster.add_route(route, route_s);
  return std::move(raster).take();
}

data::Sample World::collect_sample(int v, std::uint64_t sample_id) const {
  const CarAgent& a = vehicles_.at(static_cast<std::size_t>(v));

  // Recovery augmentation: deterministically (per sample id) offset the
  // recording pose sideways and in heading. The labels still aim at the
  // lane, so the cloned policy learns to steer *back* when it drifts.
  Vec2 pose_pos = a.pos;
  double pose_heading = a.heading;
  bool perturbed = false;
  Rng perturb = Rng{sample_id ^ 0x9E3779B97F4A7C15ULL}.fork("perturb");
  if (perturb.uniform() < cfg_.perturb_prob) {
    perturbed = true;
    const double lat = perturb.uniform(-cfg_.perturb_lateral_max_m, cfg_.perturb_lateral_max_m);
    const double dh =
        perturb.uniform(-cfg_.perturb_heading_max_rad, cfg_.perturb_heading_max_rad);
    pose_pos += Vec2{std::sin(a.heading), -std::cos(a.heading)} * lat;
    pose_heading = wrap_angle(a.heading + dh);
  }

  data::Sample s;
  s.bev = render_ego_bev(pose_pos, pose_heading, a.route, a.s, v);
  s.command = a.route.command_at(a.s);
  s.id = sample_id;
  s.source_vehicle = static_cast<std::uint32_t>(v);

  // Expert waypoint labels: future along-route positions under the current
  // obstacle-aware speed, relative to the (possibly perturbed) recording
  // pose. When blocked the waypoints bunch at the ego — that is the "stop"
  // signal the model imitates.
  const double v_expert = expert_target_speed(a, v);
  // Braking situations are rare but safety-critical: give them extra w(d) so
  // minibatch sampling and coreset construction both see them.
  s.weight = v_expert < 0.5 * cfg_.car_max_speed ? 3.0 : 1.0;
  // Perturbed frames keep a minimum forward progression so the recovery
  // label is "steer back to the lane", never "freeze off-road".
  const double v_label = std::max(v_expert, perturbed ? 3.0 : 0.0);
  const Rotation minus_heading{-pose_heading};
  for (int k = 0; k < data::kNumWaypoints; ++k) {
    const double ds = v_label * cfg_.waypoint_dt_s * static_cast<double>(k + 1);
    const Vec2 wp = to_ego_frame(lane_position(a.route, a.s + ds), pose_pos, minus_heading);
    s.waypoints[static_cast<std::size_t>(2 * k)] =
        static_cast<float>(wp.x / data::kWaypointScale);
    s.waypoints[static_cast<std::size_t>(2 * k + 1)] =
        static_cast<float>(wp.y / data::kWaypointScale);
  }
  return s;
}

bool World::collides(const Vec2& pos, double radius, int exclude_vehicle) const {
  for (int i = 0; i < num_vehicles(); ++i) {
    if (i == exclude_vehicle) continue;
    if (distance(pos, vehicles_[static_cast<std::size_t>(i)].pos) <
        radius + cfg_.car_radius_m) {
      return true;
    }
  }
  for (const CarAgent& c : cars_) {
    if (distance(pos, c.pos) < radius + cfg_.car_radius_m) return true;
  }
  for (const PedAgent& p : peds_) {
    if (distance(pos, p.pos) < radius + cfg_.ped_radius_m) return true;
  }
  return false;
}

namespace {

/// Field list of a car; a loaded route is validated against `map`.
template <class Io, class A>
void car_fields(Io& io, A& a, const TownMap& map) {
  io(a.pos);
  io(a.heading);
  io(a.speed);
  io(a.s);
  io(a.at_node);
  io(a.urban_bias);
  io(a.blocked_since_s);
  io(a.ignore_cars_until_s);
  std::vector<int> seq;
  if constexpr (!Io::kLoad) seq = a.route.node_sequence();
  io(seq);
  if constexpr (Io::kLoad) {
    if (seq.size() < 2) throw std::runtime_error{"World::load: route shorter than 2 nodes"};
    const int num_nodes = static_cast<int>(map.nodes().size());
    if (std::any_of(seq.begin(), seq.end(), [&](int id) { return id < 0 || id >= num_nodes; })) {
      throw std::runtime_error{"World::load: route node out of range"};
    }
    a.route = Route{std::move(seq), map};
  }
}

}  // namespace

template <class Io, class S>
void World::fields(Io& io, S& w) {
  io(w.time_);
  io.exact_count(w.vehicles_.size(), "World::load: vehicle count");
  for (auto& a : w.vehicles_) car_fields(io, a, w.map_);
  io.exact_count(w.cars_.size(), "World::load: car count");
  for (auto& a : w.cars_) car_fields(io, a, w.map_);
  io.exact_count(w.peds_.size(), "World::load: pedestrian count");
  for (auto& p : w.peds_) {
    io(p.pos);
    io(p.target);
  }
  io(w.route_rng_);
  io(w.ped_rng_);
}

void World::save(ByteWriter& w) const {
  Save io{w};
  fields(io, *this);
}

void World::load(ByteReader& r) {
  Load io{r};
  fields(io, *this);
}

}  // namespace lbchat::sim
