#include "eval/online.h"

#include <algorithm>
#include <cmath>

#include "sim/route.h"

namespace lbchat::eval {

using data::Command;
using sim::Route;

std::string_view task_name(DrivingTask task) {
  switch (task) {
    case DrivingTask::kStraight: return "Straight";
    case DrivingTask::kOneTurn: return "One Turn";
    case DrivingTask::kNaviEmpty: return "Navi. (Empty)";
    case DrivingTask::kNaviNormal: return "Navi. (Normal)";
    case DrivingTask::kNaviDense: return "Navi. (Dense)";
  }
  return "?";
}

OnlineEvaluator::OnlineEvaluator(EvalConfig cfg) : cfg_(cfg) {}

sim::WorldConfig OnlineEvaluator::world_for(DrivingTask task) const {
  sim::WorldConfig w = cfg_.world;
  switch (task) {
    case DrivingTask::kStraight:
    case DrivingTask::kOneTurn:
    case DrivingTask::kNaviEmpty:
      w.num_background_cars = 0;
      w.num_pedestrians = 0;
      break;
    case DrivingTask::kNaviNormal:
      break;
    case DrivingTask::kNaviDense:
      w.num_background_cars = static_cast<int>(
          std::lround(w.num_background_cars * cfg_.dense_traffic_factor));
      w.num_pedestrians =
          static_cast<int>(std::lround(w.num_pedestrians * cfg_.dense_traffic_factor));
      break;
  }
  return w;
}

namespace {

/// Number of actual turn commands (left/right/straight-at-intersection).
int count_turns(const Route& r) { return static_cast<int>(r.turns().size()); }

/// Sharp geometric direction changes anywhere along the polyline (includes
/// commanded turns AND command-less degree-2 corners such as the rural ring
/// bends). "Straight" routes must have none.
int sharp_bends(const Route& r) {
  const auto& pts = r.points();
  int bends = 0;
  for (std::size_t i = 1; i + 1 < pts.size(); ++i) {
    const double angle = wrap_angle((pts[i + 1] - pts[i]).heading() -
                                    (pts[i] - pts[i - 1]).heading());
    if (std::abs(angle) > M_PI / 6.0) ++bends;
  }
  return bends;
}

}  // namespace

Route OnlineEvaluator::pick_route(const sim::TownMap& map, DrivingTask task, Rng& rng) const {
  Route best;
  double best_score = -1e18;
  for (int attempt = 0; attempt < cfg_.route_attempts; ++attempt) {
    const int from = map.random_node(rng);
    const int to = map.random_node(rng);
    if (from == to) continue;
    Route r = sim::plan_route(map, from, to);
    if (r.empty()) continue;
    const double len = r.length();
    const int turns = count_turns(r);
    const int bends = sharp_bends(r);
    double score = 0.0;
    switch (task) {
      case DrivingTask::kStraight:
        // A sufficiently long route with no decisions AND no sharp geometry.
        if (turns != 0 || bends != 0 || len < cfg_.straight_min_m) continue;
        score = -std::abs(len - 250.0);
        break;
      case DrivingTask::kOneTurn:
        if (turns != 1 || bends > 1 || len < cfg_.straight_min_m) continue;
        score = -std::abs(len - 300.0);
        break;
      default:
        // Full navigation: long route with multiple decision points.
        if (turns < 2 || len < cfg_.navi_min_m) continue;
        score = static_cast<double>(turns) - std::abs(len - 600.0) / 1000.0;
        break;
    }
    if (score > best_score) {
      best_score = score;
      best = std::move(r);
    }
    if (best_score > -40.0 && attempt > cfg_.route_attempts / 2) break;
  }
  if (best.empty()) {
    // Fallback: relax to "any non-trivial route" so a trial always exists.
    for (int attempt = 0; attempt < cfg_.route_attempts; ++attempt) {
      Route r = sim::plan_route(map, map.random_node(rng), map.random_node(rng));
      if (!r.empty() && r.length() >= 100.0) return r;
    }
  }
  return best;
}

TrialResult OnlineEvaluator::run_trial(const nn::DrivingPolicy& model, DrivingTask task,
                                       int trial) const {
  sim::World world{world_for(task), /*num_vehicles=*/0, cfg_.world_seed};
  Rng rng = Rng{cfg_.world_seed}
                .fork("online-eval")
                .fork(hash_name(task_name(task)))
                .fork(static_cast<std::uint64_t>(trial));

  // Deterministic per-trial traffic warm-up so trials differ but repeat.
  const double warmup = rng.uniform(0.0, cfg_.warmup_max_s);
  for (double t = 0.0; t < warmup; t += 0.5) world.step(0.5);

  const Route route = pick_route(world.map(), task, rng);
  TrialResult result;
  if (route.empty()) return result;
  result.route_length_m = route.length();

  // Start in the right-hand lane (the pose distribution the model trained
  // on), and let traffic clear the spawn point first if it is occupied.
  Vec2 pos = world.lane_position(route, 0.0);
  // Wait for a generous clear zone so the test car neither spawns into
  // traffic nor gets rear-ended while accelerating from rest.
  for (int wait = 0; wait < 80 && world.collides(pos, 10.0); ++wait) {
    world.step(0.5);
  }
  double heading = route.heading_at(0.0);
  double speed = 0.0;
  const Vec2 goal = route.position_at(route.length());
  const double budget =
      std::max(cfg_.budget_factor * route.length() / cfg_.nominal_speed, cfg_.min_budget_s);

  // Controller state refreshed at each model inference.
  Vec2 aim_world = route.position_at(std::min(10.0, route.length()));
  double desired_speed = 0.0;
  double next_infer = 0.0;

  const double wp_dt = world.config().waypoint_dt_s;
  for (double t = 0.0; t < budget; t += cfg_.control_dt) {
    world.set_external_car(pos);
    world.step(cfg_.control_dt);

    if (t >= next_infer) {
      next_infer = t + cfg_.bev_period_s;
      const double s_proj = route.project(pos);
      const Command cmd = route.command_at(s_proj);
      const data::BevGrid bev = world.render_ego_bev(pos, heading, route, s_proj);
      const nn::WaypointVector wp = model.predict(bev, cmd);
      // First waypoint (t + wp_dt) sets the speed; the second sets the aim.
      const Vec2 w0{wp[0] * data::kWaypointScale, wp[1] * data::kWaypointScale};
      const Vec2 w1{wp[2] * data::kWaypointScale, wp[3] * data::kWaypointScale};
      desired_speed = std::clamp(w0.norm() / wp_dt, 0.0, cfg_.max_speed);
      const Vec2 aim_ego = w1.norm() > 1.0 ? w1 : w0;
      aim_world = to_world_frame(aim_ego, pos, heading);
    }

    // Steering: turn toward the aim point (only while moving).
    if (speed > 0.3) {
      const Vec2 aim_ego = to_ego_frame(aim_world, pos, heading);
      const double err = std::atan2(aim_ego.y, std::max(aim_ego.x, 0.1));
      const double max_step = cfg_.max_yaw_rate * cfg_.control_dt;
      heading = wrap_angle(heading + std::clamp(err, -max_step, max_step));
    }
    // Longitudinal control. A short-range automatic-emergency-braking layer
    // caps the commanded speed against obstacles dead ahead (<= 18 m): a
    // fixed controller-level safety net applied identically to every model,
    // as production vehicles would run under any driving policy.
    double command_speed = desired_speed;
    {
      double gap = 1e18;
      const Rotation minus_heading{-heading};
      const auto scan = [&](const Vec2& obstacle, double radius) {
        const Vec2 e = to_ego_frame(obstacle, pos, minus_heading);
        if (e.x > 0.3 && e.x <= 18.0 && std::abs(e.y) <= 1.6 + radius) {
          gap = std::min(gap, e.x);
        }
      };
      for (const Vec2& c : world.car_positions()) scan(c, world.config().car_radius_m);
      for (const Vec2& p : world.pedestrian_positions()) scan(p, world.config().ped_radius_m);
      if (gap < 1e18) {
        const double cap = std::sqrt(2.0 * cfg_.brake_decel * std::max(gap - 4.0, 0.0));
        command_speed = std::min(command_speed, cap);
      }
    }
    if (speed < command_speed) {
      speed = std::min(command_speed, speed + cfg_.accel * cfg_.control_dt);
    } else {
      speed = std::max(command_speed, speed - cfg_.brake_decel * cfg_.control_dt);
    }
    pos += Vec2{std::cos(heading), std::sin(heading)} * (speed * cfg_.control_dt);

    result.duration_s = t;
    if (world.collides(pos, world.config().car_radius_m)) {
      result.collision = true;
      break;
    }
    if (distance(pos, goal) <= cfg_.goal_radius_m) {
      result.success = true;
      break;
    }
    const double s_now = route.project(pos);
    if (distance(pos, route.position_at(s_now)) > cfg_.abort_offroute_m) {
      result.lost = true;
      break;
    }
  }
  if (!result.success && !result.collision && !result.lost) result.timeout = true;
  world.set_external_car(std::nullopt);
  return result;
}

double OnlineEvaluator::success_rate(const nn::DrivingPolicy& model, DrivingTask task) const {
  if (cfg_.trials <= 0) return 0.0;
  int ok = 0;
  for (int trial = 0; trial < cfg_.trials; ++trial) {
    if (run_trial(model, task, trial).success) ++ok;
  }
  return static_cast<double>(ok) / cfg_.trials;
}

}  // namespace lbchat::eval
