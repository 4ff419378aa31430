// The simulated driving world (CARLA substitute): expert autopilot vehicles
// that collect training data, background cars and pedestrians as traffic,
// kinematics, collision queries, and frame collection (paper §IV-A).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "common/spatial_grid.h"
#include "data/frame.h"
#include "sim/bev.h"
#include "sim/route.h"
#include "sim/town.h"

namespace lbchat {
class ByteWriter;
class ByteReader;
class ThreadPool;
}  // namespace lbchat

namespace lbchat::sim {

struct WorldConfig {
  TownConfig town{};
  data::BevSpec bev{};
  int num_background_cars = 25;  ///< paper: 50 at full CARLA scale
  int num_pedestrians = 60;      ///< paper: 250 at full CARLA scale
  double car_radius_m = 1.5;
  double ped_radius_m = 0.5;
  double car_max_speed = 12.0;       ///< cruise speed (m/s)
  double turn_speed = 6.0;           ///< speed cap while a turn command is active
  double accel = 2.5;                ///< m/s^2
  double brake_decel = 3.5;          ///< m/s^2
  double min_gap_m = 7.0;            ///< standstill gap behind an obstacle
  double obstacle_lookahead_m = 26.0;
  double corridor_halfwidth_m = 1.8;  ///< lateral window for obstacle relevance
  /// Right-hand lane offset from the road centreline: keeps opposing traffic
  /// on bidirectional roads laterally separated (no head-on deadlocks).
  double lane_offset_m = 2.2;
  /// Deadlock breaker for crossing stalemates at intersections: a car
  /// blocked this long ignores *car* obstacles (not pedestrians) briefly.
  double deadlock_patience_s = 20.0;
  double deadlock_ignore_s = 6.0;
  /// Experts slow to turn_speed when the road itself bends sharply ahead
  /// (degree-2 polyline corners, which carry no navigation command).
  double bend_lookahead_m = 18.0;
  double bend_threshold_rad = 0.45;
  /// Recovery augmentation (noise injection a la Codevilla et al.): a
  /// fraction of collected frames render the BEV and compute labels from a
  /// laterally/heading-perturbed ego pose, so the cloned policy learns to
  /// steer back onto the lane instead of drifting off forever.
  double perturb_prob = 0.3;
  double perturb_lateral_max_m = 3.0;
  double perturb_heading_max_rad = 0.35;
  double ped_speed = 1.3;
  double ped_target_radius_m = 40.0;
  double waypoint_dt_s = 0.8;  ///< time spacing of expert waypoint labels
  /// Fraction of peer vehicles whose destinations are urban-biased; the rest
  /// roam rural — this is what makes local datasets heterogeneous.
  double urban_dweller_fraction = 0.5;
};

/// WorldConfig's named member list (engine/scenario.h).
template <FieldsOf<WorldConfig> S, class F>
void config_members(S& w, F&& f) {
  f("town", w.town);
  f("bev", w.bev);
  f("num_background_cars", w.num_background_cars);
  f("num_pedestrians", w.num_pedestrians);
  f("car_radius_m", w.car_radius_m);
  f("ped_radius_m", w.ped_radius_m);
  f("car_max_speed", w.car_max_speed);
  f("turn_speed", w.turn_speed);
  f("accel", w.accel);
  f("brake_decel", w.brake_decel);
  f("min_gap_m", w.min_gap_m);
  f("obstacle_lookahead_m", w.obstacle_lookahead_m);
  f("corridor_halfwidth_m", w.corridor_halfwidth_m);
  f("lane_offset_m", w.lane_offset_m);
  f("deadlock_patience_s", w.deadlock_patience_s);
  f("deadlock_ignore_s", w.deadlock_ignore_s);
  f("bend_lookahead_m", w.bend_lookahead_m);
  f("bend_threshold_rad", w.bend_threshold_rad);
  f("perturb_prob", w.perturb_prob);
  f("perturb_lateral_max_m", w.perturb_lateral_max_m);
  f("perturb_heading_max_rad", w.perturb_heading_max_rad);
  f("ped_speed", w.ped_speed);
  f("ped_target_radius_m", w.ped_target_radius_m);
  f("waypoint_dt_s", w.waypoint_dt_s);
  f("urban_dweller_fraction", w.urban_dweller_fraction);
}

/// A car glued to a road route (peer vehicle or background traffic).
struct CarAgent {
  Vec2 pos;
  double heading = 0.0;
  double speed = 0.0;
  double s = 0.0;  ///< arc length along the current route
  Route route;
  int at_node = -1;     ///< node the current route ends at
  double urban_bias = 0.5;
  double blocked_since_s = -1.0;     ///< when the car last came to a halt
  double ignore_cars_until_s = -1.0; ///< deadlock-breaker window
};

struct PedAgent {
  Vec2 pos;
  Vec2 target;
};

class World {
 public:
  /// `num_vehicles` peer (expert autopilot) vehicles, plus background traffic
  /// per `cfg`. Fully deterministic for a given seed.
  World(const WorldConfig& cfg, int num_vehicles, std::uint64_t seed);

  /// Advance every agent by `dt` (DESIGN.md §11). Each car's obstacle scan
  /// reads the tick-START positions of every other agent (via a spatial
  /// grid), so per-car speed updates are order-independent: they fan out
  /// across the lent pool, and positions and route reassignments commit in
  /// a sequential, id-ordered phase — bit-identical at any thread count.
  void step(double dt);

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] const TownMap& map() const { return map_; }
  [[nodiscard]] const WorldConfig& config() const { return cfg_; }
  [[nodiscard]] int num_vehicles() const { return static_cast<int>(vehicles_.size()); }
  [[nodiscard]] const CarAgent& vehicle(int i) const {
    return vehicles_[static_cast<std::size_t>(i)];
  }

  /// Positions of every car: peer vehicles, then background cars.
  [[nodiscard]] std::vector<Vec2> car_positions() const;
  [[nodiscard]] std::vector<Vec2> pedestrian_positions() const;

  /// Collect a training frame from peer vehicle `v` with the expert's
  /// waypoint labels (paper: BEV + next command + next planned waypoints).
  /// A deterministic (per sample id) fraction of frames is pose-perturbed
  /// for recovery augmentation (see WorldConfig::perturb_prob).
  [[nodiscard]] data::Sample collect_sample(int v, std::uint64_t sample_id) const;

  /// Render a BEV for an arbitrary pose: every car but peer vehicle
  /// `exclude_vehicle` (-1: none), every pedestrian, and `route` ahead of
  /// `route_s`. collect_sample renders through it, and so does the online
  /// evaluator's test autopilot, which is not part of the world's agent set.
  [[nodiscard]] data::BevGrid render_ego_bev(const Vec2& pos, double heading, const Route& route,
                                             double route_s, int exclude_vehicle = -1) const;

  /// Obstacle-aware allowed speed at an arbitrary pose: scans cars and
  /// pedestrians in the forward corridor. This is the expert's (and the
  /// labels') braking behaviour. `ignore_cars` is the deadlock-breaker mode
  /// (pedestrians are always respected).
  [[nodiscard]] double allowed_speed_at(const Vec2& pos, double heading, double base_speed,
                                        int exclude_vehicle = -1,
                                        bool ignore_cars = false) const;

  /// Lane-offset driving position for arc length `s` on `route` (right-hand
  /// traffic): centreline shifted lane_offset_m to the right of the tangent.
  [[nodiscard]] Vec2 lane_position(const Route& route, double s) const;

  /// True when a circle at `pos` with `radius` overlaps any car or pedestrian
  /// (peer vehicle `exclude_vehicle` excluded).
  [[nodiscard]] bool collides(const Vec2& pos, double radius, int exclude_vehicle = -1) const;

  /// Lend a worker pool for step() (non-owning, transient — never
  /// serialized). Null or absent: step() runs inline, bit-identically.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Register (or clear, with nullopt) the position of an external vehicle —
  /// the online evaluator's test autopilot — so that the world's own traffic
  /// brakes for it, the same courtesy CARLA agents extend to the ego car.
  /// The external car is never part of car_positions() or collides().
  void set_external_car(std::optional<Vec2> pos) { external_car_ = pos; }

  /// Serialize/restore the mutable world state (agents, routes, RNG streams,
  /// sim clock) into a World constructed with the same (cfg, num_vehicles,
  /// seed), so a restored world steps bit-identically. The map and the
  /// transient external-car marker are not serialized. load() throws
  /// std::exception on malformed or incompatible input.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);

 private:
  template <class Io, class S>
  static void fields(Io& io, S& w);

  void assign_new_route(CarAgent& a, Rng& rng);
  void step_peds(double dt);
  [[nodiscard]] double expert_target_speed(const CarAgent& a, int vehicle_index) const;
  /// Command/bend speed cap shared by step() and the labels.
  [[nodiscard]] double base_target_speed(const CarAgent& a) const;
  /// step()'s twin of allowed_speed_at: scans the tick-start obstacle
  /// grid instead of live agent state. `exclude` indexes snap_pos_ (< 0:
  /// exclude nothing; self-overlap is rejected by the corridor test anyway).
  [[nodiscard]] double allowed_speed_snapshot(const Vec2& pos, double heading,
                                              double base_speed, int exclude,
                                              bool ignore_cars) const;

  WorldConfig cfg_;
  TownMap map_;
  std::vector<CarAgent> vehicles_;
  std::vector<CarAgent> cars_;
  std::vector<PedAgent> peds_;
  std::optional<Vec2> external_car_;
  Rng route_rng_;
  Rng ped_rng_;
  double time_ = 0.0;
  ThreadPool* pool_ = nullptr;  // transient; not serialized
  // step()'s obstacle snapshot (rebuilt each tick; never serialized).
  std::vector<Vec2> snap_pos_;
  UniformGrid snap_grid_;
  std::size_t snap_peds_begin_ = 0;  ///< snap_pos_ layout: cars, then peds
};

}  // namespace lbchat::sim
