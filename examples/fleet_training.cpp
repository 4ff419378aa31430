// Fleet training: a small end-to-end collaborative-training campaign.
//
// Runs a fleet of expert vehicles through the full pipeline — data
// collection, local training, opportunistic pairwise exchange — under two
// approaches (LbChat and the DP gossip baseline) and prints their training
// loss curves and transfer statistics side by side.
//
// Run:  ./build/examples/fleet_training [num_vehicles] [duration_s]

#include <cstdio>
#include <cstdlib>

#include "baselines/registry.h"
#include "engine/fleet.h"

int main(int argc, char** argv) {
  using namespace lbchat;

  engine::ScenarioConfig cfg;
  cfg.num_vehicles = argc > 1 ? std::atoi(argv[1]) : 8;
  cfg.duration_s = argc > 2 ? std::atof(argv[2]) : 600.0;
  cfg.collect_duration_s = 120.0;
  cfg.eval_interval_s = 60.0;
  cfg.world.num_background_cars = 12;
  cfg.world.num_pedestrians = 30;
  cfg.wireless_loss = true;

  for (const char* approach : {"LbChat", "DP"}) {
    engine::FleetSim sim{cfg, baselines::registry().make(approach)};
    const engine::RunMetrics m = sim.run();
    std::printf("\n=== %s ===\n", approach);
    std::printf("loss curve (t, mean held-out loss):\n");
    for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
      std::printf("  %6.0fs  %.4f\n", m.loss_curve.times[i], m.loss_curve.values[i]);
    }
    std::printf("local SGD steps: %ld\n", m.train_steps);
    std::printf("sessions: %d started, %d aborted\n", m.transfers.sessions_started,
                m.transfers.sessions_aborted);
    std::printf("model sends: %d started, %d completed (receiving rate %.0f%%)\n",
                m.transfers.model_sends_started, m.transfers.model_sends_completed,
                100.0 * m.transfers.model_receiving_rate());
    std::printf("coreset sends: %d started, %d completed\n",
                m.transfers.coreset_sends_started, m.transfers.coreset_sends_completed);
  }
  return 0;
}
