// Child runs of lbchat_e2e. The parent re-executes its own binary once per
// run (`lbchat_e2e --child sim|svc ...`), so each run starts from a fresh
// process — peak RSS is per run and no process-global obs or registry state
// survives from one run to the next. A child prints exactly one JSON object
// (flat: numbers plus the "digest" and "error" strings) on stdout.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.h"

namespace lbchat::e2e {

struct ChildArgs {
  Workload workload = Workload::kLbChat16;
  std::uint64_t seed = 1;
  int index = 0;       ///< sub-scenario (sim workloads) or batch job (svc_mixed)
  bool trace = false;  ///< wrap the strategy in TimedStrategy and replay layer calls
  bool check = false;       ///< stop at check_horizon() after recording the state digest
  bool setup_only = false;  ///< stop after set-up
  bool smoke = false;
  std::string workdir;  ///< where the fleet service's job root goes (removed after)
};

/// One simulation of sim_case(workload, seed, index): set-up, the timed
/// training loop (with the state digest at check_horizon()), the output
/// checks, and with `trace` the layer metrics.
int run_sim_child(const ChildArgs& args);

/// The svc_mixed closed batch through an in-process svc::FleetService.
int run_svc_child(const ChildArgs& args);

}  // namespace lbchat::e2e
