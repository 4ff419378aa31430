// Checkpoint/restore for fleet runs.
//
// A checkpoint is a single CRC32-checksummed frame (common/frame.h, type
// kCheckpoint) whose payload carries the complete mutable run state of a
// FleetSim — sim clock, world agents, per-vehicle models/optimizers/datasets,
// in-flight sessions with queued transfers, fault-injector and RNG stream
// state, accounting, and strategy-private state — such that
//
//     run to T2  ==  run to T1 + save + restore in a fresh process + run to T2
//
// bit-identically (loss curves, event logs, metrics exports). See DESIGN.md
// §10 for the wire layout and the exact determinism contract.
//
// Restore never throws past the API: every malformed, truncated, corrupt, or
// incompatible input maps to a CkptStatus. A failed restore leaves the target
// sim in an unspecified state — construct a fresh one.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lbchat {
class ByteWriter;
class ByteReader;
struct StrategyOptionKv;
}  // namespace lbchat

namespace lbchat::engine {

struct ScenarioConfig;

/// Bumped on any incompatible change to the checkpoint payload layout.
/// v2: one tick semantics — kCore drops the net/infra RNG streams, and every
/// session carries its own RNG stream and no RSU position.
/// v3: every tuned strategy's state blob starts with its tunables' echo
/// (common/tunable.h), so ProxSkip, DFL-DDS and the LbChat family grew one.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Section tags of the checkpoint body (u8 on the wire). Every section is
/// length-prefixed, so tooling can walk the structure without the config.
enum class CkptSection : std::uint8_t {
  kCore = 1,      ///< clock, schedule, engine RNGs, pair maps
  kWorld = 2,     ///< world agents + mobility RNG streams
  kFaults = 3,    ///< fault-injector state
  kNodes = 4,     ///< eval set + per-vehicle model/optimizer/dataset/RNG
  kSessions = 5,  ///< in-flight PairSessions with queued transfers
  kStats = 6,     ///< TransferStats + per-vehicle accounting
  kMetrics = 7,   ///< RunMetrics accumulated so far (loss curves)
  kStrategy = 8,  ///< strategy-private state (Strategy::save_state)
  kObs = 9,       ///< event-trace ring + metrics-registry snapshot
};

[[nodiscard]] std::string_view section_name(std::uint8_t tag);

/// Outcome of FleetSim::restore / inspect_checkpoint.
enum class CkptStatus : std::uint8_t {
  kOk = 0,
  kBadFrame = 1,          ///< envelope rejected (magic/length/CRC)
  kBadVersion = 2,        ///< checkpoint layout version unsupported
  kConfigMismatch = 3,    ///< fingerprint/seed/vehicle count differ from the sim's
  kStrategyMismatch = 4,  ///< saved under a different strategy
  kMalformed = 5,         ///< payload structurally invalid past the CRC
};

[[nodiscard]] std::string_view to_string(CkptStatus s);

/// FNV-1a fingerprint of every ScenarioConfig field that shapes simulation
/// state: ScenarioConfig's member list (engine/scenario.h) run under Save.
/// duration_s and num_threads are deliberately EXCLUDED: a resumed run
/// may extend the horizon or change the lane count without breaking
/// bit-exactness (the engine is deterministic across thread counts).
[[nodiscard]] std::uint64_t config_fingerprint(const ScenarioConfig& cfg);

/// Version salt mixed into every scenario fingerprint. Bump to invalidate
/// all cached results (bench .bench_cache entries and svc ResultCache
/// entries alike) after behavioural code changes.
/// v4: the scenario fields enter through config_fingerprint.
/// v5: one tick semantics (snapshot mobility, per-session RNG streams).
inline constexpr std::uint32_t kScenarioFingerprintVersion = 5;

/// Result-cache key of a run: the approach name, the version salt, duration_s
/// (a cache entry answers one exact horizon) and config_fingerprint — so the
/// cache key and the checkpoint key read the same member list and cannot
/// disagree on which fields shape a run. Non-default strategy options
/// (baselines::StrategyRegistry::fingerprint_options) enter via a marked
/// tail; with none, a strategy hashes as if it had no options at all.
[[nodiscard]] std::uint64_t scenario_fingerprint(const ScenarioConfig& cfg,
                                                 std::string_view approach,
                                                 std::span<const StrategyOptionKv> options = {});

/// Structural summary of a checkpoint, produced without a ScenarioConfig.
struct CkptInfo {
  std::uint32_t version = 0;
  std::uint64_t config_fingerprint = 0;
  std::uint64_t seed = 0;
  std::uint32_t num_vehicles = 0;
  std::string strategy;
  double time_s = 0.0;
  struct Section {
    std::uint8_t tag = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Section> sections;
};

/// Validate the envelope and walk the section framing of checkpoint `bytes`,
/// filling `info`. Config-free (any checkpoint can be inspected); never
/// throws. Returns kOk only when the frame verifies, the version matches,
/// and every section is well-framed with no trailing bytes.
[[nodiscard]] CkptStatus inspect_checkpoint(std::span<const std::uint8_t> bytes, CkptInfo& info);

/// JSON rendering of a CkptInfo — one object with version, fingerprint (hex),
/// seed, vehicles, strategy, time_s, and a sections array of
/// {tag,name,bytes}. Shared by `ckpt_check --json` and the fleet service's
/// status endpoint (which embeds it for preempted jobs).
[[nodiscard]] std::string ckpt_info_json(const CkptInfo& info);

}  // namespace lbchat::engine
