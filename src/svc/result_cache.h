// On-disk result cache for the fleet service, keyed by the job fingerprint
// (svc/job.h — the shared scenario fingerprint of engine/checkpoint.h plus
// payload-shaping salts). A hit means a previous job with a byte-identical
// payload already ran: the service serves the stored artifacts and skips the
// run entirely.
//
// Layout: <root>/<fingerprint-hex-16>/{metrics.json,report.json,
// [events.jsonl,]manifest.json}. manifest.json is written last via a staging
// directory + atomic rename, so a crash mid-publish leaves either no entry
// or a complete one — lookup() trusts any directory whose manifest reads.
//
// Thread safety: lookup/publish are safe to call from multiple workers; the
// rename makes concurrent publishes of the same fingerprint idempotent
// (first wins, the loser discards its staging copy of identical bytes).
#pragma once

#include <cstdint>
#include <filesystem>

#include "svc/result.h"

namespace lbchat::svc {

class ResultCache {
 public:
  explicit ResultCache(std::filesystem::path root) : root_(std::move(root)) {}

  /// Load the payload cached under `fingerprint`; false on miss (or a
  /// half-written entry, which reads as a miss).
  [[nodiscard]] bool lookup(std::uint64_t fingerprint, JobPayload& out) const;

  /// Store `payload` under `fingerprint`. Returns false on I/O failure;
  /// losing a publish race to an identical payload is success.
  bool publish(std::uint64_t fingerprint, const JobPayload& payload);

  /// Directory a hit would be served from (exists only after a publish).
  [[nodiscard]] std::filesystem::path entry_dir(std::uint64_t fingerprint) const;

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path root_;
};

}  // namespace lbchat::svc
