// ModelRegistry — the versioned, durable record of every model the
// automation loop has built, and which one is promoted.
//
// The paper's §5 frames deployable learning models as versioned,
// auditable artifacts; the automation loop makes that operational: a
// process killed at *any* stage of train -> extract -> compile ->
// canary -> swap must come back serving the last *promoted* version,
// and the audit trail must never claim a promotion that did not reach
// disk.
//
// Durability follows the CLSEG idiom (store/segment_file.cpp):
//
//   registry.clmr  — the whole registry state (entries + the active
//                    version) in the CLMRG01 binary format: 8-byte
//                    magic, format version, payload length, separate
//                    FNV-1a checksums over header and payload, varint/
//                    bit-exact-double columns, and a *total* decoder
//                    (bounds, enum, monotonicity, exact-consumption
//                    checks) with stable error codes. Every mutation
//                    rewrites it via write-then-rename — a crash leaves
//                    a stale .tmp, never a torn registry.
//
//   audit.log      — append-only, one checksummed line per event
//                    (published / promoted / rolled_back / aborted /
//                    recovered / drift). Appends are ordered AFTER the
//                    registry rename that they describe, so a kill
//                    between the two loses the audit line, never
//                    invents a promotion ("no phantom promotions").
//                    A torn final line is detected by its checksum and
//                    dropped on reload.
//
// A corrupt registry file degrades to an empty start (quarantined to
// registry.clmr.corrupt, counted on control.registry_corrupt_recoveries)
// rather than refusing to boot: the loop can always retrain; it cannot
// always wait for an operator.
//
// Every persist crosses the `control.registry` fault site, so the
// chaos suite drives disk failures through the same retry/degrade
// machinery as the rest of the pipeline.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campuslab/control/development_loop.h"
#include "campuslab/util/time.h"

namespace campuslab::control {

inline constexpr std::uint8_t kModelRegistryFormatVersion = 1;

/// One versioned model. `package` carries the deployable subset
/// (task, student tree, quantizer, strategy, resources); the trust
/// report and P4 source are rebuildable artifacts and not persisted.
struct RegistryEntry {
  std::uint32_t version = 0;
  Timestamp trained_at{};
  double candidate_accuracy = 0.0;  // on the training window
  double incumbent_accuracy = 0.0;  // incumbent on the same window
  DeploymentPackage package;
};

/// Plain decoded form of registry.clmr, exposed for the corruption and
/// golden-fixture suites.
struct RegistryFile {
  std::uint32_t active_version = 0;  // 0 = none promoted
  std::vector<RegistryEntry> entries;
};

/// Encode to the CLMRG01 byte format (deterministic: same input, same
/// bytes — the golden fixture pins them).
std::vector<std::uint8_t> encode_registry(const RegistryFile& file);

/// Total decoder. Stable error codes: registry_magic, registry_version,
/// registry_truncated, registry_checksum, registry_corrupt.
Result<RegistryFile> decode_registry(std::span<const std::uint8_t> bytes);

/// File forms; `registry_io` on filesystem failure. Writing is
/// write-then-rename and crosses the control.registry fault site.
Status write_registry_file(const RegistryFile& file,
                           const std::string& path);
Result<RegistryFile> read_registry_file(const std::string& path);

enum class AuditKind : std::uint8_t {
  kPublished = 0,    // candidate persisted, not yet promoted
  kPromoted = 1,     // canary passed; registry active flipped
  kRolledBack = 2,   // canary regressed; candidate discarded
  kAborted = 3,      // a stage failed past its retry budget
  kRecovered = 4,    // restart redeployed the persisted active version
  // A cycle is beginning; the detail names what armed it
  // (trigger=drift|periodic|manual). Name and text predate the
  // periodic and manual triggers and stay for format stability.
  kDriftTrigger = 5
};

std::string_view to_string(AuditKind kind) noexcept;

struct AuditEvent {
  std::uint64_t seq = 0;
  Timestamp at{};
  AuditKind kind = AuditKind::kPublished;
  std::uint32_t version = 0;
  std::string detail;
};

class ModelRegistry {
 public:
  /// Open (or create) a registry in `directory`. An empty directory
  /// string selects ephemeral in-memory mode (benches, unit tests).
  /// A corrupt registry file degrades to an empty start and is
  /// quarantined; only filesystem errors fail the open.
  static Result<ModelRegistry> open(std::string directory);

  // -- mutations (each persists registry.clmr before returning ok,
  //    then appends the audit line; all cross control.registry) ------

  /// Insert a new version (must be > every existing version). Does not
  /// change the active version.
  Status publish(RegistryEntry entry, std::string_view detail = {});
  /// Flip the active version to `version` (must exist).
  Status promote(std::uint32_t version, Timestamp at,
                 std::string_view detail = {});
  /// Audit-only records (rollback / abort / recovery / drift): the
  /// registry state is unchanged, so only the log is written.
  Status record(AuditKind kind, std::uint32_t version, Timestamp at,
                std::string_view detail = {});

  // -- queries ------------------------------------------------------

  std::uint32_t active_version() const noexcept {
    return state_.active_version;
  }
  const RegistryEntry* active() const noexcept {
    return find(state_.active_version);
  }
  const RegistryEntry* find(std::uint32_t version) const noexcept;
  const std::vector<RegistryEntry>& entries() const noexcept {
    return state_.entries;
  }
  /// Next unused version number (max + 1; 1 for an empty registry).
  std::uint32_t next_version() const noexcept;

  const std::string& directory() const noexcept { return directory_; }
  bool persistent() const noexcept { return !directory_.empty(); }
  /// True when open() found a corrupt registry file and empty-started.
  bool recovered_from_corruption() const noexcept {
    return recovered_from_corruption_;
  }

  /// The audit trail as loaded at open() plus everything appended
  /// since. Reload with open() to observe another process's appends.
  const std::vector<AuditEvent>& audit_trail() const noexcept {
    return audit_;
  }
  /// Entries retained per registry file; older unpromoted versions are
  /// pruned at publish() (the active version is always retained).
  std::size_t max_entries = 16;

 private:
  ModelRegistry() = default;

  Status persist();
  Status append_audit(AuditKind kind, std::uint32_t version, Timestamp at,
                      std::string_view detail);
  std::string registry_path() const;
  std::string audit_path() const;

  std::string directory_;
  RegistryFile state_;
  std::vector<AuditEvent> audit_;
  std::uint64_t next_audit_seq_ = 1;
  bool recovered_from_corruption_ = false;
};

/// Audit-log line codec, exposed for the corruption suite. Encoding is
/// one line, no trailing newline; decode returns nullopt for malformed
/// or checksum-failing lines (a torn append).
std::string encode_audit_line(const AuditEvent& event);
std::optional<AuditEvent> decode_audit_line(std::string_view line);

}  // namespace campuslab::control
