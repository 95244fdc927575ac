// service::durable_store: crash-safe persistence for the result store --
// an append-only write-ahead record log beside the JSON snapshot, the
// log+compaction substrate the ROADMAP's binary-store scale-out item
// calls for (JSON stays the import/export format; see bench/README.md's
// failure-modes section for the operational contract).
//
// Layout on disk, for a snapshot path P:
//
//   P          -- the store snapshot: exactly the result_store::to_json
//                 v2 document (so an old plain-JSON cache upgrades in
//                 place, and P remains human-readable / jq-able).
//   P.log      -- the record log: a 16-byte header (8-byte magic
//                 "NWDCWAL1" + a u64 digest of the store_header the log
//                 is valid under), then length-prefixed records
//                 [u32 payload bytes][u32 CRC-32 of payload][payload],
//                 integers little-endian. Each payload is one complete
//                 write_store_entry document -- a full self-describing
//                 entry, so replay is a plain re-insert and replaying a
//                 record twice is idempotent.
//   P.tmp      -- transient: the snapshot rotation in flight
//                 (write_file_atomic); deleted on recovery if found.
//   *.corrupt-<n> -- quarantined state that failed validation, kept for
//                 diagnosis, never read again.
//
// Write path: insert -> append() (record written, not yet synced) ->
// sync() once per service evaluation pass (one fsync amortized over the
// batch). Results are durable when the response is sent. When the log
// outgrows the snapshot (wants_compaction), compact() rotates: snapshot
// written atomically (tmp + fsync + rename), THEN the log is truncated
// back to its header -- a crash between the two merely replays records
// into a store that already contains them.
//
// Recovery (open) never aborts on bad state, it degrades: a snapshot or
// log header that fails validation is quarantined and the boot continues
// cold; a torn/corrupt log tail replays the longest valid record prefix,
// quarantines the invalid tail bytes, and truncates the log to the
// prefix. Every degradation is reported in recovery_report::warnings.
//
// The store is not internally synchronized; the owning sweep_service
// serializes access under its store mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/result_store.h"

namespace nwdec::service {

struct durable_options {
  /// fsync the log on sync() and the snapshot rotation on compact().
  /// false = atomic against process crashes only (tests, tmpfs).
  bool fsync = true;
  /// Compaction triggers once the log's record bytes exceed BOTH bounds:
  /// an absolute floor (small logs are cheap to replay; the golden smoke
  /// workloads never rotate mid-run) ...
  std::size_t compact_min_bytes = std::size_t{64} << 10;  // 64 KiB
  /// ... and this multiple of the current snapshot size (replay work
  /// stays proportional to the state it reconstructs).
  double compact_ratio = 4.0;
};

/// What open() found and did -- the daemon logs the warnings at startup.
struct recovery_report {
  bool snapshot_loaded = false;      ///< the snapshot parsed and was loaded
  std::size_t snapshot_entries = 0;  ///< entries the snapshot contributed
  std::size_t log_records = 0;       ///< valid log records replayed
  std::size_t dropped_bytes = 0;     ///< invalid log tail bytes quarantined
  /// One line per degradation (quarantined snapshot, torn tail, stale
  /// tmp); empty on a clean start.
  std::vector<std::string> warnings;
};

/// The 64-bit digest of a store_header recorded in the log header: a log
/// is only replayed into a store with the identical configuration.
std::uint64_t store_config_digest(const store_header& header);

/// Emits one structured `recovery_warning` record (component
/// "durable_store", level warn) per degradation in `report`, and bumps
/// nwdec_recovery_warnings_total -- the daemon's startup path and any
/// other open() caller that wants the warnings on the log.
void log_recovery(const recovery_report& report);

class durable_store {
 public:
  /// `path` is the snapshot file; the log lives at `path` + ".log".
  explicit durable_store(std::string path, durable_options options = {});
  ~durable_store();
  durable_store(const durable_store&) = delete;
  durable_store& operator=(const durable_store&) = delete;

  const std::string& snapshot_path() const { return path_; }

  /// Recovers snapshot + log into `store` (see the header comment for the
  /// degradation rules) and opens the log for appends. Throws io_error
  /// only on real I/O failures (an unwritable directory), never on
  /// corrupt state.
  recovery_report open(result_store& store, const store_header& expected);

  /// Appends one entry record to the log (written, not yet fsynced --
  /// call sync() to make a batch durable). The caller has already
  /// inserted the entry into the store.
  void append(std::uint64_t fingerprint, const stored_result& result);

  /// fsyncs the log (no-op when options.fsync is off).
  void sync();

  /// True when the log's record bytes exceed the compaction thresholds.
  bool wants_compaction() const;

  /// Rotates: writes the full snapshot atomically, then truncates the log
  /// back to its header. Crash-safe at every step -- a kill between the
  /// snapshot rename and the truncation replays already-present records.
  void compact(const result_store& store, const store_header& header);

 private:
  void recover_log(result_store& store, const store_header& expected,
                   recovery_report& report);
  /// Truncates the log to empty and writes a fresh header.
  void reset_log(const store_header& header);

  std::string path_;
  std::string log_path_;
  durable_options options_;
  int fd_ = -1;  ///< the open log (O_APPEND)
  /// On-disk sizes, the log's counting its 16-byte header; the compaction
  /// thresholds compare them.
  std::size_t log_bytes_ = 0;
  std::size_t snapshot_bytes_ = 0;
};

}  // namespace nwdec::service
