#ifndef REPLIDB_AUDIT_STATUS_H_
#define REPLIDB_AUDIT_STATUS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace replidb::audit {

/// \brief One row of the operator console: everything an operator would
/// ask about a replica ("SHOW REPLICA STATUS").
struct ReplicaStatus {
  int32_t id = -1;
  std::string role;   ///< "master" / "slave" / "replica" / "standby".
  std::string state;  ///< "online" / "suspect" / "down" / "resyncing".
  uint64_t applied_version = 0;  ///< Last applied global version.
  uint64_t lag_versions = 0;     ///< Versions behind the cluster head.
  uint64_t backlog = 0;          ///< Replication entries queued, unapplied.
  uint64_t apply_errors = 0;
  uint64_t digest_epoch = 0;  ///< Newest audit epoch this replica answered.
  bool diverged = false;
  uint64_t first_divergent_epoch = 0;  ///< 0 = clean.
  std::string diverged_tables;         ///< Comma-joined, empty if clean.

  // Durable binlog health (src/binlog). Plain values so audit stays free
  // of a binlog dependency.
  uint64_t binlog_segments = 0;
  uint64_t binlog_active_bytes = 0;   ///< Bytes in the active segment.
  uint64_t binlog_total_bytes = 0;
  uint64_t binlog_records = 0;
  uint64_t binlog_checkpoint_version = 0;
  /// -1 = no restart base: no checkpoint yet, or a non-durable log,
  /// which never takes one (only a durable replica restarts from it).
  double binlog_checkpoint_age_s = -1;
  uint64_t binlog_truncate_watermark = 0;
  uint64_t binlog_replay_position = 0;  ///< Persisted apply watermark.
  uint64_t recoveries = 0;  ///< Crash-restart recoveries from the log.
};

/// \brief One windowed SLO tracker's current state (commit latency,
/// replica staleness; see obs/slo.h). Plain values so audit stays free of
/// an obs dependency.
struct SloStatus {
  std::string name;        ///< e.g. "commit_latency_ms".
  double p50 = 0;          ///< Last closed non-empty window.
  double p99 = 0;
  double target_p99 = 0;
  uint64_t windows = 0;    ///< Windows closed so far.
  uint64_t breaches = 0;   ///< Closed windows whose p99 exceeded target.
};

/// \brief One critical-path attribution row: how much of a chain group's
/// latency one wait state accounts for (see obs/critical_path.h). Plain
/// values so audit stays free of an obs dependency.
struct PathStageStatus {
  std::string chain;    ///< "client" / "apply".
  std::string outcome;  ///< "commit" / "abort" / "gave_up" / "applied".
  std::string stage;    ///< Wait-state name, e.g. "apply_backlog".
  uint64_t chains = 0;  ///< Chains in the (chain,outcome) group.
  double share_pct = 0; ///< Stage share of the group's total window.
  double p50_ms = 0;
  double p99_ms = 0;
};

/// \brief Point-in-time cluster introspection snapshot, built by the
/// controller on demand (programmatic API for benches/tests; rendered as
/// text for operators).
struct StatusSnapshot {
  std::string mode;         ///< Replication mode name.
  std::string consistency;  ///< Consistency level name.
  uint64_t head_version = 0;
  uint64_t audit_epochs_started = 0;
  uint64_t audit_epochs_compared = 0;
  uint64_t divergences_detected = 0;
  std::vector<ReplicaStatus> replicas;
  std::vector<SloStatus> slos;  ///< Empty when SLO tracking is disabled.
  /// Empty unless the critical-path profiler is enabled.
  std::vector<PathStageStatus> path_stages;

  // Controller recovery-log health (the Sequoia-style resync log).
  uint64_t recovery_log_entries = 0;
  uint64_t recovery_log_bytes = 0;
  uint64_t recovery_log_segments = 0;
  uint64_t recovery_log_truncate_watermark = 0;
};

/// Renders the snapshot as a MySQL-`SHOW REPLICA STATUS`-style aligned
/// text table, one replica per row, with an audit summary line.
std::string RenderReplicaStatus(const StatusSnapshot& snapshot);

/// Renders the snapshot as a machine-readable JSON document.
std::string RenderStatusJson(const StatusSnapshot& snapshot);

/// Renders the snapshot in Prometheus exposition format: per-replica
/// metrics labelled {replica="id",role="...",state="..."}, one `# TYPE`
/// line per metric family, and label values escaped per the exposition
/// rules (backslash, double quote, newline).
std::string RenderStatusPrometheus(const StatusSnapshot& snapshot);

}  // namespace replidb::audit

#endif  // REPLIDB_AUDIT_STATUS_H_
