#ifndef REPLIDB_MIDDLEWARE_REPLICA_NODE_H_
#define REPLIDB_MIDDLEWARE_REPLICA_NODE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "binlog/log_store.h"
#include "binlog/segmented_log.h"
#include "binlog/writeset_table.h"
#include "engine/rdbms.h"
#include "middleware/apply_scheduler.h"
#include "middleware/messages.h"
#include "net/dispatcher.h"
#include "net/failure_detector.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "ship/pipeline.h"
#include "sim/simulator.h"

namespace replidb::middleware {

/// \brief Options for a replica node.
struct ReplicaOptions {
  /// Concurrent query workers (connections the engine serves in parallel).
  int capacity = 8;
  /// Workers for applying the replication stream. 1 = strictly serial
  /// apply (the paper's lagging hot standby, §2.2); more workers overlap
  /// non-conflicting entries while preserving commit order.
  int apply_workers = 1;
  /// How the ordered stream is scheduled onto those workers (see
  /// ApplyPolicy). kConflictGraph with 1 worker degenerates to serial
  /// timing, so the default preserves the single-worker baseline.
  ApplyPolicy apply_policy = ApplyPolicy::kConflictGraph;
  /// How often committed-but-unshipped binlog entries are pushed to
  /// subscribers (the 1-safe loss window, §2.2).
  sim::Duration ship_interval = 50 * sim::kMillisecond;
  /// Apply cost model: per-writeset-op and fixed costs (µs) when applying
  /// row images (statement re-execution uses the real engine cost).
  double apply_base_us = 60;
  double apply_per_op_us = 8;
  /// Backup/restore throughput in bytes per second of simulated time.
  double backup_bytes_per_sec = 40e6;
  /// Memory model for the Tashkent+-style load-balancing experiment: how
  /// many tables fit in this replica's buffer pool (0 disables the model).
  /// Transactions whose tables are all hot run at full speed; a miss
  /// multiplies the service cost (disk-bound execution).
  int hot_table_capacity = 0;
  double cache_miss_penalty = 3.0;
  /// If true, a crash also destroys local data (disk loss): the replica
  /// must be re-cloned rather than merely resynchronized.
  bool lose_data_on_crash = false;
  /// Shipping-pipeline knobs for the master role's binlog stream (wire
  /// codec, batching, credit-based flow control).
  ship::ShipOptions ship;
  /// Group-apply amortization: entries arriving after the first of one
  /// shipped batch pay apply_base_us * this factor (they share the
  /// batch's group fsync). 1.0 = no amortization.
  double apply_group_factor = 1.0;
  /// Segmented durable binlog (src/binlog). Every replica keeps one — it
  /// backs the master's shipping cursor and the binlog-health console —
  /// but only `durable = true` makes it the recovery source: the engine
  /// then models volatile state, a crash wipes it, and Restart() rebuilds
  /// from the latest checkpoint + log tail instead of a full resync. Only
  /// a durable log carries checkpoints (a table image at setup, after a
  /// restore and at every boundary); any other log holds entries alone.
  struct BinlogConfig {
    bool durable = false;
    int64_t segment_max_bytes = 256 * 1024;
    /// Entry records between log boundaries. At each one a durable log
    /// takes a checkpoint, and every log drops the segments behind the
    /// previous boundary. 0 = no boundary after setup: a durable log
    /// keeps only its setup checkpoint, and no log is ever truncated.
    uint64_t checkpoint_every = 512;
    /// fsync per record vs per rollover/checkpoint (wider torn-tail
    /// window after a crash when false).
    bool sync_every_append = true;
  } binlog;
};

/// \brief A database replica: one Rdbms engine attached to a simulated
/// cluster node, with a worker-pool queueing model, an ordered replication
/// stream, master-side log shipping, and backup/restore endpoints.
///
/// All state changes happen through messages (see messages.h); the
/// controller never touches the engine directly. Service times come from
/// the engine's CostModel and are charged against `capacity` workers, so
/// saturation, queueing delay, and apply lag all emerge from the model.
class ReplicaNode {
 public:
  ReplicaNode(sim::Simulator* sim, net::Network* network, net::NodeId node,
              engine::RdbmsOptions engine_options, ReplicaOptions options = {},
              net::SiteId site = 0);
  ~ReplicaNode();
  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  net::NodeId id() const { return dispatcher_->node(); }
  engine::Rdbms* engine() { return engine_.get(); }
  const engine::Rdbms* engine() const { return engine_.get(); }

  /// Highest global version incorporated into this replica's state.
  GlobalVersion applied_version() const { return applied_version_; }

  /// Nodes that receive this replica's committed entries (master role).
  void SetSubscribers(std::vector<net::NodeId> subscribers);

  /// Crash the node: network presence drops, queued work is lost. Local
  /// data survives unless options.lose_data_on_crash.
  void Crash();
  /// Restart after a crash: empty queues, data as per crash semantics.
  void Restart();
  bool crashed() const { return crashed_; }

  /// Direct (non-message) administrative access for test/bench setup —
  /// e.g. loading the initial schema identically on every replica.
  engine::ExecResult AdminExec(const std::string& sql);

  /// Versions queued in the ordered stream but not yet applied (lag in
  /// entries; the paper's master/slave lag, §2.2).
  uint64_t apply_backlog() const { return stream_.size(); }

  const ReplicaOptions& options() const { return options_; }

  /// The apply scheduler's timing/dependency state (tests, status).
  const ApplyScheduler& apply_scheduler() const { return apply_sched_; }

  /// Number of currently busy workers (load probe for load balancers).
  int64_t QueueDepth() const;

  /// Snapshots the engine's post-setup state as the replication baseline:
  /// call once on every replica after loading the identical initial
  /// schema/data, before traffic starts.
  void MarkSetupComplete();

  /// Registers the controller that receives progress beacons.
  void SetController(net::NodeId controller);

  /// Apply-path errors observed (divergence indicator).
  uint64_t apply_errors() const { return apply_errors_; }

  /// Software version of this replica's stack (§4.4.3 rolling upgrades).
  int software_version() const { return software_version_; }
  void set_software_version(int v) { software_version_ = v; }

  /// True while the master role's ship window to any subscriber is
  /// exhausted (credit flow control) — the admission backpressure signal.
  bool ShipBackpressured() const { return ship_pipeline_->AnyStalled(); }

  /// Forgets queued entries and restores a full ship window for one peer
  /// (it restarted or is being resynced, so its credit state is void).
  void ResetShipPeer(net::NodeId peer) { ship_pipeline_->ResetPeer(peer); }

  const ship::ShipPipeline& ship_pipeline() const { return *ship_pipeline_; }

  /// Durable-log introspection (SHOW REPLICA STATUS, fault injection,
  /// tests). The store is this node's "disk"; tampering with it models
  /// disk-level corruption.
  binlog::LogStore* log_store() { return log_store_.get(); }
  binlog::SegmentedBinlog* durable_log() { return durable_log_.get(); }
  const binlog::WritesetTable& writeset_table() const {
    return writeset_table_;
  }
  binlog::BinlogStats DurableLogStats() const { return durable_log_->Stats(); }
  /// Apply watermark persisted in the store's meta area — where crash
  /// recovery resumes its tail replay after the checkpoint image.
  GlobalVersion persisted_watermark() const;

  /// Crash-restart recovery outcomes (bench_c14 / status).
  uint64_t recoveries() const { return recoveries_; }
  sim::Duration last_recovery_duration() const {
    return last_recovery_duration_;
  }
  uint64_t last_recovery_replayed() const { return last_recovery_replayed_; }

 private:
  struct HeldTxn {
    engine::SessionId session = 0;
    engine::Writeset writeset;
  };

  // A version's slot in the ordered replication stream holds exactly one
  // of the next three. Slots never go on the wire.

  /// An entry shipped by a master or the controller, or the certified
  /// entry of a held transaction that died; applied here.
  struct EntrySlot {
    ReplicationEntry entry;
    /// Arrived after the first of its shipped batch: its durable apply
    /// shares the batch's group fsync (ReplicaOptions::apply_group_factor).
    bool group_follower = false;
  };
  /// A statement-mode write, re-executed here; `reply_to` gets its reply.
  struct ExecSlot {
    ExecTxnMsg msg;
    net::NodeId reply_to = -1;
  };
  /// This replica's held transaction, committed here once certified.
  struct HeldCommitSlot {
    FinishTxnMsg msg;
    net::NodeId reply_to = -1;
  };
  using SlotWork = std::variant<EntrySlot, ExecSlot, HeldCommitSlot>;
  struct Slot {
    sim::TimePoint arrival = 0;  ///< Queue-wait stage start.
    SlotWork work;
  };

  /// Outcome of applying one replication entry to the engine.
  struct EntryApply {
    /// The entry's own failure: a statement or its row images. A replica
    /// that cannot open a session applies nothing and reports OK.
    Status status;
    int64_t cost_us = 0;  ///< Modelled apply cost.
  };

  void HandleExec(const net::Message& m, const ExecTxnMsg& msg);
  void StartUnorderedExec(const ExecTxnMsg& msg, net::NodeId from);
  void DrainWaitingReads();
  /// Applies the hot-table cache model; returns the adjusted cost.
  int64_t TouchCache(const std::vector<std::string>& tables, int64_t cost);
  void HandleFinish(const net::Message& m, const FinishTxnMsg& msg);
  void HandleShipBatch(const net::Message& m, const ship::ShipBatchMsg& batch);
  /// Admits `work` into the ordered stream at version `v`. A version at or
  /// below the drain cursor, or one whose slot is already filled, is a
  /// duplicate and is dropped (returns false) — except that this
  /// replica's held commit replaces an entry buffered at its version.
  bool Admit(GlobalVersion v, SlotWork work);
  /// Grants matured byte credits (entries applied up to applied_version_)
  /// back to their senders.
  void ReleaseCredits();
  void HandleBackup(const net::Message& m, const BackupMsg& msg);
  void HandleRestore(const net::Message& m, const RestoreMsg& msg);

  /// Runs statements in one engine transaction; fills reply fields.
  /// If hold_commit, leaves the transaction open in held_.
  void RunTransaction(const ExecTxnMsg& msg, ExecTxnReply* reply);

  /// Applies contiguous buffered versions to the engine and schedules
  /// their timed completions.
  void DrainOrderedBuffer();
  /// Applies one entry: re-runs its statements in one transaction (rolled
  /// back in full if one fails) or applies its row images. Serves the
  /// live stream and crash replay; a held transaction in the way of the
  /// row images is killed and the apply retried (only a live replica
  /// holds any). `group_follower` amortizes the fixed apply cost.
  EntryApply ApplyEntry(const ReplicationEntry& entry, bool group_follower);

  /// Charges `cost` against the unordered worker pool; returns completion
  /// time. `start_out`, when given, receives the service start time (the
  /// queue-wait boundary for the per-stage breakdown).
  sim::TimePoint ChargeWorker(int64_t cost_us,
                              sim::TimePoint* start_out = nullptr);

  /// Ships binlog-derived entries committed after last_shipped_. A
  /// non-zero `sync_version` is shipped with a receipt-ack request
  /// (2-safe commit).
  void ShipCommitted(GlobalVersion sync_version = 0);
  /// Re-seeks the ship cursor at last_shipped_. Called wherever
  /// last_shipped_ or the durable log is reset; shipping itself only
  /// resumes the cursor.
  void ResetShipCursor();

  /// Appends one replication-stream entry to the durable log (write-ahead
  /// of its engine apply) and folds it into the writeset table. Duplicate
  /// versions are ignored.
  void DurableAppend(const ReplicationEntry& entry);
  /// Publishes replica.<id>.image_bytes and .pk_index_keys, and closes a
  /// log boundary when checkpoint_every entries accumulated.
  void MaybeCloseBoundary();
  /// Log boundary: a durable replica captures engine digests + image into
  /// a checkpoint record; every replica rotates the writeset table and
  /// GCs sealed segments behind the slowest consumer (previous boundary,
  /// and the ship watermark for masters).
  void CloseBoundary();
  /// Durable-mode restart path: CRC-scan the log, restore the latest
  /// checkpoint image, verify its digests, replay the tail, and charge
  /// the modeled recovery time against this node's workers.
  void RecoverFromDurableLog(sim::TimePoint now);

  /// Fires pending audit barriers the engine has reached. Called at every
  /// point engine_applied_ advances, so digests are captured synchronously
  /// at the exact stream position the barrier names (the engine may hold
  /// later versions by the time the timed completion runs).
  void CheckAuditBarriers();
  void SendAuditReport(uint64_t audit_epoch, net::NodeId to);

  void SendProgress();

  int64_t ApplyCost(const ReplicationEntry& entry,
                    bool group_follower = false) const;

  sim::Simulator* sim_;
  net::Network* network_;
  std::unique_ptr<net::Dispatcher> dispatcher_;
  std::unique_ptr<engine::Rdbms> engine_;
  ReplicaOptions options_;
  engine::RdbmsOptions engine_options_;

  std::unique_ptr<net::HeartbeatResponder> hb_responder_;
  std::unique_ptr<net::TcpKeepAliveResponder> ka_responder_;

  bool crashed_ = false;
  uint64_t epoch_ = 0;  ///< Bumped on crash; stale timers no-op.

  // Unordered worker pool (reads + master writes).
  std::vector<sim::TimePoint> workers_free_;

  // Ordered replication stream. `engine_applied_` advances synchronously
  // as entries reach the engine; `applied_version_` advances at the timed
  // completion (what the outside world observes).
  GlobalVersion applied_version_ = 0;
  GlobalVersion engine_applied_ = 0;
  /// Buffered slots, one per version; the drain takes engine_applied_ + 1.
  std::map<GlobalVersion, Slot> stream_;
  /// Timing/dependency model for the ordered stream: worker pool,
  /// conflict-key graph, barrier horizon, in-order visibility watermark.
  ApplyScheduler apply_sched_;
  uint64_t apply_errors_ = 0;

  // Durable segmented binlog: the node's on-"disk" replication log.
  std::unique_ptr<binlog::LogStore> log_store_;
  std::unique_ptr<binlog::SegmentedBinlog> durable_log_;
  binlog::WritesetTable writeset_table_;
  uint64_t entries_since_boundary_ = 0;
  GlobalVersion prev_boundary_version_ = 0;
  uint64_t recoveries_ = 0;
  sim::Duration last_recovery_duration_ = 0;
  uint64_t last_recovery_replayed_ = 0;

  // Master shipping.
  std::vector<net::NodeId> subscribers_;
  GlobalVersion last_shipped_ = 0;
  /// Resumable cursor over durable_log_ positioned just past
  /// last_shipped_: each ship tick reads only the frames appended since.
  std::optional<binlog::LogCursor> ship_cursor_;
  size_t binlog_shipped_index_ = 0;
  std::unique_ptr<sim::PeriodicTask> ship_task_;
  // 2-safe bookkeeping: version -> (acks outstanding, reply closure).
  struct PendingSync {
    int acks_needed = 0;
    std::function<void()> on_acked;
  };
  std::map<GlobalVersion, PendingSync> pending_sync_;
  /// Outgoing ship pipeline (master role): batches + flow control.
  std::unique_ptr<ship::ShipPipeline> ship_pipeline_;
  /// Credits owed per ingested-but-not-yet-applied entry: version ->
  /// (sender, bytes). Granted back when applied_version_ passes them.
  std::multimap<GlobalVersion, std::pair<net::NodeId, int64_t>>
      pending_credits_;

  // Held (uncommitted) transactions for certification mode. Ordered:
  // Crash() and conflict kills iterate it, and the resulting ROLLBACK /
  // Disconnect order feeds the engine's commit sequence.
  std::map<uint64_t, HeldTxn> held_;

  // Freshness-gated reads waiting for applied_version_ >= min_version.
  // `since` is when the read started waiting — the apply-backlog wait it
  // contributes to the client's critical path.
  struct WaitingRead {
    ExecTxnMsg msg;
    net::NodeId from = -1;
    sim::TimePoint since = 0;
  };
  std::vector<WaitingRead> waiting_reads_;

  // Audit barriers not yet reached: barrier version -> (epoch, reply-to).
  std::multimap<GlobalVersion, std::pair<uint64_t, net::NodeId>>
      pending_audits_;

  // Hot-table LRU (memory-aware LB experiment). Front = most recent.
  std::vector<std::string> hot_tables_;

  net::NodeId controller_ = -1;  ///< Set by the controller at registration.
  int software_version_ = 1;

  // Observability: per-node gauges, resolved once.
  obs::Gauge* backlog_gauge_ = nullptr;  ///< replica.<id>.apply_backlog.
  obs::Gauge* lag_ms_gauge_ = nullptr;   ///< replica.<id>.lag_ms.
  obs::Gauge* sched_keys_gauge_ = nullptr;  ///< replica.<id>.sched_keys.
  obs::Gauge* image_bytes_gauge_ = nullptr;  ///< replica.<id>.image_bytes.
  obs::Gauge* pk_index_keys_gauge_ = nullptr;  ///< replica.<id>.pk_index_keys.
};

}  // namespace replidb::middleware

#endif  // REPLIDB_MIDDLEWARE_REPLICA_NODE_H_
