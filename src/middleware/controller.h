#ifndef REPLIDB_MIDDLEWARE_CONTROLLER_H_
#define REPLIDB_MIDDLEWARE_CONTROLLER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include "common/hashing.h"
#include <vector>

#include "audit/auditor.h"
#include "audit/status.h"
#include "common/rng.h"
#include "middleware/messages.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "middleware/recovery_log.h"
#include "middleware/replica_node.h"
#include "net/dispatcher.h"
#include "net/failure_detector.h"
#include "net/network.h"
#include "ship/pipeline.h"
#include "sim/simulator.h"
#include "sql/determinism.h"

namespace replidb::middleware {

/// Load-balancing policies (§3.2, §4.1.3).
enum class LoadBalancePolicy {
  kRoundRobin,
  /// Least Pending Requests First (C-JDBC's LPRF).
  kLeastPending,
  /// Weighted least-pending: outstanding divided by a per-replica weight,
  /// for heterogeneous clusters (§4.1.3).
  kWeighted,
  /// Tashkent+-style memory-aware routing: transactions are routed by
  /// table affinity so each replica's working set stays in memory (§3.2).
  kMemoryAware,
};

const char* LoadBalancePolicyName(LoadBalancePolicy policy);

/// Load-balancing granularity (§3.2): connection-level pins each client
/// connection to one replica ("simple, but offers poor balancing when
/// clients use connection pools or persistent connections");
/// transaction-level rebalances every transaction.
enum class LoadBalanceGranularity { kConnection, kTransaction };

/// \brief Controller configuration.
struct ControllerOptions {
  ReplicationMode mode = ReplicationMode::kMasterSlaveAsync;
  ConsistencyLevel consistency = ConsistencyLevel::kSessionPCSI;
  LoadBalancePolicy load_balance = LoadBalancePolicy::kLeastPending;
  LoadBalanceGranularity granularity = LoadBalanceGranularity::kTransaction;
  NonDeterminismPolicy nondeterminism = NonDeterminismPolicy::kRefuse;

  /// 2-safe mode: slaves that must confirm receipt before a commit acks.
  int sync_ack_count = 1;
  /// Statement mode: replica replies required before acking the client
  /// (1 = first success; replicas.size() = fully eager).
  int statement_quorum = 1;

  /// Per-request timeout at the controller; expired requests fail with
  /// kUnavailable and the client driver retries.
  sim::Duration request_timeout = 2 * sim::kSecond;

  /// Middleware processing model: per-statement parse/route cost and the
  /// controller's worker parallelism. These move with the interception
  /// design (Figures 5-7): an engine-integrated design has ~0 extra cost,
  /// a protocol proxy parses wire formats (higher), a driver-level JDBC
  /// middleware sits in between.
  double per_statement_us = 25;
  int capacity = 32;

  /// Refuse writes when fewer than a majority of replicas are reachable
  /// (quorum behaviour under partitions, §4.3.4.3). Off by default: the
  /// paper notes replicated DBs favour C+A and "try to avoid" partitions.
  bool require_majority_for_writes = false;

  /// Heartbeat failure-detection settings for replica monitoring.
  net::HeartbeatOptions heartbeat;

  /// Shipping-pipeline knobs for the controller's own push paths
  /// (certification distribution, resync replay, anti-entropy). The
  /// master-slave binlog stream uses ReplicaOptions::ship instead.
  /// `ship.backpressure_admission` additionally defers routing new
  /// master-slave writes while the master's ship window is exhausted.
  ship::ShipOptions ship;

  /// Online content auditing (0 = disabled). Every interval the controller
  /// opens an audit epoch: it injects an audit barrier at the current head
  /// version, each online replica reports its per-table digests when its
  /// replication stream passes the barrier, and the DivergenceAuditor
  /// compares them — catching statement-replication divergence while the
  /// cluster serves traffic (the C5-style continuous validation the paper
  /// era lacked).
  sim::Duration audit_interval = 0;

  /// Whether reads may run on the master too (usually true; false models
  /// a dedicated-master configuration).
  bool reads_on_master = true;

  /// Windowed SLO tracking (obs/slo.h): commit latency and replica
  /// staleness are bucketed into `slo_window`-sized virtual-time windows;
  /// each closed window's p99 is checked against the target and breaches
  /// are counted in SHOW REPLICA STATUS. 0 disables tracking.
  sim::Duration slo_window = 5 * sim::kSecond;
  /// Commit-latency SLO: p99 of client-observed write latency (ms).
  double slo_commit_p99_ms = 50.0;
  /// Staleness SLO: p99 of versions-behind-head served to reads.
  double slo_staleness_p99 = 100.0;

  /// Controller replication (§3.2's missing piece). `mirror_to` names a
  /// standby controller that receives this controller's durable state
  /// (recovery-log entries, version counter, exactly-once outcomes).
  /// With `mirror_sync`, every write waits for the standby's ack — the
  /// "extra communication and synchronization that significantly impacts
  /// performance" the paper warns about, now measurable.
  net::NodeId mirror_to = -1;
  bool mirror_sync = false;
  /// This controller is a passive standby for `standby_of`: it absorbs
  /// mirror traffic, watches the active with its own heartbeats, and
  /// refuses client transactions until the active is declared dead.
  net::NodeId standby_of = -1;

  uint64_t seed = 1234;
};

/// \brief Aggregate controller statistics for benches and tests.
struct ControllerStats {
  uint64_t txns_total = 0;
  uint64_t reads_total = 0;
  uint64_t writes_total = 0;
  uint64_t commits = 0;
  uint64_t aborts_certification = 0;  ///< First-committer-wins kills.
  uint64_t aborts_execution = 0;      ///< Engine-level errors/conflicts.
  uint64_t rejected_nondeterministic = 0;
  uint64_t unsafe_broadcasts = 0;  ///< Unsafe stmts shipped anyway.
  uint64_t timeouts = 0;
  uint64_t unavailable = 0;
  uint64_t failovers = 0;
  uint64_t lost_transactions = 0;  ///< Acked commits missing after failover.
  uint64_t resyncs_completed = 0;
};

/// \brief The replication middleware controller ("database replication
/// middleware" box in Figures 1-3): accepts client transactions, routes
/// reads through the load balancer under the configured consistency
/// level, replicates writes per the configured strategy, detects replica
/// failures, fails over masters, resynchronizes rejoining replicas from
/// its Sequoia-style recovery log, and runs management operations
/// (backup, add replica).
///
/// The controller itself is a single process on one node — deliberately a
/// single point of failure, as §3.2 observes of academic prototypes; the
/// availability benches crash it to quantify that.
class Controller {
 public:
  Controller(sim::Simulator* sim, net::Network* network, net::NodeId node,
             std::vector<ReplicaNode*> replicas, ControllerOptions options = {},
             net::SiteId site = 0);
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  net::NodeId id() const { return dispatcher_->node(); }
  const ControllerOptions& options() const { return options_; }
  const ControllerStats& stats() const { return stats_; }

  /// Completes wiring: baselines every replica (MarkSetupComplete), sets
  /// shipping subscriptions, starts failure detection. Call after the
  /// initial schema/data was loaded identically on all replicas.
  void Start();

  /// Current cluster head version.
  GlobalVersion global_version() const { return global_version_; }

  net::NodeId master() const { return master_; }

  /// Per-replica weight for LoadBalancePolicy::kWeighted.
  void SetReplicaWeight(net::NodeId replica, double weight);

  /// Replica lifecycle --------------------------------------------------------

  enum class ReplicaState { kOnline, kDown, kResyncing };
  ReplicaState replica_state(net::NodeId replica) const;
  /// Online replicas right now (reads are balanced over these).
  std::vector<net::NodeId> OnlineReplicas() const;

  /// Administratively removes a replica from rotation (maintenance). A
  /// checkpoint is recorded so it can later resync from the recovery log.
  void RemoveReplica(net::NodeId replica);

  /// Re-admits a removed/recovered replica: replays the recovery log from
  /// its checkpoint; the replica serves traffic again once caught up.
  void RejoinReplica(net::NodeId replica);

  /// Adds a brand-new empty replica online: clone from `donor` (hot
  /// backup), restore, replay the tail of the recovery log, then serve.
  /// `on_done(status)` fires when the replica is online.
  void AddReplica(ReplicaNode* node,
                  net::NodeId donor,
                  std::function<void(Status)> on_done);

  /// Requests a backup from a replica (online operation; degrades that
  /// replica while it runs).
  void StartBackup(net::NodeId replica, engine::BackupOptions opts,
                   std::function<void(Result<engine::BackupImage>)> on_done);

  /// §4.4.3: rolling software upgrade to `target_version` — one replica
  /// at a time: remove, restart under the new binary (`upgrade_duration`
  /// of downtime per node), replay the recovery log, wait until online,
  /// move on. With >= 2 replicas the service never stops. `on_done` fires
  /// when every replica runs the new version (or with an error).
  void RollingUpgrade(int target_version, sim::Duration upgrade_duration,
                      std::function<void(Status)> on_done);

  /// Crash/restart the controller process itself (SPOF experiments).
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  /// True while this controller is a passive standby.
  bool passive() const { return passive_; }
  /// Mirror messages acknowledged by the standby (active side).
  uint64_t mirror_acks() const { return mirror_acks_; }

  const RecoveryLog& recovery_log() const { return recovery_log_; }

  /// Highest staleness (versions behind head) served to any read so far.
  uint64_t max_read_staleness() const { return max_read_staleness_; }

  /// Client transactions currently in flight at the controller (telemetry
  /// probe for the cluster's time-series sampler).
  size_t PendingCount() const { return pending_.size(); }

  /// The controller's own push pipeline (cert distribution, resync,
  /// anti-entropy) — exposed read-only for telemetry probes.
  const ship::ShipPipeline& ship_pipeline() const { return *ship_pipeline_; }

  /// Windowed SLO trackers (null when options.slo_window == 0).
  const obs::SloTracker* commit_slo() const { return commit_slo_.get(); }
  const obs::SloTracker* staleness_slo() const { return staleness_slo_.get(); }

  /// The online divergence auditor (populated when audit_interval > 0).
  const audit::DivergenceAuditor& auditor() const { return auditor_; }

  /// Builds a point-in-time introspection snapshot: per-replica role,
  /// health, applied version, lag, backlog, and audit state. Render with
  /// audit::RenderReplicaStatus / RenderStatusJson.
  audit::StatusSnapshot StatusReport() const;

 private:
  struct ReplicaInfo {
    ReplicaNode* node = nullptr;
    ReplicaState state = ReplicaState::kOnline;
    GlobalVersion applied = 0;   ///< Last progress beacon.
    int64_t outstanding = 0;     ///< Requests in flight to this replica.
    double weight = 1.0;
    GlobalVersion resync_target = 0;
    GlobalVersion swept_at = 0;  ///< Anti-entropy: applied at last sweep.
    std::vector<std::string> affinity_tables;  ///< Memory-aware LB.
    obs::Gauge* lag_gauge = nullptr;  ///< middleware.replica.N.lag_txns.
  };

  /// One client transaction in flight: only what outlives the handler
  /// that wrote it.
  struct Pending {
    uint64_t req_id = 0;
    net::NodeId client = -1;
    uint64_t client_req_id = 0;
    sim::TimePoint arrived = 0;  ///< When the controller received it.
    TxnRequest request;
    GlobalVersion min_version = 0;
    bool is_write = false;
    net::NodeId target = -1;          ///< Replica executing it.
    sim::EventId timer = 0;
    std::vector<std::string> tables;
    /// The write's slot in the global order, once it has one (statement
    /// mode at route time, certification mode once certified).
    GlobalVersion order = 0;
    uint64_t mirror_seq_after = 0;  ///< Mirror seq covering this write.
    // Statement mode state. `parsed` holds, for a write only, each request
    // statement as parsed on arrival (nullopt: it did not parse), until
    // PrepareStatements rewrites and serializes them.
    std::vector<std::optional<sql::Statement>> parsed;
    int replies_needed = 0;
    std::optional<Status> first_status;  ///< First replica reply's outcome.
  };

  void HandleClientTxn(const net::Message& m, const ClientTxnMsg& msg);
  void HandleExecReply(const net::Message& m, const ExecTxnReply& reply);
  void HandleFinishReply(const FinishTxnReply& reply);
  void HandleProgress(const net::Message& m, const ProgressMsg& body);

  void RouteRead(Pending* p);
  void RouteWrite(Pending* p);
  void RouteWriteMasterSlave(Pending* p);
  void RouteWriteStatement(Pending* p);
  void RouteWriteCertification(Pending* p);

  /// Analyzes and rewrites the statements parsed on arrival for statement
  /// replication; runs at route time, which binds NOW() and RAND().
  /// Returns the statements to broadcast, or non-OK when policy forbids
  /// broadcasting.
  Result<std::vector<std::string>> PrepareStatements(Pending* p);

  /// Picks a read replica per LB policy and consistency constraints.
  net::NodeId PickReadReplica(const Pending& p);

  /// Delay to charge at the controller for a request of n statements.
  /// Returns when the assigned worker finishes; `start_out` (optional)
  /// receives when it starts — the boundary between middleware queueing
  /// and middleware service on the transaction's critical path.
  sim::TimePoint ChargeProcessing(size_t statements,
                                  sim::TimePoint* start_out = nullptr);

  void FinishRequest(Pending* p, TxnResult result);
  void ArmTimeout(Pending* p);
  void OnTimeout(uint64_t req_id);

  void OnReplicaSuspicion(net::NodeId replica, bool suspect);
  /// Opens one audit epoch: barrier broadcast to every online replica.
  void RunAuditEpoch();
  void StartAuditTask();
  void HandleAuditReport(const net::Message& m, const AuditReportMsg& body);
  /// Standby: the active controller stopped answering — take over.
  void TakeOver();
  /// Active: push durable state to the standby; returns the mirror seq.
  void MirrorAppend(const ReplicationEntry& entry);
  /// Anti-entropy: a replica whose applied version stalls behind the head
  /// (e.g. after a crash flap too fast for the detector) gets the missing
  /// recovery-log range pushed again.
  void AntiEntropySweep();
  void PromoteNewMaster();
  void StartResync(net::NodeId replica);
  /// Full recovery for a diverged replica: hot backup from `donor`,
  /// restore, then log replay (§4.4.2's "hours of dump/restore").
  void CloneInto(net::NodeId target, net::NodeId donor);
  void CheckResyncDone(net::NodeId replica);
  void UpdateSubscriptions();
  bool HaveWriteQuorum() const;

  /// Certification (first-committer-wins over writeset keys).
  bool Certify(GlobalVersion begin_version,
               const std::vector<std::string>& keys) const;
  void RecordCertified(GlobalVersion version,
                       const std::vector<std::string>& keys);

  ReplicaInfo* Info(net::NodeId replica);
  const ReplicaInfo* Info(net::NodeId replica) const;

  sim::Simulator* sim_;
  net::Network* network_;
  std::unique_ptr<net::Dispatcher> dispatcher_;
  ControllerOptions options_;
  Rng rng_;

  std::map<net::NodeId, ReplicaInfo> replicas_;
  net::NodeId master_ = -1;
  GlobalVersion global_version_ = 0;

  std::unique_ptr<net::HeartbeatDetector> detector_;
  std::unique_ptr<net::HeartbeatResponder> hb_responder_;
  /// Outgoing ship pipeline for the controller's push paths (cert
  /// distribution, resync replay, anti-entropy re-ship).
  std::unique_ptr<ship::ShipPipeline> ship_pipeline_;
  std::unique_ptr<sim::PeriodicTask> anti_entropy_;
  std::unique_ptr<sim::PeriodicTask> audit_task_;
  audit::DivergenceAuditor auditor_;
  uint64_t audit_epoch_ = 0;

  RecoveryLog recovery_log_;
  /// writeset key -> last version that wrote it (certification window).
  HashMap<std::string, GlobalVersion> last_writer_;
  /// Failed masters whose local state may contain commits beyond the
  /// survivor's version (lost transactions living on their disk). If such
  /// a replica rejoins with applied > marker, forward replay would merge
  /// divergent history: it must be re-cloned instead.
  std::map<net::NodeId, GlobalVersion> divergence_markers_;

  /// Connection-level balancing: client node -> pinned replica.
  std::map<net::NodeId, net::NodeId> connection_affinity_;
  HashMap<uint64_t, Pending> pending_;
  /// Exactly-once support (Sequoia-style transparent failover, §4.3.3):
  /// completed write outcomes by (client, client_req_id) so a driver retry
  /// of an already-committed transaction is answered, not re-executed; and
  /// the in-flight index so duplicate submissions are dropped.
  std::map<std::pair<net::NodeId, uint64_t>, TxnResult> completed_writes_;
  std::map<std::pair<net::NodeId, uint64_t>, uint64_t> active_client_reqs_;
  HashMap<uint64_t, std::function<void(const BackupReplyMsg&)>>
      backup_waiters_;
  HashMap<uint64_t, std::function<void(const RestoreReplyMsg&)>>
      restore_waiters_;
  std::map<net::NodeId, std::function<void(Status)>> add_callbacks_;
  void UpgradeNext(std::vector<net::NodeId> remaining, int target_version,
                   sim::Duration upgrade_duration,
                   std::function<void(Status)> on_done);
  /// Polls every 200 ms until the upgraded `target` is back online, then
  /// upgrades the next replica. Each poll schedules a fresh closure that
  /// owns its captures, so no closure refers to itself.
  void AwaitRejoinThenUpgrade(net::NodeId target,
                              std::vector<net::NodeId> remaining,
                              int target_version,
                              sim::Duration upgrade_duration,
                              std::function<void(Status)> on_done);
  uint64_t next_req_ = 1;
  size_t round_robin_ = 0;
  std::vector<sim::TimePoint> workers_free_;

  bool crashed_ = false;
  uint64_t epoch_ = 0;
  ControllerStats stats_;
  uint64_t max_read_staleness_ = 0;

  /// Windowed SLO trackers (see ControllerOptions::slo_window).
  std::unique_ptr<obs::SloTracker> commit_slo_;
  std::unique_ptr<obs::SloTracker> staleness_slo_;

  // Controller replication (warm standby).
  bool passive_ = false;
  std::unique_ptr<net::HeartbeatDetector> active_watchdog_;
  std::unique_ptr<net::HeartbeatResponder> peer_responder_;
  uint64_t mirror_acks_ = 0;
  uint64_t mirror_seq_ = 0;
  /// Sync mirroring: requests whose client reply waits for a mirror ack.
  std::multimap<uint64_t, std::function<void()>> mirror_waiters_;
};

}  // namespace replidb::middleware

#endif  // REPLIDB_MIDDLEWARE_CONTROLLER_H_
