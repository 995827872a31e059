#include "middleware/controller.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sql/parser.h"

namespace replidb::middleware {

namespace {

/// Controller-side registry handles, resolved once. Aggregated across
/// controller instances; per-replica lag gauges carry the node id.
struct ControllerMetrics {
  obs::Counter* txns;
  obs::Counter* reads;
  obs::Counter* writes;
  obs::Counter* commits;
  obs::Counter* aborts_cert;
  obs::Counter* aborts_cert_incomplete;
  obs::Counter* aborts_exec;
  obs::Counter* certified;
  obs::Counter* rejected_nondet;
  obs::Counter* unsafe_broadcast;
  obs::Counter* timeouts;
  obs::Counter* unavailable;
  obs::Counter* failovers;
  obs::Counter* lost_txns;
  obs::Counter* suspicions;
  obs::Counter* suspicion_clears;
  obs::Counter* resyncs_started;
  obs::Counter* resyncs_completed;
  obs::Counter* audit_epochs;
  obs::Counter* audit_reports;
  obs::Counter* audit_divergence;
  obs::Counter* backpressure_defers;
  obs::Gauge* pending_txns;
  obs::HistogramMetric* process_ms;
  obs::HistogramMetric* total_ms;

  static ControllerMetrics& Get() {
    static ControllerMetrics m;
    return m;
  }

 private:
  ControllerMetrics() {
    auto& r = obs::MetricsRegistry::Global();
    txns = r.GetCounter("middleware.controller.txns_total");
    reads = r.GetCounter("middleware.controller.reads_total");
    writes = r.GetCounter("middleware.controller.writes_total");
    commits = r.GetCounter("middleware.controller.commits");
    aborts_cert = r.GetCounter("middleware.certifier.abort.conflict");
    aborts_cert_incomplete =
        r.GetCounter("middleware.certifier.abort.incomplete_writeset");
    aborts_exec = r.GetCounter("middleware.controller.abort.execution");
    certified = r.GetCounter("middleware.certifier.certified");
    rejected_nondet =
        r.GetCounter("middleware.controller.abort.nondeterministic");
    unsafe_broadcast = r.GetCounter("middleware.controller.unsafe_broadcasts");
    timeouts = r.GetCounter("middleware.controller.timeouts");
    unavailable = r.GetCounter("middleware.controller.unavailable");
    failovers = r.GetCounter("middleware.controller.failovers");
    lost_txns = r.GetCounter("middleware.controller.lost_transactions");
    suspicions = r.GetCounter("middleware.detector.suspicions_raised");
    suspicion_clears = r.GetCounter("middleware.detector.suspicions_cleared");
    resyncs_started = r.GetCounter("middleware.recovery.resyncs_started");
    resyncs_completed = r.GetCounter("middleware.recovery.resyncs_completed");
    audit_epochs = r.GetCounter("audit.cluster.epochs_started");
    audit_reports = r.GetCounter("audit.cluster.reports_received");
    audit_divergence = r.GetCounter("audit.cluster.divergence_detected");
    backpressure_defers = r.GetCounter("ship.admission.backpressure_defers");
    pending_txns = r.GetGauge("middleware.controller.pending_txns");
    process_ms = r.GetHistogram("middleware.controller.process_ms");
    total_ms = r.GetHistogram("middleware.txn.total_ms");
  }
};

/// Per-replica lag gauges (txns behind head / recovery replay backlog).
obs::Gauge* ReplicaLagGauge(net::NodeId replica) {
  return obs::MetricsRegistry::Global().GetGauge(
      "middleware.replica." + std::to_string(replica) + ".lag_txns");
}

obs::Gauge* ReplayBehindGauge(net::NodeId replica) {
  return obs::MetricsRegistry::Global().GetGauge(
      "middleware.recovery." + std::to_string(replica) + ".replay_behind");
}

}  // namespace

const char* LoadBalancePolicyName(LoadBalancePolicy policy) {
  switch (policy) {
    case LoadBalancePolicy::kRoundRobin:
      return "round-robin";
    case LoadBalancePolicy::kLeastPending:
      return "least-pending(LPRF)";
    case LoadBalancePolicy::kWeighted:
      return "weighted";
    case LoadBalancePolicy::kMemoryAware:
      return "memory-aware";
  }
  return "?";
}

Controller::Controller(sim::Simulator* sim, net::Network* network,
                       net::NodeId node, std::vector<ReplicaNode*> replicas,
                       ControllerOptions options, net::SiteId site)
    : sim_(sim), network_(network), options_(options), rng_(options.seed) {
  dispatcher_ = std::make_unique<net::Dispatcher>(network, node, site);
  workers_free_.assign(static_cast<size_t>(options_.capacity), 0);

  if (options_.slo_window > 0) {
    commit_slo_ = std::make_unique<obs::SloTracker>(
        "commit_latency_ms", options_.slo_window, options_.slo_commit_p99_ms);
    staleness_slo_ = std::make_unique<obs::SloTracker>(
        "read_staleness_versions", options_.slo_window,
        options_.slo_staleness_p99);
  }

  for (ReplicaNode* r : replicas) {
    ReplicaInfo info;
    info.node = r;
    info.lag_gauge = ReplicaLagGauge(r->id());
    replicas_[r->id()] = info;
  }

  ship_pipeline_ = std::make_unique<ship::ShipPipeline>(sim_, dispatcher_.get(),
                                                        options_.ship);
  dispatcher_->On<ship::ShipCreditMsg>(
      ship::kMsgShipCredit,
      [this](const net::Message& m, const ship::ShipCreditMsg& body) {
        if (crashed_) return;
        ship_pipeline_->OnCredit(m.from, body.bytes);
      });

  hb_responder_ = std::make_unique<net::HeartbeatResponder>(sim_, dispatcher_.get());
  detector_ = std::make_unique<net::HeartbeatDetector>(sim_, dispatcher_.get(),
                                                       options_.heartbeat);
  detector_->OnSuspicionChange([this](net::NodeId n, bool suspect) {
    OnReplicaSuspicion(n, suspect);
  });

  dispatcher_->On<ClientTxnMsg>(
      kMsgClientTxn, [this](const net::Message& m, const ClientTxnMsg& msg) {
        HandleClientTxn(m, msg);
      });
  dispatcher_->On<ExecTxnReply>(
      kMsgExecReply, [this](const net::Message& m, const ExecTxnReply& reply) {
        HandleExecReply(m, reply);
      });
  dispatcher_->On<FinishTxnReply>(
      kMsgFinishReply,
      [this](const net::Message&, const FinishTxnReply& reply) {
        HandleFinishReply(reply);
      });
  dispatcher_->On<ProgressMsg>(
      kMsgProgress, [this](const net::Message& m, const ProgressMsg& body) {
        HandleProgress(m, body);
      });
  dispatcher_->On<AuditReportMsg>(
      kMsgAuditReport,
      [this](const net::Message& m, const AuditReportMsg& body) {
        HandleAuditReport(m, body);
      });
  dispatcher_->On<BackupReplyMsg>(
      kMsgBackupReply, [this](const net::Message&, const BackupReplyMsg& body) {
        auto it = backup_waiters_.find(body.req_id);
        if (it == backup_waiters_.end()) return;
        auto cb = std::move(it->second);
        backup_waiters_.erase(it);
        cb(body);
      });
  dispatcher_->On<RestoreReplyMsg>(
      kMsgRestoreReply,
      [this](const net::Message&, const RestoreReplyMsg& body) {
        auto it = restore_waiters_.find(body.req_id);
        if (it == restore_waiters_.end()) return;
        auto cb = std::move(it->second);
        restore_waiters_.erase(it);
        cb(body);
      });

  // Controller replication (§3.2): standby absorbs mirror traffic and
  // watches the active; the active collects mirror acks.
  dispatcher_->On<MirrorMsg>(
      kMsgMirror, [this](const net::Message& m, const MirrorMsg& body) {
        if (crashed_) return;
        if (body.entry.version > 0) recovery_log_.Append(body.entry);
        global_version_ = std::max(global_version_, body.global_version);
        dispatcher_->Send(m.from, kMsgMirrorAck, MirrorAckMsg{body.seq},
                          kAckWireBytes);
      });
  dispatcher_->On<MirrorAckMsg>(
      kMsgMirrorAck, [this](const net::Message&, const MirrorAckMsg& body) {
        if (crashed_) return;
        ++mirror_acks_;
        // Release client replies parked on this (or any earlier) mirror seq.
        for (auto it = mirror_waiters_.begin();
             it != mirror_waiters_.end() && it->first <= body.seq;) {
          it->second();
          it = mirror_waiters_.erase(it);
        }
      });
  if (options_.standby_of >= 0) {
    passive_ = true;
    net::HeartbeatOptions watchdog = options_.heartbeat;
    active_watchdog_ = std::make_unique<net::HeartbeatDetector>(
        sim_, dispatcher_.get(), watchdog);
    active_watchdog_->Watch(options_.standby_of);
    active_watchdog_->OnSuspicionChange([this](net::NodeId n, bool suspect) {
      if (n == options_.standby_of && suspect && passive_) TakeOver();
    });
  }
}

Controller::~Controller() = default;

void Controller::Start() {
  for (auto& [id, info] : replicas_) {
    if (!passive_) {
      info.node->MarkSetupComplete();
      info.node->SetController(this->id());
    }
    info.applied = info.node->applied_version();
    global_version_ = std::max(global_version_, info.applied);
    detector_->Watch(id);
  }
  if (!replicas_.empty()) master_ = replicas_.begin()->first;
  if (passive_) return;  // A standby only observes until takeover.
  {
    // Initial view: membership + master, so every run's flight record
    // starts from a known configuration.
    std::string members;
    for (const auto& [rid, info] : replicas_) {
      (void)info;
      if (!members.empty()) members += ",";
      members += std::to_string(rid);
    }
    obs::FlightRecorder::Global().Record(
        sim_->Now(), id(), obs::FlightEventKind::kViewChange,
        "initial view: members=[" + members +
            "] master=" + std::to_string(master_));
  }
  UpdateSubscriptions();
  anti_entropy_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim::kSecond, [this] {
        if (!crashed_) AntiEntropySweep();
      });
  anti_entropy_->Start();
  StartAuditTask();
}

void Controller::TakeOver() {
  if (!passive_) return;
  passive_ = false;
  REPLIDB_LOG(Info) << "standby controller " << id() << " taking over";
  // Rebuild the soft state the mirror stream does not carry.
  for (auto& [rid, info] : replicas_) {
    info.node->SetController(this->id());
    info.outstanding = 0;
    info.applied = info.node->applied_version();
    global_version_ = std::max(global_version_, info.applied);
    info.state = detector_->IsSuspect(rid) ? ReplicaState::kDown
                                           : ReplicaState::kOnline;
  }
  PromoteNewMaster();
  UpdateSubscriptions();
  anti_entropy_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim::kSecond, [this] {
        if (!crashed_) AntiEntropySweep();
      });
  anti_entropy_->Start();
  StartAuditTask();
}

void Controller::StartAuditTask() {
  if (options_.audit_interval <= 0 || audit_task_ != nullptr) return;
  audit_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, options_.audit_interval, [this] {
        if (!crashed_) RunAuditEpoch();
      });
  audit_task_->Start();
}

void Controller::RunAuditEpoch() {
  std::vector<net::NodeId> online = OnlineReplicas();
  if (online.size() < 2) return;  // Nothing to cross-check.
  uint64_t epoch = ++audit_epoch_;
  std::vector<int32_t> expected(online.begin(), online.end());
  auditor_.BeginEpoch(epoch, global_version_, expected);
  ControllerMetrics::Get().audit_epochs->Increment();
  AuditBarrierMsg barrier;
  barrier.epoch = epoch;
  barrier.version = global_version_;
  for (net::NodeId rid : online) {
    dispatcher_->Send(rid, kMsgAuditBarrier, barrier, kControlWireBytes);
  }
}

void Controller::HandleAuditReport(const net::Message& m,
                                   const AuditReportMsg& body) {
  if (crashed_) return;
  ControllerMetrics::Get().audit_reports->Increment();
  audit::ReplicaAuditReport report;
  report.replica = m.from;
  report.epoch = body.epoch;
  report.captured_version = body.captured_version;
  report.last_applied_seq = body.last_applied_seq;
  report.table_digests = body.digests;
  std::vector<audit::Divergence> fresh = auditor_.AddReport(std::move(report));
  for (const audit::Divergence& d : fresh) {
    ControllerMetrics::Get().audit_divergence->Increment();
    REPLIDB_LOG(Warn) << "audit: replica " << d.replica << " diverged on "
                      << d.table << " (epoch " << d.epoch << ", version "
                      << d.version << ", digest " << d.actual_digest
                      << " != " << d.expected_digest << ")";
    obs::FlightRecorder::Global().Record(
        sim_->Now(), id(), obs::FlightEventKind::kDivergence,
        "replica=" + std::to_string(d.replica) + " table=" + d.table +
            " epoch=" + std::to_string(d.epoch) +
            " version=" + std::to_string(d.version));
  }
}

audit::StatusSnapshot Controller::StatusReport() const {
  audit::StatusSnapshot snap;
  snap.mode = ReplicationModeName(options_.mode);
  snap.consistency = ConsistencyLevelName(options_.consistency);
  snap.head_version = global_version_;
  snap.audit_epochs_started = auditor_.epochs_started();
  snap.audit_epochs_compared = auditor_.epochs_compared();
  snap.divergences_detected = auditor_.divergences().size();
  bool master_slave = options_.mode == ReplicationMode::kMasterSlaveAsync ||
                      options_.mode == ReplicationMode::kMasterSlaveSync;
  for (const auto& [rid, info] : replicas_) {
    audit::ReplicaStatus rs;
    rs.id = rid;
    rs.role = master_slave ? (rid == master_ ? "master" : "slave") : "replica";
    switch (info.state) {
      case ReplicaState::kOnline:
        rs.state = detector_->IsSuspect(rid) ? "suspect" : "online";
        break;
      case ReplicaState::kDown:
        rs.state = "down";
        break;
      case ReplicaState::kResyncing:
        rs.state = "resyncing";
        break;
    }
    rs.applied_version =
        std::max<GlobalVersion>(info.applied, info.node->applied_version());
    rs.lag_versions = global_version_ > rs.applied_version
                          ? global_version_ - rs.applied_version
                          : 0;
    rs.backlog = info.node->apply_backlog();
    rs.apply_errors = info.node->apply_errors();
    audit::ReplicaAuditState audit_state = auditor_.StateOf(rid);
    rs.digest_epoch = audit_state.last_epoch;
    rs.diverged = audit_state.diverged;
    rs.first_divergent_epoch = audit_state.first_divergent_epoch;
    std::vector<std::string> tables = auditor_.DivergedTables(rid);
    for (size_t i = 0; i < tables.size(); ++i) {
      if (i > 0) rs.diverged_tables += ",";
      rs.diverged_tables += tables[i];
    }
    binlog::BinlogStats bl = info.node->DurableLogStats();
    rs.binlog_segments = bl.segments;
    rs.binlog_active_bytes = bl.active_segment_bytes;
    rs.binlog_total_bytes = bl.total_bytes;
    rs.binlog_records = bl.records;
    rs.binlog_checkpoint_version = bl.checkpoint_version;
    rs.binlog_checkpoint_age_s =
        bl.checkpoint_at_us < 0
            ? -1.0
            : static_cast<double>(sim_->Now() - bl.checkpoint_at_us) / 1e6;
    rs.binlog_truncate_watermark = bl.truncate_watermark;
    rs.binlog_replay_position = info.node->persisted_watermark();
    rs.recoveries = info.node->recoveries();
    snap.replicas.push_back(std::move(rs));
  }
  binlog::BinlogStats rl = recovery_log_.Stats();
  snap.recovery_log_entries = recovery_log_.size();
  snap.recovery_log_bytes = static_cast<uint64_t>(recovery_log_.SizeBytes());
  snap.recovery_log_segments = rl.segments;
  snap.recovery_log_truncate_watermark = recovery_log_.truncate_watermark();
  for (obs::SloTracker* slo : {commit_slo_.get(), staleness_slo_.get()}) {
    if (slo == nullptr) continue;
    // Close any windows the quiet tail left open so the report is current.
    slo->AdvanceTo(sim_->Now());
    audit::SloStatus s;
    s.name = slo->name();
    s.p50 = slo->last_p50();
    s.p99 = slo->last_p99();
    s.target_p99 = slo->target_p99();
    s.windows = slo->windows_closed();
    s.breaches = slo->breaches();
    snap.slos.push_back(std::move(s));
  }
  if (obs::CriticalPathEnabled()) {
    for (const obs::PathStageStat& st :
         obs::CriticalPathCollector::Global().StageStats()) {
      audit::PathStageStatus ps;
      ps.chain = obs::ChainKindName(st.kind);
      ps.outcome = obs::ChainOutcomeName(st.outcome);
      ps.stage = obs::WaitStateName(st.state);
      ps.chains = st.chains;
      ps.share_pct = st.share_pct;
      ps.p50_ms = st.p50_ms;
      ps.p99_ms = st.p99_ms;
      snap.path_stages.push_back(std::move(ps));
    }
  }
  return snap;
}

void Controller::MirrorAppend(const ReplicationEntry& entry) {
  if (options_.mirror_to < 0) return;
  MirrorMsg msg;
  msg.seq = ++mirror_seq_;
  msg.entry = entry;
  msg.global_version = global_version_;
  dispatcher_->Send(options_.mirror_to, kMsgMirror, std::move(msg),
                    entry.SizeBytes() + 64);
}

void Controller::AntiEntropySweep() {
  for (auto& [id, info] : replicas_) {
    if (info.state == ReplicaState::kDown) continue;
    if (info.applied >= global_version_) {
      info.swept_at = info.applied;
      continue;
    }
    if (info.applied != info.swept_at) {
      // Still making progress; check again next sweep.
      info.swept_at = info.applied;
      continue;
    }
    // Stalled behind the head with no progress for a full sweep period:
    // re-push the missing recovery-log range (receivers dedup).
    GlobalVersion up_to =
        std::min<GlobalVersion>(info.applied + 5000, global_version_);
    for (ReplicationEntry& entry : recovery_log_.Range(info.applied, up_to)) {
      ship_pipeline_->Enqueue(id, std::move(entry));
    }
    ship_pipeline_->Flush(id, ship::FlushReason::kSync);
  }
  // Truncation keyed to the slowest consumer: once every replica (up or
  // down — a crashed node's applied watermark freezes where it fell) has
  // passed a version, its entry can never be replayed again. Departed
  // replicas' leave-time checkpoints pin the log inside TruncateThrough.
  GlobalVersion min_applied = global_version_;
  for (const auto& [rid, rinfo] : replicas_) {
    (void)rid;
    min_applied = std::min(min_applied, rinfo.applied);
  }
  recovery_log_.TruncateThrough(min_applied);
}

void Controller::SetReplicaWeight(net::NodeId replica, double weight) {
  if (ReplicaInfo* info = Info(replica)) info->weight = weight;
}

Controller::ReplicaState Controller::replica_state(net::NodeId replica) const {
  const ReplicaInfo* info = Info(replica);
  return info == nullptr ? ReplicaState::kDown : info->state;
}

std::vector<net::NodeId> Controller::OnlineReplicas() const {
  std::vector<net::NodeId> out;
  for (const auto& [id, info] : replicas_) {
    if (info.state == ReplicaState::kOnline) out.push_back(id);
  }
  return out;
}

Controller::ReplicaInfo* Controller::Info(net::NodeId replica) {
  auto it = replicas_.find(replica);
  return it == replicas_.end() ? nullptr : &it->second;
}

const Controller::ReplicaInfo* Controller::Info(net::NodeId replica) const {
  auto it = replicas_.find(replica);
  return it == replicas_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Client transaction entry point

void Controller::HandleClientTxn(const net::Message& m,
                                 const ClientTxnMsg& msg) {
  if (crashed_) return;
  if (passive_) {
    ClientTxnReply reply;
    reply.req_id = msg.req_id;
    reply.result.status =
        Status::Unavailable("standby controller: active still alive");
    dispatcher_->Send(m.from, kMsgClientTxnReply, reply, kAdminWireBytes);
    return;
  }

  // Exactly-once: a driver retry of a write we already finished gets the
  // stored outcome; a retry of one still in flight is dropped (the
  // original reply will reach the driver under the same request id).
  auto client_key = std::make_pair(m.from, msg.req_id);
  auto done = completed_writes_.find(client_key);
  if (done != completed_writes_.end()) {
    ClientTxnReply reply;
    reply.req_id = msg.req_id;
    reply.result = done->second;
    dispatcher_->Send(m.from, kMsgClientTxnReply, reply, kRowsReplyWireBytes);
    return;
  }
  if (active_client_reqs_.count(client_key)) return;

  uint64_t req = next_req_++;
  active_client_reqs_[client_key] = req;
  Pending p;
  p.req_id = req;
  p.client = m.from;
  p.client_req_id = msg.req_id;
  p.arrived = sim_->Now();
  p.request = msg.request;

  // Parse each statement once. Classify (trust read_only only if no
  // statement parses as a write), collect the tables the transaction
  // touches (best effort) and, for a statement-mode write, keep the ASTs
  // for PrepareStatements.
  p.is_write = !msg.request.read_only;
  bool statement_mode =
      options_.mode == ReplicationMode::kMultiMasterStatement;
  std::vector<std::optional<sql::Statement>> parsed;
  for (const std::string& text : msg.request.statements) {
    Result<sql::Statement> stmt = sql::Parse(text);
    if (!stmt.ok()) {
      p.is_write = true;
      if (statement_mode) parsed.emplace_back();
      continue;
    }
    if (stmt.value().IsWrite()) p.is_write = true;
    if (const sql::TableRef* ref = stmt.value().TargetTable()) {
      std::string key = ref->ToString();
      if (std::find(p.tables.begin(), p.tables.end(), key) == p.tables.end()) {
        p.tables.push_back(std::move(key));
      }
    }
    if (statement_mode) parsed.emplace_back(stmt.TakeValue());
  }
  if (statement_mode && p.is_write) p.parsed = std::move(parsed);

  ++stats_.txns_total;
  ControllerMetrics::Get().txns->Increment();
  if (p.is_write) {
    ++stats_.writes_total;
    ControllerMetrics::Get().writes->Increment();
  } else {
    ++stats_.reads_total;
    ControllerMetrics::Get().reads->Increment();
  }

  switch (options_.consistency) {
    case ConsistencyLevel::kEventual:
      p.min_version = 0;
      break;
    case ConsistencyLevel::kSessionPCSI:
      p.min_version = msg.last_seen_version;
      break;
    case ConsistencyLevel::kStrongSI:
    case ConsistencyLevel::kOneCopySerializability:
      p.min_version = global_version_;
      break;
  }

  auto [it, inserted] = pending_.emplace(req, std::move(p));
  (void)inserted;
  ArmTimeout(&it->second);
  ControllerMetrics::Get().pending_txns->Set(
      static_cast<int64_t>(pending_.size()));

  // Middleware processing cost (parse + route) before dispatch.
  sim::TimePoint service_start = 0;
  sim::TimePoint ready =
      ChargeProcessing(msg.request.statements.size(), &service_start);
  if (obs::CriticalPathEnabled() && it->second.request.trace.id != 0) {
    auto& cp = obs::CriticalPathCollector::Global();
    uint64_t tid = it->second.request.trace.id;
    if (service_start > it->second.arrived) {
      cp.RecordWait(obs::ChainKind::kClient, tid, 0, obs::WaitState::kQueue,
                    it->second.arrived, service_start);
    }
    cp.RecordWait(obs::ChainKind::kClient, tid, 0, obs::WaitState::kService,
                  service_start, ready);
  }
  uint64_t epoch = epoch_;
  sim_->ScheduleAt(ready, [this, epoch, req] {
    if (epoch != epoch_ || crashed_) return;
    auto pit = pending_.find(req);
    if (pit == pending_.end()) return;
    Pending* p = &pit->second;
    ControllerMetrics::Get().process_ms->Observe(
        sim::ToMillis(sim_->Now() - p->arrived));
    if (p->is_write) {
      RouteWrite(p);
    } else {
      RouteRead(p);
    }
  });
}

sim::TimePoint Controller::ChargeProcessing(size_t statements,
                                            sim::TimePoint* start_out) {
  int64_t cost = static_cast<int64_t>(
      10 + options_.per_statement_us * static_cast<double>(statements));
  auto worker = std::min_element(workers_free_.begin(), workers_free_.end());
  sim::TimePoint start = std::max(sim_->Now(), *worker);
  *worker = start + cost;
  if (start_out != nullptr) *start_out = start;
  return *worker;
}

// ---------------------------------------------------------------------------
// Read routing

net::NodeId Controller::PickReadReplica(const Pending& p) {
  std::vector<net::NodeId> candidates;
  for (const auto& [id, info] : replicas_) {
    if (info.state != ReplicaState::kOnline) continue;
    if (!options_.reads_on_master && id == master_ && replicas_.size() > 1) {
      continue;
    }
    candidates.push_back(id);
  }
  if (candidates.empty()) return -1;

  if (options_.granularity == LoadBalanceGranularity::kConnection) {
    // Sticky per client connection until its replica leaves rotation.
    auto it = connection_affinity_.find(p.client);
    if (it != connection_affinity_.end()) {
      for (net::NodeId cand : candidates) {
        if (cand == it->second) return cand;
      }
      connection_affinity_.erase(it);  // Pinned replica is gone: re-pin.
    }
    net::NodeId pick = candidates[round_robin_++ % candidates.size()];
    connection_affinity_[p.client] = pick;
    return pick;
  }

  switch (options_.load_balance) {
    case LoadBalancePolicy::kRoundRobin:
      return candidates[round_robin_++ % candidates.size()];
    case LoadBalancePolicy::kLeastPending: {
      net::NodeId best = candidates[0];
      int64_t best_load = Info(best)->outstanding;
      for (net::NodeId c : candidates) {
        if (Info(c)->outstanding < best_load) {
          best = c;
          best_load = Info(c)->outstanding;
        }
      }
      return best;
    }
    case LoadBalancePolicy::kWeighted: {
      net::NodeId best = candidates[0];
      double best_score =
          static_cast<double>(Info(best)->outstanding + 1) / Info(best)->weight;
      for (net::NodeId c : candidates) {
        double score =
            static_cast<double>(Info(c)->outstanding + 1) / Info(c)->weight;
        if (score < best_score) {
          best = c;
          best_score = score;
        }
      }
      return best;
    }
    case LoadBalancePolicy::kMemoryAware: {
      // Route to the replica already "owning" the transaction's tables so
      // working sets stay in memory (Tashkent+, §3.2).
      net::NodeId best = -1;
      int best_hits = -1;
      for (net::NodeId c : candidates) {
        const auto& affinity = Info(c)->affinity_tables;
        int hits = 0;
        for (const std::string& t : p.tables) {
          if (std::find(affinity.begin(), affinity.end(), t) != affinity.end()) {
            ++hits;
          }
        }
        if (hits > best_hits ||
            (hits == best_hits && best >= 0 &&
             Info(c)->outstanding < Info(best)->outstanding)) {
          best = c;
          best_hits = hits;
        }
      }
      if (best_hits <= 0) {
        // Unowned working set: assign it to the replica with the fewest
        // owned tables to spread memory footprints.
        net::NodeId target = candidates[0];
        for (net::NodeId c : candidates) {
          if (Info(c)->affinity_tables.size() <
              Info(target)->affinity_tables.size()) {
            target = c;
          }
        }
        best = target;
      }
      auto& affinity = Info(best)->affinity_tables;
      for (const std::string& t : p.tables) {
        if (std::find(affinity.begin(), affinity.end(), t) == affinity.end()) {
          affinity.push_back(t);
        }
      }
      return best;
    }
  }
  return candidates[0];
}

void Controller::RouteRead(Pending* p) {
  net::NodeId target = PickReadReplica(*p);
  if (target < 0) {
    ++stats_.unavailable;
    ControllerMetrics::Get().unavailable->Increment();
    TxnResult result;
    result.status = Status::Unavailable("no online replica for reads");
    FinishRequest(p, std::move(result));
    return;
  }
  p->target = target;
  Info(target)->outstanding++;
  ExecTxnMsg msg;
  msg.req_id = p->req_id;
  msg.statements = p->request.statements;
  msg.read_only = true;
  msg.min_version = p->min_version;
  msg.tables = p->tables;
  msg.trace_id = p->request.trace.id;
  int64_t bytes = ExecMsgWireSize(msg);
  dispatcher_->Send(target, kMsgExec, std::move(msg), bytes,
                    p->request.trace.id);
}

// ---------------------------------------------------------------------------
// Write routing

void Controller::RouteWrite(Pending* p) {
  if (options_.require_majority_for_writes && !HaveWriteQuorum()) {
    ++stats_.unavailable;
    ControllerMetrics::Get().unavailable->Increment();
    TxnResult result;
    result.status = Status::NoQuorum(
        "fewer than a majority of replicas reachable; writes refused");
    FinishRequest(p, std::move(result));
    return;
  }
  switch (options_.mode) {
    case ReplicationMode::kMasterSlaveAsync:
    case ReplicationMode::kMasterSlaveSync:
      RouteWriteMasterSlave(p);
      return;
    case ReplicationMode::kMultiMasterStatement:
      RouteWriteStatement(p);
      return;
    case ReplicationMode::kMultiMasterCertification:
      RouteWriteCertification(p);
      return;
  }
}

void Controller::RouteWriteMasterSlave(Pending* p) {
  ReplicaInfo* m = Info(master_);
  if (master_ < 0 || m == nullptr || m->state != ReplicaState::kOnline) {
    ++stats_.unavailable;
    ControllerMetrics::Get().unavailable->Increment();
    TxnResult result;
    result.status = Status::Unavailable("no master available");
    FinishRequest(p, std::move(result));
    return;
  }
  if (options_.ship.backpressure_admission && m->node->ShipBackpressured()) {
    // The master's ship window to some slave is exhausted: admitting more
    // writes would only grow the lag. Defer and re-route shortly; the
    // client-side request timeout bounds how long this can go on.
    ControllerMetrics::Get().backpressure_defers->Increment();
    if (obs::CriticalPathEnabled() && p->request.trace.id != 0) {
      // Admission backpressure: the transaction is parked because the
      // master's ship credit window is exhausted — charge the defer to
      // credit_stall on the client's critical path.
      sim::TimePoint defer_at = sim_->Now();
      obs::CriticalPathCollector::Global().RecordWait(
          obs::ChainKind::kClient, p->request.trace.id, 0,
          obs::WaitState::kCreditStall, defer_at,
          defer_at + 2 * sim::kMillisecond);
    }
    uint64_t req_id = p->req_id;
    uint64_t epoch = epoch_;
    sim_->Schedule(2 * sim::kMillisecond, [this, req_id, epoch] {
      if (crashed_ || epoch_ != epoch) return;
      auto it = pending_.find(req_id);
      if (it == pending_.end()) return;
      RouteWrite(&it->second);
    });
    return;
  }
  p->target = master_;
  m->outstanding++;
  ExecTxnMsg msg;
  msg.req_id = p->req_id;
  msg.statements = p->request.statements;
  msg.read_only = false;
  msg.tables = p->tables;
  msg.trace_id = p->request.trace.id;
  if (options_.mode == ReplicationMode::kMasterSlaveSync) {
    // Semi-sync degradation: only count slaves that can actually ack.
    // With no live slave, commit 1-safe rather than block forever (the
    // availability/consistency trade the paper discusses in §2.2).
    int online_slaves = 0;
    for (const auto& [id, info] : replicas_) {
      if (id != master_ && info.state == ReplicaState::kOnline) {
        ++online_slaves;
      }
    }
    msg.sync_ack_count = std::min(options_.sync_ack_count, online_slaves);
  }
  int64_t bytes = ExecMsgWireSize(msg);
  dispatcher_->Send(master_, kMsgExec, std::move(msg), bytes,
                    p->request.trace.id);
}

Result<std::vector<std::string>> Controller::PrepareStatements(Pending* p) {
  std::vector<std::string> statements;
  sql::Value now_value = sql::Value::Int(sim_->Now());
  bool unsafe = false;
  std::vector<std::string> reasons;
  // The ASTs are rewritten once, here, and dropped with this local.
  std::vector<std::optional<sql::Statement>> parsed = std::move(p->parsed);
  for (size_t i = 0; i < parsed.size(); ++i) {
    if (!parsed[i]) {
      // Opaque statement: cannot rewrite; broadcast raw.
      statements.push_back(p->request.statements[i]);
      continue;
    }
    sql::Statement& stmt = *parsed[i];
    sql::DeterminismReport report =
        sql::RewriteForStatementReplication(&stmt, now_value, &rng_);
    if (!report.SafeForStatementReplication()) {
      unsafe = true;
      for (const std::string& r : report.issues) reasons.push_back(r);
    }
    statements.push_back(sql::ToSql(stmt));
  }
  if (unsafe) {
    if (options_.nondeterminism == NonDeterminismPolicy::kRefuse) {
      ++stats_.rejected_nondeterministic;
      ControllerMetrics::Get().rejected_nondet->Increment();
      std::string why = "non-deterministic statement refused";
      if (!reasons.empty()) why += ": " + reasons.front();
      return Status::InvalidArgument(why);
    }
    ++stats_.unsafe_broadcasts;  // Divergence risk accepted.
    ControllerMetrics::Get().unsafe_broadcast->Increment();
  }
  return statements;
}

void Controller::RouteWriteStatement(Pending* p) {
  Result<std::vector<std::string>> prepared = PrepareStatements(p);
  if (!prepared.ok()) {
    TxnResult result;
    result.status = prepared.status();
    FinishRequest(p, std::move(result));
    return;
  }
  std::vector<net::NodeId> targets;
  for (const auto& [id, info] : replicas_) {
    if (info.state != ReplicaState::kDown) targets.push_back(id);
  }
  int online = 0;
  for (net::NodeId t : targets) {
    if (Info(t)->state == ReplicaState::kOnline) ++online;
  }
  if (online == 0) {
    ++stats_.unavailable;
    ControllerMetrics::Get().unavailable->Increment();
    TxnResult result;
    result.status = Status::Unavailable("no online replica for writes");
    FinishRequest(p, std::move(result));
    return;
  }

  p->order = ++global_version_;
  ReplicationEntry entry;
  entry.version = p->order;
  entry.statements = prepared.TakeValue();
  entry.use_statements = true;
  entry.origin_commit_us = sim_->Now();
  recovery_log_.Append(entry);
  MirrorAppend(entry);
  p->mirror_seq_after = mirror_seq_;

  p->replies_needed = std::min(options_.statement_quorum, online);
  if (p->replies_needed < 1) p->replies_needed = 1;
  for (net::NodeId t : targets) {
    ExecTxnMsg msg;
    msg.req_id = p->req_id;
    msg.statements = entry.statements;
    msg.read_only = false;
    msg.order = p->order;
    msg.tables = p->tables;
    msg.trace_id = p->request.trace.id;
    int64_t bytes = ExecMsgWireSize(msg);
    dispatcher_->Send(t, kMsgExec, std::move(msg), bytes,
                      p->request.trace.id);
  }
}

void Controller::RouteWriteCertification(Pending* p) {
  net::NodeId target = PickReadReplica(*p);  // Balance writes too.
  if (target < 0) {
    ++stats_.unavailable;
    ControllerMetrics::Get().unavailable->Increment();
    TxnResult result;
    result.status = Status::Unavailable("no online replica for writes");
    FinishRequest(p, std::move(result));
    return;
  }
  p->target = target;
  Info(target)->outstanding++;
  ExecTxnMsg msg;
  msg.req_id = p->req_id;
  msg.statements = p->request.statements;
  msg.read_only = false;
  msg.hold_commit = true;
  msg.tables = p->tables;
  msg.trace_id = p->request.trace.id;
  int64_t bytes = ExecMsgWireSize(msg);
  dispatcher_->Send(target, kMsgExec, std::move(msg), bytes,
                    p->request.trace.id);
}

// ---------------------------------------------------------------------------
// Replies

void Controller::HandleExecReply(const net::Message& m,
                                 const ExecTxnReply& reply) {
  if (crashed_) return;
  auto it = pending_.find(reply.req_id);
  if (it == pending_.end()) return;  // Timed out earlier.
  Pending* p = &it->second;
  if (ReplicaInfo* info = Info(m.from)) {
    if (info->outstanding > 0 && p->target == m.from) info->outstanding--;
    info->applied = std::max(info->applied, reply.replica_applied_version);
  }

  if (!p->is_write) {
    TxnResult result;
    result.status = reply.status;
    result.rows = reply.rows;
    uint64_t staleness =
        global_version_ > reply.replica_applied_version
            ? global_version_ - reply.replica_applied_version
            : 0;
    result.staleness = staleness;
    max_read_staleness_ = std::max(max_read_staleness_, staleness);
    if (staleness_slo_ != nullptr) {
      staleness_slo_->Observe(sim_->Now(), static_cast<double>(staleness));
    }
    FinishRequest(p, std::move(result));
    return;
  }

  switch (options_.mode) {
    case ReplicationMode::kMasterSlaveAsync:
    case ReplicationMode::kMasterSlaveSync: {
      TxnResult result;
      result.status = reply.status;
      if (reply.status.ok() && reply.committed_version > 0) {
        global_version_ = std::max(global_version_, reply.committed_version);
        ReplicationEntry entry;
        entry.version = reply.committed_version;
        entry.writeset = reply.writeset;
        entry.statements = reply.statements;
        entry.use_statements =
            reply.writeset.empty() || reply.writeset.incomplete;
        entry.origin_commit_us = sim_->Now();
        recovery_log_.Append(entry);
        MirrorAppend(entry);
        p->mirror_seq_after = mirror_seq_;
        result.version = reply.committed_version;
      } else if (!reply.status.ok()) {
        ++stats_.aborts_execution;
        ControllerMetrics::Get().aborts_exec->Increment();
      }
      FinishRequest(p, std::move(result));
      return;
    }
    case ReplicationMode::kMultiMasterStatement: {
      --p->replies_needed;
      if (!p->first_status) p->first_status = reply.status;
      if (p->replies_needed > 0) return;
      TxnResult result;
      result.status = *p->first_status;
      if (result.status.ok()) {
        result.version = p->order;
      } else {
        ++stats_.aborts_execution;
        ControllerMetrics::Get().aborts_exec->Increment();
      }
      FinishRequest(p, std::move(result));
      return;
    }
    case ReplicationMode::kMultiMasterCertification: {
      if (!reply.status.ok()) {
        ++stats_.aborts_execution;
        ControllerMetrics::Get().aborts_exec->Increment();
        TxnResult result;
        result.status = reply.status;
        FinishRequest(p, std::move(result));
        return;
      }
      // The transaction's snapshot is exactly what the replica had applied
      // when it executed. Not the controller's (possibly newer) global
      // version: in-flight versions the replica had not yet applied are
      // genuine conflicts, and not the arrival-time version either:
      // queueing delay would masquerade as conflicts.
      GlobalVersion begin_version = reply.replica_applied_version;
      std::vector<std::string> keys = reply.writeset.ConflictKeys();
      if (reply.writeset.incomplete) {
        ControllerMetrics::Get().aborts_cert_incomplete->Increment();
        FinishTxnMsg abort_msg;
        abort_msg.req_id = p->req_id;
        abort_msg.commit = false;
        dispatcher_->Send(p->target, kMsgFinish, abort_msg, kControlWireBytes);
        TxnResult result;
        result.status = Status::NotSupported(
            "writeset replication needs primary keys on all written tables");
        FinishRequest(p, std::move(result));
        return;
      }
      if (!Certify(begin_version, keys)) {
        ++stats_.aborts_certification;
        ControllerMetrics::Get().aborts_cert->Increment();
        obs::FlightRecorder::Global().Record(
            sim_->Now(), id(), obs::FlightEventKind::kCertAbort,
            "origin=" + std::to_string(p->target) +
                " begin_version=" + std::to_string(begin_version));
        FinishTxnMsg abort_msg;
        abort_msg.req_id = p->req_id;
        abort_msg.commit = false;
        dispatcher_->Send(p->target, kMsgFinish, abort_msg, kControlWireBytes);
        TxnResult result;
        result.status =
            Status::Conflict("certification failed (first-committer-wins)");
        FinishRequest(p, std::move(result));
        return;
      }
      // Certified: assign the version, distribute, and commit at origin.
      GlobalVersion v = ++global_version_;
      RecordCertified(v, keys);
      ControllerMetrics::Get().certified->Increment();
      ReplicationEntry entry;
      entry.version = v;
      entry.writeset = reply.writeset;
      entry.statements = reply.statements;
      entry.use_statements = false;
      entry.origin_commit_us = sim_->Now();
      recovery_log_.Append(entry);
      MirrorAppend(entry);
      p->mirror_seq_after = mirror_seq_;
      for (const auto& [id, info] : replicas_) {
        if (id == p->target || info.state == ReplicaState::kDown) continue;
        ship_pipeline_->Enqueue(id, entry);
      }
      p->order = v;
      int64_t commit_bytes = entry.SizeBytes() + 64;
      FinishTxnMsg commit_msg;
      commit_msg.req_id = p->req_id;
      commit_msg.commit = true;
      commit_msg.version = v;
      commit_msg.entry = std::move(entry);
      commit_msg.trace_id = p->request.trace.id;
      dispatcher_->Send(p->target, kMsgFinish, std::move(commit_msg),
                        commit_bytes, p->request.trace.id);
      return;
    }
  }
}

void Controller::HandleFinishReply(const FinishTxnReply& reply) {
  if (crashed_) return;
  auto it = pending_.find(reply.req_id);
  if (it == pending_.end()) return;
  Pending* p = &it->second;
  TxnResult result;
  result.status = reply.status;
  if (reply.status.ok()) result.version = p->order;
  FinishRequest(p, std::move(result));
}

bool Controller::Certify(GlobalVersion begin_version,
                         const std::vector<std::string>& keys) const {
  for (const std::string& key : keys) {
    auto it = last_writer_.find(key);
    if (it != last_writer_.end() && it->second > begin_version) return false;
  }
  return true;
}

void Controller::RecordCertified(GlobalVersion version,
                                 const std::vector<std::string>& keys) {
  for (const std::string& key : keys) last_writer_[key] = version;
}

void Controller::HandleProgress(const net::Message& m,
                                const ProgressMsg& body) {
  if (crashed_) return;
  ReplicaInfo* info = Info(m.from);
  if (info == nullptr) return;
  info->applied = std::max(info->applied, body.applied_version);
  if (info->lag_gauge != nullptr) {
    info->lag_gauge->Set(static_cast<int64_t>(
        global_version_ > info->applied ? global_version_ - info->applied
                                        : 0));
  }
  if (info->state == ReplicaState::kResyncing) {
    ReplayBehindGauge(m.from)->Set(static_cast<int64_t>(
        info->resync_target > info->applied
            ? info->resync_target - info->applied
            : 0));
    CheckResyncDone(m.from);
  }
}

// ---------------------------------------------------------------------------
// Completion / timeout

void Controller::FinishRequest(Pending* p, TxnResult result) {
  if (result.status.ok()) {
    if (p->is_write) {
      ++stats_.commits;
      ControllerMetrics::Get().commits->Increment();
      if (commit_slo_ != nullptr) {
        commit_slo_->Observe(sim_->Now(),
                             sim::ToMillis(sim_->Now() - p->arrived));
      }
    }
  }
  ControllerMetrics::Get().total_ms->Observe(
      sim::ToMillis(sim_->Now() - p->arrived));
  sim_->Cancel(p->timer);
  auto client_key = std::make_pair(p->client, p->client_req_id);
  active_client_reqs_.erase(client_key);
  // Remember definitive write outcomes so retries are not re-executed.
  // Retryable aborts (certification conflicts, deadlocks) and
  // availability failures are NOT definitive: the driver's retry is a
  // genuinely new attempt and must re-execute.
  bool retryable = result.status.IsRetryableAbort() ||
                   result.status.code() == StatusCode::kTimeout ||
                   result.status.code() == StatusCode::kUnavailable ||
                   result.status.code() == StatusCode::kNoQuorum;
  if (p->is_write && !retryable) {
    completed_writes_[client_key] = result;
  }
  ClientTxnReply reply;
  reply.req_id = p->client_req_id;
  reply.result = std::move(result);
  net::NodeId client = p->client;
  uint64_t mirror_seq = p->mirror_seq_after;
  uint64_t txn = p->request.trace.id;
  pending_.erase(p->req_id);
  ControllerMetrics::Get().pending_txns->Set(
      static_cast<int64_t>(pending_.size()));
  auto send = [this, client, reply = std::move(reply), txn]() mutable {
    dispatcher_->Send(client, kMsgClientTxnReply, std::move(reply),
                      kRowsReplyWireBytes, txn);
  };
  if (options_.mirror_to >= 0 && options_.mirror_sync && mirror_seq > 0 &&
      mirror_seq > mirror_acks_) {
    // Synchronous controller replication: the commit is not acknowledged
    // until the standby holds it (the measurable §3.2 overhead). The park
    // is a group-commit-style release wait on the client's critical path.
    sim::TimePoint parked = sim_->Now();
    mirror_waiters_.emplace(
        mirror_seq, [this, parked, txn, send = std::move(send)]() mutable {
          if (obs::CriticalPathEnabled() && txn != 0) {
            obs::CriticalPathCollector::Global().RecordWait(
                obs::ChainKind::kClient, txn, 0,
                obs::WaitState::kGroupCommit, parked, sim_->Now());
          }
          send();
        });
    return;
  }
  send();
}

void Controller::ArmTimeout(Pending* p) {
  uint64_t req = p->req_id;
  p->timer = sim_->Schedule(options_.request_timeout,
                            [this, req] { OnTimeout(req); });
}

void Controller::OnTimeout(uint64_t req_id) {
  auto it = pending_.find(req_id);
  if (it == pending_.end()) return;
  Pending* p = &it->second;
  ++stats_.timeouts;
  ControllerMetrics::Get().timeouts->Increment();
  if (p->target >= 0) {
    if (ReplicaInfo* info = Info(p->target)) {
      if (info->outstanding > 0) info->outstanding--;
    }
  }
  if (p->order > 0) {
    // The write already owns a slot in the global order and sits in the
    // recovery log: it is durably committed no matter how slowly the
    // replicas answer. Report success instead of an ambiguous timeout.
    TxnResult result;
    result.version = p->order;
    FinishRequest(p, std::move(result));
    return;
  }
  TxnResult result;
  result.status = Status::Timeout("request timed out in middleware");
  FinishRequest(p, std::move(result));
}

// ---------------------------------------------------------------------------
// Failure handling

void Controller::OnReplicaSuspicion(net::NodeId replica, bool suspect) {
  ReplicaInfo* info = Info(replica);
  if (info == nullptr) return;
  if (passive_) {
    // Observe only; actions happen at takeover.
    info->state = suspect ? ReplicaState::kDown : ReplicaState::kOnline;
    return;
  }
  if (suspect) {
    if (info->state == ReplicaState::kDown) return;
    REPLIDB_LOG(Info) << "controller: replica " << replica << " suspected";
    ControllerMetrics::Get().suspicions->Increment();
    obs::FlightRecorder::Global().Record(
        sim_->Now(), id(), obs::FlightEventKind::kSuspicion,
        "replica=" + std::to_string(replica) +
            " applied=" + std::to_string(info->applied));
    info->state = ReplicaState::kDown;
    info->outstanding = 0;
    recovery_log_.SetCheckpoint(replica, info->applied);
    if (replica == master_) PromoteNewMaster();
  } else {
    if (info->state != ReplicaState::kDown) return;
    REPLIDB_LOG(Info) << "controller: replica " << replica << " back";
    ControllerMetrics::Get().suspicion_clears->Increment();
    obs::FlightRecorder::Global().Record(
        sim_->Now(), id(), obs::FlightEventKind::kSuspicion,
        "replica=" + std::to_string(replica) + " cleared");
    StartResync(replica);
  }
}

void Controller::PromoteNewMaster() {
  bool master_slave = options_.mode == ReplicationMode::kMasterSlaveAsync ||
                      options_.mode == ReplicationMode::kMasterSlaveSync;
  net::NodeId best = -1;
  GlobalVersion best_applied = 0;
  for (const auto& [id, info] : replicas_) {
    if (info.state != ReplicaState::kOnline) continue;
    if (info.applied >= best_applied) {
      best = id;
      best_applied = info.applied;
    }
  }
  net::NodeId old_master = master_;
  master_ = best;
  if (best < 0) {
    REPLIDB_LOG(Warn) << "controller: no master candidate; writes unavailable";
    return;
  }
  ++stats_.failovers;
  ControllerMetrics::Get().failovers->Increment();
  // One clock read: both flight events describe the same failover moment.
  const sim::TimePoint now = sim_->Now();
  obs::FlightRecorder::Global().Record(
      now, id(), obs::FlightEventKind::kFailover,
      "promoted=" + std::to_string(best) +
          " was=" + std::to_string(old_master) +
          " applied=" + std::to_string(best_applied));
  obs::FlightRecorder::Global().Record(
      now, id(), obs::FlightEventKind::kViewChange,
      "master change: " + std::to_string(old_master) + " -> " +
          std::to_string(best));
  // 1-safe loss accounting: acked versions beyond the most caught-up
  // survivor are gone (§2.2). The failed master still holds them on its
  // disk, so if it ever rejoins it must be re-cloned, not replayed.
  // Only master-slave modes lose the unshipped tail: there the failed
  // master WAS the version authority. In multi-master modes the
  // controller assigns versions and the recovery log holds every one of
  // them, so nothing is lost and the version counter must not regress.
  GlobalVersion survivor = Info(best)->applied;
  if (master_slave && global_version_ > survivor) {
    stats_.lost_transactions += global_version_ - survivor;
    ControllerMetrics::Get().lost_txns->Increment(global_version_ - survivor);
    global_version_ = survivor;
    if (old_master >= 0) divergence_markers_[old_master] = survivor;
  }
  REPLIDB_LOG(Info) << "controller: promoted " << best << " to master (was "
                    << old_master << "), lost "
                    << stats_.lost_transactions << " txns total";
  UpdateSubscriptions();
}

void Controller::UpdateSubscriptions() {
  if (options_.mode == ReplicationMode::kMasterSlaveAsync ||
      options_.mode == ReplicationMode::kMasterSlaveSync) {
    for (auto& [id, info] : replicas_) {
      if (id == master_) {
        std::vector<net::NodeId> subs;
        for (const auto& [other, oinfo] : replicas_) {
          (void)oinfo;
          if (other != id) subs.push_back(other);
        }
        info.node->SetSubscribers(std::move(subs));
      } else {
        info.node->SetSubscribers({});
      }
    }
  }
}

void Controller::StartResync(net::NodeId replica) {
  ReplicaInfo* info = Info(replica);
  if (info == nullptr) return;
  info->state = ReplicaState::kResyncing;
  // Honest checkpoint: what the replica durably applied (its disk), not
  // what the controller believed.
  GlobalVersion from = info->node->applied_version();
  auto marker = divergence_markers_.find(replica);
  if (marker != divergence_markers_.end()) {
    GlobalVersion floor = marker->second;
    divergence_markers_.erase(marker);
    if (from > floor && master_ >= 0) {
      // The rejoiner's disk carries commits the cluster never saw (the
      // 1-safe lost transactions). Forward replay would merge divergent
      // histories under reused version numbers; the only safe recovery is
      // a full re-clone — the "hours of dump/restore" of §4.4.2.
      REPLIDB_LOG(Info) << "controller: replica " << replica
                        << " diverged (applied " << from << " > survivor "
                        << floor << "); full re-clone from " << master_;
      CloneInto(replica, master_);
      return;
    }
  }
  if (from < recovery_log_.truncate_watermark()) {
    // The log tail needed to replay this rejoiner has been truncated
    // (e.g. the replica lost its disk and restarts from version 0). The
    // only complete source of state is another replica's full image — the
    // expensive provisioning path the binlog checkpoints exist to avoid.
    net::NodeId donor = master_;
    if (donor < 0 || donor == replica) {
      donor = -1;
      for (const auto& [other, oinfo] : replicas_) {
        if (other != replica && oinfo.state == ReplicaState::kOnline) {
          donor = other;
          break;
        }
      }
    }
    if (donor >= 0) {
      REPLIDB_LOG(Info) << "controller: replica " << replica << " at v"
                        << from << " is below recovery-log floor v"
                        << recovery_log_.truncate_watermark()
                        << "; full re-clone from " << donor;
      CloneInto(replica, donor);
      return;
    }
  }
  info->applied = from;
  info->resync_target = global_version_;
  ControllerMetrics::Get().resyncs_started->Increment();
  obs::FlightRecorder::Global().Record(
      sim_->Now(), id(), obs::FlightEventKind::kResyncPhase,
      "replay start: replica=" + std::to_string(replica) +
          " from=" + std::to_string(from) +
          " target=" + std::to_string(global_version_));
  ReplayBehindGauge(replica)->Set(static_cast<int64_t>(
      info->resync_target > from ? info->resync_target - from : 0));
  // The rejoiner's credit/window state is void (it restarted): reset the
  // per-peer ship state on every sender that pushes to it.
  ship_pipeline_->ResetPeer(replica);
  if (master_ >= 0 && master_ != replica &&
      (options_.mode == ReplicationMode::kMasterSlaveAsync ||
       options_.mode == ReplicationMode::kMasterSlaveSync)) {
    if (ReplicaInfo* m = Info(master_)) m->node->ResetShipPeer(replica);
  }
  std::vector<ReplicationEntry> entries =
      recovery_log_.Range(from, global_version_);
  for (ReplicationEntry& entry : entries) {
    ship_pipeline_->Enqueue(replica, std::move(entry));
  }
  ship_pipeline_->Flush(replica, ship::FlushReason::kSync);
  CheckResyncDone(replica);
}

void Controller::CheckResyncDone(net::NodeId replica) {
  ReplicaInfo* info = Info(replica);
  if (info == nullptr || info->state != ReplicaState::kResyncing) return;
  if (info->applied < info->resync_target) return;
  info->state = ReplicaState::kOnline;
  ++stats_.resyncs_completed;
  ControllerMetrics::Get().resyncs_completed->Increment();
  obs::FlightRecorder::Global().Record(
      sim_->Now(), id(), obs::FlightEventKind::kResyncPhase,
      "online: replica=" + std::to_string(replica) +
          " applied=" + std::to_string(info->applied));
  ReplayBehindGauge(replica)->Set(0);
  REPLIDB_LOG(Info) << "controller: replica " << replica << " resynced to v"
                    << info->applied;
  if (master_ < 0) PromoteNewMaster();
  auto cb = add_callbacks_.find(replica);
  if (cb != add_callbacks_.end()) {
    auto fn = std::move(cb->second);
    add_callbacks_.erase(cb);
    fn(Status::OK());
  }
}

bool Controller::HaveWriteQuorum() const {
  size_t up = 0;
  for (const auto& [id, info] : replicas_) {
    (void)id;
    if (info.state != ReplicaState::kDown) ++up;
  }
  return up * 2 > replicas_.size();
}

// ---------------------------------------------------------------------------
// Management operations

void Controller::StartBackup(
    net::NodeId replica, engine::BackupOptions opts,
    std::function<void(Result<engine::BackupImage>)> on_done) {
  uint64_t req = next_req_++;
  backup_waiters_[req] = [on_done = std::move(on_done)](
                             const BackupReplyMsg& reply) {
    if (!reply.status.ok()) {
      on_done(reply.status);
    } else {
      on_done(reply.image);
    }
  };
  BackupMsg msg;
  msg.req_id = req;
  msg.options = opts;
  dispatcher_->Send(replica, kMsgBackup, msg, kAdminWireBytes);
}

void Controller::AddReplica(ReplicaNode* node, net::NodeId donor,
                            std::function<void(Status)> on_done) {
  net::NodeId new_id = node->id();
  ReplicaInfo info;
  info.node = node;
  info.state = ReplicaState::kResyncing;
  replicas_[new_id] = info;
  node->SetController(id());
  detector_->Watch(new_id);
  add_callbacks_[new_id] = std::move(on_done);

  // 1) Hot backup from the donor (with metadata + sequences: a proper
  //    clone; see the C13 bench for what data-only backups break).
  engine::BackupOptions opts;
  opts.include_metadata = true;
  opts.include_sequences = true;
  uint64_t req = next_req_++;
  backup_waiters_[req] = [this, new_id](const BackupReplyMsg& reply) {
    auto fail = [this, new_id](Status status) {
      auto cb = add_callbacks_.find(new_id);
      if (cb != add_callbacks_.end()) {
        auto fn = std::move(cb->second);
        add_callbacks_.erase(cb);
        replicas_.erase(new_id);
        fn(status);
      }
    };
    if (!reply.status.ok()) {
      fail(reply.status);
      return;
    }
    // 2) Restore onto the new replica.
    uint64_t rreq = next_req_++;
    restore_waiters_[rreq] = [this, new_id,
                              fail](const RestoreReplyMsg& rreply) {
      if (!rreply.status.ok()) {
        fail(rreply.status);
        return;
      }
      // 3) Replay the recovery-log tail, then the replica goes online via
      //    the normal resync completion path.
      UpdateSubscriptions();
      StartResync(new_id);
    };
    RestoreMsg rmsg;
    rmsg.req_id = rreq;
    rmsg.image = reply.image;
    rmsg.as_of_version = reply.as_of_version;
    int64_t bytes = rmsg.image.SizeBytes() + 128;
    dispatcher_->Send(new_id, kMsgRestore, std::move(rmsg), bytes);
  };
  BackupMsg msg;
  msg.req_id = req;
  msg.options = opts;
  dispatcher_->Send(donor, kMsgBackup, msg, kAdminWireBytes);
}

void Controller::RollingUpgrade(int target_version,
                                sim::Duration upgrade_duration,
                                std::function<void(Status)> on_done) {
  std::vector<net::NodeId> ids;
  for (const auto& [id, info] : replicas_) {
    (void)info;
    ids.push_back(id);
  }
  UpgradeNext(std::move(ids), target_version, upgrade_duration,
              std::move(on_done));
}

void Controller::UpgradeNext(std::vector<net::NodeId> remaining,
                             int target_version,
                             sim::Duration upgrade_duration,
                             std::function<void(Status)> on_done) {
  // Skip replicas already on the target version.
  while (!remaining.empty()) {
    ReplicaInfo* info = Info(remaining.back());
    if (info == nullptr ||
        info->node->software_version() >= target_version) {
      remaining.pop_back();
      continue;
    }
    break;
  }
  if (remaining.empty()) {
    if (on_done) on_done(Status::OK());
    return;
  }
  net::NodeId target = remaining.back();
  remaining.pop_back();
  ReplicaInfo* info = Info(target);
  REPLIDB_LOG(Info) << "controller: upgrading replica " << target << " to v"
                    << target_version;
  // Planned maintenance: checkpoint + take the node down.
  RemoveReplica(target);
  info->node->Crash();
  sim_->Schedule(upgrade_duration, [this, target, remaining, target_version,
                                    upgrade_duration, on_done] {
    ReplicaInfo* info2 = Info(target);
    if (info2 == nullptr) {
      if (on_done) on_done(Status::NotFound("replica vanished mid-upgrade"));
      return;
    }
    info2->node->set_software_version(target_version);
    info2->node->Restart();
    StartResync(target);
    AwaitRejoinThenUpgrade(target, remaining, target_version, upgrade_duration,
                           on_done);
  });
}

void Controller::AwaitRejoinThenUpgrade(net::NodeId target,
                                        std::vector<net::NodeId> remaining,
                                        int target_version,
                                        sim::Duration upgrade_duration,
                                        std::function<void(Status)> on_done) {
  auto poll = [this, target, remaining = std::move(remaining), target_version,
               upgrade_duration, on_done = std::move(on_done)]() mutable {
    ReplicaInfo* info = Info(target);
    if (info == nullptr) {
      if (on_done) on_done(Status::NotFound("replica vanished mid-upgrade"));
      return;
    }
    if (info->state != ReplicaState::kOnline) {
      AwaitRejoinThenUpgrade(target, std::move(remaining), target_version,
                             upgrade_duration, std::move(on_done));
      return;
    }
    UpgradeNext(std::move(remaining), target_version, upgrade_duration,
                std::move(on_done));
  };
  sim_->Schedule(200 * sim::kMillisecond, std::move(poll));
}

void Controller::RemoveReplica(net::NodeId replica) {
  ReplicaInfo* info = Info(replica);
  if (info == nullptr) return;
  info->state = ReplicaState::kDown;
  recovery_log_.SetCheckpoint(replica, info->applied);
  if (replica == master_) PromoteNewMaster();
}

void Controller::RejoinReplica(net::NodeId replica) { StartResync(replica); }

void Controller::CloneInto(net::NodeId target, net::NodeId donor) {
  obs::FlightRecorder::Global().Record(
      sim_->Now(), id(), obs::FlightEventKind::kResyncPhase,
      "clone start: replica=" + std::to_string(target) +
          " donor=" + std::to_string(donor));
  engine::BackupOptions opts;
  opts.include_metadata = true;
  opts.include_sequences = true;
  uint64_t req = next_req_++;
  backup_waiters_[req] = [this, target](const BackupReplyMsg& reply) {
    ReplicaInfo* info = Info(target);
    if (info == nullptr) return;
    if (!reply.status.ok()) {
      info->state = ReplicaState::kDown;  // Retry on the next rejoin.
      return;
    }
    uint64_t rreq = next_req_++;
    restore_waiters_[rreq] = [this, target](const RestoreReplyMsg& rreply) {
      ReplicaInfo* info2 = Info(target);
      if (info2 == nullptr) return;
      if (!rreply.status.ok()) {
        info2->state = ReplicaState::kDown;
        return;
      }
      StartResync(target);
    };
    RestoreMsg rmsg;
    rmsg.req_id = rreq;
    rmsg.image = reply.image;
    rmsg.as_of_version = reply.as_of_version;
    int64_t bytes = rmsg.image.SizeBytes() + 128;
    dispatcher_->Send(target, kMsgRestore, std::move(rmsg), bytes);
  };
  BackupMsg msg;
  msg.req_id = req;
  msg.options = opts;
  dispatcher_->Send(donor, kMsgBackup, msg, kAdminWireBytes);
}

// ---------------------------------------------------------------------------
// Controller SPOF

void Controller::Crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;
  network_->CrashNode(id());
  ship_pipeline_->Clear();  // Queued pushes and granted credits are void.
  pending_.clear();  // In-flight client txns die; drivers time out.
  active_client_reqs_.clear();
  completed_writes_.clear();  // Soft state: exactly-once dies with it (§3.2).
}

void Controller::Restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++epoch_;
  network_->RestartNode(id());
  std::fill(workers_free_.begin(), workers_free_.end(), sim_->Now());
  // Rebuild soft state from the replicas (the costly part the paper notes
  // is "rarely described and almost never evaluated", §3.2).
  global_version_ = 0;
  for (auto& [id2, info] : replicas_) {
    (void)id2;
    info.outstanding = 0;
    info.applied = info.node->applied_version();
    global_version_ = std::max(global_version_, info.applied);
  }
}

}  // namespace replidb::middleware
