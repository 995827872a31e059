#include "client/driver.h"

#include <string>
#include <utility>

#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace replidb::client {

using middleware::ClientTxnMsg;
using middleware::ClientTxnReply;
using middleware::kMsgClientTxn;
using middleware::kMsgClientTxnReply;
using middleware::TxnResult;

namespace {

/// Registry handles resolved once; updates after that are atomic bumps.
struct DriverMetrics {
  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* retries;
  obs::Counter* gave_up;
  obs::HistogramMetric* txn_ms;

  static DriverMetrics& Get() {
    static DriverMetrics m;
    return m;
  }

 private:
  DriverMetrics() {
    auto& r = obs::MetricsRegistry::Global();
    submitted = r.GetCounter("client.driver.submitted");
    completed = r.GetCounter("client.driver.completed");
    retries = r.GetCounter("client.driver.retries");
    gave_up = r.GetCounter("client.driver.gave_up");
    txn_ms = r.GetHistogram("client.txn.total_ms");
  }
};

}  // namespace

Driver::Driver(sim::Simulator* sim, net::Network* network, net::NodeId node,
               std::vector<net::NodeId> controllers, DriverOptions options,
               net::SiteId site)
    : sim_(sim), controllers_(std::move(controllers)), options_(options) {
  last_seen_.assign(controllers_.size(), 0);
  dispatcher_ = std::make_unique<net::Dispatcher>(network, node, site);
  dispatcher_->On<ClientTxnReply>(
      kMsgClientTxnReply,
      [this](const net::Message&, const ClientTxnReply& reply) {
        HandleReply(reply);
      });
}

void Driver::Submit(middleware::TxnRequest request, Callback cb) {
  ++submitted_;
  DriverMetrics::Get().submitted->Increment();
  if (obs::CriticalPathEnabled() && request.trace.id == 0) {
    request.trace.id = obs::NextTraceId();
  }
  uint64_t req_id = next_req_++;
  Outstanding out;
  out.request = std::move(request);
  out.cb = std::move(cb);
  out.started = sim_->Now();
  if (obs::CriticalPathEnabled() && out.request.trace.id != 0) {
    // The client chain's window is exactly TxnResult.latency: per-stage
    // attribution sums to the latency the caller observes.
    obs::CriticalPathCollector::Global().OpenChain(
        obs::ChainKind::kClient, out.request.trace.id, 0, out.started);
  }
  outstanding_.emplace(req_id, std::move(out));
  Send(req_id);
}

void Driver::Send(uint64_t req_id) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) return;
  Outstanding& out = it->second;
  ++out.attempts;

  // Partitioned deployments: pick the partition's controller. On retry
  // after unavailability, rotate (multipool failover, §4.3.3).
  size_t base = controllers_.size() > 1
                    ? static_cast<size_t>(out.request.partition_hint) %
                          controllers_.size()
                    : 0;
  if (options_.controllers_are_replicas) base = preferred_controller_;
  size_t pick = (base + static_cast<size_t>(out.attempts - 1)) %
                controllers_.size();
  if (controllers_.size() > 1 && out.request.partition_hint >= 0 &&
      !options_.controllers_are_replicas) {
    // Partition routing is sticky: the hint owns the data. Only rotate
    // for hint-free requests or replicated controllers.
    pick = base;
  }

  out.controller_index = pick;
  ClientTxnMsg msg;
  msg.req_id = req_id;
  msg.request = out.request;
  msg.last_seen_version = last_seen_[pick];
  int64_t bytes = middleware::StatementsWireSize(msg.request.statements);
  dispatcher_->Send(controllers_[pick], kMsgClientTxn, std::move(msg), bytes,
                    out.request.trace.id);

  out.timer = sim_->Schedule(options_.request_timeout,
                             [this, req_id] { OnTimeout(req_id); });
}

void Driver::HandleReply(const ClientTxnReply& reply) {
  auto it = outstanding_.find(reply.req_id);
  if (it == outstanding_.end()) return;  // Timed-out request, late reply.
  Outstanding& out = it->second;
  sim_->Cancel(out.timer);

  const TxnResult& r = reply.result;
  bool retryable = r.status.IsRetryableAbort() ||
                   r.status.code() == StatusCode::kUnavailable ||
                   r.status.code() == StatusCode::kTimeout ||
                   r.status.code() == StatusCode::kNoQuorum;
  if (!r.status.ok() && retryable && out.attempts <= options_.max_retries) {
    Retry(reply.req_id, &out);
    return;
  }

  TxnResult final_result = r;
  final_result.latency = sim_->Now() - out.started;
  final_result.retries = out.attempts - 1;
  if (r.status.ok() && r.version > last_seen_[out.controller_index]) {
    last_seen_[out.controller_index] = r.version;
  }
  if (r.status.ok()) preferred_controller_ = out.controller_index;
  ++completed_;
  if (!r.status.ok()) ++gave_up_;
  DriverMetrics::Get().completed->Increment();
  if (!r.status.ok()) DriverMetrics::Get().gave_up->Increment();
  DriverMetrics::Get().txn_ms->Observe(sim::ToMillis(final_result.latency));
  if (obs::CriticalPathEnabled() && out.request.trace.id != 0) {
    obs::CriticalPathCollector::Global().CloseChain(
        obs::ChainKind::kClient, out.request.trace.id, 0, sim_->Now(),
        r.status.ok() ? obs::ChainOutcome::kCommit
                      : obs::ChainOutcome::kAbort);
  }
  Callback cb = std::move(out.cb);
  outstanding_.erase(it);
  cb(final_result);
}

void Driver::OnTimeout(uint64_t req_id) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) return;
  Outstanding& out = it->second;
  if (out.attempts <= options_.max_retries) {
    Retry(req_id, &out);
    return;
  }
  TxnResult result;
  result.status = Status::Timeout("driver gave up after retries");
  result.latency = sim_->Now() - out.started;
  result.retries = out.attempts - 1;
  ++completed_;
  ++gave_up_;
  DriverMetrics::Get().completed->Increment();
  DriverMetrics::Get().gave_up->Increment();
  if (obs::CriticalPathEnabled() && out.request.trace.id != 0) {
    obs::CriticalPathCollector::Global().CloseChain(
        obs::ChainKind::kClient, out.request.trace.id, 0, sim_->Now(),
        obs::ChainOutcome::kGaveUp);
  }
  Callback cb = std::move(out.cb);
  outstanding_.erase(it);
  cb(result);
}

void Driver::Retry(uint64_t req_id, Outstanding* out) {
  (void)out;
  DriverMetrics::Get().retries->Increment();
  sim_->Schedule(options_.retry_backoff, [this, req_id] { Send(req_id); });
}

}  // namespace replidb::client
