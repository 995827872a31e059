#ifndef REPLIDB_CLIENT_DRIVER_H_
#define REPLIDB_CLIENT_DRIVER_H_

#include <functional>
#include <memory>
#include "common/hashing.h"
#include <vector>

#include "middleware/messages.h"
#include "net/dispatcher.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace replidb::client {

/// \brief Options for the client-side driver (the replacement JDBC/ODBC
/// driver of Figure 7).
struct DriverOptions {
  /// Driver-level timeout before a request is considered lost. Drivers in
  /// practice inherit much worse OS defaults (§4.3.4.2); this one is sane.
  sim::Duration request_timeout = 5 * sim::kSecond;
  /// Automatic retries on retryable outcomes (certification conflicts,
  /// deadlock victims, failover-window unavailability). Retries are what
  /// make failover "transparent" to the application.
  int max_retries = 5;
  /// Backoff before each retry.
  sim::Duration retry_backoff = 50 * sim::kMillisecond;
  /// When the listed controllers are replicas of ONE cluster (e.g. an
  /// active + a warm standby), retries rotate between them regardless of
  /// any partition hint. When they are partition owners (Figure 2), the
  /// hint stays sticky — a retry must not land on the wrong partition.
  bool controllers_are_replicas = false;
};

/// \brief The application-side driver: submits transactions to one or more
/// middleware controllers (multiple = Figure 2 partitioned deployment; the
/// driver routes by TxnRequest::partition_hint), tracks the session's last
/// observed version (read-your-writes under session consistency), retries
/// retryable failures, and fails over between controllers.
class Driver {
 public:
  using Callback = std::function<void(const middleware::TxnResult&)>;

  Driver(sim::Simulator* sim, net::Network* network, net::NodeId node,
         std::vector<net::NodeId> controllers, DriverOptions options = {},
         net::SiteId site = 0);
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  net::NodeId id() const { return dispatcher_->node(); }

  /// Submits a transaction; `cb` fires exactly once with the final result
  /// (after internal retries). Latency covers the whole affair, retries
  /// included.
  void Submit(middleware::TxnRequest request, Callback cb);

  /// Session version watermark for a controller (read-your-writes state).
  /// Tracked per controller: partitioned deployments have independent
  /// version domains, and mixing them would stall freshness-gated reads.
  middleware::GlobalVersion last_seen_version(size_t controller_index = 0) const {
    return controller_index < last_seen_.size() ? last_seen_[controller_index]
                                                : 0;
  }

  uint64_t submitted() const { return submitted_; }
  uint64_t completed() const { return completed_; }
  uint64_t gave_up() const { return gave_up_; }

 private:
  struct Outstanding {
    middleware::TxnRequest request;
    Callback cb;
    sim::TimePoint started = 0;
    int attempts = 0;
    sim::EventId timer = 0;
    size_t controller_index = 0;  ///< Which controller got the last send.
  };

  void Send(uint64_t req_id);
  void HandleReply(const middleware::ClientTxnReply& reply);
  void OnTimeout(uint64_t req_id);
  void Retry(uint64_t req_id, Outstanding* out);

  sim::Simulator* sim_;
  std::unique_ptr<net::Dispatcher> dispatcher_;
  std::vector<net::NodeId> controllers_;
  DriverOptions options_;

  HashMap<uint64_t, Outstanding> outstanding_;
  uint64_t next_req_ = 1;
  std::vector<middleware::GlobalVersion> last_seen_;
  /// Replicated-controller mode: the last controller that answered
  /// successfully; first attempts go there (multipool stickiness).
  size_t preferred_controller_ = 0;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t gave_up_ = 0;
};

}  // namespace replidb::client

#endif  // REPLIDB_CLIENT_DRIVER_H_
