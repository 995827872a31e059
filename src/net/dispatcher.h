#ifndef REPLIDB_NET_DISPATCHER_H_
#define REPLIDB_NET_DISPATCHER_H_

#include <any>
#include <deque>
#include <string>
#include <utility>

#include "common/hashing.h"
#include "common/logging.h"
#include "net/network.h"

namespace replidb::net {

/// \brief Per-node message dispatcher.
///
/// A node usually hosts several protocol participants (heartbeat responder,
/// replication endpoint, group-communication member...). Dispatcher is
/// installed as the node's single Network handler and routes messages by
/// their `type` prefix. Unmatched messages are dropped (counted).
class Dispatcher {
 public:
  /// Creates and registers the dispatcher as `node`'s handler.
  Dispatcher(Network* network, NodeId node, SiteId site = 0)
      : network_(network), node_(node) {
    network_->RegisterNode(
        node, [this](const Message& m) { Dispatch(m); }, site);
  }
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  NodeId node() const { return node_; }
  Network* network() { return network_; }

  /// Subscribes a handler to messages of `type`. Multiple components may
  /// subscribe to the same type (e.g. two failure detectors sharing one
  /// node); each receives every matching message and filters what it
  /// does not own.
  void On(const std::string& type, MessageHandler handler) {
    handlers_[type].push_back(std::move(handler));
  }

  /// Subscribes `handler(message, body)` to messages of `type`, handing it
  /// the body in place as a `const T&`. A handler copies only what it
  /// keeps past its return. A body of any other type is a sender bug.
  template <typename T, typename F>
  void On(const std::string& type, F handler) {
    On(type, [handler = std::move(handler)](const Message& m) {
      const T* body = std::any_cast<T>(&m.body);
      REPLIDB_CHECK(body != nullptr, "message body has the wrong type");
      handler(m, *body);
    });
  }

  /// Sends from this node. `size_bytes` is the payload's wire size and
  /// must be positive; `txn` optionally tags the transaction served for
  /// critical-path net_transit attribution (see Network::Send).
  bool Send(NodeId to, std::string type, std::any body, int64_t size_bytes,
            uint64_t txn = 0) {
    return network_->Send(node_, to, std::move(type), std::move(body),
                          size_bytes, txn);
  }

  uint64_t unmatched_messages() const { return unmatched_; }

 private:
  void Dispatch(const Message& m) {
    auto it = handlers_.find(m.type);
    if (it == handlers_.end() || it->second.empty()) {
      ++unmatched_;
      return;
    }
    // In place. A handler that subscribes while running lands past `n`, so
    // it sees only later messages; neither the map's nodes nor a deque's
    // elements move on insert, so the running handler stays put.
    std::deque<MessageHandler>& handlers = it->second;
    for (size_t i = 0, n = handlers.size(); i < n; ++i) handlers[i](m);
  }

  Network* network_;
  NodeId node_;
  HashMap<std::string, std::deque<MessageHandler>> handlers_;
  uint64_t unmatched_ = 0;
};

}  // namespace replidb::net

#endif  // REPLIDB_NET_DISPATCHER_H_
