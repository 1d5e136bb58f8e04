// The agent platform: registry plus the uniform, ACL- and network-protocol-
// independent communication infrastructure the paper attributes to Ronin.
//
// The platform knows agents only by id and deputies only by the deliver()
// interface; envelopes are opaque.  Request/response conversations with
// timeouts are layered on top for the discovery and composition protocols.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "agent/deputy.hpp"
#include "agent/envelope.hpp"
#include "common/result.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace pgrid::agent {

/// Counters for messaging behaviour under churn (EXP-A1).
struct PlatformStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
};

class AgentPlatform {
 public:
  using SendCallback = std::function<void(bool delivered)>;
  using ResponseCallback =
      std::function<void(common::Result<Envelope> response)>;

  explicit AgentPlatform(net::Network& network);

  /// Registers an agent; a null deputy defaults to DirectDeputy.  The
  /// platform owns both and assigns the agent id.
  AgentId register_agent(std::unique_ptr<Agent> agent,
                         std::unique_ptr<AgentDeputy> deputy = nullptr);
  void unregister_agent(AgentId id);

  Agent* find(AgentId id);
  Agent* find_by_name(const std::string& name);
  std::vector<AgentId> agents_with_role(AgentRole role) const;

  /// Fire-and-forget send through the receiver's deputy.
  void send(Envelope envelope, SendCallback on_result = nullptr);

  /// Request/response: stamps reply_with, delivers, and fires `on_response`
  /// with the reply envelope or a failure (undeliverable or timeout).
  void request(Envelope envelope, sim::SimTime timeout,
               ResponseCallback on_response);

  /// Fresh token for reply correlation / conversation ids.
  std::uint64_t next_token() { return next_token_++; }

  /// Routes a payload from src to dst over the current topology through
  /// Network::deliver, which picks the delivery discipline (`budget` bounds
  /// acked delivery and is ignored by best effort).  Exposed for deputies.
  void route_and_transmit(net::NodeId src, net::NodeId dst,
                          std::uint64_t bytes, net::Budget budget,
                          net::Network::DeliveryCallback done);
  void route_and_transmit(net::NodeId src, net::NodeId dst,
                          std::uint64_t bytes,
                          net::Network::DeliveryCallback done) {
    route_and_transmit(src, dst, bytes, net::Budget::unlimited(),
                       std::move(done));
  }

  net::Network& network() { return network_; }
  sim::Simulator& simulator() { return network_.simulator(); }
  const PlatformStats& stats() const { return stats_; }

 private:
  friend class DirectDeputy;
  friend class StoreAndForwardDeputy;
  friend class TranscodingDeputy;

  struct Registration {
    std::unique_ptr<Agent> agent;
    std::unique_ptr<AgentDeputy> deputy;
  };

  struct PendingRequest {
    AgentId requester;
    ResponseCallback callback;
    sim::EventHandle timeout;
  };

  /// Hands a delivered envelope to the target agent or a pending-request
  /// callback.
  void dispatch(const Envelope& envelope);

  net::Network& network_;
  std::map<AgentId, Registration> agents_;
  std::map<std::uint64_t, PendingRequest> pending_;
  PlatformStats stats_;
  AgentId next_agent_id_ = 1;
  std::uint64_t next_token_ = 1;
};

}  // namespace pgrid::agent
