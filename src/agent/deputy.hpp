// Agent Deputies: the delivery abstraction of the Ronin framework.
//
// Section 2: "Each service consists of two parts: an Agent Deputy and an
// Agent. An Agent Deputy acts as a front-end interface for the other agents
// in the system to communicate with the Ronin Agent it represents. ... each
// Agent Deputy must implement a deliver method. This delivery abstraction
// means that depending on their connectivity and network QoS, agents can
// deploy deputies that will provide features of transcoding or disconnection
// management."
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "agent/envelope.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace pgrid::agent {

class AgentPlatform;

/// The deputy interface: the only thing the platform knows about delivery.
class AgentDeputy {
 public:
  virtual ~AgentDeputy() = default;

  /// Attempts to deliver `envelope` to the represented agent, whose node is
  /// `dest_node`, from `src_node`.  Implementations route over the network
  /// and call `done` exactly once.
  virtual void deliver(AgentPlatform& platform, net::NodeId src_node,
                       net::NodeId dest_node, const Envelope& envelope,
                       net::Network::DeliveryCallback done) = 0;

  virtual std::string kind() const = 0;
};

/// Default deputy: one shot over the current shortest path; fails when the
/// destination is unreachable.
class DirectDeputy final : public AgentDeputy {
 public:
  void deliver(AgentPlatform& platform, net::NodeId src_node,
               net::NodeId dest_node, const Envelope& envelope,
               net::Network::DeliveryCallback done) override;
  std::string kind() const override { return "direct"; }
};

/// Disconnection-managing deputy: when the destination is unreachable the
/// envelope is held and retried with exponential backoff (retry_every is
/// the initial interval) until a deadline — the envelope's own deadline if
/// it carries one, else give_up_after from now.  Give-up is owned by a
/// dedicated event at the deadline, so done(false) fires exactly once at
/// that instant even if the target dies mid-retry or the last attempt is
/// still in flight.  This is the "disconnection management" feature the
/// paper attributes to deputies.
class StoreAndForwardDeputy final : public AgentDeputy {
 public:
  explicit StoreAndForwardDeputy(
      sim::SimTime retry_every = sim::SimTime::seconds(1.0),
      sim::SimTime give_up_after = sim::SimTime::seconds(60.0))
      : retry_every_(retry_every), give_up_after_(give_up_after) {}

  void deliver(AgentPlatform& platform, net::NodeId src_node,
               net::NodeId dest_node, const Envelope& envelope,
               net::Network::DeliveryCallback done) override;
  std::string kind() const override { return "store-and-forward"; }

  /// Envelopes currently held awaiting a retry.
  std::size_t queued() const { return queued_; }
  /// Total route attempts across all deliveries (backoff diagnostics).
  std::uint64_t attempts() const { return attempts_; }

 private:
  struct RetryState;
  void attempt(AgentPlatform& platform,
               const std::shared_ptr<RetryState>& state);

  sim::SimTime retry_every_;
  sim::SimTime give_up_after_;
  std::size_t queued_ = 0;
  std::uint64_t attempts_ = 0;
};

/// Transcoding deputy: shrinks payloads before transmission when the first
/// hop is a thin channel (below `bandwidth_threshold_bps`), modelling lossy
/// content adaptation for weak links.
class TranscodingDeputy final : public AgentDeputy {
 public:
  TranscodingDeputy(double bandwidth_threshold_bps, double shrink_factor)
      : threshold_bps_(bandwidth_threshold_bps),
        shrink_factor_(shrink_factor) {}

  void deliver(AgentPlatform& platform, net::NodeId src_node,
               net::NodeId dest_node, const Envelope& envelope,
               net::Network::DeliveryCallback done) override;
  std::string kind() const override { return "transcoding"; }

  std::size_t transcoded_count() const { return transcoded_; }

 private:
  double threshold_bps_;
  double shrink_factor_;
  std::size_t transcoded_ = 0;
};

}  // namespace pgrid::agent
