// Broker agents: semantic service discovery as an agent service.
//
// Section 3: "We are investigating the creation of efficient broker agents
// to discover services at a semantic level. ... UDDI's present highly
// centralized model is not appropriate for our scenario, but ... a
// distributed set of brokers could be created."  BrokerAgent implements the
// centralized model; federation (peer brokers that forward unresolved
// queries) implements the distributed one.  EXP-D2 compares them.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "agent/agent.hpp"
#include "agent/platform.hpp"
#include "discovery/matcher.hpp"
#include "discovery/ontology.hpp"
#include "discovery/registry.hpp"

namespace pgrid::discovery {

/// Envelope vocabulary of the discovery protocol.
struct DiscoveryProtocol {
  static constexpr const char* kOntology = "pgrid-discovery";
  static constexpr const char* kServiceAd = "pgrid/service-ad";
  static constexpr const char* kUnadvertise = "pgrid/service-unad";
  static constexpr const char* kRequest = "pgrid/service-request";
  /// A request forwarded broker-to-broker (never re-forwarded: 1-hop
  /// federation keeps the protocol loop-free).
  static constexpr const char* kForwardedRequest = "pgrid/service-request-fwd";
  static constexpr const char* kMatchList = "pgrid/match-list";
};

/// A directory agent holding a ServiceRegistry and answering semantic
/// queries through a pluggable Matcher.
class BrokerAgent final : public agent::Agent {
 public:
  BrokerAgent(std::string name, net::NodeId node, const Ontology& ontology,
              std::unique_ptr<Matcher> matcher = nullptr);

  void on_envelope(const agent::Envelope& envelope) override;
  void on_registered() override;

  /// Adds a peer broker for federated resolution.
  void add_peer(agent::AgentId peer) { peers_.push_back(peer); }

  ServiceRegistry& registry() { return registry_; }
  const ServiceRegistry& registry() const { return registry_; }
  const Matcher& matcher() const { return *matcher_; }

  std::size_t queries_forwarded() const { return queries_forwarded_; }

 private:
  void handle_query(const agent::Envelope& envelope, bool forwarded);

  const Ontology& ontology_;
  std::unique_ptr<Matcher> matcher_;
  ServiceRegistry registry_;
  std::vector<agent::AgentId> peers_;
  std::size_t queries_forwarded_ = 0;
};

/// Client-side helpers wrapping the envelope protocol.

/// Registers `service` with the broker; `done(bool)` reports confirmation.
void advertise(agent::AgentPlatform& platform, agent::AgentId requester,
               agent::AgentId broker, const ServiceDescription& service,
               std::function<void(bool)> done = nullptr);

/// Removes a service by name.
void unadvertise(agent::AgentPlatform& platform, agent::AgentId requester,
                 agent::AgentId broker, const std::string& service_name);

/// Asks the broker for matches; `done` receives the ranked list (empty on
/// failure or timeout).
void discover(agent::AgentPlatform& platform, agent::AgentId requester,
              agent::AgentId broker, const ServiceRequest& request,
              sim::SimTime timeout,
              std::function<void(std::vector<Match>)> done);

}  // namespace pgrid::discovery
