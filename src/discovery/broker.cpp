#include "discovery/broker.hpp"

#include <algorithm>
#include <memory>

namespace pgrid::discovery {

using agent::Envelope;
using agent::Performative;

BrokerAgent::BrokerAgent(std::string name, net::NodeId node,
                         const Ontology& ontology,
                         std::unique_ptr<Matcher> matcher)
    : Agent(std::move(name), node),
      ontology_(ontology),
      matcher_(matcher ? std::move(matcher)
                       : std::make_unique<SemanticMatcher>(ontology)) {
  attributes().insert(agent::AgentRole::kBroker);
}

void BrokerAgent::on_registered() {}

void BrokerAgent::on_envelope(const Envelope& envelope) {
  switch (envelope.performative) {
    case Performative::kAdvertise: {
      if (auto service = parse_service(envelope.payload)) {
        registry_.register_service(std::move(*service));
        if (envelope.reply_with != 0) {
          platform()->send(make_reply(envelope, Performative::kConfirm, "ok"));
        }
      } else if (envelope.reply_with != 0) {
        platform()->send(
            make_reply(envelope, Performative::kFailure, "bad service ad"));
      }
      return;
    }
    case Performative::kUnadvertise: {
      registry_.unregister_service(envelope.payload);
      if (envelope.reply_with != 0) {
        platform()->send(make_reply(envelope, Performative::kConfirm, "ok"));
      }
      return;
    }
    case Performative::kQueryRef: {
      const bool forwarded =
          envelope.content_type == DiscoveryProtocol::kForwardedRequest;
      handle_query(envelope, forwarded);
      return;
    }
    default:
      return;  // unknown performatives are ignored, not errors
  }
}

void BrokerAgent::handle_query(const Envelope& envelope, bool forwarded) {
  auto request = parse_request(envelope.payload);
  if (!request) {
    platform()->send(make_reply(envelope, Performative::kFailure, "bad request"));
    return;
  }
  registry_.sweep(platform()->simulator().now());
  auto local = matcher_->match(registry_.all(), *request);

  // Resolved locally, no peers, or already one hop deep: answer directly.
  if (!local.empty() || peers_.empty() || forwarded) {
    Envelope reply =
        make_reply(envelope, Performative::kInform, serialize_matches(local));
    reply.content_type = DiscoveryProtocol::kMatchList;
    platform()->send(reply);
    return;
  }

  // Federated resolution: fan the query out to peers, merge their answers.
  ++queries_forwarded_;
  struct FanOut {
    std::vector<Match> merged;
    std::size_t outstanding = 0;
    Envelope original;
  };
  auto state = std::make_shared<FanOut>();
  state->original = envelope;
  state->outstanding = peers_.size();
  const std::size_t max_results = request->max_results;

  auto finish = [this, state, max_results] {
    std::stable_sort(state->merged.begin(), state->merged.end(),
                     [](const Match& a, const Match& b) {
                       return a.score > b.score;
                     });
    if (state->merged.size() > max_results) state->merged.resize(max_results);
    Envelope reply = make_reply(state->original, Performative::kInform,
                                serialize_matches(state->merged));
    reply.content_type = DiscoveryProtocol::kMatchList;
    platform()->send(reply);
  };

  for (agent::AgentId peer : peers_) {
    Envelope fwd;
    fwd.sender = id();
    fwd.receiver = peer;
    fwd.performative = Performative::kQueryRef;
    fwd.content_type = DiscoveryProtocol::kForwardedRequest;
    fwd.ontology = DiscoveryProtocol::kOntology;
    fwd.payload = envelope.payload;
    platform()->request(
        fwd, sim::SimTime::seconds(5.0),
        [state, finish](common::Result<Envelope> result) {
          if (result.ok()) {
            auto matches = parse_matches(result.value().payload);
            // Dedup by service name: several brokers may know one service.
            for (auto& match : matches) {
              const bool seen = std::any_of(
                  state->merged.begin(), state->merged.end(),
                  [&](const Match& m) {
                    return m.service.name == match.service.name;
                  });
              if (!seen) state->merged.push_back(std::move(match));
            }
          }
          if (--state->outstanding == 0) finish();
        });
  }
}

void advertise(agent::AgentPlatform& platform, agent::AgentId requester,
               agent::AgentId broker, const ServiceDescription& service,
               std::function<void(bool)> done) {
  Envelope env;
  env.sender = requester;
  env.receiver = broker;
  env.performative = Performative::kAdvertise;
  env.content_type = DiscoveryProtocol::kServiceAd;
  env.ontology = DiscoveryProtocol::kOntology;
  env.payload = serialize(service);
  if (!done) {
    platform.send(env);
    return;
  }
  platform.request(env, sim::SimTime::seconds(10.0),
                   [done = std::move(done)](common::Result<Envelope> result) {
                     done(result.ok() &&
                          result.value().performative ==
                              Performative::kConfirm);
                   });
}

void unadvertise(agent::AgentPlatform& platform, agent::AgentId requester,
                 agent::AgentId broker, const std::string& service_name) {
  Envelope env;
  env.sender = requester;
  env.receiver = broker;
  env.performative = Performative::kUnadvertise;
  env.content_type = DiscoveryProtocol::kUnadvertise;
  env.ontology = DiscoveryProtocol::kOntology;
  env.payload = service_name;
  platform.send(env);
}

void discover(agent::AgentPlatform& platform, agent::AgentId requester,
              agent::AgentId broker, const ServiceRequest& request,
              sim::SimTime timeout,
              std::function<void(std::vector<Match>)> done) {
  Envelope env;
  env.sender = requester;
  env.receiver = broker;
  env.performative = Performative::kQueryRef;
  env.content_type = DiscoveryProtocol::kRequest;
  env.ontology = DiscoveryProtocol::kOntology;
  env.payload = serialize(request);
  platform.request(env, timeout,
                   [done = std::move(done)](common::Result<Envelope> result) {
                     if (!result.ok()) {
                       done({});
                       return;
                     }
                     done(parse_matches(result.value().payload));
                   });
}

}  // namespace pgrid::discovery
