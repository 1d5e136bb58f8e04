#include "agent/platform.hpp"

#include <utility>

#include "net/routing.hpp"

namespace pgrid::agent {

AgentPlatform::AgentPlatform(net::Network& network) : network_(network) {}

AgentId AgentPlatform::register_agent(std::unique_ptr<Agent> agent,
                                      std::unique_ptr<AgentDeputy> deputy) {
  const AgentId id = next_agent_id_++;
  agent->id_ = id;
  agent->platform_ = this;
  if (!deputy) deputy = std::make_unique<DirectDeputy>();
  Agent* raw = agent.get();
  agents_[id] = Registration{std::move(agent), std::move(deputy)};
  raw->on_registered();
  return id;
}

void AgentPlatform::unregister_agent(AgentId id) { agents_.erase(id); }

Agent* AgentPlatform::find(AgentId id) {
  auto it = agents_.find(id);
  return it == agents_.end() ? nullptr : it->second.agent.get();
}

Agent* AgentPlatform::find_by_name(const std::string& name) {
  for (auto& [id, reg] : agents_) {
    if (reg.agent->name() == name) return reg.agent.get();
  }
  return nullptr;
}

AgentDeputy* AgentPlatform::deputy_of(AgentId id) {
  auto it = agents_.find(id);
  return it == agents_.end() ? nullptr : it->second.deputy.get();
}

std::vector<AgentId> AgentPlatform::agents_with_role(AgentRole role) const {
  std::vector<AgentId> out;
  for (const auto& [id, reg] : agents_) {
    if (reg.agent->has_role(role)) out.push_back(id);
  }
  return out;
}

void AgentPlatform::send(Envelope envelope, SendCallback on_result) {
  ++stats_.sent;
  auto sender_it = agents_.find(envelope.sender);
  auto receiver_it = agents_.find(envelope.receiver);
  if (receiver_it == agents_.end()) {
    ++stats_.failed;
    simulator().schedule(sim::SimTime::zero(), [on_result] {
      if (on_result) on_result(false);
    });
    return;
  }
  const net::NodeId src = sender_it == agents_.end()
                              ? receiver_it->second.agent->node()
                              : sender_it->second.agent->node();
  const net::NodeId dst = receiver_it->second.agent->node();
  AgentDeputy& deputy = *receiver_it->second.deputy;
  // The envelope and the sender's callback share one allocation, so the
  // delivery completion captures two pointers and stays inline.
  struct InFlight {
    Envelope envelope;
    SendCallback on_result;
  };
  auto flight = std::make_shared<InFlight>(
      InFlight{std::move(envelope), std::move(on_result)});
  const Envelope& env = flight->envelope;
  // Deliver under the envelope's trace so the physical hops (and everything
  // the receiving agent does in response) attribute to the conversation.
  // The logical-layer charge records envelope traffic per subsystem; the
  // per-hop wireless/backhaul bytes are charged by the network itself.
  auto& ledger = network_.telemetry();
  const telemetry::TraceId trace =
      env.trace != 0 ? env.trace : ledger.current_trace();
  telemetry::Cost message;
  message.bytes = env.wire_size();
  message.count = 1;
  ledger.charge(telemetry::Subsystem::kAgentMessaging, trace, message);
  telemetry::TraceScope scope(simulator(), trace);
  auto complete = [this, flight](bool delivered) {
    if (delivered) {
      ++stats_.delivered;
      dispatch(flight->envelope);
    } else {
      ++stats_.failed;
    }
    if (flight->on_result) flight->on_result(delivered);
  };
  static_assert(
      net::Network::DeliveryCallback::stores_inline<decltype(complete)>,
      "an envelope's delivery completion must not allocate");
  deputy.deliver(*this, src, dst, env, std::move(complete));
}

void AgentPlatform::request(Envelope envelope, sim::SimTime timeout,
                            ResponseCallback on_response) {
  const std::uint64_t token = next_token();
  envelope.reply_with = token;
  if (envelope.conversation_id == 0) envelope.conversation_id = token;
  // Under acked delivery the request timeout doubles as the delivery
  // budget: deputies and the channel stop retrying once the requester would
  // have timed out anyway.
  if (network_.reliable_channel() != nullptr && envelope.deadline_us == 0) {
    envelope.deadline_us = (simulator().now() + timeout).us;
  }
  const AgentId requester = envelope.sender;

  auto timeout_handle = simulator().schedule(timeout, [this, token] {
    auto it = pending_.find(token);
    if (it == pending_.end()) return;
    auto callback = std::move(it->second.callback);
    pending_.erase(it);
    ++stats_.timed_out;
    callback(common::Result<Envelope>::failure("request timed out"));
  });
  pending_[token] =
      PendingRequest{requester, std::move(on_response), timeout_handle};

  send(std::move(envelope), [this, token](bool delivered) {
    if (delivered) return;
    auto it = pending_.find(token);
    if (it == pending_.end()) return;
    auto callback = std::move(it->second.callback);
    simulator().cancel(it->second.timeout);
    pending_.erase(it);
    callback(common::Result<Envelope>::failure("request undeliverable"));
  });
}

void AgentPlatform::dispatch(const Envelope& envelope) {
  if (envelope.in_reply_to != 0) {
    auto it = pending_.find(envelope.in_reply_to);
    if (it != pending_.end() && it->second.requester == envelope.receiver) {
      auto callback = std::move(it->second.callback);
      simulator().cancel(it->second.timeout);
      pending_.erase(it);
      callback(common::Result<Envelope>(envelope));
      return;
    }
  }
  if (Agent* target = find(envelope.receiver)) target->on_envelope(envelope);
}

void AgentPlatform::route_and_transmit(net::NodeId src, net::NodeId dst,
                                       std::uint64_t bytes, net::Budget budget,
                                       net::Network::DeliveryCallback done) {
  if (src == dst) {
    // Local delivery is instantaneous but still asynchronous.
    simulator().schedule(sim::SimTime::zero(),
                         [done = std::move(done)]() mutable { done(true); });
    return;
  }
  network_.deliver(src, dst, bytes, budget, std::move(done));
}

// ---------------------------------------------------------------------------
// Deputies
// ---------------------------------------------------------------------------

namespace {

net::Budget envelope_budget(const Envelope& envelope) {
  return envelope.deadline_us > 0
             ? net::Budget::until(
                   sim::SimTime::microseconds(envelope.deadline_us))
             : net::Budget::unlimited();
}

}  // namespace

void DirectDeputy::deliver(AgentPlatform& platform, net::NodeId src_node,
                           net::NodeId dest_node, const Envelope& envelope,
                           net::Network::DeliveryCallback done) {
  platform.route_and_transmit(src_node, dest_node, envelope.wire_size(),
                              envelope_budget(envelope), std::move(done));
}

/// Per-delivery retry bookkeeping.  The give-up event owns termination:
/// nothing else may call done(false), and done(true) cancels it, so the
/// outcome callback fires exactly once regardless of how the retry loop and
/// target churn interleave.
struct StoreAndForwardDeputy::RetryState {
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  std::uint64_t bytes = 0;
  sim::SimTime deadline;
  sim::SimTime interval;  ///< next retry delay; doubles per failure
  net::Network::DeliveryCallback done;
  sim::EventHandle give_up;
  bool finished = false;
  bool counted = false;  ///< currently counted in queued_
};

void StoreAndForwardDeputy::deliver(AgentPlatform& platform,
                                    net::NodeId src_node,
                                    net::NodeId dest_node,
                                    const Envelope& envelope,
                                    net::Network::DeliveryCallback done) {
  const sim::SimTime now = platform.simulator().now();
  sim::SimTime deadline = now + give_up_after_;
  if (envelope.deadline_us > 0) {
    const auto env_deadline = sim::SimTime::microseconds(envelope.deadline_us);
    if (env_deadline < deadline) deadline = env_deadline;
  }
  auto state = std::make_shared<RetryState>();
  state->src = src_node;
  state->dst = dest_node;
  state->bytes = envelope.wire_size();
  state->deadline = deadline;
  state->interval = retry_every_;
  state->done = std::move(done);
  if (deadline <= now) {
    platform.simulator().schedule(sim::SimTime::zero(), [state]() mutable {
      state->finished = true;
      if (state->done) state->done(false);
    });
    return;
  }
  state->give_up =
      platform.simulator().schedule_at(deadline, [this, state]() mutable {
        if (state->finished) return;
        state->finished = true;
        if (state->counted) {
          state->counted = false;
          --queued_;
        }
        if (state->done) state->done(false);
      });
  attempt(platform, state);
}

void StoreAndForwardDeputy::attempt(AgentPlatform& platform,
                                    const std::shared_ptr<RetryState>& state) {
  if (state->finished) return;
  ++attempts_;
  platform.route_and_transmit(
      state->src, state->dst, state->bytes, net::Budget::until(state->deadline),
      [this, &platform, state](bool ok) mutable {
        if (state->finished) return;  // gave up while this attempt was in air
        if (ok) {
          state->finished = true;
          platform.simulator().cancel(state->give_up);
          if (state->done) state->done(true);
          return;
        }
        // Destination unreachable: hold the envelope and retry with
        // exponential backoff, modelling disconnection management at the
        // deputy.  Retries that would land past the deadline are dropped —
        // the give-up event reports the failure at the deadline itself.
        const sim::SimTime delay = state->interval;
        state->interval = state->interval + state->interval;
        if (platform.simulator().now() + delay >= state->deadline) return;
        state->counted = true;
        ++queued_;
        platform.simulator().schedule(
            delay, [this, &platform, state]() mutable {
              if (state->counted) {
                state->counted = false;
                --queued_;
              }
              attempt(platform, state);
            });
      });
}

void TranscodingDeputy::deliver(AgentPlatform& platform, net::NodeId src_node,
                                net::NodeId dest_node,
                                const Envelope& envelope,
                                net::Network::DeliveryCallback done) {
  std::uint64_t bytes = envelope.wire_size();
  // Inspect the first hop the route would take; a thin channel triggers
  // payload transcoding before transmission.
  auto route = net::cached_shortest_path(platform.network(), src_node,
                                         dest_node);
  if (route.size() >= 2) {
    const net::LinkClass* link =
        platform.network().link_between(route[0], route[1]);
    if (link != nullptr && link->bandwidth_bps < threshold_bps_) {
      const auto header = bytes - envelope.payload.size();
      const auto shrunk = static_cast<std::uint64_t>(
          static_cast<double>(envelope.payload.size()) * shrink_factor_);
      bytes = header + shrunk;
      ++transcoded_;
    }
  }
  platform.route_and_transmit(src_node, dest_node, bytes,
                              envelope_budget(envelope), std::move(done));
}

}  // namespace pgrid::agent
