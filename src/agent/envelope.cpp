#include "agent/envelope.hpp"

namespace pgrid::agent {

std::string to_string(Performative performative) {
  switch (performative) {
    case Performative::kInform: return "inform";
    case Performative::kRequest: return "request";
    case Performative::kQueryRef: return "query-ref";
    case Performative::kAdvertise: return "advertise";
    case Performative::kUnadvertise: return "unadvertise";
    case Performative::kPropose: return "propose";
    case Performative::kAcceptProposal: return "accept-proposal";
    case Performative::kRejectProposal: return "reject-proposal";
    case Performative::kSubscribe: return "subscribe";
    case Performative::kFailure: return "failure";
    case Performative::kConfirm: return "confirm";
    case Performative::kCancel: return "cancel";
  }
  return "?";
}

Envelope make_reply(const Envelope& original, Performative performative,
                    std::string payload) {
  Envelope reply;
  reply.sender = original.receiver;
  reply.receiver = original.sender;
  reply.performative = performative;
  reply.content_type = original.content_type;
  reply.ontology = original.ontology;
  reply.conversation_id = original.conversation_id;
  reply.in_reply_to = original.reply_with;
  reply.trace = original.trace;
  // The requester's delivery deadline is end-to-end: the reply leg spends
  // whatever remains of it.  Without this the reply travels on an unlimited
  // budget, which acked delivery caps at max_reroutes — a reply to a
  // still-waiting requester could be dropped permanently during an outage
  // instead of re-routing until the requester's own timeout.
  reply.deadline_us = original.deadline_us;
  reply.payload = std::move(payload);
  return reply;
}

}  // namespace pgrid::agent
