// Envelope: the meta-level message wrapper of the Ronin agent framework.
//
// From the paper (Section 2): "The messages that are interchanged between
// Ronin Agents are embedded within Envelope objects during the delivery
// process. This meta-level approach allows Ronin Agents to interchange
// messages with arbitrary content message types under a uniform
// communication infrastructure. Within each Envelope object, the type of
// content message and the ontology identifier of the content message are
// also stored."
#pragma once

#include <cstdint>
#include <string>

namespace pgrid::agent {

using AgentId = std::uint32_t;
inline constexpr AgentId kInvalidAgent = 0xffffffffu;

/// Speech-act performative (ACL-independent subset sufficient for the
/// discovery/composition protocols; the envelope carries it opaque to the
/// transport, exactly as Ronin prescribes).
enum class Performative {
  kInform,
  kRequest,
  kQueryRef,
  kAdvertise,
  kUnadvertise,
  kPropose,
  kAcceptProposal,
  kRejectProposal,
  kSubscribe,
  kFailure,
  kConfirm,
  kCancel,
};

std::string to_string(Performative performative);

/// The unit of agent communication.  `content_type` and `ontology` make the
/// payload self-describing; payload bytes are opaque to the platform.
struct Envelope {
  AgentId sender = kInvalidAgent;
  AgentId receiver = kInvalidAgent;
  Performative performative = Performative::kInform;
  std::string content_type;      ///< e.g. "text/kif", "pgrid/service-ad"
  std::string ontology;          ///< ontology identifier for the content
  std::uint64_t conversation_id = 0;
  std::uint64_t reply_with = 0;  ///< token the responder echoes
  std::uint64_t in_reply_to = 0;
  /// Telemetry trace this conversation's costs attribute to (0 = none).
  /// The platform re-establishes it while delivering, so the charge for
  /// every hop of a handheld->base->sensors/grid conversation lands on the
  /// same ledger row.  Replies inherit it (see make_reply).
  std::uint64_t trace = 0;
  /// Absolute simulated-time deadline in microseconds (0 = none).  The
  /// delivery budget: deputies stop retrying and acked delivery stops
  /// retransmitting once it passes.  Stamped by the platform's request()
  /// when the reliability layer is enabled.
  std::int64_t deadline_us = 0;
  std::string payload;

  /// Serialized size used to charge the network; fixed framing plus
  /// variable-length fields.
  std::uint64_t wire_size() const {
    constexpr std::uint64_t kFixedHeader = 48;
    return kFixedHeader + content_type.size() + ontology.size() +
           payload.size();
  }
};

/// Builds a reply envelope with sender/receiver swapped and reply tokens
/// threaded through.
Envelope make_reply(const Envelope& original, Performative performative,
                    std::string payload);

}  // namespace pgrid::agent
