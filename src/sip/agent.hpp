// SIP transaction/transport layer over reliable streams.
//
// One SipAgent per SIP element (UA, proxy, registrar, gateway, chat
// server): it listens on a port, keeps persistent links to peers, sends
// requests with response correlation (Call-ID + CSeq), and hands inbound
// requests to the element with a responder bound to the originating link.
// Stream transport means TCP-profile SIP: no retransmission timers, which
// is the profile the real Global-MMCS servers ran among themselves.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sip/message.hpp"
#include "transport/stream.hpp"

namespace gmmcs::sip {

/// Contact address in our simulated addressing: "sim:<node>:<port>".
std::string make_contact(sim::Endpoint ep);
[[nodiscard]] Result<sim::Endpoint> parse_contact(const std::string& contact);

class SipAgent {
 public:
  static constexpr std::uint16_t kSipPort = 5060;

  using ResponseHandler = std::function<void(const SipMessage&)>;
  /// Sends a response back over the link the request arrived on.
  using Responder = std::function<void(const SipMessage&)>;
  using RequestHandler = std::function<void(const SipMessage&, const Responder&)>;

  SipAgent(sim::Host& host, std::uint16_t port);

  /// Sends a request; `on_response` fires for every response to it
  /// (provisional and final) and is retired on the final one.
  void send_request(sim::Endpoint target, SipMessage request, ResponseHandler on_response);
  /// Fire-and-forget request (ACK).
  void send_request(sim::Endpoint target, SipMessage request);

  void on_request(RequestHandler handler);

  [[nodiscard]] sim::Endpoint endpoint() const { return listener_.local(); }
  [[nodiscard]] sim::Host& host() const { return *host_; }
  [[nodiscard]] std::uint64_t requests_sent() const { return requests_sent_; }
  [[nodiscard]] std::uint64_t requests_received() const { return requests_received_; }

  /// Fresh Call-ID / CSeq helpers for user agents.
  std::string new_call_id();
  std::uint32_t next_cseq() { return next_cseq_++; }

 private:
  transport::StreamConnectionPtr link_to(sim::Endpoint target);
  void handle_message(transport::StreamConnection* from, const Payload& data);
  static std::string transaction_key(const SipMessage& m);

  sim::Host* host_;
  transport::StreamListener listener_;
  std::map<sim::Endpoint, transport::StreamConnectionPtr> out_links_;
  std::vector<transport::StreamConnectionPtr> in_links_;
  std::map<std::string, ResponseHandler> pending_;
  RequestHandler request_handler_;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t requests_received_ = 0;
  std::uint64_t call_id_counter_ = 0;
  std::uint32_t next_cseq_ = 1;
};

}  // namespace gmmcs::sip
