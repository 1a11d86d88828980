// H.323 Gateway: terminates H.225 call signaling and H.245 control, joins
// callers into XGSP sessions and redirects their RTP to broker topics.
//
// Paper §3.2: the H.323 servers "translate H.225 and H.245 signaling from
// these endpoints into XGSP signaling messages, and redirect their RTP
// channels to the NaradaBrokering servers."
//
// Call flow handled here (caller side is H323Terminal):
//   Setup(conf-<id>)  ->  CallProceeding, Connect(h245 addr per call)
//   TCS               ->  TCS-Ack (+ gateway's own TCS)
//   MSD               ->  MSD-Ack
//   OLC(kind, recv)   ->  register recv addr on the topic's RtpProxy,
//                         OLC-Ack(media addr = proxy ingress)
//   CLC / EndSession / ReleaseComplete -> teardown + XGSP leave
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "broker/rtp_proxy.hpp"
#include "h323/messages.hpp"
#include "transport/stream.hpp"
#include "xgsp/session_server.hpp"

namespace gmmcs::h323 {

class H323Gateway {
 public:
  static constexpr std::uint16_t kCallSignalPort = 1720;

  H323Gateway(sim::Host& host, xgsp::SessionServer& sessions, sim::Endpoint broker_stream);

  [[nodiscard]] sim::Endpoint call_signal_endpoint() const { return q931_listener_.local(); }
  [[nodiscard]] std::size_t active_calls() const { return calls_.size(); }
  [[nodiscard]] std::uint64_t setups_handled() const { return setups_; }

 private:
  struct Bridge {
    std::map<std::string, std::unique_ptr<broker::RtpProxy>> proxies;
  };
  struct Call {
    std::uint64_t id = 0;
    std::string session_id;
    std::string caller_alias;
    std::uint16_t call_reference = 0;
    std::unique_ptr<transport::StreamListener> h245_listener;
    transport::StreamConnectionPtr q931;
    transport::StreamConnectionPtr h245;
    /// kind -> endpoint RTP receive address registered on the proxy.
    std::map<std::string, sim::Endpoint> receiver_regs;
  };

  void accept_q931(transport::StreamConnectionPtr conn);
  void handle_setup(const Q931Message& setup, transport::StreamConnectionPtr conn);
  void handle_h245(Call& call, const H245Message& m);
  /// Q.931 call references are scoped to their signaling connection, so
  /// calls are keyed by an internal id and torn down by (connection, CRV).
  void teardown(std::uint64_t call_id, bool send_release);
  std::uint64_t find_call(const transport::StreamConnection* q931,
                          std::uint16_t call_reference) const;
  Bridge& bridge_for(const xgsp::Session& session);

  sim::Host* host_;
  xgsp::SessionServer* sessions_;
  sim::Endpoint broker_;
  transport::StreamListener q931_listener_;
  std::uint64_t next_call_id_ = 1;
  /// Accepted signaling connections, owned here until their peer closes.
  /// Handlers capture the raw pointer only: capturing the shared_ptr in the
  /// connection's own on_message would form a reference cycle and leak any
  /// connection that never reaches (or outlives) a call.
  std::map<const transport::StreamConnection*, transport::StreamConnectionPtr> q931_conns_;
  std::map<std::uint64_t, std::unique_ptr<Call>> calls_;  // by internal call id
  std::map<std::string, Bridge> bridges_;                 // by session id
  std::uint64_t setups_ = 0;
};

}  // namespace gmmcs::h323
