// Simulated H.323 terminal: the client side of the paper's "H.323
// terminals" access path.
//
// Runs the full stack against the gatekeeper and gateway: GRQ discovery,
// RRQ registration, ARQ admission, Q.931 Setup/Connect, H.245 capability
// exchange and logical-channel opening. After call() succeeds the caller
// has, per media kind, the address to send RTP to (the gateway's topic
// proxy) and has told the gateway where it wants to receive.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "h323/messages.hpp"
#include "transport/datagram_socket.hpp"
#include "transport/stream.hpp"

namespace gmmcs::h323 {

class H323Terminal {
 public:
  H323Terminal(sim::Host& host, std::string alias, sim::Endpoint gatekeeper_ras);

  /// Gatekeeper discovery (GRQ/GCF).
  void discover(std::function<void(bool)> cb);
  /// Registration (RRQ/RCF).
  void register_endpoint(std::function<void(bool)> cb);

  struct MediaPlan {
    std::string kind;            // "audio" | "video"
    std::uint8_t payload_type = 0;
    sim::Endpoint receive_rtp;   // where this terminal wants its RTP
  };
  /// Result of a successful call: kind -> address to send RTP to.
  using MediaTargets = std::map<std::string, sim::Endpoint>;

  /// Places a call to an alias (conference aliases route via the gateway).
  /// `bandwidth` in H.225 units of 100 bit/s.
  void call(const std::string& destination_alias, std::uint32_t bandwidth,
            std::vector<MediaPlan> media, std::function<void(bool, const MediaTargets&)> cb);
  /// Ends the active call (H.245 EndSession + Q.931 ReleaseComplete + DRQ).
  void hangup(std::function<void(bool)> cb);
  /// Renegotiates the admitted bandwidth mid-call (BRQ/BCF); cb(granted).
  void change_bandwidth(std::uint32_t new_bandwidth, std::function<void(bool)> cb);

  [[nodiscard]] const std::string& alias() const { return alias_; }
  [[nodiscard]] bool registered() const { return registered_; }
  [[nodiscard]] bool in_call() const { return static_cast<bool>(q931_); }
  [[nodiscard]] const std::string& last_reject_reason() const { return last_reject_; }

 private:
  void send_ras(RasMessage m, std::function<void(const RasMessage&)> on_reply);
  void start_signaling(sim::Endpoint call_signal, std::vector<MediaPlan> media,
                       std::function<void(bool, const MediaTargets&)> cb);
  void start_h245(sim::Endpoint h245_address);
  void handle_h245(const H245Message& m);
  void finish_call(bool ok);

  sim::Host* host_;
  std::string alias_;
  sim::Endpoint gatekeeper_;
  transport::DatagramSocket ras_;
  std::map<std::uint32_t, std::function<void(const RasMessage&)>> ras_pending_;
  std::uint32_t ras_seq_ = 1;
  std::uint16_t next_call_ref_ = 1;
  bool registered_ = false;
  std::string last_reject_;
  std::string dest_alias_;

  // Active-call state.
  transport::StreamConnectionPtr q931_;
  transport::StreamConnectionPtr h245_;
  std::vector<MediaPlan> pending_media_;
  MediaTargets targets_;
  std::size_t channels_open_ = 0;
  std::uint16_t call_ref_ = 0;
  std::function<void(bool, const MediaTargets&)> call_cb_;
};

}  // namespace gmmcs::h323
