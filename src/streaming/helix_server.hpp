// Helix-like streaming server (paper §3.2).
//
// "The Real Servers including a Real Producer and a Helix Server provide
// a streaming service to real-player and windows media player."
//
// Producers register streams and push encoded blocks; players drive the
// RTSP state machine (DESCRIBE -> SETUP -> PLAY -> PAUSE/TEARDOWN) and
// receive the blocks as datagrams on their announced port. Per-stream
// fan-out is a simple copy loop — streaming distribution trees were never
// the paper's bottleneck claim.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "media/transcoder.hpp"
#include "streaming/rtsp.hpp"
#include "transport/datagram_socket.hpp"
#include "transport/stream.hpp"

namespace gmmcs::streaming {

class HelixServer {
 public:
  static constexpr std::uint16_t kRtspPort = 554;

  explicit HelixServer(sim::Host& host, std::uint16_t port = kRtspPort);

  /// Registers a stream (usually called by the Real producer).
  /// `description` is served to DESCRIBE requests.
  void register_stream(const std::string& name, std::string description);
  void unregister_stream(const std::string& name);
  /// Pushes one encoded block into a stream; fans out to playing clients.
  void push_block(const std::string& name, const media::EncodedBlock& block);

  [[nodiscard]] sim::Endpoint rtsp_endpoint() const { return listener_.local(); }
  [[nodiscard]] std::vector<std::string> stream_names() const;
  [[nodiscard]] std::size_t playing_clients(const std::string& name) const;
  [[nodiscard]] std::uint64_t blocks_distributed() const { return distributed_; }

 private:
  enum class PlayerState { kInit, kReady, kPlaying };
  struct PlayerSession {
    std::string id;
    std::string stream;
    sim::Endpoint media_dst{};
    PlayerState state = PlayerState::kInit;
  };
  struct Stream {
    std::string description;
    std::uint64_t blocks = 0;
  };

  void accept(transport::StreamConnectionPtr conn);
  RtspMessage handle(const RtspMessage& req);

  sim::Host* host_;
  transport::StreamListener listener_;
  transport::DatagramSocket media_out_;
  std::vector<transport::StreamConnectionPtr> conns_;
  std::map<std::string, Stream> streams_;
  std::map<std::string, PlayerSession> sessions_;  // by RTSP session id
  IdGenerator session_ids_;
  std::uint64_t distributed_ = 0;
};

}  // namespace gmmcs::streaming
