// Streaming player: the Real/Windows-Media-player analog.
//
// Drives the RTSP client state machine against the Helix server and
// measures playback quality: startup latency (first block after PLAY),
// received blocks/bytes, and playout-buffer underruns under a simple
// fixed-delay playout model.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "streaming/rtsp.hpp"
#include "transport/datagram_socket.hpp"
#include "transport/stream.hpp"

namespace gmmcs::streaming {

class StreamingPlayer {
 public:
  struct Config {
    /// Playout buffering: a block with timestamp t plays at
    /// first_block_arrival + buffer_delay + (t - first_t)/clock_rate.
    SimDuration buffer_delay = duration_ms(2000);
    std::uint32_t clock_rate = 90000;
  };

  StreamingPlayer(sim::Host& host, sim::Endpoint rtsp_server, Config cfg);
  /// Default configuration (2 s playout buffer, 90 kHz clock).
  StreamingPlayer(sim::Host& host, sim::Endpoint rtsp_server);

  /// Runs DESCRIBE -> SETUP -> PLAY for a stream; cb(success).
  void play(const std::string& stream_name, std::function<void(bool)> cb);
  void pause(std::function<void(bool)> cb);
  void teardown(std::function<void(bool)> cb);

  [[nodiscard]] const std::string& description() const { return description_; }
  [[nodiscard]] std::uint64_t blocks_received() const { return blocks_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_; }
  /// Delay between PLAY being acknowledged and the first media block.
  [[nodiscard]] std::optional<SimDuration> startup_latency() const { return startup_; }
  /// Blocks that arrived after their playout deadline (would stutter).
  [[nodiscard]] std::uint64_t late_blocks() const { return late_; }
  [[nodiscard]] bool playing() const { return playing_; }

 private:
  void send(RtspMessage req, std::function<void(const RtspMessage&)> on_resp);
  void on_media(const sim::Datagram& d);

  sim::Host* host_;
  Config cfg_;
  std::string server_host_;
  transport::StreamConnectionPtr rtsp_;
  transport::DatagramSocket media_in_;
  std::deque<std::function<void(const RtspMessage&)>> pending_;
  int next_cseq_ = 1;
  std::string session_id_;
  std::string stream_;
  bool playing_ = false;
  SimTime play_acked_at_;
  std::uint64_t blocks_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t late_ = 0;
  std::optional<SimDuration> startup_;
  std::optional<SimTime> first_arrival_;
  std::optional<std::uint32_t> first_ts_;
  std::string description_;
};

}  // namespace gmmcs::streaming
