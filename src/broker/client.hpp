// Broker client API: connect, subscribe, publish.
//
// Mirrors the client profiles the paper lists for NaradaBrokering (§2.3):
// a reliable stream (TCP) control channel for everyone, an optional UDP
// channel for media events in both directions, and connection through an
// HTTP proxy for clients behind firewalls.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/event.hpp"
#include "common/fifo.hpp"
#include "common/random.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "transport/datagram_socket.hpp"
#include "transport/firewall.hpp"
#include "transport/stream.hpp"

namespace gmmcs::broker {

/// Client self-healing policy: when the control stream dies (broker crash,
/// a cut path, a handshake nobody answers) the client retries with
/// exponential backoff plus jitter, re-sends its Hello and replays its
/// subscription set. Disabled by default — a fault-free run schedules no
/// extra events, keeping existing bench outputs byte-identical.
struct ReconnectPolicy {
  bool enabled = false;
  /// First retry delay; doubles per consecutive failure up to backoff_max.
  SimDuration backoff_base = duration_ms(100);
  SimDuration backoff_max = duration_s(5);
  /// Uniform +-fraction applied to each delay (decorrelates clients that
  /// lost the same broker).
  double jitter = 0.25;
  /// The control stream's idle detector, run exactly when reconnect is
  /// enabled: the stream is declared dead after `misses` unanswered
  /// probes. While connecting the probe is the SYN, so the defaults give a
  /// handshake 500 ms (a SYN every 100 ms) before it counts as failed.
  transport::IdleConfig idle{duration_ms(100), 5};
};

class BrokerClient {
 public:
  struct Config {
    std::string name = "client";
    /// Receive best-effort events over UDP (media path); reliable events
    /// always arrive on the stream.
    bool udp_delivery = true;
    /// Publish best-effort events over UDP rather than the stream.
    bool udp_publish = true;
    /// Tunnel the control stream through an HTTP proxy (firewalled
    /// clients). UDP channels are disabled in that case.
    std::optional<sim::Endpoint> via_proxy;
    ReconnectPolicy reconnect;
  };

  BrokerClient(sim::Host& host, sim::Endpoint broker_stream, Config cfg);
  /// Default configuration (UDP media channels, no proxy).
  BrokerClient(sim::Host& host, sim::Endpoint broker_stream);
  ~BrokerClient();
  BrokerClient(const BrokerClient&) = delete;
  BrokerClient& operator=(const BrokerClient&) = delete;

  void subscribe(const std::string& filter);
  void unsubscribe(const std::string& filter);
  /// Publishes an event; origin timestamp and the client's id are stamped
  /// here (the id lets the ingress broker adopt the frame verbatim for its
  /// fan-out). Events published before the handshake completes are queued.
  void publish(const std::string& topic, Payload payload, QoS qos = QoS::kBestEffort);

  /// The event passed to the handler is client-owned storage, reused for
  /// the next event: it is valid until the handler returns or the client
  /// is destroyed, whichever comes first.
  void on_event(std::function<void(const Event&)> handler);
  /// Fires once the broker has acknowledged the Hello.
  void on_ready(std::function<void()> handler);
  /// Fires when the control stream closes or is declared dead (before
  /// backoff), with or without reconnect.
  void on_disconnect(std::function<void()> handler);
  /// Fires after a successful re-handshake (subscriptions replayed).
  void on_reconnect(std::function<void()> handler);

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] ClientId id() const { return client_id_; }
  [[nodiscard]] std::uint64_t events_received() const { return events_received_; }
  [[nodiscard]] std::uint64_t events_published() const { return events_published_; }
  /// Times the control stream was lost / successfully re-established
  /// (counted once the cold block exists).
  [[nodiscard]] std::uint64_t disconnects() const { return cold_ ? cold_->disconnects : 0; }
  [[nodiscard]] std::uint64_t reconnects() const { return cold_ ? cold_->reconnects : 0; }
  /// Publishes dropped because the control stream closed for good
  /// (reconnect off): they are not queued, so nothing grows.
  [[nodiscard]] std::uint64_t publishes_dropped() const {
    return cold_ ? cold_->publishes_dropped : 0;
  }
  /// Publishes still queued behind an incomplete handshake (0 once ready;
  /// the chaos oracle's stuck-stream check).
  [[nodiscard]] std::size_t pending_publishes() const { return pending_.size(); }
  [[nodiscard]] sim::Host& host() const { return *host_; }
  /// True once the client holds its cold block (see Cold): from
  /// construction with reconnect on, else from the first lifecycle
  /// handler or dropped publish. Tells footprint tests what a receiver
  /// costs.
  [[nodiscard]] bool holds_cold_state() const { return cold_ != nullptr; }

 private:
  /// State only a self-healing or observed client needs: the reconnect
  /// machinery, the subscription set it replays, and the lifecycle
  /// handlers. Made by the constructor when reconnect is enabled, or by
  /// the first on_ready/on_disconnect/on_reconnect or dropped publish; a
  /// plain media receiver never holds one.
  struct Cold {
    ReconnectPolicy reconnect;
    /// Live subscription set, replayed after every re-handshake; kept
    /// only when reconnect is enabled (nothing else reads it).
    std::vector<std::string> filters;
    std::uint64_t disconnects = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t publishes_dropped = 0;
    int attempt = 0;             // consecutive failed connect attempts
    bool retry_pending = false;  // a backoff timer is armed
    sim::TaskId retry_timer = 0;
    Rng jitter_rng;
    std::function<void()> ready_handler;
    std::function<void()> disconnect_handler;
    std::function<void()> reconnect_handler;
  };

  /// The cold block, made on first use.
  Cold& cold();
  void handle_frame(const Payload& data);
  void flush_queue();
  /// (Re)opens the control stream and sends Hello.
  void open_stream();
  /// The control stream closed or its idle detector declared it dead:
  /// closes it and, with reconnect on, enters backoff (idempotent while a
  /// retry is already pending).
  void stream_down();
  void schedule_retry();
  void attempt_connect();
  [[nodiscard]] bool reconnect_enabled() const { return cold_ && cold_->reconnect.enabled; }

  sim::Host* host_;
  transport::StreamConnectionPtr stream_;
  std::optional<transport::DatagramSocket> udp_;
  sim::Endpoint broker_stream_{};
  sim::Endpoint broker_udp_{};
  ClientId client_id_ = 0;
  std::uint32_t next_seq_ = 0;
  bool ready_ = false;
  /// A HelloAck has arrived before: the next one is a re-handshake.
  bool acked_ = false;
  bool udp_delivery_;
  bool udp_publish_;
  std::optional<sim::Endpoint> via_proxy_;
  std::uint64_t events_received_ = 0;
  std::uint64_t events_published_ = 0;
  std::string name_;
  Fifo<Event> pending_;
  /// Decode target for every received kEvent (see handle_frame).
  Event rx_event_;
  std::function<void(const Event&)> event_handler_;
  std::unique_ptr<Cold> cold_;
};

}  // namespace gmmcs::broker
