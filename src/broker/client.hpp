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
/// keepalive miss, connect timeout) the client retries with exponential
/// backoff plus jitter, re-sends its Hello and replays its subscription
/// set. Disabled by default — a fault-free run schedules no extra events,
/// keeping existing bench outputs byte-identical.
struct ReconnectPolicy {
  bool enabled = false;
  /// First retry delay; doubles per consecutive failure up to backoff_max.
  SimDuration backoff_base = duration_ms(100);
  SimDuration backoff_max = duration_s(5);
  /// Uniform +-fraction applied to each delay (decorrelates clients that
  /// lost the same broker).
  double jitter = 0.25;
  /// A connect attempt not established within this window counts as
  /// failed and re-enters backoff.
  SimDuration connect_timeout = duration_ms(500);
  /// Stream-level SYN retransmission interval while connecting (see
  /// transport::ConnectOptions): recovers a handshake whose SYN or SYN-ACK
  /// was eaten by a one-way cut or a briefly-dead broker host without
  /// waiting out the full connect_timeout + backoff round trip. 0 keeps
  /// the historical behavior (the watchdog alone owns the handshake).
  SimDuration syn_retry{0};
  int syn_retries = 3;
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
    /// Keepalive pings on the control stream every interval; the broker is
    /// declared dead after keepalive_miss silent intervals. 0 disables
    /// (the default: no extra frames or timers in fault-free runs).
    SimDuration keepalive_interval{0};
    int keepalive_miss = 3;
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
  /// Fires when the control stream is declared dead (before backoff).
  void on_disconnect(std::function<void()> handler);
  /// Fires after a successful re-handshake (subscriptions replayed).
  void on_reconnect(std::function<void()> handler);

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] ClientId id() const { return client_id_; }
  [[nodiscard]] std::uint64_t events_received() const { return events_received_; }
  [[nodiscard]] std::uint64_t events_published() const { return events_published_; }
  /// Times the control stream was declared dead / successfully re-established.
  [[nodiscard]] std::uint64_t disconnects() const { return disconnects_; }
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }
  /// Publishes still queued behind an incomplete handshake (0 once ready;
  /// the chaos oracle's stuck-stream check).
  [[nodiscard]] std::size_t pending_publishes() const { return pending_.size(); }
  [[nodiscard]] sim::Host& host() const { return *host_; }

 private:
  void handle_frame(const Payload& data);
  void flush_queue();
  /// (Re)opens the control stream and sends Hello.
  void open_stream();
  /// Declares the control stream dead and enters backoff (idempotent
  /// while a retry is already pending).
  void stream_down();
  void schedule_retry();
  void attempt_connect();
  void keepalive_tick();
  void cancel_connect_timer();

  sim::Host* host_;
  Config cfg_;
  sim::Endpoint broker_stream_{};
  transport::StreamConnectionPtr stream_;
  std::optional<transport::DatagramSocket> udp_;
  sim::Endpoint broker_udp_{};
  ClientId client_id_ = 0;
  bool ready_ = false;
  std::uint32_t next_seq_ = 0;
  std::uint64_t events_received_ = 0;
  std::uint64_t events_published_ = 0;
  Fifo<Event> pending_;
  /// Decode target for every received kEvent (see handle_frame).
  Event rx_event_;
  /// Live subscription set, replayed after every re-handshake.
  std::vector<std::string> filters_;
  // Self-healing state (all inert unless reconnect/keepalive enabled).
  std::uint64_t hello_acks_ = 0;
  std::uint64_t disconnects_ = 0;
  std::uint64_t reconnects_ = 0;
  int attempt_ = 0;             // consecutive failed connect attempts
  bool retry_pending_ = false;  // a backoff timer is armed
  std::uint64_t conn_generation_ = 0;
  sim::TaskId retry_timer_ = 0;
  sim::TaskId connect_timer_ = 0;
  std::unique_ptr<sim::PeriodicTask> keepalive_task_;
  SimTime last_heard_{};
  Rng jitter_rng_;
  std::function<void(const Event&)> event_handler_;
  std::function<void()> ready_handler_;
  std::function<void()> disconnect_handler_;
  std::function<void()> reconnect_handler_;
};

}  // namespace gmmcs::broker
