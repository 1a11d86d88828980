// TCP-like reliable, ordered, message-oriented streams over the simulator.
//
// Broker control links, SOAP/HTTP, SIP, RTSP and H.323 call signaling all
// run over these. The abstraction is message-oriented (each send() arrives
// as one on_message()) because every protocol in this system frames its
// messages anyway; the underlying simulated segments are marked `reliable`
// so they are exempt from random loss but still pay NIC serialization and
// queueing like everything else.
//
// Addressing mirrors real TCP: the connector binds an ephemeral port, the
// acceptor stays on the listener's well-known port, and the listener
// demultiplexes inbound segments by the client endpoint. Keeping the
// 4-tuple constant is what lets the stateful Firewall model admit reply
// traffic exactly like a real firewall admits established TCP flows.
#pragma once

#include <functional>
#include <memory>

#include "common/bytes.hpp"
#include "common/fifo.hpp"
#include "common/open_index.hpp"
#include "common/payload.hpp"
#include "sim/network.hpp"
#include "sim/slot_pool.hpp"

namespace gmmcs::transport {

class StreamConnection;
class StreamListener;
using StreamConnectionPtr = std::shared_ptr<StreamConnection>;

/// Settings of a connection's idle detector (see StreamConnection::watch).
/// A zero interval, the default, is off: the connection schedules nothing.
struct IdleConfig {
  /// Silence after which the connection probes its far end, and the time
  /// each probe is given to be answered.
  SimDuration interval{0};
  /// Unanswered probes in a row after which the connection reports itself
  /// dead.
  int misses = 3;
};

/// One end of an established (or connecting) stream. Hold the shared_ptr
/// for as long as the connection should live; dropping the last reference
/// closes it.
class StreamConnection {
 public:
  ~StreamConnection();
  StreamConnection(const StreamConnection&) = delete;
  StreamConnection& operator=(const StreamConnection&) = delete;

  /// Queues a message; delivered reliably and in order. Messages sent
  /// before the handshake completes are buffered. The payload handle is
  /// shared, never copied: the kData segment byte goes into the headroom
  /// of a FrameWriter-built frame. A message without free headroom (an
  /// adopted vector, a slice from inside a frame) is framed by a counted
  /// copy (Payload::prepend).
  void send(Payload message);
  /// Sends the text as one FrameWriter-built frame.
  void send(std::string_view text);

  using MessageHandler = std::function<void(const Payload&)>;

  /// Receive callback; replaces any previous one. Messages that arrived
  /// before a handler was set are replayed to the new handler. The message
  /// is a zero-copy slice of the arriving segment. A handler may replace
  /// itself: it keeps running, intact, until it returns.
  void on_message(MessageHandler handler);
  /// Called once when the peer closes or the connection fails.
  void on_close(std::function<void()> handler);
  /// Called once when the handshake completes (connector side; acceptor
  /// connections are born established).
  void on_connect(std::function<void()> handler);

  /// Called with false when a watched connection goes dead, and with true
  /// when it hears its far end again.
  using LivenessHandler = std::function<void(bool alive)>;
  /// Starts the idle detector; a no-op when cfg.interval is zero. After
  /// an interval in which no data arrived, the connection sends a probe
  /// segment that the far end's transport answers (while still
  /// connecting, the probe is the SYN). Once cfg.misses probes in a row go
  /// unanswered it reports itself dead, and it keeps probing: the next
  /// answer or data segment reports it alive. The handler may close the
  /// connection. Closing stops the detector.
  void watch(IdleConfig cfg, LivenessHandler handler);

  void close();

  [[nodiscard]] bool established() const { return state_ == State::kOpen; }
  [[nodiscard]] bool closed() const { return state_ == State::kClosed; }
  [[nodiscard]] sim::Endpoint local() const { return local_; }
  [[nodiscard]] sim::Endpoint remote() const { return remote_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_received() const { return received_; }
  /// Data segments this end sent that its host refused (a full NIC queue,
  /// or the host down). Each one is a message lost: there is no
  /// retransmission yet.
  [[nodiscard]] std::uint64_t segments_dropped() const { return segments_dropped_; }
  /// SYN, SYN-ACK and FIN segments this end's host refused (see
  /// send_control).
  [[nodiscard]] std::uint64_t control_segments_dropped() const { return control_dropped_; }

  /// Initiates a connection to a listener at `to`. The returned connection
  /// buffers sends until established; use on_connect() to sequence logic.
  /// Only a watched connection (see watch) retransmits its SYN.
  static StreamConnectionPtr connect(sim::Host& from, sim::Endpoint to);

 private:
  friend class StreamListener;
  enum class State : std::uint8_t { kConnecting, kOpen, kClosed };

  StreamConnection(sim::Host& host, State state);
  /// The deleter of every StreamConnectionPtr (an empty type, so the
  /// control block stays 24 B). A connection whose last owner lets go
  /// while handle() or an inbox replay is on the stack (a callback dropped
  /// it) is only marked orphaned, and unpin() destroys it once that frame
  /// returns. This pins the connection through its callbacks without a
  /// shared_ptr copy, whose count is atomic.
  struct Release {
    void operator()(StreamConnection* conn) const;
  };
  /// A new connection in its StreamConnectionPtr.
  static StreamConnectionPtr make(sim::Host& host, State state);
  /// Ends a frame that pinned the connection with ++pins_, destroying the
  /// connection if its last owner let go meanwhile. Touch no member after.
  void unpin();

  /// A handler set while another one runs, parked on the heap until no
  /// handler is running (see on_message). `older` keeps the handlers it
  /// displaced alive: one of them may still be on the stack.
  struct ParkedHandler {
    MessageHandler fn;
    std::unique_ptr<ParkedHandler> older;
  };

  /// The handler a message goes to now: the newest parked one, if any.
  MessageHandler& current_handler() { return parked_ ? parked_->fn : message_handler_; }
  /// Runs the current handler on `m`, pinned (see on_message).
  void dispatch(const Payload& m);
  void handle(const sim::Datagram& d);
  void handle_segment(const sim::Datagram& d);
  void deliver_or_buffer(Payload payload);
  /// Sends one kData segment, counting it in segments_dropped_ if refused.
  void send_segment(const Payload& message);
  /// Sends a one-byte control segment, counting it in control_dropped_ if
  /// refused.
  void send_control(std::uint8_t type);
  void do_close(bool notify_peer);
  void arm_idle();
  /// One detector interval elapsed: probe, or report the connection dead.
  void idle_tick();
  /// The far end answered a probe or the SYN, or sent data while the
  /// connection was dead.
  void heard();

  /// What only a connector end needs until its handshake completes: the
  /// connect handler and the sends made meanwhile. Made by connect() and
  /// freed once the connection opens or closes; an acceptor end is born
  /// established and never has one.
  struct Connecting {
    std::function<void()> connect_handler;
    Fifo<Payload> outbox;  // buffered until established
  };
  /// The idle detector's state, made by watch(): an unwatched connection
  /// never holds one.
  struct Idle {
    IdleConfig cfg;
    LivenessHandler handler;
    sim::TaskId timer = 0;
    std::uint64_t seen = 0;  // received_ at the last tick
    int missed = 0;          // probes sent since the far end was last heard
    bool dead = false;
  };

  sim::Host* host_;
  // The small fields below fill padding: a receiver holds two of these.
  State state_;
  /// Connector side owns an ephemeral port; acceptor side shares the
  /// listener's port and is demultiplexed by the listener.
  bool owns_port_ = false;
  bool orphaned_ = false;
  /// Message handlers running on the stack (nested only by an inbox
  /// replay inside a handler).
  std::uint16_t handler_depth_ = 0;
  /// Frames on the stack that pin this connection (see Release).
  std::uint16_t pins_ = 0;
  sim::Endpoint local_{};
  sim::Endpoint remote_{};
  StreamListener* owner_ = nullptr;  // acceptor side: for demux cleanup
  /// Held by value. It is never moved or destroyed while it runs: a
  /// replacement set meanwhile is parked in parked_ and moved in here
  /// once no handler is running, the way Host::deliver frees a running
  /// port slot only after its handler returns.
  MessageHandler message_handler_;
  std::unique_ptr<ParkedHandler> parked_;
  std::function<void()> close_handler_;
  std::unique_ptr<Connecting> connecting_;
  std::unique_ptr<Idle> idle_;
  Fifo<Payload> inbox_;  // buffered until a handler is set
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t segments_dropped_ = 0;
  std::uint32_t owner_slot_ = 0;  // acceptor side: our slot in owner_
  std::uint32_t control_dropped_ = 0;
};

/// Accepts incoming stream connections on a fixed port and demultiplexes
/// segments of accepted connections by client endpoint.
class StreamListener {
 public:
  /// port 0 picks any free listening port (see local()).
  StreamListener(sim::Host& host, std::uint16_t port);
  ~StreamListener();
  StreamListener(const StreamListener&) = delete;
  StreamListener& operator=(const StreamListener&) = delete;

  /// Called with each newly accepted (already established) connection.
  /// The handler must keep the pointer or the connection dies.
  void on_accept(std::function<void(StreamConnectionPtr)> handler);

  [[nodiscard]] sim::Endpoint local() const { return {host_->id(), port_}; }
  [[nodiscard]] std::uint64_t accepted() const { return accepted_; }
  [[nodiscard]] std::size_t active() const { return index_.size(); }

 private:
  friend class StreamConnection;
  void handle(const sim::Datagram& d);
  /// Drops the closed connection in `slot` (its client is `client`).
  void forget(sim::Endpoint client, std::uint32_t slot);

  sim::Host* host_;
  std::uint16_t port_;
  std::function<void(StreamConnectionPtr)> handler_;
  std::uint64_t accepted_ = 0;
  /// The accepted connections still open, each in a slot, and an index
  /// from client endpoint to slot: a segment costs one probe. A closing
  /// connection forgets its slot (the slot is nulled), so every pointer
  /// here is live; the destructor walks the slots in order to detach the
  /// survivors.
  sim::SlotPool<StreamConnection*> conns_;
  OpenIndex index_;
};

}  // namespace gmmcs::transport
