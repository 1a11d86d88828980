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

/// Handshake behavior for StreamConnection::connect.
struct ConnectOptions {
  /// SYN retransmission interval while the handshake is outstanding.
  /// Zero disables the timer entirely (the historical behavior: a SYN
  /// into a dead host parks the connection until the caller's own
  /// watchdog gives up on it).
  SimDuration syn_retry{0};
  /// Retransmissions after the initial SYN before the connection gives up
  /// and closes itself (firing on_close, so reconnect policies see a
  /// normal failure).
  int max_syn_retries = 5;
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

  /// Initiates a connection to a listener at `to`. The returned connection
  /// buffers sends until established; use on_connect() to sequence logic.
  /// With opts.syn_retry > 0 the SYN is retransmitted until answered —
  /// covering a lost SYN or SYN-ACK, and a listener host that restarts
  /// while the handshake is in flight — and the connection closes itself
  /// after max_syn_retries unanswered attempts.
  static StreamConnectionPtr connect(sim::Host& from, sim::Endpoint to,
                                     ConnectOptions opts = {});

 private:
  friend class StreamListener;
  enum class State { kConnecting, kOpen, kClosed };

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
  void flush_pending();
  /// Sends one kData segment, counting it in segments_dropped_ if refused.
  void send_segment(const Payload& message);
  void do_close(bool notify_peer);
  void arm_syn_timer();
  void cancel_syn_timer();

  sim::Host* host_;
  State state_;
  /// Message handlers running on the stack (nested only by an inbox
  /// replay inside a handler).
  std::uint32_t handler_depth_ = 0;
  sim::Endpoint local_{};
  sim::Endpoint remote_{};
  // The small fields below fill padding: a receiver holds two of these.
  /// Connector side owns an ephemeral port; acceptor side shares the
  /// listener's port and is demultiplexed by the listener.
  bool owns_port_ = false;
  bool orphaned_ = false;
  /// Frames on the stack that pin this connection (see Release).
  std::uint32_t pins_ = 0;
  StreamListener* owner_ = nullptr;  // acceptor side: for demux cleanup
  /// Held by value. It is never moved or destroyed while it runs: a
  /// replacement set meanwhile is parked in parked_ and moved in here
  /// once no handler is running, the way Host::deliver frees a running
  /// port slot only after its handler returns.
  MessageHandler message_handler_;
  std::unique_ptr<ParkedHandler> parked_;
  std::function<void()> close_handler_;
  std::function<void()> connect_handler_;
  Fifo<Payload> outbox_;  // buffered until established
  Fifo<Payload> inbox_;   // buffered until a handler is set
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t segments_dropped_ = 0;
  ConnectOptions opts_;
  sim::TaskId syn_timer_ = 0;
  int syn_attempts_ = 0;
  std::uint32_t owner_slot_ = 0;  // acceptor side: our slot in owner_
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

  static std::uint64_t key(sim::Endpoint ep) {
    return (std::uint64_t{ep.node} << 16) | ep.port;
  }

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
