#include "transport/stream.hpp"

#include <utility>

namespace gmmcs::transport {

namespace {
// Segment types on the wire.
constexpr std::uint8_t kSyn = 1;
constexpr std::uint8_t kSynAck = 2;
constexpr std::uint8_t kData = 3;
constexpr std::uint8_t kFin = 4;
}  // namespace

StreamConnection::StreamConnection(sim::Host& host, State state)
    : host_(&host), state_(state) {}

StreamConnectionPtr StreamConnection::make(sim::Host& host, State state) {
  return StreamConnectionPtr(new StreamConnection(host, state), Release{});
}

void StreamConnection::Release::operator()(StreamConnection* conn) const {
  if (conn->pins_ > 0) {
    conn->orphaned_ = true;
  } else {
    delete conn;
  }
}

void StreamConnection::unpin() {
  if (--pins_ == 0 && orphaned_) delete this;
}

StreamConnection::~StreamConnection() {
  close_handler_ = nullptr;  // never call back out into user code from a destructor
  if (state_ != State::kClosed) do_close(/*notify_peer=*/true);
}

StreamConnectionPtr StreamConnection::connect(sim::Host& from, sim::Endpoint to,
                                              ConnectOptions opts) {
  auto conn = make(from, State::kConnecting);
  conn->remote_ = to;
  conn->owns_port_ = true;
  conn->connecting_ = std::make_unique<Connecting>();
  conn->connecting_->opts = opts;
  std::uint16_t port = from.bind_ephemeral(
      [raw = conn.get()](const sim::Datagram& d) { raw->handle(d); });
  conn->local_ = sim::Endpoint{from.id(), port};
  conn->send_control(kSyn);
  conn->arm_syn_timer();
  return conn;
}

void StreamConnection::arm_syn_timer() {
  Connecting& c = *connecting_;
  if (c.opts.syn_retry.ns() <= 0) return;
  // The raw `this` capture is safe: every path that destroys, opens or
  // closes the connection cancels the timer first.
  c.syn_timer = host_->loop().schedule_after(c.opts.syn_retry, [this] {
    Connecting& c = *connecting_;
    c.syn_timer = 0;
    if (c.syn_attempts >= c.opts.max_syn_retries) {
      do_close(/*notify_peer=*/false);  // handshake gave up: surface on_close
      return;
    }
    ++c.syn_attempts;
    send_control(kSyn);
    arm_syn_timer();
  });
}

void StreamConnection::cancel_syn_timer() {
  if (connecting_ && connecting_->syn_timer != 0) {
    host_->loop().cancel(connecting_->syn_timer);
    connecting_->syn_timer = 0;
  }
}

void StreamConnection::handle(const sim::Datagram& d) {
  // Pinned through the callbacks below, which may drop our last owner.
  ++pins_;
  handle_segment(d);
  unpin();
}

void StreamConnection::handle_segment(const sim::Datagram& d) {
  if (d.payload.empty() || d.src != remote_) return;
  switch (d.payload[0]) {
    case kSynAck:
      if (state_ == State::kConnecting) {
        state_ = State::kOpen;
        cancel_syn_timer();
        // The block goes here, before the handler runs: a connection
        // opens once, and the handler may close it.
        const std::unique_ptr<Connecting> c = std::move(connecting_);
        while (!c->outbox.empty()) send_segment(c->outbox.pop());
        if (c->connect_handler) c->connect_handler();
      }
      break;
    case kSyn:
      // Acceptor side: our SYN-ACK was lost (or is still in flight) and the
      // connector retransmitted. Re-acknowledge so the handshake completes.
      if (state_ == State::kOpen && !owns_port_) send_control(kSynAck);
      break;
    case kData:
      if (state_ == State::kClosed) break;
      ++received_;
      // Zero-copy: the delivered message is a slice of the arriving
      // segment, sharing the sender's block.
      deliver_or_buffer(d.payload.slice(1));
      break;
    case kFin:
      if (state_ != State::kClosed) do_close(/*notify_peer=*/false);
      break;
    default:
      break;  // unknown segment: drop
  }
}

void StreamConnection::dispatch(const Payload& m) {
  ++handler_depth_;
  current_handler()(m);
  // Once no handler is running, the newest parked replacement moves in
  // and the handlers it displaced die.
  if (--handler_depth_ == 0 && parked_) {
    message_handler_ = std::move(parked_->fn);
    parked_.reset();
  }
}

void StreamConnection::deliver_or_buffer(Payload payload) {
  if (current_handler()) {
    dispatch(payload);
  } else {
    inbox_.push(std::move(payload));
  }
}

void StreamConnection::send(Payload message) {
  if (state_ == State::kClosed) return;
  if (state_ == State::kConnecting) {
    connecting_->outbox.push(std::move(message));
    return;
  }
  send_segment(message);
}

void StreamConnection::send(std::string_view text) {
  FrameWriter w(text.size());
  w.str(text);
  send(w.take());
}

void StreamConnection::send_control(std::uint8_t type) {
  // Nothing here retransmits a refused control segment: a SYN is retried
  // by the SYN timer if one is armed, a SYN-ACK answers the connector's
  // retried SYN, and a lost FIN leaves the peer to its own liveness
  // check. Count it.
  if (!host_->send(remote_, local_.port, Bytes{type}, /*reliable=*/true)) {
    ++control_dropped_;
  }
}

void StreamConnection::send_segment(const Payload& message) {
  ++sent_;
  // The kData byte lands in the frame's headroom: the segment shares the
  // message's block. Nothing retransmits yet: a segment the NIC drops is
  // lost, so count it.
  if (!host_->send(remote_, local_.port, message.prepend(kData), /*reliable=*/true)) {
    ++segments_dropped_;
  }
}

void StreamConnection::on_message(MessageHandler handler) {
  if (handler_depth_ == 0) {
    message_handler_ = std::move(handler);
  } else {
    // A handler is running (the proxy swaps in its relay handler after
    // the CONNECT line, say): it must stay where it is until it returns.
    parked_ = std::make_unique<ParkedHandler>(
        ParkedHandler{std::move(handler), std::move(parked_)});
  }
  if (!current_handler() || inbox_.empty()) return;
  // A replayed message's handler may drop the last owner of this
  // connection; stay alive until the replay loop is done with our members.
  ++pins_;
  while (current_handler() && !inbox_.empty()) dispatch(inbox_.pop());
  unpin();
}

void StreamConnection::on_close(std::function<void()> handler) {
  close_handler_ = std::move(handler);
  if (state_ == State::kClosed && close_handler_) close_handler_();
}

void StreamConnection::on_connect(std::function<void()> handler) {
  if (connecting_) {
    connecting_->connect_handler = std::move(handler);
  } else if (state_ == State::kOpen && handler) {
    handler();
  }
}

void StreamConnection::close() {
  if (state_ != State::kClosed) do_close(/*notify_peer=*/true);
}

void StreamConnection::do_close(bool notify_peer) {
  State prev = state_;
  state_ = State::kClosed;
  cancel_syn_timer();
  connecting_.reset();  // a handshake that never completed: drop its sends
  if (notify_peer && prev == State::kOpen) send_control(kFin);
  if (owns_port_) host_->unbind(local_.port);
  if (owner_ != nullptr) {
    owner_->forget(remote_, owner_slot_);
    owner_ = nullptr;
  }
  if (close_handler_) {
    auto h = close_handler_;
    h();
  }
}

namespace {
/// port 0 = "any free listening port": scan a conventional range.
std::uint16_t resolve_listen_port(sim::Host& host, std::uint16_t requested) {
  if (requested != 0) return requested;
  std::uint16_t p = 20000;
  while (host.is_bound(p)) ++p;
  return p;
}
}  // namespace

StreamListener::StreamListener(sim::Host& host, std::uint16_t port)
    : host_(&host), port_(resolve_listen_port(host, port)) {
  host_->bind(port_, [this](const sim::Datagram& d) { handle(d); });
}

StreamListener::~StreamListener() {
  host_->unbind(port_);
  // Detach surviving connections so their close doesn't touch us.
  for (std::uint32_t slot = 0; slot < conns_.size(); ++slot) {
    if (StreamConnection* conn = conns_[slot]) conn->owner_ = nullptr;
  }
}

void StreamListener::forget(sim::Endpoint client, std::uint32_t slot) {
  index_.erase(client.packed(), slot);
  conns_[slot] = nullptr;
  conns_.release(slot);
}

void StreamListener::on_accept(std::function<void(StreamConnectionPtr)> handler) {
  handler_ = std::move(handler);
}

void StreamListener::handle(const sim::Datagram& d) {
  // Existing connection? Demultiplex by client endpoint.
  const auto same = [&](std::uint32_t slot) { return conns_[slot]->remote_ == d.src; };
  if (const std::uint32_t slot = index_.find(d.src.packed(), same); slot != OpenIndex::kNone) {
    conns_[slot]->handle(d);
    return;
  }
  if (d.payload.empty() || d.payload[0] != kSyn) return;
  auto conn = StreamConnection::make(*host_, StreamConnection::State::kOpen);
  conn->remote_ = d.src;
  conn->local_ = local();
  conn->owner_ = this;
  conn->owner_slot_ = conns_.acquire();
  conns_[conn->owner_slot_] = conn.get();
  index_.insert(d.src.packed(), conn->owner_slot_);
  conn->send_control(kSynAck);
  ++accepted_;
  if (handler_) handler_(std::move(conn));
}

}  // namespace gmmcs::transport
