#include "transport/stream.hpp"

#include <utility>

namespace gmmcs::transport {

namespace {
// Segment types on the wire.
constexpr std::uint8_t kSyn = 1;
constexpr std::uint8_t kSynAck = 2;
constexpr std::uint8_t kData = 3;
constexpr std::uint8_t kFin = 4;
constexpr std::uint8_t kProbe = 5;     // idle detector: "are you there?"
constexpr std::uint8_t kProbeAck = 6;  // the far end's transport answers
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

StreamConnectionPtr StreamConnection::connect(sim::Host& from, sim::Endpoint to) {
  auto conn = make(from, State::kConnecting);
  conn->remote_ = to;
  conn->owns_port_ = true;
  conn->connecting_ = std::make_unique<Connecting>();
  std::uint16_t port = from.bind_ephemeral(
      [raw = conn.get()](const sim::Datagram& d) { raw->handle(d); });
  conn->local_ = sim::Endpoint{from.id(), port};
  conn->send_control(kSyn);
  return conn;
}

void StreamConnection::watch(IdleConfig cfg, LivenessHandler handler) {
  if (cfg.interval.ns() <= 0 || state_ == State::kClosed) return;
  if (idle_ == nullptr) {
    idle_ = std::make_unique<Idle>();
  } else if (idle_->timer != 0) {
    host_->loop().cancel(idle_->timer);
  }
  Idle& w = *idle_;
  w.cfg = cfg;
  w.handler = std::move(handler);
  w.seen = received_;
  // A connector's SYN is already out: it is the first probe.
  w.missed = state_ == State::kConnecting ? 1 : 0;
  w.dead = false;
  arm_idle();
}

void StreamConnection::arm_idle() {
  // The raw `this` capture is safe: closing (and so destroying) the
  // connection cancels the timer.
  idle_->timer = host_->loop().schedule_after(idle_->cfg.interval, [this] { idle_tick(); });
}

void StreamConnection::idle_tick() {
  Idle& w = *idle_;
  w.timer = 0;
  // Data that arrived this interval is proof of life, and costs the
  // receive path nothing: the tick compares counts.
  if (received_ != w.seen) {
    w.seen = received_;
    w.missed = 0;
  } else {
    if (w.missed >= w.cfg.misses && !w.dead) {
      w.dead = true;
      // Pinned: the handler may close this connection or drop its last
      // owner.
      ++pins_;
      w.handler(/*alive=*/false);
      const bool done = state_ == State::kClosed || orphaned_;
      unpin();
      if (done) return;
    }
    send_control(state_ == State::kConnecting ? kSyn : kProbe);
    ++w.missed;
  }
  arm_idle();
}

void StreamConnection::heard() {
  if (idle_ == nullptr || state_ == State::kClosed) return;
  idle_->missed = 0;
  if (idle_->dead) {
    idle_->dead = false;
    idle_->handler(/*alive=*/true);
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
      heard();
      if (state_ == State::kConnecting) {
        state_ = State::kOpen;
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
    case kProbe:
      // Answered by the transport, whatever the application is doing. A
      // probe is not proof of life here: a one-way cut must look dead
      // from the end whose answers are lost too.
      if (state_ == State::kOpen) send_control(kProbeAck);
      break;
    case kProbeAck:
      heard();
      break;
    case kData:
      if (state_ == State::kClosed) break;
      ++received_;
      if (idle_ != nullptr && idle_->dead) heard();
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
  // Nothing here retransmits a refused control segment: a watched
  // connector retries its SYN and probes, a SYN-ACK or probe answer is
  // sent again for the next SYN or probe, and a lost FIN leaves the peer
  // to its own idle detector. Count it.
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
  if (idle_ != nullptr && idle_->timer != 0) {
    host_->loop().cancel(idle_->timer);
    idle_->timer = 0;
  }
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
  // Only a SYN opens a connection: a probe from an end this listener has
  // forgotten goes unanswered, and so that end learns it is dead.
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
