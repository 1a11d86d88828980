#include "transport/stream.hpp"

#include <utility>

namespace gmmcs::transport {

namespace {
// Segment types on the wire.
constexpr std::uint8_t kSyn = 1;
constexpr std::uint8_t kSynAck = 2;
constexpr std::uint8_t kData = 3;
constexpr std::uint8_t kFin = 4;

Bytes control_segment(std::uint8_t type) {
  return Bytes{type};
}

// The one residual byte copy on the stream path: a kData segment prepends
// its type byte, so the message is framed into a fresh buffer at egress.
// The receive side undoes it for free (a slice); the best-effort media
// fan-out never comes through here.
Bytes data_segment(const Payload& message) {
  Bytes out;
  out.reserve(message.size() + 1);
  out.push_back(kData);
  out.insert(out.end(), message.data(), message.data() + message.size());
  return out;
}
}  // namespace

StreamConnection::StreamConnection(sim::Host& host, State state)
    : host_(&host), state_(state) {}

StreamConnection::~StreamConnection() {
  close_handler_ = nullptr;  // never call back out into user code from a destructor
  if (state_ != State::kClosed) do_close(/*notify_peer=*/true);
}

StreamConnectionPtr StreamConnection::connect(sim::Host& from, sim::Endpoint to,
                                              ConnectOptions opts) {
  auto conn = StreamConnectionPtr(new StreamConnection(from, State::kConnecting));
  conn->remote_ = to;
  conn->owns_port_ = true;
  conn->opts_ = opts;
  std::uint16_t port = from.bind_ephemeral(
      [raw = conn.get()](const sim::Datagram& d) { raw->handle(d); });
  conn->local_ = sim::Endpoint{from.id(), port};
  from.send(to, port, control_segment(kSyn), /*reliable=*/true);
  conn->arm_syn_timer();
  return conn;
}

void StreamConnection::arm_syn_timer() {
  if (opts_.syn_retry.ns() <= 0) return;
  // The raw `this` capture is safe: every path that destroys or closes the
  // connection goes through do_close(), which cancels the timer.
  syn_timer_ = host_->loop().schedule_after(opts_.syn_retry, [this] {
    syn_timer_ = 0;
    if (state_ != State::kConnecting) return;
    if (syn_attempts_ >= opts_.max_syn_retries) {
      do_close(/*notify_peer=*/false);  // handshake gave up: surface on_close
      return;
    }
    ++syn_attempts_;
    host_->send(remote_, local_.port, control_segment(kSyn), /*reliable=*/true);
    arm_syn_timer();
  });
}

void StreamConnection::cancel_syn_timer() {
  if (syn_timer_ != 0) {
    host_->loop().cancel(syn_timer_);
    syn_timer_ = 0;
  }
}

void StreamConnection::handle(const sim::Datagram& d) {
  auto self = shared_from_this();  // keep alive through user callbacks
  if (d.payload.empty() || d.src != remote_) return;
  switch (d.payload[0]) {
    case kSynAck:
      if (state_ == State::kConnecting) {
        state_ = State::kOpen;
        cancel_syn_timer();
        flush_pending();
        if (connect_handler_) {
          auto h = connect_handler_;
          h();
        }
      }
      break;
    case kSyn:
      // Acceptor side: our SYN-ACK was lost (or is still in flight) and the
      // connector retransmitted. Re-acknowledge so the handshake completes.
      if (state_ == State::kOpen && !owns_port_) {
        host_->send(remote_, local_.port, control_segment(kSynAck), /*reliable=*/true);
      }
      break;
    case kData:
      if (state_ == State::kClosed) break;
      ++received_;
      // Zero-copy: the delivered message is a slice of the arriving
      // segment, sharing the sender's buffer.
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
    outbox_.push(std::move(message));
    return;
  }
  send_segment(message);
}

void StreamConnection::send_segment(const Payload& message) {
  ++sent_;
  // Nothing retransmits yet: a segment the NIC drops is lost, so count it.
  if (!host_->send(remote_, local_.port, data_segment(message), /*reliable=*/true)) {
    ++segments_dropped_;
  }
}

void StreamConnection::flush_pending() {
  while (!outbox_.empty()) send_segment(outbox_.pop());
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
  const StreamConnectionPtr self = weak_from_this().lock();
  while (current_handler() && !inbox_.empty()) dispatch(inbox_.pop());
}

void StreamConnection::on_close(std::function<void()> handler) {
  close_handler_ = std::move(handler);
  if (state_ == State::kClosed && close_handler_) close_handler_();
}

void StreamConnection::on_connect(std::function<void()> handler) {
  connect_handler_ = std::move(handler);
  if (state_ == State::kOpen && connect_handler_) connect_handler_();
}

void StreamConnection::close() {
  if (state_ != State::kClosed) do_close(/*notify_peer=*/true);
}

void StreamConnection::do_close(bool notify_peer) {
  State prev = state_;
  state_ = State::kClosed;
  cancel_syn_timer();
  if (notify_peer && prev == State::kOpen) {
    host_->send(remote_, local_.port, control_segment(kFin), /*reliable=*/true);
  }
  if (owns_port_) host_->unbind(local_.port);
  if (owner_ != nullptr) {
    owner_->forget(remote_);
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
  for (auto& [ep, weak] : conns_) {
    if (auto conn = weak.lock()) conn->owner_ = nullptr;
  }
}

void StreamListener::on_accept(std::function<void(StreamConnectionPtr)> handler) {
  handler_ = std::move(handler);
}

void StreamListener::handle(const sim::Datagram& d) {
  // Existing connection? Demultiplex by client endpoint.
  if (auto it = conns_.find(d.src); it != conns_.end()) {
    if (auto conn = it->second.lock()) {
      conn->handle(d);
    } else {
      conns_.erase(it);
    }
    return;
  }
  if (d.payload.empty() || d.payload[0] != kSyn) return;
  auto conn = StreamConnectionPtr(new StreamConnection(*host_, StreamConnection::State::kOpen));
  conn->remote_ = d.src;
  conn->local_ = local();
  conn->owner_ = this;
  conns_[d.src] = conn;
  host_->send(d.src, port_, control_segment(kSynAck), /*reliable=*/true);
  ++accepted_;
  if (handler_) handler_(std::move(conn));
}

}  // namespace gmmcs::transport
