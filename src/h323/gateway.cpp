#include "h323/gateway.hpp"

#include "common/strings.hpp"

namespace gmmcs::h323 {

H323Gateway::H323Gateway(sim::Host& host, xgsp::SessionServer& sessions,
                         sim::Endpoint broker_stream)
    : host_(&host),
      sessions_(&sessions),
      broker_(broker_stream),
      q931_listener_(host, kCallSignalPort) {
  q931_listener_.on_accept(
      [this](transport::StreamConnectionPtr conn) { accept_q931(std::move(conn)); });
}

H323Gateway::Bridge& H323Gateway::bridge_for(const xgsp::Session& session) {
  auto it = bridges_.find(session.id());
  if (it == bridges_.end()) {
    it = bridges_.emplace(session.id(), Bridge{}).first;
    for (const auto& stream : session.streams()) {
      it->second.proxies.emplace(
          stream.kind,
          std::make_unique<broker::RtpProxy>(
              *host_, broker_,
              broker::RtpProxy::Config{.topic = stream.topic,
                                       .name = "h323-gw-" + session.id() + "-" + stream.kind}));
    }
  }
  return it->second;
}

void H323Gateway::accept_q931(transport::StreamConnectionPtr conn) {
  auto* raw = conn.get();
  q931_conns_[raw] = conn;
  conn->on_message([this, raw](const Payload& data) {
    auto parsed = Q931Message::decode(data);
    if (!parsed.ok()) return;
    const Q931Message& m = parsed.value();
    switch (m.type) {
      case Q931Type::kSetup:
        handle_setup(m, q931_conns_.at(raw));
        break;
      case Q931Type::kReleaseComplete:
        if (std::uint64_t id = find_call(raw, m.call_reference); id != 0) {
          teardown(id, /*send_release=*/false);
        }
        break;
      case Q931Type::kCallProceeding:
      case Q931Type::kAlerting:
      case Q931Type::kConnect:
        break;  // we never receive proceeding/alerting/connect as callee
    }
  });
  // A dropped signaling connection releases every call it carried — the
  // H.323-over-TCP behaviour real gateways implement.
  conn->on_close([this, raw] {
    std::vector<std::uint64_t> stale;
    for (const auto& [id, call] : calls_) {
      if (call->q931.get() == raw) stale.push_back(id);
    }
    for (std::uint64_t id : stale) teardown(id, /*send_release=*/false);
    q931_conns_.erase(raw);
  });
}

void H323Gateway::handle_setup(const Q931Message& setup, transport::StreamConnectionPtr conn) {
  ++setups_;
  auto refuse = [&](const std::string& reason) {
    Q931Message release;
    release.type = Q931Type::kReleaseComplete;
    release.call_reference = setup.call_reference;
    release.release_reason = reason;
    conn->send(release.encode());
  };
  if (!starts_with(setup.called_party, "conf-")) {
    refuse("gateway only terminates conference calls");
    return;
  }
  std::string session_id = setup.called_party.substr(5);
  xgsp::Message join = sessions_->handle(
      xgsp::Message::join(session_id, setup.calling_party, xgsp::EndpointKind::kH323));
  if (!join.ok) {
    refuse("no such conference");
    return;
  }
  const xgsp::Session& session = join.sessions.front();
  bridge_for(session);

  auto call = std::make_unique<Call>();
  Call* call_ptr = call.get();
  call->id = next_call_id_++;
  call->session_id = session_id;
  call->caller_alias = setup.calling_party;
  call->call_reference = setup.call_reference;
  call->q931 = conn;
  // A dedicated H.245 control listener per call associates the control
  // connection with this call, as per-call H.245 addresses do in H.323.
  call->h245_listener = std::make_unique<transport::StreamListener>(*host_, /*port=*/0);
  calls_[call->id] = std::move(call);

  Q931Message proceeding;
  proceeding.type = Q931Type::kCallProceeding;
  proceeding.call_reference = setup.call_reference;
  conn->send(proceeding.encode());

  Q931Message connect;
  connect.type = Q931Type::kConnect;
  connect.call_reference = setup.call_reference;
  connect.h245_address = call_ptr->h245_listener->local();
  conn->send(connect.encode());

  // The H.245 connection is shared with the peer's host tables and can
  // outlive the call (clear_call erases it from calls_ mid-run), so the
  // message handler must not hold a raw Call*: look the call up by id
  // and drop late control messages for a released call.
  call_ptr->h245_listener->on_accept([this, call_ptr](transport::StreamConnectionPtr h245) {
    call_ptr->h245 = h245;
    h245->on_message([this, id = call_ptr->id](const Payload& data) {
      auto it = calls_.find(id);
      if (it == calls_.end()) return;  // call released while in flight
      auto parsed = H245Message::decode(data);
      if (parsed.ok()) handle_h245(*it->second, parsed.value());
    });
  });
}

void H323Gateway::handle_h245(Call& call, const H245Message& m) {
  switch (m.type) {
    case H245Type::kTerminalCapabilitySet: {
      H245Message ack;
      ack.type = H245Type::kTerminalCapabilitySetAck;
      ack.seq = m.seq;
      call.h245->send(ack.encode());
      // The gateway bridges any payload type the broker carries, so its
      // own TCS advertises the union the session codecs use.
      H245Message tcs;
      tcs.type = H245Type::kTerminalCapabilitySet;
      tcs.capabilities = {0, 3, 4, 31, 34, 96};
      call.h245->send(tcs.encode());
      break;
    }
    case H245Type::kMasterSlaveDetermination: {
      H245Message ack;
      ack.type = H245Type::kMasterSlaveAck;
      ack.seq = m.seq;
      call.h245->send(ack.encode());
      break;
    }
    case H245Type::kOpenLogicalChannel: {
      auto bit = bridges_.find(call.session_id);
      H245Message resp;
      resp.seq = m.seq;
      resp.channel = m.channel;
      if (bit == bridges_.end() || !bit->second.proxies.contains(m.media_kind)) {
        resp.type = H245Type::kOpenLogicalChannelReject;
        resp.reject_reason = "no such media stream in session";
      } else {
        auto& proxy = bit->second.proxies.at(m.media_kind);
        proxy->add_receiver(m.media_address);
        call.receiver_regs[m.media_kind] = m.media_address;
        resp.type = H245Type::kOpenLogicalChannelAck;
        resp.media_kind = m.media_kind;
        resp.media_address = proxy->rtp_ingress();
      }
      call.h245->send(resp.encode());
      break;
    }
    case H245Type::kCloseLogicalChannel: {
      auto bit = bridges_.find(call.session_id);
      auto rit = call.receiver_regs.find(m.media_kind);
      if (bit != bridges_.end() && rit != call.receiver_regs.end()) {
        auto pit = bit->second.proxies.find(m.media_kind);
        if (pit != bit->second.proxies.end()) pit->second->remove_receiver(rit->second);
        call.receiver_regs.erase(rit);
      }
      H245Message ack;
      ack.type = H245Type::kCloseLogicalChannelAck;
      ack.seq = m.seq;
      ack.media_kind = m.media_kind;
      call.h245->send(ack.encode());
      break;
    }
    case H245Type::kEndSession:
      teardown(call.id, /*send_release=*/true);
      break;
    case H245Type::kTerminalCapabilitySetAck:
    case H245Type::kMasterSlaveAck:
    case H245Type::kOpenLogicalChannelAck:
    case H245Type::kOpenLogicalChannelReject:
    case H245Type::kCloseLogicalChannelAck:
      // Acks/rejects of our own outbound H.245 requests need no reaction:
      // channels open optimistically and teardown is driven by kEndSession.
      break;
  }
}

std::uint64_t H323Gateway::find_call(const transport::StreamConnection* q931,
                                     std::uint16_t call_reference) const {
  for (const auto& [id, call] : calls_) {
    if (call->q931.get() == q931 && call->call_reference == call_reference) return id;
  }
  return 0;
}

void H323Gateway::teardown(std::uint64_t call_id, bool send_release) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  Call& call = *it->second;
  auto bit = bridges_.find(call.session_id);
  if (bit != bridges_.end()) {
    for (const auto& [kind, ep] : call.receiver_regs) {
      auto pit = bit->second.proxies.find(kind);
      if (pit != bit->second.proxies.end()) pit->second->remove_receiver(ep);
    }
  }
  sessions_->handle(xgsp::Message::leave(call.session_id, call.caller_alias));
  if (send_release && call.q931) {
    Q931Message release;
    release.type = Q931Type::kReleaseComplete;
    release.call_reference = call.call_reference;
    call.q931->send(release.encode());
  }
  calls_.erase(it);
}

}  // namespace gmmcs::h323
