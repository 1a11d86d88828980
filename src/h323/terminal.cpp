#include "h323/terminal.hpp"

namespace gmmcs::h323 {

H323Terminal::H323Terminal(sim::Host& host, std::string alias, sim::Endpoint gatekeeper_ras)
    : host_(&host), alias_(std::move(alias)), gatekeeper_(gatekeeper_ras), ras_(host) {
  ras_.on_receive([this](const sim::Datagram& d) {
    auto parsed = RasMessage::decode(d.payload);
    if (!parsed.ok()) return;
    auto it = ras_pending_.find(parsed.value().seq);
    if (it == ras_pending_.end()) return;
    auto handler = std::move(it->second);
    ras_pending_.erase(it);
    handler(parsed.value());
  });
}

void H323Terminal::send_ras(RasMessage m, std::function<void(const RasMessage&)> on_reply) {
  m.seq = ras_seq_++;
  ras_pending_[m.seq] = std::move(on_reply);
  ras_.send_to(gatekeeper_, m.encode());
}

void H323Terminal::discover(std::function<void(bool)> cb) {
  RasMessage grq;
  grq.type = RasType::kGatekeeperRequest;
  grq.endpoint_alias = alias_;
  send_ras(std::move(grq), [cb = std::move(cb)](const RasMessage& resp) {
    cb(resp.type == RasType::kGatekeeperConfirm);
  });
}

void H323Terminal::register_endpoint(std::function<void(bool)> cb) {
  RasMessage rrq;
  rrq.type = RasType::kRegistrationRequest;
  rrq.endpoint_alias = alias_;
  // Terminals could accept incoming calls on this address; for the
  // gateway-oriented flows only the binding itself matters.
  rrq.call_signal_address = sim::Endpoint{host_->id(), 1730};
  send_ras(std::move(rrq), [this, cb = std::move(cb)](const RasMessage& resp) {
    registered_ = (resp.type == RasType::kRegistrationConfirm);
    if (!registered_) last_reject_ = resp.reject_reason;
    cb(registered_);
  });
}

void H323Terminal::call(const std::string& destination_alias, std::uint32_t bandwidth,
                        std::vector<MediaPlan> media,
                        std::function<void(bool, const MediaTargets&)> cb) {
  dest_alias_ = destination_alias;
  RasMessage arq;
  arq.type = RasType::kAdmissionRequest;
  arq.endpoint_alias = alias_;
  arq.destination_alias = destination_alias;
  arq.bandwidth = bandwidth;
  send_ras(std::move(arq), [this, media = std::move(media),
                            cb = std::move(cb)](const RasMessage& resp) mutable {
    if (resp.type != RasType::kAdmissionConfirm) {
      last_reject_ = resp.reject_reason;
      cb(false, {});
      return;
    }
    start_signaling(resp.call_signal_address, std::move(media), std::move(cb));
  });
}

void H323Terminal::start_signaling(sim::Endpoint call_signal, std::vector<MediaPlan> media,
                                   std::function<void(bool, const MediaTargets&)> cb) {
  pending_media_ = std::move(media);
  targets_.clear();
  channels_open_ = 0;
  call_cb_ = std::move(cb);
  call_ref_ = next_call_ref_++;
  q931_ = transport::StreamConnection::connect(*host_, call_signal);
  q931_->on_message([this](const Payload& data) {
    auto parsed = Q931Message::decode(data);
    if (!parsed.ok()) return;
    const Q931Message& m = parsed.value();
    switch (m.type) {
      case Q931Type::kConnect:
        start_h245(m.h245_address);
        break;
      case Q931Type::kReleaseComplete:
        last_reject_ = m.release_reason;
        finish_call(false);
        break;
      case Q931Type::kCallProceeding:
      case Q931Type::kAlerting:
      case Q931Type::kSetup:
        break;  // progress indications; a terminal never answers a Setup
    }
  });
  // The called_party alias selects the conference; calling_party is the
  // XGSP participant name recorded by the gateway.
  Q931Message setup;
  setup.type = Q931Type::kSetup;
  setup.call_reference = call_ref_;
  setup.calling_party = alias_;
  setup.called_party = dest_alias_;
  q931_->send(setup.encode());
}

void H323Terminal::start_h245(sim::Endpoint h245_address) {
  h245_ = transport::StreamConnection::connect(*host_, h245_address);
  h245_->on_message([this](const Payload& data) {
    auto parsed = H245Message::decode(data);
    if (parsed.ok()) handle_h245(parsed.value());
  });
  H245Message tcs;
  tcs.type = H245Type::kTerminalCapabilitySet;
  for (const auto& m : pending_media_) tcs.capabilities.push_back(m.payload_type);
  h245_->send(tcs.encode());
  H245Message msd;
  msd.type = H245Type::kMasterSlaveDetermination;
  h245_->send(msd.encode());
}

void H323Terminal::handle_h245(const H245Message& m) {
  switch (m.type) {
    case H245Type::kTerminalCapabilitySet: {
      // The gateway's own TCS: acknowledge, then open logical channels.
      H245Message ack;
      ack.type = H245Type::kTerminalCapabilitySetAck;
      ack.seq = m.seq;
      h245_->send(ack.encode());
      std::uint16_t channel = 1;
      for (const auto& plan : pending_media_) {
        H245Message olc;
        olc.type = H245Type::kOpenLogicalChannel;
        olc.channel = channel++;
        olc.media_kind = plan.kind;
        olc.payload_type = plan.payload_type;
        olc.media_address = plan.receive_rtp;
        h245_->send(olc.encode());
      }
      // Signaling-only call (no logical channels): established now.
      if (pending_media_.empty()) finish_call(true);
      break;
    }
    case H245Type::kOpenLogicalChannelAck:
      targets_[m.media_kind] = m.media_address;
      if (++channels_open_ == pending_media_.size()) finish_call(true);
      break;
    case H245Type::kOpenLogicalChannelReject:
      last_reject_ = m.reject_reason;
      finish_call(false);
      break;
    case H245Type::kTerminalCapabilitySetAck:
    case H245Type::kMasterSlaveAck:
    case H245Type::kMasterSlaveDetermination:
    case H245Type::kOpenLogicalChannel:
    case H245Type::kCloseLogicalChannel:
    case H245Type::kCloseLogicalChannelAck:
    case H245Type::kEndSession:
      break;  // TCS-Ack, MSD-Ack; the gateway sends the terminal no other request
  }
}

void H323Terminal::finish_call(bool ok) {
  if (!ok) {
    if (h245_) h245_->close();
    if (q931_) q931_->close();
    h245_.reset();
    q931_.reset();
  }
  if (call_cb_) {
    auto cb = std::move(call_cb_);
    call_cb_ = nullptr;
    cb(ok, targets_);
  }
}

void H323Terminal::change_bandwidth(std::uint32_t new_bandwidth,
                                    std::function<void(bool)> cb) {
  RasMessage brq;
  brq.type = RasType::kBandwidthRequest;
  brq.endpoint_alias = alias_;
  brq.bandwidth = new_bandwidth;
  send_ras(std::move(brq), [this, cb = std::move(cb)](const RasMessage& resp) {
    bool ok = resp.type == RasType::kBandwidthConfirm;
    if (!ok) last_reject_ = resp.reject_reason;
    cb(ok);
  });
}

void H323Terminal::hangup(std::function<void(bool)> cb) {
  if (!q931_) {
    cb(false);
    return;
  }
  if (h245_) {
    H245Message end;
    end.type = H245Type::kEndSession;
    h245_->send(end.encode());
  }
  Q931Message release;
  release.type = Q931Type::kReleaseComplete;
  release.call_reference = call_ref_;
  q931_->send(release.encode());
  if (h245_) h245_->close();
  q931_->close();
  h245_.reset();
  q931_.reset();
  RasMessage drq;
  drq.type = RasType::kDisengageRequest;
  drq.endpoint_alias = alias_;
  send_ras(std::move(drq), [cb = std::move(cb)](const RasMessage& resp) {
    cb(resp.type == RasType::kDisengageConfirm);
  });
}

}  // namespace gmmcs::h323
