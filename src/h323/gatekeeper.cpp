#include "h323/gatekeeper.hpp"

#include "common/strings.hpp"

namespace gmmcs::h323 {

Gatekeeper::Gatekeeper(sim::Host& host) : Gatekeeper(host, Config{}) {}

Gatekeeper::Gatekeeper(sim::Host& host, Config cfg)
    : cfg_(std::move(cfg)), socket_(host, kRasPort) {
  socket_.on_receive([this](const sim::Datagram& d) { handle(d); });
}

std::optional<sim::Endpoint> Gatekeeper::resolve(const std::string& alias) const {
  auto it = registrations_.find(alias);
  if (it == registrations_.end()) return std::nullopt;
  return it->second;
}

void Gatekeeper::handle(const sim::Datagram& d) {
  auto parsed = RasMessage::decode(d.payload);
  if (!parsed.ok()) return;
  const RasMessage& req = parsed.value();
  RasMessage resp;
  resp.seq = req.seq;
  resp.gatekeeper_id = cfg_.gatekeeper_id;
  switch (req.type) {
    case RasType::kGatekeeperRequest:
      resp.type = RasType::kGatekeeperConfirm;
      break;
    case RasType::kRegistrationRequest:
      if (req.endpoint_alias.empty()) {
        resp.type = RasType::kRegistrationReject;
        resp.reject_reason = "missing alias";
      } else {
        registrations_[req.endpoint_alias] = req.call_signal_address;
        resp.type = RasType::kRegistrationConfirm;
        resp.endpoint_alias = req.endpoint_alias;
      }
      break;
    case RasType::kAdmissionRequest:
      resp = admit(req);
      break;
    case RasType::kBandwidthRequest: {
      auto it = admissions_.find(req.endpoint_alias);
      if (it == admissions_.end()) {
        resp.type = RasType::kBandwidthReject;
        resp.reject_reason = "no active admission";
        break;
      }
      std::uint32_t current = it->second;
      // Recompute against the zone budget with the old grant released.
      std::uint32_t others = bandwidth_in_use_ - current;
      if (others + req.bandwidth > cfg_.bandwidth_budget) {
        resp.type = RasType::kBandwidthReject;
        resp.reject_reason = "zone bandwidth exhausted";
        break;
      }
      it->second = req.bandwidth;
      bandwidth_in_use_ = others + req.bandwidth;
      resp.type = RasType::kBandwidthConfirm;
      resp.bandwidth = req.bandwidth;
      break;
    }
    case RasType::kDisengageRequest: {
      auto it = admissions_.find(req.endpoint_alias);
      if (it != admissions_.end()) {
        bandwidth_in_use_ -= it->second;
        admissions_.erase(it);
      }
      resp.type = RasType::kDisengageConfirm;
      break;
    }
    case RasType::kGatekeeperConfirm:
    case RasType::kGatekeeperReject:
    case RasType::kRegistrationConfirm:
    case RasType::kRegistrationReject:
    case RasType::kAdmissionConfirm:
    case RasType::kAdmissionReject:
    case RasType::kDisengageConfirm:
    case RasType::kBandwidthConfirm:
    case RasType::kBandwidthReject:
      return;  // confirms/rejects are never addressed to us
  }
  socket_.send_to(d.src, resp.encode());
}

RasMessage Gatekeeper::admit(const RasMessage& req) {
  RasMessage resp;
  resp.seq = req.seq;
  resp.gatekeeper_id = cfg_.gatekeeper_id;
  if (!registrations_.contains(req.endpoint_alias)) {
    resp.type = RasType::kAdmissionReject;
    resp.reject_reason = "caller not registered";
    return resp;
  }
  if (bandwidth_in_use_ + req.bandwidth > cfg_.bandwidth_budget) {
    resp.type = RasType::kAdmissionReject;
    resp.reject_reason = "zone bandwidth exhausted";
    return resp;
  }
  sim::Endpoint target;
  if (starts_with(req.destination_alias, "conf-")) {
    if (conference_target_.node == 0 && conference_target_.port == 0) {
      resp.type = RasType::kAdmissionReject;
      resp.reject_reason = "no gateway for conferences";
      return resp;
    }
    target = conference_target_;
  } else if (auto direct = resolve(req.destination_alias)) {
    target = *direct;
  } else {
    resp.type = RasType::kAdmissionReject;
    resp.reject_reason = "unknown destination " + req.destination_alias;
    return resp;
  }
  bandwidth_in_use_ += req.bandwidth;
  admissions_[req.endpoint_alias] += req.bandwidth;
  resp.type = RasType::kAdmissionConfirm;
  resp.bandwidth = req.bandwidth;
  resp.call_signal_address = target;
  return resp;
}

}  // namespace gmmcs::h323
