#include "baseline/jmf_reflector.hpp"

#include <algorithm>

namespace gmmcs::baseline {

JmfReflector::JmfReflector(sim::Host& host) : JmfReflector(host, Config{}) {}

JmfReflector::JmfReflector(sim::Host& host, Config cfg)
    : host_(&host),
      cfg_(cfg),
      socket_(host, cfg.rtp_port),
      // The defining property of the JMF baseline: ONE dispatch thread.
      dispatch_(host.loop(), 1, cfg.queue_limit) {
  socket_.on_receive([this](const sim::Datagram& d) { handle(d); });
}

void JmfReflector::add_receiver(sim::Endpoint rtp_dst) {
  if (std::find(receivers_.begin(), receivers_.end(), rtp_dst) == receivers_.end()) {
    receivers_.push_back(rtp_dst);
  }
}

void JmfReflector::remove_receiver(sim::Endpoint rtp_dst) {
  std::erase(receivers_, rtp_dst);
}

SimDuration JmfReflector::copy_cost(std::size_t bytes) const {
  auto size_part = static_cast<std::int64_t>(static_cast<double>(cfg_.copy_per_kb.ns()) *
                                             static_cast<double>(bytes) / 1024.0);
  return cfg_.copy_fixed + SimDuration{size_part};
}

void JmfReflector::handle(const sim::Datagram& d) {
  ++packets_in_;
  dispatch_.submit(cfg_.per_packet_cost, [this, payload = d.payload, src = d.src] {
    for (const auto& dst : receivers_) {
      if (dst == src) continue;  // don't reflect back to the sender
      dispatch_.submit(copy_cost(payload.size()), [this, dst, payload] {
        ++copies_out_;
        // Best effort, as JMF's RTP sends were: a copy the NIC refuses is
        // lost.
        if (!host_->send(dst, cfg_.rtp_port, payload)) ++copies_nic_dropped_;
      });
    }
  });
}

}  // namespace gmmcs::baseline
