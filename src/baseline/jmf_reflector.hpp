// JMF reflector baseline.
//
// The paper compares NaradaBrokering against "a JMF reflector program
// written in Java": a unicast RTP reflector that receives each packet and
// re-sends one copy per receiver from a single dispatch loop. Its cost
// model mirrors what made JMF slow in 2003 — per-packet receive handling
// plus a per-receiver send cost with a significant size-dependent part
// (Java-side buffer copies) — all serialized on one thread.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/time.hpp"
#include "sim/network.hpp"
#include "sim/service_center.hpp"
#include "transport/datagram_socket.hpp"

namespace gmmcs::baseline {

class JmfReflector {
 public:
  struct Config {
    std::uint16_t rtp_port = 7000;
    /// Per-packet receive/demux cost.
    SimDuration per_packet_cost = duration_us(120);
    /// Per-receiver send cost: fixed part + per-KiB part. Slightly above
    /// the optimized broker's cost (JMF does a per-receiver buffer copy),
    /// which at the Figure-3 operating point (~95% utilization) amplifies
    /// into the ~3x delay gap the paper reports.
    SimDuration copy_fixed = duration_us(9);
    SimDuration copy_per_kb = SimDuration{22600};  // 22.6 us/KiB
    std::size_t queue_limit = 100000;
  };

  JmfReflector(sim::Host& host, Config cfg);
  /// Default configuration (calibrated 2003-era JMF costs).
  explicit JmfReflector(sim::Host& host);

  void add_receiver(sim::Endpoint rtp_dst);
  void remove_receiver(sim::Endpoint rtp_dst);

  [[nodiscard]] sim::Endpoint endpoint() const { return socket_.local(); }
  [[nodiscard]] std::size_t receiver_count() const { return receivers_.size(); }
  [[nodiscard]] std::uint64_t packets_in() const { return packets_in_; }
  [[nodiscard]] std::uint64_t copies_out() const { return copies_out_; }
  /// Copies (counted in copies_out) that the reflector host's NIC refused.
  [[nodiscard]] std::uint64_t copies_nic_dropped() const { return copies_nic_dropped_; }
  [[nodiscard]] std::uint64_t jobs_dropped() const { return dispatch_.rejected(); }
  [[nodiscard]] const sim::ServiceCenter& dispatch() const { return dispatch_; }

 private:
  void handle(const sim::Datagram& d);
  [[nodiscard]] SimDuration copy_cost(std::size_t bytes) const;

  sim::Host* host_;
  Config cfg_;
  transport::DatagramSocket socket_;
  sim::ServiceCenter dispatch_;
  std::vector<sim::Endpoint> receivers_;
  std::uint64_t packets_in_ = 0;
  std::uint64_t copies_out_ = 0;
  std::uint64_t copies_nic_dropped_ = 0;
};

}  // namespace gmmcs::baseline
