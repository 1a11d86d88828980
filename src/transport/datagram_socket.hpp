// UDP-like socket over the simulated network.
//
// RTP media, broker UDP client profiles and the Access Grid tools all use
// this. It is a thin RAII wrapper over sim::Host port binding: the
// receive callback is bound in the host's port table itself, so an
// arriving datagram reaches it in one call.
#pragma once

#include "common/bytes.hpp"
#include "sim/network.hpp"

namespace gmmcs::transport {

class DatagramSocket {
 public:
  /// Binds an ephemeral port on the host.
  explicit DatagramSocket(sim::Host& host);
  /// Binds a specific port; throws if taken.
  DatagramSocket(sim::Host& host, std::uint16_t port);
  ~DatagramSocket();
  DatagramSocket(const DatagramSocket&) = delete;
  DatagramSocket& operator=(const DatagramSocket&) = delete;

  /// Sets the receive callback (replaces any previous one). Until one is
  /// set, arriving datagrams are dropped.
  void on_receive(sim::Host::Handler handler) { host_->rebind(port_, std::move(handler)); }

  /// Sends a datagram; returns false if dropped at the local NIC.
  bool send_to(sim::Endpoint dst, Payload payload);
  /// Sends to a multicast group.
  void send_group(sim::GroupId group, Payload payload);
  /// Joins/leaves a multicast group on this socket's port.
  void join_group(sim::GroupId group);
  void leave_group(sim::GroupId group);

  [[nodiscard]] sim::Endpoint local() const { return {host_->id(), port_}; }
  [[nodiscard]] sim::Host& host() const { return *host_; }

 private:
  sim::Host* host_;
  std::uint16_t port_;
};

}  // namespace gmmcs::transport
