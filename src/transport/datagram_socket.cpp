#include "transport/datagram_socket.hpp"

namespace gmmcs::transport {

DatagramSocket::DatagramSocket(sim::Host& host)
    : host_(&host), port_(host.bind_ephemeral(nullptr)) {}

DatagramSocket::DatagramSocket(sim::Host& host, std::uint16_t port) : host_(&host), port_(port) {
  host_->bind(port_, nullptr);
}

DatagramSocket::~DatagramSocket() {
  host_->unbind(port_);
}

bool DatagramSocket::send_to(sim::Endpoint dst, Payload payload) {
  return host_->send(dst, port_, std::move(payload));
}

void DatagramSocket::send_group(sim::GroupId group, Payload payload) {
  host_->send_multicast(group, port_, std::move(payload));
}

void DatagramSocket::join_group(sim::GroupId group) {
  host_->network().join_group(group, local());
}

void DatagramSocket::leave_group(sim::GroupId group) {
  host_->network().leave_group(group, local());
}

}  // namespace gmmcs::transport
