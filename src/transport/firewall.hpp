// Firewall / NAT model and HTTP-style proxy traversal.
//
// The paper (§2.3) highlights that NaradaBrokering can reach clients behind
// firewalls and proxies. We model the two mechanisms that matter:
//
//  * a stateful firewall on a host: unsolicited inbound traffic is blocked,
//    but replies to flows the host itself initiated are allowed
//    (connection tracking), with policy knobs matching common 2003-era
//    configurations (UDP blocked, outbound TCP allowed);
//  * a ProxyServer that relays stream connections: a client behind a
//    firewall opens an *outbound* stream to the proxy, names the real
//    target, and the proxy pipes the two streams together — the same shape
//    as HTTP CONNECT tunneling.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "sim/network.hpp"
#include "transport/stream.hpp"

namespace gmmcs::transport {

struct FirewallRules {
  /// Allow unsolicited inbound datagrams (UDP). Usually false.
  bool allow_inbound_datagrams = false;
  /// Allow inbound stream handshakes (TCP SYN). Usually false for clients.
  bool allow_inbound_streams = false;
};

/// Installs a stateful packet filter on a host. Lives as long as the
/// firewall should be active; removes its hooks on destruction.
class Firewall {
 public:
  Firewall(sim::Host& host, FirewallRules rules);
  ~Firewall();
  Firewall(const Firewall&) = delete;
  Firewall& operator=(const Firewall&) = delete;

  [[nodiscard]] std::uint64_t blocked() const { return blocked_; }
  [[nodiscard]] std::uint64_t passed() const { return passed_; }

 private:
  [[nodiscard]] bool admit(const sim::Datagram& d);

  sim::Host* host_;
  FirewallRules rules_;
  /// Flows the host initiated: (local port, remote endpoint).
  std::set<std::pair<std::uint16_t, sim::Endpoint>> outbound_flows_;
  std::uint64_t blocked_ = 0;
  std::uint64_t passed_ = 0;
};

/// Stream relay: accepts connections whose first message is
/// "CONNECT <node>:<port>" and pipes all further messages to/from the
/// target. Because streams are ordered, clients may start sending payload
/// immediately after the CONNECT line.
class ProxyServer {
 public:
  static constexpr std::uint16_t kDefaultPort = 3128;

  ProxyServer(sim::Host& host, std::uint16_t port = kDefaultPort);

  [[nodiscard]] sim::Endpoint endpoint() const { return listener_.local(); }
  [[nodiscard]] std::size_t active_tunnels() const { return tunnels_; }
  [[nodiscard]] std::uint64_t relayed_messages() const { return relayed_; }

 private:
  void accept(StreamConnectionPtr client);

  sim::Host* host_;
  StreamListener listener_;
  std::size_t tunnels_ = 0;
  std::uint64_t relayed_ = 0;
  // Keep tunnel connection pairs alive.
  std::vector<std::pair<StreamConnectionPtr, StreamConnectionPtr>> pairs_;
};

/// Opens a stream to `target` tunneled through `proxy`. The returned
/// connection behaves like a direct stream to the target.
StreamConnectionPtr connect_via_proxy(sim::Host& from, sim::Endpoint proxy,
                                      sim::Endpoint target);

}  // namespace gmmcs::transport
