// SOAP 1.1-style envelopes, HTTP-lite framing and RPC over streams.
//
// Everything "web services" in the paper rides on this: the XGSP web
// server's operations, the naming & directory service, and the community
// web services bound through WSDL-CI (Admire's rendezvous negotiation,
// HearMe-style VoIP control). The envelope layout matches 2003-era
// doc/literal SOAP closely enough to be recognizable; HTTP framing is one
// request or response message per stream frame.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/result.hpp"
#include "sim/network.hpp"
#include "transport/stream.hpp"
#include "xml/xml.hpp"

namespace gmmcs::soap {

/// Wraps a body payload element in <soap:Envelope><soap:Body>...</>.
xml::Element make_envelope(xml::Element body_content);
/// Builds a <soap:Fault> envelope.
xml::Element make_fault(const std::string& code, const std::string& reason);
/// Extracts the first element inside soap:Body. Faults come back as
/// errors with the fault string.
[[nodiscard]] Result<xml::Element> parse_envelope(const std::string& text);

/// Minimal HTTP messages carrying SOAP payloads.
struct HttpRequest {
  std::string method = "POST";
  std::string path = "/";
  std::string soap_action;
  std::string body;
};
struct HttpResponse {
  int status = 200;
  std::string body;
};

std::string serialize(const HttpRequest& r);
std::string serialize(const HttpResponse& r);
[[nodiscard]] Result<HttpRequest> parse_http_request(const std::string& text);
[[nodiscard]] Result<HttpResponse> parse_http_response(const std::string& text);

/// A SOAP RPC endpoint: dispatches by the local name of the body's first
/// child element ("CreateSession", "GetRendezvous", ...).
class SoapServer {
 public:
  /// Handler receives the request element, returns the response element
  /// (wrapped for you) or an Error (returned as a SOAP fault).
  using Handler = std::function<Result<xml::Element>(const xml::Element&)>;

  SoapServer(sim::Host& host, std::uint16_t port);

  void register_operation(const std::string& name, Handler handler);
  [[nodiscard]] sim::Endpoint endpoint() const { return listener_.local(); }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t faults() const { return faults_; }

 private:
  void accept(transport::StreamConnectionPtr conn);
  [[nodiscard]] HttpResponse handle(const HttpRequest& req);

  transport::StreamListener listener_;
  std::map<std::string, Handler> operations_;
  std::vector<transport::StreamConnectionPtr> conns_;
  std::uint64_t calls_ = 0;
  std::uint64_t faults_ = 0;
};

/// A SOAP RPC client: sends requests over one persistent connection and
/// correlates responses in order (HTTP/1.1 pipelining semantics).
class SoapClient {
 public:
  using Callback = std::function<void(Result<xml::Element>)>;

  SoapClient(sim::Host& host, sim::Endpoint server);

  /// Invokes an operation; `request` is the body payload element whose
  /// name selects the server-side operation.
  void call(xml::Element request, Callback on_reply);
  [[nodiscard]] std::uint64_t calls_sent() const { return calls_sent_; }

 private:
  transport::StreamConnectionPtr conn_;
  std::deque<Callback> pending_;
  std::uint64_t calls_sent_ = 0;
};

}  // namespace gmmcs::soap
