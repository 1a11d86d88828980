// Guaranteed-delivery service: NAK-based recovery for UDP subscribers.
//
// NaradaBrokering offered reliable delivery on top of best-effort
// transports. The shape implemented here is the classic one: a
// RecoveryService keeps a bounded buffer of recent events per topic
// (subscribed over the lossless stream profile, so its copy is complete);
// lossy UDP subscribers track per-publisher sequence numbers, detect gaps,
// and fetch the missing events from the service over a reliable stream —
// repairing loss without forcing all media onto TCP.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "broker/client.hpp"
#include "transport/stream.hpp"

namespace gmmcs::broker {

/// Buffers recent topic events and answers NAKs.
///
/// NAK wire format (one stream message): "NAK <publisher> <from> <to>";
/// each available event in [from, to] is answered as a kEvent frame on
/// the same stream. A "SYNC" request is answered with one text line
/// "SYNC <publisher> <max_seq>" per known publisher, letting subscribers
/// detect *tail* loss (a gap no later event would ever reveal).
class RecoveryService {
 public:
  RecoveryService(sim::Host& host, sim::Endpoint broker_stream, std::string topic,
                  std::size_t buffer_limit = 4096);

  [[nodiscard]] sim::Endpoint endpoint() const { return listener_.local(); }
  [[nodiscard]] const std::string& topic() const { return topic_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t naks_served() const { return naks_; }

 private:
  void handle_request(transport::StreamConnection* conn, const std::string& line);

  std::string topic_;
  std::size_t buffer_limit_;
  broker::BrokerClient client_;           // lossless (stream) subscription
  transport::StreamListener listener_;    // NAK endpoint
  std::vector<transport::StreamConnectionPtr> conns_;
  std::deque<Event> buffer_;              // recent events, oldest first
  std::uint64_t retransmissions_ = 0;
  std::uint64_t naks_ = 0;
};

/// A topic subscriber on the lossy UDP profile with gap repair.
///
/// Events are delivered to on_event() in per-publisher sequence order;
/// a detected gap triggers a NAK to the recovery service, and repaired
/// events are slotted back in order. Events unrecoverable within the
/// buffer window are skipped after `give_up` (delivery resumes past the
/// hole, counted in events_lost()).
class ReliableSubscriber {
 public:
  ReliableSubscriber(sim::Host& host, sim::Endpoint broker_stream, std::string topic,
                     sim::Endpoint recovery, SimDuration give_up = duration_ms(200),
                     SimDuration sync_interval = duration_ms(100));

  void on_event(std::function<void(const Event&)> handler);

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t gaps_detected() const { return gaps_; }
  [[nodiscard]] std::uint64_t recovered() const { return recovered_; }
  [[nodiscard]] std::uint64_t events_lost() const { return lost_; }

 private:
  struct PublisherState {
    bool started = false;
    std::uint32_t next_seq = 0;
    std::map<std::uint32_t, Event> held;  // out-of-order / repaired events
  };

  void ingest(const Event& ev);
  void flush(ClientId publisher, PublisherState& st);
  void schedule_give_up(ClientId publisher, std::uint32_t expected_seq);
  void handle_sync(const std::string& line);
  void arm_sync_probe();

  sim::Host* host_;
  std::string topic_;
  SimDuration give_up_;
  SimDuration sync_interval_;
  broker::BrokerClient client_;
  transport::StreamConnectionPtr nak_link_;
  /// One coalesced SYNC probe is armed after each received event; when
  /// the stream quiesces exactly one final probe fires, catching tail
  /// loss without keeping the event loop alive forever.
  bool sync_armed_ = false;
  std::map<ClientId, PublisherState> publishers_;
  std::function<void(const Event&)> handler_;
  std::uint64_t delivered_ = 0;
  std::uint64_t gaps_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace gmmcs::broker
