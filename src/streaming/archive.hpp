// Conference archive and replay.
//
// Admire "can support ... a complete conference management as well as
// conference archiving service" (paper §3.1); Global-MMCS inherits the
// capability by recording broker topics. The archive subscribes to a
// session's media topics, stores events with their relative timing, and
// can replay a recording onto a new topic with the original cadence —
// which is exactly how late-joining or offline viewers were served.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/client.hpp"
#include "sim/event_loop.hpp"

namespace gmmcs::streaming {

class ConferenceArchive {
 public:
  ConferenceArchive(sim::Host& host, sim::Endpoint broker_stream);

  /// Starts recording a topic.
  void record(const std::string& topic);
  /// Stops recording it (the recording is kept).
  void stop(const std::string& topic);

  struct Recording {
    struct Entry {
      SimDuration offset;  // relative to recording start
      /// Shares the delivered event's buffer: archiving appends a handle,
      /// and replay re-publishes the same allocation (zero-copy both ways).
      Payload payload;
    };
    SimTime started;
    std::vector<Entry> entries;
    bool active = false;
  };

  [[nodiscard]] const Recording* recording(const std::string& topic) const;
  [[nodiscard]] std::size_t recorded_events(const std::string& topic) const;

  /// Replays a finished recording onto `replay_topic`, preserving the
  /// original inter-event timing scaled by `speed` (2.0 = twice as fast).
  /// Returns false if there is no recording.
  bool replay(const std::string& topic, const std::string& replay_topic, double speed = 1.0);

 private:
  sim::Host* host_;
  broker::BrokerClient client_;
  std::map<std::string, Recording> recordings_;
};

}  // namespace gmmcs::streaming
