// Meeting scheduler: the "scheduled mode" of the hybrid collaboration
// pattern (paper §2.1).
//
// "People have to log into some web site or use emails to make
// reservation of some virtual meeting room, send invitations to other
// attendee in advance."
//
// Reservations auto-start: at the reserved instant the scheduler creates
// the session on the SessionServer (scheduled mode), and ends it when the
// reservation expires. Ad-hoc sessions bypass this entirely, going
// straight to the session server — together they form the hybrid pattern.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "sim/event_loop.hpp"
#include "xgsp/session_server.hpp"

namespace gmmcs::xgsp {

struct Reservation {
  std::string id;
  std::string title;
  std::string organizer;
  SimTime start;
  SimDuration duration;
  std::vector<std::string> invitees;
  std::vector<std::pair<std::string, std::string>> media;  // (kind, codec)
  /// Session id once the meeting has started; empty before.
  std::string session_id;
  bool cancelled = false;
  bool finished = false;
};

class MeetingScheduler {
 public:
  MeetingScheduler(sim::EventLoop& loop, SessionServer& sessions);

  /// Books a meeting room; returns the reservation id. `start` must be in
  /// the future.
  std::string reserve(const std::string& title, const std::string& organizer, SimTime start,
                      SimDuration duration, std::vector<std::string> invitees,
                      std::vector<std::pair<std::string, std::string>> media = {});
  bool cancel(const std::string& reservation_id);

  [[nodiscard]] const Reservation* find(const std::string& reservation_id) const;
  /// Reservations that have not started yet.
  [[nodiscard]] std::vector<const Reservation*> upcoming() const;

  /// Fires when a reserved meeting auto-starts; carries the reservation
  /// (with session_id filled) — "send invitations to other attendees".
  /// Multiple observers may register (the facade adds its own invitation
  /// sender alongside application handlers).
  void on_started(std::function<void(const Reservation&)> handler);
  void on_finished(std::function<void(const Reservation&)> handler);

 private:
  void start_meeting(const std::string& reservation_id);
  void finish_meeting(const std::string& reservation_id);

  sim::EventLoop* loop_;
  SessionServer* sessions_;
  IdGenerator ids_;
  std::map<std::string, Reservation> reservations_;
  std::vector<std::function<void(const Reservation&)>> started_;
  std::vector<std::function<void(const Reservation&)>> finished_;
};

}  // namespace gmmcs::xgsp
