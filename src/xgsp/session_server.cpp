#include "xgsp/session_server.hpp"

#include "common/log.hpp"

namespace gmmcs::xgsp {

SessionServer::SessionServer(sim::Host& host, sim::Endpoint broker_stream)
    : client_(host, broker_stream,
              broker::BrokerClient::Config{.name = "xgsp-session-server",
                                           .udp_delivery = false, .udp_publish = false}) {
  client_.subscribe(kControlTopic);
  client_.on_event([this](const broker::Event& ev) {
    auto req = Message::parse(gmmcs::to_string(std::span<const std::uint8_t>(ev.payload)));
    Message reply = req.ok() ? handle(req.value()) : Message::error(req.error().message);
    if (req.ok() && !req.value().reply_to.empty()) {
      reply.seq = req.value().seq;
      client_.publish(req.value().reply_to, to_bytes(reply.serialize()),
                      broker::QoS::kReliable);
    }
  });
}

Session* SessionServer::find(const std::string& id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

Message SessionServer::handle(const Message& request) {
  ++requests_;
  switch (request.type) {
    case MsgType::kCreateSession: return do_create(request);
    case MsgType::kJoinSession: return do_join(request);
    case MsgType::kLeaveSession: return do_leave(request);
    case MsgType::kEndSession: return do_end(request);
    case MsgType::kListSessions: return do_list(request);
    case MsgType::kFloorRequest:
    case MsgType::kFloorRelease: return do_floor(request);
    case MsgType::kSessionInfo:
    case MsgType::kJoinAck:
    case MsgType::kAck:
    case MsgType::kSessionList:
    case MsgType::kFloorStatus:
    case MsgType::kError:
      break;
  }
  return Message::error("xgsp: not a request: " + std::string(to_string(request.type)));
}

Message SessionServer::do_create(const Message& req) {
  if (req.title.empty()) return Message::error("xgsp: session needs a title");
  std::string id = std::to_string(ids_.next());
  Session s(id, req.title, req.user, req.mode);
  for (const auto& m : req.media) s.add_stream(m.kind, m.codec);
  if (req.media.empty()) {
    // Default A/V session.
    s.add_stream("audio", "PCMU");
    s.add_stream("video", "H261");
  }
  auto [it, inserted] = sessions_.emplace(id, std::move(s));
  GMMCS_INFO("xgsp") << "created session " << id << " '" << req.title << "'";
  if (observer_) observer_(it->second, MsgType::kCreateSession);
  Message reply;
  reply.type = MsgType::kSessionInfo;
  reply.sessions.push_back(it->second);
  return reply;
}

Message SessionServer::do_join(const Message& req) {
  Session* s = find(req.session_id);
  if (s == nullptr) return Message::error("xgsp: no such session " + req.session_id);
  Participant p;
  p.user = req.user;
  p.kind = req.endpoint_kind;
  p.moderator = (s->creator() == req.user);
  if (!s->join(p)) return Message::error("xgsp: join refused for " + req.user);
  notify(*s, MsgType::kJoinSession);
  if (observer_) observer_(*s, MsgType::kJoinSession);
  Message reply;
  reply.type = MsgType::kJoinAck;
  reply.sessions.push_back(*s);
  return reply;
}

Message SessionServer::do_leave(const Message& req) {
  Session* s = find(req.session_id);
  if (s == nullptr) return Message::error("xgsp: no such session " + req.session_id);
  if (!s->leave(req.user)) return Message::error("xgsp: " + req.user + " is not a member");
  notify(*s, MsgType::kLeaveSession);
  if (observer_) observer_(*s, MsgType::kLeaveSession);
  Message reply;
  reply.type = MsgType::kAck;
  reply.session_id = req.session_id;
  return reply;
}

Message SessionServer::do_end(const Message& req) {
  Session* s = find(req.session_id);
  if (s == nullptr) return Message::error("xgsp: no such session " + req.session_id);
  s->end();
  notify(*s, MsgType::kEndSession);
  if (observer_) observer_(*s, MsgType::kEndSession);
  Message reply;
  reply.type = MsgType::kAck;
  reply.session_id = req.session_id;
  return reply;
}

Message SessionServer::do_list(const Message&) const {
  Message reply;
  reply.type = MsgType::kSessionList;
  for (const auto& [id, s] : sessions_) reply.sessions.push_back(s);
  return reply;
}

Message SessionServer::do_floor(const Message& req) {
  Session* s = find(req.session_id);
  if (s == nullptr) return Message::error("xgsp: no such session " + req.session_id);
  if (req.type == MsgType::kFloorRequest) {
    s->request_floor(req.user);
  } else {
    s->release_floor(req.user);
  }
  notify(*s, req.type);
  Message reply;
  reply.type = MsgType::kFloorStatus;
  reply.session_id = req.session_id;
  reply.floor_holder = s->floor_holder();
  reply.floor_queue = s->floor_queue();
  return reply;
}

void SessionServer::notify(const Session& s, MsgType change) {
  Message note;
  note.type = MsgType::kSessionInfo;
  note.session_id = s.id();
  note.reason = to_string(change);  // what changed, for observers
  note.sessions.push_back(s);
  note.floor_holder = s.floor_holder();
  client_.publish(s.control_topic(), to_bytes(note.serialize()), broker::QoS::kReliable);
}

}  // namespace gmmcs::xgsp
