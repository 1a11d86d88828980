#include "sim/chaos_gen.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/random.hpp"

namespace gmmcs::sim {

namespace {

using FaultKind = FaultPlan::FaultKind;

constexpr std::int64_t kTrafficStartMs = 300;
// Faults on the reliable subscriber's path must leave a clean tail of
// in-order events after they heal: gap detection rides on later events
// (ReliableSubscriber adopts the first seq it sees as base, and the SYNC
// probe chain ends once a probe finds it up to date), so a fault that
// swallows the head or extends past the publish schedule could hide loss
// from the oracle legitimately. 600 ms in, 800 ms of clean tail out.
constexpr std::int64_t kRsubSafeFromMs = 600;
constexpr std::int64_t kRsubTailMarginMs = 800;

std::string ref_token(const ChaosRef& r) {
  switch (r.kind) {
    case ChaosRefKind::kBroker:
      return "b" + std::to_string(r.index);
    case ChaosRefKind::kClient:
      return "c" + std::to_string(r.index);
    case ChaosRefKind::kRsub:
      return "r";
  }
  return "?";
}

bool parse_ref(const std::string& tok, ChaosRef& out) {
  if (tok == "r") {
    out = {ChaosRefKind::kRsub, 0};
    return true;
  }
  if (tok.size() < 2 || (tok[0] != 'b' && tok[0] != 'c')) return false;
  out.kind = tok[0] == 'b' ? ChaosRefKind::kBroker : ChaosRefKind::kClient;
  out.index = std::atoi(tok.c_str() + 1);
  return true;
}

std::string time_token(SimTime t) {
  return t == SimTime::infinity() ? "inf" : std::to_string(t.ns());
}

bool parse_time(const std::string& tok, SimTime& out) {
  if (tok == "inf") {
    out = SimTime::infinity();
    return true;
  }
  out = SimTime{std::atoll(tok.c_str())};
  return true;
}

/// Shortest-roundtrip double rendering (%.17g always reparses exactly).
std::string double_token(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* topology_token(ChaosSpec::Topology t) {
  switch (t) {
    case ChaosSpec::Topology::kRing:
      return "ring";
    case ChaosSpec::Topology::kTree:
      return "tree";
    case ChaosSpec::Topology::kMesh:
      return "mesh";
  }
  return "?";
}

const char* fault_token(FaultKind k) {
  switch (k) {
    case FaultKind::kHostCrash:
      return "crash";
    case FaultKind::kLinkFlap:
      return "flap";
    case FaultKind::kLossBurst:
      return "burst";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kOneWayCut:
      return "oneway";
    case FaultKind::kGrayHost:
      return "gray";
  }
  return "?";
}

}  // namespace

std::string ChaosSpec::serialize() const {
  std::string out = "chaos-spec v1\n";
  out += "seed " + std::to_string(seed) + "\n";
  out += "topology " + std::string(topology_token(topology)) + "\n";
  out += "brokers " + std::to_string(brokers) + "\n";
  out += "horizon " + std::to_string(horizon.ns()) + "\n";
  out += "settle " + std::to_string(settle.ns()) + "\n";
  out += "reliable " + std::to_string(reliable_events) + " " +
         std::to_string(reliable_spacing.ns()) + "\n";
  for (const auto& [a, b] : links) {
    out += "link " + std::to_string(a) + " " + std::to_string(b) + "\n";
  }
  for (const ChaosClient& c : clients) {
    out += "client " + std::to_string(c.broker) + " " + std::to_string(c.stream_only ? 1 : 0) +
           " " + std::to_string(c.publisher ? 1 : 0) + " " + std::to_string(c.topic) + " " +
           std::to_string(c.events) + " " + std::to_string(c.spacing.ns()) + "\n";
  }
  for (const ChaosFault& f : faults) {
    out += "fault " + std::string(fault_token(f.kind));
    switch (f.kind) {
      case FaultKind::kHostCrash:
      case FaultKind::kGrayHost:
        out += " " + ref_token(f.a);
        break;
      case FaultKind::kLinkFlap:
      case FaultKind::kLossBurst:
      case FaultKind::kOneWayCut:
        out += " " + ref_token(f.a) + " " + ref_token(f.b);
        break;
      case FaultKind::kPartition:
        break;
    }
    out += " " + time_token(f.from) + " " + time_token(f.until);
    if (f.kind == FaultKind::kLossBurst || f.kind == FaultKind::kGrayHost) {
      out += " " + double_token(f.loss) + " " + double_token(f.burst_length);
    }
    if (f.kind == FaultKind::kPartition) {
      out += " a";
      for (int i : f.group_a) out += " " + std::to_string(i);
      out += " b";
      for (int i : f.group_b) out += " " + std::to_string(i);
    }
    out += "\n";
  }
  return out;
}

std::optional<ChaosSpec> ChaosSpec::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "chaos-spec v1") return std::nullopt;
  ChaosSpec s;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "seed") {
      ls >> s.seed;
    } else if (key == "topology") {
      std::string t;
      ls >> t;
      if (t == "ring") {
        s.topology = Topology::kRing;
      } else if (t == "tree") {
        s.topology = Topology::kTree;
      } else if (t == "mesh") {
        s.topology = Topology::kMesh;
      } else {
        return std::nullopt;
      }
    } else if (key == "brokers") {
      ls >> s.brokers;
    } else if (key == "horizon") {
      std::int64_t ns = 0;
      ls >> ns;
      s.horizon = SimTime{ns};
    } else if (key == "settle") {
      std::int64_t ns = 0;
      ls >> ns;
      s.settle = SimDuration{ns};
    } else if (key == "reliable") {
      std::int64_t ns = 0;
      ls >> s.reliable_events >> ns;
      s.reliable_spacing = SimDuration{ns};
    } else if (key == "link") {
      int a = 0, b = 0;
      ls >> a >> b;
      s.links.emplace_back(a, b);
    } else if (key == "client") {
      ChaosClient c;
      int so = 0, pub = 0;
      std::int64_t ns = 0;
      ls >> c.broker >> so >> pub >> c.topic >> c.events >> ns;
      c.stream_only = so != 0;
      c.publisher = pub != 0;
      c.spacing = SimDuration{ns};
      s.clients.push_back(c);
    } else if (key == "fault") {
      ChaosFault f;
      std::string kind, tok;
      ls >> kind;
      if (kind == "crash") {
        f.kind = FaultKind::kHostCrash;
      } else if (kind == "flap") {
        f.kind = FaultKind::kLinkFlap;
      } else if (kind == "burst") {
        f.kind = FaultKind::kLossBurst;
      } else if (kind == "partition") {
        f.kind = FaultKind::kPartition;
      } else if (kind == "oneway") {
        f.kind = FaultKind::kOneWayCut;
      } else if (kind == "gray") {
        f.kind = FaultKind::kGrayHost;
      } else {
        return std::nullopt;
      }
      if (f.kind == FaultKind::kHostCrash || f.kind == FaultKind::kGrayHost) {
        ls >> tok;
        if (!parse_ref(tok, f.a)) return std::nullopt;
      } else if (f.kind != FaultKind::kPartition) {
        ls >> tok;
        if (!parse_ref(tok, f.a)) return std::nullopt;
        ls >> tok;
        if (!parse_ref(tok, f.b)) return std::nullopt;
      }
      ls >> tok;
      if (!parse_time(tok, f.from)) return std::nullopt;
      ls >> tok;
      if (!parse_time(tok, f.until)) return std::nullopt;
      if (f.kind == FaultKind::kLossBurst || f.kind == FaultKind::kGrayHost) {
        ls >> f.loss >> f.burst_length;
      }
      if (f.kind == FaultKind::kPartition) {
        ls >> tok;
        if (tok != "a") return std::nullopt;
        std::vector<int>* grp = &f.group_a;
        while (ls >> tok) {
          if (tok == "b") {
            grp = &f.group_b;
          } else {
            grp->push_back(std::atoi(tok.c_str()));
          }
        }
      }
      if (ls.fail() && !ls.eof()) return std::nullopt;
      s.faults.push_back(std::move(f));
    } else {
      return std::nullopt;
    }
  }
  return s;
}

std::uint64_t ChaosSpec::hash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (unsigned char c : serialize()) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

ChaosSpec ChaosGen::next() {
  std::uint64_t state = seed_ + 0x9E3779B97F4A7C15ull * ++count_;
  return generate(splitmix64(state));
}

ChaosSpec ChaosGen::generate(std::uint64_t seed) {
  Rng rng(seed);
  ChaosSpec s;
  s.seed = seed;

  // --- Topology ---
  s.brokers = static_cast<int>(rng.uniform_int(3, 6));
  switch (rng.uniform_int(0, 2)) {
    case 0:
      s.topology = ChaosSpec::Topology::kRing;
      for (int i = 0; i < s.brokers; ++i) s.links.emplace_back(i, (i + 1) % s.brokers);
      break;
    case 1:
      s.topology = ChaosSpec::Topology::kTree;
      for (int i = 1; i < s.brokers; ++i) {
        s.links.emplace_back(static_cast<int>(rng.uniform_int(0, i - 1)), i);
      }
      break;
    default:
      s.topology = ChaosSpec::Topology::kMesh;
      for (int i = 0; i < s.brokers; ++i) {
        for (int j = i + 1; j < s.brokers; ++j) s.links.emplace_back(i, j);
      }
      break;
  }

  // --- Schedules ---
  const std::int64_t horizon_ms = rng.uniform_int(3000, 4500);
  s.horizon = SimTime{duration_ms(horizon_ms).ns()};
  s.settle = duration_ms(2500);
  // Reliable stream spans most of the run (ends ~400 ms before the
  // horizon) so every rsub-path fault is followed by live traffic.
  const std::int64_t rel_spacing_ms = rng.uniform_int(20, 50);
  s.reliable_spacing = duration_ms(rel_spacing_ms);
  s.reliable_events =
      static_cast<int>((horizon_ms - kTrafficStartMs - 400) / rel_spacing_ms);
  const std::int64_t rel_end_ms = kTrafficStartMs + s.reliable_events * rel_spacing_ms;

  const int n_clients = static_cast<int>(rng.uniform_int(2, 5));
  for (int i = 0; i < n_clients; ++i) {
    ChaosClient c;
    c.broker = static_cast<int>(rng.uniform_int(0, s.brokers - 1));
    c.stream_only = rng.chance(0.35);
    c.publisher = rng.chance(0.5);
    c.topic = static_cast<int>(rng.uniform_int(0, 2));
    if (c.publisher) {
      c.events = static_cast<int>(rng.uniform_int(5, 25));
      c.spacing = duration_ms(rng.uniform_int(20, 60));
    }
    s.clients.push_back(c);
  }

  // --- Faults ---
  // General window: start after setup traffic is flowing, heal at least
  // 400 ms before the horizon so detectors and reconnects converge
  // within the settle period.
  auto window = [&rng, horizon_ms](ChaosFault& f) {
    const std::int64_t from_ms = rng.uniform_int(kTrafficStartMs, horizon_ms - 1600);
    const std::int64_t dur_ms = rng.uniform_int(300, 1200);
    f.from = SimTime{duration_ms(from_ms).ns()};
    f.until = SimTime{duration_ms(std::min(from_ms + dur_ms, horizon_ms - 400)).ns()};
  };
  auto rsub_window = [&rng, rel_end_ms](ChaosFault& f) {
    const std::int64_t hi = rel_end_ms - kRsubTailMarginMs;
    const std::int64_t from_ms = rng.uniform_int(kRsubSafeFromMs, hi - 300);
    const std::int64_t dur_ms = rng.uniform_int(300, 1200);
    f.from = SimTime{duration_ms(from_ms).ns()};
    f.until = SimTime{duration_ms(std::min(from_ms + dur_ms, hi)).ns()};
  };
  auto fabric_link = [&rng, &s] {
    return s.links[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.links.size()) - 1))];
  };
  // Endpoint pair for a path-shaped fault (burst / one-way cut): a fabric
  // link, a client <-> its broker path, or the reliable subscriber's
  // delivery path from broker 0 (inside the tail-safe window).
  auto path_endpoints = [&](ChaosFault& f) {
    const double r = rng.uniform();
    if (r < 0.5) {
      auto [a, b] = fabric_link();
      f.a = {ChaosRefKind::kBroker, a};
      f.b = {ChaosRefKind::kBroker, b};
      if (rng.chance(0.5)) std::swap(f.a, f.b);
      window(f);
    } else if (r < 0.8) {
      const int ci = static_cast<int>(rng.uniform_int(0, n_clients - 1));
      f.a = {ChaosRefKind::kClient, ci};
      f.b = {ChaosRefKind::kBroker, s.clients[static_cast<std::size_t>(ci)].broker};
      if (rng.chance(0.5)) std::swap(f.a, f.b);
      window(f);
    } else {
      f.a = {ChaosRefKind::kBroker, 0};
      f.b = {ChaosRefKind::kRsub, 0};
      rsub_window(f);
    }
  };

  const int n_faults = static_cast<int>(rng.uniform_int(1, 5));
  for (int i = 0; i < n_faults; ++i) {
    ChaosFault f;
    const double pick = rng.uniform();
    if (pick < 0.22 && s.brokers > 1) {
      // Broker crash; broker 0 anchors the reliable pipeline and is exempt.
      f.kind = FaultKind::kHostCrash;
      f.a = {ChaosRefKind::kBroker, static_cast<int>(rng.uniform_int(1, s.brokers - 1))};
      window(f);
    } else if (pick < 0.40) {
      // Client host crash; permanent with some probability — the ghost
      // client record shape the keepalive reaper exists for.
      f.kind = FaultKind::kHostCrash;
      f.a = {ChaosRefKind::kClient, static_cast<int>(rng.uniform_int(0, n_clients - 1))};
      window(f);
      if (rng.chance(0.3)) f.until = SimTime::infinity();
    } else if (pick < 0.55) {
      f.kind = FaultKind::kLinkFlap;
      auto [a, b] = fabric_link();
      f.a = {ChaosRefKind::kBroker, a};
      f.b = {ChaosRefKind::kBroker, b};
      window(f);
    } else if (pick < 0.70) {
      f.kind = FaultKind::kLossBurst;
      path_endpoints(f);
      f.loss = rng.uniform(0.3, 0.9);
      f.burst_length = rng.uniform(1.0, 5.0);
    } else if (pick < 0.82) {
      f.kind = FaultKind::kOneWayCut;
      path_endpoints(f);
    } else if (pick < 0.92 || s.brokers < 2) {
      // Gray failure: a host's best-effort egress degrades while links
      // stay up and reliable control traffic flows. Broker 0 is excluded
      // (its egress carries the reliable subscriber's delivery path
      // outside the tail-safe window).
      f.kind = FaultKind::kGrayHost;
      if (rng.chance(0.6) && s.brokers > 1) {
        f.a = {ChaosRefKind::kBroker, static_cast<int>(rng.uniform_int(1, s.brokers - 1))};
      } else {
        f.a = {ChaosRefKind::kClient, static_cast<int>(rng.uniform_int(0, n_clients - 1))};
      }
      window(f);
      f.loss = rng.uniform(0.3, 0.9);
      f.burst_length = rng.uniform(1.0, 5.0);
    } else {
      f.kind = FaultKind::kPartition;
      f.group_a.push_back(0);
      for (int b = 1; b < s.brokers; ++b) {
        (rng.chance(0.5) ? f.group_a : f.group_b).push_back(b);
      }
      if (f.group_b.empty()) {
        f.group_a.pop_back();
        f.group_b.push_back(s.brokers - 1);
      }
      window(f);
    }
    s.faults.push_back(std::move(f));
  }
  return s;
}

bool write_spec_file(const std::string& path, const ChaosSpec& spec) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << spec.serialize();
  return static_cast<bool>(out);
}

std::optional<ChaosSpec> read_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return ChaosSpec::parse(buf.str());
}

}  // namespace gmmcs::sim
