#include "broker/control_snapshot.hpp"

#include <algorithm>
#include <stdexcept>

namespace gmmcs::broker {

std::vector<InterestTable::SubscriberId> InterestTable::matches(const std::string& topic,
                                                                SubscriberId exclude) const {
  // Published topics arrive normalized (BrokerClient::publish), so the
  // usual call borrows `topic`; the only allocation is the result, sized
  // once for every id that could match.
  std::string renormalized;
  const bool normalized = is_normalized_topic(topic);
  if (!normalized) renormalized = normalize_topic(topic);
  const std::string& key = normalized ? topic : renormalized;
  const auto it = exact.find(key);
  std::size_t bound = it != exact.end() ? it->second.size() : 0;
  for (const WildcardRow& row : wildcards) bound += row.ids.size();
  std::vector<SubscriberId> out;
  out.reserve(bound);
  if (it != exact.end()) out.assign(it->second.begin(), it->second.end());  // already sorted
  if (!wildcards.empty()) {
    for (const WildcardRow& row : wildcards) {
      if (!row.filter.matches(key)) continue;
      out.insert(out.end(), row.ids.begin(), row.ids.end());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  std::erase(out, exclude);
  return out;
}

void RouteTables::throw_not_finalized() {
  throw std::logic_error("BrokerNetwork: finalize() not called");
}

void RouteTables::throw_no_route(std::uint32_t from, std::uint32_t to) {
  throw std::logic_error("BrokerNetwork: no route from " + std::to_string(from) + " to " +
                         std::to_string(to));
}

}  // namespace gmmcs::broker
