// Dense shortest-path routing tables of the broker fabric (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <vector>

namespace gmmcs::broker {

/// Shortest-path routing tables, dense over broker ids (add_broker assigns
/// ids 0..n-1): entry [from * n + to] of the two n x n matrices is the
/// first hop and the hop count from `from` toward `to`. A row is built
/// (finalize() or a repair covered `from`) exactly when its diagonal
/// distance is 0.
struct RouteTables {
  /// first_hop entry with no route (unreachable, self, or unbuilt row).
  static constexpr std::uint32_t kNoHop = 0xffffffffU;

  /// Matrix side: the broker count when the matrices were last sized.
  std::uint32_t n = 0;
  std::vector<std::uint32_t> first_hop;  // n * n; kNoHop where no route
  std::vector<int> hop_count;            // n * n; -1 where unreachable

  /// First hop from `from` toward `to`; throws std::logic_error for an
  /// unbuilt row ("finalize() not called") or no entry (partitioned, or
  /// `to == from`: "no route").
  [[nodiscard]] std::uint32_t next_hop(std::uint32_t from, std::uint32_t to) const {
    if (distance(from, from) != 0) throw_not_finalized();
    const std::uint32_t hop = to < n ? first_hop[std::size_t{from} * n + to] : kNoHop;
    if (hop == kNoHop) throw_no_route(from, to);
    return hop;
  }
  /// Hop distance; -1 if unreachable, out of range, or the row is unbuilt.
  [[nodiscard]] int distance(std::uint32_t from, std::uint32_t to) const {
    return from < n && to < n ? hop_count[std::size_t{from} * n + to] : -1;
  }

 private:
  [[noreturn]] static void throw_not_finalized();
  [[noreturn]] static void throw_no_route(std::uint32_t from, std::uint32_t to);
};

}  // namespace gmmcs::broker
