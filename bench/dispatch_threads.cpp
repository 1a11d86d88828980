// Extension bench A8 (DESIGN.md §4): dispatch-pool parallelism.
//
// The paper's broker ran its optimized transmission on what behaves like
// a single dispatch path. This ablation asks what a larger pool buys:
// sweep the number of dispatch workers and find the video-client capacity
// knee (same quality criterion as claims C1/C2).
//
// Every cell runs the broker's one dispatch path (DESIGN.md §12.2):
// batched fan-out with the virtual-NIC admission gate, which makes
// dispatch threads block on a full egress queue instead of drop-tailing
// copies, so at 1400+ clients 4 and 8 threads are both NIC-bound.
//
// The pool swept across columns is *simulated* (cfg.dispatch.threads, a
// parameter of the modeled broker); the simulation itself runs serially
// and the trailing wall column is host time. --quick runs one small row
// and skips the JSON write.
#include <chrono>
#include <cstdio>
#include <string_view>
#include <vector>

#include "core/experiments.hpp"

using namespace gmmcs;

namespace {

struct Point {
  int clients = 0;
  int threads = 0;
  core::CapacityPoint p;
};

void write_json(const std::vector<Point>& points) {
  FILE* json = std::fopen("BENCH_dispatch_threads.json", "w");
  if (json == nullptr) return;
  std::fprintf(json, "{\n  \"bench\": \"dispatch_threads\",\n  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& pt = points[i];
    std::fprintf(json,
                 "    {\"clients\": %d, \"threads\": %d, "
                 "\"avg_delay_ms\": %.3f, \"loss_ratio\": %.5f, \"good_quality\": %s}%s\n",
                 pt.clients, pt.threads, pt.p.avg_delay_ms, pt.p.loss_ratio,
                 pt.p.good_quality ? "true" : "false", i + 1 < points.size() ? "," : "");
  }
  // Run log: dated notes on host-side perf work. Emitted here so the
  // checked-in JSON stays byte-identical to a fresh run (the simulated
  // metrics above are deterministic; wall-clock observations live only in
  // these notes and on stdout).
  std::fprintf(json,
               "  ],\n  \"run_log\": [\n"
               "    {\"date\": \"2026-08-07\", \"change\": \"SmallFn completion closures + "
               "recycled slot table for ServiceCenter copy jobs\", "
               "\"wall_clock\": \"interleaved best-of-4 user time 13.98s before vs 13.65s "
               "after; parity within run-to-run noise (simulation event processing "
               "dominates)\", "
               "\"allocations\": \"per warmed copy job >= 3 heap allocations before, <= 1 "
               "after (only the EventLoop callbacks_ map node remains; see ROADMAP) — "
               "certified by ServiceCenterSmallFn.WarmedCopyJobsDoNotAllocate\", "
               "\"metrics\": \"points array byte-identical before/after\"},\n"
               "    {\"date\": \"2026-08-09\", \"change\": \"epoch-snapshot control plane: "
               "lock-free snapshot reads, batched fan-out submission, virtual-NIC admission "
               "gate; broker hosts off the exclusive lane so EventLoop workers parallelise "
               "broker fan-out\", "
               "\"metrics\": \"locked-plane points byte-identical to the pre-snapshot tree; "
               "snapshot plane adds control_plane-tagged points (8 threads now strictly "
               "better than 4 at 1400+ clients)\"},\n"
               "    {\"date\": \"2026-10-17\", \"change\": \"one fan-out path: every broker "
               "fans out through one NIC-gated ServiceCenter batch that admits exactly like n "
               "per-copy submits; the locked/snapshot split and its duplicate half of the sweep "
               "are gone\", "
               "\"metrics\": \"every former locked cell byte-identical except the four "
               "NIC-saturated ones (1000x8, 1400x8, 2000x4, 2000x8), which now take the gated "
               "values (see EXPERIMENTS.md)\"}\n");
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_dispatch_threads.json\n");
}

void sweep(const std::vector<int>& client_counts, std::vector<Point>& points) {
  std::printf("\n%10s", "clients");
  const int thread_counts[] = {1, 2, 4, 8};
  for (int t : thread_counts) std::printf(" %11s-%d", "threads", t);
  std::printf(" %10s\n", "row wall");
  for (int clients : client_counts) {
    std::printf("%10d", clients);
    auto row_t0 = std::chrono::steady_clock::now();
    for (int threads : thread_counts) {
      core::CapacityConfig cfg;
      cfg.kind = core::MediaKind::kVideo;
      cfg.clients = clients;
      cfg.seconds = 6.0;
      cfg.dispatch = broker::DispatchConfig::optimized();
      cfg.dispatch.threads = threads;
      core::CapacityPoint p = core::run_capacity(cfg);
      points.push_back({clients, threads, p});
      char cell[32];
      std::snprintf(cell, sizeof cell, "%.0fms %s", p.avg_delay_ms,
                    p.good_quality ? "ok" : "BAD");
      std::printf(" %13s", cell);
    }
    double row_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - row_t0).count();
    std::printf(" %8.2f s\n", row_wall);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }
  std::printf("=== Extension A8: dispatch thread-pool scaling ===\n");
  std::printf("600 Kbps video fanout; quality = avg delay < 150 ms, loss < 2%%.\n");
  std::vector<int> client_counts = {300, 400, 500, 700, 1000, 1400, 2000};
  if (quick) client_counts = {300};
  std::vector<Point> points;
  sweep(client_counts, points);
  if (!quick) write_json(points);
  std::printf("\nReading: capacity scales near-linearly with dispatch workers (knee\n");
  std::printf("~420 -> ~800 -> ~1600 clients), confirming the broker was CPU-bound at\n");
  std::printf("the paper's operating point. At 1400+ clients the gigabit NIC is the\n");
  std::printf("wall instead: the NIC admission gate makes dispatch threads wait for egress\n");
  std::printf("room rather than drop-tail copies, so 4 and 8 workers give the same\n");
  std::printf("NIC-bound numbers (1400 clients: ~45 ms, no loss; 2000 clients offer\n");
  std::printf("1.2 Gbps and overflow the dispatch queue).\n");
  return 0;
}
