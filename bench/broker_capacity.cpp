// Reproduces the paper's §3.2 capacity claims:
//   "one broker can support more than a thousand audio clients or more
//    than 400 video clients at one time providing a very good quality"
//
// Sweeps receiver counts for a single broker carrying one 64 Kbps G.711
// audio stream or one 600 Kbps video stream and reports delay/loss with
// the paper's quality criterion (avg delay < 150 ms, loss < 2%).
// Alongside the table it writes BENCH_broker_capacity.json so the bench
// trajectory is machine-readable.
//
// Each claim is swept at two simulated dispatch-pool sizes, tagged
// "threads" in the JSON: 1 (the paper's single optimized dispatch path,
// the claims' operating point) and 8 (DispatchConfig::snapshot(), the
// pool the production broker ran). The 8-thread video sweep extends past
// 600 clients because that is where its knee lives.
//
//   --quick             one small point per sweep, no JSON write: a smoke
//                       run of broker fan-out without the full sweep
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/payload.hpp"
#include "core/experiments.hpp"

namespace {

struct JsonPoint {
  std::string sweep;
  int threads = 0;
  gmmcs::core::CapacityPoint p;
  // Copy-discipline counters across the point's run: steady-state broker
  // fan-out must not deep-copy payload bytes, so both stay 0.
  std::uint64_t payload_copies = 0;
  std::uint64_t payload_bytes = 0;
};

std::vector<JsonPoint> g_points;

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void sweep(gmmcs::core::MediaKind kind, const char* title, const char* key,
           const gmmcs::broker::DispatchConfig& dispatch, const std::vector<int>& counts,
           int paper_claim) {
  using namespace gmmcs::core;
  std::printf("\n=== %s [%d dispatch threads] (paper claim: good quality beyond %d clients) ===\n",
              title, dispatch.threads, paper_claim);
  std::printf("%10s %14s %16s %10s %12s %10s %10s\n", "clients", "avg delay", "mean max delay",
              "loss", "offered", "quality", "wall");
  int last_good = 0;
  for (int n : counts) {
    CapacityConfig cfg;
    cfg.kind = kind;
    cfg.clients = n;
    cfg.dispatch = dispatch;
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t cp0 = gmmcs::payload_copy_count();
    std::uint64_t cb0 = gmmcs::payload_bytes_copied();
    CapacityPoint p = run_capacity(cfg);
    std::uint64_t cp = gmmcs::payload_copy_count() - cp0;
    std::uint64_t cb = gmmcs::payload_bytes_copied() - cb0;
    double wall_s = wall_seconds_since(t0);
    std::printf("%10d %11.2f ms %13.2f ms %9.3f%% %9.1f Mbps %10s %8.2f s\n", p.clients,
                p.avg_delay_ms, p.mean_max_delay_ms, p.loss_ratio * 100.0, p.offered_mbps,
                p.good_quality ? "good" : "DEGRADED", wall_s);
    if (p.good_quality) last_good = n;
    g_points.push_back({key, dispatch.threads, p, cp, cb});
  }
  std::printf("  -> largest good-quality client count in sweep: %d (paper: >%d)\n", last_good,
              paper_claim);
}

void write_json() {
  FILE* json = std::fopen("BENCH_broker_capacity.json", "w");
  if (json == nullptr) return;
  std::fprintf(json, "{\n  \"bench\": \"broker_capacity\",\n  \"points\": [\n");
  for (std::size_t i = 0; i < g_points.size(); ++i) {
    const auto& [sweep_key, threads, p, copies, copied_bytes] = g_points[i];
    std::fprintf(json,
                 "    {\"sweep\": \"%s\", \"threads\": %d, \"clients\": %d, "
                 "\"avg_delay_ms\": %.3f, \"mean_max_delay_ms\": %.3f, \"loss_ratio\": %.5f, "
                 "\"offered_mbps\": %.2f, \"good_quality\": %s, "
                 "\"payload_copy_count\": %llu, \"payload_bytes_copied\": %llu}%s\n",
                 sweep_key.c_str(), threads, p.clients, p.avg_delay_ms, p.mean_max_delay_ms,
                 p.loss_ratio, p.offered_mbps, p.good_quality ? "true" : "false",
                 static_cast<unsigned long long>(copies),
                 static_cast<unsigned long long>(copied_bytes),
                 i + 1 < g_points.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_broker_capacity.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmmcs::core;
  using gmmcs::broker::DispatchConfig;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }
  std::printf("=== Broker capacity (claims C1/C2, DESIGN.md section 4) ===\n");
  std::printf("Quality criterion: avg delay < 150 ms and loss < 2%%.\n");

  std::vector<int> audio_counts = {200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800};
  std::vector<int> video_counts = {100, 200, 300, 400, 420, 440, 470, 500, 600};
  // The 8-thread pool's video knee lives beyond the 1-thread sweep's range.
  std::vector<int> video_8_thread_counts = {100, 200, 300, 400, 420, 440, 470,
                                            500, 600, 800, 1000, 1200};
  if (quick) {
    audio_counts = {200};
    video_counts = {100};
    video_8_thread_counts = {100};
  }

  for (const DispatchConfig& dispatch : {DispatchConfig::optimized(), DispatchConfig::snapshot()}) {
    sweep(MediaKind::kAudio, "C1: audio clients per broker (64 Kbps G.711)", "audio", dispatch,
          audio_counts, 1000);
    sweep(MediaKind::kVideo, "C2: video clients per broker (600 Kbps)", "video", dispatch,
          dispatch.threads == 8 ? video_8_thread_counts : video_counts, 400);
  }
  if (!quick) write_json();
  return 0;
}
