// Reproduces Figure 3 of the paper: average per-packet delay and jitter
// for 12 (of 400 total) video receivers of a 600 Kbps stream, comparing
// NaradaBrokering against the JMF reflector baseline.
//
// Paper reference values: delay  NB 80.76 ms vs JMF 229.23 ms
//                         jitter NB 13.38 ms vs JMF 15.55 ms
#include <chrono>
#include <cstdio>

#include "core/experiments.hpp"

namespace {

void print_series(const char* title, const gmmcs::Series& nb, const gmmcs::Series& jmf,
                  const char* unit) {
  std::printf("\n%s (per packet number, averaged over the 12 measured clients)\n", title);
  std::printf("%10s %18s %18s\n", "packet#", "NaradaBrokering", "JMF");
  gmmcs::Series nb_ds = nb.downsample(20);
  gmmcs::Series jmf_ds = jmf.downsample(20);
  std::size_t n = std::min(nb_ds.points().size(), jmf_ds.points().size());
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%10.0f %15.2f %s %15.2f %s\n", nb_ds.points()[i].x, nb_ds.points()[i].y, unit,
                jmf_ds.points()[i].y, unit);
  }
}

void write_json(const gmmcs::core::Fig3Result& nb, const gmmcs::core::Fig3Result& jmf) {
  FILE* json = std::fopen("BENCH_fig3_delay_jitter.json", "w");
  if (json == nullptr) return;
  std::fprintf(json, "{\n  \"bench\": \"fig3_delay_jitter\",\n");
  std::fprintf(json, "  \"paper\": {\"nb_delay_ms\": 80.76, \"jmf_delay_ms\": 229.23, "
                     "\"nb_jitter_ms\": 13.38, \"jmf_jitter_ms\": 15.55},\n");
  auto emit = [&](const char* key, const gmmcs::core::Fig3Result& r, const char* tail) {
    std::fprintf(json,
                 "  \"%s\": {\"avg_delay_ms\": %.3f, \"avg_jitter_ms\": %.3f, "
                 "\"loss_ratio\": %.6f, \"stream_kbps\": %.2f}%s\n",
                 key, r.avg_delay_ms, r.avg_jitter_ms, r.loss_ratio, r.stream_kbps, tail);
  };
  emit("narada", nb, ",");
  emit("jmf", jmf, "");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_fig3_delay_jitter.json\n");
}

}  // namespace

int main() {
  using namespace gmmcs::core;
  std::printf("=== Figure 3: NaradaBrokering vs JMF reflector ===\n");
  std::printf("Workload: 1 video sender @600 Kbps, 400 receivers,\n");
  std::printf("12 receivers co-located with the sender are measured.\n");

  auto wall = [](auto t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  Fig3Config nb_cfg;
  nb_cfg.fanout = Fanout::kBroker;
  auto t_nb = std::chrono::steady_clock::now();
  Fig3Result nb = run_fig3(nb_cfg);
  double nb_wall = wall(t_nb);

  Fig3Config jmf_cfg;
  jmf_cfg.fanout = Fanout::kJmfReflector;
  auto t_jmf = std::chrono::steady_clock::now();
  Fig3Result jmf = run_fig3(jmf_cfg);
  double jmf_wall = wall(t_jmf);

  print_series("Average delay per packet", nb.delay_ms, jmf.delay_ms, "ms");
  print_series("Average jitter per packet", nb.jitter_ms, jmf.jitter_ms, "ms");

  std::printf("\n%-28s %14s %14s %12s\n", "summary", "NaradaBrokering", "JMF", "paper(NB/JMF)");
  std::printf("%-28s %11.2f ms %11.2f ms %12s\n", "average delay", nb.avg_delay_ms,
              jmf.avg_delay_ms, "80.76/229.23");
  std::printf("%-28s %11.2f ms %11.2f ms %12s\n", "average jitter", nb.avg_jitter_ms,
              jmf.avg_jitter_ms, "13.38/15.55");
  std::printf("%-28s %13.1fx %14s %12s\n", "delay advantage (NB)",
              jmf.avg_delay_ms / nb.avg_delay_ms, "-", "2.8x");
  std::printf("%-28s %11.4f %%  %11.4f %%\n", "measured loss", nb.loss_ratio * 100.0,
              jmf.loss_ratio * 100.0);
  std::printf("%-28s %11.1f kbps %9.1f kbps\n", "stream bandwidth", nb.stream_kbps,
              jmf.stream_kbps);
  std::printf("%-28s %11.2f s  %11.2f s   (not a simulated metric)\n", "wall clock", nb_wall,
              jmf_wall);
  write_json(nb, jmf);
  return 0;
}
