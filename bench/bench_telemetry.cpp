// Microbenchmarks of the telemetry layer itself, plus the A/B measurement
// the subsystem is accountable to: BM_RuntimePipeline (bench_simcore's
// end-to-end host-cost benchmark) with metrics recording off vs on. The
// instrumented hot paths must cost one relaxed load when recording is off
// and stay within a few percent when it is on.

#include <arpa/inet.h>
#include <benchmark/benchmark.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>

#include "gbench_main.hpp"
#include "rt/context.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/obs_server.hpp"
#include "telemetry/span.hpp"

namespace {

void BM_CounterAddOff(benchmark::State& state) {
  ms::telemetry::set_enabled(false);
  ms::telemetry::Counter c;
  for (auto _ : state) {
    c.add(1);
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAddOff);

void BM_CounterAddOn(benchmark::State& state) {
  ms::telemetry::set_enabled(true);
  ms::telemetry::Counter c;
  for (auto _ : state) {
    c.add(1);
  }
  ms::telemetry::set_enabled(false);
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAddOn);

void BM_CounterAddContended(benchmark::State& state) {
  // Sharded counter under true multi-thread contention (the pool-worker
  // pattern). google-benchmark runs the same closure on every thread.
  static ms::telemetry::Counter c;
  if (state.thread_index() == 0) ms::telemetry::set_enabled(true);
  for (auto _ : state) {
    c.add(1);
  }
  if (state.thread_index() == 0) ms::telemetry::set_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAddContended)->Threads(4);

void BM_HistogramObserve(benchmark::State& state) {
  ms::telemetry::set_enabled(true);
  ms::telemetry::Histogram h;
  std::uint64_t x = 1;
  for (auto _ : state) {
    h.observe(x);
    x = (x * 2862933555777941757ull + 3037000493ull) >> 32;  // vary the bucket
  }
  ms::telemetry::set_enabled(false);
  benchmark::DoNotOptimize(h.snapshot().sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

void BM_ScopedSpanOff(benchmark::State& state) {
  ms::telemetry::set_enabled(false);
  for (auto _ : state) {
    const ms::telemetry::ScopedSpan s("bench.span.off");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedSpanOff);

void BM_ScopedSpanOn(benchmark::State& state) {
  ms::telemetry::set_enabled(true);
  for (auto _ : state) {
    const ms::telemetry::ScopedSpan s("bench.span.on");
    benchmark::ClobberMemory();
  }
  ms::telemetry::set_enabled(false);
  ms::telemetry::clear_spans();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedSpanOn);

/// glibc retires its single-threaded malloc/atomic fast paths the moment a
/// second thread is created, and never restores them — the same pipeline
/// measures ~2x slower on a process that has ever spawned a thread. Real
/// deployments (sweep pool, ObsServer) are always multi-threaded, and the
/// scraped-vs-unscraped A/B below is only meaningful within one regime, so
/// every pipeline benchmark pins itself there up front.
void pin_multithreaded_regime() {
  static const bool pinned = [] {
    std::thread([] {}).join();
    return true;
  }();
  (void)pinned;
}

/// Body copied from bench_simcore's BM_RuntimePipeline so the off/on pair
/// measures exactly the workload the <=2% overhead budget is defined on.
void runtime_pipeline(benchmark::State& state) {
  pin_multithreaded_regime();
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ms::rt::Context ctx(ms::sim::SimConfig::phi_31sp());
    ctx.setup(4);
    const auto buf = ctx.create_virtual_buffer(static_cast<std::size_t>(tasks) << 10);
    for (int t = 0; t < tasks; ++t) {
      auto& s = ctx.stream(t % 4);
      const std::size_t off = static_cast<std::size_t>(t) << 10;
      s.enqueue_h2d(buf, off, 1 << 10);
      ms::sim::KernelWork w;
      w.kind = ms::sim::KernelKind::Streaming;
      w.elems = 1e5;
      s.enqueue_kernel({"k", w, {}});
      s.enqueue_d2h(buf, off, 1 << 10);
    }
    ctx.synchronize();
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}

void BM_PipelineMetricsOff(benchmark::State& state) {
  ms::telemetry::set_enabled(false);
  runtime_pipeline(state);
}
BENCHMARK(BM_PipelineMetricsOff)->Arg(64)->Arg(1024);

void BM_PipelineMetricsOn(benchmark::State& state) {
  ms::telemetry::set_enabled(true);
  runtime_pipeline(state);
  ms::telemetry::set_enabled(false);
  ms::telemetry::clear_spans();
}
BENCHMARK(BM_PipelineMetricsOn)->Arg(64)->Arg(1024);

/// One blocking HTTP GET against the embedded endpoint; returns the bytes
/// read (0 on any socket failure — the benchmark only needs the traffic).
std::size_t obs_get(int port, const char* target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::size_t got = 0;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) {
    std::string req = std::string("GET ") + target + " HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n";
    if (::send(fd, req.data(), req.size(), 0) == static_cast<ssize_t>(req.size())) {
      char buf[4096];
      for (ssize_t r = 0; (r = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
        got += static_cast<std::size_t>(r);
      }
    }
  }
  ::close(fd);
  return got;
}

/// Full registry render — the cost of answering one /metrics scrape, minus
/// the socket hop. This is what the ObsServer's accept thread pays per GET.
void BM_SnapshotRenderPrometheus(benchmark::State& state) {
  ms::telemetry::set_enabled(true);
  // Make sure there is a representative catalog to render.
  auto& fam = ms::telemetry::registry().counter_family("bench_obs_render_total",
                                                       "render-cost fixture", "worker");
  for (int w = 0; w < 8; ++w) fam.with(std::to_string(w)).add(1);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    ms::telemetry::write_snapshot(os);
    bytes = os.str().size();
    benchmark::DoNotOptimize(bytes);
  }
  ms::telemetry::set_enabled(false);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_SnapshotRenderPrometheus);

/// Scrape-while-hot: the A/B partner of BM_PipelineMetricsOn. A live
/// ObsServer answers real HTTP /metrics GETs every ~10 ms from a background
/// scraper while the runtime pipeline runs at full tilt on the timed thread.
/// The delta between this and BM_PipelineMetricsOn is the scrape tax the
/// observability plane is accountable to (budget: <=2%).
void BM_PipelineScraped(benchmark::State& state) {
  ms::telemetry::set_enabled(true);
  // One process-lifetime server: re-binding per benchmark repetition would
  // measure socket churn, not scrape cost.
  static ms::telemetry::ObsServer* srv = [] {
    auto* s = new ms::telemetry::ObsServer("127.0.0.1:0");
    s->set_state(ms::telemetry::ObsState::Serving);
    return s;
  }();
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      benchmark::DoNotOptimize(obs_get(srv->bound_port(), "/metrics"));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  runtime_pipeline(state);
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  ms::telemetry::set_enabled(false);
  ms::telemetry::clear_spans();
}
BENCHMARK(BM_PipelineScraped)->Arg(64)->Arg(1024);

}  // namespace

int main(int argc, char** argv) { return ms::bench::gbench_main(argc, argv); }
