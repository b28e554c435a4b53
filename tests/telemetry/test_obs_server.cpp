// ObsServer: the embedded observability endpoint. Routes, the /healthz
// readiness state machine, address parsing, /trace as the host track of the
// Chrome-trace export, and — the critical property —
// scraping /metrics over real sockets while worker threads mutate the
// registry: every response must parse as valid Prometheus text and counter
// totals must be monotone across scrapes. Runs under TSan in CI.

#include "telemetry/obs_server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "loopback_http.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "trace/chrome_trace.hpp"

namespace ms::telemetry {
namespace {

using namespace test;  // the loopback HTTP client

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  if (std::isalpha(static_cast<unsigned char>(s[0])) == 0 && s[0] != '_' && s[0] != ':') {
    return false;
  }
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' && c != ':') return false;
  }
  return true;
}

/// Validate one Prometheus exposition-format body: every line is a comment
/// header or a `name[{labels}] value [# {exemplar} value]` sample whose
/// pieces parse. Returns false and points `err` at the offending line.
bool valid_prometheus(const std::string& body, std::string* err) {
  std::size_t start = 0;
  while (start < body.size()) {
    std::size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) continue;
    if (line[0] == '#') {
      *err = "unexpected comment: " + line;
      return false;
    }

    std::string sample = line;
    // OpenMetrics-style exemplar suffix: " # {k=\"v\"} value".
    if (const std::size_t ex = sample.find(" # {"); ex != std::string::npos) {
      const std::string exemplar = sample.substr(ex + 3);
      const std::size_t close = exemplar.find("} ");
      char* eend = nullptr;
      if (close == std::string::npos ||
          (std::strtod(exemplar.c_str() + close + 2, &eend), eend == nullptr || *eend != '\0')) {
        *err = "bad exemplar: " + line;
        return false;
      }
      sample.resize(ex);
    }

    std::string name = sample;
    std::string value;
    if (const std::size_t brace = sample.find('{'); brace != std::string::npos) {
      const std::size_t close = sample.find("} ", brace);
      if (close == std::string::npos) {
        *err = "unterminated label set: " + line;
        return false;
      }
      name = sample.substr(0, brace);
      value = sample.substr(close + 2);
    } else {
      const std::size_t sp = sample.rfind(' ');
      if (sp == std::string::npos) {
        *err = "no value: " + line;
        return false;
      }
      name = sample.substr(0, sp);
      value = sample.substr(sp + 1);
    }
    char* vend = nullptr;
    std::strtod(value.c_str(), &vend);
    if (!valid_metric_name(name) || vend == nullptr || *vend != '\0' || value.empty()) {
      *err = "unparseable sample: " + line;
      return false;
    }
  }
  return true;
}

/// Sum every sample of `name{...}` in an exposition body.
double series_total(const std::string& body, const std::string& name) {
  double total = 0.0;
  std::size_t at = 0;
  const std::string prefix = name + "{";
  while ((at = body.find(prefix, at)) != std::string::npos) {
    // Only count line starts (skip HELP/TYPE mentions mid-line).
    if (at != 0 && body[at - 1] != '\n') {
      at += prefix.size();
      continue;
    }
    const std::size_t close = body.find("} ", at);
    if (close == std::string::npos) break;
    total += std::strtod(body.c_str() + close + 2, nullptr);
    at = close;
  }
  return total;
}

TEST(ObsServer, BindsEphemeralPortAndReportsAddress) {
  ObsServer srv("127.0.0.1:0");
  EXPECT_GT(srv.bound_port(), 0);
  EXPECT_EQ(srv.address(), "127.0.0.1:" + std::to_string(srv.bound_port()));
  ObsServer bare(":0");  // host defaults to loopback
  EXPECT_GT(bare.bound_port(), 0);
}

TEST(ObsServer, RejectsUnparseableAddresses) {
  EXPECT_THROW(ObsServer(""), std::runtime_error);
  EXPECT_THROW(ObsServer("127.0.0.1:"), std::runtime_error);
  EXPECT_THROW(ObsServer("127.0.0.1:notaport"), std::runtime_error);
  EXPECT_THROW(ObsServer("127.0.0.1:99999"), std::runtime_error);
  EXPECT_THROW(ObsServer("not-a-host:0"), std::runtime_error);
  // Signs and whitespace are not digits.
  EXPECT_THROW(ObsServer(":+0"), std::runtime_error);
  EXPECT_THROW(ObsServer(": 0"), std::runtime_error);
  EXPECT_THROW(ObsServer(":-0"), std::runtime_error);
}

TEST(ObsServer, HealthzFollowsTheReadinessStateMachine) {
  ObsServer srv(":0");
  ASSERT_EQ(srv.state(), ObsState::Starting);
  std::string resp = http_request(srv.bound_port(), "/healthz");
  EXPECT_EQ(status_of(resp), 503);
  EXPECT_EQ(body_of(resp), "starting\n");

  srv.set_state(ObsState::Serving);
  resp = http_request(srv.bound_port(), "/healthz");
  EXPECT_EQ(status_of(resp), 200);
  EXPECT_EQ(body_of(resp), "serving\n");

  srv.set_state(ObsState::Draining);
  resp = http_request(srv.bound_port(), "/healthz");
  EXPECT_EQ(status_of(resp), 503);
  EXPECT_EQ(body_of(resp), "draining\n");
}

TEST(ObsServer, RoutesAnswerAndUnknownsAreBounded) {
  set_enabled(true);
  ObsServer srv(":0");
  srv.set_state(ObsState::Serving);
  Counter& other = registry()
                       .counter_family("ms_obs_http_requests_total",
                                       "HTTP requests answered by the observability endpoint",
                                       "route")
                       .with("other");
  const std::uint64_t other_before = other.value();

  EXPECT_EQ(status_of(http_request(srv.bound_port(), "/metrics")), 200);
  const std::string trace = http_request(srv.bound_port(), "/trace");
  EXPECT_EQ(status_of(trace), 200);
  EXPECT_NE(body_of(trace).find("\"traceEvents\""), std::string::npos);

  // Query strings are stripped before routing.
  EXPECT_EQ(status_of(http_request(srv.bound_port(), "/healthz?verbose=1")), 200);
  EXPECT_EQ(status_of(http_request(srv.bound_port(), "/nope")), 404);
  // The retired JSON routes are unknown paths like any other.
  EXPECT_EQ(status_of(http_request(srv.bound_port(), "/metrics.json")), 404);
  EXPECT_EQ(status_of(http_request(srv.bound_port(), "/spans")), 404);
  EXPECT_EQ(status_of(http_request(srv.bound_port(), "/metrics", "POST")), 405);
  EXPECT_GE(srv.requests_served(), 7u);
  // Every unknown path counts under the one bounded label value.
  EXPECT_EQ(other.value() - other_before, 3u);
  set_enabled(false);
}

TEST(ObsServer, TraceIsTheHostTrackOfTheTraceExport) {
  record_span("test.obs.trace", 1'000, 4'500, /*replay_id=*/3);
  record_span(nullptr, 2'000, 2'500);
  record_counter_sample("test.obs.depth", 7.5);
  ObsServer srv(":0");
  srv.set_state(ObsState::Serving);
  const std::string resp = http_request(srv.bound_port(), "/trace");
  ASSERT_EQ(status_of(resp), 200);
  EXPECT_NE(resp.find("Content-Type: application/json"), std::string::npos);

  std::ostringstream want;
  trace::write_chrome_trace(want, trace::Timeline{}, collect_spans(), collect_counter_samples());
  EXPECT_EQ(body_of(resp), want.str());
  EXPECT_NE(want.str().find("\"host (wall-clock)\""), std::string::npos);
}

TEST(ObsServer, MetricsBodyIsValidPrometheus) {
  set_enabled(true);
  ObsServer srv(":0");
  srv.set_state(ObsState::Serving);
  const std::string resp = http_request(srv.bound_port(), "/metrics");
  ASSERT_EQ(status_of(resp), 200);
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  std::string err;
  EXPECT_TRUE(valid_prometheus(body_of(resp), &err)) << err;
  set_enabled(false);
}

TEST(ObsServer, EnsureIsOptInAndIdempotent) {
  // Before any caller passes an address nothing listens — observability
  // stays opt-in — and an address that cannot be parsed starts nothing.
  EXPECT_EQ(obs_server(), nullptr);
  EXPECT_EQ(ensure_obs_server("not-a-port"), nullptr);
  EXPECT_EQ(obs_server(), nullptr);

  ObsServer* first = ensure_obs_server("127.0.0.1:0");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->state(), ObsState::Serving);
  EXPECT_EQ(obs_server(), first);
  // Subsequent calls (any address) return the already-running server.
  EXPECT_EQ(ensure_obs_server("127.0.0.1:0"), first);
  EXPECT_EQ(status_of(http_request(first->bound_port(), "/healthz")), 200);
}

TEST(ObsServer, DrippingClientDoesNotStallOtherRequests) {
  // The accept loop is serial. A client that sends its request head one byte
  // at a time must lose its connection when the whole-head read deadline
  // (2 s) runs out, so a second client's /healthz is answered soon after.
  ObsServer srv(":0");
  srv.set_state(ObsState::Serving);
  const int fd = connect_loopback(srv.bound_port());
  ASSERT_GE(fd, 0);
  std::atomic<bool> done{false};
  std::thread dripper([&] {
    // ~35 bytes at 250 ms each: about 9 s to finish the head if never cut off.
    const std::string head = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    for (std::size_t i = 0; i < head.size() && !done.load(); ++i) {
      if (::send(fd, &head[i], 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    ::close(fd);
  });
  // The dripper connected first, so the serial accept loop takes it first
  // and /healthz queues behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  const std::string resp = http_request(srv.bound_port(), "/healthz");
  const double waited_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  done.store(true);
  dripper.join();
  EXPECT_EQ(status_of(resp), 200);
  EXPECT_LT(waited_s, 2.0 + 1.5) << "a dripping client held up /healthz";
}

TEST(ObsServer, ScrapeUnderMutationStaysValidAndMonotone) {
  set_enabled(true);
  ObsServer srv(":0");
  srv.set_state(ObsState::Serving);

  auto& fam = Registry::instance().counter_family("ms_test_obs_mut_total",
                                                  "scrape-under-mutation traffic", "worker");
  auto& hfam = Registry::instance().histogram_family("ms_test_obs_mut_ns",
                                                     "scrape-under-mutation latencies", "worker");
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Counter& c = fam.with(std::to_string(w));
      Histogram& h = hfam.with(std::to_string(w));
      // Exemplar-carrying observations race the scraper's snapshot on
      // purpose — the exemplar mutex is part of what TSan checks here.
      for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
        c.add(1);
        h.observe(i % 4096, /*replay_id=*/i);
      }
    });
  }

  double last_total = -1.0;
  for (int scrape = 0; scrape < 25; ++scrape) {
    const std::string resp = http_request(srv.bound_port(), "/metrics");
    ASSERT_EQ(status_of(resp), 200) << "scrape " << scrape;
    const std::string body = body_of(resp);
    std::string err;
    ASSERT_TRUE(valid_prometheus(body, &err)) << "scrape " << scrape << ": " << err;
    const double total = series_total(body, "ms_test_obs_mut_total");
    EXPECT_GE(total, last_total) << "counter totals went backwards at scrape " << scrape;
    last_total = total;
  }
  EXPECT_GT(last_total, 0.0);

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();
  EXPECT_GE(srv.requests_served(), 25u);
  set_enabled(false);
}

}  // namespace
}  // namespace ms::telemetry
