#include "telemetry/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "trace/chrome_trace.hpp"

namespace ms::telemetry {
namespace {

class Spans : public ::testing::Test {
protected:
  void SetUp() override {
    set_enabled(true);
    clear_spans();
  }
  void TearDown() override {
    clear_spans();
    set_enabled(false);
  }

  static std::vector<SpanRecord> spans_named(const char* name) {
    std::vector<SpanRecord> out;
    for (const SpanRecord& r : collect_spans()) {
      if (std::string(r.name) == name) out.push_back(r);
    }
    return out;
  }
};

TEST_F(Spans, ScopedSpanRecordsOnDestruction) {
  {
    const ScopedSpan s("test.spans.basic");
  }
  const auto got = spans_named("test.spans.basic");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_LE(got[0].start_ns, got[0].end_ns);
}

TEST_F(Spans, NowNsIsMonotonic) {
  const std::uint64_t a = now_ns();
  const std::uint64_t b = now_ns();
  EXPECT_LE(a, b);
}

TEST_F(Spans, DisabledRecordingProducesNothing) {
  set_enabled(false);
  {
    const ScopedSpan s("test.spans.disabled");
  }
  set_enabled(true);
  EXPECT_TRUE(spans_named("test.spans.disabled").empty());
}

TEST_F(Spans, EnabledCheckedAtConstruction) {
  // The gate is sampled when the span opens; a span opened while recording
  // is on records even if recording is switched off before it closes.
  {
    const ScopedSpan s("test.spans.midflight");
    set_enabled(false);
  }
  set_enabled(true);
  EXPECT_EQ(spans_named("test.spans.midflight").size(), 1u);
}

TEST_F(Spans, ExplicitRecordSpan) {
  record_span("test.spans.explicit", 100, 250);
  const auto got = spans_named("test.spans.explicit");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].start_ns, 100u);
  EXPECT_EQ(got[0].end_ns, 250u);
  EXPECT_EQ(got[0].duration_ns(), 150u);
}

TEST_F(Spans, RingOverwritesOldest) {
  for (std::uint64_t i = 0; i < kSpanRingCapacity + 10; ++i) {
    record_span("test.spans.ring", i, i + 1);
  }
  const auto got = spans_named("test.spans.ring");
  ASSERT_EQ(got.size(), kSpanRingCapacity);
  // The oldest 10 were overwritten; the freshest record survives.
  std::uint64_t min_start = got[0].start_ns, max_start = got[0].start_ns;
  for (const auto& r : got) {
    min_start = std::min(min_start, r.start_ns);
    max_start = std::max(max_start, r.start_ns);
  }
  EXPECT_EQ(min_start, 10u);
  EXPECT_EQ(max_start, kSpanRingCapacity + 9);
}

TEST_F(Spans, ConcurrentThreadsKeepDistinctIds) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([] {
      for (int j = 0; j < kPerThread; ++j) {
        const ScopedSpan s("test.spans.mt");
      }
    });
  }
  for (auto& t : ts) t.join();
  const auto got = spans_named("test.spans.mt");
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<std::uint32_t> ids;
  for (const auto& r : got) ids.push_back(r.thread);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(Spans, ClearSpansEmptiesEveryRing) {
  record_span("test.spans.clear", 1, 2);
  clear_spans();
  EXPECT_TRUE(spans_named("test.spans.clear").empty());
}

// -------------------------------------------------------------------------
// Host track in the combined Chrome trace export
// -------------------------------------------------------------------------

TEST_F(Spans, ChromeTraceHostTrack) {
  trace::Timeline t;
  trace::Span dev;
  dev.kind = trace::SpanKind::Kernel;
  dev.device = 0;
  dev.stream = 0;
  dev.start = sim::SimTime::micros(0);
  dev.end = sim::SimTime::micros(100);
  t.record(dev);

  std::vector<SpanRecord> host;
  host.push_back({"host.work", 0, 5'000'000, 6'500'000});
  host.push_back({"host.other", 1, 5'100'000, 5'200'000});

  std::ostringstream os;
  trace::write_chrome_trace(os, t, host);
  const std::string s = os.str();

  // Device track keeps its virtual events and gains a process name.
  EXPECT_NE(s.find("\"device 0 (virtual)\""), std::string::npos);
  // Host track: its own process, sorted above the devices, one thread row
  // per telemetry thread id, timestamps normalized to the earliest span.
  EXPECT_NE(s.find("\"host (wall-clock)\""), std::string::npos);
  EXPECT_NE(s.find(std::string("\"pid\":") + std::to_string(kHostTracePid)),
            std::string::npos);
  EXPECT_NE(s.find("\"sort_index\":-1"), std::string::npos);
  EXPECT_NE(s.find("\"host thread 0\""), std::string::npos);
  EXPECT_NE(s.find("\"host thread 1\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"host.work\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\":\"host\""), std::string::npos);
  EXPECT_NE(s.find("\"ts\":0.000"), std::string::npos);      // normalized start
  EXPECT_NE(s.find("\"dur\":1500.000"), std::string::npos);  // 1.5 ms in us
  EXPECT_NE(s.find("\"ts\":100.000"), std::string::npos);    // second span +100 us
}

TEST_F(Spans, ChromeTraceWithoutHostSpansHasNoHostTrack) {
  trace::Timeline t;
  std::ostringstream os;
  trace::write_chrome_trace(os, t, {});
  EXPECT_EQ(os.str().find("host (wall-clock)"), std::string::npos);
}

}  // namespace
}  // namespace ms::telemetry
