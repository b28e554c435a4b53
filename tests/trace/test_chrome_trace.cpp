#include "trace/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ms::trace {
namespace {

Span make(SpanKind k, double start_us, double end_us, int device, int stream,
          const std::string& label) {
  Span s;
  s.kind = k;
  s.device = device;
  s.stream = stream;
  s.start = sim::SimTime::micros(start_us);
  s.end = sim::SimTime::micros(end_us);
  s.label = intern_label(label);  // Span::label views interned storage
  s.bytes = 1024;
  return s;
}

TEST(ChromeTrace, EmptyTimelineIsValidJson) {
  Timeline t;
  std::ostringstream os;
  write_chrome_trace(os, t);
  EXPECT_EQ(os.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

TEST(ChromeTrace, EmitsCompleteEvents) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0, 150, 0, 2, "upload"));
  std::ostringstream os;
  write_chrome_trace(os, t);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"upload\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\":\"H2D\""), std::string::npos);
  EXPECT_NE(s.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(s.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(s.find("\"ts\":0"), std::string::npos);
  EXPECT_NE(s.find("\"dur\":150"), std::string::npos);
  EXPECT_NE(s.find("\"bytes\":1024"), std::string::npos);
}

TEST(ChromeTrace, DeviceTimesKeepSubMicrosecondPrecision) {
  // Long runs put device spans past 10^6 us, where the stream default of 6
  // significant digits would print 3.21995e+06.
  Timeline t;
  t.record(make(SpanKind::Kernel, 3219950.125, 3219973.75, 0, 0, "k"));
  std::ostringstream os;
  write_chrome_trace(os, t);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"ts\":3219950.125,\"dur\":23.625"), std::string::npos) << s;
  EXPECT_EQ(s.find("e+"), std::string::npos) << s;
}

TEST(ChromeTrace, UnlabelledSpansUseKindName) {
  Timeline t;
  t.record(make(SpanKind::Kernel, 0, 10, 0, 0, ""));
  std::ostringstream os;
  write_chrome_trace(os, t);
  EXPECT_NE(os.str().find("\"name\":\"EXE\""), std::string::npos);
}

TEST(ChromeTrace, EscapesSpecialCharactersInLabels) {
  Timeline t;
  t.record(make(SpanKind::Kernel, 0, 10, 0, 0, "a\"b\\c\nd"));
  std::ostringstream os;
  write_chrome_trace(os, t);
  EXPECT_NE(os.str().find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(ChromeTrace, MultipleEventsAreCommaSeparated) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0, 10, 0, 0, "x"));
  t.record(make(SpanKind::D2H, 10, 20, 1, 3, "y"));
  std::ostringstream os;
  write_chrome_trace(os, t);
  const std::string s = os.str();
  // Two events, one separating comma between the closing and opening braces.
  EXPECT_NE(s.find("},\n{"), std::string::npos);
  EXPECT_NE(s.find("\"pid\":1"), std::string::npos);
}

TEST(ChromeTrace, CounterSamplesBecomeCounterEvents) {
  Timeline t;
  const telemetry::CounterSample samples[] = {
      {"sim.queue_depth", 5000, 3.0},
      {"depot.parked_bytes", 7000, 1048576.0},
  };
  std::ostringstream os;
  write_chrome_trace(os, t, {}, samples);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"sim.queue_depth\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\":\"counter\""), std::string::npos);
  EXPECT_NE(s.find("\"args\":{\"value\":3}"), std::string::npos);
  EXPECT_NE(s.find("\"args\":{\"value\":1048576}"), std::string::npos);
  // Counters land on the host process and get its metadata even without spans.
  EXPECT_NE(s.find("\"pid\":1000"), std::string::npos);
  EXPECT_NE(s.find("host (wall-clock)"), std::string::npos);
  // Timestamps normalize to the earliest sample: 5000ns -> 0, 7000ns -> 2us.
  EXPECT_NE(s.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(s.find("\"ts\":2.000"), std::string::npos);
}

TEST(ChromeTrace, CountersShareOriginWithHostSpans) {
  Timeline t;
  telemetry::SpanRecord span;
  span.name = "window";
  span.start_ns = 1000;
  span.end_ns = 9000;
  span.thread = 7;
  const telemetry::SpanRecord spans[] = {span};
  const telemetry::CounterSample samples[] = {{"link0.inflight_bytes", 4000, 64.0}};
  std::ostringstream os;
  write_chrome_trace(os, t, spans, samples);
  const std::string s = os.str();
  // Span starts the track at 0; the counter sits 3us in on the same clock.
  EXPECT_NE(s.find("\"ts\":0.000,\"dur\":8.000"), std::string::npos);
  EXPECT_NE(s.find("\"ts\":3.000,\"args\":{\"value\":64}"), std::string::npos);
}

}  // namespace
}  // namespace ms::trace
