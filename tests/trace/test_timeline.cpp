#include "trace/timeline.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ms::trace {
namespace {

using sim::SimTime;

Span make(SpanKind k, double start_us, double end_us, int stream = 0) {
  Span s;
  s.kind = k;
  s.stream = stream;
  s.start = SimTime::micros(start_us);
  s.end = SimTime::micros(end_us);
  return s;
}

TEST(Timeline, EmptyTimeline) {
  Timeline t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.busy(SpanKind::Kernel), SimTime::zero());
  EXPECT_EQ(t.first_start(), SimTime::zero());
  EXPECT_EQ(t.last_end(), SimTime::zero());
  EXPECT_EQ(t.overlap(SpanKind::H2D, SpanKind::Kernel), SimTime::zero());
}

TEST(Timeline, BusySumsDurationsPerKind) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0, 10));
  t.record(make(SpanKind::H2D, 20, 25));
  t.record(make(SpanKind::Kernel, 0, 100));
  EXPECT_EQ(t.busy(SpanKind::H2D), SimTime::micros(15));
  EXPECT_EQ(t.busy(SpanKind::Kernel), SimTime::micros(100));
  EXPECT_EQ(t.busy(SpanKind::D2H), SimTime::zero());
}

TEST(Timeline, FirstStartLastEnd) {
  Timeline t;
  t.record(make(SpanKind::Kernel, 5, 10));
  t.record(make(SpanKind::H2D, 2, 4));
  t.record(make(SpanKind::D2H, 8, 30));
  EXPECT_EQ(t.first_start(), SimTime::micros(2));
  EXPECT_EQ(t.last_end(), SimTime::micros(30));
}

TEST(Timeline, OverlapDisjointIsZero) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0, 10));
  t.record(make(SpanKind::Kernel, 10, 20));
  EXPECT_EQ(t.overlap(SpanKind::H2D, SpanKind::Kernel), SimTime::zero());
}

TEST(Timeline, OverlapPartial) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0, 10));
  t.record(make(SpanKind::Kernel, 6, 20));
  EXPECT_EQ(t.overlap(SpanKind::H2D, SpanKind::Kernel), SimTime::micros(4));
}

TEST(Timeline, OverlapNestedAndMultiple) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0, 100));
  t.record(make(SpanKind::Kernel, 10, 20));
  t.record(make(SpanKind::Kernel, 30, 50));
  EXPECT_EQ(t.overlap(SpanKind::H2D, SpanKind::Kernel), SimTime::micros(30));
}

TEST(Timeline, OverlapDoesNotDoubleCountConcurrentSpans) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0, 10));
  t.record(make(SpanKind::H2D, 0, 10));  // two concurrent transfers
  t.record(make(SpanKind::Kernel, 0, 10));
  EXPECT_EQ(t.overlap(SpanKind::H2D, SpanKind::Kernel), SimTime::micros(10));
}

TEST(Timeline, OverlapSameKindCountsConcurrency) {
  Timeline t;
  t.record(make(SpanKind::Kernel, 0, 10, 0));
  t.record(make(SpanKind::Kernel, 5, 15, 1));
  EXPECT_EQ(t.overlap(SpanKind::Kernel, SpanKind::Kernel), SimTime::micros(5));
}

TEST(Timeline, CountByKind) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0, 1));
  t.record(make(SpanKind::H2D, 1, 2));
  t.record(make(SpanKind::D2H, 2, 3));
  EXPECT_EQ(t.count(SpanKind::H2D), 2u);
  EXPECT_EQ(t.count(SpanKind::D2H), 1u);
  EXPECT_EQ(t.count(SpanKind::Kernel), 0u);
}

TEST(Timeline, ClearEmpties) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0, 1));
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(Timeline, GanttRendersOneRowPerStream) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0, 50, 0));
  t.record(make(SpanKind::Kernel, 50, 100, 1));
  std::ostringstream os;
  t.render_gantt(os, 40);
  const std::string s = os.str();
  EXPECT_NE(s.find("dev0.s0"), std::string::npos);
  EXPECT_NE(s.find("dev0.s1"), std::string::npos);
  EXPECT_NE(s.find('>'), std::string::npos);  // H2D glyph
  EXPECT_NE(s.find('#'), std::string::npos);  // kernel glyph
}

TEST(Timeline, GanttHandlesEmptyAndDegenerate) {
  Timeline t;
  std::ostringstream os;
  t.render_gantt(os);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
  t.record(make(SpanKind::H2D, 5, 5));
  std::ostringstream os2;
  t.render_gantt(os2);
  EXPECT_NE(os2.str().find("degenerate"), std::string::npos);
}

TEST(Timeline, SpanKindNames) {
  EXPECT_STREQ(to_string(SpanKind::H2D), "H2D");
  EXPECT_STREQ(to_string(SpanKind::D2H), "D2H");
  EXPECT_STREQ(to_string(SpanKind::Kernel), "EXE");
  EXPECT_STREQ(to_string(SpanKind::Sync), "SYNC");
}

}  // namespace
}  // namespace ms::trace
