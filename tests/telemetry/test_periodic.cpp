// PeriodicDumper: the background publisher writes snapshots on its interval,
// rewrites Prometheus files in place, appends JSON snapshots, and always
// leaves a final snapshot behind on stop — even for runs shorter than one
// interval. A non-positive interval constructs a no-op.

#include "telemetry/periodic.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "telemetry/metrics.hpp"

namespace ms::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Temp file that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(const char* name) : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(PeriodicDumper, InactiveWhenIntervalIsNotPositive) {
  PeriodicDumper d("somewhere.json", 0.0);
  d.stop();
  EXPECT_EQ(d.ticks(), 0u);
}

TEST(PeriodicDumper, RotationCtorWithNonPositiveIntervalIsInactive) {
  // The 3-arg (retention) constructor is a no-op exactly like the 2-arg form.
  PeriodicDumper d("somewhere.json", 0.0, /*max_keep=*/4);
  d.stop();
  EXPECT_EQ(d.ticks(), 0u);
}

TEST(PeriodicDumper, StopFlushesAFinalSnapshotEvenBeforeFirstTick) {
  set_enabled(true);
  TempFile out("periodic_final.json");
  {
    PeriodicDumper d(out.path, /*interval_s=*/3600.0);
    // Destructor runs well before the hour is up.
  }
  const std::string s = slurp(out.path);
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
}

TEST(PeriodicDumper, JsonModeAppendsOneSnapshotPerTick) {
  set_enabled(true);
  TempFile out("periodic_stream.json");
  PeriodicDumper d(out.path, /*interval_s=*/0.01);
  while (d.ticks() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  d.stop();
  EXPECT_GE(d.ticks(), 3u);  // >=2 interval ticks + the final flush
  const std::string s = slurp(out.path);
  std::size_t snapshots = 0;
  for (std::size_t at = s.find("\"counters\""); at != std::string::npos;
       at = s.find("\"counters\"", at + 1)) {
    ++snapshots;
  }
  EXPECT_EQ(snapshots, d.ticks());
}

TEST(PeriodicDumper, JsonRotationKeepsOnlyTheNewestSnapshots) {
  set_enabled(true);
  registry().counter("periodic_rotate_total", "rotation marker counter").add();
  TempFile out("periodic_rotate.json");
  PeriodicDumper d(out.path, /*interval_s=*/0.005, /*max_keep=*/2);
  while (d.ticks() < 6) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  d.stop();
  ASSERT_GE(d.ticks(), 7u);  // >=6 interval ticks + the final flush
  const std::string s = slurp(out.path);
  // The window is capped: only the newest 2 snapshots survive, however many
  // ticks elapsed. Each snapshot carries exactly one "counters" object.
  std::size_t snapshots = 0;
  for (std::size_t at = s.find("\"counters\""); at != std::string::npos;
       at = s.find("\"counters\"", at + 1)) {
    ++snapshots;
  }
  EXPECT_EQ(snapshots, 2u);
  EXPECT_NE(s.find("periodic_rotate_total"), std::string::npos);
}

TEST(PeriodicDumper, PrometheusModeRewritesInPlace) {
  set_enabled(true);
  registry().counter("periodic_test_total", "events seen by the periodic dumper test").add();
  TempFile out("periodic.prom");
  PeriodicDumper d(out.path, /*interval_s=*/0.01);
  while (d.ticks() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  d.stop();
  const std::string s = slurp(out.path);
  // Rewritten, not appended: exactly one exposition of the counter.
  EXPECT_NE(s.find("periodic_test_total"), std::string::npos);
  EXPECT_EQ(s.find("# TYPE periodic_test_total"), s.rfind("# TYPE periodic_test_total"));
}

}  // namespace
}  // namespace ms::telemetry
