#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/capture.hpp"
#include "analyze/perf_lint.hpp"
#include "analyze/record.hpp"
#include "sim/sim_config.hpp"
#include "sim/sim_time.hpp"

namespace ms::analyze {

/// The runtime-facing recorder: one per analyzing rt::Context. Stream/Context
/// hooks feed it enqueued actions and host sync points; at every global
/// barrier it analyzes the completed segment, then drops it (keeping the
/// cheap always-on mode's memory proportional to one barrier interval, not
/// the whole run). Hazards either go to the thread's installed Capture
/// (collection mode) or are thrown as HazardError (abort mode).
///
/// When a LintCapture is installed, each segment additionally runs through
/// the performance linter (perf_lint.hpp) at the same flush points, with the
/// platform config the owning context supplies; findings and bound/elapsed
/// totals accumulate in the LintCapture. Without one, linting is skipped
/// entirely.
class Recorder {
public:
  /// `config`: the platform the owning context simulates against — the
  /// linter's transfer floors and partition checks read it.
  explicit Recorder(const sim::SimConfig& config);

  [[nodiscard]] GraphRecord& graph() noexcept { return graph_; }

  // --- enqueue hooks (return the assigned node id) -------------------------
  std::uint64_t on_transfer(bool h2d, int stream, int device, rt::BufferId buf,
                            std::size_t offset, std::size_t bytes,
                            std::vector<std::uint64_t> deps);
  std::uint64_t on_kernel(int stream, int device, std::string label,
                          const std::vector<rt::BufferAccess>& accesses,
                          std::vector<std::uint64_t> deps, sim::SimTime duration = {});
  std::uint64_t on_barrier(int stream, std::vector<std::uint64_t> deps);

  // --- host-side hooks -----------------------------------------------------
  void on_buffer(rt::BufferId id, std::size_t bytes);
  void on_buffer_name(rt::BufferId id, std::string name);
  void on_assume_resident(rt::BufferId id);
  void on_free(rt::BufferId id);
  /// Host blocked until `joined` completed (0 = unknown/none): later enqueues
  /// happen-after it.
  void on_host_wait(std::uint64_t joined);
  /// Context::host_write annotation: the host mutated the buffer's registered
  /// range (linter input, not a hazard-scan access).
  void on_host_write(rt::BufferId id, std::size_t offset, std::size_t bytes);
  /// Context::setup stamped a new partition layout for subsequent segments.
  void on_setup(int partitions);
  /// Context::mark_protocol_sample: the measurement protocol is starting a
  /// fresh sample of the same workload. Cross-sample repetition is the
  /// harness's design (each sample re-measures the full workload, transfers
  /// included), so the lint state that would read it as an app-level loop —
  /// upload cleanliness (redundant-h2d) and pipeline rounds
  /// (single-stream-pipeline) — resets here.
  void on_protocol_sample();
  /// Virtual host clock just before a flush point; segment elapsed times for
  /// the lint overlap-efficiency score are differences of these.
  void on_clock(sim::SimTime now);

  /// Global barrier: analyze the segment. In abort mode (no Capture was
  /// installed when the Recorder was built) throws HazardError on hazards;
  /// in collection mode reports into the Capture. Either way the segment is
  /// reset afterwards.
  void flush(bool may_throw);

  /// Final flush from ~Context: never throws; abort-mode hazards go to
  /// stderr so they are not silently lost.
  void finalize() noexcept;

  [[nodiscard]] const Analysis& accumulated() const noexcept { return accumulated_; }

private:
  GraphRecord graph_;
  Coverage coverage_;
  Analysis accumulated_;
  Capture* capture_ = nullptr;

  // Lint state (active only while a LintCapture was installed at creation).
  LintCapture* lint_capture_ = nullptr;
  sim::SimConfig lint_config_;
  LintCarry lint_carry_;
  sim::SimTime clock_{};
  sim::SimTime flushed_clock_{};
  bool synced_ = false;  ///< did on_clock precede this flush?
  bool lint_finalized_ = false;
};

}  // namespace ms::analyze
