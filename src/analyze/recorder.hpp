#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/capture.hpp"
#include "analyze/perf_lint.hpp"
#include "analyze/record.hpp"
#include "rt/observer.hpp"
#include "sim/sim_config.hpp"
#include "sim/sim_time.hpp"

namespace ms::analyze {

/// The runtime-facing recorder: the rt::Observer a Capture hands each
/// rt::Context constructed under it. It turns each enqueued action into a
/// node of its GraphRecord and each host wait into a join; at every drain it
/// analyzes the completed segment, reports the hazards to its Capture, then
/// drops the segment (keeping memory proportional to one barrier interval,
/// not the whole run).
///
/// When the Capture lints, each segment additionally runs through the
/// performance linter (perf_lint.hpp) at the same flush points, with the
/// platform config the owning context supplies; findings and bound/elapsed
/// totals accumulate in Capture::lint(). Otherwise linting is skipped
/// entirely.
class Recorder final : public rt::Observer {
public:
  /// `config`: the platform the owning context simulates against — the
  /// linter's transfer floors and partition checks read it. `capture`
  /// receives every segment's results and must outlive the recorder's
  /// context.
  Recorder(const sim::SimConfig& config, Capture& capture);

  [[nodiscard]] GraphRecord& graph() noexcept { return graph_; }

  // --- per action ------------------------------------------------------------

  /// The one translation of an issued action (direct or replayed) into a
  /// GraphRecord node; returns the node id, which numbers the action.
  std::uint64_t on_enqueue(const rt::ActionEnqueue& e) override;
  /// The host blocked until `joined` (or, for `stream` >= 0, that stream's
  /// newest recorded action) completed: later enqueues happen-after it.
  void on_host_wait(std::uint64_t joined, int stream) override;

  // --- host-side annotations -------------------------------------------------

  void on_buffer(rt::BufferId id, std::size_t bytes) override;
  void on_buffer_name(rt::BufferId id, std::string_view name) override;
  void on_assume_resident(rt::BufferId id) override;
  void on_free(rt::BufferId id) override;
  /// Context::host_write annotation: the host mutated the buffer's registered
  /// range (linter input, not a hazard-scan access).
  void on_host_write(rt::BufferId id, std::size_t offset, std::size_t bytes) override;
  /// Context::setup stamped a new partition layout for subsequent segments.
  void on_setup(int partitions) override;
  /// Context::mark_protocol_sample: the measurement protocol is starting a
  /// fresh sample of the same workload. Cross-sample repetition is the
  /// harness's design (each sample re-measures the full workload, transfers
  /// included), so the lint state that would read it as an app-level loop —
  /// upload cleanliness (redundant-h2d) and pipeline rounds
  /// (single-stream-pipeline) — resets here.
  void on_protocol_sample() override;
  /// Global barrier at host clock `now`: analyze the segment, report it to
  /// the Capture and reset it. Segment elapsed times for the lint
  /// overlap-efficiency score are differences of these clocks.
  void on_drain(sim::SimTime now) override;
  /// Final flush from ~Context.
  void on_finish() noexcept override;

private:
  void flush();

  GraphRecord graph_;
  Coverage coverage_;
  Capture& capture_;
  /// Node id of the newest action recorded on each stream (0 = none), for
  /// the join of a Stream::synchronize; cleared when setup() rebuilds the
  /// streams.
  std::vector<std::uint64_t> last_on_stream_;
  /// Scratch for a kernel's accesses.
  std::vector<rt::BufferAccess> accesses_;

  // Lint state (used only when the Capture lints).
  sim::SimConfig lint_config_;
  LintCarry lint_carry_;
  sim::SimTime clock_{};
  sim::SimTime flushed_clock_{};
  bool synced_ = false;  ///< did a drain clock precede this flush?
};

}  // namespace ms::analyze
