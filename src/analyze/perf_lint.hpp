#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/hazard.hpp"
#include "analyze/record.hpp"
#include "sim/sim_config.hpp"
#include "sim/sim_time.hpp"

namespace ms::analyze {

/// Static performance linter over recorded action DAGs.
///
/// Where the hazard analyzer (analyzer.hpp) proves a segment *correct*, the
/// linter bounds how *fast* it could possibly run and flags the structural
/// anti-patterns the paper identifies as overlap killers — without running
/// the simulation. Two products per segment:
///
///  1. A critical-path makespan lower bound: the longest duration-weighted
///     path through the DAG (kernels use their enqueue-time cost-model
///     duration, transfers the link's wire floor), tightened per device by
///     serialized-DMA link occupancy (paper Fig. 5: H2D and D2H share one
///     engine, so the link's busy time is the *sum* over both directions).
///     No schedule, however well overlapped, can beat this bound — tests and
///     the CLI assert `bound <= simulated time` and report their ratio as the
///     *overlap-efficiency* score.
///
///  2. A rule gallery of findings, each with a stable rule id, severity, the
///     offending actions, and a concrete fix-it (see docs/lint.md for the
///     catalog with paper citations).
struct LintSeverity {
  enum Level : std::uint8_t { Note, Warning };
};

[[nodiscard]] std::string_view to_string(LintSeverity::Level s) noexcept;

/// Stable rule identifiers (the "rule" field of the lint JSON report).
namespace rule {
inline constexpr std::string_view kDuplexSerialization = "duplex-serialization";
inline constexpr std::string_view kFalseDependency = "false-dependency";
inline constexpr std::string_view kSingleStreamPipeline = "single-stream-pipeline";
inline constexpr std::string_view kSplitCorePartition = "split-core-partition";
inline constexpr std::string_view kSubKneeTransfer = "sub-knee-transfer";
inline constexpr std::string_view kRedundantH2D = "redundant-h2d";
inline constexpr std::string_view kDeadAction = "dead-action";
}  // namespace rule

/// All rule ids in catalog order (docs/lint.md lists the same catalog).
[[nodiscard]] const std::vector<std::string_view>& lint_rule_ids();

struct LintFinding {
  std::string rule;  ///< stable id from `rule::`
  LintSeverity::Level severity = LintSeverity::Warning;
  int device = -1;           ///< -1 when not device-specific
  std::uint64_t buffer = 0;  ///< 0 when not buffer-specific
  std::string buffer_name;
  std::vector<HazardAction> actions;  ///< offending actions, enqueue order
  std::string message;                ///< what is wrong, with numbers
  std::string fixit;                  ///< concrete remedy
};

/// Per-device components of the makespan lower bound for one segment.
struct DeviceBound {
  int device = -1;
  sim::SimTime path;      ///< longest duration-weighted DAG path touching it
  sim::SimTime h2d;       ///< summed H2D wire floors on its link
  sim::SimTime d2h;       ///< summed D2H wire floors on its link
  sim::SimTime link;      ///< link occupancy: h2d+d2h serialized, max() duplex
  sim::SimTime bound;     ///< max(path, link)
};

struct LintReport {
  std::vector<LintFinding> findings;
  std::vector<DeviceBound> devices;  ///< sorted by device index
  sim::SimTime bound;                ///< segment makespan lower bound
  std::size_t nodes_analyzed = 0;
  bool cyclic = false;  ///< deadlocked segment: bounds/rules skipped
  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
};

/// Cross-segment linter state. One instance lives per Recorder (or per
/// hand-built fixture sequence) and must be finalized once recording ends —
/// dead-action verdicts only become final when nothing can consume a write
/// anymore.
class LintCarry {
public:
  /// Ranges uploaded to a device and not invalidated since, per
  /// Coverage::key(buffer, device). Consulted/updated by redundant-h2d.
  std::map<std::uint64_t, IntervalSet> clean_upload;

  /// A device write nothing has consumed yet (dead-action candidate). A
  /// write is "consumed" by any later overlapping access (kernel read, D2H
  /// readback — or an overwrite, which keeps iterative ping-pong stencils
  /// out of the report); only fully-unconsumed writes are flagged.
  struct PendingWrite {
    HazardAction who;  ///< copied: nodes die at reset_segment
    std::uint64_t buffer = 0;
    std::string buffer_name;
    int device = -1;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool touched = false;
  };
  std::map<std::uint64_t, std::vector<PendingWrite>> pending;  ///< by key(buffer, device)

  /// single-stream-pipeline accumulates rounds across segments: the baseline
  /// pattern synchronizes once per iteration, so each segment holds exactly
  /// one H2D->EXE->D2H round and only the cross-segment view shows the chain.
  struct PipelineState {
    std::set<int> streams;  ///< streams that carried data actions on the device
    int rounds = 0;         ///< completed-round boundaries seen so far
    bool have_h2d = false;
    bool have_kernel = false;
    bool have_d2h = false;
    HazardAction last_d2h;     ///< end of the previous round
    HazardAction round_start;  ///< first H2D of the following round
  };
  std::map<int, PipelineState> pipeline;  ///< by device

  /// sub-knee-transfer accumulates distinct chunk shapes across segments,
  /// per (buffer, device, direction).
  struct SubKneeState {
    std::set<std::pair<std::size_t, std::size_t>> ranges;  ///< (offset, bytes)
    std::size_t total = 0;  ///< summed bytes over distinct ranges
    HazardAction first;
    std::uint64_t buffer = 0;
    std::string buffer_name;
    int device = -1;
    bool d2h = false;
  };
  std::map<std::uint64_t, SubKneeState> sub_knee;

  /// Dedup of per-run findings across segments (iteration loops would
  /// otherwise repeat every finding once per synchronize()).
  std::set<std::string> seen;

  /// The measurement protocol is starting a fresh sample of the same
  /// workload. Cross-sample repetition is the harness's design (every sample
  /// re-measures the full workload, transfers included), so the state that
  /// would read it as an app-level loop resets: upload cleanliness
  /// (redundant-h2d) and pipeline rounds (single-stream-pipeline). Pending
  /// dead-action writes survive — a later sample's overwrite legitimately
  /// consumes them — as do sub-knee shapes (identical ranges dedup anyway)
  /// and the cross-run finding dedup.
  void begin_protocol_sample() {
    clean_upload.clear();
    pipeline.clear();
  }
};

/// Lint one recorded segment against `config`, the platform the record ran
/// (or will run) against: link spec for transfer floors and the duplex/knee
/// rules, device spec for partition alignment. `hazard_count` is the hazard
/// analyzer's verdict for the same segment: rules that reason about ordering
/// (false-dependency) are skipped on racy segments, where "provably
/// unordered" means nothing.
[[nodiscard]] LintReport lint(const GraphRecord& record, const sim::SimConfig& config,
                              LintCarry* carry = nullptr, std::size_t hazard_count = 0);

/// Flush end-of-recording rules (dead-action) out of the carry state.
[[nodiscard]] std::vector<LintFinding> finalize_lint(LintCarry& carry);

/// Check a partition shape against the core granularity of the device
/// (paper Section V / Fig. 9: partition widths that split a 4-thread core
/// hurt both neighbours). Returns the split-core-partition finding the lint
/// rule reports, or nothing for a core-aligned shape.
[[nodiscard]] std::vector<LintFinding> check_partition_shape(const sim::CoprocessorSpec& spec,
                                                             int partitions);

/// Lint results summed over a run's segments: what a linting Capture
/// collects (Capture::lint()) and the lint reports print.
class LintTotals {
public:
  // --- recorder interface ----------------------------------------------------
  /// `elapsed` is the virtual time the segment occupied (flush clock minus the
  /// previous flush clock); `synced` is false for the finalize-path segment of
  /// a context destroyed without a trailing synchronize, whose actions may
  /// still be in flight — its bound is not comparable against elapsed time and
  /// is excluded from the efficiency totals.
  void add_segment(const LintReport& segment, sim::SimTime elapsed, bool synced);
  void add_findings(std::vector<LintFinding> findings);

  // --- results ---------------------------------------------------------------
  [[nodiscard]] const std::vector<LintFinding>& findings() const noexcept { return findings_; }
  [[nodiscard]] bool clean() const noexcept { return findings_.empty(); }
  [[nodiscard]] std::size_t segments() const noexcept { return segments_; }
  [[nodiscard]] std::size_t nodes() const noexcept { return nodes_; }
  /// Summed per-device bound components across synced segments.
  [[nodiscard]] const std::vector<DeviceBound>& devices() const noexcept { return devices_; }
  /// Summed makespan lower bound over synced segments.
  [[nodiscard]] sim::SimTime bound() const noexcept { return bound_; }
  /// Summed virtual elapsed time over synced segments.
  [[nodiscard]] sim::SimTime elapsed() const noexcept { return elapsed_; }
  /// bound / elapsed in (0, 1]: how close the run sits to its structural
  /// floor. Low values mean the schedule left overlap on the table. 0 when
  /// nothing timed ran.
  [[nodiscard]] double overlap_efficiency() const noexcept;

private:
  std::vector<LintFinding> findings_;
  std::vector<DeviceBound> devices_;
  sim::SimTime bound_{};
  sim::SimTime elapsed_{};
  std::size_t segments_ = 0;
  std::size_t nodes_ = 0;
};

}  // namespace ms::analyze
