#pragma once

#include <memory>

#include "analyze/analyzer.hpp"
#include "analyze/perf_lint.hpp"
#include "analyze/record.hpp"
#include "rt/observer.hpp"

namespace ms::analyze {

/// Scoped, thread-local analysis: the one way to turn the hazard analyzer,
/// and optionally the performance linter, on. While a Capture is alive on a
/// thread, every rt::Context constructed on that thread owns a Recorder that
/// records its action graph and reports each segment's hazards (and lint)
/// here. Captures nest; the innermost wins, and an outer one records nothing
/// from contexts built inside an inner one. Each worker thread of a parallel
/// sweep installs its own Capture, so per-candidate attribution needs no
/// locking. The contexts a Capture observes must die before it, and they
/// write into it, so a Capture is never declared const.
class Capture final : public rt::ObserverScope {
public:
  /// `lint`: also run every segment through the performance linter
  /// (perf_lint.hpp) against the platform config of its context.
  explicit Capture(bool lint = false) : linting_(lint) {}

  /// A Recorder reporting here, for a Context being constructed.
  [[nodiscard]] std::unique_ptr<rt::Observer> make_observer(const sim::SimConfig& cfg) override;

  /// Called by the recorder at each flush.
  void add(const Analysis& analysis, const GraphRecord& record);

  /// True when no segment had a hazard.
  [[nodiscard]] bool clean() const noexcept { return merged_.hazards.empty(); }
  [[nodiscard]] const Analysis& result() const noexcept { return merged_; }
  /// The record of the last hazardous segment (for the dot report); empty
  /// when everything was clean.
  [[nodiscard]] const GraphRecord& racy_record() const noexcept { return racy_; }

  [[nodiscard]] bool linting() const noexcept { return linting_; }
  /// Lint findings and bound/elapsed totals; empty unless linting.
  [[nodiscard]] LintTotals& lint() noexcept { return lint_totals_; }
  [[nodiscard]] const LintTotals& lint() const noexcept { return lint_totals_; }

private:
  bool linting_;
  Analysis merged_;
  GraphRecord racy_;
  LintTotals lint_totals_;
};

}  // namespace ms::analyze
