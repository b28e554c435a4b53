#pragma once

#include <string>
#include <utility>

#include "analyze/analyzer.hpp"
#include "analyze/record.hpp"
#include "rt/errors.hpp"

namespace ms::analyze {

/// Thrown by an analyzing Context at the next synchronization point when the
/// segment contains hazards (the `MS_ANALYZE=1` abort mode). what() carries
/// the full human-readable report.
class HazardError : public rt::Error {
public:
  HazardError(std::string what, Analysis analysis)
      : rt::Error(std::move(what)), analysis_(std::move(analysis)) {}

  [[nodiscard]] const Analysis& analysis() const noexcept { return analysis_; }

private:
  Analysis analysis_;
};

/// Scoped, thread-local hazard sink. While a Capture is alive on a thread,
/// every rt::Context constructed on that thread records its action graph and
/// *reports* hazards here instead of throwing — the collection mode behind
/// `mstream_cli analyze` and the Tuner/KnnTuner batch validation. Captures
/// nest; the innermost wins. Each worker thread of a parallel sweep installs
/// its own Capture, so per-candidate attribution needs no locking.
class Capture {
public:
  Capture();
  ~Capture();
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  /// The Capture currently installed on this thread (nullptr when none).
  [[nodiscard]] static Capture* current() noexcept;

  /// Called by the runtime recorder at each flush.
  void add(const Analysis& analysis, const GraphRecord& record);

  [[nodiscard]] bool clean() const noexcept { return merged_.hazards.empty(); }
  [[nodiscard]] const Analysis& result() const noexcept { return merged_; }
  /// The record of the last hazardous segment (for the dot report); empty
  /// when everything was clean.
  [[nodiscard]] const GraphRecord& racy_record() const noexcept { return racy_; }

private:
  Capture* prev_ = nullptr;
  Analysis merged_;
  GraphRecord racy_;
};

}  // namespace ms::analyze
