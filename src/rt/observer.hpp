#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "rt/access.hpp"
#include "rt/action.hpp"
#include "rt/buffer.hpp"
#include "sim/sim_time.hpp"
#include "trace/timeline.hpp"

namespace ms::sim {
struct SimConfig;
}  // namespace ms::sim

namespace ms::rt {

/// One action as the runtime issues it. A direct Stream::enqueue_* and a
/// CompiledGraph replay report each action of the same schedule with the
/// same event; a replay adds its completion barrier, which joins the
/// schedule's leaves.
struct ActionEnqueue {
  ActionKind kind = ActionKind::Kernel;
  int stream = 0;
  int device = 0;
  int partition = 0;
  /// "h2d", "d2h", "barrier", or the kernel's label ("kernel" when it has
  /// none). Views static or interned storage.
  std::string_view label;
  /// Transfers: the buffer range moved (`bytes` is 0 for kernels and
  /// barriers).
  BufferId buffer{};
  std::size_t offset = 0;
  std::size_t bytes = 0;
  /// Kernels: the declared accesses and the service time already resolved
  /// against this stream's partition.
  std::span<const BufferAccess> accesses;
  sim::SimTime duration{};
  /// The ids the actions this one waits for were numbered with (see
  /// Observer::on_enqueue), in dependency order; unnumbered ones are left out.
  std::span<const std::uint64_t> deps;
};

/// A passive watcher of one Context: the one hook through which the runtime
/// reports what it does to whatever records it (the timeline, the hazard
/// analyzer and linter). An observer never changes a schedule; a context
/// runs identically with any set of them installed, or none.
///
/// A context notifies its observers in installation order, on the thread
/// that drives it. Every event has an empty default, so an observer
/// overrides only what it reads.
class Observer {
public:
  Observer() = default;
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;
  virtual ~Observer() = default;

  // --- per action ------------------------------------------------------------

  /// An action was issued. Returns the id this observer numbers it with, or
  /// 0. The context keeps the first non-zero id its observers return on the
  /// action's Event and passes it back in later `deps` and host waits, so
  /// at most one observer of a context numbers actions (the analyzer's
  /// recorder, when analyzing).
  virtual std::uint64_t on_enqueue(const ActionEnqueue& /*e*/) { return 0; }
  /// An action occupied its resource over [span.start, span.end). Reported
  /// when it starts, or, for a transfer moved in DMA chunks, when its last
  /// chunk completes.
  virtual void on_span(const trace::Span& /*span*/) {}
  /// The host blocked until an action completed. Context::wait reports the
  /// waited action's id as `joined` (0 = unnumbered) and `stream` = -1;
  /// Stream::synchronize reports `joined` = 0 and its `stream`, whose newest
  /// action the host joined.
  virtual void on_host_wait(std::uint64_t /*joined*/, int /*stream*/) {}

  // --- per run: host-side annotations ----------------------------------------

  /// A buffer was registered (backed or virtual).
  virtual void on_buffer(BufferId /*id*/, std::size_t /*bytes*/) {}
  virtual void on_buffer_name(BufferId /*id*/, std::string_view /*name*/) {}
  virtual void on_assume_resident(BufferId /*id*/) {}
  virtual void on_host_write(BufferId /*id*/, std::size_t /*offset*/, std::size_t /*bytes*/) {}
  virtual void on_protocol_sample() {}
  virtual void on_free(BufferId /*id*/) {}
  /// Every stream drained and the host clock reads `now`: everything issued
  /// so far completed before anything issued next.
  virtual void on_drain(sim::SimTime /*now*/) {}
  /// Context::setup stamped a new partition layout for what follows.
  virtual void on_setup(int /*partitions*/) {}
  /// The context is being destroyed.
  virtual void on_finish() noexcept {}
};

/// The one way to observe Contexts one does not construct oneself: while a
/// scope is installed on a thread, every Context constructed on that thread
/// asks it for an observer, owns it and keeps it installed (first) until the
/// context dies. A scope is installed for its lifetime. Scopes nest and the
/// innermost wins; a Context built before the scope, or on another thread,
/// is not observed. The hazard analyzer's analyze::Capture is the one
/// implementation; the contexts it observes must die before it.
class ObserverScope {
public:
  ObserverScope(const ObserverScope&) = delete;
  ObserverScope& operator=(const ObserverScope&) = delete;

  /// The innermost scope installed on this thread (nullptr when none).
  [[nodiscard]] static ObserverScope* current() noexcept;

  /// The observer for a Context being constructed against `cfg`.
  [[nodiscard]] virtual std::unique_ptr<Observer> make_observer(const sim::SimConfig& cfg) = 0;

protected:
  ObserverScope() noexcept;
  virtual ~ObserverScope();

private:
  ObserverScope* prev_;
};

/// The timeline as an observer: keeps every span, in report order.
class TimelineObserver final : public Observer {
public:
  void on_span(const trace::Span& span) override { timeline.record(span); }

  trace::Timeline timeline;
};

}  // namespace ms::rt
