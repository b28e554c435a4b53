#include "analyze/recorder.hpp"

#include <atomic>
#include <utility>

#include "telemetry/metrics.hpp"

namespace ms::analyze {
namespace {
/// Per-recorder serial OR-ed into node ids so events of one context can
/// never be misread as nodes of another (recorders keep the low 40 bits for
/// their own monotone sequence).
std::atomic<std::uint64_t> g_next_serial{1};

telemetry::Counter& tel_recorded() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_analyze_actions_recorded_total",
      "Transfers, kernels, and barriers captured into action graphs");
  return c;
}
}  // namespace

Recorder::Recorder(const sim::SimConfig& config, Capture& capture)
    : capture_(capture), lint_config_(config) {
  graph_.id_base = g_next_serial.fetch_add(1, std::memory_order_relaxed) << 40;
}

std::uint64_t Recorder::on_enqueue(const rt::ActionEnqueue& e) {
  tel_recorded().add(1);
  std::vector<std::uint64_t> deps(e.deps.begin(), e.deps.end());
  std::uint64_t id = 0;
  switch (e.kind) {
    case rt::ActionKind::H2D:
      id = graph_.add_h2d(e.stream, e.device, e.buffer, e.offset, e.bytes, std::move(deps));
      break;
    case rt::ActionKind::D2H:
      id = graph_.add_d2h(e.stream, e.device, e.buffer, e.offset, e.bytes, std::move(deps));
      break;
    case rt::ActionKind::Kernel:
      // e.duration is resolved against the stream's partition; the linter
      // uses it as the node's critical-path weight.
      accesses_.assign(e.accesses.begin(), e.accesses.end());
      id = graph_.add_kernel(e.stream, e.device, std::string(e.label), accesses_, std::move(deps),
                             e.duration);
      break;
    case rt::ActionKind::Barrier:
      id = graph_.add_barrier(e.stream, std::move(deps));
      break;
  }
  const auto s = static_cast<std::size_t>(e.stream);
  if (last_on_stream_.size() <= s) last_on_stream_.resize(s + 1, 0);
  last_on_stream_[s] = id;
  return id;
}

void Recorder::on_buffer(rt::BufferId id, std::size_t bytes) { graph_.declare_buffer(id, bytes); }

void Recorder::on_buffer_name(rt::BufferId id, std::string_view name) {
  graph_.set_buffer_name(id, std::string(name));
}

void Recorder::on_assume_resident(rt::BufferId id) { graph_.assume_device_resident(id); }

void Recorder::on_free(rt::BufferId id) { graph_.add_free(id); }

void Recorder::on_host_wait(std::uint64_t joined, int stream) {
  if (stream >= 0) {
    const auto s = static_cast<std::size_t>(stream);
    joined = s < last_on_stream_.size() ? last_on_stream_[s] : 0;
  }
  std::vector<std::uint64_t> deps;
  if (joined != 0) deps.push_back(joined);
  graph_.add_host_sync(std::move(deps));
}

void Recorder::on_host_write(rt::BufferId id, std::size_t offset, std::size_t bytes) {
  graph_.add_host_write(id, offset, bytes);
}

void Recorder::on_setup(int partitions) {
  graph_.partitions = partitions;
  last_on_stream_.clear();
}

void Recorder::on_protocol_sample() { lint_carry_.begin_protocol_sample(); }

void Recorder::on_drain(sim::SimTime now) {
  clock_ = now;
  synced_ = true;
  flush();
}

void Recorder::flush() {
  if (graph_.empty()) {
    // Nothing to analyze, but keep the elapsed-time baseline current so the
    // next segment is not charged for idle/setup intervals before it.
    if (synced_) {
      flushed_clock_ = clock_;
      synced_ = false;
    }
    return;
  }
  const Analysis analysis = analyze(graph_, &coverage_);

  if (capture_.linting()) {
    const LintReport report = lint(graph_, lint_config_, &lint_carry_, analysis.hazards.size());
    // A flush without a preceding host drain (finalize of a context that was
    // never synchronized) has actions still in flight: its segment has no
    // completed wall span to compare the bound against.
    capture_.lint().add_segment(report, synced_ ? clock_ - flushed_clock_ : sim::SimTime::zero(),
                                synced_);
  }
  if (synced_) {
    flushed_clock_ = clock_;
    synced_ = false;
  }

  // The destroys of this segment take effect for the next one.
  for (const ActionNode& n : graph_.nodes) {
    if (n.kind != NodeKind::Free) continue;
    auto it = graph_.buffers.find(n.buffer);
    if (it != graph_.buffers.end()) it->second.freed = true;
  }

  capture_.add(analysis, graph_);
  graph_.reset_segment();
}

void Recorder::on_finish() noexcept {
  try {
    flush();
    if (capture_.linting()) capture_.lint().add_findings(finalize_lint(lint_carry_));
  } catch (...) {  // NOLINT(bugprone-empty-catch) — a dtor-path report must not throw
  }
}

}  // namespace ms::analyze
