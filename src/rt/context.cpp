#include "rt/context.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rt/compiled_graph.hpp"
#include "rt/errors.hpp"
#include "rt/graph.hpp"
#include "sim/chunk_depot.hpp"
#include "telemetry/span.hpp"

namespace ms::rt {

void detail::free_state(ActionState* s) noexcept {
  StateStore* store = s->store;
  s->~ActionState();
  StatePool::deallocate(store->states, s);
  StateStoreRelease{}(store);
}

namespace {
/// Per-device link in-flight bytes as a labeled gauge family; its track()
/// names (`ms_rt_link_inflight_bytes{device="0"}`) are registry-owned and
/// stable, shared by the scrape exporters and the Chrome counter track.
telemetry::GaugeFamily& tel_link_inflight() {
  static telemetry::GaugeFamily& f = telemetry::registry().gauge_family(
      "ms_rt_link_inflight_bytes", "Bytes in flight on each device's PCIe link at sample points",
      "device");
  return f;
}

/// A capture phantom's ActionState::ident: kPhantom, the capturing graph's
/// id in bits 32-62 and the node id in bits 0-31 (a graph of 2^32 nodes
/// would need hundreds of GB of host memory).
std::uint64_t phantom_ident(std::uint32_t graph, std::size_t node) {
  return detail::ActionState::kPhantom | (std::uint64_t{graph & 0x7fffffffu} << 32) |
         (node & 0xffffffffu);
}

telemetry::Gauge& tel_depot_parked() {
  static telemetry::Gauge& g = telemetry::registry().gauge(
      "ms_sim_depot_parked_bytes", "Bytes parked in the process-wide chunk depot");
  return g;
}

/// Cached (gauge, track-name) pair per device index, resolved once per
/// process; after the first sample the hot path is two pointer dereferences.
struct LinkTrack {
  telemetry::Gauge* gauge = nullptr;
  const char* name = nullptr;
};

LinkTrack link_track(int device) {
  static std::mutex mu;
  static std::vector<LinkTrack> tracks;
  const auto d = static_cast<std::size_t>(device);
  std::lock_guard<std::mutex> lock(mu);
  while (tracks.size() <= d) {
    const std::string v = std::to_string(tracks.size());
    tracks.push_back(LinkTrack{&tel_link_inflight().with(v), tel_link_inflight().track(v)});
  }
  return tracks[d];
}

telemetry::Counter& tel_enqueues() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_rt_enqueues_total", "Host enqueue calls issued across all contexts");
  return c;
}
telemetry::Counter& tel_actions() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_rt_actions_total", "Actions acquired from the context pools");
  return c;
}
telemetry::Counter& tel_syncs() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_rt_syncs_total", "Context::synchronize calls");
  return c;
}
telemetry::Histogram& tel_sync_ns() {
  static telemetry::Histogram& h = telemetry::registry().histogram(
      "ms_rt_sync_wall_ns", "Wall-clock nanoseconds spent inside Context::synchronize");
  return h;
}

/// The innermost ObserverScope installed on this thread.
thread_local ObserverScope* g_scope = nullptr;
}  // namespace

ObserverScope::ObserverScope() noexcept : prev_(g_scope) { g_scope = this; }

ObserverScope::~ObserverScope() { g_scope = prev_; }

ObserverScope* ObserverScope::current() noexcept { return g_scope; }

Context::Context(const sim::SimConfig& cfg) : platform_(std::make_unique<sim::Platform>(cfg)) {
  if (ObserverScope* scope = ObserverScope::current()) {
    scoped_ = scope->make_observer(cfg);
    observers_.push_back(scoped_.get());
  }
  setup(1);
}

Context::~Context() {
  flush_telemetry();
  // The analyzer reports whatever the last segment accumulated.
  for (Observer* o : observers_) o->on_finish();
  // Actions still in flight (a Context dropped without synchronize()) are
  // placement-constructed in pool nodes, so run their (and their payloads')
  // destructors before the stores release the chunks. In-order queues hold
  // every live action. Only in-flight states can hold waiter edges: detach
  // them, since the actions the edges name die here even when an Event keeps
  // the state alive.
  for (const auto& s : streams_) {
    while (!s->queue_.empty()) {
      detail::Action* a = s->queue_.front();
      s->queue_.pop_front();
      if (a->state) {
        a->state->waiters_head = nullptr;
        a->state->waiters_tail = nullptr;
      }
      release_action(a);
    }
  }
}

int Context::device_count() const noexcept { return platform_->device_count(); }

void Context::setup(int partitions_per_device) {
  if (capture_ != nullptr) {
    throw Error("Context::setup: forbidden while capturing a graph");
  }
  require_all_idle("Context::setup");
  if (partitions_per_device < 1) {
    throw Error("Context::setup: need at least one partition");
  }
  ++layout_epoch_;
  // All streams idle = every recorded action completed before anything that
  // will be enqueued on the new layout: a segment boundary. The new partition
  // count is stamped after the flush — it applies to the next segment.
  for (Observer* o : observers_) o->on_drain(sim::max(host_cursor_, platform_->now()));
  for (Observer* o : observers_) o->on_setup(partitions_per_device);

  const int devices = platform_->device_count();
  for (int d = 0; d < devices; ++d) {
    platform_->device(d).set_partitions(partitions_per_device);
  }

  streams_.clear();
  partitions_ = partitions_per_device;
  for (int d = 0; d < devices; ++d) {
    for (int p = 0; p < partitions_per_device; ++p) {
      const int index = d * partitions_per_device + p;
      streams_.push_back(std::unique_ptr<Stream>(new Stream(*this, index, d, p)));
    }
  }

  const auto& oh = platform_->config().overhead;
  host_cursor_ = sim::max(host_cursor_, platform_->now()) + oh.context_setup_base +
                 oh.context_setup_per_partition *
                     static_cast<double>(partitions_per_device * devices);
}

Stream& Context::stream(int index) {
  if (index < 0 || index >= stream_count()) {
    throw Error("Context::stream: index " + std::to_string(index) + " out of range");
  }
  return *streams_[static_cast<std::size_t>(index)];
}

Stream& Context::stream(int device, int partition) {
  if (device < 0 || device >= device_count() || partition < 0 || partition >= partitions_) {
    throw Error("Context::stream: (device, partition) out of range");
  }
  return stream(device * partitions_ + partition);
}

Stream& Context::add_stream(int device, int partition) {
  if (device < 0 || device >= device_count() || partition < 0 || partition >= partitions_) {
    throw Error("Context::add_stream: (device, partition) out of range");
  }
  ++layout_epoch_;
  const int index = stream_count();
  streams_.push_back(std::unique_ptr<Stream>(new Stream(*this, index, device, partition)));
  host_cursor_ += platform_->config().overhead.context_setup_per_partition;
  return *streams_.back();
}

BufferId Context::create_buffer(void* host, std::size_t bytes) {
  if (host == nullptr || bytes == 0) {
    throw Error("Context::create_buffer: need a non-empty host range");
  }
  BufferRec rec;
  rec.host = static_cast<std::byte*>(host);
  rec.bytes = bytes;
  rec.device_handles.reserve(static_cast<std::size_t>(device_count()));
  for (int d = 0; d < device_count(); ++d) {
    rec.device_handles.push_back(platform_->device(d).memory().allocate(bytes));
  }

  const BufferId id{next_buffer_++};
  buffers_.emplace(id.value, std::move(rec));
  for (Observer* o : observers_) o->on_buffer(id, bytes);

  // Creation is a synchronous host call: charge base + per-MiB cost once.
  const auto& oh = platform_->config().overhead;
  const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  host_cursor_ += oh.alloc_base + oh.alloc_per_mib * mib;
  return id;
}

BufferId Context::create_virtual_buffer(std::size_t bytes) {
  if (bytes == 0) {
    throw Error("Context::create_virtual_buffer: need a non-zero size");
  }
  BufferRec rec;
  rec.host = nullptr;
  rec.bytes = bytes;

  const BufferId id{next_buffer_++};
  buffers_.emplace(id.value, std::move(rec));
  for (Observer* o : observers_) o->on_buffer(id, bytes);

  const auto& oh = platform_->config().overhead;
  const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  host_cursor_ += oh.alloc_base + oh.alloc_per_mib * mib;
  return id;
}

void Context::name_buffer(BufferId id, std::string_view name) {
  if (!observed()) return;
  (void)buffer_rec(id);  // validate the handle
  for (Observer* o : observers_) o->on_buffer_name(id, name);
}

void Context::assume_device_resident(BufferId id) {
  if (!observed()) return;
  (void)buffer_rec(id);  // validate the handle
  for (Observer* o : observers_) o->on_assume_resident(id);
}

void Context::host_write(BufferId id, std::size_t offset, std::size_t bytes) {
  if (!observed()) return;
  const BufferRec& rec = buffer_rec(id);
  if (offset > rec.bytes || bytes > rec.bytes - offset) {
    throw Error("Context::host_write: range out of bounds");
  }
  if (bytes == 0) return;
  for (Observer* o : observers_) o->on_host_write(id, offset, bytes);
}

void Context::host_write(BufferId id) { host_write(id, 0, buffer_rec(id).bytes); }

void Context::mark_protocol_sample() {
  for (Observer* o : observers_) o->on_protocol_sample();
}

void Context::destroy_buffer(BufferId id) {
  if (capture_ != nullptr) {
    throw Error("Context::destroy_buffer: forbidden while capturing a graph");
  }
  require_all_idle("Context::destroy_buffer");
  ++layout_epoch_;
  auto it = buffers_.find(id.value);
  if (it == buffers_.end()) {
    throw Error("Context::destroy_buffer: unknown buffer");
  }
  if (it->second.host != nullptr) {
    for (int d = 0; d < device_count(); ++d) {
      platform_->device(d).memory().free(it->second.device_handles[static_cast<std::size_t>(d)]);
    }
  }
  buffers_.erase(it);
  for (Observer* o : observers_) o->on_free(id);
  host_cursor_ += platform_->config().overhead.alloc_base;
}

std::size_t Context::buffer_size(BufferId id) const { return buffer_rec(id).bytes; }

std::byte* Context::device_data(BufferId id, int device) {
  const BufferRec& rec = buffer_rec(id);
  if (rec.host == nullptr) {
    throw Error("Context::device_data: virtual buffers have no storage");
  }
  if (device < 0 || device >= device_count()) {
    throw Error("Context::device_data: device index out of range");
  }
  return platform_->device(device).memory().data(
      rec.device_handles[static_cast<std::size_t>(device)]);
}

void Context::synchronize() {
  if (capture_ != nullptr) {
    throw Error("Context::synchronize: forbidden while capturing a graph");
  }
  const telemetry::ScopedSpan span("rt.synchronize");
  const std::uint64_t t0 = telemetry::enabled() ? telemetry::now_ns() : 0;
  ++tel_.syncs;
  platform_->engine().run_until_idle();
  for (const auto& s : streams_) {
    if (!s->idle()) {
      throw Error("Context::synchronize: stream still pending after drain (dependency cycle?)");
    }
  }
  const bool cross = device_count() > 1;
  host_cursor_ = sim::max(host_cursor_, platform_->now()) +
                 platform_->cost().sync_overhead(stream_count(), cross);
  // Everything enqueued so far completed before anything enqueued next: a
  // segment boundary. The clock feeds the linter's per-segment elapsed time
  // (its bound must stay <= this span).
  for (Observer* o : observers_) o->on_drain(host_cursor_);
  sample_counter_tracks();
  if (t0 != 0) tel_sync_ns().observe(telemetry::now_ns() - t0);
  flush_telemetry();
}

void Context::wait(const Event& ev) {
  if (capture_ != nullptr) {
    throw Error("Context::wait: forbidden while capturing a graph");
  }
  if (!ev.valid()) return;
  auto& engine = platform_->engine();
  while (!ev.done()) {
    if (!engine.step()) {
      throw Error("Context::wait: event can never complete (missing producer?)");
    }
  }
  host_cursor_ = sim::max(host_cursor_, sim::max(platform_->now(), ev.time())) +
                 platform_->cost().sync_overhead(1, false);
  for (Observer* o : observers_) o->on_host_wait(ev.state_->observer_id(), -1);
}

void Context::set_tracing(bool on) {
  if (on) {
    add_observer(timeline_);
  } else {
    remove_observer(timeline_);
  }
}

void Context::add_observer(Observer& o) {
  if (!observing(o)) observers_.push_back(&o);
}

void Context::remove_observer(Observer& o) {
  const auto it = std::find(observers_.begin(), observers_.end(), &o);
  if (it != observers_.end()) observers_.erase(it);
}

bool Context::observing(const Observer& o) const noexcept {
  return std::find(observers_.begin(), observers_.end(), &o) != observers_.end();
}

std::uint64_t Context::report_enqueue(const detail::Action& a, const Stream& s,
                                      std::span<const std::uint64_t> deps, BufferId buf,
                                      std::size_t offset, std::span<const BufferAccess> accesses) {
  ActionEnqueue e;
  e.kind = a.kind;
  e.stream = s.index();
  e.device = s.device();
  e.partition = s.partition();
  e.label = a.label;
  e.buffer = buf;
  e.offset = offset;
  e.bytes = a.bytes;
  e.accesses = accesses;
  e.duration = a.duration;
  e.deps = deps;
  std::uint64_t id = 0;
  for (Observer* o : observers_) {
    const std::uint64_t mine = o->on_enqueue(e);
    if (id == 0) id = mine;
  }
  return id;
}

std::uint64_t Context::report_enqueue(const detail::Action& a, const Stream& s, Deps deps,
                                      BufferId buf, std::size_t offset,
                                      std::span<const BufferAccess> accesses) {
  // Grown only by numbered dependencies: with no numbering observer (the
  // timeline alone) an enqueue allocates nothing here.
  std::vector<std::uint64_t> ids;
  for (const Event& e : deps) {
    if (e.valid() && e.state_->observer_id() != 0) ids.push_back(e.state_->observer_id());
  }
  return report_enqueue(a, s, ids, buf, offset, accesses);
}

void Context::report_span(const detail::Action& a, sim::SimTime start, sim::SimTime end) {
  const Stream& s = *a.stream;
  trace::Span span;
  span.kind = a.kind == ActionKind::Barrier  ? trace::SpanKind::Sync
              : a.kind == ActionKind::Kernel ? trace::SpanKind::Kernel
              : a.kind == ActionKind::H2D    ? trace::SpanKind::H2D
                                             : trace::SpanKind::D2H;
  span.device = s.device();
  span.stream = s.index();
  span.partition = s.partition();
  span.start = start;
  span.end = end;
  span.bytes = a.bytes;  // 0 for kernels and barriers
  span.label = a.label;
  if (a.graph_run != nullptr) span.replay_id = detail::compiled_graph_replay_id(a.graph_run);
  for (Observer* o : observers_) o->on_span(span);
}

void Context::begin_capture(Graph& g) { begin_capture(g, {}); }

void Context::begin_capture(Graph& g, std::vector<const Graph*> expect) {
  if (capture_ != nullptr) {
    throw Error("Context::begin_capture: a capture is already active");
  }
  if (!expect.empty() && !g.empty()) {
    throw Error("Context::begin_capture: checking against cached schedules needs an empty graph");
  }
  capture_ = &g;
  expect_ = std::move(expect);
  expect_at_ = 0;
  matched_ = 0;
}

const Graph* Context::finish_capture() {
  if (capture_ == nullptr) {
    throw Error("Context::end_capture: no active capture");
  }
  const Graph* hit = nullptr;
  if (expect_at_ < expect_.size()) {
    const Graph& at = *expect_[expect_at_];
    for (std::size_t j = expect_at_; j < expect_.size() && hit == nullptr; ++j) {
      const Graph& e = *expect_[j];
      if (e.size() == matched_ && (j == expect_at_ || e.same_prefix(at, matched_))) hit = &e;
    }
    if (hit == nullptr) capture_->assign_prefix(at, matched_);
  }
  capture_ = nullptr;
  expect_ = {};  // a capture keeps no storage behind
  return hit;
}

std::size_t Context::capture_dep(const Event& e, std::size_t recorded) const {
  if (!e.valid()) return kNoNode;
  const std::uint64_t ident = e.state_->ident;
  if ((ident & detail::ActionState::kPhantom) != 0) {
    const auto node = static_cast<std::size_t>(ident & 0xffffffffu);
    if (ident != phantom_ident(capture_->capture_id_.value, node)) {
      throw Error(
          "Graph capture: dependency is a phantom event recorded into a "
          "different graph; node ids are graph-local");
    }
    if (node >= recorded) {
      throw Error("Graph: dependency on a node that is not recorded yet");
    }
    return node;
  }
  if (e.done()) return kNoNode;  // completed real work orders nothing in a replay
  throw Error(
      "Graph capture: dependency on still-pending non-captured work; "
      "synchronize before begin_capture()");
}

bool Context::capture_matches(const Graph& expect, const Graph::Node& node,
                              const KernelLaunch* launch, Deps deps) const {
  if (matched_ >= expect.size() || !expect.same_node(matched_, node, launch)) return false;
  const Graph::Node& x = expect.nodes_[matched_];
  std::uint32_t k = x.deps_begin;
  for (const Event& e : deps) {
    const std::size_t d = capture_dep(e, matched_);
    if (d == kNoNode) continue;
    if (k == x.deps_end || expect.deps_[k] != d) return false;
    ++k;
  }
  return k == x.deps_end;
}

Event Context::capture(Graph::Node node, KernelLaunch* launch, Deps deps) {
  if (expect_at_ < expect_.size()) {
    const Graph& at = *expect_[expect_at_];
    if (capture_matches(at, node, launch, deps)) return capture_phantom(matched_++);
    // Another cached schedule with the same prefix may still match.
    for (std::size_t j = expect_at_ + 1; j < expect_.size(); ++j) {
      const Graph& e = *expect_[j];
      if (e.size() > matched_ && e.same_prefix(at, matched_) &&
          capture_matches(e, node, launch, deps)) {
        expect_at_ = j;
        return capture_phantom(matched_++);
      }
    }
    // None does: store the matched prefix and record on.
    capture_->assign_prefix(at, matched_);
    expect_ = {};
    expect_at_ = 0;
  }
  Graph& g = *capture_;
  node.deps_begin = static_cast<std::uint32_t>(g.deps_.size());
  try {
    for (const Event& e : deps) {
      const std::size_t d = capture_dep(e, g.size());
      if (d != kNoNode) g.deps_.push_back(static_cast<std::uint32_t>(d));
    }
  } catch (...) {
    g.deps_.resize(node.deps_begin);
    throw;
  }
  return capture_phantom(g.push(node, launch));
}

Event Context::capture_phantom(std::size_t node) {
  detail::StateRef state = make_state();
  state->ident = phantom_ident(capture_->capture_id_.value, node);
  return Event{std::move(state)};
}

Event Context::capture_transfer(ActionKind kind, int stream, BufferId buf, std::size_t offset,
                                std::size_t bytes, Deps deps) {
  Graph::Node n;
  n.kind = kind;
  n.stream = stream;
  n.buffer = buf;
  n.offset = offset;
  n.bytes = bytes;
  return capture(n, nullptr, deps);
}

Event Context::capture_kernel(int stream, KernelLaunch&& launch, Deps deps) {
  Graph::Node n;
  n.kind = ActionKind::Kernel;
  n.stream = stream;
  n.work = launch.work;
  return capture(n, &launch, deps);
}

Event Context::capture_barrier(int stream, Deps deps) {
  Graph::Node n;
  n.kind = ActionKind::Barrier;
  n.stream = stream;
  return capture(n, nullptr, deps);
}

detail::Action* Context::acquire_action() {
  ++tel_.actions;
  auto* a = new (ActionPool::allocate(action_store_)) detail::Action;
  a->state = make_state();
  return a;
}

detail::Action* Context::acquire_action_raw() {
  ++tel_.actions;
  return new (ActionPool::allocate(action_store_)) detail::Action;
}

detail::StateRef Context::make_state() {
  auto* s = new (detail::StatePool::allocate(states_->states)) detail::ActionState;
  s->store = states_.get();
  ++states_->refs;
  return detail::StateRef(s);
}

void Context::release_action(detail::Action* a) {
  if (a->payload != nullptr) {
    std::destroy_at(a->payload);
    PayloadPool::deallocate(payload_store_, a->payload);
  }
  // Destroying the Action drops its state reference; the state's node goes
  // straight back to the pool unless some Event still holds it (then it is
  // freed into the store, kept alive by its count, when the last Event dies).
  a->~Action();
  ActionPool::deallocate(action_store_, a);
}

sim::SimTime Context::host_issue() {
  return host_issue(platform_->cost().enqueue_overhead());
}

sim::SimTime Context::host_issue(sim::SimTime cost) {
  ++tel_.enqueues;
  const auto grant =
      platform_->host_thread().reserve(sim::max(host_cursor_, sim::SimTime::zero()), cost);
  host_cursor_ = grant.end;
  return grant.end;
}

void Context::sample_counter_tracks() {
  if (!telemetry::enabled()) return;
  const auto parked = sim::detail::ChunkDepot::parked_bytes();
  tel_depot_parked().set(static_cast<std::int64_t>(parked));
  telemetry::record_counter_sample("ms_sim_depot_parked_bytes", static_cast<double>(parked));
  for (int d = 0; d < platform_->device_count(); ++d) {
    const auto bytes = platform_->device(d).link().inflight_bytes(platform_->now());
    const LinkTrack t = link_track(d);
    t.gauge->set(static_cast<std::int64_t>(bytes));
    telemetry::record_counter_sample(t.name, static_cast<double>(bytes));
  }
}

void Context::flush_telemetry() noexcept {
  if (tel_.enqueues == 0 && tel_.actions == 0 && tel_.syncs == 0) return;
  if (telemetry::enabled()) {
    tel_enqueues().add(tel_.enqueues);
    tel_actions().add(tel_.actions);
    tel_syncs().add(tel_.syncs);
  }
  // Drop unpublished tallies either way: a run that enables metrics halfway
  // through should not retroactively credit the disabled portion.
  tel_ = {};
}

void Context::require_all_idle(const char* who) const {
  for (const auto& s : streams_) {
    if (!s->idle()) {
      throw Error(std::string(who) + ": streams must be idle");
    }
  }
}

const Context::BufferRec& Context::buffer_rec(BufferId id) const {
  auto it = buffers_.find(id.value);
  if (it == buffers_.end()) {
    throw Error("Context: unknown buffer handle");
  }
  return it->second;
}

}  // namespace ms::rt
