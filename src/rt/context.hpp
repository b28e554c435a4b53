#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rt/buffer.hpp"
#include "rt/event.hpp"
#include "rt/graph.hpp"
#include "rt/observer.hpp"
#include "rt/pool.hpp"
#include "rt/stream.hpp"
#include "sim/platform.hpp"
#include "trace/timeline.hpp"

namespace ms::rt {

/// The streaming runtime: the public entry point of the library.
///
/// A Context owns a simulated heterogeneous platform (host + N Phi cards),
/// the logical stream/partition layout, buffer registrations, and the
/// virtual host clock that applications measure. Usage mirrors hStreams:
///
///   ms::rt::Context ctx(ms::sim::SimConfig::phi_31sp());
///   ctx.setup(/*partitions=*/4);                 // 4 places, 4 streams
///   auto buf = ctx.create_buffer(std::span(data));
///   ctx.stream(0).enqueue_h2d(buf, 0, bytes);
///   ctx.stream(0).enqueue_kernel({...});
///   ctx.stream(0).enqueue_d2h(buf, 0, bytes);
///   ctx.synchronize();
///   auto elapsed = ctx.host_time() - t0;         // virtual milliseconds
class Context {
public:
  /// The context starts with the observer of the ObserverScope installed on
  /// the constructing thread (an analyze::Capture), if any, and otherwise
  /// with no observer at all.
  explicit Context(const sim::SimConfig& cfg);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- Layout --------------------------------------------------------------

  /// Partition every device into `partitions_per_device` places and create
  /// one stream per place. Re-invocable between phases (requires all streams
  /// idle); charges the paper's context-setup overhead to the host clock.
  void setup(int partitions_per_device);

  [[nodiscard]] int device_count() const noexcept;
  [[nodiscard]] int partitions_per_device() const noexcept { return partitions_; }
  [[nodiscard]] int stream_count() const noexcept { return static_cast<int>(streams_.size()); }

  /// Stream by flat index: device i/P, partition i%P for the setup-created
  /// streams; indices beyond that address streams from add_stream().
  [[nodiscard]] Stream& stream(int index);
  /// Stream by (device, partition) pair.
  [[nodiscard]] Stream& stream(int device, int partition);

  /// Create an *additional* stream bound to an existing partition (hStreams
  /// allows several streams per place). Kernels on it share the partition's
  /// compute resource; its main use is as a dedicated transfer stream so
  /// uploads are not FIFO-blocked behind long kernels of a compute stream.
  /// Invalidated by the next setup() call.
  Stream& add_stream(int device, int partition);

  // --- Buffers ---------------------------------------------------------------

  /// Register a host range and instantiate it (zero-filled) on every device.
  BufferId create_buffer(void* host, std::size_t bytes);

  /// Register a *virtual* buffer: it has a size (so transfers are costed and
  /// range-checked) but no backing storage, and transfers move no bytes.
  /// Paper-scale benchmark runs use these so that a 16384^2 Hotspot grid can
  /// be scheduled without allocating gigabytes; functional runs (tests,
  /// examples) use real buffers instead.
  BufferId create_virtual_buffer(std::size_t bytes);

  /// True when the buffer has real backing storage on host and devices.
  [[nodiscard]] bool buffer_backed(BufferId id) const { return buffer_rec(id).host != nullptr; }

  template <typename T>
  BufferId create_buffer(std::span<T> host) {
    return create_buffer(static_cast<void*>(host.data()), host.size_bytes());
  }

  /// Release a buffer everywhere. All streams must be idle.
  void destroy_buffer(BufferId id);

  /// Attach a human-readable name to a buffer for hazard reports ("J plane",
  /// "centroids"). No-op when no observer is installed.
  void name_buffer(BufferId id, std::string_view name);

  /// Tell the hazard analyzer every device copy of this buffer counts as
  /// initialized — for transfer-only studies (hBench Fig. 5) whose D2H reads
  /// are not produced by any recorded kernel. No-op when no observer is
  /// installed.
  void assume_device_resident(BufferId id);

  /// Declare that the host mutated `[offset, offset+bytes)` of the buffer's
  /// registered range (a reduction result, fresh input data, ...). Consumed
  /// by the performance linter's redundant-h2d rule, which otherwise proves a
  /// re-upload of unchanged bytes pointless; never affects timing, hazard
  /// analysis, or the schedule. No-op when no observer is installed.
  void host_write(BufferId id, std::size_t offset, std::size_t bytes);
  /// Whole-buffer convenience overload.
  void host_write(BufferId id);

  /// Declare that the measurement protocol is starting a fresh sample of the
  /// same workload (apps::measure_ms calls this at each iteration boundary).
  /// The performance linter resets the state that would otherwise read the
  /// harness's deliberate repetition as an app-level loop — re-uploading
  /// unchanged inputs in sample N+1 is protocol, not redundancy. Never
  /// affects timing, hazard analysis, or the schedule; no-op when no
  /// observer is installed.
  void mark_protocol_sample();

  [[nodiscard]] std::size_t buffer_size(BufferId id) const;

  /// Raw device-side shadow storage (for kernel functors).
  [[nodiscard]] std::byte* device_data(BufferId id, int device);

  template <typename T>
  [[nodiscard]] T* device_ptr(BufferId id, int device, std::size_t elem_offset = 0) {
    return reinterpret_cast<T*>(device_data(id, device)) + elem_offset;
  }

  // --- Control ---------------------------------------------------------------

  /// Drain every stream on every device; charges device-level sync overhead
  /// (plus the cross-device premium when more than one card participates).
  void synchronize();

  /// Block the host until `ev` completes, WITHOUT draining unrelated work —
  /// the fine-grained wait that lets a host-side stage (e.g. a reduction)
  /// overlap still-running streams. Null events return immediately.
  void wait(const Event& ev);

  // --- Graph capture ---------------------------------------------------------

  /// Begin recording enqueues into `g` (CUDA stream-capture style): until
  /// end_capture(), every Stream::enqueue_* on this context appends a graph
  /// node instead of issuing work, charges no host time, and returns a
  /// *phantom* event usable only as a dependency of later captured enqueues.
  /// Dependencies on already-completed real events are dropped (a replayable
  /// graph cannot bake in absolute times); depending on still-pending
  /// non-captured work throws, as do synchronize()/wait()/setup() while
  /// capturing. The graph can then be compile()d and replayed.
  void begin_capture(Graph& g);

  /// Stop recording; `g` holds everything enqueued since begin_capture().
  void end_capture() { (void)finish_capture(); }

  [[nodiscard]] bool capturing() const noexcept { return capture_ != nullptr; }

  /// The virtual host clock: what a wall-clock timer around an offload phase
  /// would have read on the real machine.
  [[nodiscard]] sim::SimTime host_time() const noexcept { return host_cursor_; }

  // --- Introspection -----------------------------------------------------------

  /// Record the timeline (off by default): installs the context's timeline
  /// observer, which keeps one span per action until the context dies or
  /// the caller moves timeline() out. Off again removes it; the spans kept
  /// so far stay.
  void set_tracing(bool on);
  [[nodiscard]] bool tracing() const noexcept { return observing(timeline_); }

  /// Install `o` after the observers already present; it sees what the
  /// context does from now on and must outlive its installation (see
  /// Observer). Installing one twice is a no-op.
  void add_observer(Observer& o);
  /// Uninstall `o`; a no-op when it is not installed.
  void remove_observer(Observer& o);

  [[nodiscard]] sim::Platform& platform() noexcept { return *platform_; }
  [[nodiscard]] const sim::Platform& platform() const noexcept { return *platform_; }
  [[nodiscard]] const sim::CostModel& cost() const noexcept { return platform_->cost(); }
  /// The spans recorded while tracing (empty unless set_tracing(true)).
  [[nodiscard]] trace::Timeline& timeline() noexcept { return timeline_.timeline; }
  [[nodiscard]] const trace::Timeline& timeline() const noexcept { return timeline_.timeline; }

  /// Bumped whenever the stream/buffer layout changes (setup, add_stream,
  /// destroy_buffer). Compiled graphs cache their per-context validation
  /// against this, so replays on an unchanged layout skip revalidation.
  [[nodiscard]] std::uint64_t layout_epoch() const noexcept { return layout_epoch_; }

private:
  friend class Stream;
  friend class CompiledGraph;
  friend class GraphCache;

  struct BufferRec {
    std::byte* host = nullptr;
    std::size_t bytes = 0;
    std::vector<sim::DeviceMemory::Handle> device_handles;  // one per device
  };

  /// Reserve the host application thread for one enqueue call; returns the
  /// time at which the action is issued.
  sim::SimTime host_issue();
  /// Same, with an explicit per-call cost — how CompiledGraph charges its
  /// per-node replay cost.
  sim::SimTime host_issue(sim::SimTime cost);

  // --- Graph capture internals ----------------------------------------------

  Event capture_transfer(ActionKind kind, int stream, BufferId buf, std::size_t offset,
                         std::size_t bytes, Deps deps);
  Event capture_kernel(int stream, KernelLaunch&& launch, Deps deps);
  Event capture_barrier(int stream, Deps deps);
  /// Record `node` (with `launch`'s label, accesses and functor, which is
  /// moved out) or, while the capture is checked against cached schedules,
  /// match it in place; returns its phantom.
  Event capture(Graph::Node node, KernelLaunch* launch, Deps deps);
  /// The captured node id a dependency event names, or kNoNode for real work
  /// that already completed; throws for pending real work, for another
  /// graph's phantom and for a node id not below `recorded`.
  std::size_t capture_dep(const Event& e, std::size_t recorded) const;
  static constexpr std::size_t kNoNode = ~std::size_t{0};
  /// Whether `node` with `deps` is node matched_ of `expect`.
  bool capture_matches(const Graph& expect, const Graph::Node& node, const KernelLaunch* launch,
                       Deps deps) const;
  Event capture_phantom(std::size_t node);
  /// begin_capture(g) for an empty `g` that is first checked against the
  /// cached schedules `expect` (most recently used first); see
  /// GraphCache::capture.
  void begin_capture(Graph& g, std::vector<const Graph*> expect);
  /// End the capture. Returns the schedule of `expect` the capture recorded
  /// exactly, if any; otherwise the target graph holds every node recorded.
  const Graph* finish_capture();

  // --- Action / state pools ---------------------------------------------------
  //
  // Streams acquire Actions here per enqueue and release them on completion.
  // Actions, their payloads, their ActionStates and the waiter edges between
  // them live in fixed-node pools with intrusive free lists (and
  // depot-recycled chunk storage), so steady-state scheduling performs no
  // heap allocation and a destroyed Context leaves its pages parked for the
  // next one instead of faulting them back in.

  using ActionPool = detail::NodePool<detail::kPoolNodeBytes<detail::Action>>;
  using PayloadPool = detail::NodePool<detail::kPoolNodeBytes<detail::Payload>>;
  // Every in-flight action holds an Action node until the next synchronize;
  // only actions with a payload hold a payload node too.
  static_assert(ActionPool::kNodeBytes <= 96, "Action node outgrew 96 bytes");

  /// A fresh completion state from this context's store.
  [[nodiscard]] detail::StateRef make_state();
  [[nodiscard]] detail::Action* acquire_action();
  /// Action without a completion state: compiled-graph nodes notify their
  /// dependents through the flattened plan, so no Event/waiter state exists
  /// (and nothing is heap- or pool-allocated beyond the action node).
  [[nodiscard]] detail::Action* acquire_action_raw();
  /// Give `a` a payload node holding `fn`, run when `a` completes.
  template <typename F>
  void set_payload(detail::Action* a, F&& fn) {
    a->payload = new (PayloadPool::allocate(payload_store_)) detail::Payload(std::forward<F>(fn));
  }
  /// Return `a` and its payload node to their pools.
  void release_action(detail::Action* a);

  // --- Observers ----------------------------------------------------------------

  [[nodiscard]] bool observed() const noexcept { return !observers_.empty(); }
  [[nodiscard]] bool observing(const Observer& o) const noexcept;
  /// Report `a` (kind, label, bytes and duration stamped) as issued on `s`
  /// to every observer, with what the action does not keep: the ids of its
  /// dependencies and, for a transfer, the buffer range; for a kernel, its
  /// accesses. The one translation of an action into an ActionEnqueue,
  /// shared by direct enqueues and compiled replays. Returns the first
  /// non-zero id an observer numbered it with (0 = none).
  std::uint64_t report_enqueue(const detail::Action& a, const Stream& s,
                               std::span<const std::uint64_t> deps, BufferId buf = {},
                               std::size_t offset = 0,
                               std::span<const BufferAccess> accesses = {});
  /// Same, for a direct enqueue waiting on `deps`.
  std::uint64_t report_enqueue(const detail::Action& a, const Stream& s, Deps deps,
                               BufferId buf = {}, std::size_t offset = 0,
                               std::span<const BufferAccess> accesses = {});
  /// Report `a`'s span on its stream to every observer.
  void report_span(const detail::Action& a, sim::SimTime start, sim::SimTime end);

  void require_all_idle(const char* who) const;
  [[nodiscard]] const BufferRec& buffer_rec(BufferId id) const;

  /// Host-activity tallies kept as plain members (the enqueue path must not
  /// touch shared atomics) and published to the telemetry registry in one
  /// batch per synchronize() — see flush_telemetry().
  struct TelTally {
    std::uint64_t enqueues = 0;
    std::uint64_t actions = 0;
    std::uint64_t syncs = 0;
  };
  void flush_telemetry() noexcept;

  /// Sample depot/link occupancy counter tracks (telemetry-gated).
  void sample_counter_tracks();

  std::unique_ptr<sim::Platform> platform_;
  sim::SimTime host_cursor_ = sim::SimTime::zero();
  int partitions_ = 0;
  std::uint64_t layout_epoch_ = 0;
  /// Target of an active begin_capture() (null = not capturing).
  Graph* capture_ = nullptr;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::unordered_map<std::uint64_t, BufferRec> buffers_;
  std::uint64_t next_buffer_ = 1;
  ActionPool::Store action_store_;
  PayloadPool::Store payload_store_;
  TelTally tel_;
  std::unique_ptr<detail::StateStore, detail::StateStoreRelease> states_{new detail::StateStore};
  /// Everything watching this context, notified in installation order.
  /// Empty unless tracing, scoped or a caller installed one: the issue path
  /// then pays one emptiness test per enqueue and one per start.
  std::vector<Observer*> observers_;
  /// The observers the context owns: the timeline (listed while tracing)
  /// and the ObserverScope's (listed from construction to destruction).
  TimelineObserver timeline_;
  std::unique_ptr<Observer> scoped_;
  /// Cached schedules the active capture may still be recording, most
  /// recently used first. While expect_at_ names one of them, captured nodes
  /// are compared with it (matched_ so far) and not stored; the capture
  /// target receives the matched prefix at the first node none of them has.
  std::vector<const Graph*> expect_;
  std::size_t expect_at_ = 0;
  std::size_t matched_ = 0;
};

}  // namespace ms::rt
