#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "rt/action.hpp"
#include "rt/buffer.hpp"
#include "rt/event.hpp"
#include "rt/ring.hpp"
#include "sim/pcie_link.hpp"

namespace ms::sim {
class Engine;
class Coprocessor;
}  // namespace ms::sim

namespace ms::rt {

class Context;

/// Non-owning view of the events an enqueue waits for. Accepts a braced list
/// (`{a, b}`), a `std::vector<Event>` or a span, so callers pass whatever
/// they hold without building a temporary vector per call.
///
/// A parameter type only: it points into the caller's storage (for a braced
/// list, an array that dies at the end of the calling statement), so never
/// store one or return it.
class Deps {
public:
  Deps() noexcept = default;
  Deps(std::initializer_list<Event> list) noexcept : events_(list.begin(), list.size()) {}
  Deps(const std::vector<Event>& events) noexcept : events_(events) {}
  Deps(std::span<const Event> events) noexcept : events_(events) {}

  [[nodiscard]] const Event* begin() const noexcept { return events_.data(); }
  [[nodiscard]] const Event* end() const noexcept { return events_.data() + events_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

private:
  std::span<const Event> events_;
};

/// One logical stream, bound to one partition of one coprocessor (the
/// hStreams logical/physical mapping of Fig. 3). Actions enqueued into a
/// stream execute strictly in order; actions in *different* streams overlap
/// whenever the hardware resources allow — that is the entire point of the
/// paper. Streams are created by Context::setup() and owned by the Context.
class Stream {
public:
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  [[nodiscard]] int index() const noexcept { return index_; }
  [[nodiscard]] int device() const noexcept { return device_; }
  [[nodiscard]] int partition() const noexcept { return partition_; }

  /// Asynchronously copy [offset, offset+bytes) of the buffer's host range
  /// to this stream's device instantiation. Returns a completion event.
  Event enqueue_h2d(BufferId buf, std::size_t offset, std::size_t bytes, Deps deps = {});

  /// Device-to-host counterpart of enqueue_h2d.
  Event enqueue_d2h(BufferId buf, std::size_t offset, std::size_t bytes, Deps deps = {});

  /// Launch a kernel on this stream's partition.
  Event enqueue_kernel(KernelLaunch launch, Deps deps = {});

  /// Enqueue a zero-duration marker that completes once every `deps` event
  /// AND every earlier action of this stream has completed — a cross-stream
  /// join point without blocking the host (CUDA's event-wait pattern).
  Event enqueue_barrier(Deps deps = {});

  /// Block the host until every action in this stream has completed; charges
  /// the paper's stream-synchronization overhead to the host clock.
  void synchronize();

  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }

private:
  friend class Context;
  friend class CompiledGraph;
  Stream(Context& ctx, int index, int device, int partition);

  /// Append a fully-filled compiled-graph action (kind, label, ready_floor,
  /// deps_pending, payload already set by the plan executor) to the FIFO and
  /// arm it if dependency-free — the tail of enqueue_common without the
  /// per-enqueue event/waiter machinery.
  void push_compiled(detail::Action* a);

  Event enqueue_transfer(ActionKind kind, BufferId buf, std::size_t offset, std::size_t bytes,
                         Deps deps);
  /// Stamp `a` with this stream and its issue time, wire its dependencies
  /// and queue it.
  Event enqueue_common(detail::Action* a, Deps deps);
  /// CostModel::kernel_duration on this stream's partition, through memo_.
  sim::SimTime kernel_duration(const sim::KernelWork& work);
  void maybe_arm(detail::Action* a);
  void start(detail::Action* a);
  /// A transfer larger than the link's DMA chunk: reserve its first chunk
  /// now and the rest one at a time through next_chunk().
  void start_transfer_chunked(detail::Action* a, std::size_t chunk, sim::SimTime now);
  /// Completion of a chunk of `a`, with `left` bytes still to move; the span
  /// runs from the first chunk's start. The continuation is captured by
  /// value, so a chunked transfer allocates nothing.
  void next_chunk(detail::Action* a, std::size_t left, sim::SimTime span_start);
  void on_complete(detail::Action* a);
  /// Mark `st` complete at `now` and fire its waiter edges in registration
  /// order, returning each edge to the state's pool.
  static void complete_state(detail::ActionState& st, sim::SimTime now);

  Context* ctx_;
  // Cached hot-path plumbing, stable for this stream's lifetime: streams are
  // recreated by Context::setup() whenever the partition layout (and with it
  // these resources) is rebuilt.
  sim::Engine* engine_;
  sim::Coprocessor* dev_;
  sim::FifoResource* part_res_;
  int index_;
  int device_;
  int partition_;
  /// In-order action queue; entries are owned by the Context's action pool
  /// and returned to it on completion.
  detail::PtrRing<detail::Action> queue_;
  /// Memo of kernel durations: a stream re-issues the same few KernelWorks,
  /// and the partition, the cost model's other input, is fixed for the
  /// stream's lifetime. Keyed on the work's bit pattern; the first
  /// memo_size_ entries are live, replaced round-robin at memo_next_.
  struct MemoKey {
    std::uint64_t flops;
    std::uint64_t elems;
    std::uint64_t temp_alloc_bytes;
    sim::KernelKind kind;
    bool temp_alloc_per_thread;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoEntry {
    MemoKey key;
    sim::SimTime duration;
  };
  static constexpr std::size_t kMemoEntries = 8;
  std::array<MemoEntry, kMemoEntries> memo_{};
  std::size_t memo_size_ = 0;
  std::size_t memo_next_ = 0;
};

}  // namespace ms::rt
