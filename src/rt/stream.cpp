#include "rt/stream.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/errors.hpp"
#include "trace/timeline.hpp"

namespace ms::rt {

using detail::Action;

namespace {

sim::Direction link_direction(const Action& a) {
  return a.kind == ActionKind::H2D ? sim::Direction::HostToDevice
                                   : sim::Direction::DeviceToHost;
}

}  // namespace

Stream::Stream(Context& ctx, int index, int device, int partition)
    : ctx_(&ctx),
      engine_(&ctx.platform().engine()),
      dev_(&ctx.platform().device(device)),
      part_res_(&dev_->partition_resource(partition)),
      index_(index),
      device_(device),
      partition_(partition) {}

Event Stream::enqueue_h2d(BufferId buf, std::size_t offset, std::size_t bytes, Deps deps) {
  return enqueue_transfer(ActionKind::H2D, buf, offset, bytes, deps);
}

Event Stream::enqueue_d2h(BufferId buf, std::size_t offset, std::size_t bytes, Deps deps) {
  return enqueue_transfer(ActionKind::D2H, buf, offset, bytes, deps);
}

Event Stream::enqueue_transfer(ActionKind kind, BufferId buf, std::size_t offset,
                               std::size_t bytes, Deps deps) {
  const auto& rec = ctx_->buffer_rec(buf);
  if (offset > rec.bytes || bytes > rec.bytes - offset) {
    throw Error("Stream::enqueue transfer: range exceeds buffer size");
  }
  if (bytes == 0) {
    throw Error("Stream::enqueue transfer: zero-length transfer");
  }
  if (ctx_->capture_ != nullptr) {
    return ctx_->capture_transfer(kind, index_, buf, offset, bytes, deps);
  }

  Action* a = ctx_->acquire_action();
  a->kind = kind;
  a->label = kind == ActionKind::H2D ? "h2d" : "d2h";
  a->bytes = bytes;

  // Functional payload: move real bytes between the host range and this
  // stream's device shadow, at virtual completion time. Virtual buffers are
  // timing-only and carry no payload.
  Context* ctx = ctx_;
  const int dev = device_;
  if (rec.host == nullptr) {
    // no-op payload
  } else if (kind == ActionKind::H2D) {
    ctx->set_payload(a, [ctx, buf, offset, bytes, dev] {
      std::memcpy(ctx->device_data(buf, dev) + offset,
                  static_cast<const std::byte*>(ctx->buffer_rec(buf).host) + offset, bytes);
    });
  } else {
    ctx->set_payload(a, [ctx, buf, offset, bytes, dev] {
      std::memcpy(static_cast<std::byte*>(ctx->buffer_rec(buf).host) + offset,
                  ctx->device_data(buf, dev) + offset, bytes);
    });
  }
  if (ctx_->observed()) a->state->ident = ctx_->report_enqueue(*a, *this, deps, buf, offset);
  return enqueue_common(a, deps);
}

Event Stream::enqueue_kernel(KernelLaunch launch, Deps deps) {
  if (ctx_->capture_ != nullptr) {
    return ctx_->capture_kernel(index_, std::move(launch), deps);
  }
  // Costed first: an invalid KernelWork throws before an action is taken.
  const sim::SimTime duration = kernel_duration(launch.work);
  Action* a = ctx_->acquire_action();
  a->kind = ActionKind::Kernel;
  a->label = "kernel";
  a->duration = duration;
  if (launch.fn) ctx_->set_payload(a, std::move(launch.fn));
  // Labels only feed observers; intern them (stable storage, no per-span
  // string) and skip the intern-table lock entirely when nothing observes.
  if (ctx_->observed()) {
    if (!launch.label.empty()) a->label = trace::intern_label(launch.label);
    a->state->ident = ctx_->report_enqueue(*a, *this, deps, {}, 0, launch.accesses);
  }
  return enqueue_common(a, deps);
}

sim::SimTime Stream::kernel_duration(const sim::KernelWork& work) {
  const MemoKey key{std::bit_cast<std::uint64_t>(work.flops),
                    std::bit_cast<std::uint64_t>(work.elems),
                    std::bit_cast<std::uint64_t>(work.temp_alloc_bytes), work.kind,
                    work.temp_alloc_per_thread};
  for (std::size_t i = 0; i < memo_size_; ++i) {
    if (memo_[i].key == key) return memo_[i].duration;
  }
  // The cost model validates the work and throws before anything is stored,
  // so every entry holds a valid work and a hit needs no check.
  const sim::SimTime d = ctx_->cost().kernel_duration(work, dev_->partition(partition_));
  memo_[memo_next_] = MemoEntry{key, d};
  memo_next_ = (memo_next_ + 1) % kMemoEntries;
  if (memo_size_ < kMemoEntries) ++memo_size_;
  return d;
}

Event Stream::enqueue_barrier(Deps deps) {
  if (ctx_->capture_ != nullptr) {
    return ctx_->capture_barrier(index_, deps);
  }
  Action* a = ctx_->acquire_action();
  a->kind = ActionKind::Barrier;
  a->label = "barrier";
  if (ctx_->observed()) a->state->ident = ctx_->report_enqueue(*a, *this, deps);
  return enqueue_common(a, deps);
}

Event Stream::enqueue_common(Action* a, Deps deps) {
  a->stream = this;
  a->ready_floor = ctx_->host_issue();

  // Wire cross-stream dependencies. Completed deps only raise the ready
  // floor; pending ones append an edge to the dep's waiter list, which
  // re-arms this action when the dep completes. The dep's state is kept
  // alive by its still-pending Action, so the edge needs no reference.
  for (const Event& e : deps) {
    if (!e.valid() || e.done()) {
      a->ready_floor = sim::max(a->ready_floor, e.time());
      continue;
    }
    ++a->deps_pending;
    detail::ActionState* dep = e.state_.get();
    auto* edge = new (detail::EdgePool::allocate(dep->store->edges))
        detail::WaitEdge{nullptr, a};
    if (dep->waiters_tail != nullptr) {
      dep->waiters_tail->next = edge;
    } else {
      dep->waiters_head = edge;
    }
    dep->waiters_tail = edge;
  }

  queue_.push_back(a);
  a->pred_done = queue_.size() == 1;
  const Event ev{a->state};
  maybe_arm(a);
  return ev;
}

void Stream::maybe_arm(Action* a) {
  if (a->armed || !a->pred_done || a->deps_pending > 0) return;
  a->armed = true;

  sim::Engine& engine = *engine_;
  const sim::SimTime ready = sim::max(a->ready_floor, engine.now());
  if (ready == engine.now() && engine.dispatching()) {
    // The action is ready at the current instant and we are already inside
    // the event that unblocked it (a predecessor's or dependency's
    // completion). A queued start would fire at this same point in the
    // event order — every same-timestamp event ahead of us has already
    // fired, and later arms get later seq numbers either way — so dispatch
    // inline and save the queue round-trip. This halves the events per
    // action on a draining stream without changing any grant order.
    start(a);
    return;
  }
  engine.schedule_at(ready, [this, a] { start(a); });
}

void Stream::start(Action* a) {
  sim::Engine& engine = *engine_;
  const sim::SimTime now = engine.now();

  if (a->kind == ActionKind::Barrier) {
    // No resource use: the barrier completes as soon as it is reached.
    if (ctx_->observed()) ctx_->report_span(*a, now, now);
    engine.schedule_at(now, [this, a] { on_complete(a); });
    return;
  }

  sim::FifoResource::Grant grant{};
  if (a->kind == ActionKind::Kernel) {
    grant = part_res_->reserve(now, a->duration);
  } else {
    const std::size_t chunk = dev_->link().spec().dma_chunk_bytes;
    if (chunk > 0 && a->bytes > chunk) {
      start_transfer_chunked(a, chunk, now);
      return;
    }
    grant = dev_->link().reserve(link_direction(*a), now, a->bytes);
  }

  if (ctx_->observed()) ctx_->report_span(*a, grant.start, grant.end);
  engine.schedule_at(grant.end, [this, a] { on_complete(a); });
}

void Stream::start_transfer_chunked(Action* a, std::size_t chunk, sim::SimTime now) {
  // Progressive reservation: each chunk is requested only when the previous
  // one finishes, so competing transfers that become ready mid-way slot in
  // between chunks (no head-of-line blocking behind a huge upload).
  const std::size_t first_len = std::min(chunk, a->bytes);
  const auto first =
      dev_->link().reserve_chunk(link_direction(*a), now, first_len, /*first_chunk=*/true);
  a->duration = sim::SimTime::zero();  // unused for chunked transfers
  engine_->schedule_at(first.end, [this, a, left = a->bytes - first_len, span_start = first.start] {
    next_chunk(a, left, span_start);
  });
}

void Stream::next_chunk(Action* a, std::size_t left, sim::SimTime span_start) {
  const sim::SimTime now = engine_->now();
  if (left == 0) {
    if (ctx_->observed()) ctx_->report_span(*a, span_start, now);
    on_complete(a);
    return;
  }
  auto& link = dev_->link();
  const std::size_t len = std::min(link.spec().dma_chunk_bytes, left);
  const auto grant = link.reserve_chunk(link_direction(*a), now, len, /*first_chunk=*/false);
  engine_->schedule_at(grant.end, [this, a, left = left - len, span_start] {
    next_chunk(a, left, span_start);
  });
}

void Stream::push_compiled(Action* a) {
  a->stream = this;
  queue_.push_back(a);
  a->pred_done = queue_.size() == 1;
  maybe_arm(a);
}

void Stream::on_complete(Action* a) {
  // Strict in-order streams: the completing action is necessarily the front.
  if (queue_.empty() || queue_.front() != a) {
    throw Error("Stream: completion order corrupted (internal bug)");
  }
  if (a->payload != nullptr) (*a->payload)();
  queue_.pop_front();

  const sim::SimTime now = engine_->now();
  // Notification order: external waiters (the state's, when one exists)
  // fire before graph dependents, and both before the stream's next action
  // arms.
  if (a->state) complete_state(*a->state.get(), now);
  if (a->graph_run != nullptr) detail::compiled_graph_notify(a->graph_run, a->graph_node, now);

  if (!queue_.empty()) {
    Action* next = queue_.front();
    next->pred_done = true;
    maybe_arm(next);
  }

  // Notification and successor arming are done; recycle the action.
  ctx_->release_action(a);
}

void Stream::complete_state(detail::ActionState& st, sim::SimTime now) {
  st.done = true;
  st.end = now;
  // Detach first: a dependent may enqueue work that waits on this same
  // state, which now takes the completed-dep path instead.
  detail::WaitEdge* edge = std::exchange(st.waiters_head, nullptr);
  st.waiters_tail = nullptr;
  while (edge != nullptr) {
    const detail::WaitEdge e = *edge;
    detail::EdgePool::deallocate(st.store->edges, edge);
    e.action->ready_floor = sim::max(e.action->ready_floor, now);
    if (--e.action->deps_pending == 0) e.action->stream->maybe_arm(e.action);
    edge = e.next;
  }
}

void Stream::synchronize() {
  if (ctx_->capture_ != nullptr) {
    throw Error("Stream::synchronize: forbidden while capturing a graph");
  }
  sim::Engine& engine = *engine_;
  while (!queue_.empty()) {
    if (!engine.step()) {
      throw Error("Stream::synchronize: pending actions but no events (deadlock?)");
    }
  }
  const sim::SimTime sync = ctx_->cost().sync_overhead(1, false);
  ctx_->host_cursor_ = sim::max(ctx_->host_cursor_, ctx_->platform().now()) + sync;
  // Later enqueues (any stream) happen-after everything this stream had
  // queued; its most recent action's completion subsumes the whole FIFO.
  for (Observer* o : ctx_->observers_) o->on_host_wait(0, index_);
}

}  // namespace ms::rt
