#include "rt/compiled_graph.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "rt/context.hpp"
#include "rt/errors.hpp"
#include "rt/stream.hpp"
#include "sim/sim_config.hpp"
#include "telemetry/span.hpp"
#include "trace/timeline.hpp"

namespace ms::rt {

namespace {

telemetry::CounterFamily& tel_compiles() {
  static telemetry::CounterFamily& f = telemetry::registry().counter_family(
      "ms_rt_graph_compiles_total", "Graph::compile invocations per graph", "graph");
  return f;
}
telemetry::CounterFamily& tel_replays() {
  static telemetry::CounterFamily& f = telemetry::registry().counter_family(
      "ms_rt_graph_replays_total", "Compiled-graph replays issued per graph", "graph");
  return f;
}
telemetry::HistogramFamily& tel_launch_ns() {
  static telemetry::HistogramFamily& f = telemetry::registry().histogram_family(
      "ms_rt_graph_launch_ns", "Host wall-clock nanoseconds per compiled launch call", "graph");
  return f;
}
telemetry::HistogramFamily& tel_compile_ns() {
  static telemetry::HistogramFamily& f = telemetry::registry().histogram_family(
      "ms_rt_graph_compile_ns", "Host wall-clock nanoseconds per Graph::compile", "graph");
  return f;
}
telemetry::Counter& tel_cache_hits() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_rt_graph_cache_hits_total", "GraphCache lookups served from a cached plan");
  return c;
}
telemetry::Counter& tel_cache_misses() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_rt_graph_cache_misses_total", "GraphCache lookups that compiled a new plan");
  return c;
}

}  // namespace

namespace detail {
void compiled_graph_notify(void* run, std::uint32_t node, sim::SimTime now) {
  CompiledGraph::notify(run, node, now);
}

std::uint64_t compiled_graph_replay_id(void* run) noexcept {
  return static_cast<const CompiledGraph::Run*>(run)->replay_id;
}
}  // namespace detail

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

CompiledGraph::CompiledGraph(Graph g, Context& ctx, std::string name) {
  if (g.empty()) {
    throw Error("Graph::compile: empty graph");
  }
  const std::uint64_t t_compile0 = telemetry::enabled() ? telemetry::now_ns() : 0;
  auto plan = std::make_shared<Plan>();
  plan->name = name.empty() ? "graph" : std::move(name);
  plan->config_fp = sim::fingerprint(ctx.platform().config());

  const std::size_t n = g.nodes_.size();
  int max_stream = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const Graph::Node& src = g.nodes_[i];
    if (src.stream >= ctx.stream_count()) {
      throw Error("Graph::compile: node " + std::to_string(i) + " targets stream " +
                  std::to_string(src.stream) + " but the context has only " +
                  std::to_string(ctx.stream_count()) + " streams");
    }
    max_stream = std::max(max_stream, src.stream);
    if (src.kind == ActionKind::H2D || src.kind == ActionKind::D2H) {
      const std::size_t size = ctx.buffer_size(src.buffer);  // throws on unknown handle
      if (src.offset > size || src.bytes > size - src.offset) {
        throw Error("Graph::compile: node " + std::to_string(i) +
                    " transfer range exceeds buffer size");
      }
    }
  }
  plan->labels.reserve(g.labels_.size());
  for (const std::string& label : g.labels_) plan->labels.push_back(trace::intern_label(label));

  // Dependent lists in CSR form. Counting pass, prefix sums, fill pass —
  // dependents of one node end up ordered by dependent id. A leaf (a node
  // nothing depends on) gets the appended completion barrier as its only
  // dependent; the barrier joins them all on the first node's stream.
  std::vector<std::uint32_t>& at = plan->dependents_at;
  at.assign(n + 2, 0);
  for (const std::uint32_t d : g.deps_) ++at[d + 1];
  for (std::size_t i = 0; i < n; ++i) {
    if (at[i + 1] == 0) {
      at[i + 1] = 1;
      ++plan->barrier_deps;
    }
  }
  for (std::size_t i = 0; i <= n; ++i) at[i + 1] += at[i];
  plan->dependents.resize(at[n]);
  std::vector<std::uint32_t> fill(at.begin(), at.end() - 2);
  const auto barrier_id = static_cast<std::uint32_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint32_t d : g.deps_of(g.nodes_[i])) {
      plan->dependents[fill[d]++] = static_cast<std::uint32_t>(i);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (fill[i] == at[i]) plan->dependents[fill[i]] = barrier_id;  // a leaf
  }

  plan->barrier_stream = g.nodes_.front().stream;
  plan->stream_count = max_stream + 1;
  plan->graph = std::move(g);

  plan->replays_metric = &tel_replays().with(plan->name);
  plan->launch_ns_metric = &tel_launch_ns().with(plan->name);
  tel_compiles().with(plan->name).add(1);
  if (t_compile0 != 0) {
    tel_compile_ns().with(plan->name).observe(telemetry::now_ns() - t_compile0);
  }

  plan_ = std::move(plan);
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

void CompiledGraph::validate_for(Context& ctx) {
  if (exec_.ctx == &ctx && exec_.epoch == ctx.layout_epoch()) return;

  const Plan& plan = *plan_;
  const std::uint64_t fp = sim::fingerprint(ctx.platform().config());
  if (fp != plan.config_fp) {
    throw Error("CompiledGraph::launch: context SimConfig differs from the compiled plan "
                "(recompile for this platform)");
  }
  if (plan.stream_count > ctx.stream_count()) {
    throw Error("CompiledGraph::launch: plan spans " + std::to_string(plan.stream_count) +
                " streams but the context has " + std::to_string(ctx.stream_count()));
  }

  Exec exec;
  exec.ctx = &ctx;
  exec.epoch = ctx.layout_epoch();
  exec.streams.resize(static_cast<std::size_t>(plan.stream_count));
  for (int s = 0; s < plan.stream_count; ++s) {
    exec.streams[static_cast<std::size_t>(s)] = &ctx.stream(s);
  }
  const Graph& g = plan.graph;
  exec.durations.assign(g.size(), sim::SimTime::zero());
  exec.payloads.assign(g.size(), Exec::Payload{});
  const auto& oh = ctx.platform().config().overhead;
  exec.per_node_cost = oh.graph_replay_per_node;
  exec.base_cost = oh.graph_launch_base;

  for (std::size_t i = 0; i < g.size(); ++i) {
    const Graph::Node& node = g.nodes_[i];
    Stream& s = *exec.streams[static_cast<std::size_t>(node.stream)];
    switch (node.kind) {
      case ActionKind::Kernel:
        exec.durations[i] = ctx.cost().kernel_duration(
            node.work, ctx.platform().device(s.device()).partition(s.partition()));
        break;
      case ActionKind::H2D:
      case ActionKind::D2H: {
        const std::size_t size = ctx.buffer_size(node.buffer);  // throws on unknown handle
        if (node.offset > size || node.bytes > size - node.offset) {
          throw Error("CompiledGraph::launch: transfer range exceeds buffer size on this context");
        }
        if (ctx.buffer_backed(node.buffer)) {
          exec.payloads[i].device = ctx.device_data(node.buffer, s.device()) + node.offset;
          exec.payloads[i].host = ctx.buffer_rec(node.buffer).host + node.offset;
        }
        break;
      }
      case ActionKind::Barrier: break;
    }
  }

  exec_ = std::move(exec);
}

// ---------------------------------------------------------------------------
// Launch
// ---------------------------------------------------------------------------

CompiledGraph::Run* CompiledGraph::acquire_run() {
  if (!runs_) runs_ = std::make_unique<RunPool>();
  ++runs_->in_flight;
  if (!runs_->free.empty()) {
    Run* r = runs_->free.back();
    runs_->free.pop_back();
    r->completed = 0;
    return r;
  }
  auto owned = std::make_unique<Run>();
  Run* r = owned.get();
  r->pool = runs_.get();
  r->plan = plan_.get();
  r->actions.resize(plan_->graph.size() + 1, nullptr);
  runs_->all.push_back(std::move(owned));
  return r;
}

Event CompiledGraph::issue_instance(Context& ctx, std::uint64_t replay_id) {
  const Plan& plan = *plan_;
  const Graph& g = plan.graph;
  Run* run = acquire_run();
  run->replay_id = replay_id;

  // Replay pricing: one launch base charge, then one host-thread
  // reservation per node (completion barrier included) in issue order.
  ctx.host_cursor_ += exec_.base_cost;
  const sim::SimTime per_node = exec_.per_node_cost;

  const auto issue = [&](detail::Action* a, std::size_t i, int stream, std::uint32_t deps) {
    a->graph_run = run;
    a->graph_node = static_cast<std::uint32_t>(i);
    a->deps_pending = static_cast<int>(deps);
    a->ready_floor = ctx.host_issue(per_node);
    run->actions[i] = a;
    exec_.streams[static_cast<std::size_t>(stream)]->push_compiled(a);
  };

  // Observers see each node as a direct enqueue of it would report it, its
  // dependencies named by the ids they gave this run's earlier nodes; the
  // completion barrier joins the leaves, the nodes whose only dependent it is.
  const bool observed = ctx.observed();
  const std::size_t count = g.size();
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> deps;
  if (observed) ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Graph::Node& node = g.nodes_[i];
    detail::Action* a = ctx.acquire_action_raw();
    a->kind = node.kind;
    switch (node.kind) {
      case ActionKind::Kernel:
        a->label = node.label == Graph::kNone ? "kernel" : plan.labels[node.label];
        a->duration = exec_.durations[i];
        if (node.fn != Graph::kNone) {
          ctx.set_payload(a, [fp = &g.fns_[node.fn]] { (*fp)(); });
        }
        break;
      case ActionKind::H2D: {
        a->label = "h2d";
        a->bytes = node.bytes;
        const Exec::Payload& p = exec_.payloads[i];
        if (p.device != nullptr) {
          ctx.set_payload(a, [dst = p.device, src = p.host, len = node.bytes] {
            std::memcpy(dst, src, len);
          });
        }
        break;
      }
      case ActionKind::D2H: {
        a->label = "d2h";
        a->bytes = node.bytes;
        const Exec::Payload& p = exec_.payloads[i];
        if (p.device != nullptr) {
          ctx.set_payload(a, [dst = p.host, src = p.device, len = node.bytes] {
            std::memcpy(dst, src, len);
          });
        }
        break;
      }
      case ActionKind::Barrier:
        a->label = "barrier";
        break;
    }
    if (observed) {
      deps.clear();
      for (const std::uint32_t d : g.deps_of(node)) {
        if (ids[d] != 0) deps.push_back(ids[d]);
      }
      ids.push_back(ctx.report_enqueue(*a, *exec_.streams[static_cast<std::size_t>(node.stream)],
                                       deps, node.buffer, node.offset, g.accesses_of(node)));
    }
    issue(a, i, node.stream, node.deps_end - node.deps_begin);
  }
  // The completion barrier: the returned Event needs a state.
  detail::Action* bar = ctx.acquire_action();
  bar->kind = ActionKind::Barrier;
  bar->label = "barrier";
  Event out{bar->state};
  if (observed) {
    deps.clear();
    for (std::size_t i = 0; i < count; ++i) {
      if (plan.dependents[plan.dependents_at[i + 1] - 1] == count && ids[i] != 0) {
        deps.push_back(ids[i]);
      }
    }
    bar->state->ident = ctx.report_enqueue(
        *bar, *exec_.streams[static_cast<std::size_t>(plan.barrier_stream)], deps);
  }
  issue(bar, count, plan.barrier_stream, plan.barrier_deps);
  return out;
}

Event CompiledGraph::launch(Context& ctx) {
  if (ctx.capturing()) {
    throw Error("CompiledGraph::launch: forbidden while the context is capturing");
  }
  const std::uint64_t t0 = telemetry::enabled() ? telemetry::now_ns() : 0;
  validate_for(ctx);
  const std::uint64_t rid = telemetry::next_replay_id();
  Event ev = issue_instance(ctx, rid);
  ++replays_;
  plan_->replays_metric->add(1);
  if (t0 != 0) {
    const std::uint64_t t1 = telemetry::now_ns();
    // Exemplar + host span carry the same replay id the device actions were
    // stamped with: scrape -> span ring -> trace joins end-to-end.
    plan_->launch_ns_metric->observe(t1 - t0, rid);
    telemetry::record_span("rt.graph.launch", t0, t1, rid);
  }
  return ev;
}

void CompiledGraph::orphan_runs() noexcept {
  if (!runs_) return;
  if (runs_->in_flight == 0) {
    runs_.reset();  // nothing in flight: reclaim immediately
    return;
  }
  // Replays still in flight: hand the pool (and the plan it dereferences)
  // over to them. The last completing run deletes the pool in notify().
  runs_->orphaned = true;
  runs_->plan_keepalive = plan_;
  (void)runs_.release();
}

void CompiledGraph::notify(void* run_ptr, std::uint32_t node, sim::SimTime now) {
  Run* run = static_cast<Run*>(run_ptr);
  const Plan& plan = *run->plan;
  // Dependents are stored in increasing node id, so they arm in issue
  // order.
  for (std::uint32_t idx = plan.dependents_at[node]; idx != plan.dependents_at[node + 1]; ++idx) {
    const std::uint32_t d = plan.dependents[idx];
    detail::Action* a = run->actions[d];
    a->ready_floor = sim::max(a->ready_floor, now);
    if (--a->deps_pending == 0) a->stream->maybe_arm(a);
  }
  if (++run->completed == plan.graph.size() + 1) {
    RunPool* pool = run->pool;
    pool->free.push_back(run);
    --pool->in_flight;
    if (pool->orphaned && pool->in_flight == 0) delete pool;
  }
}

// ---------------------------------------------------------------------------
// GraphCache
// ---------------------------------------------------------------------------

GraphCache::Layout GraphCache::layout_of(const Context& ctx) {
  return Layout{sim::fingerprint(ctx.platform().config()), ctx.stream_count(),
                ctx.partitions_per_device(), ctx.device_count()};
}

GraphCache::Slot* GraphCache::find(const Graph& g, const Layout& layout) {
  for (Slot& s : slots_) {
    if (s.layout == layout && s.graph.plan_->graph.same_schedule(g)) {
      s.last_used = ++tick_;
      return &s;
    }
  }
  return nullptr;
}

CompiledGraph GraphCache::get_or_compile(Graph g, Context& ctx, std::string name) {
  if (g.has_kernel_fn()) return std::move(g).compile(ctx, std::move(name));
  const Layout layout = layout_of(ctx);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const Slot* s = find(g, layout)) {
      ++hits_;
      tel_cache_hits().add(1);
      return s->graph;  // copy: shared plan, fresh execution state
    }
  }

  // Compile outside the lock. The plan takes `g` over.
  CompiledGraph compiled = std::move(g).compile(ctx, std::move(name));

  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  tel_cache_misses().add(1);
  // A racing miss on the same schedule may have inserted it meanwhile.
  if (const Slot* s = find(compiled.plan_->graph, layout)) return s->graph;
  if (slots_.size() >= capacity_) {
    auto oldest = std::min_element(slots_.begin(), slots_.end(), [](const Slot& a, const Slot& b) {
      return a.last_used < b.last_used;
    });
    slots_.erase(oldest);
  }
  slots_.push_back(Slot{layout, compiled, ++tick_});
  return compiled;
}

std::vector<CompiledGraph> GraphCache::begin_capture(Context& ctx, Graph& g,
                                                     const std::string& name) {
  const Layout layout = layout_of(ctx);
  std::vector<CompiledGraph> cached;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const Slot*> named;
    named.reserve(slots_.size());
    for (const Slot& s : slots_) {
      if (s.layout == layout && s.graph.name() == name) named.push_back(&s);
    }
    std::sort(named.begin(), named.end(),
              [](const Slot* a, const Slot* b) { return a->last_used > b->last_used; });
    cached.reserve(named.size());
    for (const Slot* s : named) cached.push_back(s->graph);
  }
  std::vector<const Graph*> expect;
  expect.reserve(cached.size());
  for (const CompiledGraph& c : cached) expect.push_back(&c.plan_->graph);
  ctx.begin_capture(g, std::move(expect));
  return cached;
}

void GraphCache::abort_capture(Context& ctx) { ctx.end_capture(); }

std::optional<CompiledGraph> GraphCache::end_capture(Context& ctx, Graph& g,
                                                     const std::vector<CompiledGraph>& cached,
                                                     std::string name) {
  if (const Graph* matched = ctx.finish_capture()) {
    for (const CompiledGraph& c : cached) {
      if (&c.plan_->graph != matched) continue;
      std::lock_guard<std::mutex> lock(mu_);
      // The plan stays a hit even if a racing insert evicted its slot since
      // the capture began: it is still the compiled form of this schedule.
      for (Slot& s : slots_) {
        if (s.graph.plan_ == c.plan_) s.last_used = ++tick_;
      }
      ++hits_;
      tel_cache_hits().add(1);
      return c;
    }
  }
  if (g.empty()) return std::nullopt;
  return get_or_compile(std::move(g), ctx, std::move(name));
}

std::uint64_t GraphCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t GraphCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

void GraphCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  hits_ = 0;
  misses_ = 0;
  tick_ = 0;
}

GraphCache& process_graph_cache() {
  static GraphCache cache;
  return cache;
}

}  // namespace ms::rt
