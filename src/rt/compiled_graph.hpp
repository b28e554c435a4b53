#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rt/action.hpp"
#include "rt/buffer.hpp"
#include "rt/event.hpp"
#include "rt/graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/sim_time.hpp"
#include "telemetry/metrics.hpp"

namespace ms::rt {

class Context;
class Stream;

namespace detail {
/// Completion hook invoked by Stream::on_complete for actions issued by a
/// compiled graph: walks the plan's dependent list of the finished node and
/// arms whichever dependents just became ready. Defined by CompiledGraph.
void compiled_graph_notify(void* run, std::uint32_t node, sim::SimTime now);

/// Replay id of the run a compiled-graph action belongs to. Stamped into
/// trace spans so device actions, the host launch span, and the
/// latency-histogram exemplar join on one id.
[[nodiscard]] std::uint64_t compiled_graph_replay_id(void* run) noexcept;
}  // namespace detail

/// The compile-once / replay-millions executor for rt::Graph — the paper's
/// answer to host-side launch cost taken to its hStreams/CUDA-Graphs
/// conclusion. `Graph::compile(ctx, name)` validates the DAG once (stream
/// and buffer resolution, topological checks) and flattens it into
/// contiguous plan arrays: fixed issue order, CSR dependent lists,
/// static dependency counts, precomputed kernel durations and transfer
/// payload pointers. `launch()` then replays the whole schedule with zero
/// steady-state heap allocations and no per-node Event or waiter machinery:
/// intra-graph dependencies are resolved through the plan itself.
///
/// This is the only way a recorded graph is issued. Each replay charges
/// `graph_launch_base` plus `graph_replay_per_node` per node (completion
/// barrier included) to the host clock — far below a per-action enqueue,
/// which the ablation bench measures. On an observed context every replayed
/// action is reported to the context's observers through the same enqueue
/// event a direct enqueue of it would raise (Context::report_enqueue), so
/// the analyzer records a replay node for node like direct issue.
///
/// Compatibility: a compiled graph can launch on any context whose SimConfig
/// fingerprint matches the compile-time one and whose layout satisfies the
/// plan (enough streams, known buffers of sufficient size). Validation is
/// cached per (context, layout epoch), so steady-state replays skip it.
///
/// Instances are copyable: copies share the immutable plan but carry fresh
/// per-context execution state (this is how GraphCache hands out executors).
/// Destroying an executor while a launch is still in flight is safe: the
/// plan and the live run state are kept alive until the last action of the
/// last replay completes, then reclaimed.
class CompiledGraph {
public:
  CompiledGraph(const CompiledGraph& other) : plan_(other.plan_) {}
  CompiledGraph& operator=(const CompiledGraph& other) {
    if (this != &other) {
      orphan_runs();
      plan_ = other.plan_;
      exec_ = Exec{};
    }
    return *this;
  }
  CompiledGraph(CompiledGraph&&) noexcept = default;
  CompiledGraph& operator=(CompiledGraph&& other) noexcept {
    if (this != &other) {
      orphan_runs();
      plan_ = std::move(other.plan_);
      exec_ = std::move(other.exec_);
      runs_ = std::move(other.runs_);
      replays_ = other.replays_;
    }
    return *this;
  }
  ~CompiledGraph() { orphan_runs(); }

  /// Replay the whole recorded schedule once. Charges graph_launch_base plus
  /// the per-node replay cost and returns the completion event of the
  /// appended leaf-joining barrier.
  Event launch(Context& ctx);

  /// Number of user-recorded nodes (excludes the appended completion barrier).
  [[nodiscard]] std::size_t node_count() const noexcept { return plan_->graph.size(); }
  /// Streams the plan spans: nodes reference stream indices [0, stream_span).
  [[nodiscard]] int stream_span() const noexcept { return plan_->stream_count; }
  /// Telemetry label: compiled-graph metrics are labeled families keyed by
  /// this name (`ms_rt_graph_replays_total{graph="..."}`).
  [[nodiscard]] const std::string& name() const noexcept { return plan_->name; }
  /// SimConfig fingerprint the plan was compiled against.
  [[nodiscard]] std::uint64_t config_fingerprint() const noexcept { return plan_->config_fp; }
  /// Replays issued through this instance.
  [[nodiscard]] std::uint64_t replays() const noexcept { return replays_; }

private:
  friend class Graph;
  friend class GraphCache;
  friend void detail::compiled_graph_notify(void* run, std::uint32_t node, sim::SimTime now);
  friend std::uint64_t detail::compiled_graph_replay_id(void* run) noexcept;

  /// Immutable compiled form, shared by every copy of this executor (and by
  /// GraphCache hits). It holds the recorded graph once: replays read its
  /// node table, and analyzing contexts' recorders re-flatten it. Plan node
  /// ids are graph node ids, plus the appended completion barrier with id
  /// graph.size().
  struct Plan {
    std::string name;
    std::uint64_t config_fp = 0;
    int stream_count = 0;
    Graph graph;
    /// Dependent lists in CSR form: node i arms dependents[dependents_at[i],
    /// dependents_at[i + 1]) when it completes, in increasing id. A leaf's
    /// only dependent is the completion barrier, which has none.
    std::vector<std::uint32_t> dependents_at;
    std::vector<std::uint32_t> dependents;
    std::vector<std::string_view> labels;  ///< graph label index -> interned label
    std::uint32_t barrier_deps = 0;        ///< leaves the completion barrier joins
    int barrier_stream = 0;                ///< the first node's stream
    // Telemetry, resolved once at compile time (labeled-family children):
    telemetry::Counter* replays_metric = nullptr;
    telemetry::Histogram* launch_ns_metric = nullptr;
  };

  struct RunPool;

  /// One in-flight replay: the pool-acquired actions it issued, each of
  /// which names its stream. Recycles into the free list when its last
  /// action completes.
  struct Run {
    RunPool* pool = nullptr;
    const Plan* plan = nullptr;
    std::vector<detail::Action*> actions;    ///< per plan node, barrier included
    std::size_t completed = 0;               ///< actions completed so far
    std::uint64_t replay_id = 0;
  };

  /// Free-list of Runs. unique_ptr elements keep Run addresses stable while
  /// this executor (and the pool vector) moves or grows. When the owning
  /// executor is destroyed with replays still in flight, the pool is
  /// orphaned (with a keepalive on the plan) and the last completing run
  /// deletes it.
  struct RunPool {
    std::vector<std::unique_ptr<Run>> all;
    std::vector<Run*> free;     ///< recycled runs
    std::size_t in_flight = 0;  ///< runs issued and not yet fully completed
    bool orphaned = false;
    std::shared_ptr<const Plan> plan_keepalive;
  };

  /// Per-context validation cache + precomputed launch state.
  struct Exec {
    const Context* ctx = nullptr;
    std::uint64_t epoch = ~std::uint64_t{0};
    std::vector<Stream*> streams;          ///< graph stream -> context stream
    std::vector<sim::SimTime> durations;   ///< kernel nodes, this layout
    struct Payload {
      std::byte* device = nullptr;  ///< device shadow + offset
      std::byte* host = nullptr;    ///< host range + offset
    };
    std::vector<Payload> payloads;  ///< backed transfers; null otherwise
    sim::SimTime per_node_cost = sim::SimTime::zero();
    sim::SimTime base_cost = sim::SimTime::zero();
  };

  CompiledGraph(Graph g, Context& ctx, std::string name);
  explicit CompiledGraph(std::shared_ptr<const Plan> plan) : plan_(std::move(plan)) {}

  void orphan_runs() noexcept;
  void validate_for(Context& ctx);
  Event issue_instance(Context& ctx, std::uint64_t replay_id);
  Run* acquire_run();
  static void notify(void* run, std::uint32_t node, sim::SimTime now);

  std::shared_ptr<const Plan> plan_;
  Exec exec_;
  std::unique_ptr<RunPool> runs_;
  std::uint64_t replays_ = 0;
};

/// Store of compiled plans, so repeated evaluations of the same schedule
/// (tuner sweeps, CLI replays, protocol iterations) compile once and share
/// the immutable plan. A cached plan is reused only for a graph whose
/// recorded schedule equals the plan's graph node for node, on a context
/// with the same SimConfig fingerprint and stream layout; a plan of another
/// size or with other dependency and access counts is ruled out before any
/// node is compared. A hit hands out a fresh executor over the cached plan.
/// Thread-safe; least-recently-used plans are evicted beyond `capacity`.
///
/// Only graphs without kernel functors are cached: functors captured against
/// one context's memory must not run against another's. Transfer payloads
/// are safe to share, since each executor resolves them per context.
class GraphCache {
public:
  explicit GraphCache(std::size_t capacity = 16) : capacity_(capacity ? capacity : 1) {}

  /// Return an executor for `g` on `ctx`: a fresh one over a cached plan on a
  /// hit, else compile under `name` (and insert, when `g` has no kernel
  /// functor). On a miss `g` moves into the new plan.
  CompiledGraph get_or_compile(Graph g, Context& ctx, std::string name = "graph");

  /// Stream-capture what `record()` enqueues on `ctx` and return an executor
  /// for it, or nothing when it enqueued nothing. While the capture matches
  /// a cached plan compiled under `name` for this layout, each node is
  /// checked against that plan as it is recorded and nothing is stored; a
  /// complete match is a hit on that plan. At the first node no such plan
  /// matches, the matched prefix is copied into a fresh graph and the
  /// capture records on; the result then goes through get_or_compile.
  template <typename F>
  std::optional<CompiledGraph> capture(Context& ctx, std::string name, F&& record) {
    Graph g;
    const std::vector<CompiledGraph> cached = begin_capture(ctx, g, name);
    try {
      record();
    } catch (...) {
      abort_capture(ctx);
      throw;
    }
    return end_capture(ctx, g, cached, std::move(name));
  }

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void clear();

private:
  /// Everything besides the schedule that a plan must match.
  struct Layout {
    std::uint64_t config_fp = 0;
    int streams = 0;
    int partitions = 0;
    int devices = 0;
    bool operator==(const Layout&) const = default;
  };
  struct Slot {
    Layout layout;
    CompiledGraph graph;
    std::uint64_t last_used = 0;
  };
  static Layout layout_of(const Context& ctx);
  /// The slot replaying `g` under `layout`, or null. Caller holds mu_.
  Slot* find(const Graph& g, const Layout& layout);
  /// Begin capturing into the empty `g`, checked against the cached plans
  /// named `name` for ctx's layout; returns executors over them, most
  /// recently used first, which keep the plans alive for the capture.
  std::vector<CompiledGraph> begin_capture(Context& ctx, Graph& g, const std::string& name);
  static void abort_capture(Context& ctx);
  std::optional<CompiledGraph> end_capture(Context& ctx, Graph& g,
                                           const std::vector<CompiledGraph>& cached,
                                           std::string name);

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::size_t capacity_;
};

/// Process-wide cache used by the apps and the CLI (`mstream_cli graph`).
[[nodiscard]] GraphCache& process_graph_cache();

}  // namespace ms::rt
