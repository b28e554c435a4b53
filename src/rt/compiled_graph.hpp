#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
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

namespace ms::analyze {
class GraphRecord;
}  // namespace ms::analyze

namespace ms::rt {

class Context;
class Stream;

namespace detail {
/// Completion hook invoked by Stream::on_complete for actions issued by a
/// compiled graph: walks the plan's dependent list of the finished node and
/// arms whichever dependents just became ready. Defined by CompiledGraph.
void compiled_graph_notify(void* run, std::uint32_t node, sim::SimTime now);

/// Replay id of the batch instance a compiled-graph action belongs to:
/// the run's base id plus the instance index encoded in the batch-global
/// node id. Stamped into trace spans so device actions, the host launch
/// span, and the latency-histogram exemplar join on one id.
[[nodiscard]] std::uint64_t compiled_graph_replay_id(void* run, std::uint32_t node) noexcept;
}  // namespace detail

/// Options for Graph::compile().
struct CompileOptions {
  /// Run the happens-before hazard pass over the flattened DAG at compile
  /// time (races and deadlocks among the *declared* kernel accesses and
  /// transfer ranges; device bytes are assumed resident, since a replayable
  /// graph may legitimately read state produced before it). Throws rt::Error
  /// on the first hazard.
  bool analyze = false;
  /// Run the static performance linter over the flattened DAG at compile time
  /// (critical-path bound plus the anti-pattern rule gallery of
  /// analyze/perf_lint.hpp, evaluated against this context's platform).
  /// Throws rt::Error listing every finding. dead-action is disabled here: a
  /// replayable fragment's outputs are legitimately consumed after replay.
  bool lint = false;
  /// Telemetry label: compiled-graph metrics are labeled families keyed by
  /// this name (`ms_rt_graph_replays_total{graph="..."}`).
  std::string name = "graph";
};

/// The compile-once / replay-millions executor for rt::Graph — the paper's
/// answer to host-side launch cost taken to its hStreams/CUDA-Graphs
/// conclusion. `Graph::compile(ctx)` validates the DAG once (stream and
/// buffer resolution, topological checks, optional hazard pass) and flattens
/// it into contiguous plan arrays: fixed issue order, CSR dependent lists,
/// static dependency counts, precomputed kernel durations and transfer
/// payload pointers. `launch()` then replays the whole schedule with zero
/// steady-state heap allocations and no per-node Event or waiter machinery:
/// intra-graph dependencies are resolved through the plan itself.
///
/// This is the only way a recorded graph is issued. Each replay charges
/// `graph_launch_base` plus `graph_replay_per_node` per node (completion
/// barrier included) to the host clock — far below a per-action enqueue,
/// which the ablation bench measures. On an analyzing context every replay
/// instance is also appended to the context's analyze::Recorder, node for
/// node, exactly as direct enqueues of the same schedule would be.
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

  /// Issue `instances` back-to-back replays in one scheduling pass.
  /// `stream_rotation` r maps instance k's stream s to
  /// (s + k*r) mod stream_span() — round-robin across the plan's streams so
  /// successive instances land on different partitions (requires uniform
  /// partitions; rejected for host-backed buffers on multi-device contexts,
  /// where rotation would change which card's shadow memory is touched).
  /// With rotation 0 the whole batch issues through a per-(context, layout)
  /// arena: actions are materialised once into a slab and later batches only
  /// refresh their scheduling fields, making batched replay strictly cheaper
  /// on the host clock than `instances` separate launch() calls.
  /// Virtual cost equals `instances` separate launch() calls; the returned
  /// event is the last instance's completion barrier.
  Event launch_batch(Context& ctx, int instances, int stream_rotation = 0);

  /// Number of user-recorded nodes (excludes the appended completion barrier).
  [[nodiscard]] std::size_t node_count() const noexcept { return plan_->nodes.size() - 1; }
  /// Streams the plan spans: nodes reference stream indices [0, stream_span).
  [[nodiscard]] int stream_span() const noexcept { return plan_->stream_count; }
  [[nodiscard]] const std::string& name() const noexcept { return plan_->name; }
  /// SimConfig fingerprint the plan was compiled against.
  [[nodiscard]] std::uint64_t config_fingerprint() const noexcept { return plan_->config_fp; }
  /// Replays issued through this instance (both launch and launch_batch).
  [[nodiscard]] std::uint64_t replays() const noexcept { return replays_; }

private:
  friend class Graph;
  friend class GraphCache;
  friend void detail::compiled_graph_notify(void* run, std::uint32_t node, sim::SimTime now);
  friend std::uint64_t detail::compiled_graph_replay_id(void* run, std::uint32_t node) noexcept;

  static constexpr std::uint32_t kNoFn = std::numeric_limits<std::uint32_t>::max();

  /// One flattened node: everything launch() needs, laid out contiguously in
  /// issue order. Dependency edges live in the plan-wide CSR arrays.
  struct PlanNode {
    ActionKind kind = ActionKind::Kernel;
    std::int32_t stream = 0;            ///< graph stream index
    std::uint32_t dep_count = 0;        ///< static initial deps_pending
    std::uint32_t dependents_begin = 0; ///< CSR range into Plan::dependents
    std::uint32_t dependents_end = 0;
    std::uint32_t fn = kNoFn;           ///< index into Plan::kernel_fns
    BufferId buffer{};                  ///< transfers only
    std::size_t offset = 0;
    std::size_t bytes = 0;
    sim::KernelWork work{};             ///< kernels: feeds the cost model
    std::string_view label;             ///< interned; stable for the process
  };

  /// Immutable compiled form, shared by every copy of this executor (and by
  /// GraphCache hits). The last node is the appended completion barrier.
  struct Plan {
    std::string name;
    std::uint64_t config_fp = 0;
    int stream_count = 0;
    std::vector<PlanNode> nodes;
    std::vector<std::uint32_t> dependents;          ///< CSR payload
    std::vector<std::function<void()>> kernel_fns;  ///< reused every replay
    Graph source;  ///< the recorded DAG, re-flattened into analyzing contexts' recorders
    // Telemetry, resolved once at compile time (labeled-family children):
    telemetry::Counter* replays_metric = nullptr;
    telemetry::Histogram* launch_ns_metric = nullptr;
  };

  struct RunPool;

  /// One in-flight replay: the live actions and the (possibly rotated)
  /// stream table. Two flavours share the type. A *single* run (instances ==
  /// 1) points at pool-acquired actions and recycles into the free list when
  /// its last action completes. A *batch arena* (instances > 1, the
  /// launch_batch fast path) owns its actions outright in `slab` — built
  /// once against one (context, layout epoch), then refreshed in place per
  /// batch, so steady-state batches rewrite only the scheduling fields
  /// instead of re-materialising every action.
  struct Run {
    RunPool* pool = nullptr;
    const Plan* plan = nullptr;
    std::vector<detail::Action*> actions;    ///< per plan node (x instances)
    std::vector<Stream*> stream_tab;         ///< graph stream -> context stream
    std::size_t completed = 0;               ///< actions completed so far
    std::size_t target = 0;                  ///< completions that retire this run
    /// First replay id of this run; instance k of a batch is replay_base + k.
    std::uint64_t replay_base = 0;
    // Batch arenas only:
    std::uint32_t instances = 1;
    bool idle = false;                       ///< arena not in flight, reusable
    const Context* built_for = nullptr;
    std::uint64_t built_epoch = 0;
    std::vector<detail::Action> slab;        ///< arena-owned action storage
  };

  /// Free-list of Runs (plus the batch arenas). unique_ptr elements keep Run
  /// addresses stable while this executor (and the pool vector) moves or
  /// grows. When the owning executor is destroyed with replays still in
  /// flight, the pool is orphaned (with a keepalive on the plan) and the
  /// last completing run deletes it.
  struct RunPool {
    std::vector<std::unique_ptr<Run>> all;
    std::vector<Run*> free;     ///< recycled single runs (never arenas)
    std::vector<Run*> arenas;   ///< batch arenas, reused when idle
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
    bool has_backed = false;
    bool rotation_checked = false;
  };

  CompiledGraph(const Graph& g, Context& ctx, const CompileOptions& opts);
  explicit CompiledGraph(std::shared_ptr<const Plan> plan) : plan_(std::move(plan)) {}

  void orphan_runs() noexcept;
  void validate_for(Context& ctx);
  void check_rotation(Context& ctx);
  Event issue_instance(Context& ctx, int rotation, bool want_event, std::uint64_t replay_id);
  Run* acquire_run();
  Run* acquire_arena(Context& ctx, int instances);
  void build_arena(Run& run, Context& ctx);
  Event issue_batch(Context& ctx, Run& run);
  static void notify(void* run, std::uint32_t node, sim::SimTime now);
  /// The one flatten loop behind the compile-time passes and analyzing
  /// replays: emits every node of `g` into `sink` (anything with the
  /// analyze::Recorder on_transfer/on_kernel/on_barrier hooks) on stream
  /// `streams[node.stream]`, with kernel durations resolved against that
  /// stream's partition (the linter's critical-path weights). Returns the
  /// sink's id per node.
  template <typename Sink>
  static std::vector<std::uint64_t> flatten(const Graph& g, Context& ctx,
                                            const std::vector<Stream*>& streams, Sink& sink);
  /// Flatten the graph into a standalone analyzer record against `ctx`'s
  /// layout, buffers assumed device-resident (a replayable graph may read
  /// pre-existing state).
  static analyze::GraphRecord build_record(const Graph& g, Context& ctx);
  /// Append one replay instance (nodes plus completion barrier, on the
  /// possibly rotated `streams`) to `ctx`'s recorder; returns the barrier's
  /// analyzer id.
  std::uint64_t record_instance(Context& ctx, const std::vector<Stream*>& streams);
  static void run_hazard_pass(const Graph& g, Context& ctx);
  static void run_lint_pass(const Graph& g, Context& ctx);

  std::shared_ptr<const Plan> plan_;
  Exec exec_;
  std::unique_ptr<RunPool> runs_;
  std::uint64_t replays_ = 0;
};

/// Keyed store of compiled plans, so repeated evaluations of the same
/// schedule (tuner sweeps, CLI replays, protocol iterations) compile once
/// per distinct (key, SimConfig fingerprint, stream layout) and share the
/// immutable plan. `get_or_compile` hands out a fresh executor over the
/// cached plan on a hit. Thread-safe; least-recently-used plans are evicted
/// beyond `capacity`.
///
/// Caveat: kernel functors are compiled into the plan, so cache across
/// contexts only for timing-only graphs (virtual buffers, no functors) —
/// functors captured against one context's memory must not run against
/// another's. The apps only consult the cache in non-functional mode.
class GraphCache {
public:
  explicit GraphCache(std::size_t capacity = 16) : capacity_(capacity ? capacity : 1) {}

  /// Look up (key, config fingerprint, stream layout); compile and insert on
  /// miss. Returns a fresh executor sharing the cached plan.
  CompiledGraph get_or_compile(std::string_view key, const Graph& g, Context& ctx,
                               const CompileOptions& opts = {});

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void clear();

private:
  struct Slot {
    std::string key;
    CompiledGraph graph;
    std::uint64_t last_used = 0;
  };
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
