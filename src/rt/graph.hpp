#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "rt/access.hpp"
#include "rt/action.hpp"
#include "rt/buffer.hpp"
#include "sim/cost_model.hpp"

namespace ms::rt {

class CompiledGraph;
class Context;
class GraphCache;

/// A recorded schedule that can be replayed repeatedly — the CUDA-Graphs
/// style answer to the host-side enqueue cost this library models (and that
/// Fig. 10 of the paper shows drowning fine-grained tilings): describe the
/// actions and their dependency edges once, compile() the DAG against a
/// context, then replay the resulting rt::CompiledGraph for the price of one
/// launch call plus a small per-node replay cost instead of a full
/// `action_enqueue` per action.
///
/// Nodes reference streams by index and buffers by handle; dependencies are
/// node-ids of *earlier* nodes (the graph is acyclic by construction).
/// compile() validates against the target context, so one graph can be
/// compiled for any context with compatible streams/buffers. Graphs can be
/// hand-built through the add_* calls or recorded from real enqueues with
/// Context::begin_capture()/end_capture().
///
/// Storage is a flat node table: each node is a fixed-size record whose
/// dependency ids, declared accesses, label and functor live in graph-wide
/// arrays, so recording a node appends to a few vectors and allocates
/// nothing of its own.
class Graph {
public:
  using NodeId = std::size_t;

  /// Record a host-to-device transfer on `stream`.
  NodeId add_h2d(int stream, BufferId buf, std::size_t offset, std::size_t bytes,
                 std::vector<NodeId> deps = {});

  /// Record a device-to-host transfer on `stream`.
  NodeId add_d2h(int stream, BufferId buf, std::size_t offset, std::size_t bytes,
                 std::vector<NodeId> deps = {});

  /// Record a kernel launch on `stream`. The functor (if any) runs on every
  /// replay.
  NodeId add_kernel(int stream, KernelLaunch launch, std::vector<NodeId> deps = {});

  /// Record a zero-cost join point on `stream`.
  NodeId add_barrier(int stream, std::vector<NodeId> deps = {});

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  /// Validate and flatten the DAG against `ctx` once, returning the executor
  /// that replays it (see rt::CompiledGraph for the pricing and the
  /// compatibility rules). `name` labels the executor's telemetry families.
  /// The executor keeps its own copy of the graph; compiling an rvalue moves
  /// it there instead. Throws rt::Error on an empty or invalid graph.
  [[nodiscard]] CompiledGraph compile(Context& ctx, std::string name = "graph") const&;
  [[nodiscard]] CompiledGraph compile(Context& ctx, std::string name = "graph") &&;

private:
  friend class CompiledGraph;
  friend class Context;
  friend class GraphCache;

  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  /// Process-unique id naming this graph in capture phantoms, so a phantom
  /// recorded into another graph is refused (Context::capture_dep). A copy
  /// draws its own: node ids name nodes of one graph object only.
  struct CaptureId {
    std::uint32_t value = next();
    CaptureId() = default;
    CaptureId(const CaptureId&) noexcept {}
    CaptureId& operator=(const CaptureId&) noexcept { return *this; }
    static std::uint32_t next() noexcept;
  };

  /// One recorded action. Its dependency ids and declared accesses are the
  /// [begin, end) ranges of deps_ and accesses_; ranges of consecutive nodes
  /// are adjacent, so a prefix of nodes owns a prefix of each array.
  struct Node {
    ActionKind kind = ActionKind::Kernel;
    std::int32_t stream = 0;
    std::uint32_t label = kNone;  ///< kernels: index into labels_; kNone = unlabeled
    std::uint32_t fn = kNone;     ///< kernels: index into fns_; kNone = no functor
    std::uint32_t deps_begin = 0;
    std::uint32_t deps_end = 0;
    std::uint32_t accesses_begin = 0;
    std::uint32_t accesses_end = 0;
    BufferId buffer{};  ///< transfers only
    std::size_t offset = 0;
    std::size_t bytes = 0;
    sim::KernelWork work{};  ///< kernels only
  };
  static_assert(std::is_trivially_copyable_v<Node>);

  [[nodiscard]] std::string_view label_of(const Node& n) const noexcept {
    return n.label == kNone ? std::string_view{} : std::string_view{labels_[n.label]};
  }
  [[nodiscard]] std::span<const std::uint32_t> deps_of(const Node& n) const noexcept {
    return {deps_.data() + n.deps_begin, deps_.data() + n.deps_end};
  }
  [[nodiscard]] std::span<const BufferAccess> accesses_of(const Node& n) const noexcept {
    return {accesses_.data() + n.accesses_begin, accesses_.data() + n.accesses_end};
  }

  /// Append `n`, whose deps are already validated, from a hand-built add_*.
  NodeId add(Node n, const std::vector<NodeId>& deps, KernelLaunch* launch);
  /// Finish appending `n`, whose dependency ids are already the tail of
  /// deps_ from n.deps_begin: stores the launch's label, accesses and
  /// functor (the functor is moved out of it).
  NodeId push(Node n, KernelLaunch* launch);

  /// Whether node `i` records `n` as built from `launch` (null for
  /// transfers and barriers): kind, stream, range, work, label, declared
  /// accesses and functor presence. Dependencies are not compared.
  [[nodiscard]] bool same_node(NodeId i, const Node& n, const KernelLaunch* launch) const;
  /// Node-by-node equality of the first `count` nodes of this graph and
  /// `other` (both at least that long): what same_node compares except
  /// functor presence, plus the dependency ids.
  [[nodiscard]] bool same_prefix(const Graph& other, std::size_t count) const;
  [[nodiscard]] bool same_schedule(const Graph& other) const {
    return size() == other.size() && same_prefix(other, size());
  }
  [[nodiscard]] bool has_kernel_fn() const noexcept { return !fns_.empty(); }
  /// Replace this graph's nodes with the first `count` nodes of `src`.
  void assign_prefix(const Graph& src, std::size_t count);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> deps_;
  std::vector<BufferAccess> accesses_;
  std::vector<std::string> labels_;
  std::vector<std::function<void()>> fns_;
  CaptureId capture_id_;
};

}  // namespace ms::rt
