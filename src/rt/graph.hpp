#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/action.hpp"
#include "rt/buffer.hpp"

namespace ms::rt {

class CompiledGraph;
class Context;

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
  /// Throws rt::Error on an empty or invalid graph.
  [[nodiscard]] CompiledGraph compile(Context& ctx, std::string name = "graph") const;

private:
  friend class CompiledGraph;
  friend class Context;

  /// Process-unique id naming this graph in capture phantoms, so a phantom
  /// recorded into another graph is refused (Context::capture_deps). A copy
  /// draws its own: node ids name nodes of one graph object only.
  struct CaptureId {
    std::uint32_t value = next();
    CaptureId() = default;
    CaptureId(const CaptureId&) noexcept {}
    CaptureId& operator=(const CaptureId&) noexcept { return *this; }
    static std::uint32_t next() noexcept;
  };

  struct Node {
    ActionKind kind = ActionKind::Kernel;
    int stream = 0;
    BufferId buffer{};
    std::size_t offset = 0;
    std::size_t bytes = 0;
    KernelLaunch launch{};
    std::vector<NodeId> deps;
  };

  NodeId add(Node node);

  std::vector<Node> nodes_;
  CaptureId capture_id_;
};

}  // namespace ms::rt
