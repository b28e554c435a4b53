#include "rt/graph.hpp"

#include <atomic>

#include "rt/compiled_graph.hpp"
#include "rt/errors.hpp"

namespace ms::rt {

std::uint32_t Graph::CaptureId::next() noexcept {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Graph::NodeId Graph::add(Node node) {
  for (const NodeId d : node.deps) {
    if (d >= nodes_.size()) {
      throw Error("Graph: dependency on a node that is not recorded yet");
    }
  }
  if (node.stream < 0) {
    throw Error("Graph: negative stream index");
  }
  const NodeId id = nodes_.size();
  nodes_.push_back(std::move(node));
  return id;
}

Graph::NodeId Graph::add_h2d(int stream, BufferId buf, std::size_t offset, std::size_t bytes,
                             std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::H2D;
  n.stream = stream;
  n.buffer = buf;
  n.offset = offset;
  n.bytes = bytes;
  n.deps = std::move(deps);
  return add(std::move(n));
}

Graph::NodeId Graph::add_d2h(int stream, BufferId buf, std::size_t offset, std::size_t bytes,
                             std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::D2H;
  n.stream = stream;
  n.buffer = buf;
  n.offset = offset;
  n.bytes = bytes;
  n.deps = std::move(deps);
  return add(std::move(n));
}

Graph::NodeId Graph::add_kernel(int stream, KernelLaunch launch, std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::Kernel;
  n.stream = stream;
  n.launch = std::move(launch);
  n.deps = std::move(deps);
  return add(std::move(n));
}

Graph::NodeId Graph::add_barrier(int stream, std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::Barrier;
  n.stream = stream;
  n.deps = std::move(deps);
  return add(std::move(n));
}

CompiledGraph Graph::compile(Context& ctx, std::string name) const {
  return CompiledGraph(*this, ctx, std::move(name));
}

}  // namespace ms::rt
