#include "rt/graph.hpp"

#include <algorithm>
#include <atomic>

#include "rt/compiled_graph.hpp"
#include "rt/errors.hpp"

namespace ms::rt {

namespace {

/// How many of the most recent distinct labels a new kernel label is looked
/// up in. Apps cycle through a handful of kernel names, so this finds nearly
/// every repeat; a miss only stores the string once more.
constexpr std::size_t kLabelWindow = 8;

/// Everything two nodes must share besides their labels, accesses and
/// dependency ids.
bool same_fields(const auto& a, const auto& b) noexcept {
  return a.kind == b.kind && a.stream == b.stream && a.buffer == b.buffer &&
         a.offset == b.offset && a.bytes == b.bytes && a.work == b.work;
}

}  // namespace

std::uint32_t Graph::CaptureId::next() noexcept {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Graph::NodeId Graph::add(Node n, const std::vector<NodeId>& deps, KernelLaunch* launch) {
  for (const NodeId d : deps) {
    if (d >= nodes_.size()) {
      throw Error("Graph: dependency on a node that is not recorded yet");
    }
  }
  if (n.stream < 0) {
    throw Error("Graph: negative stream index");
  }
  n.deps_begin = static_cast<std::uint32_t>(deps_.size());
  for (const NodeId d : deps) deps_.push_back(static_cast<std::uint32_t>(d));
  return push(n, launch);
}

Graph::NodeId Graph::push(Node n, KernelLaunch* launch) {
  // Node ids and array offsets are 32-bit; a graph that outgrew them would
  // need hundreds of GB of host memory.
  if (nodes_.size() >= kNone || deps_.size() >= kNone ||
      (launch != nullptr && launch->accesses.size() >= kNone - accesses_.size())) {
    deps_.resize(n.deps_begin);
    throw Error("Graph: too many nodes");
  }
  n.deps_end = static_cast<std::uint32_t>(deps_.size());
  n.accesses_begin = n.accesses_end = static_cast<std::uint32_t>(accesses_.size());
  if (launch != nullptr) {
    accesses_.insert(accesses_.end(), launch->accesses.begin(), launch->accesses.end());
    n.accesses_end = static_cast<std::uint32_t>(accesses_.size());
    if (!launch->label.empty()) {
      const std::size_t lo = labels_.size() > kLabelWindow ? labels_.size() - kLabelWindow : 0;
      n.label = kNone;
      for (std::size_t i = labels_.size(); i-- > lo;) {
        if (labels_[i] == launch->label) {
          n.label = static_cast<std::uint32_t>(i);
          break;
        }
      }
      if (n.label == kNone) {
        n.label = static_cast<std::uint32_t>(labels_.size());
        labels_.push_back(launch->label);
      }
    }
    if (launch->fn) {
      n.fn = static_cast<std::uint32_t>(fns_.size());
      fns_.push_back(std::move(launch->fn));
    }
  }
  const NodeId id = nodes_.size();
  nodes_.push_back(n);
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
  return add(n, deps, nullptr);
}

Graph::NodeId Graph::add_d2h(int stream, BufferId buf, std::size_t offset, std::size_t bytes,
                             std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::D2H;
  n.stream = stream;
  n.buffer = buf;
  n.offset = offset;
  n.bytes = bytes;
  return add(n, deps, nullptr);
}

Graph::NodeId Graph::add_kernel(int stream, KernelLaunch launch, std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::Kernel;
  n.stream = stream;
  n.work = launch.work;
  return add(n, deps, &launch);
}

Graph::NodeId Graph::add_barrier(int stream, std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::Barrier;
  n.stream = stream;
  return add(n, deps, nullptr);
}

bool Graph::same_node(NodeId i, const Node& n, const KernelLaunch* launch) const {
  const Node& x = nodes_[i];
  if (!same_fields(x, n)) return false;
  if (launch == nullptr) return x.label == kNone && x.accesses_begin == x.accesses_end;
  const std::span<const BufferAccess> acc = accesses_of(x);
  return label_of(x) == launch->label && (x.fn != kNone) == static_cast<bool>(launch->fn) &&
         std::equal(acc.begin(), acc.end(), launch->accesses.begin(), launch->accesses.end());
}

bool Graph::same_prefix(const Graph& other, std::size_t count) const {
  if (count == 0) return true;
  // Ranges of consecutive nodes are adjacent, so the prefix's ids and
  // accesses are each one contiguous run, compared in one go.
  const Node& last = nodes_[count - 1];
  const Node& other_last = other.nodes_[count - 1];
  if (last.deps_end != other_last.deps_end || last.accesses_end != other_last.accesses_end ||
      !std::equal(deps_.begin(), deps_.begin() + last.deps_end, other.deps_.begin()) ||
      !std::equal(accesses_.begin(), accesses_.begin() + last.accesses_end,
                  other.accesses_.begin())) {
    return false;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Node& a = nodes_[i];
    const Node& b = other.nodes_[i];
    if (!same_fields(a, b) || a.deps_end != b.deps_end || a.accesses_end != b.accesses_end ||
        label_of(a) != other.label_of(b)) {
      return false;
    }
  }
  return true;
}

void Graph::assign_prefix(const Graph& src, std::size_t count) {
  nodes_.assign(src.nodes_.begin(), src.nodes_.begin() + static_cast<std::ptrdiff_t>(count));
  const std::uint32_t deps_end = count == 0 ? 0 : src.nodes_[count - 1].deps_end;
  const std::uint32_t accesses_end = count == 0 ? 0 : src.nodes_[count - 1].accesses_end;
  deps_.assign(src.deps_.begin(), src.deps_.begin() + deps_end);
  accesses_.assign(src.accesses_.begin(), src.accesses_.begin() + accesses_end);
  labels_ = src.labels_;
  fns_ = src.fns_;
}

CompiledGraph Graph::compile(Context& ctx, std::string name) const& {
  return CompiledGraph(Graph(*this), ctx, std::move(name));
}

CompiledGraph Graph::compile(Context& ctx, std::string name) && {
  return CompiledGraph(std::move(*this), ctx, std::move(name));
}

}  // namespace ms::rt
