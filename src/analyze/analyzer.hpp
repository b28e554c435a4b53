#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyze/hazard.hpp"
#include "analyze/record.hpp"

namespace ms::analyze {

/// Merged set of byte intervals, used to track which device bytes have ever
/// been written (the use-before-first-write check). 2D writes are inserted as
/// their bounding interval — a deliberate over-approximation: a D2H of a
/// buffer no recorded action ever touched is always caught; a read of the
/// stride gaps between written rows is not. Races are unaffected (they use
/// exact overlap tests).
class IntervalSet {
public:
  void insert(std::size_t begin, std::size_t end);
  /// Remove [begin, end), splitting runs that straddle the boundary. Used by
  /// the performance linter to invalidate clean-upload ranges on host writes.
  void erase(std::size_t begin, std::size_t end);
  [[nodiscard]] bool covers(std::size_t begin, std::size_t end) const;
  [[nodiscard]] bool empty() const noexcept { return runs_.empty(); }
  /// First sub-interval of [begin, end) not covered (begin==end when covered).
  [[nodiscard]] std::pair<std::size_t, std::size_t> first_gap(std::size_t begin,
                                                              std::size_t end) const;

private:
  std::map<std::size_t, std::size_t> runs_;  // begin -> end, disjoint, merged
};

/// Cross-segment carry state: per (buffer, space) written coverage. Keyed by
/// buffer id and space (kHostSpace or device index).
struct Coverage {
  std::unordered_map<std::uint64_t, IntervalSet> written;

  [[nodiscard]] static std::uint64_t key(std::uint64_t buffer, int space) noexcept {
    return (buffer << 9) | static_cast<std::uint64_t>(space + 1);
  }
};

/// The happens-before order of one segment, shared by the hazard analyzer
/// and the performance linter. Nodes are bucketed per stream, plus one host
/// bucket for HostSync/Free nodes (the host is itself sequential).
struct Order {
  int buckets = 1;                 ///< stream_count + 1; the last is the host
  std::vector<int> bucket;         ///< per node
  std::vector<std::uint32_t> pos;  ///< 1-based position within the bucket
  /// Per node: the same-bucket FIFO predecessor first (when pos > 1), then
  /// the resolved explicit deps in declaration order.
  std::vector<std::vector<std::size_t>> preds;
  std::vector<std::size_t> topo;  ///< Kahn order; misses the nodes a cycle blocks
  /// In-degree left after Kahn: nonzero exactly on the nodes a wait cycle
  /// blocks (the deadlock report walks these).
  std::vector<std::uint32_t> indegree;
  std::size_t edges = 0;  ///< FIFO + explicit edges resolved

  [[nodiscard]] bool cyclic() const noexcept { return topo.size() != preds.size(); }
};

/// Resolve same-stream FIFO edges and explicit deps (ids outside the segment
/// and self-deps are dropped), then sort topologically.
[[nodiscard]] Order resolve_order(const GraphRecord& record);

/// Vector clocks over an acyclic Order. `skip_from`/`skip_to` (SIZE_MAX =
/// none) delete one explicit edge, for the linter's false-dependency what-if;
/// a FIFO edge is never skipped.
class Clocks {
public:
  explicit Clocks(const Order& order, std::size_t skip_from = SIZE_MAX,
                  std::size_t skip_to = SIZE_MAX);
  /// Either node happens-before the other.
  [[nodiscard]] bool ordered(std::size_t a, std::size_t b) const noexcept;

private:
  [[nodiscard]] const std::uint32_t* clock(std::size_t i) const noexcept;
  const Order* order_;
  std::vector<std::uint32_t> vc_;
};

/// One recorded access: node index and access index within that node.
struct AccessRef {
  std::size_t node;
  std::size_t access;
};
/// Accesses keyed by Coverage::key(buffer, space), each list in enqueue
/// order. HostWrite nodes are linter annotations, not memory operations the
/// runtime orders, so they are left out.
using AccessIndex = std::unordered_map<std::uint64_t, std::vector<AccessRef>>;
[[nodiscard]] AccessIndex index_by_location(const GraphRecord& record);

/// Visit every race under `clocks`: two accesses of one location from
/// different nodes, not on the same stream, at least one a write, with
/// overlapping bytes and no ordering. `x` is the earlier entry of its list.
/// The visitor returns false to stop the scan. Returns the number of
/// candidate pairs examined.
std::size_t for_each_race(const GraphRecord& record, const AccessIndex& index,
                          const Clocks& clocks,
                          const std::function<bool(const AccessRef& x, const AccessRef& y)>& visit);

/// Report handle and one-line rendering of an action.
[[nodiscard]] HazardAction describe(const ActionNode& n);
[[nodiscard]] std::string action_str(const HazardAction& a);

/// Run the happens-before analysis over one recorded segment.
///
/// Pipeline: resolve edges (same-stream FIFO + explicit deps) -> Kahn
/// topological sort (failure = wait cycle = Deadlock hazard, reported with
/// the cycle as a stream/action chain) -> vector clocks -> pairwise check of
/// overlapping same-buffer same-space accesses with at least one write and no
/// ordering (RAW/WAR/WAW) -> enqueue-order scans for use-before-first-write
/// D2H reads, use-after-free, and double-free.
///
/// `carry`, when given, seeds written-coverage from earlier segments and is
/// updated with this segment's writes (host writes of the host range count as
/// host-space coverage, device writes per device).
[[nodiscard]] Analysis analyze(const GraphRecord& record, Coverage* carry = nullptr);

}  // namespace ms::analyze
