#include "analyze/analyzer.hpp"

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "telemetry/span.hpp"

namespace ms::analyze {
namespace {

telemetry::Counter& tel_segments() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_analyze_segments_total", "Hazard-analysis segments processed");
  return c;
}
telemetry::Counter& tel_nodes() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_analyze_nodes_total", "Action nodes fed to the hazard analyzer");
  return c;
}
telemetry::Counter& tel_edges() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_analyze_edges_total", "Ordering edges (FIFO + explicit deps) resolved per analysis");
  return c;
}
telemetry::Counter& tel_overlap_tests() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_analyze_overlap_tests_total", "Candidate access pairs examined by the race scan");
  return c;
}
telemetry::Counter& tel_hazards() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_analyze_hazards_total", "Hazards reported across all analyses");
  return c;
}

/// Keep pathological graphs from producing unbounded reports: one missing
/// edge in a tiled app can race hundreds of pairs.
constexpr std::size_t kMaxHazards = 100;

std::string range_str(const rt::MemRange& r) {
  std::string s = "bytes [" + std::to_string(r.offset) + ", ";
  if (r.rows <= 1) {
    s += std::to_string(r.offset + r.len) + ")";
  } else {
    s += std::to_string(r.span_end()) + "), " + std::to_string(r.rows) + " rows of " +
         std::to_string(r.len) + " every " + std::to_string(r.stride);
  }
  return s;
}

std::string space_str(int space) {
  return space == kHostSpace ? std::string("host copy") : "device " + std::to_string(space) + " copy";
}

}  // namespace

void IntervalSet::insert(std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  // Absorb every run overlapping or touching [begin, end).
  auto it = runs_.upper_bound(begin);
  if (it != runs_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) {
      begin = prev->first;
      end = std::max(end, prev->second);
      it = runs_.erase(prev);
    }
  }
  while (it != runs_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = runs_.erase(it);
  }
  runs_.emplace(begin, end);
}

void IntervalSet::erase(std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  auto it = runs_.upper_bound(begin);
  if (it != runs_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) {
      const std::size_t prev_end = prev->second;
      prev->second = begin;  // keep the left remainder
      if (prev->second == prev->first) runs_.erase(prev);
      if (prev_end > end) {
        runs_.emplace(end, prev_end);  // right remainder of a straddling run
        return;
      }
    }
  }
  while (it != runs_.end() && it->first < end) {
    if (it->second <= end) {
      it = runs_.erase(it);
    } else {
      runs_.emplace(end, it->second);
      runs_.erase(it);
      return;
    }
  }
}

bool IntervalSet::covers(std::size_t begin, std::size_t end) const {
  auto [gb, ge] = first_gap(begin, end);
  return gb == ge;
}

std::pair<std::size_t, std::size_t> IntervalSet::first_gap(std::size_t begin,
                                                           std::size_t end) const {
  if (begin >= end) return {end, end};
  auto it = runs_.upper_bound(begin);
  if (it == runs_.begin()) return {begin, it == runs_.end() ? end : std::min(end, it->first)};
  auto prev = std::prev(it);
  if (prev->second >= end) return {end, end};
  if (prev->second > begin) {
    // Covered up to prev->second; gap starts there.
    return {prev->second, it == runs_.end() ? end : std::min(end, it->first)};
  }
  return {begin, it == runs_.end() ? end : std::min(end, it->first)};
}

HazardAction describe(const ActionNode& n) {
  HazardAction a;
  a.id = n.id;
  a.stream = n.stream;
  a.kind = n.kind;
  a.label = n.label;
  return a;
}

std::string action_str(const HazardAction& a) {
  std::string s = "action #" + std::to_string(a.id & 0xFFFFFFFFFFull) + " '" + a.label + "' (" +
                  std::string(to_string(a.kind));
  if (a.stream >= 0) {
    s += ", stream " + std::to_string(a.stream);
  } else {
    s += ", host";
  }
  s += ")";
  return s;
}

Order resolve_order(const GraphRecord& record) {
  const std::vector<ActionNode>& nodes = record.nodes;
  const std::size_t n = nodes.size();
  Order o;
  o.buckets = record.stream_count + 1;
  o.bucket.resize(n);
  o.pos.assign(n, 0);
  o.preds.assign(n, {});
  {
    std::vector<std::size_t> last(static_cast<std::size_t>(o.buckets), SIZE_MAX);
    for (std::size_t i = 0; i < n; ++i) {
      const int b = nodes[i].stream >= 0 ? nodes[i].stream : record.stream_count;
      o.bucket[i] = b;
      const auto bu = static_cast<std::size_t>(b);
      if (last[bu] != SIZE_MAX) o.preds[i].push_back(last[bu]);
      o.pos[i] = last[bu] == SIZE_MAX ? 1 : o.pos[last[bu]] + 1;
      last[bu] = i;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint64_t dep : nodes[i].deps) {
      auto it = record.id_to_index.find(dep);
      if (it == record.id_to_index.end() || it->second == i) continue;
      o.preds[i].push_back(it->second);
    }
  }

  // Kahn; nodes a wait cycle blocks keep a nonzero in-degree.
  o.indegree.assign(n, 0);
  std::vector<std::vector<std::size_t>> succs(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t p : o.preds[i]) {
      succs[p].push_back(i);
      ++o.indegree[i];
      ++o.edges;
    }
  }
  o.topo.reserve(n);
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (o.indegree[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop_front();
    o.topo.push_back(i);
    for (const std::size_t s : succs[i]) {
      if (--o.indegree[s] == 0) ready.push_back(s);
    }
  }
  return o;
}

Clocks::Clocks(const Order& order, std::size_t skip_from, std::size_t skip_to)
    : order_(&order),
      vc_(order.preds.size() * static_cast<std::size_t>(order.buckets), 0) {
  const auto buckets = static_cast<std::size_t>(order.buckets);
  for (const std::size_t i : order.topo) {
    std::uint32_t* ci = vc_.data() + i * buckets;
    const std::vector<std::size_t>& preds = order.preds[i];
    // The first slot of a non-leading node is its FIFO edge.
    const std::size_t explicit_from = order.pos[i] > 1 ? 1 : 0;
    for (std::size_t k = 0; k < preds.size(); ++k) {
      if (k >= explicit_from && i == skip_to && preds[k] == skip_from) continue;
      const std::uint32_t* cp = clock(preds[k]);
      for (std::size_t b = 0; b < buckets; ++b) ci[b] = std::max(ci[b], cp[b]);
    }
    ci[order.bucket[i]] = order.pos[i];
  }
}

const std::uint32_t* Clocks::clock(std::size_t i) const noexcept {
  return vc_.data() + i * static_cast<std::size_t>(order_->buckets);
}

// a happens-before b  <=>  b's clock has reached a's position.
bool Clocks::ordered(std::size_t a, std::size_t b) const noexcept {
  return clock(b)[order_->bucket[a]] >= order_->pos[a] ||
         clock(a)[order_->bucket[b]] >= order_->pos[b];
}

AccessIndex index_by_location(const GraphRecord& record) {
  AccessIndex index;
  for (std::size_t i = 0; i < record.nodes.size(); ++i) {
    if (record.nodes[i].kind == NodeKind::HostWrite) continue;
    for (std::size_t a = 0; a < record.nodes[i].accesses.size(); ++a) {
      const Access& acc = record.nodes[i].accesses[a];
      index[Coverage::key(acc.buffer.value, acc.space)].push_back({i, a});
    }
  }
  return index;
}

std::size_t for_each_race(const GraphRecord& record, const AccessIndex& index,
                          const Clocks& clocks,
                          const std::function<bool(const AccessRef& x, const AccessRef& y)>& visit) {
  const std::vector<ActionNode>& nodes = record.nodes;
  std::size_t tests = 0;
  for (const auto& [key, entries] : index) {
    (void)key;
    for (std::size_t x = 0; x < entries.size(); ++x) {
      const std::size_t ni = entries[x].node;
      const Access& ax = nodes[ni].accesses[entries[x].access];
      for (std::size_t y = x + 1; y < entries.size(); ++y) {
        ++tests;
        const std::size_t nj = entries[y].node;
        if (ni == nj) continue;
        if (nodes[ni].stream == nodes[nj].stream && nodes[ni].stream >= 0) continue;
        const Access& ay = nodes[nj].accesses[entries[y].access];
        if (!rt::access_writes(ax.mode) && !rt::access_writes(ay.mode)) continue;
        if (!ax.range.overlaps(ay.range)) continue;
        if (clocks.ordered(ni, nj)) continue;
        if (!visit(entries[x], entries[y])) return tests;
      }
    }
  }
  return tests;
}

Analysis analyze(const GraphRecord& record, Coverage* carry) {
  const telemetry::ScopedSpan tel_span("analyze.segment");
  std::uint64_t tel_pair_tests = 0;

  Analysis out;
  const std::vector<ActionNode>& nodes = record.nodes;
  const std::size_t n = nodes.size();
  out.nodes_analyzed = n;

  const Order order = resolve_order(record);
  if (order.cyclic()) {
    // Walk predecessors inside the residual graph until a node repeats; the
    // repeated suffix is a wait cycle.
    std::size_t start = SIZE_MAX;
    for (std::size_t i = 0; i < n; ++i) {
      if (order.indegree[i] > 0) {
        start = i;
        break;
      }
    }
    std::vector<std::size_t> path;
    std::unordered_map<std::size_t, std::size_t> seen;  // node -> path index
    std::size_t cur = start;
    while (seen.find(cur) == seen.end()) {
      seen.emplace(cur, path.size());
      path.push_back(cur);
      std::size_t next = SIZE_MAX;
      for (const std::size_t p : order.preds[cur]) {
        if (order.indegree[p] > 0) {
          next = p;
          break;
        }
      }
      cur = next;  // residual nodes always keep a residual predecessor
    }
    Hazard h;
    h.kind = HazardKind::Deadlock;
    std::string msg = "deadlock: wait cycle ";
    for (std::size_t i = seen[cur]; i < path.size(); ++i) {
      h.cycle.push_back(describe(nodes[path[i]]));
    }
    std::reverse(h.cycle.begin(), h.cycle.end());  // waiter -> waited-on order
    h.cycle.push_back(h.cycle.front());
    for (std::size_t i = 0; i < h.cycle.size(); ++i) {
      if (i > 0) msg += " -> ";
      msg += action_str(h.cycle[i]);
    }
    h.first = h.cycle.front();
    h.second = h.cycle[1];
    h.message = std::move(msg);
    out.hazards.push_back(std::move(h));
  } else if (n > 0) {
    // The race scan is sound only on acyclic graphs.
    std::unordered_set<std::uint64_t> reported;  // (lo_index << 32) | hi_index
    tel_pair_tests = for_each_race(
        record, index_by_location(record), Clocks(order),
        [&](const AccessRef& x, const AccessRef& y) {
          const std::size_t ni = x.node;
          const std::size_t nj = y.node;
          const std::uint64_t pair_key =
              (static_cast<std::uint64_t>(std::min(ni, nj)) << 32) | std::max(ni, nj);
          if (!reported.insert(pair_key).second) return true;

          // Present in enqueue order: `first` was enqueued before `second`.
          const bool x_first = ni < nj;
          const ActionNode& nf = nodes[x_first ? ni : nj];
          const ActionNode& ns = nodes[x_first ? nj : ni];
          const Access& af = nf.accesses[(x_first ? x : y).access];
          const Access& as = ns.accesses[(x_first ? y : x).access];

          Hazard h;
          if (rt::access_writes(af.mode) && rt::access_writes(as.mode)) {
            h.kind = HazardKind::RaceWAW;
          } else if (rt::access_writes(af.mode)) {
            h.kind = HazardKind::RaceRAW;
          } else {
            h.kind = HazardKind::RaceWAR;
          }
          h.buffer = af.buffer.value;
          h.buffer_name = record.buffer_name(h.buffer);
          h.space = af.space;
          h.first = describe(nf);
          h.second = describe(ns);
          h.range_first = af.range;
          h.range_second = as.range;
          h.message = std::string(to_string(h.kind)) + " on " + space_str(h.space) +
                      " of buffer '" + h.buffer_name + "': " + action_str(h.first) + " (" +
                      (rt::access_writes(af.mode) ? "writes " : "reads ") +
                      range_str(af.range) + ") is unordered with " + action_str(h.second) +
                      " (" + (rt::access_writes(as.mode) ? "writes " : "reads ") +
                      range_str(as.range) +
                      "); missing edge: pass the completion event of " + action_str(h.first) +
                      " into the enqueue of " + action_str(h.second);
          out.hazards.push_back(std::move(h));
          return out.hazards.size() < kMaxHazards;
        });
  }

  // --- enqueue-order scans: use-before-write, use-after-free, double-free --
  Coverage local;
  Coverage& cov = carry != nullptr ? *carry : local;

  struct Freed {
    bool in_segment = false;
    HazardAction by;
  };
  std::unordered_map<std::uint64_t, Freed> freed;
  for (const auto& [id, info] : record.buffers) {
    if (info.freed) freed.emplace(id, Freed{});  // freed before this segment
  }

  for (std::size_t i = 0; i < n && out.hazards.size() < kMaxHazards; ++i) {
    const ActionNode& node = nodes[i];
    if (node.kind == NodeKind::HostWrite) continue;  // lint annotation only

    if (node.kind == NodeKind::Free) {
      auto [it, fresh] = freed.try_emplace(node.buffer);
      if (!fresh) {
        Hazard h;
        h.kind = HazardKind::DoubleFree;
        h.buffer = node.buffer;
        h.buffer_name = record.buffer_name(node.buffer);
        h.first = it->second.in_segment ? it->second.by : HazardAction{0, -1, NodeKind::Free,
                                                                       "free (earlier segment)"};
        h.second = describe(node);
        h.message = "double-free of buffer '" + h.buffer_name + "': " + action_str(h.second) +
                    " destroys a buffer already destroyed by " + action_str(h.first);
        out.hazards.push_back(std::move(h));
      } else {
        it->second.in_segment = true;
        it->second.by = describe(node);
      }
      continue;
    }

    for (const Access& acc : node.accesses) {
      const auto fit = freed.find(acc.buffer.value);
      if (fit != freed.end()) {
        Hazard h;
        h.kind = HazardKind::UseAfterFree;
        h.buffer = acc.buffer.value;
        h.buffer_name = record.buffer_name(h.buffer);
        h.space = acc.space;
        h.first = fit->second.in_segment
                      ? fit->second.by
                      : HazardAction{0, -1, NodeKind::Free, "free (earlier segment)"};
        h.second = describe(node);
        h.range_second = acc.range;
        h.message = "use-after-free of buffer '" + h.buffer_name + "': " + action_str(h.second) +
                    " touches " + range_str(acc.range) + " after " + action_str(h.first);
        out.hazards.push_back(std::move(h));
        break;  // one report per action is enough
      }
    }

    // Read checks happen before this node's writes are folded in.
    if (node.kind == NodeKind::D2H) {
      for (const Access& acc : node.accesses) {
        if (acc.space == kHostSpace || !rt::access_reads(acc.mode)) continue;
        const auto bit = record.buffers.find(acc.buffer.value);
        if (bit != record.buffers.end() && bit->second.assume_initialized) continue;
        const IntervalSet& set = cov.written[Coverage::key(acc.buffer.value, acc.space)];
        const auto [gb, ge] = set.first_gap(acc.range.span_begin(), acc.range.span_end());
        if (gb == ge) continue;
        Hazard h;
        h.kind = HazardKind::UseBeforeWrite;
        h.buffer = acc.buffer.value;
        h.buffer_name = record.buffer_name(h.buffer);
        h.space = acc.space;
        h.second = describe(node);
        h.range_second = acc.range;
        h.message = "use-before-write on " + space_str(acc.space) + " of buffer '" +
                    h.buffer_name + "': " + action_str(h.second) + " reads " +
                    range_str(acc.range) + " but bytes [" + std::to_string(gb) + ", " +
                    std::to_string(ge) + ") were never written by any h2d or kernel";
        out.hazards.push_back(std::move(h));
      }
    }

    for (const Access& acc : node.accesses) {
      if (acc.space == kHostSpace || !rt::access_writes(acc.mode)) continue;
      cov.written[Coverage::key(acc.buffer.value, acc.space)].insert(acc.range.span_begin(),
                                                                    acc.range.span_end());
    }
  }

  // Hash-map iteration order leaked into the race scan; sort for stable,
  // diffable reports.
  std::stable_sort(out.hazards.begin(), out.hazards.end(), [](const Hazard& a, const Hazard& b) {
    if (a.second.id != b.second.id) return a.second.id < b.second.id;
    if (a.first.id != b.first.id) return a.first.id < b.first.id;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  });

  tel_segments().add(1);
  tel_nodes().add(n);
  tel_edges().add(order.edges);
  tel_overlap_tests().add(tel_pair_tests);
  tel_hazards().add(out.hazards.size());
  return out;
}

}  // namespace ms::analyze
