#include "trace/timeline.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_set>

namespace ms::trace {

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::H2D: return "H2D";
    case SpanKind::D2H: return "D2H";
    case SpanKind::Kernel: return "EXE";
    case SpanKind::Sync: return "SYNC";
  }
  return "?";
}

std::string_view intern_label(std::string_view s) {
  // node-based set: element addresses are stable across rehashes.
  static std::mutex mu;
  static std::unordered_set<std::string> table;
  std::lock_guard<std::mutex> lock(mu);
  return *table.emplace(s).first;
}

const Timeline::Aggregates& Timeline::aggregates() const {
  if (agg_valid_) return agg_;
  agg_ = Aggregates{};

  agg_.first_start = spans_.empty() ? sim::SimTime::zero() : sim::SimTime::max();
  for (const Span& s : spans_) {
    const auto k = static_cast<std::size_t>(s.kind);
    agg_.busy[k] += s.duration();
    ++agg_.count[k];
    agg_.first_start = sim::min(agg_.first_start, s.start);
    agg_.last_end = sim::max(agg_.last_end, s.end);
  }

  // One boundary sweep computes the overlap of *every* kind pair: at each
  // edge, accumulate the elapsed segment into each pair whose activity
  // condition held across it (>=1 of each kind, >=2 for the diagonal).
  struct Edge {
    sim::SimTime t;
    SpanKind kind;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(spans_.size() * 2);
  for (const Span& s : spans_) {
    edges.push_back(Edge{s.start, s.kind, 1});
    edges.push_back(Edge{s.end, s.kind, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& x, const Edge& y) { return x.t < y.t; });

  std::array<int, kSpanKindCount> active{};
  sim::SimTime prev = sim::SimTime::zero();
  for (const Edge& e : edges) {
    const sim::SimTime seg = e.t - prev;
    if (seg > sim::SimTime::zero()) {
      for (std::size_t a = 0; a < kSpanKindCount; ++a) {
        if (active[a] == 0) continue;
        for (std::size_t b = a; b < kSpanKindCount; ++b) {
          const int need_b = a == b ? 2 : 1;
          if (active[b] >= need_b) agg_.overlap[a][b] += seg;
        }
      }
    }
    active[static_cast<std::size_t>(e.kind)] += e.delta;
    prev = e.t;
  }

  agg_valid_ = true;
  return agg_;
}

sim::SimTime Timeline::busy(SpanKind kind) const {
  return aggregates().busy[static_cast<std::size_t>(kind)];
}

sim::SimTime Timeline::first_start() const { return aggregates().first_start; }

sim::SimTime Timeline::last_end() const { return aggregates().last_end; }

sim::SimTime Timeline::overlap(SpanKind a, SpanKind b) const {
  auto ia = static_cast<std::size_t>(a);
  auto ib = static_cast<std::size_t>(b);
  if (ia > ib) std::swap(ia, ib);
  return aggregates().overlap[ia][ib];
}

std::size_t Timeline::count(SpanKind kind) const {
  return aggregates().count[static_cast<std::size_t>(kind)];
}

void Timeline::render_gantt(std::ostream& os, int width) const {
  if (spans_.empty()) {
    os << "(empty timeline)\n";
    return;
  }
  const sim::SimTime t0 = first_start();
  const sim::SimTime t1 = last_end();
  const sim::SimTime horizon = t1 - t0;
  if (horizon <= sim::SimTime::zero()) {
    os << "(degenerate timeline)\n";
    return;
  }
  // H2D, D2H, Kernel, Sync — indexed by SpanKind.
  static constexpr std::array<char, kSpanKindCount> kGlyphs{'>', '<', '#', '|'};
  static_assert(kGlyphs.size() == kSpanKindCount,
                "update the Gantt glyph table when adding a SpanKind");
  const auto glyph_for = [](SpanKind k) {
    const auto i = static_cast<std::size_t>(k);
    return i < kGlyphs.size() ? kGlyphs[i] : '?';
  };

  std::map<std::pair<int, int>, std::string> rows;  // (device, stream) -> lane
  for (const Span& s : spans_) {
    auto [it, inserted] =
        rows.try_emplace({s.device, s.stream}, std::string(static_cast<std::size_t>(width), '.'));
    std::string& lane = it->second;
    auto clamp_col = [&](sim::SimTime t) {
      const double f = (t - t0) / horizon;
      int col = static_cast<int>(f * width);
      return std::clamp(col, 0, width - 1);
    };
    const int c0 = clamp_col(s.start);
    const int c1 = clamp_col(s.end);
    for (int c = c0; c <= c1; ++c) {
      lane[static_cast<std::size_t>(c)] = glyph_for(s.kind);
    }
  }
  os << "virtual span: " << horizon.millis() << " ms  ('>' H2D, '<' D2H, '#' kernel)\n";
  for (const auto& [key, lane] : rows) {
    os << "dev" << key.first << ".s" << key.second << " |" << lane << "|\n";
  }
}

}  // namespace ms::trace
