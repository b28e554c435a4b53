#include "analyze/perf_lint.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "sim/partition.hpp"
#include "sim/pcie_link.hpp"
#include "telemetry/span.hpp"

namespace ms::analyze {
namespace {

telemetry::Counter& tel_lint_segments() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_analyze_lint_segments_total", "Segments processed by the performance linter");
  return c;
}
telemetry::Counter& tel_lint_findings() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_analyze_lint_findings_total", "Performance-lint findings across all analyses");
  return c;
}

// Rule thresholds.
/// sub-knee-transfer counts only chunks below this fraction of the knee (at
/// 0.5 a chunk reaches less than a third of wire efficiency; chunks just
/// under the knee are a fact of problem geometry, not a bug) ...
constexpr double kSubKneeFraction = 0.5;
/// ... and fires only on >= this many pairwise-distinct (offset, bytes)
/// sub-knee ranges per (device, buffer, direction) ...
constexpr std::size_t kSubKneeMinTransfers = 4;
/// ... whose distinct bytes total at least this many knee-sizes (repeated
/// small control-block uploads are fine; death-by-a-thousand-tiles is not).
constexpr double kSubKneeMinTotalKnees = 2.0;
/// duplex-serialization fires only when the serialized link is the binding
/// constraint and the minor direction carries at least this fraction of the
/// link occupancy (a single tiny back-transfer is not worth restructuring) ...
constexpr double kDuplexMinMinorFraction = 0.10;
/// ... and the segment's link occupancy is at least this long — micro
/// segments dominated by per-transfer latency are launch-overhead noise, not
/// a duplex problem.
constexpr sim::SimTime kDuplexMinLink = sim::SimTime::millis(1.0);
/// Cap on removal-verified false-dependency candidates per segment (each
/// verification re-runs a race scan on the edge-deleted graph).
constexpr std::size_t kFalseDepMaxChecks = 8;

std::string ms_str(sim::SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms", t.millis());
  return buf;
}

std::string kib_str(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f KiB", static_cast<double>(bytes) / 1024.0);
  return buf;
}

[[nodiscard]] bool is_data(NodeKind k) noexcept {
  return k == NodeKind::H2D || k == NodeKind::D2H || k == NodeKind::Kernel;
}

/// Actual bytes a transfer moves (2D ranges move rows*len, not the span).
std::size_t moved_bytes(const ActionNode& n) {
  if (n.accesses.empty()) return 0;
  const rt::MemRange& r = n.accesses.front().range;
  return r.rows <= 1 ? r.len : static_cast<std::size_t>(r.rows) * r.len;
}

}  // namespace

std::string_view to_string(LintSeverity::Level s) noexcept {
  return s == LintSeverity::Warning ? "warning" : "note";
}

const std::vector<std::string_view>& lint_rule_ids() {
  static const std::vector<std::string_view> ids = {
      rule::kDuplexSerialization, rule::kFalseDependency, rule::kSingleStreamPipeline,
      rule::kSplitCorePartition,  rule::kSubKneeTransfer, rule::kRedundantH2D,
      rule::kDeadAction};
  return ids;
}

std::vector<LintFinding> check_partition_shape(const sim::CoprocessorSpec& spec, int partitions) {
  std::vector<LintFinding> out;
  if (partitions < 1 || partitions > spec.usable_threads()) return out;
  const sim::PartitionTable table(spec, partitions);
  if (table.core_aligned()) return out;

  int split = 0;
  for (const sim::PartitionView& v : table.views()) {
    if (v.split_fraction > 0.0) ++split;
  }
  const std::vector<int> aligned = sim::PartitionTable::recommended_partition_counts(spec);
  int below = 1, above = spec.usable_cores();
  for (const int p : aligned) {
    if (p <= partitions) below = p;
    if (p >= partitions) {
      above = p;
      break;
    }
  }

  LintFinding f;
  f.rule = std::string(rule::kSplitCorePartition);
  f.severity = LintSeverity::Warning;
  f.message = std::to_string(partitions) + " partitions over " +
              std::to_string(spec.usable_cores()) + " usable cores (x" +
              std::to_string(spec.threads_per_core) + " threads) leave " + std::to_string(split) +
              " partitions sharing a physical core with a neighbour; split cores contend for "
              "the core-private L1/L2 (paper Section V, Fig. 9(a,b))";
  f.fixit = "use a partition count that divides " + std::to_string(spec.usable_cores()) +
            " (nearest: " + std::to_string(below) + " or " + std::to_string(above) +
            ") so every partition owns whole cores";
  out.push_back(std::move(f));
  return out;
}

LintReport lint(const GraphRecord& record, const sim::SimConfig& config, LintCarry* carry,
                std::size_t hazard_count) {
  const telemetry::ScopedSpan tel_span("analyze.lint");
  LintCarry local_carry;
  LintCarry& st = carry != nullptr ? *carry : local_carry;

  LintReport out;
  const std::vector<ActionNode>& nodes = record.nodes;
  const std::size_t n = nodes.size();
  out.nodes_analyzed = n;
  if (n == 0) return out;
  tel_lint_segments().add(1);

  const Order order = resolve_order(record);
  if (order.cyclic()) {
    // A deadlocked segment never completes: there is no meaningful makespan
    // to bound and "unordered" queries are unsound. The hazard analyzer owns
    // the Deadlock report.
    out.cyclic = true;
    return out;
  }

  // Emit with cross-segment dedup: iteration loops flush one segment per
  // synchronize and would otherwise repeat every structural finding.
  auto emit = [&](LintFinding f, const std::string& dedupe_key) {
    if (!st.seen.insert(f.rule + "|" + dedupe_key).second) return;
    tel_lint_findings().add(1);
    out.findings.push_back(std::move(f));
  };

  // --- critical-path / link-occupancy lower bound ---------------------------
  // Node weights: kernels use the cost-model duration stamped at enqueue,
  // transfers their wire floor; overheads (enqueue, launch, sync) are
  // deliberately excluded so the bound stays a true floor.
  std::vector<sim::SimTime> dur(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (nodes[i].kind) {
      case NodeKind::Kernel: dur[i] = nodes[i].duration; break;
      case NodeKind::H2D:
      case NodeKind::D2H: dur[i] = sim::transfer_floor(config.link, moved_bytes(nodes[i])); break;
      default: dur[i] = sim::SimTime::zero(); break;
    }
  }
  // Earliest completion time: longest duration-weighted path ending at i.
  std::vector<sim::SimTime> ect(n);
  sim::SimTime path_max = sim::SimTime::zero();
  for (const std::size_t i : order.topo) {
    sim::SimTime start = sim::SimTime::zero();
    for (const std::size_t p : order.preds[i]) {
      start = std::max(start, ect[p]);
    }
    ect[i] = start + dur[i];
    path_max = std::max(path_max, ect[i]);
  }

  std::map<int, DeviceBound> dev;
  for (std::size_t i = 0; i < n; ++i) {
    if (nodes[i].device < 0) continue;
    DeviceBound& d = dev[nodes[i].device];
    d.device = nodes[i].device;
    d.path = std::max(d.path, ect[i]);
    if (nodes[i].kind == NodeKind::H2D) d.h2d = d.h2d + dur[i];
    if (nodes[i].kind == NodeKind::D2H) d.d2h = d.d2h + dur[i];
  }
  out.bound = path_max;
  for (auto& [id, d] : dev) {
    (void)id;
    // Fig. 5: the serialized DMA engine's busy time is the sum over both
    // directions; a duplex link only has to fit the larger one.
    d.link = config.link.full_duplex ? std::max(d.h2d, d.d2h) : d.h2d + d.d2h;
    d.bound = std::max(d.path, d.link);
    out.bound = std::max(out.bound, d.bound);
    out.devices.push_back(d);
  }

  const Clocks clocks(order);

  // --- rule: split-core-partition -------------------------------------------
  bool any_kernel = false;
  for (const ActionNode& node : nodes) {
    any_kernel = any_kernel || node.kind == NodeKind::Kernel;
  }
  if (any_kernel && record.partitions >= 1) {
    for (LintFinding& f : check_partition_shape(config.device, record.partitions)) {
      emit(std::move(f), "p=" + std::to_string(record.partitions));
    }
  }

  // --- rule: duplex-serialization -------------------------------------------
  if (!config.link.full_duplex) {
    for (const DeviceBound& d : out.devices) {
      if (d.h2d <= sim::SimTime::zero() || d.d2h <= sim::SimTime::zero()) continue;
      if (!(d.path < d.link)) continue;  // link not the binding constraint
      if (d.link < kDuplexMinLink) continue;
      const sim::SimTime minor = std::min(d.h2d, d.d2h);
      if (minor.micros() < kDuplexMinMinorFraction * d.link.micros()) continue;
      // The structural culprit: an H2D and a D2H pair with no ordering, i.e.
      // both directions genuinely contend for the engine at once.
      std::size_t up = SIZE_MAX, down = SIZE_MAX;
      for (std::size_t i = 0; i < n && up == SIZE_MAX; ++i) {
        if (nodes[i].device != d.device || nodes[i].kind != NodeKind::H2D) continue;
        for (std::size_t j = 0; j < n; ++j) {
          if (nodes[j].device != d.device || nodes[j].kind != NodeKind::D2H) continue;
          if (!clocks.ordered(i, j)) {
            up = i;
            down = j;
            break;
          }
        }
      }
      if (up == SIZE_MAX) continue;  // directions are serialized by ordering already
      LintFinding f;
      f.rule = std::string(rule::kDuplexSerialization);
      f.severity = LintSeverity::Warning;
      f.device = d.device;
      f.actions = {describe(nodes[up]), describe(nodes[down])};
      f.message = "device " + std::to_string(d.device) +
                  " issues unordered H2D and D2H on the serialized DMA engine: link occupancy " +
                  ms_str(d.link) + " (h2d " + ms_str(d.h2d) + " + d2h " + ms_str(d.d2h) +
                  ") exceeds the critical path " + ms_str(d.path) +
                  ", so concurrent duplex pairs pay the sum of their times (paper Fig. 5); e.g. " +
                  action_str(f.actions[0]) + " vs " + action_str(f.actions[1]);
      f.fixit = "batch same-direction transfers or order the two directions explicitly; a "
                "duplex-capable link would floor at max(h2d, d2h) = " +
                ms_str(std::max(d.h2d, d.d2h));
      emit(std::move(f), "dev=" + std::to_string(d.device));
    }
  }

  // --- rule: single-stream-pipeline (cross-segment state) -------------------
  for (std::size_t i = 0; i < n; ++i) {
    const ActionNode& node = nodes[i];
    if (node.device < 0 || !is_data(node.kind)) continue;
    LintCarry::PipelineState& ps = st.pipeline[node.device];
    ps.streams.insert(node.stream);
    if (node.kind == NodeKind::H2D && ps.have_h2d && ps.have_kernel && ps.have_d2h) {
      ++ps.rounds;
      ps.round_start = describe(node);
      ps.have_kernel = ps.have_d2h = false;
    }
    ps.have_h2d = ps.have_h2d || node.kind == NodeKind::H2D;
    ps.have_kernel = ps.have_kernel || node.kind == NodeKind::Kernel;
    if (node.kind == NodeKind::D2H) {
      ps.have_d2h = true;
      ps.last_d2h = describe(node);
    }
  }
  for (auto& [device, ps] : st.pipeline) {
    if (ps.streams.size() != 1 || ps.rounds < 1) continue;
    LintFinding f;
    f.rule = std::string(rule::kSingleStreamPipeline);
    f.severity = LintSeverity::Warning;
    f.device = device;
    f.actions = {ps.last_d2h, ps.round_start};
    f.message = "device " + std::to_string(device) +
                " runs its whole H2D->EXE->D2H pipeline on the single stream " +
                std::to_string(*ps.streams.begin()) + ": " + std::to_string(ps.rounds + 1) +
                " rounds back to back with no temporal sharing, so transfers can never hide "
                "under compute (paper Fig. 4/6); round boundary: " + action_str(ps.last_d2h) +
                " then " + action_str(ps.round_start);
    f.fixit = "partition the device (Context::setup(P >= 2)) and split the workload into >= 2 "
              "tiles on separate streams so one tile's kernel overlaps another's transfers";
    emit(std::move(f), "dev=" + std::to_string(device));
  }

  // --- rule: sub-knee-transfer (cross-segment state) ------------------------
  const std::size_t knee = sim::bandwidth_knee_bytes(config.link);
  const auto cutoff = static_cast<std::size_t>(static_cast<double>(knee) * kSubKneeFraction);
  for (std::size_t i = 0; i < n; ++i) {
    const ActionNode& node = nodes[i];
    if (node.kind != NodeKind::H2D && node.kind != NodeKind::D2H) continue;
    const std::size_t bytes = moved_bytes(node);
    if (bytes == 0 || bytes >= cutoff) continue;
    const Access& acc = node.accesses.front();
    const std::uint64_t key = (Coverage::key(acc.buffer.value, node.device) << 1) |
                              (node.kind == NodeKind::D2H ? 1u : 0u);
    LintCarry::SubKneeState& sk = st.sub_knee[key];
    if (sk.ranges.empty()) sk.first = describe(node);
    if (sk.ranges.insert({acc.range.span_begin(), bytes}).second) sk.total += bytes;
    sk.buffer = acc.buffer.value;
    sk.buffer_name = record.buffer_name(acc.buffer.value);
    sk.device = node.device;
    sk.d2h = node.kind == NodeKind::D2H;
  }
  for (auto& [key, sk] : st.sub_knee) {
    (void)key;
    if (sk.ranges.size() < kSubKneeMinTransfers) continue;
    if (static_cast<double>(sk.total) < kSubKneeMinTotalKnees * static_cast<double>(knee)) {
      continue;
    }
    LintFinding f;
    f.rule = std::string(rule::kSubKneeTransfer);
    f.severity = LintSeverity::Note;
    f.device = sk.device;
    f.buffer = sk.buffer;
    f.buffer_name = sk.buffer_name;
    f.actions = {sk.first};
    f.message = std::to_string(sk.ranges.size()) + " distinct " + (sk.d2h ? "D2H" : "H2D") +
                " chunks of '" + sk.buffer_name + "' on device " + std::to_string(sk.device) +
                " (" + kib_str(sk.total) + " total) each move less than half the " +
                kib_str(knee) +
                " bandwidth-efficiency knee, spending most of their engine occupancy on the "
                "per-command setup latency (paper Fig. 5 calibration)";
    f.fixit = "coalesce the chunks into transfers of at least " + kib_str(knee) +
              " (fewer, larger tiles, or a staging copy), starting with " +
              action_str(sk.first);
    emit(std::move(f),
         "buf=" + std::to_string(sk.buffer) + "/dev=" + std::to_string(sk.device) +
             "/dir=" + (sk.d2h ? "d" : "h"));
  }

  // --- rules: redundant-h2d + dead-action (enqueue-order walk) --------------
  for (std::size_t i = 0; i < n; ++i) {
    const ActionNode& node = nodes[i];

    if (node.kind == NodeKind::HostWrite) {
      // Host rewrote these bytes: every device's uploaded copy of them is
      // stale, so re-uploading is meaningful again.
      const Access& acc = node.accesses.front();
      for (auto& [key, set] : st.clean_upload) {
        if ((key >> 9) != node.buffer) continue;
        set.erase(acc.range.span_begin(), acc.range.span_end());
      }
      continue;
    }
    if (node.kind == NodeKind::Free) {
      for (auto it = st.clean_upload.begin(); it != st.clean_upload.end();) {
        it = (it->first >> 9) == node.buffer ? st.clean_upload.erase(it) : std::next(it);
      }
      continue;
    }

    // Consumption scan first so a node never consumes its own writes.
    for (const Access& acc : node.accesses) {
      if (acc.space == kHostSpace) continue;
      auto it = st.pending.find(Coverage::key(acc.buffer.value, acc.space));
      if (it == st.pending.end()) continue;
      for (LintCarry::PendingWrite& pw : it->second) {
        if (pw.who.id == node.id) continue;
        if (acc.range.span_end() > pw.begin && acc.range.span_begin() < pw.end) {
          pw.touched = true;
        }
      }
    }

    for (const Access& acc : node.accesses) {
      if (acc.space == kHostSpace || !rt::access_writes(acc.mode)) continue;
      const std::uint64_t key = Coverage::key(acc.buffer.value, acc.space);
      const std::size_t b = acc.range.span_begin();
      const std::size_t e = acc.range.span_end();

      if (node.kind == NodeKind::H2D) {
        IntervalSet& clean = st.clean_upload[key];
        if (clean.covers(b, e)) {
          LintFinding f;
          f.rule = std::string(rule::kRedundantH2D);
          f.severity = LintSeverity::Note;
          f.device = acc.space;
          f.buffer = acc.buffer.value;
          f.buffer_name = record.buffer_name(f.buffer);
          f.actions = {describe(node)};
          f.message = action_str(f.actions[0]) + " re-uploads bytes [" + std::to_string(b) +
                      ", " + std::to_string(e) + ") of '" + f.buffer_name + "' to device " +
                      std::to_string(acc.space) +
                      " although neither the host copy nor the device copy changed since the "
                      "previous upload — the DMA moves bytes the device already has";
          f.fixit = "hoist the upload out of the loop (upload once, reuse the device copy); "
                    "if the host does rewrite the bytes between uploads, annotate it with "
                    "Context::host_write() so the linter can see the mutation";
          emit(std::move(f),
               "buf=" + std::to_string(f.buffer) + "/dev=" + std::to_string(acc.space));
        } else {
          clean.insert(b, e);
        }
      } else if (node.kind == NodeKind::Kernel) {
        // Device copy diverged from the host copy: a future re-upload of
        // these bytes restores host values and is not redundant. (A D2H
        // writes only host space; it is handled after this loop.)
        auto it = st.clean_upload.find(key);
        if (it != st.clean_upload.end()) it->second.erase(b, e);
      }

      if (is_data(node.kind)) {
        const auto bit = record.buffers.find(acc.buffer.value);
        const bool assume = bit != record.buffers.end() && bit->second.assume_initialized;
        if (!assume) {
          auto& list = st.pending[key];
          if (list.size() >= 32) {
            // Keep the list bounded: consumed entries can never be
            // reported, and dropping an oldest unconsumed one only loses
            // a potential finding (never invents one).
            std::erase_if(list, [](const LintCarry::PendingWrite& pw) { return pw.touched; });
            if (list.size() >= 32) list.erase(list.begin());
          }
          LintCarry::PendingWrite pw;
          pw.who = describe(node);
          pw.buffer = acc.buffer.value;
          pw.buffer_name = record.buffer_name(acc.buffer.value);
          pw.device = acc.space;
          pw.begin = b;
          pw.end = e;
          list.push_back(std::move(pw));
        }
      }
    }

    // D2H rewrites the host copy with device-d values: uploads of the same
    // bytes on *other* devices are no longer provably redundant.
    if (node.kind == NodeKind::D2H) {
      for (const Access& acc : node.accesses) {
        if (acc.space != kHostSpace) continue;
        for (auto& [key, set] : st.clean_upload) {
          if ((key >> 9) != acc.buffer.value) continue;
          const int space = static_cast<int>(key & 0x1FFu) - 1;
          if (space == node.device) continue;
          set.erase(acc.range.span_begin(), acc.range.span_end());
        }
      }
    }
  }

  // --- rule: false-dependency -----------------------------------------------
  if (hazard_count == 0) {
    const AccessIndex index = index_by_location(record);
    std::size_t checks = 0;
    for (std::size_t j = 0; j < n && checks < kFalseDepMaxChecks; ++j) {
      const ActionNode& nb = nodes[j];
      if (!is_data(nb.kind) || nb.accesses.empty()) continue;
      for (const std::uint64_t dep : nb.deps) {
        auto it = record.id_to_index.find(dep);
        if (it == record.id_to_index.end()) continue;
        const std::size_t i = it->second;
        const ActionNode& na = nodes[i];
        if (!is_data(na.kind) || na.accesses.empty()) continue;
        if (na.stream == nb.stream || na.stream < 0 || nb.stream < 0) continue;
        bool overlapping = false;
        for (const Access& aa : na.accesses) {
          for (const Access& ab : nb.accesses) {
            if (aa.buffer.value == ab.buffer.value && aa.space == ab.space &&
                aa.range.overlaps(ab.range)) {
              overlapping = true;
              break;
            }
          }
          if (overlapping) break;
        }
        if (overlapping) continue;
        if (++checks > kFalseDepMaxChecks) break;
        // What-if: delete this one edge and re-run the race scan. Only a
        // removal that leaves the segment provably race-free is reported —
        // the edge may be a transitive carrier for other accesses.
        const Clocks without(order, i, j);
        // Still ordered without the edge (host sync, another chain): the
        // edge constrains nothing, so it cannot block overlap either —
        // belt-and-braces deps on already-covered events are not findings.
        if (without.ordered(i, j)) continue;
        bool racy = false;
        for_each_race(record, index, without, [&](const AccessRef&, const AccessRef&) {
          racy = true;
          return false;
        });
        if (racy) continue;
        LintFinding f;
        f.rule = std::string(rule::kFalseDependency);
        f.severity = LintSeverity::Warning;
        f.actions = {describe(na), describe(nb)};
        f.message = action_str(f.actions[1]) + " waits on the completion event of " +
                    action_str(f.actions[0]) +
                    " although their declared byte ranges share no bytes; removing the edge "
                    "leaves the segment race-free, so the wait only serializes stream " +
                    std::to_string(nb.stream) + " behind stream " + std::to_string(na.stream) +
                    " and blocks overlap";
        f.fixit = "drop " + action_str(f.actions[0]) + "'s event from the dependency list of " +
                  action_str(f.actions[1]);
        emit(std::move(f), na.label + "/" + std::to_string(na.stream) + ">" + nb.label + "/" +
                               std::to_string(nb.stream));
      }
    }
  }

  return out;
}

std::vector<LintFinding> finalize_lint(LintCarry& carry) {
  std::vector<LintFinding> out;
  for (auto& [key, list] : carry.pending) {
    (void)key;
    for (const LintCarry::PendingWrite& pw : list) {
      if (pw.touched) continue;
      const std::string dedupe = std::string(rule::kDeadAction) + "|buf=" +
                                 std::to_string(pw.buffer) + "/dev=" +
                                 std::to_string(pw.device) + "/" + pw.who.label;
      if (!carry.seen.insert(dedupe).second) continue;
      LintFinding f;
      f.rule = std::string(rule::kDeadAction);
      f.severity = LintSeverity::Warning;
      f.device = pw.device;
      f.buffer = pw.buffer;
      f.buffer_name = pw.buffer_name;
      f.actions = {pw.who};
      f.message = action_str(pw.who) + " wrote bytes [" + std::to_string(pw.begin) + ", " +
                  std::to_string(pw.end) + ") of '" + pw.buffer_name + "' on device " +
                  std::to_string(pw.device) +
                  " but nothing ever consumed them — no kernel read, no D2H readback; the work "
                  "and its DMA/launch cost are wasted";
      f.fixit = "delete the action, or add the missing enqueue_d2h readback of '" +
                pw.buffer_name + "'";
      tel_lint_findings().add(1);
      out.push_back(std::move(f));
    }
  }
  carry.pending.clear();
  return out;
}

// --- LintTotals --------------------------------------------------------------

void LintTotals::add_segment(const LintReport& segment, sim::SimTime elapsed, bool synced) {
  findings_.insert(findings_.end(), segment.findings.begin(), segment.findings.end());
  nodes_ += segment.nodes_analyzed;
  if (!synced) return;  // in-flight tail segment: bound vs elapsed is apples/oranges
  ++segments_;
  bound_ = bound_ + segment.bound;
  elapsed_ = elapsed_ + elapsed;
  for (const DeviceBound& d : segment.devices) {
    auto it = std::find_if(devices_.begin(), devices_.end(),
                           [&](const DeviceBound& x) { return x.device == d.device; });
    if (it == devices_.end()) {
      devices_.push_back(d);
      std::sort(devices_.begin(), devices_.end(),
                [](const DeviceBound& a, const DeviceBound& b) { return a.device < b.device; });
    } else {
      it->path = it->path + d.path;
      it->h2d = it->h2d + d.h2d;
      it->d2h = it->d2h + d.d2h;
      it->link = it->link + d.link;
      it->bound = it->bound + d.bound;
    }
  }
}

void LintTotals::add_findings(std::vector<LintFinding> findings) {
  for (LintFinding& f : findings) findings_.push_back(std::move(f));
}

double LintTotals::overlap_efficiency() const noexcept {
  if (!(sim::SimTime::zero() < elapsed_)) return 0.0;
  return bound_ / elapsed_;
}

}  // namespace ms::analyze
