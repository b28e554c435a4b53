#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"
#include "rt/tile_plan.hpp"
#include "sim/sim_config.hpp"
#include "telemetry/span.hpp"
#include "trace/stats.hpp"
#include "trace/timeline.hpp"

namespace ms::apps {

/// Byte range of a 2D tile on a row-major rows x cols plane.
[[nodiscard]] inline rt::MemRange tile_range(const rt::Tile2D& tile, std::size_t cols,
                                             std::size_t elem_size) noexcept {
  return rt::MemRange::tile(tile.row_begin, tile.row_end, tile.col_begin, tile.col_end, cols,
                            elem_size);
}

/// Declare the 5-point-stencil read set of `tile` for the hazard analyzer:
/// the tile's row span extended one row north and south, plus one column
/// west and east. Deliberately cross-shaped — the hotspot/srad kernels clamp
/// at the plane edge and never read diagonal corners, and declaring the full
/// square halo would report races against diagonal neighbours that the
/// pipelines (correctly) do not order.
inline void declare_cross_reads(rt::KernelLaunch& launch, rt::BufferId buf,
                                const rt::Tile2D& tile, std::size_t rows, std::size_t cols,
                                std::size_t elem_size) {
  const std::size_t rb = tile.row_begin > 0 ? tile.row_begin - 1 : 0;
  const std::size_t re = tile.row_end < rows ? tile.row_end + 1 : rows;
  launch.reads(buf, rt::MemRange::tile(rb, re, tile.col_begin, tile.col_end, cols, elem_size));
  if (tile.col_begin > 0) {
    launch.reads(buf, rt::MemRange::tile(tile.row_begin, tile.row_end, tile.col_begin - 1,
                                         tile.col_begin, cols, elem_size));
  }
  if (tile.col_end < cols) {
    launch.reads(buf, rt::MemRange::tile(tile.row_begin, tile.row_end, tile.col_end,
                                         tile.col_end + 1, cols, elem_size));
  }
}

/// A named device buffer of `count` elements of T: in functional runs it is
/// backed by `host`, first resized to `count` (new elements zero); otherwise
/// it is virtual, of the same byte size, and `host` stays as it is.
template <typename T>
rt::BufferId app_buffer(rt::Context& ctx, bool functional, std::vector<T>& host,
                        std::size_t count, std::string_view name) {
  rt::BufferId id;
  if (functional) {
    host.resize(count);
    id = ctx.create_buffer(host.data(), count * sizeof(T));
  } else {
    id = ctx.create_virtual_buffer(count * sizeof(T));
  }
  ctx.name_buffer(id, name);
  return id;
}

/// How an app issues its replay-shaped inner loop.
///  - Direct:   plain per-iteration enqueues (the original code path).
///  - Compiled: stream-capture the first iteration into an rt::Graph,
///              Graph::compile() it once and replay the CompiledGraph every
///              iteration — zero steady-state host allocations.
/// Virtual times differ between the two (replay pricing vs. per-enqueue
/// pricing); functional results are identical.
enum class GraphMode : std::uint8_t { Direct, Compiled };

/// Knobs shared by every ported application.
struct CommonConfig {
  /// Resource granularity P: partitions (= streams) per device. Ignored by
  /// the non-streamed baseline, which always uses one whole-device stream.
  int partitions = 4;
  /// Streamed (tiled, multi-stream) port vs. the paper's "w/o" baseline
  /// (single stream, single tile).
  bool streamed = true;
  /// Functional mode allocates real data and runs real kernels so results
  /// can be verified; timing-only mode uses virtual buffers and empty
  /// functors for paper-scale parameter sweeps.
  bool functional = true;
  /// Capture the full action timeline into AppResult::timeline. Off by
  /// default: it grows with every action of the run, so only the callers
  /// that read the timeline (trace export, utilization, span checks) ask
  /// for it.
  bool tracing = false;
  /// The paper's protocol runs each benchmark 11 times and drops the first.
  /// The simulator is deterministic, so 2 (one warm-up, one measured) gives
  /// identical numbers; tests crank this up to prove it.
  int protocol_iterations = 2;
  /// Issue mode for the replay-shaped phases (see GraphMode). The paper-figure
  /// benches stay on Direct — replay pricing would change their shapes.
  GraphMode graph = GraphMode::Direct;
};

/// What every application run reports.
struct AppResult {
  double ms = 0.0;       ///< mean virtual elapsed per protocol iteration
  double gflops = 0.0;   ///< 0 when the app reports time instead (paper's choice)
  double checksum = 0.0; ///< functional fingerprint (0 in timing-only mode)
  trace::Timeline timeline;  ///< spans of the whole run (all iterations)
};

/// One replay-shaped phase of an app's inner loop: a block of enqueues whose
/// schedule is identical every iteration. In Direct mode `run(record)` just
/// calls `record()`. In Compiled mode the *first* call stream-captures
/// `record` (charging no host time) through the process GraphCache, which
/// checks it against the plans cached under this phase's name and compiles
/// it only when none matches; every call — including the first —
/// replays the plan, so each iteration pays the same replay price and
/// per-iteration virtual times stay identical across warm-up and measured
/// samples.
///
/// The record body must be schedule-stable: host-side values it reads each
/// iteration (e.g. srad's q0sqr) must be fed to kernels through pointers,
/// not by-value captures. Construct phases *outside* measure_ms so the
/// capture survives across iterations. A phase that records nothing stays a
/// permanent no-op.
class GraphPhase {
public:
  /// `name` labels the compiled graph's telemetry.
  GraphPhase(rt::Context& ctx, GraphMode mode, std::string name)
      : ctx_(&ctx), mode_(mode), name_(std::move(name)) {}

  template <typename F>
  void run(F&& record) {
    if (mode_ == GraphMode::Direct) {
      record();
      return;
    }
    if (!recorded_) {
      compiled_ = rt::process_graph_cache().capture(*ctx_, name_, record);
      recorded_ = true;
    }
    if (compiled_) compiled_->launch(*ctx_);
  }

  [[nodiscard]] GraphMode mode() const noexcept { return mode_; }
  [[nodiscard]] bool recorded() const noexcept { return recorded_; }

private:
  rt::Context* ctx_;
  GraphMode mode_;
  std::string name_;
  std::optional<rt::CompiledGraph> compiled_;
  bool recorded_ = false;
};

/// Run `once(iteration)` under the measurement protocol: each call is
/// bracketed by the virtual host clock and followed by a full context
/// synchronize; the first sample is dropped (warm-up) unless there is only
/// one. Returns the mean in milliseconds.
template <typename F>
double measure_ms(rt::Context& ctx, int iterations, F&& once) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    const telemetry::ScopedSpan tel_span("app.iteration");
    // Each protocol iteration re-runs the full workload by design; tell the
    // linter so re-uploads across samples are not read as app redundancy.
    ctx.mark_protocol_sample();
    const sim::SimTime t0 = ctx.host_time();
    once(i);
    ctx.synchronize();
    samples.push_back((ctx.host_time() - t0).millis());
  }
  return samples.size() == 1 ? samples[0] : trace::mean_skip_first(samples);
}

/// Deterministically fill a range with uniform values in [lo, hi).
void fill_uniform(std::span<float> out, std::uint32_t seed, float lo = 0.0f, float hi = 1.0f);
void fill_uniform(std::span<double> out, std::uint32_t seed, double lo = 0.0, double hi = 1.0);

/// Build a dense symmetric positive-definite matrix (row-major n x n):
/// random entries in [0,1) plus n on the diagonal.
void fill_spd(std::span<double> matrix, std::size_t n, std::uint32_t seed);

/// Sum of a span — the standard checksum used by the apps.
[[nodiscard]] double checksum(std::span<const float> v) noexcept;
[[nodiscard]] double checksum(std::span<const double> v) noexcept;

}  // namespace ms::apps
