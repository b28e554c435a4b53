#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/app_common.hpp"
#include "rt/context.hpp"
#include "rt/errors.hpp"

namespace ms::apps {

/// Tracks, per tile, which devices hold a valid copy and which event guards
/// it — a tiny MSI-style coherence layer over the runtime's explicit
/// transfers, shared by the tiled factorizations (CF, LU). On one card it
/// degenerates to last-writer event tracking; on several it materializes
/// the extra host-mediated D2H/H2D round trips of the paper's Section VI.
class TileCoherence {
public:
  /// Tracks `slots` tiles of `tile_bytes` each in `buf`. `io` supplies one
  /// dedicated transfer stream per device so coherence round trips are not
  /// FIFO-blocked behind queued kernels.
  TileCoherence(rt::BufferId buf, std::size_t tile_bytes, std::size_t slots,
                std::vector<rt::Stream*> io)
      : buf_(buf), tile_bytes_(tile_bytes), io_(std::move(io)), tiles_(slots) {}

  /// Guarantee a valid copy of `slot` on `dev`; returns the guarding event.
  rt::Event ensure_on(std::size_t slot, int dev) {
    State& st = tiles_.at(slot);
    if (const Copy& copy = st.per_device(dev); copy.valid) return copy.ev;
    if (st.last_writer < 0) {
      throw rt::Error("TileCoherence: tile read before any write/upload");
    }
    // Round trip through host memory on the transfer streams: D2H from the
    // owning card, then H2D onto the requesting card.
    const std::size_t off = slot * tile_bytes_;
    const rt::Event d2h = io_[static_cast<std::size_t>(st.last_writer)]->enqueue_d2h(
        buf_, off, tile_bytes_, d2h_deps(slot));
    d2h_issued(slot, d2h);
    rt::Event h2d =
        io_[static_cast<std::size_t>(dev)]->enqueue_h2d(buf_, off, tile_bytes_, {d2h});
    st.host_readers.push_back(h2d);
    Copy& copy = st.per_device(dev);
    copy.valid = true;
    copy.ev = h2d;
    return h2d;
  }

  /// Everything a D2H of `slot` must wait on: the producing write, and the
  /// earlier traffic through the slot's host bytes, which the D2H rewrites —
  /// the previous D2H (WAW) and every H2D still reading them (WAR). Sibling
  /// replications live on *different* transfer streams, so the producing
  /// write alone does not order them.
  [[nodiscard]] std::vector<rt::Event> d2h_deps(std::size_t slot) {
    State& st = tiles_.at(slot);
    std::vector<rt::Event> deps;
    deps.reserve(2 + st.host_readers.size());
    deps.push_back(st.per_device(st.last_writer).ev);
    if (st.host_write.valid()) deps.push_back(st.host_write);
    deps.insert(deps.end(), st.host_readers.begin(), st.host_readers.end());
    return deps;
  }

  /// Record a D2H of `slot` issued with d2h_deps(), so any later round trip
  /// through the slot orders after it.
  void d2h_issued(std::size_t slot, rt::Event ev) {
    State& st = tiles_.at(slot);
    st.host_write = std::move(ev);
    st.host_readers.clear();
  }

  /// Record that `dev` produced a new version of `slot` guarded by `ev`.
  void wrote(std::size_t slot, int dev, rt::Event ev) {
    State& st = tiles_.at(slot);
    for (auto& e : st.copies) e.valid = false;
    auto& entry = st.per_device(dev);
    entry.valid = true;
    entry.ev = ev;
    st.last_writer = dev;
  }

  [[nodiscard]] int last_writer(std::size_t slot) const { return tiles_.at(slot).last_writer; }

  void reset() { std::fill(tiles_.begin(), tiles_.end(), State{}); }

private:
  struct Copy {
    bool valid = false;
    rt::Event ev;
  };
  struct State {
    std::vector<Copy> copies;
    int last_writer = -1;
    rt::Event host_write;                 ///< last D2H through the slot's host range
    std::vector<rt::Event> host_readers;  ///< H2Ds re-reading it since then
    Copy& per_device(int dev) {
      if (static_cast<std::size_t>(dev) >= copies.size()) {
        copies.resize(static_cast<std::size_t>(dev) + 1);
      }
      return copies[static_cast<std::size_t>(dev)];
    }
  };

  rt::BufferId buf_;
  std::size_t tile_bytes_;
  std::vector<rt::Stream*> io_;
  std::vector<State> tiles_;
};

/// Slot layout of a matrix of g x g square tiles packed one contiguous tile
/// per slot: every tile, (i, j) at slot i*g + j (LU), or the lower triangle
/// only, (i, j) with i >= j at slot i*(i+1)/2 + j (CF).
struct TileLayout {
  std::size_t grid = 1;  ///< g: tiles per matrix edge
  bool lower = false;

  [[nodiscard]] std::size_t slot(std::size_t i, std::size_t j) const noexcept {
    return lower ? i * (i + 1) / 2 + j : i * grid + j;
  }
  [[nodiscard]] std::size_t slots() const noexcept {
    return lower ? grid * (grid + 1) / 2 : grid * grid;
  }
  /// First tile row of column j.
  [[nodiscard]] std::size_t first_row(std::size_t j) const noexcept { return lower ? j : 0; }

  /// The layout's tiles of the row-major (g*tile)^2 matrix `dense`, in slot order.
  [[nodiscard]] std::vector<double> pack(const std::vector<double>& dense, std::size_t tile) const {
    std::vector<double> packed(slots() * tile * tile);
    for_each_tile_row(tile, [&](std::size_t at, std::size_t slot_at) {
      std::copy_n(dense.data() + at, tile, packed.data() + slot_at);
    });
    return packed;
  }
  /// Write the tiles of `packed` back into `dense`; entries outside the
  /// layout are left alone.
  void unpack(const std::vector<double>& packed, std::vector<double>& dense,
              std::size_t tile) const {
    for_each_tile_row(tile, [&](std::size_t at, std::size_t slot_at) {
      std::copy_n(packed.data() + slot_at, tile, dense.data() + at);
    });
  }

private:
  /// row(at, slot_at) for every row of every tile: `tile` doubles from
  /// dense[at] of the row-major matrix and from packed[slot_at].
  template <typename Row>
  void for_each_tile_row(std::size_t tile, Row&& row) const {
    const std::size_t n = grid * tile;
    for (std::size_t i = 0; i < grid; ++i) {
      for (std::size_t j = 0; j < (lower ? i + 1 : grid); ++j) {
        for (std::size_t r = 0; r < tile; ++r) {
          row((i * tile + r) * n + j * tile, (slot(i, j) * tile + r) * tile);
        }
      }
    }
  }
};

/// The tile-task flow of the tiled factorizations (Fig. 4(b)), shared by CF
/// and LU: the matrix lives on the cards as one packed buffer of tiles, each
/// task runs on the stream that owns the tile it updates, and TileCoherence
/// moves tiles between cards. One protocol iteration is restart() on the
/// host, then the replay-shaped upload(), the factorization's task() calls
/// and read_back().
class TileTasks {
public:
  static constexpr std::size_t kMaxTiles = 3;  ///< a task's reads plus its updated tile
  using Tiles = std::array<double*, kMaxTiles>;

  /// Tiles of `tile` x `tile` doubles in `layout`, placed over the streams
  /// of ctx's last setup(). In functional runs the input is the SPD matrix
  /// fill_spd builds from `seed`; the buffer is named `name` either way.
  TileTasks(rt::Context& ctx, TileLayout layout, std::size_t tile, bool functional,
            std::uint32_t seed, std::string_view name)
      : ctx_(&ctx),
        layout_(layout),
        tile_(tile),
        tile_bytes_(tile * tile * sizeof(double)),
        streams_(static_cast<std::size_t>(ctx.stream_count())),
        partitions_(ctx.partitions_per_device()),
        seed_(functional ? layout.pack(spd(layout.grid * tile, seed), tile)
                         : std::vector<double>{}),
        packed_(seed_),
        buf_(app_buffer(ctx, functional, packed_, layout.slots() * tile * tile, name)),
        io_(transfer_streams(ctx)),
        coherence_(buf_, tile_bytes_, layout.slots(), io_) {}

  TileTasks(const TileTasks&) = delete;
  TileTasks& operator=(const TileTasks&) = delete;

  /// Host side of a new iteration: restore the input, forget every copy.
  void restart() {
    std::copy(seed_.begin(), seed_.end(), packed_.begin());
    coherence_.reset();
  }

  /// Upload every tile to its owning card on that card's transfer stream,
  /// column by column — the order the factorization wavefront consumes
  /// them, so step 0 can start after g uploads instead of all of them.
  void upload() {
    for (std::size_t j = 0; j < layout_.grid; ++j) {
      for (std::size_t i = layout_.first_row(j); i < layout_.grid; ++i) {
        const std::size_t s = layout_.slot(i, j);
        const int dev = owner_device(s);
        rt::Stream& io = *io_[static_cast<std::size_t>(dev)];
        coherence_.wrote(s, dev, io.enqueue_h2d(buf_, offset(s), tile_bytes_));
      }
    }
  }

  /// Task `label` of `flops`: reads the tiles at slots `reads` (at most two)
  /// and updates the tile at slot `rw` in place, on the stream that owns
  /// `rw`. It waits for a valid copy of each read tile and then of `rw` on
  /// its card, in that order. Functional runs call `kernel(t)` with t[0..]
  /// the tiles' device pointers on that card: the reads, then `rw`.
  template <typename Kernel>
  void task(std::string label, double flops, std::initializer_list<std::size_t> reads,
            std::size_t rw, Kernel kernel) {
    const int dev = owner_device(rw);
    sim::KernelWork work;
    work.kind = sim::KernelKind::CholeskyTask;  // one cost class: dense tile task
    work.flops = flops;
    work.elems = static_cast<double>(3 * tile_ * tile_);
    rt::KernelLaunch launch{std::move(label), work, {}};
    std::array<std::size_t, kMaxTiles> slots{};
    std::size_t count = 0;
    for (const std::size_t s : reads) {
      launch.reads(buf_, offset(s), tile_bytes_);
      slots.at(count++) = s;
    }
    launch.reads_writes(buf_, offset(rw), tile_bytes_);
    slots.at(count++) = rw;
    if (!seed_.empty()) {
      launch.fn = [this, dev, slots, kernel] {
        Tiles t{};
        for (std::size_t i = 0; i < kMaxTiles; ++i) {
          t[i] = ctx_->device_ptr<double>(buf_, dev, slots[i] * tile_ * tile_);
        }
        kernel(t);
      };
    }
    std::array<rt::Event, kMaxTiles> deps;
    for (std::size_t i = 0; i < count; ++i) deps[i] = coherence_.ensure_on(slots[i], dev);
    const rt::Event ev =
        ctx_->stream(static_cast<int>(rw % streams_))
            .enqueue_kernel(std::move(launch), std::span<const rt::Event>(deps.data(), count));
    coherence_.wrote(rw, dev, ev);
  }

  /// Every tile back to the host from whichever card last wrote it, ordered
  /// against the coherence round trips through its host bytes.
  void read_back() {
    for (std::size_t s = 0; s < layout_.slots(); ++s) {
      const rt::Event ev =
          ctx_->stream(coherence_.last_writer(s), static_cast<int>(s) % partitions_)
              .enqueue_d2h(buf_, offset(s), tile_bytes_, coherence_.d2h_deps(s));
      coherence_.d2h_issued(s, ev);
    }
  }

  /// The factor as a row-major matrix, zero outside the layout (functional
  /// runs, after the last iteration).
  [[nodiscard]] std::vector<double> unpacked() const {
    const std::size_t n = layout_.grid * tile_;
    std::vector<double> dense(n * n, 0.0);
    layout_.unpack(packed_, dense, tile_);
    return dense;
  }

private:
  static std::vector<double> spd(std::size_t n, std::uint32_t seed) {
    std::vector<double> dense(n * n);
    fill_spd(std::span<double>(dense), n, seed);
    return dense;
  }
  /// One dedicated transfer stream per card: the uploads and the cross-card
  /// round trips must keep flowing while the wavefront computes.
  static std::vector<rt::Stream*> transfer_streams(rt::Context& ctx) {
    std::vector<rt::Stream*> io;
    io.reserve(static_cast<std::size_t>(ctx.device_count()));
    for (int dev = 0; dev < ctx.device_count(); ++dev) io.push_back(&ctx.add_stream(dev, 0));
    return io;
  }
  [[nodiscard]] std::size_t offset(std::size_t slot) const noexcept { return slot * tile_bytes_; }
  /// Tiles go round-robin over all streams, and so over all cards: that
  /// keeps the triangular trailing update balanced, where a block-row split
  /// would put ~3/4 of CF's flops on the last card.
  [[nodiscard]] int owner_device(std::size_t slot) const noexcept {
    return static_cast<int>(slot % streams_) / partitions_;
  }

  rt::Context* ctx_;
  TileLayout layout_;
  std::size_t tile_;
  std::size_t tile_bytes_;
  std::size_t streams_;
  int partitions_;
  std::vector<double> seed_;    ///< packed input; empty in timing-only runs
  std::vector<double> packed_;  ///< the buffer's host bytes
  rt::BufferId buf_;
  std::vector<rt::Stream*> io_;
  TileCoherence coherence_;
};

}  // namespace ms::apps
