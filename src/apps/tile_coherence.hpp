#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

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
  /// `io` supplies one dedicated transfer stream per device so coherence
  /// round trips are not FIFO-blocked behind queued kernels.
  TileCoherence(rt::Context& ctx, rt::BufferId buf, std::size_t tile_bytes,
                std::vector<rt::Stream*> io)
      : ctx_(&ctx), buf_(buf), tile_bytes_(tile_bytes), io_(std::move(io)) {}

  void track(std::size_t slot) {
    if (slot >= tiles_.size()) tiles_.resize(slot + 1);
  }

  /// Guarantee a valid copy of `slot` on `dev`; returns the guarding event.
  rt::Event ensure_on(std::size_t slot, int dev) {
    State& st = tiles_.at(slot);
    auto& entry = st.per_device(dev);
    if (entry.valid) return entry.ev;
    if (st.last_writer < 0) {
      throw rt::Error("TileCoherence: tile read before any write/upload");
    }
    // Round trip through host memory on the transfer streams: D2H from the
    // owning card, then H2D onto the requesting card. The D2H rewrites the
    // slot's host bytes, so it must also wait for the previous round trip
    // through that range (WAW) and for every H2D still reading it (WAR) —
    // sibling replications live on *different* transfer streams, and the
    // source event alone does not order them.
    auto& src = st.per_device(st.last_writer);
    const std::size_t off = slot * tile_bytes_;
    std::vector<rt::Event> d2h_deps;
    d2h_deps.reserve(2 + st.host_readers.size());
    d2h_deps.push_back(src.ev);
    if (st.host_write.valid()) d2h_deps.push_back(st.host_write);
    d2h_deps.insert(d2h_deps.end(), st.host_readers.begin(), st.host_readers.end());
    rt::Event d2h = io_[static_cast<std::size_t>(st.last_writer)]->enqueue_d2h(
        buf_, off, tile_bytes_, d2h_deps);
    st.host_write = d2h;
    st.host_readers.clear();
    rt::Event h2d =
        io_[static_cast<std::size_t>(dev)]->enqueue_h2d(buf_, off, tile_bytes_, {d2h});
    st.host_readers.push_back(h2d);
    entry.valid = true;
    entry.ev = h2d;
    return h2d;
  }

  /// Everything a final host readback (D2H) of `slot` must wait on: the
  /// producing write plus the coherence layer's own traffic through the
  /// slot's host byte range.
  [[nodiscard]] std::vector<rt::Event> readback_deps(std::size_t slot) {
    State& st = tiles_.at(slot);
    std::vector<rt::Event> deps;
    deps.reserve(2 + st.host_readers.size());
    deps.push_back(st.per_device(st.last_writer).ev);
    if (st.host_write.valid()) deps.push_back(st.host_write);
    deps.insert(deps.end(), st.host_readers.begin(), st.host_readers.end());
    return deps;
  }

  /// Record a host readback issued with readback_deps() so any later round
  /// trip through the slot orders after it.
  void read_back(std::size_t slot, rt::Event ev) {
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

  rt::Context* ctx_;
  rt::BufferId buf_;
  std::size_t tile_bytes_;
  std::vector<rt::Stream*> io_;
  std::vector<State> tiles_;
};

}  // namespace ms::apps
