#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "rt/event.hpp"
#include "sim/chunk_depot.hpp"
#include "telemetry/metrics.hpp"

namespace ms::rt::detail {

/// Process-wide count of pool chunk growths (one heap/depot acquisition per
/// chunk). Inline so every NodePool instantiation shares the same counter.
inline telemetry::Counter& pool_chunks_grown() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_rt_pool_chunks_grown_total", "Chunks acquired by node pools (256 nodes each)");
  return c;
}

/// Fixed-size node pool: one chunk allocation buys kChunkNodes nodes, and
/// freed nodes recycle through an *intrusive* free list threaded through the
/// free nodes' own bytes — the pool keeps no side table at all, so an
/// enqueue burst (thousands of in-flight actions before the first
/// completion) costs one allocation per chunk and zero bookkeeping memory.
/// Chunk storage itself comes from the process-wide ChunkDepot, so a
/// create-run-destroy context loop reuses the same committed pages instead
/// of faulting fresh ones in every lifetime.
///
/// Not thread-safe: nodes must be acquired and released on the thread that
/// owns the store, which is already the Context-wide contract.
template <std::size_t NodeBytes>
class NodePool {
  static_assert(NodeBytes >= sizeof(void*), "node must hold a free-list link");
  static_assert(NodeBytes % alignof(std::max_align_t) == 0,
                "node size must preserve max alignment");

public:
  static constexpr std::size_t kNodeBytes = NodeBytes;
  static constexpr std::size_t kChunkNodes = 256;
  static constexpr std::size_t kChunkBytes = kNodeBytes * kChunkNodes;

  struct Store {
    std::vector<std::unique_ptr<std::byte[]>> chunks;
    void* free_head = nullptr;  ///< intrusive list through free nodes

    Store() = default;
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;
    ~Store() {
      for (auto& c : chunks) {
        sim::detail::ChunkDepot::release(std::move(c), kChunkBytes);
      }
    }
  };

  /// Pop a node (growing by one chunk when the free list is empty).
  [[nodiscard]] static void* allocate(Store& st) {
    if (st.free_head == nullptr) grow(st);
    void* node = st.free_head;
    st.free_head = *static_cast<void**>(node);
    return node;
  }

  /// Push a node back on the free list. The node's bytes are dead storage
  /// from this point (the link overwrites them).
  static void deallocate(Store& st, void* node) noexcept {
    *static_cast<void**>(node) = st.free_head;
    st.free_head = node;
  }

private:
  static void grow(Store& st) {
    pool_chunks_grown().add(1);
    auto chunk = sim::detail::ChunkDepot::acquire(kChunkBytes);
    std::byte* base = chunk.get();
    for (std::size_t i = 0; i < kChunkNodes; ++i) {
      deallocate(st, base + i * kNodeBytes);
    }
    st.chunks.push_back(std::move(chunk));
  }
};

/// Node size for a placement-new'd T, rounded up to keep consecutive nodes
/// max-aligned.
template <typename T>
inline constexpr std::size_t kPoolNodeBytes =
    (sizeof(T) + alignof(std::max_align_t) - 1) / alignof(std::max_align_t) *
    alignof(std::max_align_t);

using StatePool = NodePool<kPoolNodeBytes<ActionState>>;
using EdgePool = NodePool<kPoolNodeBytes<WaitEdge>>;

// Every in-flight action holds one state node, and a dependency-heavy
// pattern (Hotspot's 5-point stencil) hangs about five edges on each.
static_assert(StatePool::kNodeBytes <= 48, "ActionState node outgrew 48 bytes");
static_assert(EdgePool::kNodeBytes == 16, "WaitEdge node must stay two pointers");

/// Home of a Context's ActionStates and of the waiter edges hung on them
/// (an edge lives in the store of the state it waits for, so it is freed
/// into the pool it came from even when the dependent is on another
/// Context). `refs` counts live states plus one for the Context itself: a
/// state still held by an Event after its Context is gone keeps the chunks
/// alive, and the last one out frees the store.
struct StateStore {
  StatePool::Store states;
  EdgePool::Store edges;
  std::size_t refs = 1;
};

/// Drops the owning Context's share of its StateStore.
struct StateStoreRelease {
  void operator()(StateStore* st) const noexcept {
    if (--st->refs == 0) delete st;
  }
};

}  // namespace ms::rt::detail
