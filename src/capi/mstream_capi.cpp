#include "capi/mstream_capi.h"

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"

namespace {

/// A recorded graph plus its executor, compiled on first launch and dropped
/// whenever another node is added.
struct GraphHandle {
  ms::rt::Graph graph;
  std::optional<ms::rt::CompiledGraph> compiled;
};

/// Process-global state behind the flat API, mirroring hStreams' design.
struct GlobalState {
  std::unique_ptr<ms::rt::Context> ctx;
  /// host base address -> (registered range, buffer id)
  std::map<const std::byte*, std::pair<std::size_t, ms::rt::BufferId>> buffers;
  std::map<mstream_event, ms::rt::Event> events;
  std::map<mstream_graph, std::unique_ptr<GraphHandle>> graphs;
  mstream_event next_event = 1;
  mstream_graph next_graph = 1;
  std::string last_error;
};

GlobalState& state() {
  static GlobalState g;
  return g;
}

mstream_result fail(mstream_result code, const std::string& what) {
  state().last_error = what;
  return code;
}

/// Find the registered buffer containing [p, p + bytes); returns nullopt
/// behaviour via pointer (null => not found).
struct Resolved {
  ms::rt::BufferId id;
  std::size_t offset;
};

bool resolve_range(const void* p, std::size_t bytes, Resolved* out) {
  const auto* key = static_cast<const std::byte*>(p);
  auto& bufs = state().buffers;
  auto it = bufs.upper_bound(key);
  if (it == bufs.begin()) return false;
  --it;
  const std::byte* base = it->first;
  const std::size_t size = it->second.first;
  if (key < base) return false;
  // Compare sizes, not pointers: `key + bytes` can run past the address
  // space for a huge `bytes`.
  const auto offset = static_cast<std::size_t>(key - base);
  if (offset > size || bytes > size - offset) return false;
  out->id = it->second.second;
  out->offset = offset;
  return true;
}

/// The resolver handed to C kernels: host pointer -> device-0 shadow.
void* resolve_for_kernel(const void* host_ptr) {
  Resolved r;
  if (!resolve_range(host_ptr, 1, &r)) return nullptr;
  return state().ctx->device_data(r.id, 0) + r.offset;
}

ms::sim::KernelWork to_work(const mstream_work* w) {
  ms::sim::KernelWork out;
  if (w == nullptr) return out;
  switch (w->kind) {
    case MSTREAM_KERNEL_STREAMING: out.kind = ms::sim::KernelKind::Streaming; break;
    case MSTREAM_KERNEL_GEMM: out.kind = ms::sim::KernelKind::Gemm; break;
    case MSTREAM_KERNEL_CHOLESKY: out.kind = ms::sim::KernelKind::CholeskyTask; break;
    case MSTREAM_KERNEL_STENCIL: out.kind = ms::sim::KernelKind::Stencil; break;
    case MSTREAM_KERNEL_REDUCTION: out.kind = ms::sim::KernelKind::Reduction; break;
    case MSTREAM_KERNEL_GENERIC:
    default: out.kind = ms::sim::KernelKind::Generic; break;
  }
  out.flops = w->flops;
  out.elems = w->elems;
  out.temp_alloc_bytes = w->temp_alloc_bytes;
  out.temp_alloc_per_thread = w->temp_alloc_per_thread != 0;
  return out;
}

mstream_event store_event(ms::rt::Event ev) {
  const mstream_event handle = state().next_event++;
  state().events.emplace(handle, std::move(ev));
  return handle;
}

}  // namespace

extern "C" {

mstream_result mstream_app_init(int partitions) {
  if (state().ctx) {
    return fail(MSTREAM_ERR_ALREADY_INITIALIZED, "mstream_app_init: already initialized");
  }
  if (partitions < 1) {
    return fail(MSTREAM_ERR_BAD_ARGUMENT, "mstream_app_init: partitions must be >= 1");
  }
  try {
    auto ctx = std::make_unique<ms::rt::Context>(ms::sim::SimConfig::phi_31sp());
    ctx->setup(partitions);
    state().ctx = std::move(ctx);
    state().last_error.clear();
    return MSTREAM_SUCCESS;
  } catch (const std::exception& e) {
    return fail(MSTREAM_ERR_RUNTIME, e.what());
  }
}

mstream_result mstream_app_fini(void) {
  if (!state().ctx) {
    return fail(MSTREAM_ERR_NOT_INITIALIZED, "mstream_app_fini: not initialized");
  }
  state().ctx.reset();
  state().buffers.clear();
  state().events.clear();
  state().graphs.clear();
  state().next_event = 1;
  state().next_graph = 1;
  state().last_error.clear();
  return MSTREAM_SUCCESS;
}

int mstream_stream_count(void) {
  if (!state().ctx) return MSTREAM_ERR_NOT_INITIALIZED;
  return state().ctx->stream_count();
}

mstream_result mstream_app_create_buf(void* host, size_t bytes) {
  if (!state().ctx) {
    return fail(MSTREAM_ERR_NOT_INITIALIZED, "mstream_app_create_buf: not initialized");
  }
  try {
    const auto id = state().ctx->create_buffer(host, bytes);
    state().buffers[static_cast<const std::byte*>(host)] = {bytes, id};
    return MSTREAM_SUCCESS;
  } catch (const std::exception& e) {
    return fail(MSTREAM_ERR_BAD_ARGUMENT, e.what());
  }
}

mstream_result mstream_app_destroy_buf(void* host) {
  if (!state().ctx) {
    return fail(MSTREAM_ERR_NOT_INITIALIZED, "mstream_app_destroy_buf: not initialized");
  }
  auto it = state().buffers.find(static_cast<const std::byte*>(host));
  if (it == state().buffers.end()) {
    return fail(MSTREAM_ERR_UNKNOWN_BUFFER, "mstream_app_destroy_buf: unknown base pointer");
  }
  try {
    state().ctx->destroy_buffer(it->second.second);
    state().buffers.erase(it);
    return MSTREAM_SUCCESS;
  } catch (const std::exception& e) {
    return fail(MSTREAM_ERR_RUNTIME, e.what());
  }
}

mstream_result mstream_app_xfer_memory(void* host_ptr, size_t bytes, int stream,
                                       mstream_xfer_direction direction,
                                       mstream_event* out_event) {
  if (!state().ctx) {
    return fail(MSTREAM_ERR_NOT_INITIALIZED, "mstream_app_xfer_memory: not initialized");
  }
  Resolved r;
  if (!resolve_range(host_ptr, bytes, &r)) {
    return fail(MSTREAM_ERR_UNKNOWN_BUFFER,
                "mstream_app_xfer_memory: range not inside a registered buffer");
  }
  try {
    auto& s = state().ctx->stream(stream);
    const ms::rt::Event ev = direction == MSTREAM_HOST_TO_SINK
                                 ? s.enqueue_h2d(r.id, r.offset, bytes)
                                 : s.enqueue_d2h(r.id, r.offset, bytes);
    if (out_event != nullptr) *out_event = store_event(ev);
    return MSTREAM_SUCCESS;
  } catch (const std::exception& e) {
    return fail(MSTREAM_ERR_RUNTIME, e.what());
  }
}

mstream_result mstream_app_invoke(int stream, const char* name, const mstream_work* work,
                                  mstream_kernel_fn fn, void* arg, const mstream_event* deps,
                                  size_t num_deps, mstream_event* out_event) {
  if (!state().ctx) {
    return fail(MSTREAM_ERR_NOT_INITIALIZED, "mstream_app_invoke: not initialized");
  }
  std::vector<ms::rt::Event> dep_events;
  dep_events.reserve(num_deps);
  for (size_t i = 0; i < num_deps; ++i) {
    auto it = state().events.find(deps[i]);
    if (it == state().events.end()) {
      return fail(MSTREAM_ERR_BAD_ARGUMENT, "mstream_app_invoke: unknown dependency event");
    }
    dep_events.push_back(it->second);
  }
  try {
    ms::rt::KernelLaunch launch;
    launch.label = name != nullptr ? name : "kernel";
    launch.work = to_work(work);
    if (fn != nullptr) {
      launch.fn = [fn, arg] { fn(arg, &resolve_for_kernel); };
    }
    const ms::rt::Event ev = state().ctx->stream(stream).enqueue_kernel(std::move(launch),
                                                                        dep_events);
    if (out_event != nullptr) *out_event = store_event(ev);
    return MSTREAM_SUCCESS;
  } catch (const std::invalid_argument& e) {
    // The cost model rejects negative or non-finite work before anything is issued.
    return fail(MSTREAM_ERR_BAD_ARGUMENT, e.what());
  } catch (const std::exception& e) {
    return fail(MSTREAM_ERR_RUNTIME, e.what());
  }
}

mstream_result mstream_stream_synchronize(int stream) {
  if (!state().ctx) {
    return fail(MSTREAM_ERR_NOT_INITIALIZED, "mstream_stream_synchronize: not initialized");
  }
  try {
    state().ctx->stream(stream).synchronize();
    return MSTREAM_SUCCESS;
  } catch (const std::exception& e) {
    return fail(MSTREAM_ERR_RUNTIME, e.what());
  }
}

mstream_result mstream_app_thread_sync(void) {
  if (!state().ctx) {
    return fail(MSTREAM_ERR_NOT_INITIALIZED, "mstream_app_thread_sync: not initialized");
  }
  try {
    state().ctx->synchronize();
    return MSTREAM_SUCCESS;
  } catch (const std::exception& e) {
    return fail(MSTREAM_ERR_RUNTIME, e.what());
  }
}

mstream_result mstream_graph_create(mstream_graph* out_graph) {
  if (!state().ctx) {
    return fail(MSTREAM_ERR_NOT_INITIALIZED, "mstream_graph_create: not initialized");
  }
  if (out_graph == nullptr) {
    return fail(MSTREAM_ERR_BAD_ARGUMENT, "mstream_graph_create: null out pointer");
  }
  const mstream_graph handle = state().next_graph++;
  state().graphs.emplace(handle, std::make_unique<GraphHandle>());
  *out_graph = handle;
  return MSTREAM_SUCCESS;
}

mstream_result mstream_graph_destroy(mstream_graph graph) {
  if (state().graphs.erase(graph) == 0) {
    return fail(MSTREAM_ERR_BAD_ARGUMENT, "mstream_graph_destroy: unknown graph");
  }
  return MSTREAM_SUCCESS;
}

namespace {
GraphHandle* find_graph(mstream_graph graph) {
  auto it = state().graphs.find(graph);
  return it == state().graphs.end() ? nullptr : it->second.get();
}

std::vector<ms::rt::Graph::NodeId> to_node_ids(const mstream_node* deps, size_t n) {
  std::vector<ms::rt::Graph::NodeId> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(static_cast<ms::rt::Graph::NodeId>(deps[i]));
  return out;
}
}  // namespace

mstream_result mstream_graph_add_xfer(mstream_graph graph, int stream, void* host_ptr,
                                      size_t bytes, mstream_xfer_direction direction,
                                      const mstream_node* deps, size_t num_deps,
                                      mstream_node* out_node) {
  GraphHandle* g = find_graph(graph);
  if (g == nullptr) {
    return fail(MSTREAM_ERR_BAD_ARGUMENT, "mstream_graph_add_xfer: unknown graph");
  }
  Resolved r;
  if (!resolve_range(host_ptr, bytes, &r)) {
    return fail(MSTREAM_ERR_UNKNOWN_BUFFER,
                "mstream_graph_add_xfer: range not inside a registered buffer");
  }
  try {
    const auto node =
        direction == MSTREAM_HOST_TO_SINK
            ? g->graph.add_h2d(stream, r.id, r.offset, bytes, to_node_ids(deps, num_deps))
            : g->graph.add_d2h(stream, r.id, r.offset, bytes, to_node_ids(deps, num_deps));
    g->compiled.reset();
    if (out_node != nullptr) *out_node = static_cast<mstream_node>(node);
    return MSTREAM_SUCCESS;
  } catch (const std::exception& e) {
    return fail(MSTREAM_ERR_RUNTIME, e.what());
  }
}

mstream_result mstream_graph_add_kernel(mstream_graph graph, int stream, const char* name,
                                        const mstream_work* work, mstream_kernel_fn fn,
                                        void* arg, const mstream_node* deps, size_t num_deps,
                                        mstream_node* out_node) {
  GraphHandle* g = find_graph(graph);
  if (g == nullptr) {
    return fail(MSTREAM_ERR_BAD_ARGUMENT, "mstream_graph_add_kernel: unknown graph");
  }
  try {
    ms::rt::KernelLaunch launch;
    launch.label = name != nullptr ? name : "kernel";
    launch.work = to_work(work);
    if (fn != nullptr) {
      launch.fn = [fn, arg] { fn(arg, &resolve_for_kernel); };
    }
    const auto node =
        g->graph.add_kernel(stream, std::move(launch), to_node_ids(deps, num_deps));
    g->compiled.reset();
    if (out_node != nullptr) *out_node = static_cast<mstream_node>(node);
    return MSTREAM_SUCCESS;
  } catch (const std::exception& e) {
    return fail(MSTREAM_ERR_RUNTIME, e.what());
  }
}

mstream_result mstream_graph_launch(mstream_graph graph, mstream_event* out_event) {
  if (!state().ctx) {
    return fail(MSTREAM_ERR_NOT_INITIALIZED, "mstream_graph_launch: not initialized");
  }
  GraphHandle* g = find_graph(graph);
  if (g == nullptr) {
    return fail(MSTREAM_ERR_BAD_ARGUMENT, "mstream_graph_launch: unknown graph");
  }
  try {
    if (!g->compiled) g->compiled = g->graph.compile(*state().ctx);
    const ms::rt::Event ev = g->compiled->launch(*state().ctx);
    if (out_event != nullptr) *out_event = store_event(ev);
    return MSTREAM_SUCCESS;
  } catch (const std::exception& e) {
    return fail(MSTREAM_ERR_RUNTIME, e.what());
  }
}

int mstream_event_done(mstream_event ev) {
  auto it = state().events.find(ev);
  if (it == state().events.end()) return -1;
  return it->second.done() ? 1 : 0;
}

double mstream_virtual_time_ms(void) {
  if (!state().ctx) return 0.0;
  return state().ctx->host_time().millis();
}

const char* mstream_last_error(void) { return state().last_error.c_str(); }

}  // extern "C"
