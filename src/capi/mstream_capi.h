#ifndef MSTREAM_CAPI_H
#define MSTREAM_CAPI_H

/* hStreams-compatible C interface to the mstream runtime.
 *
 * Intel's hStreams exposed a flat "app API" (hStreams_app_init,
 * hStreams_app_create_buf, hStreams_app_xfer_memory, hStreams_app_invoke,
 * hStreams_app_thread_sync, ...) over a process-global state; ports such as
 * the paper's benchmarks were written against exactly this shape. This
 * header reproduces that shape over ms::rt so a C (or Fortran-bound)
 * application can drive the simulated platform without touching C++.
 *
 * Like hStreams, buffers are addressed by their HOST pointer: register a
 * range once with mstream_app_create_buf(), then pass any pointer inside
 * that range to the transfer calls. All functions return MSTREAM_SUCCESS
 * (0) or a negative error code; the last error message is retrievable via
 * mstream_last_error(). The global state is NOT thread-safe (neither was
 * hStreams' app API).
 */

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef int mstream_result;
#define MSTREAM_SUCCESS 0
#define MSTREAM_ERR_NOT_INITIALIZED (-1)
#define MSTREAM_ERR_ALREADY_INITIALIZED (-2)
#define MSTREAM_ERR_BAD_ARGUMENT (-3)
#define MSTREAM_ERR_UNKNOWN_BUFFER (-4)
#define MSTREAM_ERR_RUNTIME (-5)

/* Transfer direction, as in hStreams' HSTR_XFER_DIRECTION. */
typedef enum {
  MSTREAM_HOST_TO_SINK = 0, /* H2D */
  MSTREAM_SINK_TO_HOST = 1  /* D2H */
} mstream_xfer_direction;

/* Broad kernel class for the cost model (ms::sim::KernelKind). */
typedef enum {
  MSTREAM_KERNEL_GENERIC = 0,
  MSTREAM_KERNEL_STREAMING = 1,
  MSTREAM_KERNEL_GEMM = 2,
  MSTREAM_KERNEL_CHOLESKY = 3,
  MSTREAM_KERNEL_STENCIL = 4,
  MSTREAM_KERNEL_REDUCTION = 5
} mstream_kernel_kind;

/* Work descriptor of one kernel launch (feeds the virtual-time model). */
typedef struct {
  mstream_kernel_kind kind;
  double flops;
  double elems;
  double temp_alloc_bytes;
  int temp_alloc_per_thread; /* nonzero = thread-private scratch */
} mstream_work;

/* Completion handle; value 0 means "no event". */
typedef uint64_t mstream_event;

/* Device-side kernel body: receives the user argument plus a resolver that
 * maps a registered host pointer to the corresponding device shadow
 * pointer on device 0 (the common single-card case). */
typedef void* (*mstream_resolve_fn)(const void* host_ptr);
typedef void (*mstream_kernel_fn)(void* arg, mstream_resolve_fn resolve);

/* --- lifecycle ----------------------------------------------------------- */

/* Initialize the global runtime on a simulated Phi 31SP with `partitions`
 * places and one stream per place (hStreams_app_init's logical view). */
mstream_result mstream_app_init(int partitions);

/* Tear the global runtime down; all buffers and events are released. */
mstream_result mstream_app_fini(void);

/* Number of streams (== partitions) of the current context; < 0 on error. */
int mstream_stream_count(void);

/* --- buffers -------------------------------------------------------------- */

/* Register [host, host + bytes) and instantiate it on the device. */
mstream_result mstream_app_create_buf(void* host, size_t bytes);

/* Unregister a buffer previously created with mstream_app_create_buf. */
mstream_result mstream_app_destroy_buf(void* host);

/* --- actions --------------------------------------------------------------- */

/* Asynchronously move `bytes` at `host_ptr` (which must lie inside a
 * registered buffer) in `direction` on `stream`. `out_event` may be NULL. */
mstream_result mstream_app_xfer_memory(void* host_ptr, size_t bytes, int stream,
                                       mstream_xfer_direction direction,
                                       mstream_event* out_event);

/* Launch a kernel on `stream`. `fn` may be NULL for timing-only studies.
 * `deps` is an optional array of `num_deps` events to wait for. A `work`
 * with a negative, NaN or infinite flops/elems/temp_alloc_bytes returns
 * MSTREAM_ERR_BAD_ARGUMENT and issues nothing. */
mstream_result mstream_app_invoke(int stream, const char* name, const mstream_work* work,
                                  mstream_kernel_fn fn, void* arg, const mstream_event* deps,
                                  size_t num_deps, mstream_event* out_event);

/* --- synchronization -------------------------------------------------------- */

/* Wait until `stream` drains (hStreams_stream_synchronize). */
mstream_result mstream_stream_synchronize(int stream);

/* Wait until every stream drains (hStreams_app_thread_sync). */
mstream_result mstream_app_thread_sync(void);

/* Nonzero when the event has completed. Unknown events report an error via
 * the return value of -1. */
int mstream_event_done(mstream_event ev);

/* --- recorded graphs --------------------------------------------------------- */

/* Handle to a recorded schedule (rt::Graph); value 0 is invalid. */
typedef uint64_t mstream_graph;
typedef uint64_t mstream_node;

/* Create / destroy a graph. Graphs record nodes against the *current*
 * buffers and stream indices; launch re-issues the whole bundle for one
 * launch cost plus a small per-node fee instead of per-action enqueues. */
mstream_result mstream_graph_create(mstream_graph* out_graph);
mstream_result mstream_graph_destroy(mstream_graph graph);

/* Record a transfer node. `host_ptr` must lie inside a registered buffer.
 * `deps` lists previously recorded node ids of this graph. */
mstream_result mstream_graph_add_xfer(mstream_graph graph, int stream, void* host_ptr,
                                      size_t bytes, mstream_xfer_direction direction,
                                      const mstream_node* deps, size_t num_deps,
                                      mstream_node* out_node);

/* Record a kernel node (fn may be NULL for timing-only graphs). */
mstream_result mstream_graph_add_kernel(mstream_graph graph, int stream, const char* name,
                                        const mstream_work* work, mstream_kernel_fn fn,
                                        void* arg, const mstream_node* deps, size_t num_deps,
                                        mstream_node* out_node);

/* Replay the recorded schedule; `out_event` (optional) completes when every
 * node has completed. The first launch after a node was added validates and
 * compiles the graph; a graph that fails validation returns
 * MSTREAM_ERR_RUNTIME and issues nothing. */
mstream_result mstream_graph_launch(mstream_graph graph, mstream_event* out_event);

/* --- introspection ----------------------------------------------------------- */

/* The virtual host clock in milliseconds (what a wall clock would read). */
double mstream_virtual_time_ms(void);

/* Human-readable message for the most recent failure ("" if none). */
const char* mstream_last_error(void);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* MSTREAM_CAPI_H */
