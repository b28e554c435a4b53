#include "capi/mstream_capi.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace {

/// RAII guard so a failing test cannot leak the global context into the
/// next one.
struct CApiSession {
  explicit CApiSession(int partitions) { EXPECT_EQ(mstream_app_init(partitions), MSTREAM_SUCCESS); }
  ~CApiSession() { mstream_app_fini(); }
};

struct SaxpyArgs {
  const float* a;
  float* b;
  size_t n;
  float alpha;
};

// A C-style kernel: resolves registered host pointers to device shadows.
void saxpy_kernel(void* arg, mstream_resolve_fn resolve) {
  auto* args = static_cast<SaxpyArgs*>(arg);
  const auto* a = static_cast<const float*>(resolve(args->a));
  auto* b = static_cast<float*>(resolve(args->b));
  for (size_t i = 0; i < args->n; ++i) b[i] = a[i] + args->alpha;
}

void count_kernel(void* arg, mstream_resolve_fn /*resolve*/) { ++*static_cast<int*>(arg); }

TEST(CApi, InitAndFiniLifecycle) {
  EXPECT_EQ(mstream_app_init(4), MSTREAM_SUCCESS);
  EXPECT_EQ(mstream_stream_count(), 4);
  EXPECT_EQ(mstream_app_init(4), MSTREAM_ERR_ALREADY_INITIALIZED);
  EXPECT_EQ(mstream_app_fini(), MSTREAM_SUCCESS);
  EXPECT_EQ(mstream_app_fini(), MSTREAM_ERR_NOT_INITIALIZED);
}

TEST(CApi, RequiresInitialization) {
  float x = 0.0f;
  EXPECT_EQ(mstream_app_create_buf(&x, 4), MSTREAM_ERR_NOT_INITIALIZED);
  EXPECT_EQ(mstream_app_thread_sync(), MSTREAM_ERR_NOT_INITIALIZED);
  EXPECT_LT(mstream_stream_count(), 0);
  EXPECT_NE(mstream_last_error()[0], '\0');
}

TEST(CApi, InvalidInitArgs) {
  EXPECT_EQ(mstream_app_init(0), MSTREAM_ERR_BAD_ARGUMENT);
}

TEST(CApi, FullOffloadPipeline) {
  CApiSession session(4);

  std::vector<float> a(4096, 41.0f), b(4096, 0.0f);
  ASSERT_EQ(mstream_app_create_buf(a.data(), a.size() * sizeof(float)), MSTREAM_SUCCESS);
  ASSERT_EQ(mstream_app_create_buf(b.data(), b.size() * sizeof(float)), MSTREAM_SUCCESS);

  mstream_event up = 0;
  ASSERT_EQ(mstream_app_xfer_memory(a.data(), a.size() * sizeof(float), 0, MSTREAM_HOST_TO_SINK,
                                    &up),
            MSTREAM_SUCCESS);

  SaxpyArgs args{a.data(), b.data(), a.size(), 1.0f};
  mstream_work work{};
  work.kind = MSTREAM_KERNEL_STREAMING;
  work.elems = static_cast<double>(a.size());
  mstream_event kernel_ev = 0;
  ASSERT_EQ(mstream_app_invoke(0, "saxpy", &work, &saxpy_kernel, &args, &up, 1, &kernel_ev),
            MSTREAM_SUCCESS);

  ASSERT_EQ(mstream_app_xfer_memory(b.data(), b.size() * sizeof(float), 0, MSTREAM_SINK_TO_HOST,
                                    nullptr),
            MSTREAM_SUCCESS);
  ASSERT_EQ(mstream_app_thread_sync(), MSTREAM_SUCCESS);

  EXPECT_EQ(mstream_event_done(kernel_ev), 1);
  for (const float x : b) ASSERT_FLOAT_EQ(x, 42.0f);
  EXPECT_GT(mstream_virtual_time_ms(), 0.0);
}

TEST(CApi, InteriorPointersResolveToTheRightOffset) {
  CApiSession session(2);
  std::vector<float> buf(100, 0.0f);
  ASSERT_EQ(mstream_app_create_buf(buf.data(), buf.size() * sizeof(float)), MSTREAM_SUCCESS);
  buf[50] = 7.0f;
  // Transfer only the second half via an interior pointer.
  ASSERT_EQ(mstream_app_xfer_memory(buf.data() + 50, 50 * sizeof(float), 0,
                                    MSTREAM_HOST_TO_SINK, nullptr),
            MSTREAM_SUCCESS);
  ASSERT_EQ(mstream_app_thread_sync(), MSTREAM_SUCCESS);
}

TEST(CApi, UnknownBufferIsReported) {
  CApiSession session(2);
  float unregistered[8] = {};
  EXPECT_EQ(mstream_app_xfer_memory(unregistered, sizeof(unregistered), 0, MSTREAM_HOST_TO_SINK,
                                    nullptr),
            MSTREAM_ERR_UNKNOWN_BUFFER);
  EXPECT_EQ(mstream_app_destroy_buf(unregistered), MSTREAM_ERR_UNKNOWN_BUFFER);
}

TEST(CApi, RangeOverflowingBufferIsRejected) {
  CApiSession session(2);
  std::vector<float> buf(16, 0.0f);
  ASSERT_EQ(mstream_app_create_buf(buf.data(), buf.size() * sizeof(float)), MSTREAM_SUCCESS);
  EXPECT_EQ(mstream_app_xfer_memory(buf.data() + 8, 9 * sizeof(float), 0, MSTREAM_HOST_TO_SINK,
                                    nullptr),
            MSTREAM_ERR_UNKNOWN_BUFFER);
}

TEST(CApi, WrappingRangeIsRejected) {
  // key + bytes overflows the address space; resolution must compare sizes.
  CApiSession session(2);
  std::vector<unsigned char> buf(1024, 0);
  ASSERT_EQ(mstream_app_create_buf(buf.data(), buf.size()), MSTREAM_SUCCESS);
  mstream_event ev = 0;
  EXPECT_EQ(mstream_app_xfer_memory(buf.data() + 16, SIZE_MAX - 8, 0, MSTREAM_HOST_TO_SINK, &ev),
            MSTREAM_ERR_UNKNOWN_BUFFER);
  EXPECT_EQ(mstream_app_xfer_memory(buf.data() + 1023, 2, 0, MSTREAM_SINK_TO_HOST, &ev),
            MSTREAM_ERR_UNKNOWN_BUFFER);
  EXPECT_EQ(mstream_app_xfer_memory(buf.data() + 1023, 1, 0, MSTREAM_SINK_TO_HOST, &ev),
            MSTREAM_SUCCESS);
  EXPECT_EQ(mstream_app_thread_sync(), MSTREAM_SUCCESS);
}

TEST(CApi, DestroyBufThenUseFails) {
  CApiSession session(2);
  std::vector<float> buf(16, 0.0f);
  ASSERT_EQ(mstream_app_create_buf(buf.data(), buf.size() * sizeof(float)), MSTREAM_SUCCESS);
  ASSERT_EQ(mstream_app_destroy_buf(buf.data()), MSTREAM_SUCCESS);
  EXPECT_EQ(mstream_app_xfer_memory(buf.data(), 4, 0, MSTREAM_HOST_TO_SINK, nullptr),
            MSTREAM_ERR_UNKNOWN_BUFFER);
}

TEST(CApi, UnknownDependencyEventRejected) {
  CApiSession session(2);
  mstream_work work{};
  const mstream_event bogus = 9999;
  EXPECT_EQ(mstream_app_invoke(0, "k", &work, nullptr, nullptr, &bogus, 1, nullptr),
            MSTREAM_ERR_BAD_ARGUMENT);
}

TEST(CApi, StreamSynchronizeAndEvents) {
  CApiSession session(2);
  mstream_work work{};
  work.kind = MSTREAM_KERNEL_STREAMING;
  work.elems = 1e6;
  mstream_event ev = 0;
  ASSERT_EQ(mstream_app_invoke(1, "idle", &work, nullptr, nullptr, nullptr, 0, &ev),
            MSTREAM_SUCCESS);
  EXPECT_EQ(mstream_event_done(ev), 0);
  ASSERT_EQ(mstream_stream_synchronize(1), MSTREAM_SUCCESS);
  EXPECT_EQ(mstream_event_done(ev), 1);
  EXPECT_EQ(mstream_event_done(424242), -1);
}

TEST(CApi, BadStreamIndexSurfacesRuntimeError) {
  CApiSession session(2);
  mstream_work work{};
  EXPECT_EQ(mstream_app_invoke(7, "k", &work, nullptr, nullptr, nullptr, 0, nullptr),
            MSTREAM_ERR_RUNTIME);
  EXPECT_NE(mstream_last_error()[0], '\0');
}

TEST(CApi, GraphRecordAndReplay) {
  CApiSession session(2);
  std::vector<float> a(1024, 41.0f), b(1024, 0.0f);
  ASSERT_EQ(mstream_app_create_buf(a.data(), a.size() * sizeof(float)), MSTREAM_SUCCESS);
  ASSERT_EQ(mstream_app_create_buf(b.data(), b.size() * sizeof(float)), MSTREAM_SUCCESS);

  mstream_graph g = 0;
  ASSERT_EQ(mstream_graph_create(&g), MSTREAM_SUCCESS);

  mstream_node up = 0;
  ASSERT_EQ(mstream_graph_add_xfer(g, 0, a.data(), a.size() * sizeof(float),
                                   MSTREAM_HOST_TO_SINK, nullptr, 0, &up),
            MSTREAM_SUCCESS);
  SaxpyArgs args{a.data(), b.data(), a.size(), 1.0f};
  mstream_work work{};
  work.kind = MSTREAM_KERNEL_STREAMING;
  work.elems = static_cast<double>(a.size());
  mstream_node k = 0;
  ASSERT_EQ(mstream_graph_add_kernel(g, 0, "saxpy", &work, &saxpy_kernel, &args, &up, 1, &k),
            MSTREAM_SUCCESS);
  ASSERT_EQ(mstream_graph_add_xfer(g, 0, b.data(), b.size() * sizeof(float),
                                   MSTREAM_SINK_TO_HOST, &k, 1, nullptr),
            MSTREAM_SUCCESS);

  for (int i = 0; i < 3; ++i) {
    mstream_event done = 0;
    ASSERT_EQ(mstream_graph_launch(g, &done), MSTREAM_SUCCESS);
    ASSERT_EQ(mstream_app_thread_sync(), MSTREAM_SUCCESS);
    EXPECT_EQ(mstream_event_done(done), 1);
  }
  for (const float x : b) ASSERT_FLOAT_EQ(x, 42.0f);
  EXPECT_EQ(mstream_graph_destroy(g), MSTREAM_SUCCESS);
  EXPECT_EQ(mstream_graph_destroy(g), MSTREAM_ERR_BAD_ARGUMENT);
}

TEST(CApi, GraphErrorPaths) {
  CApiSession session(2);
  EXPECT_EQ(mstream_graph_create(nullptr), MSTREAM_ERR_BAD_ARGUMENT);
  EXPECT_EQ(mstream_graph_launch(777, nullptr), MSTREAM_ERR_BAD_ARGUMENT);

  mstream_graph g = 0;
  ASSERT_EQ(mstream_graph_create(&g), MSTREAM_SUCCESS);
  // Empty graph cannot launch.
  EXPECT_EQ(mstream_graph_launch(g, nullptr), MSTREAM_ERR_RUNTIME);
  // Unregistered host pointer.
  float stray[4] = {};
  EXPECT_EQ(mstream_graph_add_xfer(g, 0, stray, sizeof(stray), MSTREAM_HOST_TO_SINK, nullptr, 0,
                                   nullptr),
            MSTREAM_ERR_UNKNOWN_BUFFER);
  // Forward dependency.
  mstream_work work{};
  const mstream_node bogus = 42;
  EXPECT_EQ(mstream_graph_add_kernel(g, 0, "k", &work, nullptr, nullptr, &bogus, 1, nullptr),
            MSTREAM_ERR_RUNTIME);
}

TEST(CApi, FailedGraphLaunchIssuesNothing) {
  // The second node targets a stream that does not exist: the launch fails
  // as a whole, so the first node's kernel never runs either.
  CApiSession session(2);
  mstream_graph g = 0;
  ASSERT_EQ(mstream_graph_create(&g), MSTREAM_SUCCESS);
  int runs = 0;
  mstream_work work{};
  mstream_node first = 0;
  ASSERT_EQ(mstream_graph_add_kernel(g, 0, "count", &work, &count_kernel, &runs, nullptr, 0,
                                     &first),
            MSTREAM_SUCCESS);
  ASSERT_EQ(mstream_graph_add_kernel(g, 7, "k", &work, nullptr, nullptr, &first, 1, nullptr),
            MSTREAM_SUCCESS);
  EXPECT_EQ(mstream_graph_launch(g, nullptr), MSTREAM_ERR_RUNTIME);
  EXPECT_NE(mstream_last_error()[0], '\0');
  ASSERT_EQ(mstream_app_thread_sync(), MSTREAM_SUCCESS);
  EXPECT_EQ(runs, 0);
}

TEST(CApi, TimingOnlyKernelAdvancesVirtualClock) {
  CApiSession session(4);
  const double before = mstream_virtual_time_ms();
  mstream_work work{};
  work.kind = MSTREAM_KERNEL_GEMM;
  work.flops = 1e9;
  ASSERT_EQ(mstream_app_invoke(0, "gemm", &work, nullptr, nullptr, nullptr, 0, nullptr),
            MSTREAM_SUCCESS);
  ASSERT_EQ(mstream_app_thread_sync(), MSTREAM_SUCCESS);
  EXPECT_GT(mstream_virtual_time_ms(), before + 1.0);  // ~1.7 ms of GEMM
}

TEST(CApi, InvalidWorkIsRejectedAndIssuesNothing) {
  CApiSession session(2);
  const double bad[] = {-1.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()};
  int runs = 0;
  for (const double v : bad) {
    for (int field = 0; field < 3; ++field) {
      mstream_work work{};
      work.kind = MSTREAM_KERNEL_GEMM;
      work.flops = 1e6;
      double* target[] = {&work.flops, &work.elems, &work.temp_alloc_bytes};
      *target[field] = v;
      mstream_event ev = 0;
      EXPECT_EQ(mstream_app_invoke(0, "bad", &work, &count_kernel, &runs, nullptr, 0, &ev),
                MSTREAM_ERR_BAD_ARGUMENT)
          << "field " << field << " value " << v;
      EXPECT_EQ(ev, 0u);
      EXPECT_NE(mstream_last_error()[0], '\0');
    }
  }
  ASSERT_EQ(mstream_app_thread_sync(), MSTREAM_SUCCESS);
  EXPECT_EQ(runs, 0);

  // The stream still works after the rejections.
  mstream_work good{};
  good.flops = 1e6;
  ASSERT_EQ(mstream_app_invoke(0, "good", &good, &count_kernel, &runs, nullptr, 0, nullptr),
            MSTREAM_SUCCESS);
  ASSERT_EQ(mstream_app_thread_sync(), MSTREAM_SUCCESS);
  EXPECT_EQ(runs, 1);
}

}  // namespace
