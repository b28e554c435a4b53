#pragma once

#include <cstddef>

namespace ms::test {

/// Global operator new calls made so far *by the calling thread*. The
/// counting operator new/delete replacements live in alloc_counter.cpp — a
/// binary can replace them only once, so every allocation test in a binary
/// shares that definition and compares deltas of this count.
///
/// Per-thread on purpose: the code under test (an Engine, a Context) runs on
/// the calling thread, while idle workers of a sweep pool started by an
/// earlier test in the same binary may still be allocating (a new worker
/// formats its telemetry label on its own thread) and must not be charged
/// to the test.
[[nodiscard]] std::size_t alloc_count() noexcept;

}  // namespace ms::test
