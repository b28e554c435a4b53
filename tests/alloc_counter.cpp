// Counting global operator new for the whole test binary; only the deltas
// sampled inside the allocation tests matter.

#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local std::size_t t_allocs = 0;

}  // namespace

std::size_t ms::test::alloc_count() noexcept { return t_allocs; }

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
