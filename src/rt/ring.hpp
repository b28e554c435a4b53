#pragma once

#include <cstddef>
#include <vector>

namespace ms::rt::detail {

/// Minimal grow-only FIFO ring of pointers, replacing std::deque on the
/// stream hot path: push_back/pop_front are two or three inline
/// instructions against a power-of-two backing vector, with none of the
/// deque's per-block allocation or segmented iteration.
template <typename T>
class PtrRing {
public:
  void push_back(T* p) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = p;
    ++size_;
  }

  void pop_front() noexcept {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  [[nodiscard]] T* front() const noexcept { return buf_[head_]; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T*> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T*> buf_;  // capacity always a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ms::rt::detail
