#pragma once

// Cache-line / SIMD aligned heap buffer with RAII ownership.
//
// Matrices and device-memory arenas sit on top of this; 64-byte alignment
// keeps column starts SIMD-friendly for the vectorized BLAS kernels and
// avoids false sharing between thread blocks that own adjacent tiles.
//
// Size and capacity are tracked separately so hot paths that repeatedly
// resize a scratch buffer (per-request arenas, staging areas) reuse the
// existing allocation: reset()/reserve() only touch the allocator when the
// requested count exceeds the current capacity. Contents are NEVER
// preserved across a growing reset/reserve — this is scratch storage, not a
// container — and newly exposed memory is uninitialized.
//
// Allocations are routed through prof::detail::counted_alloc/counted_free
// so the host profiling layer (common/profile.hpp) sees matrix and arena
// traffic alongside operator-new traffic.
//
// Buffers of at least 2 MiB are 2 MiB-aligned and ask the kernel for
// transparent huge pages (Linux MADV_HUGEPAGE) on the whole 2 MiB pages
// inside them: a 44 MB matrix then takes ~21 page faults on first touch
// instead of ~10,800, and fewer TLB misses afterwards. The tail past the
// last whole 2 MiB page keeps 4 KiB pages, so a huge page never reaches
// past the buffer's own bytes into memory the allocator may hand to
// someone else; a matrix is written whole, so the pages it faults in are
// the ones 4 KiB pages would have faulted, and RSS does not grow. The
// advice is a hint: where the kernel refuses it (THP set to never) the
// buffer works as before.

#include <cstddef>
#include <new>
#include <utility>

#include "common/check.hpp"
#include "common/profile.hpp"

namespace caqr {

inline constexpr std::size_t kCacheLineBytes = 64;
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

namespace detail {
// Advises transparent huge pages for the whole 2 MiB pages of
// [p, p + bytes); p is 2 MiB-aligned. Failures are ignored.
void advise_huge_pages(void* p, std::size_t bytes) noexcept;
}  // namespace detail

template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count) { reset(count); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        count_(std::exchange(other.count_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      count_ = std::exchange(other.count_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  // Sets size to `count`, reusing the existing allocation when it is large
  // enough. Contents are discarded; grown memory is uninitialized.
  void reset(std::size_t count) {
    reserve(count);
    count_ = count;
  }

  // Ensures capacity for `count` elements without changing size. Growing
  // discards contents (scratch semantics — no copy-over).
  void reserve(std::size_t count) {
    if (count <= capacity_) return;
    release();
    const std::size_t bytes =
        (count * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
        kCacheLineBytes;
    const bool huge = bytes >= kHugePageBytes;
    void* p = prof::detail::counted_alloc(
        bytes, huge ? kHugePageBytes : kCacheLineBytes);
    if (p == nullptr) throw std::bad_alloc();
    if (huge) detail::advise_huge_pages(p, bytes);
    data_ = static_cast<T*>(p);
    capacity_ = bytes / sizeof(T);
  }

  // Size to zero; capacity (and the allocation) retained.
  void clear() noexcept { count_ = 0; }

  // Frees the allocation (capacity drops to zero).
  void release() noexcept {
    prof::detail::counted_free(data_);
    data_ = nullptr;
    count_ = 0;
    capacity_ = 0;
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return count_; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool empty() const noexcept { return count_ == 0; }

  T& operator[](std::size_t i) noexcept {
    CAQR_DCHECK(i < count_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const noexcept {
    CAQR_DCHECK(i < count_);
    return data_[i];
  }

 private:
  T* data_ = nullptr;
  std::size_t count_ = 0;     // current logical size
  std::size_t capacity_ = 0;  // allocated element capacity
};

}  // namespace caqr
