#include "common/aligned_buffer.hpp"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace caqr::detail {

void advise_huge_pages(void* p, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  const std::size_t whole = bytes / kHugePageBytes * kHugePageBytes;
  if (whole != 0) madvise(p, whole, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace caqr::detail
