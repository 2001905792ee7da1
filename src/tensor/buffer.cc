#include "src/tensor/buffer.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "src/common/logging.h"

namespace tdp {

namespace {
constexpr size_t kAlignment = 64;
std::atomic<int64_t> g_allocation_count{0};
}  // namespace

int64_t Buffer::allocation_count() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

std::shared_ptr<Buffer> Buffer::Allocate(int64_t size_bytes, bool zero) {
  TDP_CHECK_GE(size_bytes, 0);
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  // Round up to the alignment so we can always over-read a full cache line.
  const size_t alloc =
      (static_cast<size_t>(size_bytes) + kAlignment - 1) / kAlignment *
      kAlignment;
  uint8_t* data = nullptr;
  if (alloc > 0) {
    data = static_cast<uint8_t*>(std::aligned_alloc(kAlignment, alloc));
    TDP_CHECK(data != nullptr) << "allocation of " << alloc << " bytes failed";
    if (zero) std::memset(data, 0, alloc);
  }
  return std::make_shared<Buffer>(Key{}, data, size_bytes);
}

Buffer::~Buffer() { std::free(data_); }

}  // namespace tdp
