#ifndef TDP_TENSOR_BUFFER_H_
#define TDP_TENSOR_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace tdp {

/// Reference-counted, 64-byte-aligned byte buffer backing tensor storage.
/// Multiple tensor views may share one buffer (slices, reshapes,
/// transposes), so buffers are immutable in size once allocated.
class Buffer {
 public:
  /// Allocates `size_bytes` (zero-initialized when `zero` is true).
  static std::shared_ptr<Buffer> Allocate(int64_t size_bytes,
                                          bool zero = false);

  /// Process-wide count of `Allocate` calls (monotonic, relaxed). Lets
  /// tests and benches assert steady-state allocation behavior of hot
  /// kernels — e.g. that a conv forward with cached scratch performs
  /// exactly one buffer allocation (the output).
  static int64_t allocation_count();

  ~Buffer();

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

 private:
  struct Key {};

 public:
  /// For `Allocate` only (the private `Key` lets it use std::make_shared,
  /// one allocation for the buffer and its control block).
  Buffer(Key, uint8_t* data, int64_t size_bytes)
      : data_(data), size_bytes_(size_bytes) {}

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  int64_t size_bytes() const { return size_bytes_; }

 private:
  uint8_t* data_;
  int64_t size_bytes_;
};

}  // namespace tdp

#endif  // TDP_TENSOR_BUFFER_H_
