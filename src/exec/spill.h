#ifndef TDP_EXEC_SPILL_H_
#define TDP_EXEC_SPILL_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/storage/column.h"
#include "src/tensor/buffer.h"
#include "src/tensor/dtype.h"
#include "src/tensor/tensor.h"

namespace tdp {
namespace exec {

/// Raw bytes of a CONTIGUOUS tensor's viewed elements (the typed
/// `Tensor::data<T>()` accessor has no byte-typed instantiation).
inline const uint8_t* TensorRawBytes(const Tensor& t) {
  return t.impl()->buffer->data() + t.offset() * DTypeSize(t.dtype());
}
inline uint8_t* TensorRawBytesMutable(Tensor& t) {
  return t.impl()->buffer->data() + t.offset() * DTypeSize(t.dtype());
}

// Binary spill-file serialization for the breaker spill paths (external
// sort, grace hash join, paged aggregation). The format is exact:
// tensors round-trip their raw contiguous bytes (no float formatting, no
// re-encoding), dictionary strings and PE domains travel verbatim, so a
// value read back from disk is bit-identical to the value written. Files
// are private to one run (created via `QueryMemory::NewSpillFile`) and
// never outlive it — there is no versioning or cross-process contract.
//
// Columns are written with a leading byte length so a reader scanning for
// one column of a page can `SkipColumn` past the others without parsing
// (the per-column assembly passes of the external sort rely on this).

class SpillWriter {
 public:
  /// Opens `path` for writing (truncates).
  explicit SpillWriter(const std::string& path);

  Status WriteInt64(int64_t v);
  Status WriteBytes(const void* data, size_t size);
  Status WriteInt64Span(const int64_t* data, size_t count);

  /// dtype + shape + raw contiguous payload bytes.
  Status WriteTensor(const Tensor& t);

  /// [byte length][encoding][tensor][dictionary | domain].
  Status WriteColumn(const Column& c);

  int64_t bytes_written() const { return bytes_written_; }

  /// Flushes and closes; returns the first write error, if any.
  Status Close();

 private:
  Status CheckStream();

  std::string path_;
  std::ofstream out_;
  int64_t bytes_written_ = 0;
};

class SpillReader {
 public:
  explicit SpillReader(const std::string& path);

  bool ok() const { return in_.good(); }

  StatusOr<int64_t> ReadInt64();
  Status ReadBytes(void* data, size_t size);
  Status ReadInt64Span(int64_t* data, size_t count);
  StatusOr<Tensor> ReadTensor();
  StatusOr<Column> ReadColumn();
  /// Skips one serialized column without materializing it.
  Status SkipColumn();
  Status Skip(int64_t bytes);

 private:
  std::string path_;
  std::ifstream in_;
};

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_SPILL_H_
