#ifndef TDP_TESTS_VECTOR_TEST_UTIL_H_
#define TDP_TESTS_VECTOR_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/result_cursor.h"
#include "src/exec/run_options.h"
#include "src/exec/value.h"
#include "src/storage/table.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace tdp {
namespace testutil {

/// `exec::RunOptions` carrying just `?` parameter bindings — the common
/// case after the params-vector `Session::Sql` overload was folded into
/// the RunOptions one.
inline exec::RunOptions WithParams(std::vector<exec::ScalarValue> params) {
  exec::RunOptions run;
  run.params = std::move(params);
  return run;
}

/// Drains `cursor` to end of stream, returning its chunks in order; the
/// first failed `Next()` is returned instead.
inline StatusOr<std::vector<exec::Chunk>> DrainChunks(
    exec::ResultCursor& cursor) {
  std::vector<exec::Chunk> chunks;
  while (true) {
    TDP_ASSIGN_OR_RETURN(std::optional<exec::Chunk> chunk, cursor.Next());
    if (!chunk.has_value()) return chunks;
    chunks.push_back(std::move(*chunk));
  }
}

/// Clustered unit vectors shared by the vector-index suites: `clusters`
/// random unit directions, each row a small (0.08σ) perturbation of one
/// of them, re-normalized. One definition so ivf_index, ivf_index_sql,
/// differential, and streaming-parity tests all exercise identical data
/// for identical (rng, shape) inputs.
inline Tensor MakeClusteredUnitVectors(int64_t n, int64_t dim,
                                       int64_t clusters, Rng& rng) {
  Tensor centers = L2Normalize(RandNormal({clusters, dim}, 0, 1, rng), 1);
  Tensor data = Tensor::Zeros({n, dim});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = rng.UniformInt(0, clusters - 1);
    Tensor row = L2Normalize(
        Add(Slice(centers, 0, c, 1), RandNormal({1, dim}, 0, 0.08, rng)), 1);
    for (int64_t d = 0; d < dim; ++d) data.SetAt({i, d}, row.At({0, d}));
  }
  return data;
}

/// A random unit-norm query vector of `dim` elements.
inline Tensor MakeUnitQuery(int64_t dim, Rng& rng) {
  return L2Normalize(RandNormal({1, dim}, 0, 1, rng), 1).Squeeze(0)
      .Contiguous();
}

/// Asserts `a` and `b` are bit-identical column for column — names,
/// encodings, data, dictionaries and PE domains. The shared oracle of the
/// differential suites (index vs brute force, morsel sizes, thread
/// counts).
inline void ExpectTablesBitIdentical(const Table& a, const Table& b,
                                     const std::string& what = "") {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (int64_t c = 0; c < a.num_columns(); ++c) {
    const size_t uc = static_cast<size_t>(c);
    EXPECT_EQ(a.column_names()[uc], b.column_names()[uc]) << what;
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    ASSERT_EQ(ca.encoding(), cb.encoding()) << what << " column " << c;
    EXPECT_TRUE(TensorEqual(ca.data().Contiguous(), cb.data().Contiguous()))
        << what << " column " << c << " diverged: " << ca.ToString()
        << " vs " << cb.ToString();
    EXPECT_EQ(ca.dictionary(), cb.dictionary()) << what << " column " << c;
    EXPECT_EQ(ca.domain(), cb.domain()) << what << " column " << c;
  }
}

}  // namespace testutil
}  // namespace tdp

#endif  // TDP_TESTS_VECTOR_TEST_UTIL_H_
