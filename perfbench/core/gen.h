#ifndef PERFBENCH_CORE_GEN_H_
#define PERFBENCH_CORE_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's own generator, so its inputs depend on the
/// seed alone and never on the engine's RNG.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo) + 1));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from (seed, stream, substream).
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t substream = 0);

// ---- analytics --------------------------------------------------------------

inline constexpr int64_t kDim1Rows = 1024;
inline constexpr int64_t kDim2Rows = 65536;
inline constexpr int64_t kWideKeys = 100000;
inline constexpr int64_t kCategories = 12;

/// Star schema: `fact` joins `dim1` on d1 and `dim2` on d2 (dense surrogate
/// ids); `hk` is a high-cardinality full-width int64 key; `cat` is a
/// low-cardinality dictionary string (stored as codes into `categories`).
struct StarSchema {
  std::vector<int64_t> id, d1, d2, hk, qty;
  std::vector<double> price;
  std::vector<int64_t> cat;  // codes into `categories` (sorted)
  std::vector<std::string> categories;
  std::vector<int64_t> dim1_region;  // per d1: region code
  std::vector<std::string> regions;  // sorted
  std::vector<int64_t> dim2_segment;  // per d2
};
StarSchema MakeStarSchema(uint64_t seed, int64_t fact_rows,
                          int64_t dim1_rows = kDim1Rows,
                          int64_t dim2_rows = kDim2Rows,
                          int64_t wide_keys = kWideKeys);

enum class AnalyticsClass {
  kGroupBy = 0,
  kGroupByWide,
  kJoinAgg,
  kDistinct,
  kSortLimit,
  kFilterExpr,
  kSpillAgg,
};
inline constexpr int kAnalyticsClasses = 7;
const char* AnalyticsClassName(AnalyticsClass c);

/// The statements of one class (ops of a class cycle through them).
const std::vector<std::string>& AnalyticsStatements(AnalyticsClass c);

/// Seeded op order: each block of kAnalyticsClasses ops is a fresh
/// permutation of the classes, so every class runs equally often.
class AnalyticsOpStream {
 public:
  explicit AnalyticsOpStream(uint64_t seed) : rng_(StreamSeed(seed, 2)) {}
  AnalyticsClass Next();

 private:
  Prng rng_;
  std::vector<int> block_;
};

// ---- multimodal --------------------------------------------------------------

enum class MultimodalClass {
  kSimFilter = 0,  // WHERE image_text_similarity(c, images) > 0.8
  kSimCount,       // COUNT(*) of the same
  kSimTopK,        // ORDER BY image_text_similarity DESC LIMIT 2
  kVecTopK,        // ORDER BY dot(e, ?) DESC LIMIT 10 under a WHERE
};
inline constexpr int kMultimodalClasses = 4;
const char* MultimodalClassName(MultimodalClass c);

inline constexpr int64_t kVecDim = 64;
inline constexpr int64_t kVecRows = 32768;
inline constexpr int64_t kVecGroups = 16;  // grp column: WHERE grp <> ?
inline constexpr int64_t kVecQueries = 64;

/// Clustered unit vectors [rows, dim] (row-major) and their group labels.
struct Embeddings {
  std::vector<float> vectors;
  std::vector<int64_t> grp;
  std::vector<std::vector<float>> queries;  // unit query vectors
};
Embeddings MakeEmbeddings(uint64_t seed, int64_t rows, int64_t dim,
                          int64_t clusters, int64_t queries);

struct MultimodalOp {
  MultimodalClass cls = MultimodalClass::kSimFilter;
  int64_t concept_index = 0;  // into the concept list (sim classes)
  int64_t query = 0;          // into Embeddings::queries (vec class)
  int64_t excluded_grp = 0;   // vec class: WHERE grp <> excluded_grp
  bool operator==(const MultimodalOp&) const = default;
};
class MultimodalOpStream {
 public:
  MultimodalOpStream(uint64_t seed, int64_t client)
      : rng_(StreamSeed(seed, 3, static_cast<uint64_t>(client))) {}
  MultimodalOp Next(int64_t num_concepts);

 private:
  Prng rng_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CORE_GEN_H_
