#include "core/gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

uint64_t Prng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t substream) {
  Prng mix(seed * 0x100000001B3ull + stream * 0x9E3779B97F4A7C15ull +
           substream * 0xC2B2AE3D27D4EB4Full);
  mix.Next();
  return mix.Next();
}

// ---- analytics --------------------------------------------------------------

StarSchema MakeStarSchema(uint64_t seed, int64_t fact_rows, int64_t dim1_rows,
                          int64_t dim2_rows, int64_t wide_keys) {
  Prng rng(StreamSeed(seed, 5));
  StarSchema s;
  for (int64_t i = 0; i < kCategories; ++i) {
    s.categories.push_back("cat" + std::string(i < 10 ? "0" : "") +
                           std::to_string(i));
  }
  for (int64_t i = 0; i < 16; ++i) {
    s.regions.push_back("region" + std::string(i < 10 ? "0" : "") +
                        std::to_string(i));
  }
  // The wide key's distinct values: full-width int64 (both signs).
  std::vector<int64_t> wide(static_cast<size_t>(wide_keys));
  for (auto& w : wide) w = static_cast<int64_t>(rng.Next());
  const auto n = static_cast<size_t>(fact_rows);
  s.id.resize(n);
  s.d1.resize(n);
  s.d2.resize(n);
  s.hk.resize(n);
  s.qty.resize(n);
  s.price.resize(n);
  s.cat.resize(n);
  for (size_t i = 0; i < n; ++i) {
    s.id[i] = static_cast<int64_t>(i);
    s.d1[i] = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(dim1_rows)));
    s.d2[i] = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(dim2_rows)));
    s.cat[i] = static_cast<int64_t>(rng.Below(kCategories));
    s.qty[i] = static_cast<int64_t>(rng.Below(100)) + 1;
    s.hk[i] = wide[rng.Below(static_cast<uint64_t>(wide_keys))];
    // Prices on a 1/100 grid, so ORDER BY price has ties that break by id.
    s.price[i] = static_cast<double>(rng.Below(100000)) / 100.0;
  }
  s.dim1_region.resize(static_cast<size_t>(dim1_rows));
  for (auto& r : s.dim1_region) r = static_cast<int64_t>(rng.Below(16));
  s.dim2_segment.resize(static_cast<size_t>(dim2_rows));
  for (auto& g : s.dim2_segment) g = static_cast<int64_t>(rng.Below(1000));
  return s;
}

const char* AnalyticsClassName(AnalyticsClass c) {
  switch (c) {
    case AnalyticsClass::kGroupBy: return "groupby";
    case AnalyticsClass::kGroupByWide: return "groupby_wide";
    case AnalyticsClass::kJoinAgg: return "join_agg";
    case AnalyticsClass::kDistinct: return "distinct";
    case AnalyticsClass::kSortLimit: return "sort_limit";
    case AnalyticsClass::kFilterExpr: return "filter_expr";
    case AnalyticsClass::kSpillAgg: return "spill_agg";
  }
  return "?";
}

const std::vector<std::string>& AnalyticsStatements(AnalyticsClass c) {
  static const std::vector<std::vector<std::string>> kStatements = {
      // groupby: an int key and a string key.
      {"SELECT d1, COUNT(*) AS n, SUM(qty) AS q FROM fact GROUP BY d1",
       "SELECT cat, COUNT(*) AS n, SUM(qty) AS q, MAX(price) AS p FROM fact "
       "GROUP BY cat"},
      // groupby_wide: ~100K groups on the full-width key.
      {"SELECT hk, COUNT(*) AS n, SUM(qty) AS q FROM fact GROUP BY hk"},
      // join_agg: fact joined with each dimension, then grouped.
      {"SELECT dim1.region, COUNT(*) AS n, SUM(fact.qty) AS q FROM fact "
       "JOIN dim1 ON fact.d1 = dim1.d1 GROUP BY dim1.region",
       "SELECT dim2.segment, SUM(fact.qty) AS q FROM fact "
       "JOIN dim2 ON fact.d2 = dim2.d2 GROUP BY dim2.segment"},
      // distinct
      {"SELECT COUNT(DISTINCT hk) AS n FROM fact"},
      // sort_limit: ties on price break by id.
      {"SELECT id, price FROM fact ORDER BY price DESC, id LIMIT 100"},
      // filter_expr: OR, CASE and a column-vs-column comparison.
      {"SELECT COUNT(*) AS n, SUM(CASE WHEN qty > d1 THEN qty ELSE 0 END) "
       "AS s FROM fact WHERE d1 < 64 OR qty >= d1"},
      // spill_agg: run under a memory budget below its footprint.
      {"SELECT d2, COUNT(*) AS n, SUM(qty) AS q FROM fact WHERE d1 < 128 "
       "GROUP BY d2"},
  };
  return kStatements[static_cast<size_t>(c)];
}

AnalyticsClass AnalyticsOpStream::Next() {
  if (block_.empty()) {
    for (int i = kAnalyticsClasses - 1; i >= 0; --i) block_.push_back(i);
    for (size_t i = block_.size() - 1; i > 0; --i) {
      std::swap(block_[i], block_[rng_.Below(i + 1)]);
    }
  }
  const int c = block_.back();
  block_.pop_back();
  return static_cast<AnalyticsClass>(c);
}

// ---- multimodal --------------------------------------------------------------

const char* MultimodalClassName(MultimodalClass c) {
  switch (c) {
    case MultimodalClass::kSimFilter: return "sim_filter";
    case MultimodalClass::kSimCount: return "sim_count";
    case MultimodalClass::kSimTopK: return "sim_topk";
    case MultimodalClass::kVecTopK: return "vec_topk";
  }
  return "?";
}

Embeddings MakeEmbeddings(uint64_t seed, int64_t rows, int64_t dim,
                          int64_t clusters, int64_t queries) {
  Prng rng(StreamSeed(seed, 6));
  auto gaussian = [&rng] {
    const double u1 = std::max(rng.Unit(), 1e-300);
    const double u2 = rng.Unit();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  };
  auto normalize = [](float* v, int64_t d) {
    double norm = 0;
    for (int64_t j = 0; j < d; ++j) norm += static_cast<double>(v[j]) * v[j];
    norm = std::sqrt(norm);
    for (int64_t j = 0; j < d; ++j) {
      v[j] = static_cast<float>(static_cast<double>(v[j]) / norm);
    }
  };
  std::vector<float> centers(static_cast<size_t>(clusters * dim));
  for (int64_t c = 0; c < clusters; ++c) {
    for (int64_t j = 0; j < dim; ++j) {
      centers[static_cast<size_t>(c * dim + j)] =
          static_cast<float>(gaussian());
    }
    normalize(&centers[static_cast<size_t>(c * dim)], dim);
  }
  Embeddings e;
  e.vectors.resize(static_cast<size_t>(rows * dim));
  e.grp.resize(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    const auto c = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(clusters)));
    float* v = &e.vectors[static_cast<size_t>(i * dim)];
    for (int64_t j = 0; j < dim; ++j) {
      v[j] = centers[static_cast<size_t>(c * dim + j)] +
             static_cast<float>(0.35 * gaussian());
    }
    normalize(v, dim);
    e.grp[static_cast<size_t>(i)] = static_cast<int64_t>(rng.Below(kVecGroups));
  }
  for (int64_t q = 0; q < queries; ++q) {
    const auto c = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(clusters)));
    std::vector<float> v(static_cast<size_t>(dim));
    for (int64_t j = 0; j < dim; ++j) {
      v[static_cast<size_t>(j)] = centers[static_cast<size_t>(c * dim + j)] +
                                  static_cast<float>(0.35 * gaussian());
    }
    normalize(v.data(), dim);
    e.queries.push_back(std::move(v));
  }
  return e;
}

MultimodalOp MultimodalOpStream::Next(int64_t num_concepts) {
  if (num_concepts <= 0) throw std::invalid_argument("no concepts");
  MultimodalOp op;
  op.cls = static_cast<MultimodalClass>(rng_.Below(kMultimodalClasses));
  op.concept_index = static_cast<int64_t>(
      rng_.Below(static_cast<uint64_t>(num_concepts)));
  op.query = static_cast<int64_t>(rng_.Below(kVecQueries));
  op.excluded_grp = static_cast<int64_t>(rng_.Below(kVecGroups));
  return op;
}

}  // namespace perfbench
