#include "core/oracle.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "src/storage/table.h"

namespace perfbench {

std::string Cell(int64_t v) { return std::to_string(v); }

std::string Cell(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

template <typename T>
void AppendColumn(const tdp::Tensor& t, Rows& rows) {
  const std::vector<T> values = t.ToVector<T>();
  for (size_t r = 0; r < values.size(); ++r) {
    if constexpr (std::is_floating_point_v<T>) {
      rows[r].push_back(Cell(static_cast<double>(values[r])));
    } else {
      rows[r].push_back(Cell(static_cast<int64_t>(values[r])));
    }
  }
}

}  // namespace

Rows TableRows(const tdp::Table& table) {
  Rows rows(static_cast<size_t>(table.num_rows()));
  for (int64_t c = 0; c < table.num_columns(); ++c) {
    const tdp::Column& col = table.column(c);
    if (col.encoding() == tdp::Encoding::kDictionary) {
      const std::vector<std::string> strings = col.DecodeStrings();
      for (size_t r = 0; r < rows.size(); ++r) rows[r].push_back(strings[r]);
      continue;
    }
    const tdp::Tensor data = col.DecodeValues().To(tdp::Device::kCpu);
    if (data.dim() != 1) {
      throw std::runtime_error("TableRows: tensor-valued column");
    }
    switch (data.dtype()) {
      case tdp::DType::kInt64: AppendColumn<int64_t>(data, rows); break;
      case tdp::DType::kInt32: AppendColumn<int32_t>(data, rows); break;
      case tdp::DType::kUInt8: AppendColumn<uint8_t>(data, rows); break;
      case tdp::DType::kBool: AppendColumn<bool>(data, rows); break;
      case tdp::DType::kFloat32: AppendColumn<float>(data, rows); break;
      case tdp::DType::kFloat64: AppendColumn<double>(data, rows); break;
    }
  }
  return rows;
}

Rows SortedRows(Rows rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

uint64_t ResultChecksum(const tdp::Table& table) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  for (int64_t c = 0; c < table.num_columns(); ++c) {
    const tdp::Column& col = table.column(c);
    const tdp::Tensor data = col.data().Contiguous();
    const auto dtype = static_cast<int>(data.dtype());
    mix(&dtype, sizeof(dtype));
    const auto bytes =
        static_cast<size_t>(data.numel() * tdp::DTypeSize(data.dtype()));
    switch (data.dtype()) {
      case tdp::DType::kInt64: mix(data.data<int64_t>(), bytes); break;
      case tdp::DType::kInt32: mix(data.data<int32_t>(), bytes); break;
      case tdp::DType::kUInt8: mix(data.data<uint8_t>(), bytes); break;
      case tdp::DType::kBool: mix(data.data<bool>(), bytes); break;
      case tdp::DType::kFloat32: mix(data.data<float>(), bytes); break;
      case tdp::DType::kFloat64: mix(data.data<double>(), bytes); break;
    }
    for (const std::string& s : col.dictionary()) mix(s.data(), s.size() + 1);
  }
  return h;
}

std::string CompareRows(const Rows& expected, const Rows& got) {
  auto render = [](const Row& row) {
    std::string s = "(";
    for (size_t i = 0; i < row.size(); ++i) s += (i ? ", " : "") + row[i];
    return s + ")";
  };
  if (expected.size() != got.size()) {
    return "expected " + std::to_string(expected.size()) + " rows, got " +
           std::to_string(got.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != got[i]) {
      return "row " + std::to_string(i) + ": expected " + render(expected[i]) +
             ", got " + render(got[i]);
    }
  }
  return "";
}

// ---- analytics ----------------------------------------------------------------

namespace {

struct CountSum {
  int64_t n = 0;
  int64_t q = 0;
};

template <typename Key, typename KeyFn>
std::unordered_map<Key, CountSum> GroupCountSum(const StarSchema& s,
                                                KeyFn key) {
  std::unordered_map<Key, CountSum> groups;
  for (size_t i = 0; i < s.id.size(); ++i) {
    CountSum& g = groups[key(i)];
    ++g.n;
    g.q += s.qty[i];
  }
  return groups;
}

}  // namespace

bool AnalyticsOrdered(AnalyticsClass c) { return c == AnalyticsClass::kSortLimit; }

Rows AnalyticsExpected(const StarSchema& s, AnalyticsClass c,
                       size_t statement) {
  Rows rows;
  switch (c) {
    case AnalyticsClass::kGroupBy:
      if (statement == 0) {
        for (const auto& [k, g] :
             GroupCountSum<int64_t>(s, [&](size_t i) { return s.d1[i]; })) {
          rows.push_back({Cell(k), Cell(g.n), Cell(g.q)});
        }
      } else {
        std::vector<CountSum> g(s.categories.size());
        std::vector<double> maxp(s.categories.size(), -INFINITY);
        for (size_t i = 0; i < s.id.size(); ++i) {
          const auto code = static_cast<size_t>(s.cat[i]);
          ++g[code].n;
          g[code].q += s.qty[i];
          maxp[code] = std::max(maxp[code], s.price[i]);
        }
        for (size_t code = 0; code < g.size(); ++code) {
          if (g[code].n == 0) continue;
          rows.push_back({s.categories[code], Cell(g[code].n),
                          Cell(g[code].q), Cell(maxp[code])});
        }
      }
      break;
    case AnalyticsClass::kGroupByWide:
      for (const auto& [k, g] :
           GroupCountSum<int64_t>(s, [&](size_t i) { return s.hk[i]; })) {
        rows.push_back({Cell(k), Cell(g.n), Cell(g.q)});
      }
      break;
    case AnalyticsClass::kJoinAgg:
      if (statement == 0) {
        for (const auto& [region, g] : GroupCountSum<int64_t>(s, [&](size_t i) {
               return s.dim1_region[static_cast<size_t>(s.d1[i])];
             })) {
          rows.push_back({s.regions[static_cast<size_t>(region)], Cell(g.n),
                          Cell(g.q)});
        }
      } else {
        for (const auto& [segment, g] : GroupCountSum<int64_t>(s, [&](size_t i) {
               return s.dim2_segment[static_cast<size_t>(s.d2[i])];
             })) {
          rows.push_back({Cell(segment), Cell(g.q)});
        }
      }
      break;
    case AnalyticsClass::kDistinct: {
      std::unordered_set<int64_t> keys(s.hk.begin(), s.hk.end());
      rows.push_back({Cell(static_cast<int64_t>(keys.size()))});
      break;
    }
    case AnalyticsClass::kSortLimit: {
      std::vector<size_t> idx(s.id.size());
      for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      const size_t k = std::min<size_t>(100, idx.size());
      std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k),
                        idx.end(), [&](size_t a, size_t b) {
                          return s.price[a] != s.price[b]
                                     ? s.price[a] > s.price[b]
                                     : s.id[a] < s.id[b];
                        });
      for (size_t i = 0; i < k; ++i) {
        rows.push_back({Cell(s.id[idx[i]]), Cell(s.price[idx[i]])});
      }
      return rows;  // ordered
    }
    case AnalyticsClass::kFilterExpr: {
      int64_t n = 0, sum = 0;
      for (size_t i = 0; i < s.id.size(); ++i) {
        if (s.d1[i] < 64 || s.qty[i] >= s.d1[i]) {
          ++n;
          if (s.qty[i] > s.d1[i]) sum += s.qty[i];
        }
      }
      rows.push_back({Cell(n), Cell(sum)});
      break;
    }
    case AnalyticsClass::kSpillAgg: {
      std::unordered_map<int64_t, CountSum> groups;
      for (size_t i = 0; i < s.id.size(); ++i) {
        if (s.d1[i] >= 128) continue;
        CountSum& g = groups[s.d2[i]];
        ++g.n;
        g.q += s.qty[i];
      }
      for (const auto& [k, g] : groups) {
        rows.push_back({Cell(k), Cell(g.n), Cell(g.q)});
      }
      break;
    }
  }
  return SortedRows(std::move(rows));
}

// ---- multimodal ---------------------------------------------------------------

std::vector<int64_t> ExactTopK(const Embeddings& e, int64_t dim,
                               const std::vector<float>& query,
                               int64_t excluded_grp, int64_t k) {
  std::vector<std::pair<double, int64_t>> scored;
  const auto rows = static_cast<int64_t>(e.grp.size());
  for (int64_t r = 0; r < rows; ++r) {
    if (e.grp[static_cast<size_t>(r)] == excluded_grp) continue;
    double dot = 0;
    const float* v = &e.vectors[static_cast<size_t>(r * dim)];
    for (int64_t j = 0; j < dim; ++j) {
      dot += static_cast<double>(v[j]) * query[static_cast<size_t>(j)];
    }
    scored.emplace_back(dot, r);
  }
  const size_t take = std::min<size_t>(static_cast<size_t>(k), scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(take),
                    scored.end(), [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  std::vector<int64_t> ids;
  for (size_t i = 0; i < take; ++i) ids.push_back(scored[i].second);
  return ids;
}

double RecallAt(const std::vector<int64_t>& got,
                const std::vector<int64_t>& exact) {
  if (exact.empty()) return 1.0;
  const std::unordered_set<int64_t> truth(exact.begin(), exact.end());
  int64_t hits = 0;
  for (int64_t id : got) hits += truth.count(id) ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(exact.size());
}

std::pair<int64_t, int64_t> CountBounds(const std::vector<float>& scores,
                                        double threshold, double tolerance) {
  int64_t sure = 0, maybe = 0;
  for (float s : scores) {
    if (s > threshold + tolerance) {
      ++sure;
    } else if (s >= threshold - tolerance) {
      ++maybe;
    }
  }
  return {sure, sure + maybe};
}

// ---- training probe ------------------------------------------------------------

double Mse(const std::vector<double>& predicted,
           const std::vector<double>& target) {
  if (predicted.size() != target.size() || target.empty()) {
    throw std::invalid_argument("Mse: size mismatch");
  }
  double sum = 0;
  for (size_t i = 0; i < target.size(); ++i) {
    const double d = predicted[i] - target[i];
    sum += d * d;
  }
  return sum / static_cast<double>(target.size());
}

}  // namespace perfbench
