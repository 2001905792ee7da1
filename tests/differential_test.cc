// Differential testing: TDP's tensor query processor and BaselineDB (an
// independent row-interpreted engine sharing only the parser) must agree
// on randomized relational queries. This is the main correctness oracle
// for the compiled tensor operators.
//
// The top-k section at the bottom is a second differential axis: the
// IndexTopK plan (vector index) against the exact Sort+Limit plan over
// the same data, swept across random (n, d, k, num_lists) shapes — at
// full probe count the two must be BIT-identical, and at a quarter of the
// lists recall@k must stay high on clustered data.
//
// The ORDER BY section at the end compares rows in result order, not as
// multisets: ORDER BY ... LIMIT k [OFFSET o] over adversarial keys must
// return BaselineDb's rows in BaselineDb's order, and exactly the slice
// of the same query's full ORDER BY, on both devices, with and without a
// memory budget, at 1 and 4 threads.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <set>
#include <sstream>

#include "src/baseline/baseline_db.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"
#include "tests/vector_test_util.h"

namespace tdp {
namespace {

struct Engines {
  Session tdp;
  baseline::BaselineDb base;
};

// Registers the same random table in both engines.
void MakeRandomTable(Engines& engines, Rng& rng, int64_t rows) {
  std::vector<int64_t> ints;
  std::vector<double> floats;
  std::vector<std::string> strings;
  std::vector<std::string> vocab = {"red", "green", "blue", "cyan", "gold"};
  baseline::BaselineTable bt;
  bt.column_names = {"k", "v", "tag"};
  for (int64_t i = 0; i < rows; ++i) {
    ints.push_back(rng.UniformInt(0, 9));
    // One-decimal values avoid float32-vs-double aggregation divergence.
    floats.push_back(static_cast<double>(rng.UniformInt(-50, 50)) / 2.0);
    strings.push_back(vocab[static_cast<size_t>(rng.UniformInt(0, 4))]);
    bt.rows.push_back({ints.back(), floats.back(), strings.back()});
  }
  auto table = TableBuilder("t")
                   .AddInt64("k", ints)
                   .AddFloat64("v", floats)
                   .AddStrings("tag", strings)
                   .Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(engines.tdp.RegisterTable("t", table.value()).ok());
  ASSERT_TRUE(engines.base.RegisterTable("t", std::move(bt)).ok());
}

std::string NormalizeCell(double v) {
  // Round to 1e-4 so float32 vs double arithmetic agrees textually.
  std::ostringstream os;
  os.precision(10);
  os << std::round(v * 1e4) / 1e4;
  return os.str();
}

// Renders both engines' results as row strings: sorted multisets by
// default, in result order when `sorted` is false.
std::vector<std::string> TdpRows(const Table& table, bool sorted = true) {
  std::vector<std::string> rows;
  // Strings and int64 cells render exactly (no trip through a double).
  std::vector<std::vector<std::string>> decoded(
      static_cast<size_t>(table.num_columns()));
  for (int64_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    if (col.encoding() == Encoding::kDictionary) {
      decoded[static_cast<size_t>(c)] = col.DecodeStrings();
    } else if (col.data().dtype() == DType::kInt64) {
      for (int64_t v : col.data().ToVector<int64_t>()) {
        decoded[static_cast<size_t>(c)].push_back(std::to_string(v));
      }
    }
  }
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (int64_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      if (!decoded[static_cast<size_t>(c)].empty()) {
        row += decoded[static_cast<size_t>(c)][static_cast<size_t>(r)];
      } else {
        row += NormalizeCell(col.data().At({r}));
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  if (sorted) std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> BaselineRows(const baseline::BaselineTable& table,
                                      bool sorted = true) {
  std::vector<std::string> rows;
  for (const auto& in_row : table.rows) {
    std::string row;
    for (const auto& v : in_row) {
      if (std::holds_alternative<std::string>(v)) {
        row += std::get<std::string>(v);
      } else if (std::holds_alternative<int64_t>(v)) {
        row += std::to_string(std::get<int64_t>(v));
      } else if (std::holds_alternative<bool>(v)) {
        row += NormalizeCell(std::get<bool>(v) ? 1 : 0);
      } else {
        row += NormalizeCell(std::get<double>(v));
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  if (sorted) std::sort(rows.begin(), rows.end());
  return rows;
}

// Runs `sql` on both engines (TDP on `device` under `run`) and expects the
// same rows; returns TDP's row count (-1 on failure).
int64_t ExpectAgree(Engines& engines, const std::string& sql,
                    Device device = Device::kAccel,
                    const exec::RunOptions& run = {}) {
  QueryOptions options;
  options.device = device;
  auto tdp_result = engines.tdp.Sql(sql, options, run);
  auto base_result = engines.base.Sql(sql);
  EXPECT_TRUE(tdp_result.ok()) << sql << "\n"
                               << tdp_result.status().ToString();
  EXPECT_TRUE(base_result.ok()) << sql << "\n"
                                << base_result.status().ToString();
  if (!tdp_result.ok() || !base_result.ok()) return -1;
  EXPECT_EQ(TdpRows(**tdp_result), BaselineRows(*base_result)) << sql;
  return (*tdp_result)->num_rows();
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, RandomQueriesAgree) {
  Rng rng(GetParam());
  Engines engines;
  MakeRandomTable(engines, rng, 40 + GetParam() * 7 % 60);

  const int64_t a = rng.UniformInt(0, 9);
  const int64_t b = rng.UniformInt(-20, 20);
  const std::string tag =
      std::vector<std::string>{"red", "green", "blue",
                               "missing"}[rng.UniformInt(0, 3)];

  ExpectAgree(engines, "SELECT k, v FROM t WHERE k > " + std::to_string(a));
  ExpectAgree(engines, "SELECT k + 1, v * 2 FROM t WHERE v <= " +
                           std::to_string(b));
  ExpectAgree(engines, "SELECT tag FROM t WHERE tag = '" + tag + "'");
  ExpectAgree(engines, "SELECT tag FROM t WHERE tag >= '" + tag + "'");
  ExpectAgree(engines,
              "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k ORDER BY k");
  ExpectAgree(engines,
              "SELECT tag, AVG(v), MIN(v), MAX(v) FROM t GROUP BY tag "
              "ORDER BY tag");
  ExpectAgree(engines,
              "SELECT tag, COUNT(*) FROM t WHERE k BETWEEN 2 AND 7 GROUP BY "
              "tag HAVING COUNT(*) > 1 ORDER BY tag");
  ExpectAgree(engines, "SELECT DISTINCT tag FROM t");
  ExpectAgree(engines, "SELECT k, v FROM t ORDER BY v DESC, k ASC LIMIT 5");
  ExpectAgree(engines,
              "SELECT COUNT(DISTINCT k), COUNT(*) FROM t WHERE v > 0");
  ExpectAgree(engines,
              "SELECT x FROM (SELECT k + 1 AS x FROM t WHERE v > 0) s "
              "WHERE x < 8 ORDER BY x");
  ExpectAgree(engines,
              "SELECT CASE WHEN v > 0 THEN 1 ELSE 0 END AS pos, COUNT(*) "
              "FROM t GROUP BY CASE WHEN v > 0 THEN 1 ELSE 0 END ORDER BY "
              "pos");
  ExpectAgree(engines, "SELECT k FROM t WHERE tag IN ('red', 'blue') "
                       "ORDER BY k LIMIT 10");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---- Index top-k vs. brute-force differential -------------------------------

namespace {

using testutil::ExpectTablesBitIdentical;
using testutil::MakeClusteredUnitVectors;

}  // namespace

class TopKDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Seeded generator of top-k query shapes: random n, d, k, list count, and
// probe budgets. The invariant under test is the acceptance criterion of
// the index subsystem: with num_probes == num_lists the IndexTopK plan is
// bit-identical to the brute-force Sort+Limit plan — same rows, same
// order, same bytes, ties included.
TEST_P(TopKDifferentialTest, FullProbeIndexPlanIsBitIdenticalToBrute) {
  Rng rng(GetParam() * 7919 + 101);
  const int64_t n = rng.UniformInt(30, 400);
  const int64_t dim = std::vector<int64_t>{4, 8, 16}[rng.UniformInt(0, 2)];
  const int64_t clusters = rng.UniformInt(2, 10);
  const int64_t num_lists = rng.UniformInt(2, 16);
  const int64_t k = rng.UniformInt(1, n + 5);  // may exceed the table

  Session session;
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  auto table = TableBuilder("vecs")
                   .AddInt64("id", ids)
                   .AddTensor("emb",
                              MakeClusteredUnitVectors(n, dim, clusters, rng))
                   .Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session.RegisterTable("vecs", table.value()).ok());

  const std::string sql =
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT " +
      std::to_string(k);
  // Pin the brute plan before the index exists.
  auto brute = session.Query(sql);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  ASSERT_EQ((*brute)->Explain().find("IndexTopK"), std::string::npos);

  index::IvfIndex::Options options;
  options.num_lists = num_lists;
  ASSERT_TRUE(session.CreateVectorIndex("vecs", "emb", options).ok());
  auto indexed = session.Query(sql);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_NE((*indexed)->Explain().find("IndexTopK"), std::string::npos);

  for (int q = 0; q < 4; ++q) {
    const Tensor query =
        L2Normalize(RandNormal({1, dim}, 0, 1, rng), 1).Squeeze(0)
            .Contiguous();
    exec::RunOptions brute_run;
    brute_run.params = {exec::ScalarValue::FromTensor(query)};
    auto expected = (*brute)->Run(brute_run);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    // Default (0 = every cell) and explicit full/over-clamped budgets.
    for (int64_t probes :
         {int64_t{0}, num_lists, num_lists + 7}) {
      exec::RunOptions run;
      run.params = {exec::ScalarValue::FromTensor(query)};
      run.vector_search.num_probes = probes;
      auto got = (*indexed)->Run(run);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectTablesBitIdentical(
          **expected, **got,
          "seed=" + std::to_string(GetParam()) + " n=" + std::to_string(n) +
              " d=" + std::to_string(dim) + " k=" + std::to_string(k) +
              " lists=" + std::to_string(num_lists) +
              " probes=" + std::to_string(probes));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

// Recall at a quarter of the lists on clustered data: the approximate
// regime the paper's probe/recall trade-off targets.
TEST(TopKDifferentialTest2, RecallAtQuarterProbesExceedsPointNine) {
  Rng rng(4242);
  const int64_t n = 600, dim = 16, num_lists = 12, k = 10;
  Session session;
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  const Tensor emb = MakeClusteredUnitVectors(n, dim, num_lists, rng);
  auto table =
      TableBuilder("vecs").AddInt64("id", ids).AddTensor("emb", emb).Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session.RegisterTable("vecs", table.value()).ok());
  index::IvfIndex::Options options;
  options.num_lists = num_lists;
  ASSERT_TRUE(session.CreateVectorIndex("vecs", "emb", options).ok());

  auto query = session.Prepare(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 10");
  ASSERT_TRUE(query.ok());
  double recall = 0;
  const int kQueries = 12;
  for (int q = 0; q < kQueries; ++q) {
    // Queries near data points, as in serving: perturb a random row.
    const int64_t anchor = rng.UniformInt(0, n - 1);
    const Tensor qvec =
        L2Normalize(
            Add(Slice(emb, 0, anchor, 1), RandNormal({1, dim}, 0, 0.02, rng)),
            1)
            .Squeeze(0)
            .Contiguous();
    exec::RunOptions exact;
    exact.params = {exec::ScalarValue::FromTensor(qvec)};
    auto truth = (*query)->Run(exact);
    ASSERT_TRUE(truth.ok());
    std::set<int64_t> exact_ids;
    for (int64_t i = 0; i < k; ++i) {
      exact_ids.insert(
          static_cast<int64_t>((*truth)->column(0).data().At({i})));
    }
    exec::RunOptions approx;
    approx.params = {exec::ScalarValue::FromTensor(qvec)};
    approx.vector_search.num_probes = num_lists / 4;
    auto got = (*query)->Run(approx);
    ASSERT_TRUE(got.ok());
    for (int64_t i = 0; i < (*got)->num_rows(); ++i) {
      if (exact_ids.contains(
              static_cast<int64_t>((*got)->column(0).data().At({i})))) {
        recall += 1;
      }
    }
  }
  recall /= static_cast<double>(kQueries * k);
  EXPECT_GE(recall, 0.9);
}

TEST(DifferentialJoinTest, JoinAgrees) {
  Rng rng(99);
  Engines engines;
  MakeRandomTable(engines, rng, 30);
  // Second table keyed by the same small int domain.
  std::vector<int64_t> keys;
  std::vector<double> weights;
  baseline::BaselineTable bt;
  bt.column_names = {"k2", "w"};
  for (int64_t i = 0; i < 12; ++i) {
    keys.push_back(rng.UniformInt(0, 9));
    weights.push_back(static_cast<double>(rng.UniformInt(0, 100)));
    bt.rows.push_back({keys.back(), weights.back()});
  }
  auto table = TableBuilder("u")
                   .AddInt64("k2", keys)
                   .AddFloat64("w", weights)
                   .Build();
  ASSERT_TRUE(engines.tdp.RegisterTable("u", table.value()).ok());
  ASSERT_TRUE(engines.base.RegisterTable("u", std::move(bt)).ok());

  ExpectAgree(engines,
              "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k2 WHERE u.w > 20 "
              "ORDER BY t.k, u.w");
  ExpectAgree(engines,
              "SELECT t.tag, COUNT(*) FROM t JOIN u ON t.k = u.k2 GROUP BY "
              "t.tag ORDER BY t.tag");
}


// ---- Exact keys -------------------------------------------------------------

constexpr int64_t kTwo53 = int64_t{1} << 53;

// Registers `table` in both engines, built column by column from the same
// values.
struct TwinTable {
  TableBuilder builder;
  baseline::BaselineTable base;

  explicit TwinTable(const std::string& name) : builder(name) {}

  TwinTable& Ints(const std::string& name, const std::vector<int64_t>& v) {
    builder.AddInt64(name, v);
    return Add(name, std::vector<baseline::Value>(v.begin(), v.end()));
  }
  TwinTable& Floats(const std::string& name, const std::vector<double>& v) {
    builder.AddFloat64(name, v);
    return Add(name, std::vector<baseline::Value>(v.begin(), v.end()));
  }
  TwinTable& Strings(const std::string& name,
                     const std::vector<std::string>& v) {
    builder.AddStrings(name, v);
    return Add(name, std::vector<baseline::Value>(v.begin(), v.end()));
  }
  TwinTable& Add(const std::string& name,
                 const std::vector<baseline::Value>& cells) {
    base.column_names.push_back(name);
    base.rows.resize(cells.size());
    for (size_t r = 0; r < cells.size(); ++r) base.rows[r].push_back(cells[r]);
    return *this;
  }
  void Register(Engines& engines, const std::string& name) {
    auto table = std::move(builder).Build();
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE(engines.tdp.RegisterTable(name, table.value()).ok());
    ASSERT_TRUE(engines.base.RegisterTable(name, std::move(base)).ok());
  }
};

// Every execution path a keyed query can take: both devices, in memory
// and with a 1-byte budget that forces the grace join, the paged
// aggregation and the external sort.
struct KeyPath {
  Device device;
  int64_t budget;
  std::string label;
};
const std::vector<KeyPath>& KeyPaths() {
  static const std::vector<KeyPath> paths = {
      {Device::kCpu, 0, "cpu"},
      {Device::kAccel, 0, "accel"},
      {Device::kCpu, 1, "cpu budget=1"},
      {Device::kAccel, 1, "accel budget=1"},
  };
  return paths;
}

exec::RunOptions BudgetRun(int64_t budget) {
  exec::RunOptions run;
  run.memory_budget_bytes = budget;
  return run;
}

// Full-width int64 keys one apart at 2^53, where a double cannot tell
// them apart: a(k) = {2^53, 2^53+1} joined with b(k) = {2^53}.
TEST(ExactKeyTest, TwoPow53NeighboursOnEveryPath) {
  Engines engines;
  TwinTable("a").Ints("k", {kTwo53, kTwo53 + 1}).Register(engines, "a");
  TwinTable("b").Ints("k", {kTwo53}).Register(engines, "b");
  for (const KeyPath& path : KeyPaths()) {
    SCOPED_TRACE(path.label);
    const exec::RunOptions run = BudgetRun(path.budget);
    EXPECT_EQ(ExpectAgree(engines, "SELECT a.k FROM a JOIN b ON a.k = b.k",
                          path.device, run),
              1);
    EXPECT_EQ(ExpectAgree(engines, "SELECT k, COUNT(*) FROM a GROUP BY k",
                          path.device, run),
              2);
    EXPECT_EQ(ExpectAgree(engines,
                          "SELECT COUNT(DISTINCT k) AS n FROM a "
                          "WHERE k > 0 AND k <> 1",
                          path.device, run),
              1);
    auto distinct = engines.tdp.Sql("SELECT COUNT(DISTINCT k) FROM a",
                                    QueryOptions{path.device}, run);
    ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
    EXPECT_EQ((*distinct)->column(0).data().At({0}), 2.0);
  }
}

// Strings join by value even when the two tables' dictionaries differ
// (different sizes, different codes for the same string).
TEST(ExactKeyTest, StringJoinAcrossDictionaries) {
  Engines engines;
  TwinTable("l")
      .Strings("s", {"fig", "apple", "kiwi", "fig", "plum"})
      .Ints("i", {0, 1, 2, 3, 4})
      .Register(engines, "l");
  TwinTable("r")
      .Strings("s", {"pear", "fig", "apple", "apple", "banana", "cherry"})
      .Ints("j", {10, 11, 12, 13, 14, 15})
      .Register(engines, "r");
  for (const KeyPath& path : KeyPaths()) {
    SCOPED_TRACE(path.label);
    EXPECT_EQ(ExpectAgree(engines,
                          "SELECT l.i, r.j, l.s FROM l JOIN r ON l.s = r.s",
                          path.device, BudgetRun(path.budget)),
              4);
  }
}

// SQL `=`: NaN equals nothing (itself included), -0 equals +0.
TEST(ExactKeyTest, NanAndNegativeZeroJoinKeys) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Engines engines;
  TwinTable("l")
      .Floats("x", {nan, -0.0, 0.0, 1.5, nan})
      .Ints("i", {0, 1, 2, 3, 4})
      .Register(engines, "l");
  TwinTable("r").Floats("x", {0.0, nan, 1.5, -0.0}).Ints("j", {0, 1, 2, 3})
      .Register(engines, "r");
  for (const KeyPath& path : KeyPaths()) {
    SCOPED_TRACE(path.label);
    // {-0, +0} x {+0, -0} = 4 pairs, plus 1.5 = 1.5.
    EXPECT_EQ(ExpectAgree(engines,
                          "SELECT l.i, r.j FROM l JOIN r ON l.x = r.x",
                          path.device, BudgetRun(path.budget)),
              5);
  }
}

// Int against float keys compare exactly: 1 = 1.0 and 2^53 = 2^53.0, but
// 2^53+1 matches no double and 2.5 matches no int.
TEST(ExactKeyTest, IntAgainstFloatJoinKeys) {
  Engines engines;
  TwinTable("l").Ints("k", {1, 2, kTwo53 + 1, kTwo53, -7})
      .Register(engines, "l");
  TwinTable("r")
      .Floats("x", {1.0, 2.5, 9007199254740992.0, -7.0, 1e300})
      .Register(engines, "r");
  for (const KeyPath& path : KeyPaths()) {
    SCOPED_TRACE(path.label);
    const exec::RunOptions run = BudgetRun(path.budget);
    EXPECT_EQ(ExpectAgree(engines,
                          "SELECT l.k, r.x FROM l JOIN r ON l.k = r.x",
                          path.device, run),
              3);
    EXPECT_EQ(ExpectAgree(engines,
                          "SELECT l.k, r.x FROM r JOIN l ON r.x = l.k",
                          path.device, run),
              3);
  }
}

// WHERE compares an int64 column with float constants exactly: through a
// float cast, 2^24 + 1 rounds onto 2^24 (float32), 2^53 + 1 onto 2^53.
TEST(ExactKeyTest, IntAgainstFloatWhereConstants) {
  Engines engines;
  constexpr int64_t kTwo24 = int64_t{1} << 24;
  TwinTable("l")
      .Ints("k", {kTwo53, kTwo53 + 1, kTwo24, kTwo24 + 1, -7,
                  std::numeric_limits<int64_t>::max(),
                  std::numeric_limits<int64_t>::min()})
      .Register(engines, "l");
  const std::vector<std::pair<std::string, int64_t>> cases = {
      {"k = 9007199254740992.0", 1},
      {"k > 9007199254740992.0", 2},
      {"k = 16777217.0", 1},
      {"k < 16777217.5", 4},
      {"16777216.5 >= k", 3},
      {"k <= -7.5", 1},
      {"k <> -7.0", 6},
      {"k = 2.5", 0},
      {"k <> 2.5", 7},
      {"k < 9223372036854775808.0", 7},
      {"k = 9223372036854775808.0", 0},
      {"k > -9223372036854775808.0", 6},
  };
  for (const KeyPath& path : KeyPaths()) {
    SCOPED_TRACE(path.label);
    const exec::RunOptions run = BudgetRun(path.budget);
    for (const auto& [predicate, rows] : cases) {
      EXPECT_EQ(ExpectAgree(engines, "SELECT k FROM l WHERE " + predicate,
                            path.device, run),
                rows)
          << predicate;
    }
  }
}

// ---- Adversarial key generator ----------------------------------------------

// Draws keys from the edges of every key type: 2^53 neighbours and the
// int64 extremes, -0/+0/NaN, and strings sharing a long common prefix.
int64_t AdversarialInt(Rng& rng) {
  static const std::vector<int64_t> edges = {
      kTwo53 - 1, kTwo53, kTwo53 + 1, kTwo53 + 2, -kTwo53 - 1,
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::max() - 1, 0, 1};
  return edges[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
}

double AdversarialFloat(Rng& rng) {
  static const std::vector<double> edges = {
      -0.0, 0.0, std::numeric_limits<double>::quiet_NaN(), 1.0, -1.0,
      9007199254740992.0, 0.5};
  return edges[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
}

std::string AdversarialString(Rng& rng) {
  static const std::string prefix(120, 'p');
  static const std::vector<std::string> tails = {"", "a", "b", "ab", "aa",
                                                 "a\x01"};
  const int64_t last = static_cast<int64_t>(tails.size()) - 1;
  return prefix + tails[static_cast<size_t>(rng.UniformInt(0, last))];
}

class AdversarialKeyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdversarialKeyTest, KeyedQueriesAgree) {
  Rng rng(GetParam() * 7717 + 5);
  Engines engines;
  for (const std::string name : {"p", "q"}) {
    const int64_t rows = rng.UniformInt(20, 60);
    std::vector<int64_t> hk;
    std::vector<double> f;
    std::vector<std::string> s;
    for (int64_t i = 0; i < rows; ++i) {
      hk.push_back(AdversarialInt(rng));
      f.push_back(AdversarialFloat(rng));
      s.push_back(AdversarialString(rng));
    }
    TwinTable(name).Ints("hk", hk).Floats("f", f).Strings("s", s)
        .Register(engines, name);
  }
  const std::vector<std::string> queries = {
      "SELECT hk, COUNT(*) FROM p GROUP BY hk",
      "SELECT s, COUNT(*) FROM p GROUP BY s",
      "SELECT f, COUNT(*) FROM p GROUP BY f",
      "SELECT hk, s, COUNT(*) FROM p GROUP BY hk, s",
      "SELECT COUNT(DISTINCT hk), COUNT(DISTINCT f), COUNT(DISTINCT s) FROM p",
      "SELECT DISTINCT hk, f FROM p",
      "SELECT p.hk, q.s FROM p JOIN q ON p.hk = q.hk",
      "SELECT p.hk, q.hk AS qk FROM p JOIN q ON p.s = q.s AND p.hk = q.hk",
      "SELECT p.f, q.f AS qf FROM p JOIN q ON p.f = q.f",
      "SELECT p.hk, q.f FROM p JOIN q ON p.hk = q.f",
      "SELECT hk FROM p WHERE hk = 9007199254740993",
      "SELECT hk FROM p WHERE hk <> 9007199254740992 AND "
      "hk >= 9007199254740991",
      "SELECT s FROM p WHERE f = f",
  };
  for (const KeyPath& path : KeyPaths()) {
    for (const std::string& sql : queries) {
      SCOPED_TRACE(path.label + ": " + sql);
      ExpectAgree(engines, sql, path.device, BudgetRun(path.budget));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialKeyTest,
                         ::testing::Range<uint64_t>(1, 7));

// ---- ORDER BY and top-k -----------------------------------------------------

// Every path an ORDER BY can take: each key path at 1 and 4 threads (the
// top-k runs on the pool).
struct SortPath {
  KeyPath key;
  int threads;
  std::string label() const {
    return key.label + " threads=" + std::to_string(threads);
  }
};
std::vector<SortPath> SortPaths() {
  std::vector<SortPath> paths;
  for (const KeyPath& key : KeyPaths()) {
    for (int threads : {1, 4}) paths.push_back({key, threads});
  }
  return paths;
}

// `sql` on TDP along `path`, rows in result order.
std::vector<std::string> OrderedTdpRows(Engines& engines,
                                        const std::string& sql,
                                        const SortPath& path) {
  ScopedNumThreads threads(path.threads);
  auto result = engines.tdp.Sql(sql, QueryOptions{path.key.device},
                                BudgetRun(path.key.budget));
  EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
  if (!result.ok()) return {};
  return TdpRows(**result, /*sorted=*/false);
}

std::vector<std::string> OrderedBaselineRows(Engines& engines,
                                             const std::string& sql) {
  auto result = engines.base.Sql(sql);
  EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
  if (!result.ok()) return {};
  return BaselineRows(*result, /*sorted=*/false);
}

// A boolean ORDER BY key sorts false < true on every path.
TEST(OrderByTest, BoolKeyOnEveryPath) {
  Engines engines;
  TwinTable("t").Ints("id", {0, 1, 2, 3, 4, 5}).Ints("q", {70, 10, 51, 50,
                                                         90, 0})
      .Register(engines, "t");
  const std::string sql = "SELECT id FROM t ORDER BY q > 50, id";
  const std::vector<std::string> expected = OrderedBaselineRows(engines, sql);
  EXPECT_EQ(expected, (std::vector<std::string>{"1|", "3|", "5|", "0|", "2|",
                                                "4|"}));
  for (const SortPath& path : SortPaths()) {
    EXPECT_EQ(OrderedTdpRows(engines, sql, path), expected) << path.label();
  }
}

class TopKQueryDifferentialTest : public ::testing::TestWithParam<int64_t> {};

// ORDER BY ... LIMIT k [OFFSET o] over adversarial keys (2^53 neighbours,
// int64 extremes, NaN/-0/+0 floats with heavy ties, long-prefix strings,
// a bool): on every path TDP returns the oracle's rows in the oracle's
// order, and exactly the slice of its own full ORDER BY.
TEST_P(TopKQueryDifferentialTest, AgreesWithBaselineAndTheSlicedFullSort) {
  const int64_t n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 31 + 7);
  std::vector<int64_t> id, hk, q;
  std::vector<double> f;
  std::vector<std::string> s;
  for (int64_t i = 0; i < n; ++i) {
    id.push_back(i);
    hk.push_back(AdversarialInt(rng));
    f.push_back(AdversarialFloat(rng));
    s.push_back(AdversarialString(rng));
    q.push_back(rng.UniformInt(0, 100));
  }
  Engines engines;
  TwinTable("t").Ints("id", id).Ints("hk", hk).Floats("f", f).Strings("s", s)
      .Ints("q", q).Register(engines, "t");

  const std::vector<std::string> orders = {
      "f DESC", "hk", "s DESC, hk", "q > 50 DESC, f, hk DESC",
      "hk DESC, f", "s, f DESC, q > 50"};
  std::vector<int64_t> ks = {0, 1, 7, n - 1, n, n + 5};
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  ks.erase(std::remove(ks.begin(), ks.end(), -1), ks.end());

  for (const std::string& order : orders) {
    const std::string full_sql = "SELECT id, hk, f, s FROM t ORDER BY " + order;
    const std::vector<std::string> full = OrderedBaselineRows(engines, full_sql);
    ASSERT_EQ(static_cast<int64_t>(full.size()), n) << full_sql;
    for (const int64_t k : ks) {
      for (const int64_t offset : {int64_t{0}, int64_t{3}}) {
        const std::string sql = full_sql + " LIMIT " + std::to_string(k) +
                                (offset > 0 ? " OFFSET " +
                                                  std::to_string(offset)
                                            : "");
        const int64_t lo = std::min(offset, n);
        const int64_t hi = std::min(offset + k, n);
        const std::vector<std::string> slice(full.begin() + lo,
                                             full.begin() + hi);
        EXPECT_EQ(OrderedBaselineRows(engines, sql), slice) << sql;
        for (const SortPath& path : SortPaths()) {
          SCOPED_TRACE(path.label() + ": " + sql);
          EXPECT_EQ(OrderedTdpRows(engines, sql, path), slice);
        }
      }
    }
    for (const SortPath& path : SortPaths()) {
      EXPECT_EQ(OrderedTdpRows(engines, full_sql, path), full)
          << path.label() << ": " << full_sql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, TopKQueryDifferentialTest,
                         ::testing::Values<int64_t>(0, 1, 5000));

}  // namespace
}  // namespace tdp
