// The larger-than-memory differential harness (this PR's tentpole proof).
//
// A seeded driver builds tables whose columns exercise every key-code
// equivalence the spill paths must preserve — shuffled duplicate ints,
// doubles with NaN / -0 / +0 / dense duplicates, low-cardinality strings —
// then runs a fixed query battery (multi-key ORDER BY, fused-limit sort,
// hash joins, GROUP BY with every aggregate kind plus COUNT(DISTINCT),
// join+aggregate+sort compositions) under a budget sweep:
//
//     {unlimited, tight, pathological-1-byte}
//   x {morsels 7 / 4096 / default / whole relation}
//
// Every budgeted result must be BYTE-identical (NaN payloads and -0 signs
// included — stricter than value equality) to the unlimited in-memory
// reference. A 1-byte budget forces EVERY breaker through its external
// path, so sort runs, grace-join partitions, and aggregation pages all
// degenerate to their smallest shapes; tight budgets exercise the mixed
// regime where some breakers spill and others stay resident.
//
// The same suite pins the spill-file lifetime contract: after every run —
// completed, drained through a cursor, cancelled mid-flight, or abandoned
// by an early cursor close — `QueryMemory::LiveSpillFiles()` must return
// to its baseline (no leaked temp files).
//
// Registered in TDP_SANITIZER_TESTS and re-run as
// spill_differential_test_mt under TDP_NUM_THREADS=4 (see CMakeLists).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/memory_budget.h"
#include "src/exec/result_cursor.h"
#include "src/exec/run_options.h"
#include "src/exec/spill.h"
#include "src/runtime/session.h"
#include "src/storage/table.h"
#include "tests/vector_test_util.h"

namespace tdp {
namespace {

using exec::QueryMemory;
using exec::RunOptions;

// ---- Byte-identity oracle ---------------------------------------------------

// Stricter than testutil::ExpectTablesBitIdentical (whose TensorEqual
// treats NaN != NaN): compares the raw bytes of each column's contiguous
// payload, so NaN bit patterns and -0 signs must survive the spill
// round-trip exactly.
void ExpectTablesByteIdentical(const Table& a, const Table& b,
                               const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (int64_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    ASSERT_EQ(ca.encoding(), cb.encoding()) << what << " column " << c;
    ASSERT_EQ(ca.dictionary(), cb.dictionary()) << what << " column " << c;
    ASSERT_EQ(ca.domain(), cb.domain()) << what << " column " << c;
    const Tensor ta = ca.data().Contiguous();
    const Tensor tb = cb.data().Contiguous();
    ASSERT_EQ(ta.dtype(), tb.dtype()) << what << " column " << c;
    ASSERT_EQ(ta.shape(), tb.shape()) << what << " column " << c;
    const int64_t bytes = ta.numel() * DTypeSize(ta.dtype());
    if (bytes == 0) continue;  // an empty payload may have no buffer
    EXPECT_EQ(std::memcmp(exec::TensorRawBytes(ta), exec::TensorRawBytes(tb),
                          static_cast<size_t>(bytes)),
              0)
        << what << " column " << c << " differs at the byte level";
  }
}

// ---- Seeded data ------------------------------------------------------------

constexpr int64_t kRows = 3000;
constexpr int64_t kTwo53 = int64_t{1} << 53;

// Key generators reaching the edges of every key type.
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

void RegisterTables(Session& session, uint64_t seed) {
  Rng rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  std::vector<int64_t> id(kRows), val(kRows);
  std::vector<double> score(kRows);
  std::vector<std::string> tag(kRows), grp(kRows);
  const std::vector<std::string> tags = {"red", "green", "blue", "teal", ""};
  const std::vector<std::string> grps = {"east", "west", "north", "south",
                                         "up", "down"};
  for (int64_t i = 0; i < kRows; ++i) {
    id[i] = rng.UniformInt(0, kRows / 3);  // heavy duplicates
    val[i] = rng.UniformInt(-1000, 1000);
    const int64_t shape = rng.UniformInt(0, 9);
    if (shape == 0) {
      score[i] = nan;  // NaN ties (one shared order code)
    } else if (shape == 1) {
      score[i] = rng.Bernoulli(0.5) ? -0.0 : 0.0;  // -0 / +0 ties
    } else if (shape <= 4) {
      score[i] = static_cast<double>(rng.UniformInt(-4, 4));  // dense dups
    } else {
      score[i] = rng.Uniform(-1e6, 1e6);
    }
    tag[i] = tags[rng.UniformInt(0, static_cast<int64_t>(tags.size()) - 1)];
    grp[i] = grps[rng.UniformInt(0, static_cast<int64_t>(grps.size()) - 1)];
  }
  // Adversarial keys from their own stream (the columns above stay as
  // they were): 2^53 neighbours and the int64 extremes, -0/NaN/2^53.0
  // floats, and strings sharing a long common prefix.
  Rng edge_rng(seed ^ 0xadd5eed);
  std::vector<int64_t> hk(kRows);
  std::vector<double> fx(kRows);
  std::vector<std::string> lp(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    hk[i] = AdversarialInt(edge_rng);
    fx[i] = AdversarialFloat(edge_rng);
    lp[i] = AdversarialString(edge_rng);
  }
  auto rows = TableBuilder("rows")
                  .AddInt64("id", id)
                  .AddInt64("val", val)
                  .AddFloat64("score", score)
                  .AddStrings("tag", tag)
                  .AddStrings("grp", grp)
                  .AddInt64("hk", hk)
                  .AddFloat64("fx", fx)
                  .AddStrings("lp", lp)
                  .Build();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_TRUE(session.RegisterTable("rows", rows.value()).ok());

  // The join's build side: one row per group value plus a dangling group
  // (never matched) so joins drop rows too.
  auto dims = TableBuilder("dims")
                  .AddStrings("name", {"east", "west", "north", "south", "up",
                                       "down", "sideways"})
                  .AddInt64("bonus", {10, 20, 30, 40, 50, 60, 70})
                  .Build();
  ASSERT_TRUE(dims.ok()) << dims.status().ToString();
  ASSERT_TRUE(session.RegisterTable("dims", dims.value()).ok());

  // A second adversarial table for joins: its string dictionary differs
  // from `rows`' (fewer, differently coded strings).
  constexpr int64_t kEdgeRows = 40;
  std::vector<int64_t> khk(kEdgeRows), w(kEdgeRows);
  std::vector<double> kfx(kEdgeRows);
  std::vector<std::string> klp(kEdgeRows);
  for (int64_t i = 0; i < kEdgeRows; ++i) {
    khk[i] = AdversarialInt(edge_rng);
    kfx[i] = AdversarialFloat(edge_rng);
    klp[i] = AdversarialString(edge_rng);
    w[i] = i;
  }
  auto edges = TableBuilder("edges")
                   .AddInt64("hk", khk)
                   .AddFloat64("fx", kfx)
                   .AddStrings("lp", klp)
                   .AddInt64("w", w)
                   .Build();
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  ASSERT_TRUE(session.RegisterTable("edges", edges.value()).ok());
}

// The query battery. Join probe order, aggregate group order, and sort
// ties are all deterministic by construction, so results are compared
// positionally with no normalizing sort.
const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      // Multi-key sort: string key, float key with NaN/-0 ties, int
      // tiebreak; stability across equal full keys.
      "SELECT id, score, tag FROM rows ORDER BY tag, score DESC, id",
      // Fused-limit sort: the external merge must truncate identically.
      "SELECT id, score FROM rows ORDER BY score, id DESC LIMIT 123",
      // Ascending float sort, no tiebreak: ties resolved by stability.
      "SELECT score FROM rows ORDER BY score",
      // Hash join, no ORDER BY: emission order itself is the contract.
      "SELECT r.id, r.score, d.bonus FROM rows r JOIN dims d "
      "ON r.grp = d.name WHERE r.val > 0",
      // Grouped aggregation: every kind over ints and doubles, plus
      // COUNT(DISTINCT) over a dictionary column.
      "SELECT grp, COUNT(*) AS n, SUM(score) AS s, AVG(score) AS a, "
      "MIN(val) AS lo, MAX(val) AS hi, COUNT(DISTINCT tag) AS dt "
      "FROM rows GROUP BY grp ORDER BY grp",
      // Global (keyless) aggregate: a single group spanning every page.
      "SELECT COUNT(*), SUM(val), AVG(val), COUNT(DISTINCT grp) FROM rows",
      // Join + aggregate + sort: all three breakers spill in one plan.
      "SELECT d.bonus, COUNT(*) AS n, SUM(r.score) AS s FROM rows r "
      "JOIN dims d ON r.grp = d.name GROUP BY d.bonus ORDER BY d.bonus",
      // DISTINCT rides the same breaker infrastructure downstream of a
      // budgeted sort.
      "SELECT DISTINCT tag, grp FROM rows ORDER BY tag, grp",
      // Adversarial keys (see AdversarialInt & co.): group ids, DISTINCT
      // and every join key kind — int, string across two dictionaries,
      // float with NaN/-0, int against float — plus an int64 sort key.
      "SELECT hk, lp, COUNT(*) AS n, COUNT(DISTINCT fx) AS df FROM rows "
      "GROUP BY hk, lp",
      "SELECT fx, COUNT(*) AS n, COUNT(DISTINCT hk) AS dh FROM rows "
      "GROUP BY fx",
      "SELECT DISTINCT lp, hk FROM rows",
      "SELECT r.id, e.w FROM rows r JOIN edges e ON r.hk = e.hk",
      "SELECT r.id, e.w FROM rows r JOIN edges e ON r.lp = e.lp "
      "WHERE r.val > 500",
      "SELECT r.id, e.w FROM rows r JOIN edges e ON r.fx = e.fx "
      "WHERE r.val > 500",
      "SELECT r.id, e.w FROM rows r JOIN edges e ON r.hk = e.fx",
      "SELECT hk, id FROM rows ORDER BY hk DESC, id",
  };
  return queries;
}

struct ExecConfig {
  int64_t morsel_rows;
  std::string label;
};

const std::vector<ExecConfig>& Configs() {
  static const std::vector<ExecConfig> configs = {
      {0, "morsel=default"},
      {7, "morsel=7"},
      {4096, "morsel=4096"},
      {std::numeric_limits<int64_t>::max(), "morsel=whole"},
  };
  return configs;
}

// Budgets: 0 = unlimited reference; 32 KB spills the large breakers while
// small ones stay resident; 1 byte forces every breaker external.
const std::vector<int64_t> kBudgets = {0, 32 * 1024, 1};

class SpillDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpillDifferentialTest, BudgetedRunsAreByteIdentical) {
  Session session;
  RegisterTables(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();

  for (const std::string& sql : Queries()) {
    // Reference: unlimited, default morsel.
    auto reference = session.Sql(sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();

    for (const ExecConfig& config : Configs()) {
      for (int64_t budget : kBudgets) {
        RunOptions run;
        run.morsel_rows = config.morsel_rows;
        run.memory_budget_bytes = budget;
        const std::string what =
            sql + " [" + config.label + " budget=" + std::to_string(budget) +
            "]";
        auto result = session.Sql(sql, {}, run);
        ASSERT_TRUE(result.ok()) << what << "\n"
                                 << result.status().ToString();
        ExpectTablesByteIdentical(*reference.value(), *result.value(), what);
      }
    }
    EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before)
        << "leaked spill files after " << sql;
  }
}

TEST_P(SpillDifferentialTest, PathologicalBudgetOnPathologicalShapes) {
  Session session;
  RegisterTables(session, GetParam());

  // Shapes that stress the externals' edges: single-row output, empty
  // input, one giant group, all-NaN key pages.
  const std::vector<std::string> edge_queries = {
      "SELECT id FROM rows WHERE val > 2000 ORDER BY id",      // empty input
      "SELECT COUNT(*) FROM rows WHERE val > 2000",            // empty agg
      "SELECT id, score FROM rows ORDER BY score LIMIT 1",     // limit 1
      "SELECT tag, COUNT(*) FROM rows WHERE score <> score "
      "GROUP BY tag ORDER BY tag",                             // NaN-only rows
  };
  for (const std::string& sql : edge_queries) {
    auto reference = session.Sql(sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();
    for (const ExecConfig& config : Configs()) {
      RunOptions run;
      run.morsel_rows = config.morsel_rows;
      run.memory_budget_bytes = 1;
      auto result = session.Sql(sql, {}, run);
      ASSERT_TRUE(result.ok()) << sql << " [" << config.label << "]\n"
                               << result.status().ToString();
      ExpectTablesByteIdentical(*reference.value(), *result.value(),
                                sql + " [" + config.label + " budget=1]");
    }
  }
}

TEST_P(SpillDifferentialTest, CursorDrainMatchesRun) {
  Session session;
  RegisterTables(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();

  const std::string sql =
      "SELECT id, score, tag FROM rows ORDER BY tag, score DESC, id";
  auto reference = session.Sql(sql);
  ASSERT_TRUE(reference.ok());

  RunOptions run;
  run.memory_budget_bytes = 1;
  auto cursor = session.Execute(sql, {}, run);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

  auto chunks = testutil::DrainChunks(**cursor);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  // The producer released its spill files when the stream ended — before
  // the cursor object itself dies.
  EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before);

  ASSERT_FALSE(chunks->empty());
  auto drained = exec::Chunk::Concat(*chunks).ToTable("drained");
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ExpectTablesByteIdentical(*reference.value(), *drained.value(),
                            "cursor drain");
}

TEST_P(SpillDifferentialTest, EarlyCursorCloseReleasesSpillFiles) {
  Session session;
  RegisterTables(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();
  const int64_t spilled_before = QueryMemory::TotalBytesSpilled();

  {
    RunOptions run;
    run.memory_budget_bytes = 1;
    run.morsel_rows = 7;  // many result chunks: the drain stays early
    auto cursor = session.Execute(
        "SELECT id, score FROM rows ORDER BY score, id", {}, run);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    auto first = cursor.value()->Next();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    // Abandon the rest: the destructor closes the cursor, cancelling the
    // producer at the next morsel boundary.
  }
  EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before)
      << "early cursor close leaked spill files";
  EXPECT_GT(QueryMemory::TotalBytesSpilled(), spilled_before)
      << "the budgeted sort never actually spilled";
}

TEST_P(SpillDifferentialTest, CancellationMidSpillReleasesSpillFiles) {
  Session session;
  RegisterTables(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();

  // Race a cancel against a budgeted three-breaker query. Whatever the
  // outcome — cancelled mid-spill, cancelled while queueing results, or
  // completed before the token flipped — no spill file may survive.
  for (int trial = 0; trial < 8; ++trial) {
    RunOptions run;
    run.memory_budget_bytes = 1;
    run.cancel = std::make_shared<exec::CancellationToken>();
    std::thread canceller([&run, trial] {
      // Sweep the cancellation point across the run's lifetime.
      std::this_thread::sleep_for(std::chrono::microseconds(50 * trial));
      run.cancel->Cancel();
    });
    auto result = session.Sql(
        "SELECT d.bonus, COUNT(*) AS n, SUM(r.score) AS s FROM rows r "
        "JOIN dims d ON r.grp = d.name GROUP BY d.bonus ORDER BY d.bonus",
        {}, run);
    canceller.join();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << result.status().ToString();
    }
    EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before)
        << "trial " << trial << " leaked spill files";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace tdp
