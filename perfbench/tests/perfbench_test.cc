// Unit tests of the benchmark itself: the percentile rule, self-time
// arithmetic, the seeded generators, and each oracle on a tiny dataset
// whose answers are computed by hand.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <thread>

#include "core/gen.h"
#include "core/oracle.h"
#include "core/stats.h"
#include "core/trace.h"
#include "src/storage/table.h"

namespace perfbench {
namespace {

// ---- percentile rule ----------------------------------------------------------

TEST(PercentileRule, SampleFloorIsTenBeyondTheQuantile) {
  EXPECT_EQ(MinSamplesFor(0.99), 1000);
  EXPECT_EQ(MinSamplesFor(0.90), 100);
  EXPECT_EQ(MinSamplesFor(0.50), 20);
  EXPECT_FALSE(PercentileReportable(999, 0.99));
  EXPECT_TRUE(PercentileReportable(1000, 0.99));
  EXPECT_FALSE(PercentileReportable(99, 0.90));
  EXPECT_TRUE(PercentileReportable(100, 0.90));
  EXPECT_THROW(MinSamplesFor(1.0), std::invalid_argument);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 0.90), 90);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Median({5, 1, 3}), 3);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  EXPECT_EQ(MedianOrZero({}), 0);
  EXPECT_THROW(Percentile({}, 0.5), std::invalid_argument);
}

TEST(PercentileRule, SubWindowThroughputIsTheUpperQuartile) {
  // Sub-windows of 2 ops: [0, 4], [4, 16] (a stall), [16, 20] and [20, 21]
  // run at 0.5, 1/6, 0.5 and 2 ops/s; the upper quartile is rank 3 of 4.
  EXPECT_DOUBLE_EQ(SubWindowThroughput({2, 4, 6, 16, 18, 20, 20.5, 21}, 2), 0.5);
  // Unsorted input, one trailing op outside any whole sub-window.
  EXPECT_DOUBLE_EQ(SubWindowThroughput({3, 1, 2, 9}, 3), 1.0);
  EXPECT_THROW(SubWindowThroughput({1}, 2), std::invalid_argument);
}

TEST(PercentileRule, SubWindowPercentileIsTheLowerQuartile) {
  // Completion order 1..8 splits into [10, 20], [90, 95] (a stall),
  // [30, 40] and [50, 60]; their maxima are 20, 95, 40 and 60, and the
  // lower quartile is rank 1 of 4.
  EXPECT_DOUBLE_EQ(SubWindowPercentile({6, 1, 3, 2, 4, 5, 7, 8},
                                       {40, 10, 90, 20, 95, 30, 50, 60}, 2, 1.0),
                   20);
  // 7 ops in groups of at least 3 make two windows of 3 and 4 ops, with
  // medians 2 and 5.
  EXPECT_DOUBLE_EQ(SubWindowPercentile({1, 2, 3, 4, 5, 6, 7},
                                       {1, 2, 3, 4, 5, 6, 7}, 3, 0.5),
                   2);
  // One window: the plain percentile.
  EXPECT_DOUBLE_EQ(SubWindowPercentile({1, 2, 3}, {5, 7, 6}, 3, 0.5), 6);
  EXPECT_THROW(SubWindowPercentile({1}, {1}, 2, 0.5), std::invalid_argument);
  EXPECT_THROW(SubWindowPercentile({1, 2}, {1}, 1, 0.5), std::invalid_argument);
}

// ---- self time ----------------------------------------------------------------

TEST(SelfTime, DisjointNestedAndOverlappingChildren) {
  EXPECT_DOUBLE_EQ(SelfTimeUs(0, 100, {}), 100);
  EXPECT_DOUBLE_EQ(SelfTimeUs(0, 100, {{10, 20}, {30, 50}}), 70);
  // Overlapping children count once: [10, 60] is covered.
  EXPECT_DOUBLE_EQ(SelfTimeUs(0, 100, {{10, 40}, {30, 60}}), 50);
  // A child inside another child.
  EXPECT_DOUBLE_EQ(SelfTimeUs(0, 100, {{10, 60}, {20, 30}}), 50);
  // Children are clipped to the parent.
  EXPECT_DOUBLE_EQ(SelfTimeUs(0, 100, {{-20, 10}, {90, 120}}), 80);
  // Fully covered.
  EXPECT_DOUBLE_EQ(SelfTimeUs(0, 100, {{0, 100}, {0, 50}}), 0);
}

Span MakeSpan(int64_t id, int64_t parent, const std::string& name, double start,
              double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(SelfTime, SummaryUsesDirectChildrenOnly) {
  // op [0, 100] > run [10, 90] > kernel [20, 80]
  const std::vector<Span> spans = {MakeSpan(0, -1, "op", 0, 100),
                                   MakeSpan(1, 0, "run", 10, 90),
                                   MakeSpan(2, 1, "kernel", 20, 80)};
  const SpanSummary summary = Summarize(spans);
  EXPECT_DOUBLE_EQ(summary.self_us.at("op")[0], 20);
  EXPECT_DOUBLE_EQ(summary.self_us.at("run")[0], 20);
  EXPECT_DOUBLE_EQ(summary.self_us.at("kernel")[0], 60);
  EXPECT_DOUBLE_EQ(summary.duration_us.at("run")[0], 80);
}

TEST(SelfTime, OverfullOpSpansFlagsChildrenSummingPastTheOp) {
  std::vector<Span> spans = {
      MakeSpan(0, -1, "op", 0, 10),  MakeSpan(1, 0, "a", 0, 6),
      MakeSpan(2, 0, "b", 4, 10),    // overlaps a: 6 + 6 > 10
      MakeSpan(3, -1, "op", 20, 30), MakeSpan(4, 3, "a", 20, 25),
      MakeSpan(5, 3, "b", 25, 30)};  // sequential: 5 + 5 == 10
  EXPECT_EQ(OverfullOpSpans(spans, "op"), 1);
  spans.erase(spans.begin() + 2);
  EXPECT_EQ(OverfullOpSpans(spans, "op"), 0);
}

TEST(Tracer, NestsPerThreadAndRecordsTags) {
  Tracer tracer;
  {
    Tracer::Scope op(&tracer, "op", 7, "cls");
    { Tracer::Scope child(&tracer, "child", 7); }
    std::thread other([&] { Tracer::Scope s(&tracer, "other", 8); });
    other.join();
  }
  { Tracer::Scope off(nullptr, "ignored", 9); }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  std::map<std::string, Span> by_name;
  for (const Span& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name["child"].parent, by_name["op"].id);
  EXPECT_EQ(by_name["other"].parent, -1);  // another thread: no parent
  EXPECT_EQ(by_name["op"].tag, "cls");
  EXPECT_EQ(by_name["op"].op, 7);
  EXPECT_LE(by_name["op"].start_us, by_name["child"].start_us);
  EXPECT_GE(by_name["op"].end_us, by_name["child"].end_us);
  EXPECT_EQ(OverfullOpSpans(spans, "op"), 0);
}

// ---- seeded generators ----------------------------------------------------------

TEST(Generators, StarSchemaIsSeeded) {
  const StarSchema s1 = MakeStarSchema(5, 1000, 16, 64, 50);
  const StarSchema s2 = MakeStarSchema(5, 1000, 16, 64, 50);
  const StarSchema s3 = MakeStarSchema(6, 1000, 16, 64, 50);
  EXPECT_EQ(s1.hk, s2.hk);
  EXPECT_EQ(s1.price, s2.price);
  EXPECT_NE(s1.hk, s3.hk);
  for (size_t i = 0; i < s1.id.size(); ++i) {
    ASSERT_LT(s1.d1[i], 16);
    ASSERT_LT(s1.d2[i], 64);
  }
}

TEST(Generators, AnalyticsBlocksArePermutations) {
  AnalyticsOpStream a(9), b(9), c(10);
  std::vector<AnalyticsClass> sa, sb, sc;
  for (int i = 0; i < 70; ++i) {
    sa.push_back(a.Next());
    sb.push_back(b.Next());
    sc.push_back(c.Next());
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
  for (int block = 0; block < 10; ++block) {
    std::set<AnalyticsClass> seen(sa.begin() + block * kAnalyticsClasses,
                                  sa.begin() + (block + 1) * kAnalyticsClasses);
    EXPECT_EQ(seen.size(), static_cast<size_t>(kAnalyticsClasses));
  }
}

TEST(Generators, EmbeddingsAndMultimodalStreamAreSeeded) {
  const Embeddings e1 = MakeEmbeddings(4, 50, 8, 3, 5);
  const Embeddings e2 = MakeEmbeddings(4, 50, 8, 3, 5);
  EXPECT_EQ(e1.vectors, e2.vectors);
  EXPECT_NE(e1.vectors, MakeEmbeddings(5, 50, 8, 3, 5).vectors);
  for (int64_t r = 0; r < 50; ++r) {
    double norm = 0;
    for (int64_t j = 0; j < 8; ++j) {
      norm += std::pow(e1.vectors[static_cast<size_t>(r * 8 + j)], 2);
    }
    EXPECT_NEAR(norm, 1.0, 1e-5);
  }
  MultimodalOpStream a(1, 0), b(1, 0), c(2, 0);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const MultimodalOp x = a.Next(5);
    EXPECT_EQ(x, b.Next(5));
    differs |= !(x == c.Next(5));
  }
  EXPECT_TRUE(differs);
}

// ---- oracles -----------------------------------------------------------------------

TEST(Oracle, CellsRenderExactly) {
  EXPECT_EQ(Cell(int64_t{-9223372036854775807 - 1}), "-9223372036854775808");
  EXPECT_EQ(Cell(3.0), "3");
  EXPECT_EQ(Cell(2.5), "2.5");
  EXPECT_EQ(Cell(0.1), "0.10000000000000001");
}

TEST(Oracle, EngineTablesDecodeAndChecksum) {
  auto make = [](double last) {
    return tdp::TableBuilder("t")
        .AddInt64("a", {1, 2})
        .AddFloat64("b", {0.5, last})
        .AddStrings("c", {"y", "x"})
        .Build()
        .value();
  };
  const auto t = make(4.0);
  EXPECT_EQ(TableRows(*t), (Rows{{"1", "0.5", "y"}, {"2", "4", "x"}}));
  EXPECT_EQ(ResultChecksum(*t), ResultChecksum(*make(4.0)));
  EXPECT_NE(ResultChecksum(*t), ResultChecksum(*make(4.5)));
  EXPECT_EQ(CompareRows({{"1"}}, {{"1"}}), "");
  EXPECT_NE(CompareRows({{"1"}}, {{"2"}}), "");
  EXPECT_NE(CompareRows({{"1"}}, {}), "");
}

StarSchema TinyStar() {
  StarSchema s;
  s.id = {0, 1, 2, 3, 4};
  s.d1 = {0, 1, 0, 200, 1};
  s.d2 = {1, 1, 0, 0, 2};
  s.hk = {-5, 9, -5, 9, 7};
  s.qty = {5, 1, 300, 2, 4};
  s.price = {1.5, 9.25, 9.25, 0.5, 3.0};
  s.cat = {0, 1, 0, 0, 1};
  s.categories = {"x", "y"};
  s.regions = {"east", "west"};
  s.dim1_region.assign(256, 0);
  s.dim1_region[1] = 1;
  s.dim2_segment = {7, 8, 7};
  return s;
}

TEST(Oracle, AnalyticsOnATinyStarSchema) {
  const StarSchema s = TinyStar();
  using C = AnalyticsClass;
  EXPECT_EQ(AnalyticsExpected(s, C::kGroupBy, 0),
            (Rows{{"0", "2", "305"}, {"1", "2", "5"}, {"200", "1", "2"}}));
  EXPECT_EQ(AnalyticsExpected(s, C::kGroupBy, 1),
            (Rows{{"x", "3", "307", "9.25"}, {"y", "2", "5", "9.25"}}));
  EXPECT_EQ(AnalyticsExpected(s, C::kGroupByWide, 0),
            (Rows{{"-5", "2", "305"}, {"7", "1", "4"}, {"9", "2", "3"}}));
  // d1 1 -> west; d1 0 and 200 -> east.
  EXPECT_EQ(AnalyticsExpected(s, C::kJoinAgg, 0),
            (Rows{{"east", "3", "307"}, {"west", "2", "5"}}));
  // d2 0 -> 7, 1 -> 8, 2 -> 7.
  EXPECT_EQ(AnalyticsExpected(s, C::kJoinAgg, 1), (Rows{{"7", "306"}, {"8", "6"}}));
  EXPECT_EQ(AnalyticsExpected(s, C::kDistinct, 0), (Rows{{"3"}}));
  // price desc, ties by id: 1 and 2 tie at 9.25.
  EXPECT_EQ(AnalyticsExpected(s, C::kSortLimit, 0), (Rows{{"1", "9.25"},
                                                         {"2", "9.25"},
                                                         {"4", "3"},
                                                         {"0", "1.5"},
                                                         {"3", "0.5"}}));
  // d1 < 64 OR qty >= d1: rows 0, 1, 2, 4 (row 3: d1 200, qty 2). CASE
  // qty > d1: row 0 (5 > 0), row 2 (300 > 0), row 4 (4 > 1); row 1 is 1 > 1.
  EXPECT_EQ(AnalyticsExpected(s, C::kFilterExpr, 0), (Rows{{"4", "309"}}));
  // d1 < 128: rows 0, 1, 2, 4 grouped by d2.
  EXPECT_EQ(AnalyticsExpected(s, C::kSpillAgg, 0),
            (Rows{{"0", "1", "300"}, {"1", "2", "6"}, {"2", "1", "4"}}));
}

TEST(Oracle, MultimodalTopKRecallAndCountBounds) {
  Embeddings e;
  // dim 2; scores against q = (1, 0) are the first coordinates.
  e.vectors = {0.9f, 0, 0.5f, 0, 0.9f, 0, 0.1f, 0, 0.7f, 0};
  e.grp = {0, 1, 0, 0, 2};
  const std::vector<float> q = {1, 0};
  // Ties (rows 0 and 2 at 0.9) break toward the lower id.
  EXPECT_EQ(ExactTopK(e, 2, q, -1, 3), (std::vector<int64_t>{0, 2, 4}));
  // Excluding group 0 leaves rows 1 and 4.
  EXPECT_EQ(ExactTopK(e, 2, q, 0, 3), (std::vector<int64_t>{4, 1}));
  EXPECT_DOUBLE_EQ(RecallAt({0, 4, 3}, {0, 2, 4}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAt({}, {}), 1.0);
  const auto [lo, hi] = CountBounds({0.9f, 0.80001f, 0.79999f, 0.2f}, 0.8, 1e-4);
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 3);
}

TEST(Oracle, TrainMse) {
  EXPECT_DOUBLE_EQ(Mse({1, 2, 3}, {1, 4, 0}), (0 + 4 + 9) / 3.0);
  EXPECT_THROW(Mse({1}, {1, 2}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
