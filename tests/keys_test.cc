// Unit coverage for the one key module (src/exec/keys.h): the
// order-preserving key codes every keyed operator and spill kernel shares,
// the ORDER BY order (`SortKeys`) and its parallel top-k, the flat
// `KeyTable` that assigns group/distinct/join ids, the CSR row
// lists of a join build side, and the join key reconciliation that makes
// `=` exact across the two sides. End-to-end exactness (the 2^53 probe on
// both devices, in memory and spilled, against BaselineDb) lives in
// differential_test.cc.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/exec/keys.h"
#include "src/storage/column.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace tdp {
namespace exec {
namespace {

// ---- Order-preserving key codes ---------------------------------------------

TEST(OrderCodeTest, DoubleOrderCodeIsMonotone) {
  const double inf = std::numeric_limits<double>::infinity();
  // Strictly increasing doubles must map to strictly increasing codes.
  const std::vector<double> ascending = {
      -inf,  -1e300, -2.5, -1.0, -1e-300, 0.0, 1e-300, 0.5, 1.0, 1e300, inf};
  for (size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(DoubleOrderCode(ascending[i - 1]), DoubleOrderCode(ascending[i]))
        << ascending[i - 1] << " vs " << ascending[i];
  }
}

TEST(OrderCodeTest, NegativeZeroTiesPositiveZero) {
  // ORDER BY (like ArgSort's comparator) cannot distinguish -0 from +0, so
  // their codes must tie or the row-index tie-break would diverge.
  EXPECT_EQ(DoubleOrderCode(-0.0), DoubleOrderCode(0.0));
}

TEST(OrderCodeTest, AllNansShareOneCode) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(DoubleOrderCode(qnan), kNanOrderCode);
  EXPECT_EQ(DoubleOrderCode(-qnan), kNanOrderCode);
}

TEST(OrderCodeTest, SortRankNanLastBothDirections) {
  const int64_t one = DoubleOrderCode(1.0);
  const int64_t inf =
      DoubleOrderCode(std::numeric_limits<double>::infinity());
  // Ascending: 1.0 before +inf before NaN.
  EXPECT_LT(SortRank(one, /*descending=*/false, /*is_float=*/true),
            SortRank(inf, false, true));
  EXPECT_LT(SortRank(inf, false, true), SortRank(kNanOrderCode, false, true));
  // Descending: +inf before 1.0, and NaN STILL last (NaN is last in both
  // directions, matching the in-memory comparator).
  EXPECT_LT(SortRank(inf, /*descending=*/true, /*is_float=*/true),
            SortRank(one, true, true));
  EXPECT_LT(SortRank(one, true, true), SortRank(kNanOrderCode, true, true));
  // Plain integers invert under descending, the int64 extremes included.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  EXPECT_LT(SortRank(2, /*descending=*/true, /*is_float=*/false),
            SortRank(1, true, false));
  EXPECT_LT(SortRank(hi, true, false), SortRank(hi - 1, true, false));
  EXPECT_LT(SortRank(lo + 1, true, false), SortRank(lo, true, false));
  EXPECT_LT(SortRank(1, /*descending=*/false, /*is_float=*/false),
            SortRank(2, false, false));
}

TEST(OrderCodeTest, KeyCodesMatchColumnOrder) {
  Column dict = Column::FromStrings({"b", "a", "c", "a"});
  bool is_float = true;
  auto dict_codes = KeyCodes(dict, &is_float);
  ASSERT_TRUE(dict_codes.ok());
  EXPECT_FALSE(is_float);  // dictionary codes follow integer rules
  EXPECT_EQ(dict_codes.value(), (std::vector<int64_t>{1, 0, 2, 0}));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  Column floats =
      Column::Plain(Tensor::FromVector<double>({2.0, -1.0, nan, -0.0}));
  auto float_codes = KeyCodes(floats, &is_float);
  ASSERT_TRUE(float_codes.ok());
  EXPECT_TRUE(is_float);
  const auto& codes = float_codes.value();
  EXPECT_GT(codes[0], codes[3]);            // 2.0 > -0
  EXPECT_LT(codes[1], codes[3]);            // -1 < -0
  EXPECT_EQ(codes[2], kNanOrderCode);       // NaN sentinel
  EXPECT_EQ(codes[3], 0);                   // -0 normalizes to +0's code
}

TEST(OrderCodeTest, TensorColumnsRejectedAsKeys) {
  Column images = Column::Plain(Tensor::Zeros({3, 2, 2}));
  bool is_float = false;
  auto codes = KeyCodes(images, &is_float);
  EXPECT_FALSE(codes.ok());
  EXPECT_EQ(codes.status().code(), StatusCode::kTypeError);
}

TEST(OrderCodeTest, FullWidthIntegersStayExact) {
  const int64_t two53 = int64_t{1} << 53;
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  auto codes = KeyCodes(
      Column::Plain(Tensor::FromVector<int64_t>({two53 + 1, two53, lo, hi})));
  ASSERT_TRUE(codes.ok());
  EXPECT_EQ(codes.value(), (std::vector<int64_t>{two53 + 1, two53, lo, hi}));
}

// ---- SortKeys ---------------------------------------------------------------

// The engine's former ORDER BY: stable ArgSorts applied last key first.
std::vector<int64_t> ArgSortComposition(const std::vector<Tensor>& keys,
                                        const std::vector<bool>& descending) {
  Tensor perm = Tensor::Arange(keys[0].numel());
  for (size_t k = keys.size(); k-- > 0;) {
    const Tensor order = ArgSort(IndexSelect(keys[k], 0, perm), descending[k]);
    perm = IndexSelect(perm, 0, order);
  }
  return perm.ToVector<int64_t>();
}

SortKeys MakeSortKeys(const std::vector<Tensor>& keys,
                      const std::vector<bool>& descending) {
  SortKeys sort_keys(keys[0].numel());
  for (size_t k = 0; k < keys.size(); ++k) {
    EXPECT_TRUE(sort_keys.Add(Column::Plain(keys[k]), descending[k]).ok());
  }
  return sort_keys;
}

// Heavy-tie keys past several top-k blocks (16384 rows each): a float key
// over {NaN, -0, +0, +-1.5}, an int64 key over the full width and a bool.
std::vector<Tensor> TiedKeys(int64_t rows) {
  Rng rng(17);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> floats = {nan, -0.0, 0.0, 1.5, -1.5};
  const std::vector<int64_t> ints = {std::numeric_limits<int64_t>::min(),
                                     (int64_t{1} << 53) + 1, int64_t{1} << 53,
                                     std::numeric_limits<int64_t>::max()};
  std::vector<double> f;
  std::vector<int64_t> i, b;
  for (int64_t r = 0; r < rows; ++r) {
    f.push_back(floats[static_cast<size_t>(rng.UniformInt(0, 4))]);
    i.push_back(ints[static_cast<size_t>(rng.UniformInt(0, 3))]);
    b.push_back(rng.UniformInt(0, 1));
  }
  return {Tensor::FromVector(f), Tensor::FromVector(i),
          Tensor::FromVector(b).To(DType::kBool)};
}

TEST(SortKeysTest, EqualsStableArgSortCompositionAndItsPrefixes) {
  const int64_t rows = 40000;
  const std::vector<Tensor> keys = TiedKeys(rows);
  for (const std::vector<bool>& descending :
       {std::vector<bool>{false, false, false},
        std::vector<bool>{true, false, true},
        std::vector<bool>{false, true, true}}) {
    const std::vector<int64_t> expected = ArgSortComposition(keys, descending);
    const SortKeys sort_keys = MakeSortKeys(keys, descending);
    for (int threads : {1, 4}) {
      ScopedNumThreads scoped(threads);
      EXPECT_EQ(sort_keys.Sorted(), expected);
      for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{16383},
                        int64_t{16384}, int64_t{16385}, int64_t{32769},
                        rows - 1}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " k=" + std::to_string(k));
        const std::vector<int64_t> prefix(expected.begin(),
                                          expected.begin() + k);
        EXPECT_EQ(sort_keys.Sorted(k), prefix);
      }
    }
  }
}

TEST(SortKeysTest, AllRowsTiedKeepRowOrder) {
  const int64_t rows = 40000;
  const SortKeys sort_keys =
      MakeSortKeys({Tensor::Zeros({rows}, DType::kFloat32)}, {true});
  ScopedNumThreads scoped(4);
  for (int64_t k : {int64_t{1}, int64_t{16385}, rows - 1}) {
    std::vector<int64_t> expected(static_cast<size_t>(k));
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(sort_keys.Sorted(k), expected) << "k=" << k;
  }
}

TEST(SortKeysTest, LimitAtOrAboveRowsSortsEveryRow) {
  const std::vector<Tensor> keys = {
      Tensor::FromVector<int64_t>({3, 1, 2, 1, 3})};
  const SortKeys sort_keys = MakeSortKeys(keys, {false});
  const std::vector<int64_t> expected = {1, 3, 2, 0, 4};
  EXPECT_EQ(sort_keys.Sorted(), expected);
  EXPECT_EQ(sort_keys.Sorted(5), expected);
  EXPECT_EQ(sort_keys.Sorted(10), expected);
  EXPECT_TRUE(SortKeys(0).Sorted(3).empty());
  EXPECT_TRUE(SortKeys(0).Sorted().empty());
}

// ---- KeyTable ---------------------------------------------------------------

TEST(KeyTableTest, IdsAreDenseInFirstSeenOrder) {
  KeyTable table(1);
  const std::vector<int64_t> keys = {7, -3, 7, 42, -3, 0};
  std::vector<int64_t> ids;
  std::vector<bool> inserted;
  for (const int64_t& k : keys) {
    const auto [id, fresh] = table.Insert(&k);
    ids.push_back(id);
    inserted.push_back(fresh);
  }
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 0, 2, 1, 3}));
  EXPECT_EQ(inserted,
            (std::vector<bool>{true, true, false, true, false, true}));
  EXPECT_EQ(table.size(), 4);
  const int64_t absent = 5;
  EXPECT_EQ(table.Find(&absent), -1);
  EXPECT_EQ(table.Find(&keys[3]), 2);
}

TEST(KeyTableTest, SortIdsRenumbersLexicographically) {
  KeyTable table(2);
  const std::vector<std::vector<int64_t>> keys = {
      {3, 1}, {-5, 9}, {3, -2}, {-5, 2}, {0, 0}};
  for (const auto& k : keys) table.Insert(k.data());
  const std::vector<int64_t> new_id = table.SortIds();
  // Sorted: (-5,2) (-5,9) (0,0) (3,-2) (3,1).
  EXPECT_EQ(new_id, (std::vector<int64_t>{4, 1, 3, 0, 2}));
  for (size_t old = 0; old < keys.size(); ++old) {
    EXPECT_EQ(table.Find(keys[old].data()), new_id[old]);
    const int64_t* stored = table.key(new_id[old]);
    EXPECT_EQ(stored[0], keys[old][0]);
    EXPECT_EQ(stored[1], keys[old][1]);
  }
  // Inserts after the renumbering continue the dense id sequence.
  const int64_t fresh[2] = {-9, -9};
  EXPECT_EQ(table.Insert(fresh).first, 5);
}

TEST(KeyTableTest, GrowsPastInitialCapacity) {
  KeyTable table(1);
  constexpr int64_t kKeys = 10000;  // far beyond the 16 initial slots
  for (int64_t i = 0; i < kKeys; ++i) {
    const int64_t k = i * 1000003 - 77;
    ASSERT_EQ(table.Insert(&k).first, i);
  }
  EXPECT_EQ(table.size(), kKeys);
  for (int64_t i = 0; i < kKeys; ++i) {
    const int64_t k = i * 1000003 - 77;
    ASSERT_EQ(table.Find(&k), i);
  }
}

TEST(KeyTableTest, WidthZeroHasOneEmptyTuple) {
  KeyTable table(0);
  EXPECT_EQ(table.Find(nullptr), -1);
  EXPECT_EQ(table.Insert(nullptr), std::make_pair(int64_t{0}, true));
  EXPECT_EQ(table.Insert(nullptr), std::make_pair(int64_t{0}, false));
  EXPECT_EQ(table.size(), 1);
  EXPECT_EQ(table.SortIds(), (std::vector<int64_t>{0}));
}

TEST(KeyTableTest, WidthThreeDistinguishesEveryColumn) {
  KeyTable table(3);
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  const std::vector<std::vector<int64_t>> keys = {
      {1, 2, 3}, {1, 2, 4}, {1, 3, 3}, {2, 2, 3}, {lo, hi, 0}, {hi, lo, 0}};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Insert(keys[i].data()).first, static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Find(keys[i].data()), static_cast<int64_t>(i));
  }
  // (lo, hi, 0) sorts first, (hi, lo, 0) last.
  const std::vector<int64_t> new_id = table.SortIds();
  EXPECT_EQ(new_id, (std::vector<int64_t>{1, 2, 3, 4, 0, 5}));
}

TEST(KeyRowsTest, RowsPerKeyAscending) {
  KeyRows rows(1);
  const std::vector<int64_t> keys = {5, 9, 5, 5, 9, 1};
  for (size_t r = 0; r < keys.size(); ++r) {
    rows.Add(&keys[r], static_cast<int64_t>(r) * 10);
  }
  rows.Finish();
  const auto to_vector = [](std::span<const int64_t> s) {
    return std::vector<int64_t>(s.begin(), s.end());
  };
  const int64_t five = 5, nine = 9, one = 1, absent = 2;
  EXPECT_EQ(to_vector(rows.Find(&five)), (std::vector<int64_t>{0, 20, 30}));
  EXPECT_EQ(to_vector(rows.Find(&nine)), (std::vector<int64_t>{10, 40}));
  EXPECT_EQ(to_vector(rows.Find(&one)), (std::vector<int64_t>{50}));
  EXPECT_TRUE(rows.Find(&absent).empty());
}

// ---- Join key reconciliation ------------------------------------------------

// Keys of the single-column chunk `side` against the single-column `build`.
JoinKeys KeysOf(const Column& build, const Column& side) {
  Chunk b;
  b.names = {"k"};
  b.columns = {build};
  Chunk s;
  s.names = {"k"};
  s.columns = {side};
  auto keys = MakeJoinKeys(b, {0}, s, {0});
  EXPECT_TRUE(keys.ok()) << keys.status().ToString();
  return keys.ok() ? keys.value() : JoinKeys{};
}

TEST(JoinKeysTest, StringsTranslateIntoTheBuildDictionary) {
  const Column build = Column::FromStrings({"pear", "apple", "fig"});
  const Column probe = Column::FromStrings({"fig", "kiwi", "apple", "fig"});
  const JoinKeys b = KeysOf(build, build);
  const JoinKeys p = KeysOf(build, probe);
  ASSERT_EQ(p.live, (std::vector<uint8_t>{1, 0, 1, 1}));
  EXPECT_EQ(p.codes[0], b.codes[2]);  // fig
  EXPECT_EQ(p.codes[2], b.codes[1]);  // apple
  EXPECT_EQ(p.codes[3], b.codes[2]);
}

TEST(JoinKeysTest, IntegersCompareExactly) {
  const int64_t two53 = int64_t{1} << 53;
  const Column build = Column::Plain(Tensor::FromVector<int64_t>({two53}));
  const Column probe =
      Column::Plain(Tensor::FromVector<int64_t>({two53 + 1, two53}));
  const JoinKeys b = KeysOf(build, build);
  const JoinKeys p = KeysOf(build, probe);
  EXPECT_NE(p.codes[0], b.codes[0]);
  EXPECT_EQ(p.codes[1], b.codes[0]);
}

TEST(JoinKeysTest, IntAgainstFloatIsExact) {
  const double two53 = 9007199254740992.0;
  const int64_t i53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Float build, int probe: 2^53+1 has no double, so it matches nothing.
  const Column float_build =
      Column::Plain(Tensor::FromVector<double>({1.0, two53, -0.0}));
  const JoinKeys fb = KeysOf(float_build, float_build);
  const JoinKeys ip = KeysOf(
      float_build, Column::Plain(Tensor::FromVector<int64_t>(
                       {1, i53 + 1, i53, 0,
                        std::numeric_limits<int64_t>::max()})));
  EXPECT_EQ(ip.live, (std::vector<uint8_t>{1, 0, 1, 1, 0}));
  EXPECT_EQ(ip.codes[0], fb.codes[0]);
  EXPECT_EQ(ip.codes[2], fb.codes[1]);
  EXPECT_EQ(ip.codes[3], fb.codes[2]);  // 0 = -0.0

  // Int build, float probe: fractions, NaN and out-of-range values match
  // nothing; integral doubles match their int64.
  const Column int_build =
      Column::Plain(Tensor::FromVector<int64_t>({1, i53}));
  const JoinKeys fp = KeysOf(
      int_build,
      Column::Plain(Tensor::FromVector<double>({1.0, 1.5, nan, two53, 1e300})));
  EXPECT_EQ(fp.live, (std::vector<uint8_t>{1, 0, 0, 1, 0}));
  EXPECT_EQ(fp.codes[0], 1);
  EXPECT_EQ(fp.codes[3], i53);
}

TEST(JoinKeysTest, NanMatchesNothingAndNegativeZeroMatchesZero) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Column floats =
      Column::Plain(Tensor::FromVector<double>({nan, -0.0, 0.0}));
  const JoinKeys k = KeysOf(floats, floats);
  EXPECT_EQ(k.live, (std::vector<uint8_t>{0, 1, 1}));
  EXPECT_EQ(k.codes[1], k.codes[2]);
}

TEST(JoinKeysTest, StringsNeverEqualNumbers) {
  const Column strings = Column::FromStrings({"1", "2"});
  const Column ints = Column::Plain(Tensor::FromVector<int64_t>({1, 2}));
  EXPECT_EQ(KeysOf(strings, ints).live, (std::vector<uint8_t>{0, 0}));
  EXPECT_EQ(KeysOf(ints, strings).live, (std::vector<uint8_t>{0, 0}));
}

}  // namespace
}  // namespace exec
}  // namespace tdp
