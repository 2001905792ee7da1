#include <gtest/gtest.h>

#include "src/storage/catalog.h"
#include "src/storage/column.h"
#include "src/storage/table.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

TEST(ColumnTest, PlainColumn) {
  Column c = Column::Plain(Tensor::FromVector(std::vector<float>{1, 2, 3}));
  EXPECT_EQ(c.encoding(), Encoding::kPlain);
  EXPECT_EQ(c.length(), 3);
  EXPECT_FALSE(c.IsTensorColumn());
}

TEST(ColumnTest, TensorColumnHasRank) {
  Column c = Column::Plain(Tensor::Zeros({5, 3, 8, 8}));
  EXPECT_TRUE(c.IsTensorColumn());
  EXPECT_EQ(c.length(), 5);
}

TEST(ColumnTest, DictionaryIsOrderPreserving) {
  Column c = Column::FromStrings({"pear", "apple", "pear", "banana"});
  EXPECT_EQ(c.encoding(), Encoding::kDictionary);
  // Codes sorted by string: apple=0, banana=1, pear=2.
  EXPECT_EQ(c.data().ToVector<int64_t>(),
            (std::vector<int64_t>{2, 0, 2, 1}));
  EXPECT_EQ(c.DecodeStrings(),
            (std::vector<std::string>{"pear", "apple", "pear", "banana"}));
  EXPECT_EQ(c.DictionaryCode("banana"), 1);
  EXPECT_EQ(c.DictionaryCode("missing"), -1);
  // Range lookups for order-preserving predicates.
  EXPECT_EQ(c.LowerBoundCode("b"), 1);
  EXPECT_EQ(c.UpperBoundCode("banana"), 2);
}

TEST(ColumnTest, ProbabilityEncodingDecodesToArgmaxDomainValue) {
  Tensor probs = Tensor::FromVector(
      std::vector<float>{0.1f, 0.9f, 0.8f, 0.2f}, {2, 2});
  Column c = Column::Probability(probs, {10.0, 20.0});
  EXPECT_EQ(c.encoding(), Encoding::kProbability);
  Tensor hard = c.DecodeValues();
  EXPECT_EQ(hard.ToVector<float>(), (std::vector<float>{20, 10}));
}

TEST(ColumnTest, SelectPreservesEncoding) {
  Column c = Column::FromStrings({"a", "b", "c"});
  Column sel = c.Select(Tensor::FromVector(std::vector<int64_t>{2, 0}));
  EXPECT_EQ(sel.DecodeStrings(), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(sel.encoding(), Encoding::kDictionary);
}

TEST(TableTest, CreateValidatesShapes) {
  auto bad = Table::Create(
      "t", {"a", "b"},
      {Column::Plain(Tensor::Ones({2})), Column::Plain(Tensor::Ones({3}))});
  EXPECT_FALSE(bad.ok());

  auto dup = Table::Create(
      "t", {"a", "A"},
      {Column::Plain(Tensor::Ones({2})), Column::Plain(Tensor::Ones({2}))});
  EXPECT_FALSE(dup.ok());
}

TEST(TableTest, BuilderAndLookup) {
  auto table = TableBuilder("t")
                   .AddInt64("id", {1, 2})
                   .AddStrings("name", {"x", "y"})
                   .AddTensor("img", Tensor::Zeros({2, 1, 4, 4}))
                   .Build();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 2);
  EXPECT_EQ((*table)->num_columns(), 3);
  auto idx = (*table)->ColumnIndex("NAME");  // case-insensitive
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1);
  EXPECT_FALSE((*table)->ColumnIndex("missing").ok());
}

TEST(TableTest, ToDeviceMovesColumns) {
  auto table = TableBuilder("t").AddFloat32("x", {1, 2, 3}).Build();
  ASSERT_TRUE(table.ok());
  auto moved = (*table)->To(Device::kAccel);
  EXPECT_EQ(moved->column(0).data().device(), Device::kAccel);
  EXPECT_EQ((*table)->column(0).data().device(), Device::kCpu);
}

// int64 and bool cells print from their typed values: 2^53 and 2^53 + 1
// share one double, so a double-routed printer would show both as the
// same rounded exponent string.
TEST(TableTest, ToStringPrintsIntegersExactly) {
  const int64_t two53 = int64_t{1} << 53;
  auto table = TableBuilder("t")
                   .AddInt64("id", {two53, two53 + 1, -7})
                   .AddBool("flag", {true, false, true})
                   .Build();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->ToString(),
            "t (3 rows)\n"
            "id | flag\n"
            "9007199254740992 | 1\n"
            "9007199254740993 | 0\n"
            "-7 | 1\n");
  // A row cap still prints exact values for the rows shown.
  EXPECT_EQ((*table)->ToString(1),
            "t (3 rows)\n"
            "id | flag\n"
            "9007199254740992 | 1\n"
            "... (2 more)\n");
}

TEST(CatalogTest, RegisterLookupDrop) {
  Catalog catalog;
  auto table = TableBuilder("t").AddFloat32("x", {1}).Build();
  ASSERT_TRUE(catalog.RegisterTable("MyTable", table.value()).ok());
  EXPECT_TRUE(catalog.GetTable("mytable").ok());
  EXPECT_TRUE(catalog.GetTable("MYTABLE").ok());
  EXPECT_FALSE(catalog.GetTable("other").ok());

  // replace=false refuses to clobber.
  EXPECT_EQ(
      catalog.RegisterTable("mytable", table.value(), /*replace=*/false)
          .code(),
      StatusCode::kAlreadyExists);
  // replace=true (default) overwrites.
  EXPECT_TRUE(catalog.RegisterTable("mytable", table.value()).ok());

  EXPECT_TRUE(catalog.DropTable("mytable").ok());
  EXPECT_FALSE(catalog.GetTable("mytable").ok());
  EXPECT_EQ(catalog.DropTable("mytable").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, RejectsBadInput) {
  Catalog catalog;
  EXPECT_FALSE(catalog.RegisterTable("x", nullptr).ok());
  auto table = TableBuilder("t").AddFloat32("x", {1}).Build();
  EXPECT_FALSE(catalog.RegisterTable("", table.value()).ok());
}

}  // namespace
}  // namespace tdp
