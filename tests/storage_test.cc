#include <gtest/gtest.h>

#include "exec/prepared_query.h"
#include "storage/catalog.h"

namespace skinner {
namespace {

TEST(StringPoolTest, InternDedupes) {
  StringPool pool;
  int32_t a = pool.Intern("hello");
  int32_t b = pool.Intern("world");
  int32_t c = pool.Intern("hello");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Get(a), "hello");
  EXPECT_EQ(pool.Get(b), "world");
  EXPECT_EQ(pool.size(), 2u);
}

TEST(StringPoolTest, LookupWithoutIntern) {
  StringPool pool;
  EXPECT_EQ(pool.Lookup("absent"), -1);
  int32_t id = pool.Intern("present");
  EXPECT_EQ(pool.Lookup("present"), id);
}

TEST(StringPoolTest, StableAcrossGrowth) {
  // Interning many strings must not invalidate earlier ids (regression
  // guard for the string_view-into-vector key scheme).
  StringPool pool;
  std::vector<int32_t> ids;
  for (int i = 0; i < 5000; ++i) ids.push_back(pool.Intern("s" + std::to_string(i)));
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(pool.Get(ids[static_cast<size_t>(i)]), "s" + std::to_string(i));
    EXPECT_EQ(pool.Lookup("s" + std::to_string(i)), ids[static_cast<size_t>(i)]);
  }
}

TEST(ColumnTest, IntAppendAndRead) {
  Column c(DataType::kInt64);
  c.AppendInt(7);
  c.AppendInt(-3);
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.GetInt(0), 7);
  EXPECT_EQ(c.GetInt(1), -3);
  EXPECT_FALSE(c.IsNull(0));
}

TEST(ColumnTest, NullTrackingStaysInSync) {
  Column c(DataType::kInt64);
  c.AppendInt(1);
  c.AppendNull();
  c.AppendInt(3);   // typed append after a NULL must extend validity
  c.AppendNull();
  EXPECT_EQ(c.size(), 4);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_TRUE(c.IsNull(3));
}

TEST(ColumnTest, DoubleColumnNulls) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.5);
  c.AppendNull();
  EXPECT_EQ(c.size(), 2);
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 1.5);
  EXPECT_TRUE(c.IsNull(1));
}

TEST(ColumnTest, JoinKeyNormalizesIntAndDouble) {
  Column ci(DataType::kInt64);
  Column cd(DataType::kDouble);
  ci.AppendInt(42);
  cd.AppendDouble(42.0);
  EXPECT_EQ(JoinKeyOf(ci, 0), JoinKeyOf(cd, 0));
  ci.AppendInt(43);
  EXPECT_NE(JoinKeyOf(ci, 1), JoinKeyOf(cd, 0));
  // Signed zeros compare equal, so they share a key.
  cd.AppendDouble(-0.0);
  cd.AppendDouble(0.0);
  EXPECT_EQ(JoinKeyOf(cd, 1), JoinKeyOf(cd, 2));
  // Beyond 2^53 the double conversion is lossy; exact int64 keys must not
  // collapse adjacent values.
  ci.AppendInt((int64_t{1} << 53) + 1);
  ci.AppendInt(int64_t{1} << 53);
  EXPECT_NE(JoinKeyOf(ci, 2), JoinKeyOf(ci, 3));
}

TEST(ColumnTest, StringDictionaryCodes) {
  StringPool pool;
  Column c(DataType::kString);
  c.AppendString("x", &pool);
  c.AppendString("y", &pool);
  c.AppendString("x", &pool);
  EXPECT_EQ(c.GetStringId(0), c.GetStringId(2));
  EXPECT_NE(c.GetStringId(0), c.GetStringId(1));
  EXPECT_EQ(c.GetValue(1, pool).AsString(), "y");
}

TEST(ColumnTest, AppendValueCoercesAndChecks) {
  StringPool pool;
  Column c(DataType::kInt64);
  EXPECT_TRUE(c.AppendValue(Value::Int(1), &pool).ok());
  EXPECT_TRUE(c.AppendValue(Value::Double(2.9), &pool).ok());  // truncates
  EXPECT_EQ(c.GetInt(1), 2);
  EXPECT_FALSE(c.AppendValue(Value::String("no"), &pool).ok());
  EXPECT_TRUE(c.AppendValue(Value::Null(), &pool).ok());
  EXPECT_TRUE(c.IsNull(2));
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s({{"Id", DataType::kInt64}, {"Name", DataType::kString}});
  EXPECT_EQ(s.FindColumn("id"), 0);
  EXPECT_EQ(s.FindColumn("NAME"), 1);
  EXPECT_EQ(s.FindColumn("missing"), -1);
  EXPECT_EQ(s.num_columns(), 2);
}

TEST(TableTest, AppendRowAndGetRow) {
  StringPool pool;
  Table t("t", Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}),
          &pool);
  EXPECT_TRUE(t.AppendRow({Value::Int(1), Value::String("x")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Int(2), Value::Null()}).ok());
  EXPECT_EQ(t.num_rows(), 2);
  auto row = t.GetRow(1);
  EXPECT_EQ(row[0].AsInt(), 2);
  EXPECT_TRUE(row[1].is_null());
}

TEST(TableTest, AppendRowArityMismatch) {
  StringPool pool;
  Table t("t", Schema({{"a", DataType::kInt64}}), &pool);
  EXPECT_FALSE(t.AppendRow({Value::Int(1), Value::Int(2)}).ok());
}

TEST(CatalogTest, CreateFindDrop) {
  Catalog cat;
  auto r = cat.CreateTable("T1", Schema({{"a", DataType::kInt64}}));
  ASSERT_TRUE(r.ok());
  EXPECT_NE(cat.FindTable("t1"), nullptr);  // case-insensitive
  EXPECT_EQ(cat.FindTable("t2"), nullptr);
  EXPECT_FALSE(cat.CreateTable("t1", Schema()).ok());  // duplicate
  EXPECT_TRUE(cat.DropTable("T1").ok());
  EXPECT_FALSE(cat.DropTable("T1").ok());
  EXPECT_EQ(cat.FindTable("t1"), nullptr);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("zeta", Schema()).ok());
  ASSERT_TRUE(cat.CreateTable("alpha", Schema()).ok());
  EXPECT_EQ(cat.TableNames(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(CatalogTest, WritesCopyPinnedVersionsAndSharedColumns) {
  Catalog cat;
  Table* t = cat.CreateTable("t", Schema({{"a", DataType::kInt64},
                                          {"b", DataType::kInt64}}))
                 .value();
  ASSERT_TRUE(t->AppendRow({Value::Int(1), Value::Int(10)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Int(2), Value::Int(20)}).ok());
  auto no_log = [] { return Status::OK(); };
  auto set = [](int col, int64_t v) {
    return [col, v](Table* target) {
      return target->UpdateCell(0, col, Value::Int(v));
    };
  };

  // Unpinned: in place, the same version object.
  std::shared_ptr<Table> v0 = cat.Current("t");
  ASSERT_TRUE(cat.Write(v0, {1}, false, set(1, 11), no_log).ok());
  EXPECT_EQ(cat.Current("t"), v0);

  // Pinned: the write goes to a clone that copies only column b.
  std::shared_ptr<const Table> pin = cat.Pin("t");
  const uint64_t pinned_version = pin->data_version();
  ASSERT_TRUE(cat.Write(v0, {1}, false, set(1, 12), no_log).ok());
  std::shared_ptr<Table> v1 = cat.Current("t");
  ASSERT_NE(v1, v0);
  EXPECT_EQ(v1->id(), v0->id());
  EXPECT_GT(v1->data_version(), pinned_version);
  EXPECT_EQ(&v1->column(0), &pin->column(0));  // shared
  EXPECT_NE(&v1->column(1), &pin->column(1));  // copied
  EXPECT_EQ(pin->column(1).GetInt(0), 11);
  EXPECT_EQ(v1->column(1).GetInt(0), 12);

  // v1 is unpinned, so it is written in place, but column a is still
  // shared with the pinned v0 and must be copied first.
  ASSERT_TRUE(cat.Write(v1, {0}, false, set(0, 7), no_log).ok());
  EXPECT_EQ(cat.Current("t"), v1);
  EXPECT_EQ(v1->column(0).GetInt(0), 7);
  EXPECT_EQ(pin->column(0).GetInt(0), 1);
  EXPECT_EQ(pin->data_version(), pinned_version);

  // A write that changes nothing publishes nothing.
  std::shared_ptr<const Table> pin1 = cat.Pin("t");
  ASSERT_TRUE(
      cat.Write(v1, {}, true, [](Table*) { return Status::OK(); }, no_log)
          .ok());
  EXPECT_EQ(cat.Current("t"), v1);
}

}  // namespace
}  // namespace skinner
