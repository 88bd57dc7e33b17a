#include "relational/database.h"

#include <gtest/gtest.h>

#include <string>

namespace hermes::relational {
namespace {

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  Result<Table*> t = db.CreateTable("t", Schema({{"x", ColumnType::kInt}}));
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_TRUE(db.GetTable("t").ok());
  EXPECT_EQ(db.CreateTable("t", Schema(std::vector<Column>{})).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.DropTable("t").ok());
  EXPECT_FALSE(db.HasTable("t"));
  EXPECT_TRUE(db.DropTable("t").IsNotFound());
}

TEST(DatabaseTest, LoadCsvWithTypes) {
  Database db;
  Result<Table*> t = db.LoadCsv("people", R"(name:string,age:int,score:double
'ann smith',34,1.5
bob,40,2
)");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t)->num_rows(), 2u);
  Value row0 = (*t)->RowAsStruct(0);
  EXPECT_EQ(*row0.GetAttr("name"), Value::Str("ann smith"));
  EXPECT_EQ(*row0.GetAttr("age"), Value::Int(34));
  EXPECT_EQ(*row0.GetAttr("score"), Value::Double(1.5));
  // Unquoted string and int-typed double field.
  Value row1 = (*t)->RowAsStruct(1);
  EXPECT_EQ(*row1.GetAttr("name"), Value::Str("bob"));
  EXPECT_EQ(*row1.GetAttr("score"), Value::Double(2.0));
}

TEST(DatabaseTest, LoadCsvDefaultTypeIsString) {
  Database db;
  Result<Table*> t = db.LoadCsv("t", "a,b\nx,y\n");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t)->schema().column(0).type, ColumnType::kString);
}

TEST(DatabaseTest, LoadCsvSkipsBlankAndCommentLines) {
  Database db;
  Result<Table*> t = db.LoadCsv("t", "a:int\n\n# comment\n1\n\n2\n");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t)->num_rows(), 2u);
}

TEST(DatabaseTest, LoadCsvBadArityFails) {
  Database db;
  EXPECT_FALSE(db.LoadCsv("t", "a:int,b:int\n1\n").ok());
}

TEST(DatabaseTest, LoadCsvBadTypeFails) {
  Database db;
  EXPECT_FALSE(db.LoadCsv("t", "a:int\nnot_a_number\n").ok());
  Database db2;
  EXPECT_FALSE(db2.LoadCsv("t", "a:frob\n1\n").ok());
  // A numeric field must parse whole and in range: no silent truncation,
  // and no exception out of the loader.
  for (const std::string& csv :
       {std::string("a:int\n1.5\n"),
        std::string("a:int\n99999999999999999999\n"),
        std::string("a:int\n-99999999999999999999\n"),
        "a:double\n1" + std::string(400, '0') + "\n"}) {
    Database fresh;
    Result<Table*> t = fresh.LoadCsv("t", csv);
    EXPECT_EQ(t.status().code(), StatusCode::kTypeError)
        << csv << ": " << t.status();
  }
}

TEST(DatabaseTest, LoadCsvBoolColumn) {
  Database db;
  Result<Table*> t = db.LoadCsv("t", "flag:bool\ntrue\n0\n");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t)->row(0)[0], Value::Bool(true));
  EXPECT_EQ((*t)->row(1)[0], Value::Bool(false));
}

TEST(DatabaseTest, TableNamesSorted) {
  Database db;
  (void)db.CreateTable("zz", Schema(std::vector<Column>{}));
  (void)db.CreateTable("aa", Schema(std::vector<Column>{}));
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"aa", "zz"}));
}

}  // namespace
}  // namespace hermes::relational
