#include "trace/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace ms::trace {
namespace {

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, RowCountAndValidation) {
  Table t({"a", "b"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, JsonEscapesControlBytes) {
  Table t({"a"});
  t.add_row({"x\x01y"});
  std::ostringstream os;
  t.write_json(os);
  EXPECT_NE(os.str().find("\"x\\u0001y\""), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find('\x01'), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::num(-1.5, 1), "-1.5");
}

TEST(AsciiChart, RendersSeriesAndLabels) {
  AsciiChart c("test chart", 40, 8);
  c.add_series("up", {1.0, 2.0, 3.0, 4.0});
  c.add_series("down", {4.0, 3.0, 2.0, 1.0});
  c.set_x_labels({"a", "b", "c", "d"});
  std::ostringstream os;
  c.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("test chart"), std::string::npos);
  EXPECT_NE(s.find("'*' = up"), std::string::npos);
  EXPECT_NE(s.find("'o' = down"), std::string::npos);
  EXPECT_NE(s.find("a, b, c, d"), std::string::npos);
}

TEST(AsciiChart, HandlesEmptyAndConstantSeries) {
  AsciiChart empty("empty");
  std::ostringstream os;
  empty.print(os);
  EXPECT_NE(os.str().find("no data"), std::string::npos);

  AsciiChart flat("flat");
  flat.add_series("c", {5.0, 5.0, 5.0});
  std::ostringstream os2;
  EXPECT_NO_THROW(flat.print(os2));
}

TEST(AsciiChart, SingleSample) {
  AsciiChart c("one");
  c.add_series("s", {42.0});
  std::ostringstream os;
  EXPECT_NO_THROW(c.print(os));
}

}  // namespace
}  // namespace ms::trace
