// Base utility tests: geometry primitives, the deterministic RNG, the
// table formatter, JSON string escaping, and the contract macros.

#include <gtest/gtest.h>

#include <sstream>

#include "base/contracts.hpp"
#include "base/json.hpp"
#include "base/rng.hpp"
#include "base/table.hpp"
#include "base/types.hpp"

using namespace hemo;

TEST(Types, BoxVolumeAndContainment) {
  const Box box{{0, 0, 0}, {2, 3, 4}};
  EXPECT_EQ(box.volume(), 24);
  EXPECT_TRUE(box.contains({0, 0, 0}));
  EXPECT_TRUE(box.contains({1, 2, 3}));
  EXPECT_FALSE(box.contains({2, 0, 0}));  // hi is exclusive
  EXPECT_FALSE(box.contains({-1, 0, 0}));
}

TEST(Types, LongestAxisBreaksTiesLow) {
  EXPECT_EQ((Box{{0, 0, 0}, {5, 3, 3}}).longest_axis(), 0);
  EXPECT_EQ((Box{{0, 0, 0}, {3, 5, 3}}).longest_axis(), 1);
  EXPECT_EQ((Box{{0, 0, 0}, {3, 3, 5}}).longest_axis(), 2);
  EXPECT_EQ((Box{{0, 0, 0}, {4, 4, 4}}).longest_axis(), 0);
}

TEST(Types, Vec3Algebra) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ((a + b).z, 9.0);
  EXPECT_DOUBLE_EQ((b - a).x, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).y, 4.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 14.0);
}

TEST(Types, CoordHashSpreadsNearbyPoints) {
  const CoordHash hash;
  // Collision-free over a small dense block (sanity, not a guarantee).
  std::vector<std::size_t> seen;
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x) seen.push_back(hash(Coord{x, y, z}));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(Rng, DeterministicAcrossInstances) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDecorrelate) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRespectsBounds) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, MeanOfUniformIsCentered) {
  SplitMix64 rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Table, AlignedOutputPadsColumns) {
  Table t({"a", "long_header"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  std::ostringstream os;
  t.print_aligned(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a       long_header"), std::string::npos);
  EXPECT_NE(out.find("longer  2"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialFields) {
  Table t({"k", "v"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"with,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, NumTrimsTrailingZeros) {
  EXPECT_EQ(Table::num(1.5, 3), "1.5");
  EXPECT_EQ(Table::num(2.0, 3), "2");
  EXPECT_EQ(Table::num(0.125, 3), "0.125");
  EXPECT_EQ(Table::num(1234.0, 0), "1234");
}

TEST(Table, RowArityIsEnforced) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "Precondition");
}

TEST(Contracts, ExpectsAbortsWithDiagnostic) {
  EXPECT_DEATH(HEMO_EXPECTS(1 == 2), "Precondition violation");
  EXPECT_DEATH(HEMO_ENSURES(false), "Postcondition violation");
}

TEST(Json, EscapeCoversQuotesBackslashesAndEveryControlByte) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape("a\x01" "b"), "a\\u0001b");
  EXPECT_EQ(json_escape(std::string_view("a\0b", 3)), "a\\u0000b");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes
  // JSON forbids raw bytes below 0x20 inside a string.
  for (int c = 0; c < 0x20; ++c)
    for (const char out : json_escape(std::string(1, static_cast<char>(c))))
      EXPECT_GE(static_cast<unsigned char>(out), 0x20) << "byte " << c;
}
