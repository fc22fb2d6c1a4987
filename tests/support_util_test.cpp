#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "support/checked.hpp"
#include "support/error.hpp"
#include "support/inlinevec.hpp"
#include "support/prng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace tpdf::support {
namespace {

TEST(Checked, AddDetectsOverflow) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(checkedAdd(2, 3), 5);
  EXPECT_THROW(checkedAdd(max, 1), OverflowError);
}

TEST(Checked, SubDetectsOverflow) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(checkedSub(2, 5), -3);
  EXPECT_THROW(checkedSub(min, 1), OverflowError);
}

TEST(Checked, MulDetectsOverflow) {
  EXPECT_EQ(checkedMul(-4, 5), -20);
  EXPECT_THROW(checkedMul(std::int64_t{1} << 40, std::int64_t{1} << 40),
               OverflowError);
}

TEST(Checked, Gcd) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 7), 7);
  EXPECT_EQ(gcd64(0, 0), 0);
}

TEST(Checked, Lcm) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(0, 5), 0);
  EXPECT_EQ(lcm64(-4, 6), 12);
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("plain"), "plain");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(startsWith("channel", "chan"));
  EXPECT_FALSE(startsWith("ch", "chan"));
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(formatDouble(3.0), "3");
  EXPECT_EQ(formatDouble(12.5), "12.5");
}

/// What formatDouble printed before it went through std::to_chars: an
/// ostream at precision(digits).
std::string streamed(double v, int digits) {
  std::ostringstream os;
  os.precision(digits);
  os << v;
  return os.str();
}

TEST(Strings, FormatDoubleMatchesStreamPrecision) {
  std::vector<double> values{0.0,     -0.0,   1.0,     -1.0,   0.5,
                             1e-5,    1e-4,   99999.0, 1e5,    123456.0,
                             1234567.0, 1e15, 1e16,    1e300,  -2.5e-300,
                             4.9e-324, 1.7976931348623157e308,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN()};
  Prng rng(7);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<double>(rng.uniform(-100000, 2000000)));
    values.push_back(static_cast<double>(rng.uniform(0, 1 << 20)) / 64.0);
    values.push_back((rng.uniform01() - 0.5) *
                     std::pow(10.0, static_cast<double>(rng.uniform(-12, 12))));
    std::uint64_t bits = rng.next();
    double any = 0.0;
    std::memcpy(&any, &bits, sizeof(any));
    values.push_back(any);
  }
  for (const double v : values) {
    for (const int digits : {-1, 0, 1, 3, 4, 6, 9, 10, 15, 17, 25, 60}) {
      ASSERT_EQ(formatDouble(v, digits), streamed(v, digits))
          << "digits " << digits;
    }
  }
}

TEST(Table, RendersAlignedColumns) {
  Table t({"beta", "TPDF", "CSDF"});
  t.addRow({"10", "61443", "87050"});
  t.addRow({"100", "614403", "870500"});
  const std::string out = t.render();
  EXPECT_NE(out.find("beta | TPDF   | CSDF"), std::string::npos);
  EXPECT_NE(out.find("-----+-"), std::string::npos);
  EXPECT_NE(out.find("100  | 614403 | 870500"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b"});
  t.addRow({"x"});
  EXPECT_EQ(t.rowCount(), 1u);
  EXPECT_NE(t.render().find("x"), std::string::npos);
}

TEST(Table, OverlongRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.addRow({"x", "y"}), Error);
}

TEST(Prng, DeterministicForSeed) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Prng, UniformStaysInRange) {
  Prng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Prng, Uniform01StaysInUnitInterval) {
  Prng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Prng, GaussianHasReasonableMoments) {
  Prng rng(1234);
  double sum = 0.0;
  double sumSq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian();
    sum += v;
    sumSq += v * v;
  }
  const double mean = sum / n;
  const double var = sumSq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

// The SmallVec cases from before InlineVec absorbed it, kept under their
// original names and run on InlineVec's trivially copyable (memcpy) path.
using IntVec = InlineVec<int, 4>;

IntVec iota(int n) {
  IntVec v;
  for (int i = 0; i < n; ++i) v.push_back(i);
  return v;
}

TEST(SmallVec, GrowsPastInlineCapacity) {
  IntVec v;
  for (int i = 0; i < 100; ++i) {
    v.push_back(i);
    ASSERT_EQ(v.size(), static_cast<std::size_t>(i + 1));
    ASSERT_EQ(v.back(), i);
  }
  EXPECT_GE(v.capacity(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVec, PushBackOfOwnElementSurvivesGrowth) {
  IntVec v;
  for (int i = 0; i < 64; ++i) {
    // Intentionally alias the front while growth reallocates.
    v.push_back(v.empty() ? 7 : v.front());
  }
  for (const int x : v) EXPECT_EQ(x, 7);
}

TEST(SmallVec, CopyBetweenInlineAndHeapStates) {
  const IntVec small = iota(3);
  const IntVec big = iota(20);

  IntVec copy = small;  // inline -> inline
  EXPECT_EQ(copy, small);
  copy = big;  // grows to heap
  EXPECT_EQ(copy, big);
  copy = small;  // heap storage reused for a small payload
  EXPECT_EQ(copy, small);

  IntVec fromBig = big;  // fresh heap copy
  EXPECT_EQ(fromBig, big);
  IntVec& self = fromBig;  // launder: -Wself-assign-overloaded under Clang
  fromBig = self;
  EXPECT_EQ(fromBig, big);
}

TEST(SmallVec, MoveBetweenInlineAndHeapStates) {
  IntVec big = iota(20);
  IntVec stolen = std::move(big);  // heap move: pointer steal
  EXPECT_EQ(stolen, iota(20));
  EXPECT_TRUE(big.empty());  // NOLINT(bugprone-use-after-move)

  IntVec small = iota(2);
  IntVec movedSmall = std::move(small);  // inline move: element copy
  EXPECT_EQ(movedSmall, iota(2));

  movedSmall = std::move(stolen);  // move-assign heap over inline
  EXPECT_EQ(movedSmall, iota(20));
  stolen = iota(1);  // moved-from object is reusable
  EXPECT_EQ(stolen, iota(1));
}

TEST(SmallVec, ReserveResizeClear) {
  IntVec v = iota(6);
  v.reserve(50);
  EXPECT_GE(v.capacity(), 50u);
  EXPECT_EQ(v, iota(6));

  v.resize(10);  // zero-fills the new tail
  EXPECT_EQ(v.size(), 10u);
  for (std::size_t i = 6; i < 10; ++i) EXPECT_EQ(v[i], 0);

  v.resize(4);
  EXPECT_EQ(v, iota(4));
  v.clear();
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace tpdf::support
