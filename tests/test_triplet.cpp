#include "core/triplet.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/error.hpp"

namespace hpfnt {
namespace {

TEST(Triplet, DefaultIsSingleElementOne) {
  Triplet t;
  EXPECT_EQ(t.size(), 1);
  EXPECT_TRUE(t.contains(1));
  EXPECT_FALSE(t.contains(0));
}

TEST(Triplet, SizeMatchesFortranSectionFormula) {
  // MAX((upper - lower + stride) / stride, 0)
  EXPECT_EQ(Triplet(1, 10).size(), 10);
  EXPECT_EQ(Triplet(0, 10).size(), 11);
  EXPECT_EQ(Triplet(1, 10, 2).size(), 5);
  EXPECT_EQ(Triplet(1, 10, 3).size(), 4);   // 1,4,7,10
  EXPECT_EQ(Triplet(1, 9, 3).size(), 3);    // 1,4,7
  EXPECT_EQ(Triplet(10, 1, -1).size(), 10);
  EXPECT_EQ(Triplet(10, 1, -3).size(), 4);  // 10,7,4,1
  EXPECT_EQ(Triplet(5, 4).size(), 0);       // empty ascending
  EXPECT_EQ(Triplet(4, 5, -1).size(), 0);   // empty descending
}

TEST(Triplet, ZeroStrideIsRejected) {
  EXPECT_THROW(Triplet(1, 10, 0), MappingError);
}

TEST(Triplet, CountThatOverflowsAnExtentIsRejected) {
  constexpr Index1 kMax = std::numeric_limits<Index1>::max();
  constexpr Index1 kMin = std::numeric_limits<Index1>::min();
  // upper - lower wraps.
  EXPECT_THROW(Triplet(-kMax, kMax), MappingError);
  EXPECT_THROW(Triplet(kMax, -kMax, -1), MappingError);
  // upper - lower fits, adding the stride wraps.
  EXPECT_THROW(Triplet(0, kMax), MappingError);
  EXPECT_THROW(Triplet(0, kMin + 1, -2), MappingError);
  // The span fits but dividing it by -1 would not.
  EXPECT_THROW(Triplet(0, kMin + 1, -1), MappingError);
  // The widest counts that fit are kept.
  EXPECT_EQ(Triplet(1, kMax).size(), kMax);
  EXPECT_EQ(Triplet(-1, kMax - 2).size(), kMax);
  EXPECT_EQ(Triplet(0, kMin + 2, -1).size(), kMax);
}

TEST(Triplet, ContainsRespectsStridePhase) {
  Triplet t(2, 996, 2);  // the §8.1.2 section A(2:996:2)
  EXPECT_TRUE(t.contains(2));
  EXPECT_TRUE(t.contains(996));
  EXPECT_TRUE(t.contains(500));
  EXPECT_FALSE(t.contains(3));
  EXPECT_FALSE(t.contains(997));
  EXPECT_FALSE(t.contains(0));
}

TEST(Triplet, ContainsNegativeStride) {
  Triplet t(10, 2, -4);  // 10, 6, 2
  EXPECT_TRUE(t.contains(10));
  EXPECT_TRUE(t.contains(6));
  EXPECT_TRUE(t.contains(2));
  EXPECT_FALSE(t.contains(8));
  EXPECT_FALSE(t.contains(12));
}

TEST(Triplet, AtEnumeratesSequence) {
  Triplet t(2, 996, 2);
  EXPECT_EQ(t.at(0), 2);
  EXPECT_EQ(t.at(1), 4);
  EXPECT_EQ(t.at(t.size() - 1), 996);
}

TEST(Triplet, PositionOfInvertsAt) {
  Triplet t(5, 50, 5);
  for (Extent k = 0; k < t.size(); ++k) {
    EXPECT_EQ(t.position_of(t.at(k)), k);
  }
  EXPECT_THROW(t.position_of(6), MappingError);
}

TEST(Triplet, LastReachedElement) {
  EXPECT_EQ(Triplet(1, 10, 3).last(), 10);
  EXPECT_EQ(Triplet(1, 9, 3).last(), 7);
  EXPECT_EQ(Triplet(10, 1, -3).last(), 1);
  EXPECT_THROW(Triplet(5, 4).last(), MappingError);
}

TEST(Triplet, SingleFactory) {
  Triplet t = Triplet::single(42);
  EXPECT_EQ(t.size(), 1);
  EXPECT_TRUE(t.contains(42));
}

TEST(Triplet, SubsectionComposes) {
  Triplet outer(10, 30, 2);           // 10,12,...,30 (11 elements)
  Triplet inner(2, 4);                // positions 2..4
  Triplet sub = outer.subsection(inner);
  EXPECT_EQ(sub, Triplet(12, 16, 2));  // 12,14,16
}

TEST(Triplet, SubsectionWithStride) {
  Triplet outer(10, 30, 2);
  Triplet sub = outer.subsection(Triplet(1, 5, 2));  // positions 1,3,5
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.at(0), 10);
  EXPECT_EQ(sub.at(1), 14);
  EXPECT_EQ(sub.at(2), 18);
}

TEST(Triplet, SubsectionReversed) {
  Triplet outer(10, 30, 2);
  Triplet sub = outer.subsection(Triplet(5, 1, -2));  // positions 5,3,1
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.at(0), 18);
  EXPECT_EQ(sub.at(2), 10);
}

TEST(Triplet, SubsectionOutOfRangeThrows) {
  Triplet outer(1, 10);
  EXPECT_THROW(outer.subsection(Triplet(0, 3)), MappingError);
  EXPECT_THROW(outer.subsection(Triplet(8, 11)), MappingError);
}

TEST(Triplet, ToStringOmitsUnitStride) {
  EXPECT_EQ(Triplet(1, 10).to_string(), "1:10");
  EXPECT_EQ(Triplet(1, 10, 2).to_string(), "1:10:2");
  EXPECT_EQ(Triplet(10, 1, -1).to_string(), "10:1:-1");
}

TEST(Triplet, IsStandardMeansStrideOne) {
  EXPECT_TRUE(Triplet(0, 9).is_standard());
  EXPECT_FALSE(Triplet(0, 9, 2).is_standard());
  EXPECT_FALSE(Triplet(9, 0, -1).is_standard());
}

}  // namespace
}  // namespace hpfnt
