#include "core/dist_format.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/error.hpp"

namespace hpfnt {
namespace {

// ---------------------------------------------------------------------------
// BLOCK (§4.1.1): q = ceil(N/NP), owner(i) = ceil(i/q), local = i-(j-1)q.
// ---------------------------------------------------------------------------

TEST(BlockFormat, PaperFormulaSmallExample) {
  // N=10, NP=4: q = ceil(10/4) = 3 -> blocks 1-3, 4-6, 7-9, 10.
  DimMapping m = DimMapping::bind(DistFormat::block(), 10, 4);
  EXPECT_EQ(m.owner(1), 1);
  EXPECT_EQ(m.owner(3), 1);
  EXPECT_EQ(m.owner(4), 2);
  EXPECT_EQ(m.owner(9), 3);
  EXPECT_EQ(m.owner(10), 4);
  EXPECT_EQ(m.local_count(1), 3);
  EXPECT_EQ(m.local_count(4), 1);
}

TEST(BlockFormat, LocalIndexMatchesPaper) {
  // §4.1.1: local index of A(i) in R(j) is i - (j-1)*q.
  DimMapping m = DimMapping::bind(DistFormat::block(), 10, 4);
  EXPECT_EQ(m.local_index(1), 1);
  EXPECT_EQ(m.local_index(3), 3);
  EXPECT_EQ(m.local_index(4), 1);
  EXPECT_EQ(m.local_index(10), 1);
}

TEST(BlockFormat, TrailingProcessorsMayBeEmpty) {
  // HPF block with N=10, NP=8: q=2 -> processors 6..8 own 10-10=0... q=2,
  // blocks 1-2,...,9-10: exactly 5 non-empty processors.
  DimMapping m = DimMapping::bind(DistFormat::block(), 10, 8);
  EXPECT_EQ(m.local_count(5), 2);
  EXPECT_EQ(m.local_count(6), 0);
  EXPECT_EQ(m.local_count(8), 0);
}

TEST(BlockFormat, BlockRange) {
  DimMapping m = DimMapping::bind(DistFormat::block(), 10, 4);
  EXPECT_EQ(m.block_range(1), (std::pair<Index1, Index1>{1, 3}));
  EXPECT_EQ(m.block_range(4), (std::pair<Index1, Index1>{10, 10}));
}

// ---------------------------------------------------------------------------
// VIENNA_BLOCK: balanced blocks, sizes differing by at most one.
// ---------------------------------------------------------------------------

TEST(ViennaBlockFormat, BalancedSizes) {
  DimMapping m = DimMapping::bind(DistFormat::vienna_block(), 10, 4);
  EXPECT_EQ(m.local_count(1), 3);
  EXPECT_EQ(m.local_count(2), 3);
  EXPECT_EQ(m.local_count(3), 2);
  EXPECT_EQ(m.local_count(4), 2);
}

TEST(ViennaBlockFormat, NoEmptyProcessorsWhenNGeNP) {
  DimMapping m = DimMapping::bind(DistFormat::vienna_block(), 10, 8);
  for (Index1 p = 1; p <= 8; ++p) EXPECT_GE(m.local_count(p), 1);
}

TEST(ViennaBlockFormat, MoreProcessorsThanElements) {
  DimMapping m = DimMapping::bind(DistFormat::vienna_block(), 3, 8);
  EXPECT_EQ(m.owner(1), 1);
  EXPECT_EQ(m.owner(2), 2);
  EXPECT_EQ(m.owner(3), 3);
  EXPECT_EQ(m.local_count(4), 0);
}

TEST(ViennaBlockFormat, AgreesWithHpfBlockWhenDivisible) {
  // The §8.1.1 footnote: the two definitions coincide iff NP | N... for the
  // array being distributed they coincide exactly when NP divides N.
  DimMapping vienna = DimMapping::bind(DistFormat::vienna_block(), 16, 4);
  DimMapping hpf = DimMapping::bind(DistFormat::block(), 16, 4);
  for (Index1 i = 1; i <= 16; ++i) {
    EXPECT_EQ(vienna.owner(i), hpf.owner(i));
  }
}

TEST(ViennaBlockFormat, DiffersFromHpfBlockWhenNotDivisible) {
  DimMapping vienna = DimMapping::bind(DistFormat::vienna_block(), 10, 8);
  DimMapping hpf = DimMapping::bind(DistFormat::block(), 10, 8);
  bool any_diff = false;
  for (Index1 i = 1; i <= 10; ++i) {
    if (vienna.owner(i) != hpf.owner(i)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// GENERAL_BLOCK (§4.1.2): G(i) is the upper bound of block i.
// ---------------------------------------------------------------------------

TEST(GeneralBlockFormat, PaperBoundSemantics) {
  // NP=4, N=20, G = (3, 9, 14): blocks [1:3], [4:9], [10:14], [15:20].
  DimMapping m =
      DimMapping::bind(DistFormat::general_block({3, 9, 14}), 20, 4);
  EXPECT_EQ(m.owner(1), 1);
  EXPECT_EQ(m.owner(3), 1);
  EXPECT_EQ(m.owner(4), 2);
  EXPECT_EQ(m.owner(9), 2);
  EXPECT_EQ(m.owner(10), 3);
  EXPECT_EQ(m.owner(14), 3);
  EXPECT_EQ(m.owner(15), 4);
  EXPECT_EQ(m.owner(20), 4);
}

TEST(GeneralBlockFormat, LocalIndexWithinBlock) {
  DimMapping m =
      DimMapping::bind(DistFormat::general_block({3, 9, 14}), 20, 4);
  EXPECT_EQ(m.local_index(4), 1);
  EXPECT_EQ(m.local_index(9), 6);
  EXPECT_EQ(m.local_index(15), 1);
  EXPECT_EQ(m.local_index(20), 6);
}

TEST(GeneralBlockFormat, EmptyBlocksAllowed) {
  // G = (5, 5, 5): blocks [1:5], [], [], [6:12].
  DimMapping m = DimMapping::bind(DistFormat::general_block({5, 5, 5}), 12, 4);
  EXPECT_EQ(m.local_count(1), 5);
  EXPECT_EQ(m.local_count(2), 0);
  EXPECT_EQ(m.local_count(3), 0);
  EXPECT_EQ(m.local_count(4), 7);
  EXPECT_EQ(m.owner(6), 4);
}

TEST(GeneralBlockFormat, ExtraEntriesIgnored) {
  // §4.1.2: G has index domain [1:M] with M >= NP-1.
  DimMapping m = DimMapping::bind(
      DistFormat::general_block({3, 9, 14, 99, 100}), 20, 4);
  EXPECT_EQ(m.owner(20), 4);
}

TEST(GeneralBlockFormat, TooFewBoundsThrow) {
  EXPECT_THROW(DimMapping::bind(DistFormat::general_block({3, 9}), 20, 4),
               ConformanceError);
}

TEST(GeneralBlockFormat, DecreasingBoundsThrow) {
  EXPECT_THROW(
      DimMapping::bind(DistFormat::general_block({9, 3, 14}), 20, 4),
      ConformanceError);
  EXPECT_THROW(
      DimMapping::bind(DistFormat::general_block({3, 9, 25}), 20, 4),
      ConformanceError);
}

TEST(GeneralBlockFormat, FromSizes) {
  DimMapping m = DimMapping::bind(
      DistFormat::general_block_sizes({3, 6, 5, 6}), 20, 4);
  EXPECT_EQ(m.local_count(1), 3);
  EXPECT_EQ(m.local_count(2), 6);
  EXPECT_EQ(m.local_count(3), 5);
  EXPECT_EQ(m.local_count(4), 6);
}

TEST(GeneralBlockFormat, FromSizesRejectsAnOverflowingSum) {
  // Two sizes near INT64_MAX: their running sum leaves Extent's range.
  const Extent huge = std::numeric_limits<Extent>::max() - 1;
  EXPECT_THROW(DistFormat::general_block_sizes({huge, huge}),
               ConformanceError);
  EXPECT_THROW(DistFormat::general_block_sizes({1, huge, 2}),
               ConformanceError);
  // The largest representable sum is still accepted.
  EXPECT_NO_THROW(DistFormat::general_block_sizes({huge, 1}));
}

// ---------------------------------------------------------------------------
// CYCLIC(k) (§4.1.3).
// ---------------------------------------------------------------------------

TEST(CyclicFormat, CyclicOneRoundRobins) {
  DimMapping m = DimMapping::bind(DistFormat::cyclic(), 10, 3);
  EXPECT_EQ(m.owner(1), 1);
  EXPECT_EQ(m.owner(2), 2);
  EXPECT_EQ(m.owner(3), 3);
  EXPECT_EQ(m.owner(4), 1);
  EXPECT_EQ(m.owner(10), 1);
}

TEST(CyclicFormat, BlockCyclicSegments) {
  // CYCLIC(3), NP=2: 1-3 -> p1, 4-6 -> p2, 7-9 -> p1, 10 -> p2.
  DimMapping m = DimMapping::bind(DistFormat::cyclic(3), 10, 2);
  EXPECT_EQ(m.owner(1), 1);
  EXPECT_EQ(m.owner(3), 1);
  EXPECT_EQ(m.owner(4), 2);
  EXPECT_EQ(m.owner(7), 1);
  EXPECT_EQ(m.owner(10), 2);
  EXPECT_EQ(m.local_count(1), 6);
  EXPECT_EQ(m.local_count(2), 4);
}

TEST(CyclicFormat, LocalIndexPacksCycles) {
  DimMapping m = DimMapping::bind(DistFormat::cyclic(3), 10, 2);
  // p1 holds 1,2,3,7,8,9 at local 1..6.
  EXPECT_EQ(m.local_index(1), 1);
  EXPECT_EQ(m.local_index(3), 3);
  EXPECT_EQ(m.local_index(7), 4);
  EXPECT_EQ(m.local_index(9), 6);
  // p2 holds 4,5,6,10 at local 1..4.
  EXPECT_EQ(m.local_index(4), 1);
  EXPECT_EQ(m.local_index(10), 4);
}

TEST(CyclicFormat, KMustBePositive) {
  EXPECT_THROW(DistFormat::cyclic(0), ConformanceError);
  EXPECT_THROW(DistFormat::cyclic(-2), ConformanceError);
}

TEST(CyclicFormat, NonContiguousHasNoBlockRange) {
  DimMapping m = DimMapping::bind(DistFormat::cyclic(2), 10, 2);
  EXPECT_FALSE(m.is_contiguous());
  EXPECT_THROW(m.block_range(1), InternalError);
}

// ---------------------------------------------------------------------------
// Collapsed ":" and INDIRECT/USER extensions.
// ---------------------------------------------------------------------------

TEST(CollapsedFormat, EverythingOnPositionOne) {
  DimMapping m = DimMapping::bind(DistFormat::collapsed(), 10, 1);
  for (Index1 i = 1; i <= 10; ++i) {
    EXPECT_EQ(m.owner(i), 1);
    EXPECT_EQ(m.local_index(i), i);
  }
  EXPECT_EQ(m.local_count(1), 10);
}

TEST(IndirectFormat, FollowsOwnerMap) {
  DimMapping m = DimMapping::bind(
      DistFormat::indirect({2, 1, 2, 3, 1, 1}), 6, 3);
  EXPECT_EQ(m.owner(1), 2);
  EXPECT_EQ(m.owner(4), 3);
  EXPECT_EQ(m.local_count(1), 3);  // indices 2, 5, 6
  EXPECT_EQ(m.local_count(2), 2);
  EXPECT_EQ(m.local_count(3), 1);
  EXPECT_EQ(m.global_index(1, 1), 2);
  EXPECT_EQ(m.global_index(1, 2), 5);
  EXPECT_EQ(m.local_index(5), 2);
}

TEST(IndirectFormat, ValidatesMapLengthAndRange) {
  EXPECT_THROW(DimMapping::bind(DistFormat::indirect({1, 2}), 3, 2),
               ConformanceError);
  EXPECT_THROW(DimMapping::bind(DistFormat::indirect({1, 4, 2}), 3, 2),
               ConformanceError);
  EXPECT_THROW(DimMapping::bind(DistFormat::indirect({1, 0, 2}), 3, 2),
               ConformanceError);
}

TEST(UserDefinedFormat, SupportsReplication) {
  // §2.2: "every array element can be distributed to an arbitrary
  // (positive) number of processors".
  DistFormat f = DistFormat::user_defined(
      "mirror", [](Index1 i, Extent, Extent np) {
        DimOwnerSet owners;
        owners.push_back((i - 1) % np + 1);
        owners.push_back(np - (i - 1) % np);
        return owners;
      });
  DimMapping m = DimMapping::bind(f, 8, 4);
  EXPECT_TRUE(m.may_replicate());
  DimOwnerSet o = m.owners(1);
  EXPECT_EQ(o.size(), 2u);
  EXPECT_EQ(o[0], 1);
  EXPECT_EQ(o[1], 4);
}

TEST(UserDefinedFormat, UnsortedOwnerSetsElectMinimumPrimary) {
  // User functions return owner sets in arbitrary order; the primary
  // owner — the replica owner()/local_index() report and local addressing
  // buckets under — is the canonical *minimum* position, not whichever
  // replica the user listed first (regression: owner_of took
  // owners.front(), so {3,1} elected position 3).
  DistFormat f = DistFormat::user_defined(
      "rep31", [](Index1, Extent, Extent) {
        DimOwnerSet owners;
        owners.push_back(3);
        owners.push_back(1);
        return owners;
      });
  DimMapping m = DimMapping::bind(f, 6, 4);
  for (Index1 i = 1; i <= 6; ++i) {
    EXPECT_EQ(m.owner(i), 1) << "index " << i;
    // Local addressing follows the primary owner's bucket.
    EXPECT_EQ(m.local_index(i), i) << "index " << i;
    EXPECT_EQ(m.global_index(1, m.local_index(i)), i) << "index " << i;
  }
  // The full owner sets still observe the replication, in user order.
  EXPECT_EQ(m.owners(2).size(), 2u);
  EXPECT_EQ(m.owners(2)[0], 3);
  EXPECT_EQ(m.owners(2)[1], 1);
  // Both replicas store every element.
  EXPECT_EQ(m.local_count(1), 6);
  EXPECT_EQ(m.local_count(3), 6);
  EXPECT_EQ(m.local_count(2), 0);
}

TEST(UserDefinedFormat, ContentDigestIsOrderInsensitiveAndContentSensitive) {
  auto make = [](const char* name, bool reversed) {
    return DimMapping::bind(
        DistFormat::user_defined(
            name,
            [reversed](Index1, Extent, Extent) {
              DimOwnerSet owners;
              if (reversed) {
                owners.push_back(3);
                owners.push_back(1);
              } else {
                owners.push_back(1);
                owners.push_back(3);
              }
              return owners;
            }),
        8, 4);
  };
  // Same owner sets in different orders: same mapping, same digest — the
  // plan-key property two same-shaped bindings rely on to share plans.
  EXPECT_EQ(make("fwd", false).content_digest(),
            make("rev", true).content_digest());
  // A genuinely different mapping digests differently even under the same
  // name (DistFormat equality compares user formats by name only; the
  // digest must not).
  DimMapping other = DimMapping::bind(
      DistFormat::user_defined("fwd",
                               [](Index1, Extent, Extent) {
                                 DimOwnerSet owners;
                                 owners.push_back(2);
                                 return owners;
                               }),
      8, 4);
  EXPECT_NE(make("fwd", false).content_digest(), other.content_digest());
  // Memoized per binding: the second query returns the same value.
  DimMapping m = make("memo", false);
  EXPECT_EQ(m.content_digest(), m.content_digest());
  // Arithmetic formats need no digest and refuse to fake one.
  EXPECT_THROW(DimMapping::bind(DistFormat::block(), 8, 4).content_digest(),
               InternalError);
}

TEST(UserDefinedFormat, TotalityEnforced) {
  DistFormat f = DistFormat::user_defined(
      "partial", [](Index1 i, Extent, Extent) {
        DimOwnerSet owners;
        if (i != 3) owners.push_back(1);
        return owners;  // index 3 unmapped -> not total
      });
  EXPECT_THROW(DimMapping::bind(f, 8, 4), ConformanceError);
}

TEST(FormatSpec, ToStringRendering) {
  EXPECT_EQ(DistFormat::block().to_string(), "BLOCK");
  EXPECT_EQ(DistFormat::cyclic().to_string(), "CYCLIC");
  EXPECT_EQ(DistFormat::cyclic(4).to_string(), "CYCLIC(4)");
  EXPECT_EQ(DistFormat::collapsed().to_string(), ":");
  EXPECT_EQ(DistFormat::general_block({3, 9}).to_string(),
            "GENERAL_BLOCK(/3,9/)");
}

TEST(FormatSpec, Equality) {
  EXPECT_EQ(DistFormat::cyclic(3), DistFormat::cyclic(3));
  EXPECT_NE(DistFormat::cyclic(3), DistFormat::cyclic(4));
  EXPECT_NE(DistFormat::block(), DistFormat::vienna_block());
  EXPECT_EQ(DistFormat::general_block({3}), DistFormat::general_block({3}));
}

TEST(DimMapping, IndexRangeChecked) {
  DimMapping m = DimMapping::bind(DistFormat::block(), 10, 4);
  EXPECT_THROW(m.owner(0), MappingError);
  EXPECT_THROW(m.owner(11), MappingError);
  EXPECT_THROW(m.local_count(0), MappingError);
  EXPECT_THROW(m.local_count(5), MappingError);
  EXPECT_THROW(m.global_index(1, 4), MappingError);
}

}  // namespace
}  // namespace hpfnt
