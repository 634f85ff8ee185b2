#include <gtest/gtest.h>

#include <set>

#include "common/block.h"
#include "common/expected.h"
#include "common/rng.h"
#include "common/types.h"

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/flat_map.h"

namespace gvfs {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Seconds(1), 1'000'000'000);
  EXPECT_EQ(Milliseconds(40), 40'000'000);
  EXPECT_EQ(Microseconds(3), 3'000);
  EXPECT_EQ(SecondsF(0.5), 500'000'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(42)), 42.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Milliseconds(1500)), 1.5);
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int, std::string> e = 42;
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(7), 42);
}

TEST(ExpectedTest, HoldsError) {
  Expected<int, std::string> e = Unexpected(std::string("boom"));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error(), "boom");
  EXPECT_EQ(e.value_or(7), 7);
}

TEST(ExpectedTest, VoidSpecialization) {
  Expected<void, int> ok{};
  EXPECT_TRUE(ok.has_value());
  Expected<void, int> bad = Unexpected(5);
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), 5);
}

TEST(ExpectedTest, MoveOnlyValue) {
  Expected<std::unique_ptr<int>, int> e = std::make_unique<int>(9);
  ASSERT_TRUE(e.has_value());
  auto p = std::move(e).value();
  EXPECT_EQ(*p, 9);
}

TEST(ExpectedTest, ArrowOperator) {
  Expected<std::string, int> e = std::string("hello");
  EXPECT_EQ(e->size(), 5u);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, RangeInclusiveBounds) {
  Rng r(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = r.Range(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, BelowBound) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Below(10), 10u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- FlatMap ---------------------------------------------------------------

TEST(FlatMapTest, InsertFindEraseBasics) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.Empty());
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_FALSE(m.Erase(7));

  m[7] = 70;
  m[8] = 80;
  EXPECT_EQ(m.Size(), 2u);
  ASSERT_NE(m.Find(7), nullptr);
  EXPECT_EQ(*m.Find(7), 70);
  m[7] = 71;  // overwrite through operator[]
  EXPECT_EQ(*m.Find(7), 71);
  EXPECT_EQ(m.Size(), 2u);

  EXPECT_TRUE(m.Erase(7));
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_FALSE(m.Erase(7));
  EXPECT_EQ(m.Size(), 1u);
  EXPECT_EQ(*m.Find(8), 80);
}

TEST(FlatMapTest, ExtractMovesValueOut) {
  FlatMap<std::uint32_t, std::unique_ptr<int>> m;
  m[5] = std::make_unique<int>(55);
  std::unique_ptr<int> out;
  EXPECT_FALSE(m.Extract(6, &out));
  EXPECT_TRUE(m.Extract(5, &out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 55);
  EXPECT_EQ(m.Find(5), nullptr);
  EXPECT_TRUE(m.Empty());
}

// Identity hash exposes the probe geometry: keys sharing a home slot form a
// cluster we can aim at the end of the table to exercise the wrapped case of
// backward-shift deletion.
struct IdentityHash {
  std::uint64_t operator()(std::uint64_t k) const { return k; }
};

TEST(FlatMapTest, BackwardShiftCompactsWrappedCluster) {
  FlatMap<std::uint64_t, int, IdentityHash> m;
  m[0] = 0;  // occupy slot 0 so the cluster's wrap is visible
  // Table capacity is 16 after the first insert: keys 14, 30, 46 all have
  // home slot 14, landing at slots 14, 15, 0(wrapped past key 0... probing
  // finds 1). Erasing 14 must backward-shift BOTH collided keys across the
  // wrap boundary, leaving every survivor findable.
  m[14] = 14;
  m[30] = 30;
  m[46] = 46;
  m[15] = 15;  // home 15, displaced by the cluster
  ASSERT_EQ(m.Size(), 5u);

  EXPECT_TRUE(m.Erase(14));
  EXPECT_EQ(m.Find(14), nullptr);
  for (std::uint64_t k : {0ull, 30ull, 46ull, 15ull}) {
    ASSERT_NE(m.Find(k), nullptr) << "lost key " << k << " after shift";
    EXPECT_EQ(*m.Find(k), static_cast<int>(k));
  }

  EXPECT_TRUE(m.Erase(30));
  EXPECT_TRUE(m.Erase(46));
  for (std::uint64_t k : {0ull, 15ull}) {
    ASSERT_NE(m.Find(k), nullptr);
    EXPECT_EQ(*m.Find(k), static_cast<int>(k));
  }
}

TEST(FlatMapTest, ChurnMatchesReferenceMap) {
  // The DRC workload in miniature: sustained insert/erase churn at steady
  // state, checked move-for-move against std::unordered_map. Narrow key
  // space forces collisions, clusters, and wraparound shifts.
  FlatMap<std::uint64_t, int> m;
  std::unordered_map<std::uint64_t, int> ref;
  Rng rng(0x5eed);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.Below(512);
    switch (rng.Below(3)) {
      case 0: {
        const int val = static_cast<int>(rng.Below(1 << 20));
        m[key] = val;
        ref[key] = val;
        break;
      }
      case 1: {
        EXPECT_EQ(m.Erase(key), ref.erase(key) > 0) << "step " << step;
        break;
      }
      default: {
        int* found = m.Find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.Size(), ref.size()) << "step " << step;
  }
  // Final contents must agree exactly.
  std::size_t visited = 0;
  m.ForEach([&](std::uint64_t k, int v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "phantom key " << k;
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

// --- BlockRef ----------------------------------------------------------------

TEST(BlockRefTest, CopiesShareOneBlock) {
  const BlockRef a = BlockRef::Copy(Bytes{1, 2, 3});
  EXPECT_FALSE(a.shared());
  {
    const BlockRef b = a;  // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_TRUE(a.shared());
    EXPECT_EQ(b.data(), a.data());
  }
  EXPECT_FALSE(a.shared());  // the copy released its count
  BlockRef moved = BlockRef::Copy(Bytes{9});
  BlockRef target = std::move(moved);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move): moved-from state is specified
  EXPECT_EQ(target, (Bytes{9}));
}

TEST(BlockRefTest, SliceSharesAndBoundsItsRange) {
  const BlockRef whole = BlockRef::Copy(Bytes{0, 1, 2, 3, 4, 5});
  const BlockRef mid = whole.Slice(2, 3);
  EXPECT_EQ(mid, (Bytes{2, 3, 4}));
  EXPECT_EQ(mid.data(), whole.data() + 2);
  EXPECT_TRUE(whole.shared());
  EXPECT_TRUE(whole.Slice(1, 0).empty());
}

TEST(BlockRefTest, MutableCopiesOnWriteWhenShared) {
  BlockRef writer = BlockRef::Copy(Bytes{1, 1, 1, 1});
  const BlockRef reader = writer;
  std::uint8_t* p = writer.Mutable(6, 8);  // grow while shared: clone
  p[0] = 7;
  p[5] = 8;
  EXPECT_EQ(writer, (Bytes{7, 1, 1, 1, 0, 8}));
  EXPECT_EQ(reader, (Bytes{1, 1, 1, 1}));  // untouched
  EXPECT_FALSE(reader.shared());
}

TEST(BlockRefTest, MutableWritesInPlaceWhenSoleOwner) {
  BlockRef only = BlockRef::Copy(Bytes{1, 2, 3, 4});
  const std::uint8_t* before = only.data();
  only.Mutable(2, 8)[1] = 9;  // shrink in place
  EXPECT_EQ(only, (Bytes{1, 9}));
  EXPECT_EQ(only.data(), before);
  // Regrowing inside the block's capacity zero-fills the re-exposed bytes.
  EXPECT_EQ(only.data(), only.Mutable(4, 8));
  EXPECT_EQ(only, (Bytes{1, 9, 0, 0}));
  // Past the capacity it must reallocate, keeping the bytes.
  only.Mutable(5, 8);
  EXPECT_EQ(only, (Bytes{1, 9, 0, 0, 0}));
}

TEST(BlockRefTest, SoleOwnerGrowthDoublesUpToLimit) {
  BlockRef only = BlockRef::Copy(Bytes{1});
  // Byte-at-a-time appends reallocate only when the capacity doubles:
  // 1 -> 2 -> 4 -> 8 bytes, then never past the 8-byte limit.
  std::vector<const std::uint8_t*> blocks{only.data()};
  for (std::size_t size = 2; size <= 8; ++size) {
    only.Mutable(size, 8)[size - 1] = static_cast<std::uint8_t>(size);
    if (only.data() != blocks.back()) blocks.push_back(only.data());
  }
  EXPECT_EQ(blocks.size(), 4u);
  EXPECT_EQ(only, (Bytes{1, 2, 3, 4, 5, 6, 7, 8}));
  // Growing past the limit takes exactly what is asked.
  only.Mutable(9, 8);
  EXPECT_EQ(only, (Bytes{1, 2, 3, 4, 5, 6, 7, 8, 0}));
  // A shared block still clones at its exact size, leaving the reader be.
  const BlockRef reader = only;
  only.Mutable(10, 64)[9] = 10;
  EXPECT_EQ(reader.size(), 9u);
  EXPECT_EQ(only[9], 10);
}

TEST(BlockRefTest, EmptyOwnsNothing) {
  const BlockRef empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(BlockRef::Copy(Bytes{}).empty());
}

}  // namespace
}  // namespace gvfs
