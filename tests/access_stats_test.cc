// Unit tests for the Section 6 cost-model counters.

#include "gtest/gtest.h"
#include "src/storage/access_stats.h"

namespace idivm {
namespace {

TEST(AccessStatsTest, TotalCombinesAllCounters) {
  AccessStats s;
  s.index_lookups = 3;
  s.tuple_reads = 5;
  s.tuple_writes = 7;
  EXPECT_EQ(s.TotalAccesses(), 15);
}

TEST(AccessStatsTest, AddAndSubtract) {
  AccessStats a;
  a.index_lookups = 1;
  a.tuple_reads = 2;
  AccessStats b;
  b.tuple_reads = 10;
  b.tuple_writes = 4;
  a += b;
  EXPECT_EQ(a.index_lookups, 1);
  EXPECT_EQ(a.tuple_reads, 12);
  EXPECT_EQ(a.tuple_writes, 4);
  const AccessStats d = a - b;
  EXPECT_EQ(d.tuple_reads, 2);
  EXPECT_EQ(d.tuple_writes, 0);
}

TEST(AccessStatsTest, ResetAndToString) {
  AccessStats s;
  s.tuple_reads = 9;
  s.Reset();
  EXPECT_EQ(s.TotalAccesses(), 0);
  s.index_lookups = 2;
  EXPECT_NE(s.ToString().find("lookups=2"), std::string::npos);
}

// Sanity for the arena machinery itself: charges made under an arena reach
// the destination exactly once, on Publish, and nested arenas compose.
TEST(AccessStatsTest, StatsArenaPublishesExactlyOnce) {
  AccessStats real;
  StatsArena outer;
  {
    ScopedStatsArena outer_scope(&outer);
    {
      StatsArena inner;
      {
        ScopedStatsArena inner_scope(&inner);
        ChargeSink(&real).tuple_reads += 3;
        ChargeSink(&real).index_lookups += 2;
      }
      EXPECT_EQ(real.tuple_reads, 0);  // still deferred
      inner.Publish();  // lands in `outer`, not in `real`
    }
    EXPECT_EQ(real.tuple_reads, 0);
    EXPECT_EQ(outer.Sum(&real).tuple_reads, 3);
    EXPECT_EQ(outer.Sum(&real).index_lookups, 2);
  }
  outer.Publish();
  EXPECT_EQ(real.tuple_reads, 3);
  EXPECT_EQ(real.index_lookups, 2);
  EXPECT_EQ(real.tuple_writes, 0);
  outer.Publish();  // cleared by the first publish: must be a no-op
  EXPECT_EQ(real.tuple_reads, 3);
}

}  // namespace
}  // namespace idivm
