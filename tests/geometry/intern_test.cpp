// Intern table bounding and combo-cache sharding.
//
// PR 2 left the intern table process-global and unbounded: every distinct
// polytope value ever interned kept a weak_ptr (and thus a live control
// block) in the table forever, so a long multi-instance run grew memory
// monotonically. The table is now LRU-bounded; these tests pin the bound,
// the LRU order, handle stability across eviction, and the per-thread
// ComboCache override the sharded service installs.
#include "geometry/intern.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geometry/polytope.hpp"
#include "geometry/vec.hpp"

namespace chc::geo {
namespace {

/// A distinct d=1 segment per index.
Polytope segment(double lo) {
  return Polytope::from_points({Vec{lo}, Vec{lo + 0.5}});
}

class InternTest : public ::testing::Test {
 protected:
  void SetUp() override { clear_intern_caches(); }
  void TearDown() override {
    set_intern_capacity(0);  // restore the builtin default
    clear_intern_caches();
  }
};

TEST_F(InternTest, TableSizeIsBoundedUnderLongRuns) {
  set_intern_capacity(8);
  std::vector<PolytopeHandle> live;  // keep every handle alive: worst case
  for (int i = 0; i < 200; ++i) {
    live.push_back(intern(segment(static_cast<double>(i))));
    EXPECT_LE(intern_table_size(), 8u) << "after intern #" << i;
  }
  const InternStats s = intern_stats();
  EXPECT_EQ(s.intern_misses, 200u);
  EXPECT_EQ(s.intern_evictions, 192u);
  // Live handles are untouched by eviction.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(live[static_cast<std::size_t>(i)]->vertices()[0][0],
              static_cast<double>(i));
  }
}

TEST_F(InternTest, EvictionIsLeastRecentlyUsed) {
  set_intern_capacity(2);
  const PolytopeHandle a = intern(segment(0.0));
  const PolytopeHandle b = intern(segment(1.0));
  // Touch a: b becomes the LRU victim when c arrives.
  EXPECT_EQ(intern(segment(0.0)).get(), a.get());
  const PolytopeHandle c = intern(segment(2.0));
  EXPECT_EQ(intern(segment(0.0)).get(), a.get());  // still canonical
  EXPECT_EQ(intern(segment(2.0)).get(), c.get());  // still canonical
  // b was evicted: re-interning its value mints a new canonical object.
  EXPECT_NE(intern(segment(1.0)).get(), b.get());
}

TEST_F(InternTest, ShrinkingCapacityEvictsImmediately) {
  set_intern_capacity(16);
  std::vector<PolytopeHandle> live;
  for (int i = 0; i < 16; ++i) {
    live.push_back(intern(segment(static_cast<double>(i))));
  }
  EXPECT_EQ(intern_table_size(), 16u);
  set_intern_capacity(4);
  EXPECT_EQ(intern_table_size(), 4u);
  EXPECT_EQ(intern_capacity(), 4u);
}

TEST_F(InternTest, ThreadLocalComboCacheIsUsedAndTransparent) {
  const std::vector<PolytopeHandle> ops = {intern(segment(0.0)),
                                           intern(segment(1.0))};
  // Baseline through the process-global cache.
  const PolytopeHandle global_result =
      equal_weight_combination_interned(ops);

  ComboCache local(4);
  ComboCache* prev = set_thread_combo_cache(&local);
  ASSERT_EQ(prev, nullptr);
  const InternStats before = intern_stats();
  const PolytopeHandle r1 = equal_weight_combination_interned(ops);
  const PolytopeHandle r2 = equal_weight_combination_interned(ops);
  set_thread_combo_cache(prev);

  // The local cache memoized (one miss, one hit) and, because operands are
  // interned, the recomputed value re-interned onto the same object the
  // global-cache run produced: the memo table choice is invisible in
  // results.
  const InternStats after = intern_stats();
  EXPECT_EQ(after.combo_misses, before.combo_misses + 1);
  EXPECT_EQ(after.combo_hits, before.combo_hits + 1);
  EXPECT_EQ(local.size(), 1u);
  EXPECT_EQ(r1.get(), r2.get());
  EXPECT_EQ(r1.get(), global_result.get());
}

TEST_F(InternTest, ComboCacheEvictionRecomputesIdenticalValue) {
  ComboCache local(1);
  ComboCache* prev = set_thread_combo_cache(&local);
  const std::vector<PolytopeHandle> ops_a = {intern(segment(0.0)),
                                             intern(segment(1.0))};
  const std::vector<PolytopeHandle> ops_b = {intern(segment(2.0)),
                                             intern(segment(3.0))};
  const PolytopeHandle a1 = equal_weight_combination_interned(ops_a);
  const PolytopeHandle b1 = equal_weight_combination_interned(ops_b);  // evicts a
  EXPECT_EQ(local.size(), 1u);
  const PolytopeHandle a2 = equal_weight_combination_interned(ops_a);  // miss
  set_thread_combo_cache(prev);
  EXPECT_EQ(a1.get(), a2.get()) << "recomputation re-interned a new value";
  EXPECT_NE(a1.get(), b1.get());
}

}  // namespace
}  // namespace chc::geo
