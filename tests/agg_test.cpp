#include <gtest/gtest.h>

#include <algorithm>

#include "agg/aggregate.hpp"
#include "agg/group_view.hpp"
#include "net/serializer.hpp"
#include "util/fixed_point.hpp"
#include "util/rng.hpp"

namespace kspot::agg {
namespace {

TEST(AggKindTest, NamesAndParsing) {
  EXPECT_EQ(AggKindName(AggKind::kAvg), "AVG");
  AggKind k;
  EXPECT_TRUE(ParseAggKind("average", &k));
  EXPECT_EQ(k, AggKind::kAvg);
  EXPECT_TRUE(ParseAggKind("MiN", &k));
  EXPECT_EQ(k, AggKind::kMin);
  EXPECT_FALSE(ParseAggKind("median", &k));
}

TEST(PartialAggTest, SingleValueFinals) {
  PartialAgg p = PartialAgg::FromValue(75.5);
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kAvg), 75.5);
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kSum), 75.5);
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kMin), 75.5);
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kMax), 75.5);
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kCount), 1.0);
}

TEST(PartialAggTest, MergeComputesAllAggregates) {
  PartialAgg p;
  for (double v : {40.0, 74.0, 39.0}) p.Merge(PartialAgg::FromValue(v));
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kAvg), 51.0);
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kSum), 153.0);
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kMin), 39.0);
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kMax), 74.0);
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kCount), 3.0);
}

TEST(PartialAggTest, MergeOrderInvariant) {
  // Any merge tree over the same multiset must produce identical partials —
  // the property that makes in-network aggregation exact.
  util::Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) {
    values.push_back(util::fixed_point::Quantize(rng.NextDouble(0, 100)));
  }
  PartialAgg sequential;
  for (double v : values) sequential.Merge(PartialAgg::FromValue(v));
  for (int trial = 0; trial < 10; ++trial) {
    auto shuffled = values;
    rng.Shuffle(shuffled);
    // Random binary merge tree: fold pairs.
    std::vector<PartialAgg> parts;
    for (double v : shuffled) parts.push_back(PartialAgg::FromValue(v));
    while (parts.size() > 1) {
      size_t i = rng.NextBounded(parts.size() - 1);
      parts[i].Merge(parts[i + 1]);
      parts.erase(parts.begin() + static_cast<long>(i) + 1);
    }
    EXPECT_EQ(parts[0].sum_fx, sequential.sum_fx);
    EXPECT_EQ(parts[0].count, sequential.count);
    EXPECT_EQ(parts[0].min_fx, sequential.min_fx);
    EXPECT_EQ(parts[0].max_fx, sequential.max_fx);
  }
}

TEST(PartialAggTest, EmptyMergeIsIdentity) {
  PartialAgg p = PartialAgg::FromValue(5);
  PartialAgg empty;
  p.Merge(empty);
  EXPECT_DOUBLE_EQ(p.Final(AggKind::kSum), 5.0);
  empty.Merge(p);
  EXPECT_DOUBLE_EQ(empty.Final(AggKind::kSum), 5.0);
}

TEST(GroupViewTest, AddAndRank) {
  GroupView v;
  v.AddReading(0, 74.0);   // A
  v.AddReading(0, 75.0);
  v.AddReading(2, 75.0);   // C
  v.AddReading(2, 75.0);
  v.AddReading(1, 41.0);   // B
  auto ranked = v.Ranked(AggKind::kAvg);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].group, 2);  // C: 75
  EXPECT_EQ(ranked[1].group, 0);  // A: 74.5
  EXPECT_EQ(ranked[2].group, 1);  // B: 41
}

TEST(GroupViewTest, TiesBreakByGroupId) {
  GroupView v;
  v.AddReading(5, 50.0);
  v.AddReading(3, 50.0);
  auto ranked = v.Ranked(AggKind::kAvg);
  EXPECT_EQ(ranked[0].group, 3);
  EXPECT_EQ(ranked[1].group, 5);
}

TEST(GroupViewTest, TopKTruncates) {
  GroupView v;
  for (int g = 0; g < 10; ++g) v.AddReading(g, g * 10.0);
  auto top3 = v.TopK(AggKind::kMax, 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].group, 9);
  EXPECT_EQ(top3[2].group, 7);
}

TEST(GroupViewTest, MergeViewAccumulates) {
  GroupView a, b;
  a.AddReading(1, 10.0);
  b.AddReading(1, 30.0);
  b.AddReading(2, 99.0);
  a.MergeView(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.Get(1).Final(AggKind::kAvg), 20.0);
  EXPECT_DOUBLE_EQ(a.Get(2).Final(AggKind::kAvg), 99.0);
}

TEST(GroupViewTest, PruneToLocalTopKReproducesWrongfulCut) {
  // Section III-A: s4 holds (B,41 avg of 40,42) and (D,39); naive top-1 cuts D.
  GroupView v;
  v.AddReading(1, 40.0);
  v.AddReading(1, 42.0);
  v.AddReading(3, 39.0);
  v.PruneToLocalTopK(AggKind::kAvg, 1);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_TRUE(v.Contains(1));
  EXPECT_FALSE(v.Contains(3));
}

TEST(GroupViewTest, EraseAndContains) {
  GroupView v;
  v.AddReading(7, 1.0);
  EXPECT_TRUE(v.Contains(7));
  v.Erase(7);
  EXPECT_FALSE(v.Contains(7));
  EXPECT_TRUE(v.empty());
}

// ------------------------------------------------- flat-map representation

TEST(GroupViewTest, EntriesStaySortedUnderRandomOps) {
  util::Rng rng(29);
  GroupView v;
  for (int i = 0; i < 500; ++i) {
    auto g = static_cast<sim::GroupId>(rng.NextBounded(40));
    switch (rng.NextBounded(3)) {
      case 0: v.AddReading(g, static_cast<double>(rng.NextBounded(100))); break;
      case 1: v.Set(g, PartialAgg::FromValue(5.0)); break;
      default: v.Erase(g); break;
    }
    for (size_t e = 1; e < v.entries().size(); ++e) {
      ASSERT_LT(v.entries()[e - 1].first, v.entries()[e].first);
    }
  }
}

TEST(GroupViewTest, SetOverwritesWhereMergeAccumulates) {
  GroupView v;
  v.AddReading(4, 10.0);
  v.MergePartial(4, PartialAgg::FromValue(20.0));
  EXPECT_DOUBLE_EQ(v.Get(4).Final(AggKind::kSum), 30.0);
  v.Set(4, PartialAgg::FromValue(7.0));
  EXPECT_DOUBLE_EQ(v.Get(4).Final(AggKind::kSum), 7.0);
  v.Set(9, PartialAgg::FromValue(1.0));  // insert via Set
  EXPECT_TRUE(v.Contains(9));
}

TEST(GroupViewTest, ApplyDeltaOverwritesInsertsAndRemoves) {
  GroupView v;
  for (sim::GroupId g : {2, 4, 6}) v.AddReading(g, 10.0);
  std::vector<GroupView::Entry> scratch;
  v.ApplyDelta({{1, PartialAgg::FromValue(1.0)}, {4, PartialAgg::FromValue(4.0)},
                {9, PartialAgg::FromValue(9.0)}},
               {3, 6}, &scratch);  // 3 is absent: ignored
  ASSERT_EQ(v.size(), 4u);
  std::vector<sim::GroupId> groups;
  for (const auto& [g, p] : v.entries()) groups.push_back(g);
  EXPECT_EQ(groups, (std::vector<sim::GroupId>{1, 2, 4, 9}));
  EXPECT_DOUBLE_EQ(v.Get(4).Final(AggKind::kSum), 4.0);
  EXPECT_DOUBLE_EQ(v.Get(2).Final(AggKind::kSum), 10.0);
  v.ApplyDelta({}, {}, &scratch);  // empty delta: no-op
  EXPECT_EQ(v.size(), 4u);
}

TEST(GroupViewDeathTest, ApplyDeltaAbortsOnUnsortedOrOverlappingDelta) {
  GroupView v;
  for (sim::GroupId g : {2, 4, 6}) v.AddReading(g, 10.0);
  std::vector<GroupView::Entry> scratch;
  PartialAgg p = PartialAgg::FromValue(1.0);
  EXPECT_DEATH(v.ApplyDelta({{5, p}, {3, p}}, {}, &scratch), "must ascend strictly");
  EXPECT_DEATH(v.ApplyDelta({{3, p}, {3, p}}, {}, &scratch), "must ascend strictly");
  EXPECT_DEATH(v.ApplyDelta({}, {6, 2}, &scratch), "must ascend strictly");
  EXPECT_DEATH(v.ApplyDelta({{1, p}, {4, p}}, {4}, &scratch), "disjoint");
  EXPECT_DEATH(v.ApplyDelta({{7, p}}, {1, 7}, &scratch), "disjoint");
}

TEST(GroupViewTest, FindReturnsNullWhenAbsent) {
  GroupView v;
  v.AddReading(2, 1.0);
  EXPECT_NE(v.Find(2), nullptr);
  EXPECT_EQ(v.Find(1), nullptr);
  EXPECT_EQ(v.Find(3), nullptr);
}

TEST(GroupViewTest, MergeDisjointAndOverlappingViews) {
  GroupView lo, hi, mixed;
  for (sim::GroupId g : {1, 3, 5}) lo.AddReading(g, 10.0);
  for (sim::GroupId g : {7, 8, 9}) hi.AddReading(g, 20.0);
  for (sim::GroupId g : {3, 7, 12}) mixed.AddReading(g, 5.0);
  GroupView merged = lo;
  merged.MergeView(hi);  // disjoint fast path (append)
  ASSERT_EQ(merged.size(), 6u);
  merged.MergeView(mixed);  // interleaved two-pointer path
  ASSERT_EQ(merged.size(), 7u);
  EXPECT_DOUBLE_EQ(merged.Get(3).Final(AggKind::kSum), 15.0);
  EXPECT_DOUBLE_EQ(merged.Get(7).Final(AggKind::kSum), 25.0);
  EXPECT_DOUBLE_EQ(merged.Get(12).Final(AggKind::kSum), 5.0);
  for (size_t e = 1; e < merged.entries().size(); ++e) {
    EXPECT_LT(merged.entries()[e - 1].first, merged.entries()[e].first);
  }
}

TEST(GroupViewTest, InterleavedMergeGrowsItsOwnBuffer) {
  GroupView view, other;
  for (sim::GroupId g : {2, 4, 6, 8}) view.AddReading(g, 1.0);
  for (sim::GroupId g : {1, 4, 5, 8, 9}) other.AddReading(g, 2.0);
  view.Reserve(16);
  const GroupView::Entry* buffer = view.entries().data();
  view.MergeView(other);
  EXPECT_EQ(view.entries().data(), buffer);  // merged in place, no new buffer
  std::vector<sim::GroupId> groups;
  for (const auto& [g, partial] : view.entries()) groups.push_back(g);
  EXPECT_EQ(groups, (std::vector<sim::GroupId>{1, 2, 4, 5, 6, 8, 9}));
  EXPECT_DOUBLE_EQ(view.Get(4).Final(AggKind::kSum), 3.0);
  EXPECT_EQ(view.Get(8).count, 2u);
  EXPECT_DOUBLE_EQ(view.Get(9).Final(AggKind::kSum), 2.0);
}

TEST(GroupViewTest, MergeEmptyViewsAndMoveSteal) {
  GroupView empty, full;
  full.AddReading(1, 4.0);
  GroupView target;
  target.MergeView(empty);  // empty into empty
  EXPECT_TRUE(target.empty());
  target.MergeView(full);  // copy into empty
  EXPECT_EQ(target.size(), 1u);
  target.MergeView(empty);  // empty into non-empty: no-op
  EXPECT_EQ(target.size(), 1u);
  GroupView stolen;
  stolen.MergeView(std::move(full));  // move into empty steals storage
  EXPECT_EQ(stolen.size(), 1u);
  EXPECT_DOUBLE_EQ(stolen.Get(1).Final(AggKind::kAvg), 4.0);
}

TEST(GroupViewTest, EraseDuringPruneKeepsExactSurvivors) {
  // The MINT pruning pattern: enumerate entries, collect victims, erase —
  // erasure must not disturb the survivors or the sorted order, including
  // when the victim set interleaves with the keep set.
  GroupView v;
  for (int g = 0; g < 20; ++g) v.AddReading(g, g % 2 == 0 ? 90.0 : 10.0);
  std::vector<sim::GroupId> victims;
  for (const auto& [g, partial] : v.entries()) {
    if (partial.Final(AggKind::kAvg) < 50.0) victims.push_back(g);
  }
  for (sim::GroupId g : victims) v.Erase(g);
  ASSERT_EQ(v.size(), 10u);
  for (const auto& [g, partial] : v.entries()) {
    EXPECT_EQ(g % 2, 0) << "odd group survived the prune";
    EXPECT_DOUBLE_EQ(partial.Final(AggKind::kAvg), 90.0);
  }
  v.PruneToLocalTopK(AggKind::kAvg, 3);  // ties on value: lowest group ids win
  ASSERT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.Contains(0));
  EXPECT_TRUE(v.Contains(2));
  EXPECT_TRUE(v.Contains(4));
}

TEST(GroupViewTest, TopKMatchesFullSortPrefix) {
  util::Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    GroupView v;
    size_t groups = 1 + rng.NextBounded(50);
    for (size_t g = 0; g < groups; ++g) {
      v.AddReading(static_cast<sim::GroupId>(g),
                   static_cast<double>(rng.NextBounded(10)));  // force value ties
    }
    auto ranked = v.Ranked(AggKind::kAvg);
    for (size_t k : {size_t{1}, size_t{3}, groups, groups + 5}) {
      auto top = v.TopK(AggKind::kAvg, k);
      std::vector<RankedItem> want(ranked.begin(),
                                   ranked.begin() + static_cast<long>(std::min(k, ranked.size())));
      EXPECT_EQ(top, want) << "k=" << k << " groups=" << groups;
    }
  }
}

class CodecTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(CodecTest, RoundTripPreservesFinals) {
  AggKind kind = GetParam();
  GroupView v;
  util::Rng rng(11);
  for (int g = 0; g < 20; ++g) {
    int readings = 1 + static_cast<int>(rng.NextBounded(5));
    for (int i = 0; i < readings; ++i) {
      v.AddReading(g, util::fixed_point::Quantize(rng.NextDouble(0, 100)));
    }
  }
  net::Writer w;
  codec::WriteView(w, kind, v);
  EXPECT_EQ(w.size(), codec::ViewWireBytes(kind, v.size()));
  net::Reader r(w.bytes());
  GroupView parsed;
  ASSERT_TRUE(codec::ReadView(r, kind, &parsed));
  ASSERT_EQ(parsed.size(), v.size());
  for (const auto& [g, partial] : v.entries()) {
    EXPECT_DOUBLE_EQ(parsed.Get(g).Final(kind), partial.Final(kind))
        << "group " << g << " kind " << AggKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CodecTest,
                         ::testing::Values(AggKind::kAvg, AggKind::kSum, AggKind::kMin,
                                           AggKind::kMax, AggKind::kCount),
                         [](const ::testing::TestParamInfo<AggKind>& info) {
                           return AggKindName(info.param);
                         });

TEST(CodecTest, ReadRejectsTruncated) {
  GroupView v;
  v.AddReading(1, 5.0);
  net::Writer w;
  codec::WriteView(w, AggKind::kAvg, v);
  auto bytes = w.bytes();
  bytes.pop_back();
  net::Reader r(bytes.data(), bytes.size());
  GroupView parsed;
  EXPECT_FALSE(codec::ReadView(r, AggKind::kAvg, &parsed));
}

TEST(CodecTest, MaxEntriesAreSmallest) {
  EXPECT_LT(codec::ViewWireBytes(AggKind::kMax, 10), codec::ViewWireBytes(AggKind::kAvg, 10));
  EXPECT_LT(codec::ViewWireBytes(AggKind::kCount, 10), codec::ViewWireBytes(AggKind::kMax, 10));
}

}  // namespace
}  // namespace kspot::agg
