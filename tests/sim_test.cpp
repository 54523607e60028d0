#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/energy_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/radio_model.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "sim/waves.hpp"
#include "test_util.hpp"

namespace kspot::sim {
namespace {

// -------------------------------------------------------------- EventQueue

TEST(EventQueueTest, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.RunUntilIdle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, TiesExecuteInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(7, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, HandlersCanScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1, [&] {
    ++fired;
    q.ScheduleAfter(5, [&] { ++fired; });
  });
  q.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 6u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(5, [&] { ++fired; });
  q.ScheduleAt(15, [&] { ++fired; });
  EXPECT_EQ(q.RunUntil(10), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  q.AdvanceTo(100);
  bool ran = false;
  q.ScheduleAt(5, [&] { ran = true; });
  q.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), 100u);
}

// ---------------------------------------------------------------- Topology

TEST(TopologyTest, GridIsConnectedAndRoomed) {
  TopologyOptions opt;
  opt.num_nodes = 100;
  opt.num_rooms = 16;
  Topology t = MakeGrid(opt);
  EXPECT_EQ(t.num_nodes(), 100u);
  EXPECT_TRUE(t.IsConnected());
  EXPECT_EQ(t.DistinctRooms().size(), 16u);
}

TEST(TopologyTest, UniformRandomConnected) {
  TopologyOptions opt;
  opt.num_nodes = 60;
  opt.num_rooms = 9;
  util::Rng rng(7);
  Topology t = MakeUniformRandom(opt, rng);
  EXPECT_EQ(t.num_nodes(), 60u);
  EXPECT_TRUE(t.IsConnected());
}

TEST(TopologyTest, ClusteredRoomsBalancedAndConnected) {
  TopologyOptions opt;
  opt.num_nodes = 61;  // sink + 60 sensors over 6 rooms
  opt.num_rooms = 6;
  util::Rng rng(11);
  Topology t = MakeClusteredRooms(opt, rng);
  EXPECT_TRUE(t.IsConnected());
  for (GroupId r : t.DistinctRooms()) {
    EXPECT_EQ(t.NodesInRoom(r).size(), 10u);
  }
}

TEST(TopologyTest, AdjacencyIsSymmetric) {
  TopologyOptions opt;
  opt.num_nodes = 30;
  util::Rng rng(13);
  Topology t = MakeUniformRandom(opt, rng);
  auto adj = t.BuildAdjacency();
  for (size_t u = 0; u < adj.size(); ++u) {
    for (NodeId v : adj[u]) {
      EXPECT_NE(std::find(adj[v].begin(), adj[v].end(), static_cast<NodeId>(u)), adj[v].end());
    }
  }
}

TEST(TopologyTest, Figure1MatchesPaper) {
  Topology t = MakeFigure1();
  EXPECT_EQ(t.num_nodes(), 10u);
  EXPECT_EQ(t.DistinctRooms().size(), 4u);
  // Room D holds s7, s8, s9.
  EXPECT_EQ(t.NodesInRoom(3), (std::vector<NodeId>{7, 8, 9}));
  // Readings from the figure.
  auto readings = Figure1Readings();
  EXPECT_DOUBLE_EQ(readings[7], 78.0);
  EXPECT_DOUBLE_EQ(readings[9], 39.0);
  EXPECT_EQ(Figure1RoomName(2), "C");
}

// ------------------------------------------------------------- RoutingTree

TEST(RoutingTreeTest, MinHopDepthsAreShortestPaths) {
  TopologyOptions opt;
  opt.num_nodes = 49;
  Topology t = MakeGrid(opt);
  RoutingTree tree = RoutingTree::BuildMinHop(t);
  EXPECT_EQ(tree.depth(kSinkId), 0);
  // Every non-sink node's parent is exactly one hop shallower.
  for (NodeId id = 1; id < t.num_nodes(); ++id) {
    EXPECT_EQ(tree.depth(id), tree.depth(tree.parent(id)) + 1);
    EXPECT_LE(Distance(t.position(id), t.position(tree.parent(id))), t.comm_range());
  }
}

TEST(RoutingTreeTest, FirstHeardCoversAllNodes) {
  TopologyOptions opt;
  opt.num_nodes = 80;
  util::Rng topo_rng(3);
  Topology t = MakeUniformRandom(opt, topo_rng);
  util::Rng rng(5);
  RoutingTree tree = RoutingTree::BuildFirstHeard(t, rng);
  for (NodeId id = 1; id < t.num_nodes(); ++id) {
    EXPECT_NE(tree.parent(id), kNoNode) << "node " << id << " not joined";
  }
}

TEST(RoutingTreeTest, PostOrderVisitsChildrenBeforeParents) {
  auto bed = kspot::testing::TestBed::Grid(64, 8, 17);
  const RoutingTree& tree = bed.tree;
  std::vector<int> position(tree.num_nodes(), -1);
  const auto& post = tree.post_order();
  for (size_t i = 0; i < post.size(); ++i) position[post[i]] = static_cast<int>(i);
  for (NodeId id = 1; id < tree.num_nodes(); ++id) {
    EXPECT_LT(position[id], position[tree.parent(id)]);
  }
  EXPECT_EQ(post.back(), kSinkId);
}

TEST(RoutingTreeTest, SubtreeSizesSumCorrectly) {
  auto bed = kspot::testing::TestBed::Grid(36, 4, 19);
  const RoutingTree& tree = bed.tree;
  EXPECT_EQ(tree.SubtreeSize(kSinkId), tree.num_nodes());
  size_t child_sum = 0;
  for (NodeId c : tree.children(kSinkId)) child_sum += tree.SubtreeSize(c);
  EXPECT_EQ(child_sum + 1, tree.num_nodes());
}

TEST(RoutingTreeTest, Figure1TreeShape) {
  RoutingTree tree = RoutingTree::FromParents(MakeFigure1Parents());
  EXPECT_EQ(tree.children(kSinkId), (std::vector<NodeId>{2, 4, 6}));
  EXPECT_EQ(tree.parent(9), 4);
  EXPECT_EQ(tree.parent(1), 4);
  EXPECT_EQ(tree.children(6), (std::vector<NodeId>{5, 7, 8}));
  EXPECT_EQ(tree.max_depth(), 2);
}

// -------------------------------------------------------------- RadioModel

TEST(RadioModelTest, FrameMath) {
  RadioModel r;
  EXPECT_EQ(r.FramesForPayload(0), 1u);
  EXPECT_EQ(r.FramesForPayload(29), 1u);
  EXPECT_EQ(r.FramesForPayload(30), 2u);
  EXPECT_EQ(r.FramesForPayload(58), 2u);
  EXPECT_EQ(r.FramesForPayload(59), 3u);
}

TEST(RadioModelTest, OnAirBytesIncludeOverheadPerFrame) {
  RadioModel r;
  size_t one = r.OnAirBytes(10);
  size_t two = r.OnAirBytes(40);
  EXPECT_EQ(one, 10 + r.frame_overhead_bytes + r.preamble_bytes);
  EXPECT_EQ(two, 40 + 2 * (r.frame_overhead_bytes + r.preamble_bytes));
}

TEST(RadioModelTest, AirtimeMatchesBitrate) {
  RadioModel r;
  // 38.4 kbit/s: 48 on-air bytes = 10 ms.
  double t = r.AirtimeSeconds(48 - r.frame_overhead_bytes - r.preamble_bytes);
  EXPECT_NEAR(t, 48.0 * 8.0 / 38400.0, 1e-12);
}

// -------------------------------------------------------------- EnergyModel

TEST(EnergyModelTest, TxCostsMoreThanRx) {
  EnergyModel e;
  EXPECT_GT(e.TxEnergy(0.01), e.RxEnergy(0.01));
  EXPECT_NEAR(e.TxEnergy(1.0), 3.0 * 0.027, 1e-12);
}

TEST(EnergyMeterTest, BatteryDepletionKillsNode) {
  EnergyMeter m(1.0);
  EXPECT_TRUE(m.alive());
  m.AddTx(0.6);
  EXPECT_TRUE(m.alive());
  EXPECT_NEAR(m.remaining_fraction(), 0.4, 1e-12);
  m.AddRx(0.5);
  EXPECT_FALSE(m.alive());
  EXPECT_EQ(m.remaining_fraction(), 0.0);
}

TEST(EnergyMeterTest, UnlimitedBatteryNeverDies) {
  EnergyMeter m(0.0);
  m.AddTx(1e9);
  EXPECT_TRUE(m.alive());
  EXPECT_EQ(m.remaining_fraction(), 1.0);
}

// ------------------------------------------------------------------ Network

TEST(NetworkTest, UnicastChargesBothEndsAndCounts) {
  auto bed = kspot::testing::TestBed::Grid(9, 4, 23);
  NodeId leaf = 0;
  for (NodeId id = 1; id < bed.tree.num_nodes(); ++id) {
    if (bed.tree.children(id).empty()) leaf = id;
  }
  ASSERT_NE(leaf, 0);
  EXPECT_TRUE(bed.net->UnicastToParent(leaf, 20));
  EXPECT_EQ(bed.net->total().messages, 1u);
  EXPECT_EQ(bed.net->total().payload_bytes, 20u);
  EXPECT_GT(bed.net->meter(leaf).tx_joules(), 0.0);
  EXPECT_GT(bed.net->meter(bed.tree.parent(leaf)).rx_joules(), 0.0);
}

TEST(NetworkTest, PhaseAttribution) {
  auto bed = kspot::testing::TestBed::Grid(9, 4, 29);
  bed.net->SetPhase("alpha");
  bed.net->UnicastToParent(5, 10);
  bed.net->SetPhase("beta");
  bed.net->UnicastToParent(5, 30);
  EXPECT_EQ(bed.net->PhaseTotal("alpha").payload_bytes, 10u);
  EXPECT_EQ(bed.net->PhaseTotal("beta").payload_bytes, 30u);
  EXPECT_EQ(bed.net->total().payload_bytes, 40u);
}

TEST(NetworkTest, TotalLossDropsEverything) {
  NetworkOptions opt;
  opt.loss_prob = 1.0;
  auto bed = kspot::testing::TestBed::Grid(9, 4, 31, opt);
  EXPECT_FALSE(bed.net->UnicastToParent(5, 10));
  // Transmission cost is still charged.
  EXPECT_EQ(bed.net->total().messages, 1u);
  EXPECT_EQ(bed.net->total().rx_energy_j, 0.0);
}

TEST(NetworkTest, RetriesImproveDelivery) {
  NetworkOptions lossy;
  lossy.loss_prob = 0.5;
  NetworkOptions retried = lossy;
  retried.max_retries = 5;
  int no_retry_ok = 0, retry_ok = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    auto a = kspot::testing::TestBed::Grid(9, 4, seed, lossy);
    auto b = kspot::testing::TestBed::Grid(9, 4, seed, retried);
    no_retry_ok += a.net->UnicastToParent(5, 10);
    retry_ok += b.net->UnicastToParent(5, 10);
  }
  EXPECT_GT(retry_ok, no_retry_ok);
  EXPECT_GE(retry_ok, 38);  // 1 - 0.5^6 per attempt
}

TEST(NetworkCopyTest, CopiesEvolveIndependently) {
  auto bed = kspot::testing::TestBed::Grid(49, 8, 7);
  Network copy = *bed.net;
  EXPECT_EQ(copy.total().messages, bed.net->total().messages);

  // Traffic on the original is invisible to the copy, and vice versa.
  NodeId leaf = bed.tree.wave_order().front();
  ASSERT_NE(leaf, kSinkId);
  uint64_t before = copy.total().messages;
  bed.net->SetPhase("copy.test");
  bed.net->UnicastToParent(leaf, 10);
  EXPECT_EQ(copy.total().messages, before);
  EXPECT_GT(bed.net->total().messages, before);

  copy.SetPhase("copy.test");
  copy.UnicastToParent(leaf, 10);
  copy.UnicastToParent(leaf, 10);
  EXPECT_EQ(copy.total().messages, before + 2);
  EXPECT_EQ(copy.MessagesSentBy(leaf), bed.net->MessagesSentBy(leaf) + 1);
}

TEST(NetworkTest, BroadcastReachesAllChildrenWhenLossless) {
  auto bed = kspot::testing::TestBed::Grid(16, 4, 37);
  auto delivered = bed.net->BroadcastToChildren(kSinkId, 12);
  EXPECT_EQ(delivered.size(), bed.tree.children(kSinkId).size());
  EXPECT_EQ(bed.net->total().messages, 1u);  // one tx regardless of fan-out
}

TEST(NetworkTest, PathPrimitivesTraverseHops) {
  auto bed = kspot::testing::TestBed::Grid(25, 4, 41);
  NodeId deep = 0;
  for (NodeId id = 1; id < bed.tree.num_nodes(); ++id) {
    if (bed.tree.depth(id) > bed.tree.depth(deep)) deep = id;
  }
  ASSERT_GT(bed.tree.depth(deep), 1);
  auto before = bed.net->total();
  EXPECT_TRUE(bed.net->UnicastUpPath(deep, 8));
  auto up = bed.net->total().Since(before);
  EXPECT_EQ(up.messages, static_cast<uint64_t>(bed.tree.depth(deep)));
  before = bed.net->total();
  EXPECT_TRUE(bed.net->UnicastDownPath(deep, 8));
  auto down = bed.net->total().Since(before);
  EXPECT_EQ(down.messages, static_cast<uint64_t>(bed.tree.depth(deep)));
}

// -------------------------------------------------------------------- Waves

TEST(WaveTest, UpWaveAggregatesWholeTree) {
  auto bed = kspot::testing::TestBed::Grid(49, 4, 43);
  using Msg = int;  // subtree node count
  auto produce = [&](NodeId, std::vector<Msg>&& inbox) -> std::optional<Msg> {
    int total = 1;
    for (int c : inbox) total += c;
    return total;
  };
  auto bytes = [](const Msg&) -> size_t { return 4; };
  auto sink = UpWave<Msg>::Run(*bed.net, produce, bytes);
  ASSERT_TRUE(sink.has_value());
  EXPECT_EQ(*sink, 49);
  // Every non-sink node transmitted exactly once.
  EXPECT_EQ(bed.net->total().messages, 48u);
}

TEST(WaveTest, UpWaveSuppressionCostsNothing) {
  auto bed = kspot::testing::TestBed::Grid(49, 4, 47);
  using Msg = int;
  auto produce = [&](NodeId node, std::vector<Msg>&&) -> std::optional<Msg> {
    if (node != kSinkId) return std::nullopt;  // everyone suppresses
    return 0;
  };
  auto bytes = [](const Msg&) -> size_t { return 4; };
  UpWave<Msg>::Run(*bed.net, produce, bytes);
  EXPECT_EQ(bed.net->total().messages, 0u);
}

TEST(WaveTest, DownWaveReachesEveryNode) {
  auto bed = kspot::testing::TestBed::Grid(49, 4, 53);
  using Msg = int;
  size_t received = 0;
  auto produce = [&](NodeId node, const Msg* incoming) -> std::optional<Msg> {
    if (node != kSinkId) {
      EXPECT_NE(incoming, nullptr);
      ++received;
    }
    return 1;
  };
  auto bytes = [](const Msg&) -> size_t { return 2; };
  size_t reached = DownWave<Msg>::Run(*bed.net, produce, bytes);
  EXPECT_EQ(reached, 49u);
  EXPECT_EQ(received, 48u);
  // Only nodes with children transmit.
  size_t inner = 0;
  for (NodeId id = 0; id < bed.tree.num_nodes(); ++id) {
    if (!bed.tree.children(id).empty()) ++inner;
  }
  EXPECT_EQ(bed.net->total().messages, inner);
}

TEST(WaveTest, DeadNodesSilenceSubtree) {
  NetworkOptions opt;
  opt.battery_j = 0.5;  // generous for radio traffic; drained manually below
  auto bed = kspot::testing::TestBed::Grid(9, 4, 59, opt);
  // Drain one of the sink's children.
  NodeId victim = bed.tree.children(kSinkId)[0];
  bed.net->meter(victim).AddTx(1.0);
  ASSERT_FALSE(bed.net->NodeAlive(victim));
  using Msg = int;
  auto produce = [&](NodeId, std::vector<Msg>&& inbox) -> std::optional<Msg> {
    int total = 1;
    for (int c : inbox) total += c;
    return total;
  };
  auto bytes = [](const Msg&) -> size_t { return 4; };
  auto sink = UpWave<Msg>::Run(*bed.net, produce, bytes);
  ASSERT_TRUE(sink.has_value());
  EXPECT_EQ(static_cast<size_t>(*sink), 9 - bed.tree.SubtreeSize(victim));
}

}  // namespace
}  // namespace kspot::sim
