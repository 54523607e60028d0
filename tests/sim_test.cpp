#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "sim/energy_model.hpp"
#include "sim/network.hpp"
#include "sim/radio_model.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "sim/waves.hpp"
#include "test_util.hpp"
#include "util/task_pool.hpp"

namespace kspot::sim {
namespace {

// ------------------------------------------------------------------- Clock

TEST(ClockTest, AdvanceToIsMonotoneAndJumpToIsExact) {
  Clock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.AdvanceTo(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.AdvanceTo(40);  // never backwards
  EXPECT_EQ(clock.now(), 100u);
  clock.JumpTo(40);  // exactly, backwards included
  EXPECT_EQ(clock.now(), 40u);
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
  RoutingTree tree = kspot::testing::MinHopTree(t);
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

TEST(NetworkTest, DeadSenderStopsRetryingOnTheDownPath) {
  // Chain 0 -> 1 -> 2 where every frame is lost and the battery holds less
  // than one transmission: the sink dies on its first attempt and must not
  // keep transmitting (and being charged) for the remaining retries.
  Topology topology({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, {0, 0, 0}, 1.5);
  RoutingTree tree = RoutingTree::FromParents({kNoNode, 0, 1});
  NetworkOptions opt;
  opt.loss_prob = 1.0;
  opt.max_retries = 3;
  opt.battery_j = 1e-12;
  Network net(&topology, &tree, opt, util::Rng(5));
  EXPECT_FALSE(net.UnicastDownPath(1, 20));
  EXPECT_FALSE(net.NodeAlive(kSinkId));
  EXPECT_EQ(net.total().messages, 1u);
  EXPECT_EQ(net.MessagesSentBy(kSinkId), 1u);
}

TEST(NetworkDeathTest, LossOutsideZeroToOneAborts) {
  Topology topology({{0.0, 0.0}, {1.0, 0.0}}, {0, 0}, 1.5);
  RoutingTree tree = RoutingTree::FromParents({kNoNode, 0});
  for (double loss : {std::nan(""), -0.1, 1.5}) {
    NetworkOptions opt;
    opt.loss_prob = loss;
    EXPECT_DEATH(Network(&topology, &tree, opt, util::Rng(1)), "loss_prob .* outside \\[0, 1\\]");
  }
  for (double loss : {std::nan(""), -0.1, 1.5, 3.0}) {
    NetworkOptions opt;
    opt.edge_max_loss = loss;
    EXPECT_DEATH(Network(&topology, &tree, opt, util::Rng(1)),
                 "edge_max_loss .* outside \\[0, 1\\]");
  }
}

TEST(NetworkDeathTest, NegativeRetriesAbort) {
  Topology topology({{0.0, 0.0}, {1.0, 0.0}}, {0, 0}, 1.5);
  RoutingTree tree = RoutingTree::FromParents({kNoNode, 0});
  NetworkOptions opt;
  opt.max_retries = -1;
  EXPECT_DEATH(Network(&topology, &tree, opt, util::Rng(1)), "max_retries -1 is negative");
}

/// Unicasts, a broadcast and a control handshake of payloads on both sides
/// of each 29-byte frame boundary, then FNV-1a over every counter of the
/// total, every node's tx/rx energy bits and send count, and the clock.
uint64_t FrameBoundaryChargeDigest(NetworkOptions options) {
  auto bed = kspot::testing::TestBed::Grid(25, 4, 11, options);
  Network& net = *bed.net;
  const auto last = static_cast<NodeId>(bed.tree.num_nodes() - 1);
  const NodeId hop = bed.tree.children(kSinkId).front();
  for (size_t bytes : {0, 1, 29, 30, 58, 59, 300}) {
    net.UnicastToParent(last, bytes);
    net.UnicastUpPath(last, bytes);
    net.UnicastDownPath(last, bytes);
    net.BroadcastToChildren(kSinkId, bytes);
    net.BroadcastToChildren(hop, bytes);
    net.DeliverControl(hop, kSinkId, bytes);
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_double = [&mix](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  const TrafficCounters& c = net.total();
  for (uint64_t v : {c.messages, c.frames, c.payload_bytes, c.onair_bytes, c.retries,
                     c.backoff_us}) {
    mix(v);
  }
  mix_double(c.tx_energy_j);
  mix_double(c.rx_energy_j);
  for (NodeId id = 0; id < bed.tree.num_nodes(); ++id) {
    mix_double(net.meter(id).tx_joules());
    mix_double(net.meter(id).rx_joules());
    mix(net.MessagesSentBy(id));
  }
  mix(net.events().now());
  return h;
}

TEST(NetworkChargePinTest, FrameBoundaryChargesMatchRecordedDigests) {
  EXPECT_EQ(FrameBoundaryChargeDigest({}), 0x23df826101ec567dULL);
  // Lossy links under the flat ARQ loop and under the adaptive policy pin
  // the retry, backoff and partial-delivery charges as well.
  NetworkOptions flat;
  flat.loss_prob = 0.2;
  flat.max_retries = 2;
  EXPECT_EQ(FrameBoundaryChargeDigest(flat), 0x5b9ccbbb2cc2f285ULL);
  NetworkOptions adaptive = flat;
  adaptive.reliability.enabled = true;
  adaptive.max_retries = 3;  // the adaptive cap the digest was recorded with
  EXPECT_EQ(FrameBoundaryChargeDigest(adaptive), 0x2572f3d66359eb73ULL);
}

// -------------------------------------------------------------------- Waves

// ------------------------------------------------------------ ChargeLedger

/// One operator group's worth of traffic: a dissemination wave charged
/// before the group names its phase, then a converge-cast, a path relay and
/// a control handshake.
void GroupTraffic(Network& net, int salt) {
  DownWave<int>::Run(
      net, [&](NodeId, const int* in) -> std::optional<int> { return in ? *in : salt; },
      [](int) { return size_t{6}; });
  net.SetPhase(salt % 2 == 0 ? "ledger.even" : "ledger.odd");
  UpWave<int>::Run(
      net,
      [&](NodeId node, std::vector<int>&& inbox) -> std::optional<int> {
        int sum = static_cast<int>(node) + salt;
        for (int v : inbox) sum += v;
        return sum;
      },
      [](int v) { return static_cast<size_t>(4 + v % 37); });
  net.UnicastUpPath(static_cast<NodeId>(net.tree().num_nodes() - 1), 9 + salt);
  net.DeliverControl(net.tree().children(kSinkId).front(), kSinkId, 5);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void ExpectSameCounters(const TrafficCounters& a, const TrafficCounters& b) {
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.onair_bytes, b.onair_bytes);
  EXPECT_EQ(Bits(a.tx_energy_j), Bits(b.tx_energy_j));
  EXPECT_EQ(Bits(a.rx_energy_j), Bits(b.rx_energy_j));
}

TEST(ChargeLedgerTest, ReplayInOrderMatchesDirectChargesBitForBit) {
  auto direct = kspot::testing::TestBed::Grid(49, 8, 5);
  auto journaled = kspot::testing::TestBed::Grid(49, 8, 5);
  ASSERT_TRUE(journaled.net->CanJournalCharges());
  for (Network* net : {direct.net.get(), journaled.net.get()}) {
    net->SetPhase("ledger.before");
    net->events().JumpTo(1'000'000);
  }
  for (int g = 0; g < 3; ++g) GroupTraffic(*direct.net, g);

  // Three writers fill their ledgers concurrently, last group first.
  std::vector<ChargeLedger> ledgers(3);
  std::vector<std::thread> writers;
  for (int g = 2; g >= 0; --g) {
    writers.emplace_back([&, g] {
      Network::LedgerScope scope(*journaled.net, &ledgers[static_cast<size_t>(g)]);
      GroupTraffic(*journaled.net, g);
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(journaled.net->total().messages, 0u);  // nothing lands before replay
  for (const ChargeLedger& ledger : ledgers) journaled.net->Replay(ledger);

  ExpectSameCounters(journaled.net->total(), direct.net->total());
  auto want = direct.net->by_phase();
  auto got = journaled.net->by_phase();
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [phase, counters] : want) {
    SCOPED_TRACE(phase);
    ASSERT_EQ(got.count(phase), 1u);
    ExpectSameCounters(got.at(phase), counters);
  }
  for (NodeId id = 0; id < direct.tree.num_nodes(); ++id) {
    EXPECT_EQ(Bits(journaled.net->meter(id).tx_joules()), Bits(direct.net->meter(id).tx_joules()));
    EXPECT_EQ(Bits(journaled.net->meter(id).rx_joules()), Bits(direct.net->meter(id).rx_joules()));
    EXPECT_EQ(journaled.net->MessagesSentBy(id), direct.net->MessagesSentBy(id));
  }
  EXPECT_EQ(journaled.net->events().now(), direct.net->events().now());
  EXPECT_EQ(journaled.net->phase(), direct.net->phase());
}

TEST(ChargeLedgerTest, LaneLedgersReplayedPerBookingInWaveOrderMatchDirectCharges) {
  // Three lanes charge their subtrees' unicasts into their own ledgers on
  // three threads; the calling thread then walks the wave order, replaying
  // each lane node's booking and charging the nodes above the frontier
  // directly, as a split converge-cast does.
  auto direct = kspot::testing::TestBed::Grid(121, 9, 7);
  auto journaled = kspot::testing::TestBed::Grid(121, 9, 7);
  for (Network* net : {direct.net.get(), journaled.net.get()}) {
    net->SetPhase("lanes.wave");
    net->events().JumpTo(5'000);
  }
  auto bytes = [](NodeId node) { return static_cast<size_t>(3 + node % 41); };
  const RoutingTree& tree = journaled.tree;
  for (NodeId node : tree.wave_order()) {
    if (node != kSinkId) direct.net->UnicastToParent(node, bytes(node));
  }

  const std::shared_ptr<const WaveSplit> split_ptr = tree.SplitWave(3);
  const WaveSplit& split = *split_ptr;
  ASSERT_EQ(split.lane_size.size(), 3u);
  std::vector<ChargeLedger> ledgers(3);
  std::vector<std::vector<size_t>> marks(3);  // after each lane node
  std::vector<std::thread> lanes;
  for (size_t l = 0; l < 3; ++l) {
    ASSERT_GT(split.lane_size[l], 0u);
    lanes.emplace_back([&, l] {
      Network::LedgerScope scope(*journaled.net, &ledgers[l]);
      for (NodeId node : tree.wave_order()) {
        if (split.lane_of[node] != l + 1) continue;
        journaled.net->UnicastToParent(node, bytes(node));
        marks[l].push_back(ledgers[l].mark());
      }
    });
  }
  for (std::thread& lane : lanes) lane.join();
  EXPECT_EQ(journaled.net->total().messages, 0u);  // nothing lands before replay
  std::vector<ChargeLedger::Cursor> cursors(3);
  std::vector<size_t> next(3, 0);
  for (NodeId node : tree.wave_order()) {
    if (const size_t lane = split.lane_of[node]) {
      journaled.net->ReplayBookings(ledgers[lane - 1], cursors[lane - 1],
                                    marks[lane - 1][next[lane - 1]++]);
    } else if (node != kSinkId) {
      journaled.net->UnicastToParent(node, bytes(node));
    }
  }
  for (const ChargeLedger& ledger : ledgers) journaled.net->ReplayCounts(ledger);
  EXPECT_EQ(kspot::testing::ChargeDigest(*journaled.net), kspot::testing::ChargeDigest(*direct.net));
  EXPECT_EQ(journaled.net->total().messages, 120u);
}

TEST(ChargeLedgerTest, OnlyCommutingNetworksJournal) {
  EXPECT_TRUE(kspot::testing::TestBed::Grid(9, 4, 1).net->CanJournalCharges());
  NetworkOptions lossy;
  lossy.loss_prob = 0.1;
  EXPECT_FALSE(kspot::testing::TestBed::Grid(9, 4, 1, lossy).net->CanJournalCharges());
  NetworkOptions battery;
  battery.battery_j = 1.0;
  EXPECT_FALSE(kspot::testing::TestBed::Grid(9, 4, 1, battery).net->CanJournalCharges());
  NetworkOptions reliable;
  reliable.reliability.enabled = true;
  EXPECT_FALSE(kspot::testing::TestBed::Grid(9, 4, 1, reliable).net->CanJournalCharges());
}

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

TEST(WaveTest, SplitUpWaveMatchesSerialBitForBit) {
  // A lane-aware converge-cast with per-node wire sizes, once serially and
  // once split across a bound pool: same sink value, same charges.
  NetworkOptions opt;
  auto serial = kspot::testing::TestBed::Clustered(401, 12, 61, opt);
  auto split = kspot::testing::TestBed::Clustered(401, 12, 61, opt);
  using Msg = std::vector<NodeId>;  // the subtree's node ids, wave order
  auto run = [](Network& net) {
    net.SetPhase("split.test");
    UpWave<Msg>::Workspace ws;
    std::optional<Msg> sink;
    for (int round = 0; round < 3; ++round) {
      sink = UpWave<Msg>::Run(
          net,
          [&](NodeId node, std::vector<Msg>&& inbox, size_t) -> std::optional<Msg> {
            Msg out;
            for (Msg& child : inbox) out.insert(out.end(), child.begin(), child.end());
            out.push_back(node);
            if (node % 5 == static_cast<NodeId>(round)) return std::nullopt;  // suppressed
            return out;
          },
          [](const Msg& m) { return 2 + 2 * m.size(); }, &ws);
    }
    return sink;
  };
  auto want = run(*serial.net);
  util::SharedTaskPool pool;
  std::optional<Msg> got;
  {
    Network::PoolScope scope(*split.net, &pool);
    EXPECT_EQ(WaveLanes(*split.net), pool.pool.thread_count());
    got = run(*split.net);
  }
  EXPECT_EQ(WaveLanes(*split.net), 1u);
  ASSERT_TRUE(want.has_value());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(kspot::testing::ChargeDigest(*split.net), kspot::testing::ChargeDigest(*serial.net));
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
