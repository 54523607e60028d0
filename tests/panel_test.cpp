/// Golden-string coverage for the two GUI text surfaces: the DisplayPanel
/// (floor map, KSpot-Bullet strip, routing-tree listing over the fully
/// deterministic Figure-1 scenario) and the SystemPanel (savings block, node
/// status, and the runtime-metrics pane fed by an obs::MetricsSnapshot).
/// Exact-string pinning is deliberate: these renders are the product's UI,
/// and formatting drift should be a conscious diff, not an accident.
#include <gtest/gtest.h>

#include "kspot/display_panel.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/system_panel.hpp"
#include "obs/metrics.hpp"
#include "sim/routing_tree.hpp"
#include "util/rng.hpp"

namespace kspot::system {
namespace {

// ------------------------------------------------------------ DisplayPanel

TEST(PanelGoldenTest, Figure1MapMatchesGolden) {
  Scenario s = Scenario::Figure1();
  DisplayPanel panel(&s, 20, 10);
  EXPECT_EQ(panel.RenderMap(),
            "+--------------------+\n"
            "|....................|\n"
            "|...A........C.......|\n"
            "|....................|\n"
            "|......A........C....|\n"
            "|.........#..........|\n"
            "|...B...........D....|\n"
            "|....................|\n"
            "|......B.....D..D....|\n"
            "|....................|\n"
            "|....................|\n"
            "+--------------------+\n");
}

TEST(PanelGoldenTest, BulletsFormatRankedClusters) {
  Scenario s = Scenario::Figure1();
  DisplayPanel panel(&s, 20, 10);
  core::TopKResult result;
  result.epoch = 5;
  result.items = {{/*group=*/0, /*value=*/75.5}, {/*group=*/2, /*value=*/60.0}};
  EXPECT_EQ(panel.RenderBullets(result),
            "KSpot Bullets [epoch 5]: (1) A 75.50   (2) C 60.00\n");

  core::TopKResult empty;
  empty.epoch = 0;
  EXPECT_EQ(panel.RenderBullets(empty),
            "KSpot Bullets [epoch 0]: (no ranked clusters yet)\n");
}

TEST(PanelGoldenTest, Figure1TreeMatchesGolden) {
  Scenario s = Scenario::Figure1();
  sim::Topology topo = s.BuildTopology();
  util::Rng rng(1);
  sim::RoutingTree tree = sim::RoutingTree::BuildClusterAware(topo, rng);
  DisplayPanel panel(&s, 20, 10);
  EXPECT_EQ(panel.RenderTree(tree),
            "s0 (sink)\n"
            "  s1 [B]\n"
            "  s3 [A]\n"
            "    s2 [A]\n"
            "  s4 [B]\n"
            "  s5 [C]\n"
            "  s6 [C]\n"
            "  s7 [D]\n"
            "    s9 [D]\n"
            "  s8 [D]\n");
}

// ------------------------------------------------------------- SystemPanel

sim::TrafficCounters Counters(uint64_t messages, uint64_t payload_bytes, double tx_j,
                              double rx_j) {
  sim::TrafficCounters c;
  c.messages = messages;
  c.payload_bytes = payload_bytes;
  c.tx_energy_j = tx_j;
  c.rx_energy_j = rx_j;
  return c;
}

TEST(PanelGoldenTest, SystemPanelSavingsBlock) {
  SystemPanel panel;
  panel.RecordKspotEpoch(Counters(60, 1200, 0.006, 0.004));
  panel.RecordBaselineEpoch(Counters(100, 2000, 0.012, 0.008));
  EXPECT_DOUBLE_EQ(panel.MessageSavingsPercent(), 40.0);
  EXPECT_DOUBLE_EQ(panel.ByteSavingsPercent(), 40.0);
  EXPECT_DOUBLE_EQ(panel.EnergySavingsPercent(), 50.0);
  EXPECT_EQ(panel.Render(),
            "=== KSpot System Panel (cumulative over 1 epochs) ===\n"
            "              KSpot        baseline(TAG)   savings\n"
            "  messages    60          100        40.0%\n"
            "  bytes       1200       2000     40.0%\n"
            "  energy (J)  0.0100      0.0200      50.0%\n");
}

TEST(PanelGoldenTest, SystemPanelNodeStatusLine) {
  SystemPanel panel;
  panel.RecordKspotEpoch(Counters(10, 100, 0.0, 0.0));
  SystemPanel::NodeStatus status;
  status.total = 10;
  status.up = 9;
  status.detached = 1;
  status.repair_events = 2;
  status.repair_messages = 34;
  panel.RecordNodeStatus(status);
  EXPECT_EQ(panel.Render(),
            "=== KSpot System Panel (cumulative over 1 epochs) ===\n"
            "              KSpot        baseline(TAG)   savings\n"
            "  messages    10          0        0.0%\n"
            "  bytes       100       0     0.0%\n"
            "  energy (J)  0.0000      0.0000      0.0%\n"
            "  nodes up    9/10 (1 detached)   tree repairs 2 (34 msgs)\n");
}

TEST(PanelGoldenTest, SystemPanelMetricsPane) {
  SystemPanel panel;
  panel.RecordKspotEpoch(Counters(10, 100, 0.0, 0.0));

  // A hand-built snapshot (not the live registry) keeps the golden immune to
  // whatever other tests in this binary record.
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"coord.epochs", "", 16});
  snap.counters.push_back({"fanout.deliveries", "q=1", 42});
  snap.gauges.push_back({"test.level", "", 1.25});
  obs::HistogramSample h;
  h.name = "coord.step_us";
  h.dist.count = 3;
  h.dist.min = 150.0;
  h.dist.max = 400.0;
  h.dist.mean = 250.0;
  h.dist.sum = 750.0;
  h.dist.p50 = 180.0;
  h.dist.p95 = 390.0;
  h.dist.p99 = 398.0;
  snap.histograms.push_back(h);
  panel.RecordMetrics(snap);

  EXPECT_EQ(panel.Render(),
            "=== KSpot System Panel (cumulative over 1 epochs) ===\n"
            "              KSpot        baseline(TAG)   savings\n"
            "  messages    10          0        0.0%\n"
            "  bytes       100       0     0.0%\n"
            "  energy (J)  0.0000      0.0000      0.0%\n"
            "  --- runtime metrics ---\n"
            "  counter  coord.epochs = 16\n"
            "  counter  fanout.deliveries{q=1} = 42\n"
            "  gauge    test.level = 1.250\n"
            "  histo    coord.step_us n=3 mean=250.0 p50=180.0 p95=390.0 p99=398.0\n");

  // An empty snapshot removes the pane again (latest-wins contract).
  panel.RecordMetrics(obs::MetricsSnapshot{});
  EXPECT_EQ(panel.Render().find("runtime metrics"), std::string::npos);
}

}  // namespace
}  // namespace kspot::system
