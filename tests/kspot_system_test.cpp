#include <gtest/gtest.h>

#include "kspot/display_panel.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/server.hpp"
#include "kspot/system_panel.hpp"

namespace kspot::system {
namespace {

// ----------------------------------------------------------------- Scenario

TEST(ScenarioTest, TextRoundTrip) {
  Scenario s = Scenario::Figure1();
  std::string text = s.ToText();
  auto parsed = Scenario::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Scenario& p = parsed.value();
  EXPECT_EQ(p.name, "figure1");
  EXPECT_EQ(p.nodes.size(), 10u);
  EXPECT_EQ(p.ClusterName(2), "C");
  EXPECT_DOUBLE_EQ(p.comm_range, 8.0);
  EXPECT_EQ(p.modality, data::Modality::kSound);
}

TEST(ScenarioTest, FileRoundTrip) {
  Scenario s = Scenario::ConferenceFloor(6, 3, 7);
  std::string path = ::testing::TempDir() + "/kspot_scenario_test.kcfg";
  ASSERT_TRUE(s.Save(path));
  auto loaded = Scenario::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().nodes.size(), s.nodes.size());
  EXPECT_EQ(loaded.value().cluster_names.size(), 6u);
}

TEST(ScenarioTest, RejectsMalformedInput) {
  EXPECT_FALSE(Scenario::FromText("").ok());
  EXPECT_FALSE(Scenario::FromText("garbage directive\n").ok());
  EXPECT_FALSE(Scenario::FromText("node 1 0 0 0\n").ok());  // no sink
  EXPECT_FALSE(Scenario::FromText("modality warp\nnode 0 0 0 0\n").ok());
  EXPECT_FALSE(Scenario::Load("/nonexistent/path.kcfg").ok());
}

TEST(ScenarioTest, BuildTopologyMapsRooms) {
  Scenario s = Scenario::Figure1();
  sim::Topology t = s.BuildTopology();
  EXPECT_EQ(t.num_nodes(), 10u);
  EXPECT_EQ(t.room(9), 3);
  EXPECT_TRUE(t.IsConnected());
}

TEST(ScenarioTest, ConferenceFloorShape) {
  Scenario s = Scenario::ConferenceFloor(6, 4, 3);
  EXPECT_EQ(s.nodes.size(), 1 + 6 * 4);
  EXPECT_EQ(s.ClusterName(0), "Auditorium");
  sim::Topology t = s.BuildTopology();
  EXPECT_EQ(t.NodesInRoom(0).size(), 4u);
}

// -------------------------------------------------------------------- Panels

TEST(DisplayPanelTest, RendersMapAndBullets) {
  Scenario s = Scenario::Figure1();
  DisplayPanel panel(&s, 40, 12);
  std::string map = panel.RenderMap();
  EXPECT_NE(map.find('#'), std::string::npos);   // sink
  EXPECT_NE(map.find('C'), std::string::npos);   // a room-C sensor
  core::TopKResult result;
  result.epoch = 7;
  result.items = {{2, 75.0}, {0, 74.5}};
  std::string bullets = panel.RenderBullets(result);
  EXPECT_NE(bullets.find("(1) C 75.00"), std::string::npos);
  EXPECT_NE(bullets.find("(2) A 74.50"), std::string::npos);
  std::string frame = panel.RenderFrame(result);
  EXPECT_NE(frame.find("Display Panel"), std::string::npos);
}

TEST(SystemPanelTest, SavingsMath) {
  SystemPanel panel;
  sim::TrafficCounters kspot;
  kspot.messages = 25;
  kspot.payload_bytes = 500;
  kspot.tx_energy_j = 0.5;
  sim::TrafficCounters baseline;
  baseline.messages = 100;
  baseline.payload_bytes = 1000;
  baseline.tx_energy_j = 1.0;
  panel.RecordKspotEpoch(kspot);
  panel.RecordBaselineEpoch(baseline);
  EXPECT_DOUBLE_EQ(panel.MessageSavingsPercent(), 75.0);
  EXPECT_DOUBLE_EQ(panel.ByteSavingsPercent(), 50.0);
  EXPECT_DOUBLE_EQ(panel.EnergySavingsPercent(), 50.0);
  std::string text = panel.Render();
  EXPECT_NE(text.find("System Panel"), std::string::npos);
  EXPECT_NE(text.find("75.0%"), std::string::npos);
}

// -------------------------------------------------------------------- Server

KSpotServer::Options SmallRun(size_t epochs = 10) {
  KSpotServer::Options opt;
  opt.epochs = epochs;
  opt.seed = 99;
  return opt;
}

TEST(ServerTest, SnapshotTopKRunsMintAndSaves) {
  KSpotServer server(Scenario::ConferenceFloor(6, 3, 5), SmallRun(15));
  auto outcome =
      server.Execute("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid");
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  const RunOutcome& r = outcome.value();
  EXPECT_EQ(r.algorithm, "MINT");
  EXPECT_EQ(r.per_epoch.size(), 15u);
  for (const auto& epoch : r.per_epoch) EXPECT_EQ(epoch.items.size(), 3u);
  EXPECT_LT(r.cost.payload_bytes, r.baseline_cost.payload_bytes);
  EXPECT_GT(r.panel.ByteSavingsPercent(), 0.0);
}

TEST(ServerTest, BasicSelectRoutesToTag) {
  KSpotServer server(Scenario::ConferenceFloor(4, 3, 5), SmallRun(5));
  auto outcome = server.Execute("SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().algorithm, "TAG");
  EXPECT_EQ(outcome.value().query_class, query::QueryClass::kBasicSelect);
}

TEST(ServerTest, HistoricVerticalRoutesToTja) {
  // Historic queries are about *long* buffers (months of readings in the
  // paper's example); a window much larger than the candidate union is
  // TJA's regime.
  KSpotServer server(Scenario::ConferenceFloor(4, 3, 5), SmallRun());
  auto outcome = server.Execute(
      "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 128");
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  const RunOutcome& r = outcome.value();
  EXPECT_EQ(r.algorithm, "TJA");
  EXPECT_EQ(r.historic.items.size(), 3u);
  EXPECT_GE(r.historic.lsink_size, 3u);
  EXPECT_LT(r.cost.payload_bytes, r.baseline_cost.payload_bytes);
}

TEST(ServerTest, HistoricHorizontalRoutesToMintOverWindows) {
  KSpotServer server(Scenario::ConferenceFloor(4, 3, 5), SmallRun(8));
  auto outcome = server.Execute(
      "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8");
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome.value().algorithm, "MINT+history");
  EXPECT_EQ(outcome.value().per_epoch.size(), 8u);
}

TEST(ServerTest, SurfacesQueryErrors) {
  KSpotServer server(Scenario::ConferenceFloor(4, 3, 5), SmallRun());
  EXPECT_FALSE(server.Execute("SELECT").ok());
  EXPECT_FALSE(server.Execute("SELECT bogus FROM sensors").ok());
  EXPECT_FALSE(
      server.Execute("SELECT TOP 2 roomid, AVG(sound) FROM sensors").ok());  // no GROUP BY
}

TEST(ServerTest, ChurnOptionsDriveFaultInjectionAndNodeStatus) {
  // Moderate churn: at high crash rates MINT's per-repair view rebuilds
  // erode its savings (that trade-off is E14's subject, not this test's).
  KSpotServer::Options opt = SmallRun(40);
  opt.enable_churn = true;
  opt.churn.crash_prob = 0.005;
  opt.churn.mean_downtime = 8;
  KSpotServer server(Scenario::ConferenceFloor(6, 3, 5), opt);
  auto outcome =
      server.Execute("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid");
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  const RunOutcome& r = outcome.value();
  EXPECT_EQ(r.per_epoch.size(), 40u);
  // The System Panel surfaces node status once churn ran.
  const SystemPanel::NodeStatus& status = r.panel.node_status();
  EXPECT_EQ(status.total, server.scenario().nodes.size());
  EXPECT_GT(status.up, 0u);
  EXPECT_GT(status.repair_events, 0u);
  EXPECT_GT(status.repair_messages, 0u);
  EXPECT_NE(r.panel.Render().find("nodes up"), std::string::npos);
  EXPECT_NE(r.panel.Render().find("tree repairs"), std::string::npos);
  // Repair traffic is charged: the same plan hits both runs, and MINT still
  // undercuts the TAG shadow baseline.
  EXPECT_LT(r.cost.payload_bytes, r.baseline_cost.payload_bytes);
}

TEST(ServerTest, ChurnDisabledLeavesPanelStatusEmpty) {
  KSpotServer server(Scenario::ConferenceFloor(4, 3, 5), SmallRun(5));
  auto outcome =
      server.Execute("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().panel.node_status().total, 0u);
  EXPECT_EQ(outcome.value().panel.Render().find("nodes up"), std::string::npos);
}

/// Order- and run-independent digest of everything a query returned.
std::string OutcomeDigest(const RunOutcome& r) {
  char buf[96];
  std::string out;
  for (const auto& epoch : r.per_epoch) {
    for (const auto& item : epoch.items) {
      snprintf(buf, sizeof buf, "%d:%.17g;", item.group, item.value);
      out += buf;
    }
    out += '|';
  }
  for (const auto& rows : r.rows_per_epoch) {
    for (const auto& t : rows) {
      snprintf(buf, sizeof buf, "%u=%.17g;", t.node, t.value);
      out += buf;
    }
    out += '|';
  }
  for (const auto& item : r.historic.items) {
    snprintf(buf, sizeof buf, "H%d:%.17g;", item.group, item.value);
    out += buf;
  }
  snprintf(buf, sizeof buf, "m=%llu,b=%llu,E=%.17g",
           static_cast<unsigned long long>(r.cost.messages),
           static_cast<unsigned long long>(r.cost.payload_bytes), r.cost.energy_j());
  out += buf;
  return out;
}

TEST(ServerTest, ExecuteTwiceIsBitIdentical) {
  // The coordinator reuses one server-side deployment for many queries, so
  // Execute must never perturb state a later Execute reads: two sequential
  // calls with the same SQL and seed are bit-identical, per query class,
  // even interleaved with other queries and under churn + loss + batteries.
  KSpotServer::Options opt;
  opt.epochs = 12;
  opt.seed = 42;
  opt.loss_prob = 0.08;
  opt.max_retries = 1;
  opt.battery_j = 0.5;
  opt.enable_churn = true;
  opt.churn.crash_prob = 0.01;
  opt.churn.mean_downtime = 5;
  KSpotServer server(Scenario::ConferenceFloor(6, 3, 5), opt);
  const char* queries[] = {
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT nodeid, sound FROM sensors WHERE sound > 40",
      "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 64",
      "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8",
  };
  std::vector<std::string> first;
  for (const char* sql : queries) {
    auto outcome = server.Execute(sql);
    ASSERT_TRUE(outcome.ok()) << sql << ": " << outcome.status().message();
    first.push_back(OutcomeDigest(outcome.value()));
  }
  for (size_t i = 0; i < std::size(queries); ++i) {
    auto outcome = server.Execute(queries[i]);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(OutcomeDigest(outcome.value()), first[i]) << queries[i];
  }
  // And a fresh server over the same scenario/options reproduces them too.
  KSpotServer fresh(Scenario::ConferenceFloor(6, 3, 5), opt);
  auto outcome = fresh.Execute(queries[0]);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(OutcomeDigest(outcome.value()), first[0]);
}

TEST(ServerTest, StreamingCallbackFiresPerEpoch) {
  KSpotServer server(Scenario::ConferenceFloor(4, 3, 5), SmallRun(6));
  size_t calls = 0;
  auto outcome = server.ExecuteStreaming(
      "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      [&](const core::TopKResult&, const SystemPanel&) { ++calls; });
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(calls, 6u);
}

TEST(ServerTest, Figure1ScenarioEndToEnd) {
  KSpotServer::Options opt = SmallRun(3);
  opt.make_generator = [](const Scenario&, uint64_t) {
    return std::make_unique<data::ConstantGenerator>(sim::Figure1Readings());
  };
  KSpotServer server(Scenario::Figure1(), opt);
  auto outcome =
      server.Execute("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid");
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  for (const auto& epoch : outcome.value().per_epoch) {
    ASSERT_EQ(epoch.items.size(), 1u);
    EXPECT_EQ(epoch.items[0].group, 2);  // room C
    EXPECT_DOUBLE_EQ(epoch.items[0].value, 75.0);
  }
}

}  // namespace
}  // namespace kspot::system
