/// Unit coverage for the observability layer: the metric primitives and
/// their gating on the process-global switches, the log-bucketed histogram's
/// quantile math, registry handle identity and snapshot/JSON shape, and the
/// tracer's interning, ring wrap-around, and Chrome trace export — plus the
/// coordinator's concurrent-epoch counter and its worker-thread spans, and
/// the set-up spans: network build, fault-plan generation, operator
/// construction, and a vertical bind's window and TJA run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kspot/coordinator.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/json_value.hpp"

namespace kspot::obs {
namespace {

/// The switches are process-global, so every test that flips them restores
/// the previous state on exit — tests stay order-independent.
class ObsFlagGuard {
 public:
  ObsFlagGuard() : metrics_(MetricsOn()), tracing_(TracingOn()) {}
  ~ObsFlagGuard() {
    SetMetricsEnabled(metrics_);
    SetTracingEnabled(tracing_);
  }

 private:
  bool metrics_;
  bool tracing_;
};

// ------------------------------------------------------------------ gating

TEST(ObsTest, SwitchesDefaultOffAndToggle) {
  ObsFlagGuard guard;
  SetMetricsEnabled(false);
  SetTracingEnabled(false);
  EXPECT_FALSE(MetricsOn());
  EXPECT_FALSE(TracingOn());
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsOn());
  EXPECT_FALSE(TracingOn());  // independent switches
  SetTracingEnabled(true);
  EXPECT_TRUE(TracingOn());
}

TEST(ObsTest, CounterGaugeHistogramAreNoOpsWhileDisabled) {
  ObsFlagGuard guard;
  SetMetricsEnabled(false);
  Counter c;
  Gauge g;
  Histogram h;
  c.Add(5);
  g.Set(3.5);
  h.Observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);

  SetMetricsEnabled(true);
  c.Add(5);
  c.Add();
  g.Set(3.5);
  h.Observe(1.0);
  EXPECT_EQ(c.value(), 6u);
  EXPECT_EQ(g.value(), 3.5);
  EXPECT_EQ(h.count(), 1u);
}

TEST(ObsTest, NowMicrosIsMonotone) {
  uint64_t a = NowMicros();
  uint64_t b = NowMicros();
  EXPECT_LE(a, b);
}

// --------------------------------------------------------------- histogram

TEST(ObsTest, HistogramBucketBoundsAreMonotoneAndConsistent) {
  // Every finite positive value must land in a bucket whose lower bound is
  // <= the value, with the next bucket's bound above it.
  for (double v : {1e-4, 0.001, 0.5, 1.0, 1.5, 2.0, 3.0, 1000.0, 1e6, 1e12}) {
    size_t b = Histogram::BucketFor(v);
    ASSERT_LT(b, Histogram::kBucketCount);
    EXPECT_LE(Histogram::BucketLowerBound(b), v) << v;
    if (b + 1 < Histogram::kBucketCount) {
      EXPECT_GT(Histogram::BucketLowerBound(b + 1), v) << v;
    }
  }
  // Non-positive and tiny values underflow to bucket 0.
  EXPECT_EQ(Histogram::BucketFor(0.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(-1.0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0.0);
  // Huge values saturate into the overflow bucket instead of indexing out.
  EXPECT_EQ(Histogram::BucketFor(1e300), Histogram::kBucketCount - 1);
}

TEST(ObsTest, HistogramSnapshotEmptyAndSingle) {
  ObsFlagGuard guard;
  SetMetricsEnabled(true);
  Histogram h;
  util::DistSummary empty = h.Snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50, 0.0);
  EXPECT_EQ(empty.p99, 0.0);

  h.Observe(42.0);
  util::DistSummary one = h.Snapshot();
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.min, 42.0);
  EXPECT_DOUBLE_EQ(one.max, 42.0);
  EXPECT_DOUBLE_EQ(one.mean, 42.0);
  // A single sample IS every quantile, exactly.
  EXPECT_DOUBLE_EQ(one.p50, 42.0);
  EXPECT_DOUBLE_EQ(one.p95, 42.0);
  EXPECT_DOUBLE_EQ(one.p99, 42.0);
}

TEST(ObsTest, HistogramQuantilesWithinBucketTolerance) {
  ObsFlagGuard guard;
  SetMetricsEnabled(true);
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  util::DistSummary s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_NEAR(s.mean, 500.5, 1e-9);
  // Log-bucketed quantiles are exact only to the bucket's relative width
  // (1/kSubBuckets per power of two => ~19% worst case); allow 25%.
  EXPECT_NEAR(s.p50, 500.0, 0.25 * 500.0);
  EXPECT_NEAR(s.p95, 950.0, 0.25 * 950.0);
  EXPECT_NEAR(s.p99, 990.0, 0.25 * 990.0);
  // Quantiles never escape the observed range.
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
}

TEST(ObsTest, HistogramResetZeroes) {
  ObsFlagGuard guard;
  SetMetricsEnabled(true);
  Histogram h;
  h.Observe(10.0);
  h.Observe(20.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Snapshot().count, 0u);
  h.Observe(5.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().min, 5.0);
}

// ---------------------------------------------------------------- registry

TEST(ObsTest, RegistryReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("test.hits", "k=1");
  Counter& b = reg.counter("test.hits", "k=1");
  EXPECT_EQ(&a, &b);  // same (name, label) => same handle
  Counter& c = reg.counter("test.hits", "k=2");
  EXPECT_NE(&a, &c);  // labels are distinct series
  Gauge& g1 = reg.gauge("test.level");
  Gauge& g2 = reg.gauge("test.level");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = reg.histogram("test.lat");
  Histogram& h2 = reg.histogram("test.lat");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsTest, RegistrySnapshotSortedAndJsonParses) {
  ObsFlagGuard guard;
  SetMetricsEnabled(true);
  MetricsRegistry reg;
  reg.counter("zz.last").Add(7);
  reg.counter("aa.first").Add(3);
  reg.gauge("mid.level").Set(1.25);
  reg.histogram("lat.us").Observe(100.0);
  reg.histogram("lat.us").Observe(200.0);

  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "aa.first");
  EXPECT_EQ(snap.counters[0].value, 3u);
  EXPECT_EQ(snap.counters[1].name, "zz.last");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.25);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].dist.count, 2u);
  EXPECT_FALSE(snap.empty());

  // The documented schema: parse it back and check the load-bearing fields.
  auto doc = util::JsonValue::Parse(snap.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const util::JsonValue& root = doc.value();
  ASSERT_NE(root.Find("schema_version"), nullptr);
  EXPECT_EQ(root.Find("schema_version")->number_value(), 1.0);
  const util::JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->array_items().size(), 2u);
  EXPECT_EQ(counters->array_items()[0].Find("name")->string_value(), "aa.first");
  EXPECT_EQ(counters->array_items()[0].Find("value")->number_value(), 3.0);
  const util::JsonValue* hists = root.Find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->array_items().size(), 1u);
  const util::JsonValue& hist = hists->array_items()[0];
  EXPECT_EQ(hist.Find("name")->string_value(), "lat.us");
  EXPECT_EQ(hist.Find("count")->number_value(), 2.0);
  EXPECT_DOUBLE_EQ(hist.Find("min")->number_value(), 100.0);
  EXPECT_DOUBLE_EQ(hist.Find("max")->number_value(), 200.0);
}

TEST(ObsTest, RegistryResetKeepsHandlesValid) {
  ObsFlagGuard guard;
  SetMetricsEnabled(true);
  MetricsRegistry reg;
  Counter& c = reg.counter("reset.me");
  c.Add(9);
  reg.Reset();
  EXPECT_EQ(c.value(), 0u);
  c.Add(1);
  EXPECT_EQ(reg.Snapshot().counters[0].value, 1u);
}

TEST(ObsTest, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&Registry(), &Registry());
}

// ------------------------------------------------------------------ tracer

TEST(ObsTest, TracerInternsStableNonZeroIds) {
  Tracer t;
  uint32_t a = t.InternName("wave.up");
  uint32_t b = t.InternName("wave.down");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(t.InternName("wave.up"), a);
  EXPECT_EQ(t.Name(a), "wave.up");
  EXPECT_EQ(t.Name(0), "");
  EXPECT_EQ(t.Name(9999), "");
}

TEST(ObsTest, TracerPhaseNameCacheReturnsSameId) {
  Tracer t;
  uint32_t first = t.NameIdForPhase(3, "mint.update");
  // Later calls hit the cache even with a different (stale) label.
  EXPECT_EQ(t.NameIdForPhase(3, "ignored"), first);
  EXPECT_EQ(t.Name(first), "mint.update");
  uint32_t other = t.NameIdForPhase(7, "mint.create");
  EXPECT_NE(other, first);
}

TEST(ObsTest, TracerRecordsAndWrapsRing) {
  Tracer t(/*capacity=*/4);
  uint32_t id = t.InternName("span");
  for (uint64_t i = 0; i < 6; ++i) t.Record(id, /*start_us=*/i * 10, /*dur_us=*/1);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total_recorded(), 6u);
  EXPECT_EQ(t.dropped(), 2u);
  // Oldest-first: spans 2..5 survive the wrap.
  std::vector<TraceSpan> spans = t.Spans();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start_us, (i + 2) * 10);
    EXPECT_EQ(spans[i].name_id, id);
  }
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.InternName("span"), id);  // names survive Clear
}

TEST(ObsTest, TracerWritesParseableChromeTrace) {
  Tracer t;
  uint32_t up = t.InternName("up");
  uint32_t down = t.InternName("down");
  t.Record(down, 200, 30);
  t.Record(up, 100, 50);
  std::ostringstream os;
  t.WriteChromeTrace(os);
  auto doc = util::JsonValue::Parse(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const util::JsonValue* events = doc.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array_items().size(), 2u);
  // Sorted by start time regardless of record order.
  const util::JsonValue& first = events->array_items()[0];
  EXPECT_EQ(first.Find("name")->string_value(), "up");
  EXPECT_EQ(first.Find("ts")->number_value(), 100.0);
  EXPECT_EQ(first.Find("dur")->number_value(), 50.0);
  EXPECT_EQ(first.Find("ph")->string_value(), "X");
  EXPECT_EQ(events->array_items()[1].Find("name")->string_value(), "down");
  EXPECT_EQ(doc.value().Find("displayTimeUnit")->string_value(), "ms");
}

TEST(ObsTest, ScopedSpanRecordsOnlyWhenTracingOn) {
  ObsFlagGuard guard;
  SetTracingEnabled(false);
  Tracer& t = GlobalTracer();
  uint64_t before = t.total_recorded();
  uint32_t id = t.InternName("scoped.test");
  { ScopedSpan off(id); }
  EXPECT_EQ(t.total_recorded(), before);

  SetTracingEnabled(true);
  { ScopedSpan on(id); }
  { ScopedSpan zero(0); }  // the reserved no-op id never records
  EXPECT_EQ(t.total_recorded(), before + 1);
}

// ------------------------------------------------- concurrent group epochs

enum class GroupBed { kLossless, kLossy, kChurn };

/// Runs five operator groups for 12 epochs and returns every answer, row
/// and bill as text.
std::string RunGroupBed(GroupBed bed) {
  system::QueryCoordinator::Options opt;
  opt.epochs = 12;
  opt.seed = 31;
  if (bed == GroupBed::kLossy) opt.loss_prob = 0.05;
  if (bed == GroupBed::kChurn) {
    opt.enable_churn = true;
    opt.churn.crash_prob = 0.02;
    opt.churn.mean_downtime = 4;
  }
  system::QueryCoordinator coordinator(system::Scenario::ConferenceFloor(8, 256, 5), opt);
  for (const char* sql : {
           "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
           "SELECT TOP 4 nodeid, MAX(sound) FROM sensors GROUP BY nodeid",
           "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid",
           "SELECT nodeid, sound FROM sensors WHERE sound > 40",
           "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 4",
       }) {
    EXPECT_TRUE(coordinator.Admit(sql).ok());
  }
  auto report = coordinator.Run();
  EXPECT_TRUE(report.ok());
  if (!report.ok()) return "";
  char buf[64];
  std::string out;
  for (const system::QueryOutcome& outcome : report.value().outcomes) {
    for (const core::TopKResult& epoch : outcome.per_epoch) out += epoch.ToString() + "|";
    for (const auto& rows : outcome.rows_per_epoch) {
      for (const core::SelectTuple& t : rows) {
        std::snprintf(buf, sizeof buf, "%u=%a;", t.node, t.value);
        out += buf;
      }
    }
    std::snprintf(buf, sizeof buf, "[%llu,%a,%a]",
                  static_cast<unsigned long long>(outcome.shared_cost.messages),
                  outcome.shared_cost.tx_energy_j, outcome.shared_cost.rx_energy_j);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "total=%a", report.value().total.energy_j());
  return out + buf;
}

uint64_t ConcurrentEpochs() {
  return Registry().counter("coord.concurrent_epochs").value();
}

TEST(ObsTest, ConcurrentEpochCounterTracksEligibleSessions) {
  ObsFlagGuard guard;
  SetMetricsEnabled(false);
  SetTracingEnabled(false);
  const std::string dark = RunGroupBed(GroupBed::kLossless);

  SetMetricsEnabled(true);
  SetTracingEnabled(true);
  GlobalTracer().Clear();
  uint64_t before = ConcurrentEpochs();
  // Observation perturbs nothing, with the groups on worker threads too.
  EXPECT_EQ(RunGroupBed(GroupBed::kLossless), dark);
  if (std::thread::hardware_concurrency() > 1) {
    // Every epoch steps five groups and no other session holds the pool;
    // the first two run serially while the groups build their state.
    EXPECT_EQ(ConcurrentEpochs(), before + 10);
  }
  std::set<std::string> group_spans;
  for (const TraceSpan& span : GlobalTracer().Spans()) {
    std::string name = GlobalTracer().Name(span.name_id);
    if (name.rfind("coord.run.", 0) == 0) group_spans.insert(name);
  }
  EXPECT_EQ(group_spans, (std::set<std::string>{"coord.run.MINT", "coord.run.TAG",
                                                "coord.run.SELECT", "coord.run.MINT+history"}));

  // Loss draws and churn keep every epoch on the serial path.
  for (GroupBed bed : {GroupBed::kLossy, GroupBed::kChurn}) {
    before = ConcurrentEpochs();
    RunGroupBed(bed);
    EXPECT_EQ(ConcurrentEpochs(), before);
  }
}

// ---------------------------------------------------------- split waves

/// Four dashboards sharing one MINT group on 2049 motes for 12 epochs, with
/// a vertical audit admitted before epoch 8; returns every answer and bill
/// as text and the audit's TJA rounds.
std::pair<std::string, int> RunSplitBed() {
  system::QueryCoordinator::Options opt;
  opt.epochs = 12;
  opt.seed = 37;
  system::QueryCoordinator coordinator(system::Scenario::ConferenceFloor(8, 256, 5), opt);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        coordinator.Admit("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid").ok());
  }
  EXPECT_TRUE(coordinator.Open().ok());
  for (int e = 0; e < 12; ++e) {
    if (e == 8) {
      EXPECT_TRUE(
          coordinator
              .Admit("SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 8")
              .ok());
    }
    EXPECT_TRUE(coordinator.StepEpoch().ok());
  }
  auto report = coordinator.Close();
  EXPECT_TRUE(report.ok());
  if (!report.ok()) return {"", 0};
  char buf[64];
  std::string out;
  int rounds = 0;
  for (const system::QueryOutcome& outcome : report.value().outcomes) {
    for (const core::TopKResult& epoch : outcome.per_epoch) out += epoch.ToString() + "|";
    for (const agg::RankedItem& item : outcome.historic.items) {
      std::snprintf(buf, sizeof buf, "H%d=%a;", item.group, item.value);
      out += buf;
    }
    if (outcome.query_class == query::QueryClass::kHistoricVertical) {
      rounds = outcome.historic.rounds;
    }
    std::snprintf(buf, sizeof buf, "[%llu,%a,%a]",
                  static_cast<unsigned long long>(outcome.shared_cost.messages),
                  outcome.shared_cost.tx_energy_j, outcome.shared_cost.rx_energy_j);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "total=%a", report.value().total.energy_j());
  return {out + buf, rounds};
}

TEST(ObsTest, SplitWavesCountAndTraceWithoutChangingAnswers) {
  ObsFlagGuard guard;
  SetMetricsEnabled(false);
  SetTracingEnabled(false);
  const auto [dark, rounds] = RunSplitBed();

  SetMetricsEnabled(true);
  SetTracingEnabled(true);
  GlobalTracer().Clear();
  const uint64_t before = Registry().counter("sim.wave.split").value();
  // Observation perturbs nothing, with the waves split across the pool.
  EXPECT_EQ(RunSplitBed().first, dark);
  if (std::thread::hardware_concurrency() > 1) {
    // The group's update waves from its third step on (10 of 12), and the
    // audit's LB and HJ converge-casts in every TJA round.
    const uint64_t splits = Registry().counter("sim.wave.split").value() - before;
    EXPECT_EQ(splits, 10u + 2u * static_cast<uint64_t>(rounds));
    size_t replay_spans = 0;
    for (const TraceSpan& span : GlobalTracer().Spans()) {
      replay_spans += GlobalTracer().Name(span.name_id) == "sim.wave.replay" ? 1 : 0;
    }
    EXPECT_EQ(replay_spans, splits);
  }
}

// ------------------------------------------------------------- setup spans

TEST(ObsTest, VerticalBindRecordsWindowAndTjaSpans) {
  ObsFlagGuard guard;
  SetTracingEnabled(true);
  GlobalTracer().Clear();
  system::QueryCoordinator::Options opt;
  opt.epochs = 40;
  opt.seed = 7;
  system::QueryCoordinator coordinator(system::Scenario::ConferenceFloor(4, 3, 5), opt);
  ASSERT_TRUE(
      coordinator.Admit("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid").ok());
  ASSERT_TRUE(coordinator.Open().ok());
  for (int e = 0; e < 37; ++e) ASSERT_TRUE(coordinator.StepEpoch().ok());
  ASSERT_TRUE(
      coordinator.Admit("SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 8")
          .ok());
  size_t window_spans = 0;
  size_t tja_spans = 0;
  for (const TraceSpan& span : GlobalTracer().Spans()) {
    std::string name = GlobalTracer().Name(span.name_id);
    window_spans += name == "coord.admit.window" ? 1 : 0;
    tja_spans += name == "coord.admit.tja" ? 1 : 0;
  }
  EXPECT_EQ(window_spans, 1u);
  EXPECT_EQ(tja_spans, 1u);
  ASSERT_TRUE(coordinator.Close().ok());
}

TEST(ObsTest, ChurnSessionRecordsSetupSpansWithoutChangingAnswers) {
  ObsFlagGuard guard;
  SetMetricsEnabled(false);
  SetTracingEnabled(false);
  const std::string dark = RunGroupBed(GroupBed::kChurn);

  SetTracingEnabled(true);
  GlobalTracer().Clear();
  EXPECT_EQ(RunGroupBed(GroupBed::kChurn), dark);
  size_t network = 0;
  size_t plan = 0;
  size_t operators = 0;
  for (const TraceSpan& span : GlobalTracer().Spans()) {
    std::string name = GlobalTracer().Name(span.name_id);
    network += name == "sim.network_build" ? 1 : 0;
    plan += name == "fault.plan_generate" ? 1 : 0;
    operators += name == "coord.admit.operator" ? 1 : 0;
  }
  EXPECT_EQ(network, 1u);
  EXPECT_EQ(plan, 1u);
  EXPECT_EQ(operators, 5u);  // MINT twice, TAG, SELECT, MINT+history
}

}  // namespace
}  // namespace kspot::obs
