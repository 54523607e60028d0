/// Golden-equivalence coverage for the flat-vector GroupView data plane:
///
///  1. the flat representation is bit-identical to an ordered-map reference
///     model under randomized operation sequences, delta applies and
///     predicate erases included (the seed representation was std::map; the
///     ordering contract must never drift);
///  2. the real experiment sweeps (E1 fig1_scenario, E13 churn_lifetime,
///     E14 churn_accuracy) produce byte-identical metrics through 1 and 8
///     worker threads — the engine determinism contract over the new
///     data plane;
///  3. observability is invisible to results: sweeps and the E16 bed at
///     n = 1000 are byte-identical with metrics and tracing on;
///  4. MINT's incremental churn repair is answer-equivalent to the full
///     creation-phase rebuild under lossless churn (both exact against the
///     survivor oracle) while touching far fewer rebuild messages;
///  5. MINT's view maintenance (flat cardinality tables, one-pass delta
///     apply and prune) reproduces digests recorded from the hash-map
///     implementation it replaced.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
#include <vector>

#include "agg/group_view.hpp"
#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "core/fila.hpp"
#include "core/historic_stream.hpp"
#include "core/history_source.hpp"
#include "core/mint.hpp"
#include "core/oracle.hpp"
#include "core/tag.hpp"
#include "core/tja.hpp"
#include "data/generators.hpp"
#include "fault/churn_engine.hpp"
#include "runner/experiment_engine.hpp"
#include "runner/scenario_registry.hpp"
#include "scenarios.hpp"
#include "test_util.hpp"
#include "util/fixed_point.hpp"
#include "util/rng.hpp"

namespace kspot {
namespace {

using agg::AggKind;
using agg::GroupView;
using agg::PartialAgg;

// ------------------------------------------------------- map reference model

/// The seed's representation, reduced to its observable operations.
class MapViewModel {
 public:
  void AddReading(sim::GroupId g, double v) { entries_[g].Merge(PartialAgg::FromValue(v)); }
  void MergePartial(sim::GroupId g, const PartialAgg& p) { entries_[g].Merge(p); }
  void Set(sim::GroupId g, const PartialAgg& p) { entries_[g] = p; }
  void Erase(sim::GroupId g) { entries_.erase(g); }
  /// The per-entry delta apply GroupView::ApplyDelta replaced.
  void ApplyDelta(const std::vector<GroupView::Entry>& changed,
                  const std::vector<sim::GroupId>& removed) {
    for (const auto& [g, p] : changed) Set(g, p);
    for (sim::GroupId g : removed) Erase(g);
  }
  std::vector<agg::RankedItem> Ranked(AggKind kind) const {
    std::vector<agg::RankedItem> out;
    for (const auto& [g, p] : entries_) out.push_back({g, p.Final(kind)});
    std::sort(out.begin(), out.end(), agg::RankHigher);
    return out;
  }
  const std::map<sim::GroupId, PartialAgg>& entries() const { return entries_; }

 private:
  std::map<sim::GroupId, PartialAgg> entries_;
};

bool SamePartial(const PartialAgg& a, const PartialAgg& b) {
  return a.sum_fx == b.sum_fx && a.count == b.count && a.min_fx == b.min_fx &&
         a.max_fx == b.max_fx;
}

PartialAgg RandomPartial(util::Rng& rng) {
  return PartialAgg::FromValue(util::fixed_point::Quantize(rng.NextDouble(0, 100)));
}

/// Entries agree in content AND order (both ascend by group id).
void ExpectSameEntries(const GroupView& flat, const MapViewModel& reference) {
  ASSERT_EQ(flat.size(), reference.entries().size());
  auto it = reference.entries().begin();
  for (const auto& [g, p] : flat.entries()) {
    ASSERT_EQ(g, it->first);
    ASSERT_TRUE(SamePartial(p, it->second));
    ++it;
  }
}

/// A random delta over groups [0, universe): each group lands in `changed`,
/// in `removed` (present or absent in the view alike) or in neither, so both
/// lists ascend strictly and are disjoint. Sometimes empty.
void RandomDelta(util::Rng& rng, sim::GroupId universe, std::vector<GroupView::Entry>* changed,
                 std::vector<sim::GroupId>* removed) {
  changed->clear();
  removed->clear();
  uint64_t density = rng.NextBounded(4);  // 0 = empty delta
  for (sim::GroupId g = 0; g < universe; ++g) {
    if (rng.NextBounded(4) >= density) continue;
    if (rng.NextBounded(2) == 0) {
      changed->emplace_back(g, RandomPartial(rng));
    } else {
      removed->push_back(g);
    }
  }
}

TEST(GoldenEquivalenceTest, FlatViewMatchesMapModelUnderRandomOps) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    GroupView flat;
    MapViewModel reference;
    std::vector<GroupView::Entry> changed;
    std::vector<sim::GroupId> removed;
    std::vector<GroupView::Entry> scratch;
    for (int op = 0; op < 300; ++op) {
      auto g = static_cast<sim::GroupId>(rng.NextBounded(24));
      switch (rng.NextBounded(6)) {
        case 0: {
          double v = util::fixed_point::Quantize(rng.NextDouble(0, 100));
          flat.AddReading(g, v);
          reference.AddReading(g, v);
          break;
        }
        case 1: {
          PartialAgg p = RandomPartial(rng);
          flat.MergePartial(g, p);
          reference.MergePartial(g, p);
          break;
        }
        case 2: {
          PartialAgg p = RandomPartial(rng);
          flat.Set(g, p);
          reference.Set(g, p);
          break;
        }
        case 3:
          flat.Erase(g);
          reference.Erase(g);
          break;
        case 4:
          RandomDelta(rng, 26, &changed, &removed);
          flat.ApplyDelta(changed, removed, &scratch);
          reference.ApplyDelta(changed, removed);
          break;
        default: {
          // Erase a random group subset; the predicate must see every entry
          // once, in ascending group order.
          uint64_t mask = rng.NextU64();
          std::vector<sim::GroupId> seen;
          flat.EraseIf([&](const GroupView::Entry& entry) {
            seen.push_back(entry.first);
            return (mask >> entry.first) & 1;
          });
          std::vector<sim::GroupId> want_seen;
          for (const auto& [group, p] : reference.entries()) want_seen.push_back(group);
          for (sim::GroupId group : want_seen) {
            if ((mask >> group) & 1) reference.Erase(group);
          }
          ASSERT_EQ(seen, want_seen);
          break;
        }
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(flat, reference));
    }
    // Inserts before, between and after every existing entry in one delta
    // (the view holds only even groups), while removing every other entry.
    GroupView even;
    MapViewModel even_reference;
    for (const auto& [group, p] : flat.entries()) {
      even.Set(2 * group + 2, p);
      even_reference.Set(2 * group + 2, p);
    }
    changed.clear();
    removed.clear();
    bool drop = false;
    for (const auto& [group, p] : even.entries()) {
      changed.emplace_back(group - 1, RandomPartial(rng));
      if (drop) removed.push_back(group);
      drop = !drop;
    }
    sim::GroupId after = even.empty() ? 0 : even.entries().back().first + 1;
    changed.emplace_back(after, RandomPartial(rng));
    even.ApplyDelta(changed, removed, &scratch);
    even_reference.ApplyDelta(changed, removed);
    ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(even, even_reference));
    ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(flat, reference));
    // Rankings are bit-identical for every aggregate kind.
    for (AggKind kind : {AggKind::kAvg, AggKind::kSum, AggKind::kMin, AggKind::kMax,
                         AggKind::kCount}) {
      auto want = reference.Ranked(kind);
      EXPECT_EQ(flat.Ranked(kind), want);
      for (size_t k : {size_t{1}, size_t{3}, want.size()}) {
        auto top = flat.TopK(kind, k);
        std::vector<agg::RankedItem> expect(
            want.begin(), want.begin() + static_cast<long>(std::min(k, want.size())));
        EXPECT_EQ(top, expect);
      }
    }
  }
}

// --------------------------------------------------- engine-level equivalence

void ExpectIdenticalRuns(const runner::ScenarioRun& a, const runner::ScenarioRun& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (size_t i = 0; i < a.trials.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    EXPECT_EQ(a.trials[i].ok, b.trials[i].ok);
    ASSERT_EQ(a.trials[i].metrics.size(), b.trials[i].metrics.size());
    for (size_t m = 0; m < a.trials[i].metrics.size(); ++m) {
      EXPECT_EQ(a.trials[i].metrics[m].first, b.trials[i].metrics[m].first);
      EXPECT_EQ(a.trials[i].metrics[m].second, b.trials[i].metrics[m].second);
    }
  }
}

TEST(GoldenEquivalenceTest, QuickSweepsBitIdenticalAcrossThreadCounts) {
  runner::ScenarioRegistry registry;
  bench::RegisterAllScenarios(registry);
  // E1 and the churn pair: the scenarios whose inner loops the flat view and
  // precomputed wave schedule rewrote.
  for (const char* name : {"fig1_scenario", "churn_lifetime", "churn_accuracy"}) {
    SCOPED_TRACE(name);
    const runner::Scenario* scenario = registry.Find(name);
    ASSERT_NE(scenario, nullptr);
    runner::ScenarioRun single =
        runner::ExperimentEngine({.threads = 1, .quick = true}).Run(*scenario);
    runner::ScenarioRun pooled =
        runner::ExperimentEngine({.threads = 8, .quick = true}).Run(*scenario);
    EXPECT_TRUE(single.AllOk());
    ExpectIdenticalRuns(single, pooled);
  }
}

// ------------------------------------------------ observability equivalence

/// The zero-perturbation contract of src/obs: with the metrics registry AND
/// the span tracer fully enabled, every result is bit-identical to an
/// unobserved run. Covers the instrumented sweeps (E1 fig1_scenario, E13
/// churn_lifetime through ChurnEngine spans/counters) and the E16 bed at
/// n = 1000, whose MINT waves record one span per wave.
TEST(GoldenEquivalenceTest, ResultsBitIdenticalWithObservabilityEnabled) {
  struct ObsFlagGuard {
    bool metrics = obs::MetricsOn();
    bool tracing = obs::TracingOn();
    ~ObsFlagGuard() {
      obs::SetMetricsEnabled(metrics);
      obs::SetTracingEnabled(tracing);
    }
  } guard;

  runner::ScenarioRegistry registry;
  bench::RegisterAllScenarios(registry);
  for (const char* name : {"fig1_scenario", "churn_lifetime"}) {
    SCOPED_TRACE(name);
    const runner::Scenario* scenario = registry.Find(name);
    ASSERT_NE(scenario, nullptr);
    obs::SetMetricsEnabled(false);
    obs::SetTracingEnabled(false);
    runner::ScenarioRun dark =
        runner::ExperimentEngine({.threads = 1, .quick = true}).Run(*scenario);
    EXPECT_TRUE(dark.AllOk());
    obs::SetMetricsEnabled(true);
    obs::SetTracingEnabled(true);
    obs::GlobalTracer().Clear();
    runner::ScenarioRun observed =
        runner::ExperimentEngine({.threads = 1, .quick = true}).Run(*scenario);
    ExpectIdenticalRuns(dark, observed);
    if (std::string(name) == "churn_lifetime") {
      // MINT's incremental churn repair times its cardinality recount.
      bool saw_recount_span = false;
      for (const obs::TraceSpan& span : obs::GlobalTracer().Spans()) {
        if (obs::GlobalTracer().Name(span.name_id) == "mint.recount") saw_recount_span = true;
      }
      EXPECT_TRUE(saw_recount_span);
    }
  }

  // E16 bed: answers, traffic counters, per-node send counts, the virtual
  // clock — all byte-identical while the wave spans record.
  auto run_bed = [](bool observe) {
    obs::SetMetricsEnabled(observe);
    obs::SetTracingEnabled(observe);
    bench::Bed bed = bench::Bed::Grid(1000, 32, 161);
    auto gen = bed.RoomData(161);
    auto algo = bench::MakeSnapshotAlgo(bench::SnapshotAlgo::kMint, bed.net.get(), gen.get(),
                                        bench::RoomAvgSpec(3));
    std::vector<std::string> answers;
    for (size_t e = 0; e < 12; ++e) {
      answers.push_back(algo->RunEpoch(static_cast<sim::Epoch>(e)).ToString());
    }
    answers.push_back(std::to_string(bed.net->total().messages));
    answers.push_back(std::to_string(bed.net->total().payload_bytes));
    answers.push_back(std::to_string(bed.net->events().now()));
    for (sim::NodeId id = 0; id < 1000; id += 97) {
      answers.push_back(std::to_string(bed.net->MessagesSentBy(id)));
    }
    return answers;
  };
  std::vector<std::string> dark_bed = run_bed(false);
  obs::GlobalTracer().Clear();
  std::vector<std::string> observed_bed = run_bed(true);
  EXPECT_EQ(dark_bed, observed_bed);
  // And the observed run actually observed something — the equivalence is
  // not vacuous because instrumentation silently stayed off.
  bool saw_wave_span = false;
  for (const obs::TraceSpan& span : obs::GlobalTracer().Spans()) {
    if (obs::GlobalTracer().Name(span.name_id) == "mint.update") saw_wave_span = true;
  }
  EXPECT_TRUE(saw_wave_span);
}

// ------------------------------------------- incremental vs full churn repair

core::QuerySpec RoomAvgSpec3() {
  core::QuerySpec spec;
  spec.k = 3;
  spec.agg = AggKind::kAvg;
  spec.grouping = core::Grouping::kRoom;
  spec.domain_max = 100.0;
  return spec;
}

std::unique_ptr<data::DataGenerator> RoomGen(const sim::Topology& topology, uint64_t seed) {
  std::vector<sim::GroupId> rooms;
  for (sim::NodeId id = 0; id < topology.num_nodes(); ++id) rooms.push_back(topology.room(id));
  return std::make_unique<data::RoomCorrelatedGenerator>(
      std::move(rooms), data::Modality::kSound, 0.5, 0.5, util::Rng(seed), 0.0, 1.0);
}

/// Runs MINT through a generated churn plan and asserts exactness against
/// the survivor oracle every epoch. Returns rebuild-phase message count.
uint64_t RunMintChurnExact(bool incremental, int* incremental_events, int* full_rebuilds) {
  constexpr uint64_t kSeed = 515;
  testing::TestBed bed = testing::TestBed::Grid(49, 10, kSeed);
  core::QuerySpec spec = RoomAvgSpec3();
  auto gen = RoomGen(bed.topology, kSeed);
  auto oracle_gen = RoomGen(bed.topology, kSeed);
  core::Oracle oracle(&bed.topology, oracle_gen.get(), spec);

  fault::FaultPlanOptions fopt;
  fopt.horizon = 60;
  fopt.crash_prob = 0.01;
  fopt.mean_downtime = 8;
  fault::FaultPlan plan = fault::FaultPlan::Generate(bed.topology, fopt, kSeed ^ 0xFA11);
  fault::ChurnEngine churn(bed.net.get(), &bed.tree, std::move(plan));

  core::MintViews::Options options;
  options.incremental_repair = incremental;
  core::MintViews mint(bed.net.get(), gen.get(), spec, options);
  for (size_t e = 0; e < 60; ++e) {
    auto epoch = static_cast<sim::Epoch>(e);
    fault::ChurnReport report = churn.BeginEpoch(epoch);
    if (report.topology_changed) mint.OnTopologyChanged(report.delta);
    core::TopKResult got = mint.RunEpoch(epoch);
    core::TopKResult want = oracle.TopKOver(epoch, [&](sim::NodeId id) {
      return bed.net->NodeAlive(id) && bed.tree.attached(id);
    });
    EXPECT_TRUE(got.Matches(want)) << "incremental=" << incremental << " epoch " << e
                                   << "\ngot:\n" << got.ToString() << "want:\n"
                                   << want.ToString();
  }
  if (incremental_events != nullptr) *incremental_events = mint.incremental_repair_count();
  if (full_rebuilds != nullptr) *full_rebuilds = mint.churn_rebuild_count();
  return bed.net->PhaseTotal("mint.create").messages +
         bed.net->PhaseTotal("mint.repair").messages;
}

// ----------------------------------------------------- phase-counter digests
//
// Network's per-phase accounting moved from a string-keyed map to an
// interned-phase-id array. These digests were captured from the pre-interning
// implementation; they pin that PhaseTotal / by_phase() return byte-identical
// integer counters through the refactor (doubles are excluded — energy sums
// are checked via conservation against total() instead, which is robust to
// compiler FP-contraction differences).

/// FNV-1a over the label-sorted (phase name, integer counters) table.
uint64_t PhaseDigest(const sim::Network& net) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [name, counters] : net.by_phase()) {
    for (char c : name) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ULL;
    }
    mix(counters.messages);
    mix(counters.frames);
    mix(counters.payload_bytes);
    mix(counters.onair_bytes);
  }
  return h;
}

/// The bench-style cluster-aware bed the digests were captured on (TestBed
/// uses the first-heard tree, which would change every number).
struct DigestBed {
  sim::Topology topology;
  sim::RoutingTree tree;
  std::unique_ptr<sim::Network> net;
};

DigestBed MakeDigestBed(size_t nodes, size_t rooms, uint64_t seed,
                        sim::NetworkOptions opt = {}) {
  DigestBed bed;
  sim::TopologyOptions topt;
  topt.num_nodes = nodes;
  topt.num_rooms = rooms;
  bed.topology = sim::MakeGrid(topt);
  util::Rng rng(seed);
  bed.tree = sim::RoutingTree::BuildClusterAware(bed.topology, rng);
  bed.net =
      std::make_unique<sim::Network>(&bed.topology, &bed.tree, opt, util::Rng(seed ^ 0xBEEF));
  return bed;
}

core::QuerySpec DigestSpec(int k, core::Grouping grouping) {
  core::QuerySpec spec;
  spec.k = k;
  spec.agg = AggKind::kAvg;
  spec.grouping = grouping;
  spec.domain_max = 100.0;
  return spec;
}

/// Beyond the digest: name- and id-keyed PhaseTotal agree, and the per-phase
/// table partitions total() exactly.
void ExpectPhaseAccountingConsistent(const sim::Network& net) {
  sim::TrafficCounters sum;
  for (const auto& [name, counters] : net.by_phase()) {
    sum.Add(counters);
    sim::TrafficCounters by_name = net.PhaseTotal(name);
    sim::TrafficCounters by_id = net.PhaseTotal(sim::Network::InternPhase(name));
    EXPECT_EQ(by_name.messages, by_id.messages) << name;
    EXPECT_EQ(by_name.payload_bytes, by_id.payload_bytes) << name;
    EXPECT_EQ(by_name.messages, counters.messages) << name;
  }
  EXPECT_EQ(sum.messages, net.total().messages);
  EXPECT_EQ(sum.frames, net.total().frames);
  EXPECT_EQ(sum.payload_bytes, net.total().payload_bytes);
  EXPECT_EQ(sum.onair_bytes, net.total().onair_bytes);
  // Energy is summed per delta into both ledgers but in different orders, so
  // conservation holds to rounding, not to the last ulp.
  EXPECT_NEAR(sum.tx_energy_j, net.total().tx_energy_j, 1e-9 * (1.0 + net.total().tx_energy_j));
  EXPECT_NEAR(sum.rx_energy_j, net.total().rx_energy_j, 1e-9 * (1.0 + net.total().rx_energy_j));
  // Unknown phases read as zeroes, never as errors.
  EXPECT_EQ(net.PhaseTotal("no.such.phase").messages, 0u);
}

TEST(GoldenEquivalenceTest, PhaseCountersMatchPreInterningDigests) {
  {  // MINT under churn: create/update/beacon/repair + fault.repair phases.
    DigestBed bed = MakeDigestBed(49, 8, 7);
    auto gen = RoomGen(bed.topology, 7);
    core::MintViews mint(bed.net.get(), gen.get(), DigestSpec(3, core::Grouping::kRoom));
    // A hand-written plan, so the digest pins the *accounting* and never
    // moves when the FaultPlan generator's sampling scheme evolves.
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.events = {{3, fault::FaultEvent::Kind::kCrash, 12, 0.0},
                   {5, fault::FaultEvent::Kind::kDegradeStart, 20, 0.3},
                   {9, fault::FaultEvent::Kind::kRecover, 12, 0.0},
                   {15, fault::FaultEvent::Kind::kDegradeEnd, 20, 0.0},
                   {18, fault::FaultEvent::Kind::kCrash, 7, 0.0}};
    fault::ChurnEngine churn(bed.net.get(), &bed.tree, std::move(plan));
    for (sim::Epoch e = 0; e < 30; ++e) {
      fault::ChurnReport report = churn.BeginEpoch(e);
      if (report.topology_changed) mint.OnTopologyChanged(report.delta);
      mint.RunEpoch(e);
    }
    EXPECT_EQ(PhaseDigest(*bed.net), 0xab2e128f1926cbc5ULL);
    ExpectPhaseAccountingConsistent(*bed.net);
  }
  {  // TAG with loss and retries.
    sim::NetworkOptions opt;
    opt.loss_prob = 0.05;
    opt.max_retries = 1;
    DigestBed bed = MakeDigestBed(25, 4, 11, opt);
    auto gen = RoomGen(bed.topology, 11);
    core::TagTopK tag(bed.net.get(), gen.get(), DigestSpec(2, core::Grouping::kRoom));
    for (sim::Epoch e = 0; e < 10; ++e) tag.RunEpoch(e);
    EXPECT_EQ(PhaseDigest(*bed.net), 0x01b6b2cea85942b4ULL);
    ExpectPhaseAccountingConsistent(*bed.net);
  }
  {  // FILA: init/filter/report/probe.
    DigestBed bed = MakeDigestBed(25, 4, 13);
    auto gen = RoomGen(bed.topology, 13);
    core::Fila fila(bed.net.get(), gen.get(), DigestSpec(3, core::Grouping::kNode));
    for (sim::Epoch e = 0; e < 20; ++e) fila.RunEpoch(e);
    EXPECT_EQ(PhaseDigest(*bed.net), 0x03c618d54d02d3f1ULL);
    ExpectPhaseAccountingConsistent(*bed.net);
  }
  {  // TJA: lb/hj (plus cl when deepening fires).
    DigestBed bed = MakeDigestBed(25, 4, 17);
    auto gen = RoomGen(bed.topology, 17);
    core::RingHistory history(data::DrawnRing(*gen, bed.topology.num_nodes(), 0, 32), 32);
    core::HistoricOptions opt;
    opt.k = 3;
    core::Tja tja(bed.net.get(), &history, opt);
    tja.Run();
    EXPECT_EQ(PhaseDigest(*bed.net), 0x76d5fbdb6a9aa589ULL);
    ExpectPhaseAccountingConsistent(*bed.net);
  }
}

// --------------------------------------------------- MINT view-maintenance pins
//
// Digests recorded from the hash-map cardinality tables and the per-entry
// delta apply that MINT's view maintenance used before it moved to sorted
// flat tables and one-pass merges. Each digest folds every epoch's answer
// (groups, value bits, contributors, completeness, degraded) and the final
// PhaseDigest, so any drift in pruning, deltas, repairs or wire bytes shows.

enum class MintBed { kLossyChurn, kNoIncrementalRepair, kNoDeltaUpdates, kLossless };

uint64_t MintPinDigest(MintBed kind, core::Grouping grouping, AggKind agg) {
  constexpr uint64_t kSeed = 29;
  constexpr sim::Epoch kEpochs = 80;
  sim::NetworkOptions opt;
  if (kind != MintBed::kLossless) {
    opt.loss_prob = 0.05;
    opt.max_retries = 2;
  }
  DigestBed bed = MakeDigestBed(144, 12, kSeed, opt);
  auto gen = RoomGen(bed.topology, kSeed);
  core::QuerySpec spec = DigestSpec(grouping == core::Grouping::kRoom ? 3 : 5, grouping);
  spec.agg = agg;
  core::MintViews::Options options;
  options.incremental_repair = kind != MintBed::kNoIncrementalRepair;
  options.delta_updates = kind != MintBed::kNoDeltaUpdates;
  core::MintViews mint(bed.net.get(), gen.get(), spec, options);

  fault::FaultPlan plan;
  if (kind != MintBed::kLossless) {
    fault::FaultPlanOptions fopt;
    fopt.horizon = kEpochs;
    fopt.crash_prob = 0.01;
    fopt.mean_downtime = 6;
    plan = fault::FaultPlan::Generate(bed.topology, fopt, kSeed ^ 0xC4A5);
  }
  fault::ChurnEngine churn(bed.net.get(), &bed.tree, std::move(plan));

  uint64_t h = 1469598103934665603ULL;
  auto mix = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (sim::Epoch e = 0; e < kEpochs; ++e) {
    fault::ChurnReport report = churn.BeginEpoch(e);
    if (report.topology_changed) mint.OnTopologyChanged(report.delta);
    core::TopKResult result = mint.RunEpoch(e);
    mix(result.items.size());
    for (const agg::RankedItem& item : result.items) {
      mix(item.group);
      mix(std::bit_cast<uint64_t>(item.value));
    }
    mix(result.contributors);
    mix(std::bit_cast<uint64_t>(result.completeness));
    mix(result.degraded ? 1 : 0);
  }
  mix(PhaseDigest(*bed.net));
  return h;
}

TEST(GoldenEquivalenceTest, MintViewMaintenanceMatchesRecordedDigests) {
  struct Pin {
    MintBed bed;
    core::Grouping grouping;
    AggKind agg;
    uint64_t digest;
  };
  using core::Grouping;
  const Pin pins[] = {
      {MintBed::kLossyChurn, Grouping::kRoom, AggKind::kAvg, 0xd8e23c1245acfbd2ULL},
      {MintBed::kLossyChurn, Grouping::kRoom, AggKind::kMax, 0x44cef098dd6814d6ULL},
      {MintBed::kLossyChurn, Grouping::kRoom, AggKind::kMin, 0x3095b493b07788c9ULL},
      {MintBed::kLossyChurn, Grouping::kNode, AggKind::kAvg, 0xaaaa854a755bf278ULL},
      {MintBed::kLossyChurn, Grouping::kNode, AggKind::kMax, 0x1088fdc652c54923ULL},
      {MintBed::kLossyChurn, Grouping::kNode, AggKind::kMin, 0xd5f44a240234f90cULL},
      {MintBed::kNoIncrementalRepair, Grouping::kRoom, AggKind::kAvg, 0xd22c8baf0c7fa738ULL},
      {MintBed::kNoIncrementalRepair, Grouping::kRoom, AggKind::kMax, 0x0e92c31f2008d648ULL},
      {MintBed::kNoIncrementalRepair, Grouping::kRoom, AggKind::kMin, 0x8cd45a0d5906605aULL},
      {MintBed::kNoIncrementalRepair, Grouping::kNode, AggKind::kAvg, 0x0efff814ab13a06cULL},
      {MintBed::kNoIncrementalRepair, Grouping::kNode, AggKind::kMax, 0xacc4ad432d21e879ULL},
      {MintBed::kNoIncrementalRepair, Grouping::kNode, AggKind::kMin, 0xcf774d150c18f68eULL},
      {MintBed::kNoDeltaUpdates, Grouping::kRoom, AggKind::kAvg, 0x1d2d14a6f71c03c8ULL},
      {MintBed::kNoDeltaUpdates, Grouping::kRoom, AggKind::kMax, 0x462c119f0a8a08acULL},
      {MintBed::kNoDeltaUpdates, Grouping::kRoom, AggKind::kMin, 0x7b1ee7144efaaaa0ULL},
      {MintBed::kNoDeltaUpdates, Grouping::kNode, AggKind::kAvg, 0x96e16e23f5ce97a4ULL},
      {MintBed::kNoDeltaUpdates, Grouping::kNode, AggKind::kMax, 0xdc2b486195e06794ULL},
      {MintBed::kNoDeltaUpdates, Grouping::kNode, AggKind::kMin, 0xbb08f4f39b362401ULL},
      {MintBed::kLossless, Grouping::kRoom, AggKind::kAvg, 0x5816e25b24c0a480ULL},
      {MintBed::kLossless, Grouping::kRoom, AggKind::kMax, 0x981df15754a8f009ULL},
      {MintBed::kLossless, Grouping::kRoom, AggKind::kMin, 0x8dcd06cfc9761b01ULL},
      {MintBed::kLossless, Grouping::kNode, AggKind::kAvg, 0x58925decfb2784b4ULL},
      {MintBed::kLossless, Grouping::kNode, AggKind::kMax, 0x1a8244080457f416ULL},
      {MintBed::kLossless, Grouping::kNode, AggKind::kMin, 0x9714670ea1d1cb8dULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("bed " + std::to_string(static_cast<int>(pin.bed)) + " grouping " +
                 std::to_string(static_cast<int>(pin.grouping)) + " agg " +
                 std::to_string(static_cast<int>(pin.agg)));
    uint64_t got = MintPinDigest(pin.bed, pin.grouping, pin.agg);
    EXPECT_EQ(got, pin.digest) << std::hex << "0x" << got;
  }
}

// ------------------------------------------------ historic-path equivalence

/// The continuous historic operator's golden pin: the O(delta) incremental
/// window maintenance answers bit-identically to the O(W*n) from-scratch
/// re-collection. Suppression off is bit-inert — the eps knob is never
/// consulted while the toggle is down.
TEST(GoldenEquivalenceTest, HistoricDeltaMatchesScratch) {
  constexpr size_t kNodes = 200;
  constexpr size_t kRooms = 16;
  constexpr size_t kEpochs = 40;
  constexpr uint64_t kSeed = 171;
  auto run = [&](bool incremental, double eps) {
    bench::Bed bed = bench::Bed::Grid(kNodes, kRooms, kSeed);
    auto gen = bed.RoomData(kSeed);
    core::HistoricStreamOptions hopt;
    hopt.k = 3;
    hopt.window = 16;
    hopt.incremental = incremental;
    hopt.suppression = false;
    hopt.suppression_eps = eps;
    core::HistoricStream stream(bed.net.get(), gen.get(), hopt);
    std::vector<std::string> out;
    for (size_t e = 0; e < kEpochs; ++e) {
      out.push_back(stream.RunEpoch(static_cast<sim::Epoch>(e)).ToString());
    }
    // Traffic digest rides behind the answers: the first kEpochs entries
    // compare delta-vs-scratch (answers only — cost differs by design), the
    // whole vector compares eps variants byte-for-byte.
    out.push_back(std::to_string(bed.net->total().messages));
    out.push_back(std::to_string(bed.net->total().payload_bytes));
    out.push_back(std::to_string(bed.net->events().now()));
    return out;
  };

  std::vector<std::string> delta = run(/*incremental=*/true, 0.5);
  std::vector<std::string> scratch = run(/*incremental=*/false, 0.5);
  for (size_t e = 0; e < kEpochs; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    EXPECT_EQ(delta[e], scratch[e]);
  }
  // eps is inert while the suppression toggle is down — byte-identical run.
  EXPECT_EQ(run(/*incremental=*/true, 99.0), delta);
}

TEST(GoldenEquivalenceTest, IncrementalRepairStaysExactAndCheaper) {
  int incremental_events = 0;
  int full_rebuilds = 0;
  uint64_t incremental_msgs =
      RunMintChurnExact(/*incremental=*/true, &incremental_events, &full_rebuilds);
  EXPECT_GT(incremental_events, 0) << "plan produced no churn to repair";
  EXPECT_EQ(full_rebuilds, 0);

  int fallback_events = 0;
  int fallback_rebuilds = 0;
  uint64_t fallback_msgs =
      RunMintChurnExact(/*incremental=*/false, &fallback_events, &fallback_rebuilds);
  EXPECT_EQ(fallback_events, 0);
  EXPECT_GT(fallback_rebuilds, 0);
  // Same exact answers, strictly less rebuild traffic.
  EXPECT_LT(incremental_msgs, fallback_msgs);
}

}  // namespace
}  // namespace kspot
