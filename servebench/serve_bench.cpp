/// Closed-loop serving benchmark for the KSpot query coordinator.
///
/// One single-threaded driver in one process serves one workload through the
/// public serving API only: a generated `Scenario`, a `QueryCoordinator`
/// (Admit / Open / StepEpoch / Cancel / Close), a `FanOutHub` (Subscribe /
/// Publish), SQL text and `DeploymentConfig`. Each epoch the driver runs that
/// epoch's scheduled Admit/Cancel, then StepEpoch, then Publish, and only
/// then starts the next epoch.
///
/// A run repeats one fixed session (set-up plus a fixed epoch schedule) until
/// the requested seconds have elapsed. Every repeat must reproduce the first
/// one's simulated traffic and answers bit for bit; the answers of the first
/// session are then checked against the exact centralized oracle.
///
///   serve_bench --workload floor|churn|dense --seed N --seconds S --trace 0|1
///               [--deployment-seed N]
///
/// `--seed` generates the benchmark's inputs: mote positions, the admission
/// order of the opening queries and the subscriber skew. `--deployment-seed`
/// (default 1) is the DeploymentConfig seed the program receives: it drives
/// tree growth, sensor data, losses and the fault plan.
///
/// `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
/// (see README.md). The last stdout line is one JSON object:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/oracle.hpp"
#include "core/select.hpp"
#include "data/windowed.hpp"
#include "fault/fault_plan.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/deployment.hpp"
#include "kspot/fanout.hpp"
#include "kspot/scenario_config.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "query/parser.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace {

using kspot::system::QueryCoordinator;
using kspot::system::QueryId;
using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The benchmark's own input generator (splitmix64), so the inputs a seed
/// produces do not depend on the library's RNG.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// ------------------------------------------------------------------ workloads

struct OpeningQuery {
  std::string sql;
  int period = 1;
};

struct Workload {
  std::string name;
  size_t motes = 0;          ///< Including the sink (node 0).
  size_t rooms_x = 1;        ///< Rooms are rooms_x x rooms_y rectangular tiles.
  size_t rooms_y = 1;
  double comm_range = 18.0;  ///< Metres.
  double spacing = 7.2;      ///< Grid step, metres.
  std::vector<OpeningQuery> opening;
  size_t subscribers = 0;
  /// Audits: every `audit_every` epochs (0 = none) an auditor admits
  /// `audit_sql` and cancels it `audit_live` epochs later.
  size_t audit_every = 0;
  size_t audit_live = 10;
  std::string audit_sql;
  bool churn = false;
  kspot::fault::FaultPlanOptions churn_plan;  ///< Horizon: the session.
  double loss_prob = 0.0;
  int max_retries = 0;
  size_t session_epochs = 0;
  /// Set-up-only repetitions before each session, so set-up time has enough
  /// samples for a median even when few sessions fit in the run.
  size_t extra_setups = 0;
  /// Lossless and churn-free: every answer must equal the oracle exactly.
  bool exact = true;
};

const char* kDashboard = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid";

std::vector<OpeningQuery> ControlRoomQueries() {
  return {
      {kDashboard, 1},
      {kDashboard, 1},
      {kDashboard, 1},
      {kDashboard, 1},
      {"SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY roomid", 1},
      {"SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY roomid", 1},
      {"SELECT TOP 5 nodeid, MAX(sound) FROM sensors GROUP BY nodeid", 1},
      {"SELECT TOP 2 roomid, MIN(sound) FROM sensors GROUP BY roomid", 4},
      {"SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid", 1},
      {"SELECT nodeid, sound FROM sensors WHERE sound > 60", 1},
      {"SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8", 1},
  };
}

std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "floor") {
    w.motes = 5000;
    w.rooms_x = 8;
    w.rooms_y = 8;
    w.spacing = w.comm_range / 2.5;  // ~20 radio neighbours per mote
    w.opening = ControlRoomQueries();
    w.subscribers = 100000;
    w.audit_every = 50;
    w.audit_sql = "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 32";
    w.session_epochs = 200;
    w.extra_setups = 4;
  } else if (name == "churn") {
    w.motes = 2000;
    w.rooms_x = 8;
    w.rooms_y = 4;
    w.spacing = w.comm_range / 2.5;
    w.opening = ControlRoomQueries();
    w.subscribers = 100;
    w.churn = true;
    w.churn_plan.crash_prob = 0.01;
    w.churn_plan.mean_downtime = 10;
    w.loss_prob = 0.05;
    w.max_retries = 2;
    w.session_epochs = 300;
    w.extra_setups = 4;
    w.exact = false;
  } else if (name == "dense") {
    // sim::MakeGrid's defaults at n = 20000: a 100 m field, 18 m range,
    // about 2000 radio neighbours per mote.
    w.motes = 20000;
    w.rooms_x = 8;
    w.rooms_y = 8;
    w.spacing = 100.0 / std::ceil(std::sqrt(static_cast<double>(w.motes)));
    w.opening = {{kDashboard, 1}, {kDashboard, 1}, {kDashboard, 1}, {kDashboard, 1}};
    w.subscribers = 1000;
    w.session_epochs = 300;
  } else {
    return std::nullopt;
  }
  return w;
}

/// The generated inputs of one run: everything the program receives.
struct Inputs {
  kspot::system::Scenario scenario;
  std::vector<OpeningQuery> admit_order;  ///< Opening queries, admission order.
  std::vector<size_t> subscriber_target;  ///< Index into admit_order.
  std::vector<size_t> audit_epochs;       ///< Admit epochs of the audits.
  /// DeploymentConfig::seed: tree growth, sensor data, losses, fault plan.
  uint64_t deployment_seed = 1;
};

/// Motes on a square grid (sink at the first cell), each displaced by at most
/// 5% of the grid step so the disc graph is the grid's for every seed; rooms
/// are rectangular tiles. Opening queries are admitted in a seeded order and
/// subscribers follow a Zipf(1.1) skew whose head is the main dashboard.
Inputs GenerateInputs(const Workload& w, uint64_t seed, uint64_t deployment_seed) {
  Inputs in;
  in.deployment_seed = deployment_seed;
  InputRng place(seed ^ 0x9051710ULL);
  InputRng order(seed ^ 0x0DE5ULL);
  InputRng subs(seed ^ 0x5AB5ULL);

  kspot::system::Scenario& s = in.scenario;
  s.name = "servebench-" + w.name;
  s.comm_range = w.comm_range;
  s.modality = kspot::data::Modality::kSound;
  size_t side = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(w.motes))));
  size_t rows = (w.motes + side - 1) / side;
  s.field_w = static_cast<double>(side) * w.spacing;
  s.field_h = static_cast<double>(rows) * w.spacing;
  for (size_t r = 0; r < w.rooms_x * w.rooms_y; ++r) {
    s.cluster_names[static_cast<kspot::sim::GroupId>(r)] = "room-" + std::to_string(r);
  }
  s.nodes.reserve(w.motes);
  for (size_t i = 0; i < w.motes; ++i) {
    size_t gx = i % side;
    size_t gy = i / side;
    double jx = i == 0 ? 0.0 : (place.Uniform() - 0.5) * 0.1;
    double jy = i == 0 ? 0.0 : (place.Uniform() - 0.5) * 0.1;
    kspot::system::Scenario::Node n;
    n.id = static_cast<kspot::sim::NodeId>(i);
    n.x = (static_cast<double>(gx) + 0.5 + jx) * w.spacing;
    n.y = (static_cast<double>(gy) + 0.5 + jy) * w.spacing;
    n.room = static_cast<kspot::sim::GroupId>((gy * w.rooms_y / rows) * w.rooms_x +
                                              gx * w.rooms_x / side);
    s.nodes.push_back(n);
  }

  // Admission order: the main dashboard first, the rest shuffled.
  in.admit_order = w.opening;
  for (size_t i = in.admit_order.size(); i > 2; --i) {
    size_t j = 1 + static_cast<size_t>(order.Next() % (i - 1));
    std::swap(in.admit_order[i - 1], in.admit_order[j]);
  }

  // Zipf(1.1) over admission rank: the dashboard (rank 0) draws the most.
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t r = 0; r < in.admit_order.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
    cdf.push_back(total);
  }
  in.subscriber_target.reserve(w.subscribers);
  for (size_t u = 0; u < w.subscribers; ++u) {
    double x = subs.Uniform() * total;
    size_t r = static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
    in.subscriber_target.push_back(std::min(r, cdf.size() - 1));
  }

  if (w.audit_every > 0) {
    for (size_t e = w.audit_every; e + w.audit_live <= w.session_epochs; e += w.audit_every) {
      in.audit_epochs.push_back(e);
    }
  }
  return in;
}

QueryCoordinator::Options CoordinatorOptions(const Workload& w, const Inputs& in, bool traced) {
  QueryCoordinator::Options opt;
  opt.epochs = w.session_epochs;
  opt.seed = in.deployment_seed;
  opt.loss_prob = w.loss_prob;
  opt.max_retries = w.max_retries;
  opt.enable_churn = w.churn;
  opt.churn = w.churn_plan;
  opt.enable_tracing = traced;
  return opt;
}

// -------------------------------------------------------------- public calls

/// Counts every public call's Status into attempted/failed.
struct CallLedger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  bool Count(const kspot::util::Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    if (first_error.empty()) first_error = std::string(what) + ": " + status.message();
    return false;
  }
  template <typename T>
  bool Count(const kspot::util::StatusOr<T>& result, const char* what) {
    return Count(result.ok() ? kspot::util::Status::Ok() : result.status(), what);
  }
};

// ----------------------------------------------------------------- sessions

/// FNV-1a over the bits the simulation produced.
struct Digest {
  uint64_t h = 0xCBF29CE484222325ULL;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Mix(bits);
  }
};

/// Span totals of one traced session, microseconds summed over its epochs.
struct SpanTotals {
  double step = 0, churn = 0, plan = 0, waves = 0, merge = 0, repair = 0, slice = 0;
  bool dropped = false;
};

/// What setting up one session took.
struct SetUpTimes {
  double setup_s = 0.0;  ///< Constructor + opening Admits + Subscribes + Open.
  double deploy_ms = 0.0;
  double subscribe_ms = 0.0;
  double open_ms = 0.0;
  std::vector<double> admit_us;  ///< One per opening Admit.
};

struct SessionResult {
  SetUpTimes setup;
  // Serving loop.
  std::vector<double> step_ms;   ///< Per-epoch driver latency, wall clock.
  std::vector<double> publish_ms;
  std::vector<double> audit_admit_ms;
  size_t epochs = 0;
  // Simulated cost, summed over epochs.
  uint64_t messages = 0;
  uint64_t frames = 0;
  uint64_t onair_bytes = 0;
  double energy_j = 0.0;
  uint64_t deliveries = 0;
  uint64_t groups_ran = 0;
  uint64_t repair_events = 0;
  uint64_t repair_messages = 0;
  double detached_sum = 0.0;
  size_t operators = 0;
  size_t queries = 0;
  Digest digest;
  SpanTotals spans;
  // Kept for the answer checks (first session only).
  std::optional<kspot::system::CoordinatorReport> report;
  std::vector<QueryId> opening_ids;
  std::vector<std::pair<QueryId, size_t>> audits;  ///< (id, admit epoch).
};

class SpanReader {
 public:
  SpanReader() {
    auto& t = kspot::obs::GlobalTracer();
    step_ = t.InternName("coord.step");
    churn_ = t.InternName("coord.churn");
    plan_ = t.InternName("coord.plan");
    waves_ = t.InternName("coord.waves");
    merge_ = t.InternName("coord.merge");
    repair_ = t.InternName("fault.repair");
    slice_ = t.InternName("coord.slice");
  }

  /// Folds the buffered spans into `out` and clears the tracer.
  void Drain(SpanTotals& out) const {
    auto& t = kspot::obs::GlobalTracer();
    if (t.dropped() != 0) out.dropped = true;
    for (const kspot::obs::TraceSpan& s : t.Spans()) {
      double d = static_cast<double>(s.dur_us);
      if (s.name_id == step_) out.step += d;
      else if (s.name_id == churn_) out.churn += d;
      else if (s.name_id == plan_) out.plan += d;
      else if (s.name_id == waves_) out.waves += d;
      else if (s.name_id == merge_) out.merge += d;
      else if (s.name_id == repair_) out.repair += d;
      else if (s.name_id == slice_) out.slice += d;
    }
    t.Clear();
  }

 private:
  uint32_t step_, churn_, plan_, waves_, merge_, repair_, slice_;
};

void MixUpdate(Digest& d, const kspot::system::EpochUpdate& u) {
  d.Mix(u.epoch);
  d.Mix(u.epoch_cost.messages);
  d.Mix(u.epoch_cost.frames);
  d.Mix(u.epoch_cost.onair_bytes);
  d.MixDouble(u.epoch_cost.energy_j());
  d.Mix(u.alive);
  d.Mix(u.detached);
  d.Mix(u.repair_messages);
  for (const kspot::system::GroupUpdate& g : u.groups) {
    d.Mix(g.group_id);
    d.Mix(g.ran ? 1 : 0);
    if (g.result) {
      for (const auto& item : g.result->items) {
        d.Mix(item.group);
        d.MixDouble(item.value);
      }
    }
    if (g.rows) {
      for (const auto& row : *g.rows) {
        d.Mix(row.node);
        d.MixDouble(row.value);
      }
    }
  }
}

/// A coordinator session made ready to step, and what setting it up took.
struct SetUpSession {
  std::unique_ptr<kspot::system::FanOutHub> hub;  ///< Subscribed to *coordinator.
  std::vector<QueryId> opening_ids;               ///< Admission order.
  SetUpTimes times;
};

/// From the scenario in hand to an open session: builds the coordinator
/// (deployment), admits the opening queries, subscribes every subscriber and
/// opens the session. Replaces any previous `coordinator` first.
SetUpSession SetUp(const Workload& w, const Inputs& in, bool traced, CallLedger& calls,
                   std::unique_ptr<QueryCoordinator>& coordinator) {
  SetUpSession s;
  coordinator.reset();
  kspot::system::Scenario scenario = in.scenario;
  QueryCoordinator::Options options = CoordinatorOptions(w, in, traced);

  Clock::time_point t0 = Clock::now();
  coordinator = std::make_unique<QueryCoordinator>(std::move(scenario), std::move(options));
  Clock::time_point t1 = Clock::now();
  for (const OpeningQuery& q : in.admit_order) {
    kspot::system::AdmitOptions admit;
    admit.period = q.period;
    Clock::time_point a0 = Clock::now();
    auto id = coordinator->Admit(q.sql, admit);
    s.times.admit_us.push_back(Ms(a0, Clock::now()) * 1000.0);
    s.opening_ids.push_back(calls.Count(id, "Admit") ? id.value() : 0);
  }
  Clock::time_point t2 = Clock::now();
  s.hub = std::make_unique<kspot::system::FanOutHub>(coordinator.get());
  for (size_t target : in.subscriber_target) {
    calls.Count(s.hub->Subscribe(s.opening_ids[target]), "Subscribe");
  }
  Clock::time_point t3 = Clock::now();
  calls.Count(coordinator->Open(), "Open");
  Clock::time_point t4 = Clock::now();
  s.times.deploy_ms = Ms(t0, t1);
  s.times.subscribe_ms = Ms(t2, t3);
  s.times.open_ms = Ms(t3, t4);
  s.times.setup_s = Ms(t0, t4) / 1000.0;
  return s;
}

/// Runs one session: set-up, the fixed epoch schedule, Close. `coordinator`
/// keeps the closed coordinator so the caller can read its deployment.
SessionResult RunSession(const Workload& w, const Inputs& in, bool traced,
                         bool keep_report, const SpanReader& spans, CallLedger& calls,
                         std::unique_ptr<QueryCoordinator>& coordinator) {
  SessionResult r;
  SetUpSession setup = SetUp(w, in, traced, calls, coordinator);
  QueryCoordinator& coord = *coordinator;
  kspot::system::FanOutHub& hub = *setup.hub;
  r.setup = setup.times;
  r.opening_ids = setup.opening_ids;

  if (traced) {
    SpanTotals setup_spans;  // the program records no set-up spans yet
    spans.Drain(setup_spans);
  }
  size_t next_audit = 0;
  r.step_ms.reserve(w.session_epochs);
  for (size_t e = 0; e < w.session_epochs; ++e) {
    Clock::time_point s0 = Clock::now();
    for (const auto& [id, admitted_at] : r.audits) {
      if (admitted_at + w.audit_live == e) calls.Count(coord.Cancel(id), "Cancel");
    }
    if (next_audit < in.audit_epochs.size() && in.audit_epochs[next_audit] == e) {
      Clock::time_point a0 = Clock::now();
      auto id = coord.Admit(w.audit_sql);
      r.audit_admit_ms.push_back(Ms(a0, Clock::now()));
      if (calls.Count(id, "Admit")) r.audits.emplace_back(id.value(), e);
      ++next_audit;
    }
    auto update = coord.StepEpoch();
    size_t delivered = 0;
    Clock::time_point p0 = Clock::now();
    if (update.ok()) delivered = hub.Publish(update.value());
    Clock::time_point s1 = Clock::now();
    calls.Count(update, "StepEpoch");
    r.step_ms.push_back(Ms(s0, s1));
    r.publish_ms.push_back(Ms(p0, s1));
    ++r.epochs;

    // Accounting, outside the timed step.
    r.deliveries += delivered;
    if (update.ok()) {
      const kspot::system::EpochUpdate& u = update.value();
      r.messages += u.epoch_cost.messages;
      r.frames += u.epoch_cost.frames;
      r.onair_bytes += u.epoch_cost.onair_bytes;
      r.energy_j += u.epoch_cost.energy_j();
      for (const auto& g : u.groups) r.groups_ran += g.ran ? 1 : 0;
      r.repair_events = u.repair_events;
      r.repair_messages = u.repair_messages;
      r.detached_sum += static_cast<double>(u.detached);
      MixUpdate(r.digest, u);
    }
    if (traced) spans.Drain(r.spans);
  }

  auto report = coord.Close();
  if (calls.Count(report, "Close")) {
    r.operators = report.value().operators;
    r.queries = report.value().queries;
    for (const auto& o : report.value().outcomes) {
      for (const auto& item : o.historic.items) {
        r.digest.Mix(item.group);
        r.digest.MixDouble(item.value);
      }
    }
    if (keep_report) r.report = std::move(report).value();
  }
  if (traced) spans.Drain(r.spans);
  return r;
}

// ------------------------------------------------------------------- checks

/// The outcome of checking one session's answers against the exact ones.
struct AnswerCheck {
  bool ok = true;
  std::string first_mismatch;
  double recall = 0.0;           ///< Mean over ranked queries (incl. audits).
  double snapshot_recall = 0.0;  ///< Mean over the opening ranked queries.
  double audit_recall = 0.0;     ///< Mean over audits (0 when none ran).
  size_t audits = 0;

  void Fail(const std::string& what) {
    if (ok) first_mismatch = what;
    ok = false;
  }
};

AnswerCheck CheckAnswers(const Workload& w, const Inputs& in,
                         const kspot::system::Deployment& deployment, const SessionResult& s) {
  namespace ks = kspot::system;
  AnswerCheck check;
  if (!s.report) {
    check.Fail("no report");
    return check;
  }
  const ks::CoordinatorReport& report = *s.report;
  const kspot::sim::Topology& topo = deployment.topology;
  const size_t n = topo.num_nodes();

  std::map<QueryId, const ks::QueryOutcome*> outcome_of;
  for (const ks::QueryOutcome& o : report.outcomes) outcome_of[o.id] = &o;

  auto gen = deployment.DefaultGenerator(in.deployment_seed);
  auto window_inner = deployment.DefaultGenerator(in.deployment_seed);

  // One checker per opening query.
  struct Ranked {
    const ks::QueryOutcome* outcome = nullptr;
    std::unique_ptr<kspot::data::WindowAggregateGenerator> window_gen;
    std::unique_ptr<kspot::core::Oracle> oracle;
    std::map<kspot::sim::Epoch, const kspot::core::TopKResult*> by_epoch;
    double recall_sum = 0.0;
    size_t answers = 0;
  };
  std::vector<Ranked> ranked;
  const ks::QueryOutcome* where_outcome = nullptr;
  kspot::query::Predicate where;
  for (size_t qi = 0; qi < in.admit_order.size(); ++qi) {
    auto it = outcome_of.find(s.opening_ids[qi]);
    if (it == outcome_of.end()) {
      check.Fail("opening query " + std::to_string(qi) + " has no outcome");
      continue;
    }
    const ks::QueryOutcome* o = it->second;
    auto parsed = kspot::query::Parse(o->sql);
    if (!parsed.ok()) {
      check.Fail("unparsable outcome sql");
      continue;
    }
    if (o->query_class == kspot::query::QueryClass::kBasicSelect &&
        parsed.value().group_by.empty()) {
      where_outcome = o;
      where = parsed.value().where;
      size_t expected = (w.session_epochs + in.admit_order[qi].period - 1) /
                        static_cast<size_t>(in.admit_order[qi].period);
      if (o->rows_per_epoch.size() != expected) check.Fail("select answered wrong epoch count");
      continue;
    }
    Ranked rq;
    rq.outcome = o;
    kspot::core::QuerySpec spec = ks::SpecFromQuery(parsed.value(), deployment.scenario);
    kspot::data::DataGenerator* source = gen.get();
    if (parsed.value().history > 0) {
      rq.window_gen = std::make_unique<kspot::data::WindowAggregateGenerator>(
          window_inner.get(), n, static_cast<size_t>(parsed.value().history), spec.agg);
      source = rq.window_gen.get();
    }
    rq.oracle = std::make_unique<kspot::core::Oracle>(&topo, source, spec);
    for (const kspot::core::TopKResult& res : o->per_epoch) rq.by_epoch[res.epoch] = &res;
    size_t period = static_cast<size_t>(in.admit_order[qi].period);
    size_t expected = (w.session_epochs + period - 1) / period;
    if (o->per_epoch.size() != expected || rq.by_epoch.size() != expected) {
      check.Fail("ranked query " + o->sql + " answered wrong epoch count");
    }
    ranked.push_back(std::move(rq));
  }

  // One pass over the epochs in order (generators only move forward).
  std::vector<double> epoch_avg(w.session_epochs, 0.0);
  for (size_t e = 0; e < w.session_epochs; ++e) {
    const auto epoch = static_cast<kspot::sim::Epoch>(e);
    gen->PrepareEpoch(epoch);
    double sum = 0.0;
    for (kspot::sim::NodeId id = 1; id < n; ++id) sum += gen->Value(id, epoch);
    epoch_avg[e] = sum / static_cast<double>(n - 1);

    for (Ranked& rq : ranked) {
      kspot::core::TopKResult truth = rq.oracle->TopK(epoch);
      auto it = rq.by_epoch.find(epoch);
      if (it == rq.by_epoch.end()) continue;
      const kspot::core::TopKResult& got = *it->second;
      if (w.exact && got.items != truth.items) {
        check.Fail(rq.outcome->sql + " differs from the oracle at epoch " + std::to_string(e));
      }
      rq.recall_sum += got.RecallAgainst(truth);
      ++rq.answers;
    }

    if (w.exact && where_outcome != nullptr && e < where_outcome->rows_per_epoch.size()) {
      const auto& rows = where_outcome->rows_per_epoch[e];
      size_t k = 0;
      bool same = true;
      for (kspot::sim::NodeId id = 1; id < n && same; ++id) {
        double v = gen->Value(id, epoch);
        if (!kspot::core::EvalPredicate(where, v)) continue;
        same = k < rows.size() && rows[k].node == id && rows[k].room == topo.room(id) &&
               rows[k].value == v;
        ++k;
      }
      if (!same || k != rows.size()) {
        check.Fail("WHERE rows differ from a direct scan at epoch " + std::to_string(e));
      }
    }
  }

  double snapshot_sum = 0.0;
  for (const Ranked& rq : ranked) {
    snapshot_sum += rq.answers > 0 ? rq.recall_sum / static_cast<double>(rq.answers) : 0.0;
  }
  check.snapshot_recall = ranked.empty() ? 0.0 : snapshot_sum / static_cast<double>(ranked.size());

  // Audits: the exact top-k of the W epochs before each admit, by the mean
  // reading over every sensor, best first and earlier epochs on ties. A
  // historic answer ranks window positions (0 = oldest), so position i stands
  // for epoch admit - W + i.
  double audit_sum = 0.0;
  auto audit_query = kspot::query::Parse(w.audit_sql);
  const size_t audit_k =
      audit_query.ok() ? static_cast<size_t>(std::max(1, audit_query.value().top_k)) : 1;
  const size_t audit_window =
      audit_query.ok() ? static_cast<size_t>(std::max(0, audit_query.value().history)) : 0;
  for (const auto& [id, admit_epoch] : s.audits) {
    auto it = outcome_of.find(id);
    if (it == outcome_of.end()) {
      check.Fail("audit has no outcome");
      continue;
    }
    const auto& items = it->second->historic.items;
    const size_t first = admit_epoch >= audit_window ? admit_epoch - audit_window : 0;
    std::vector<size_t> window;
    for (size_t e = first; e < admit_epoch; ++e) window.push_back(e);
    std::stable_sort(window.begin(), window.end(),
                     [&](size_t a, size_t b) { return epoch_avg[a] > epoch_avg[b]; });
    size_t k = std::min(window.size(), audit_k);
    size_t hit = 0;
    for (size_t i = 0; i < k; ++i) {
      for (const auto& item : items) hit += first + item.group == window[i] ? 1 : 0;
    }
    audit_sum += k > 0 ? static_cast<double>(hit) / static_cast<double>(k) : 1.0;
    ++check.audits;
  }
  check.audit_recall = check.audits > 0 ? audit_sum / static_cast<double>(check.audits) : 0.0;
  size_t ranked_count = ranked.size() + check.audits;
  check.recall =
      ranked_count > 0 ? (snapshot_sum + audit_sum) / static_cast<double>(ranked_count) : 0.0;
  return check;
}

// ------------------------------------------------------------------ metrics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Everything a run's sessions add up to.
struct RunTotals {
  std::vector<double> setup_s, deploy_ms, subscribe_ms, open_ms, admit_us;
  std::vector<double> publish_ms, audit_admit_ms, slice_ms;
  std::vector<std::vector<double>> session_step_ms;  ///< One per session.
  size_t epochs = 0;
  SpanTotals spans;

  void Add(const SessionResult& r) {
    setup_s.push_back(r.setup.setup_s);
    deploy_ms.push_back(r.setup.deploy_ms);
    subscribe_ms.push_back(r.setup.subscribe_ms);
    open_ms.push_back(r.setup.open_ms);
    admit_us.insert(admit_us.end(), r.setup.admit_us.begin(), r.setup.admit_us.end());
    session_step_ms.push_back(r.step_ms);
    publish_ms.insert(publish_ms.end(), r.publish_ms.begin(), r.publish_ms.end());
    audit_admit_ms.insert(audit_admit_ms.end(), r.audit_admit_ms.begin(),
                          r.audit_admit_ms.end());
    slice_ms.push_back(r.spans.slice / 1000.0);
    epochs += r.epochs;
    spans.step += r.spans.step;
    spans.churn += r.spans.churn;
    spans.plan += r.spans.plan;
    spans.waves += r.spans.waves;
    spans.merge += r.spans.merge;
    spans.repair += r.spans.repair;
    spans.dropped = spans.dropped || r.spans.dropped;
  }
  /// Every session replays the same epochs bit for bit, so the latency of
  /// epoch e is the median of its replays: host bursts that hit a minority
  /// of the replays drop out, the work of every epoch stays in.
  std::vector<double> ReplayStepMs() const {
    std::vector<double> out;
    for (size_t e = 0; !session_step_ms.empty() && e < session_step_ms[0].size(); ++e) {
      std::vector<double> replays;
      for (const std::vector<double>& session : session_step_ms) replays.push_back(session[e]);
      out.push_back(Quantile(replays, 0.5));
    }
    return out;
  }
  /// Epochs over the wall time of one replay-median session.
  double EpochsPerS() const {
    std::vector<double> ms = ReplayStepMs();
    double total_ms = 0.0;
    for (double x : ms) total_ms += x;
    return total_ms > 0.0 ? 1000.0 * static_cast<double>(ms.size()) / total_ms : 0.0;
  }
};

/// Repeats the workload's session until `seconds` have passed (at least one
/// session). Every repeat must reproduce the first session bit for bit.
struct Phase {
  RunTotals totals;
  std::optional<SessionResult> first;
  bool deterministic = true;
};

Phase RunPhase(const Workload& w, const Inputs& in, double seconds, bool traced,
               size_t extra_setups, const SpanReader& spans, CallLedger& calls,
               std::unique_ptr<QueryCoordinator>& coordinator) {
  Phase phase;
  Clock::time_point start = Clock::now();
  // Start another session only while it is expected to end within the run.
  double longest_s = 0.0;
  for (;;) {
    Clock::time_point s0 = Clock::now();
    // Set-up-only repetitions (set up, close without stepping), spread over
    // the run next to each session.
    for (size_t i = 0; i < extra_setups; ++i) {
      phase.totals.setup_s.push_back(SetUp(w, in, traced, calls, coordinator).times.setup_s);
      calls.Count(coordinator->Close(), "Close");
    }
    SessionResult r =
        RunSession(w, in, traced, !phase.first.has_value(), spans, calls, coordinator);
    longest_s = std::max(longest_s, Ms(s0, Clock::now()) / 1000.0);
    phase.totals.Add(r);
    if (!phase.first) {
      phase.first = std::move(r);
    } else if (r.digest.h != phase.first->digest.h) {
      phase.deterministic = false;
    }
    if (Ms(start, Clock::now()) / 1000.0 + longest_s > seconds) break;
  }
  return phase;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(bool correct, const CallLedger& calls, const std::vector<Metric>& metrics) {
  std::printf("%-32s %18s  %-8s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-32s %18.6f  %-8s %8zu\n", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(calls.attempted) +
                     ", \"failed\": " + std::to_string(calls.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: serve_bench --workload floor|churn|dense --seed N --seconds S "
               "--trace 0|1 [--deployment-seed N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  uint64_t deployment_seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") workload_name = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--deployment-seed") deployment_seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else return Usage();
  }
  if (argc % 2 != 1) return Usage();
  std::optional<Workload> maybe = MakeWorkload(workload_name);
  if (!maybe || seconds <= 0.0 || (trace != 0 && trace != 1)) return Usage();
  const Workload& w = *maybe;

  kspot::obs::SetTracingEnabled(false);
  const Inputs in = GenerateInputs(w, seed, deployment_seed);
  const SpanReader spans;
  CallLedger calls;
  std::unique_ptr<QueryCoordinator> coordinator;
  std::vector<Metric> metrics;
  bool correct = true;
  std::string problem;
  auto fail = [&](const std::string& why) {
    if (correct) problem = why;
    correct = false;
  };

  if (trace == 0) {
    Phase run = RunPhase(w, in, seconds, false, w.extra_setups, spans, calls, coordinator);
    double rss = PeakRssMb();
    const SessionResult& first = *run.first;
    AnswerCheck check = CheckAnswers(w, in, coordinator->deployment(), first);
    if (!run.deterministic) fail("a repeated session diverged from the first");
    if (!check.ok) fail(check.first_mismatch);
    const RunTotals& t = run.totals;
    const double epochs = static_cast<double>(first.epochs);
    metrics = {
        {"setup_s", Quantile(t.setup_s, 0.5), "s", t.setup_s.size()},
        {"epochs_per_s", t.EpochsPerS(), "1/s", t.epochs},
        {"step_ms_p50", Quantile(t.ReplayStepMs(), 0.5), "ms", t.epochs},
        {"step_ms_p90", Quantile(t.ReplayStepMs(), 0.9), "ms", t.epochs},
        {"peak_rss_mb", rss, "MB", 1},
        {"msgs_per_epoch", static_cast<double>(first.messages) / epochs, "count", first.epochs},
        {"energy_mj_per_epoch", first.energy_j * 1000.0 / epochs, "mJ", first.epochs},
        {"recall", check.recall, "ratio", first.opening_ids.size() + first.audits.size()},
        {"success_rate",
         calls.attempted > 0
             ? static_cast<double>(calls.attempted - calls.failed) /
                   static_cast<double>(calls.attempted)
             : 0.0,
         "ratio", static_cast<size_t>(calls.attempted)},
    };
  } else {
    // Set-up layers, timed around the library calls on this workload's
    // scenario.
    std::vector<double> topo_ms, adj_ms, tree_ms;
    for (int rep = 0; rep < 3; ++rep) {
      Clock::time_point a = Clock::now();
      kspot::sim::Topology topo = in.scenario.BuildTopology();
      Clock::time_point b = Clock::now();
      auto adjacency = topo.BuildAdjacency();
      Clock::time_point c = Clock::now();
      adjacency.clear();
      adjacency.shrink_to_fit();
      kspot::util::Rng tree_rng(in.deployment_seed ^ 0xA5A5A5A5ULL);
      Clock::time_point d = Clock::now();
      kspot::sim::RoutingTree tree = kspot::sim::RoutingTree::BuildClusterAware(topo, tree_rng);
      Clock::time_point e = Clock::now();
      topo_ms.push_back(Ms(a, b));
      adj_ms.push_back(Ms(b, c));
      tree_ms.push_back(Ms(d, e));
    }

    // Untraced half, then traced half (the tracing switch only turns on).
    Phase plain =
        RunPhase(w, in, seconds / 2.0, false, 0, spans, calls, coordinator);
    Phase traced =
        RunPhase(w, in, seconds / 2.0, true, 0, spans, calls, coordinator);
    const SessionResult& p = *plain.first;
    const SessionResult& f = *traced.first;
    AnswerCheck plain_check = CheckAnswers(w, in, coordinator->deployment(), p);
    AnswerCheck check = CheckAnswers(w, in, coordinator->deployment(), f);
    if (!plain.deterministic || !traced.deterministic) {
      fail("a repeated session diverged from the first");
    }
    if (!check.ok) fail(check.first_mismatch);
    if (!plain_check.ok) fail(plain_check.first_mismatch);
    if (p.digest.h != f.digest.h || p.messages != f.messages ||
        std::memcmp(&p.energy_j, &f.energy_j, sizeof(double)) != 0 ||
        std::memcmp(&plain_check.recall, &check.recall, sizeof(double)) != 0) {
      fail("the traced run's simulated results differ from the untraced run's");
    }
    if (traced.totals.spans.dropped) fail("the tracer dropped spans");

    const RunTotals& t = traced.totals;
    const double epochs = static_cast<double>(t.epochs);
    auto per_epoch_ms = [&](double us) { return epochs > 0 ? us / 1000.0 / epochs : 0.0; };
    const double fe = static_cast<double>(f.epochs);
    metrics = {
        {"sim.topology_ms", Quantile(topo_ms, 0.5), "ms", topo_ms.size()},
        {"sim.adjacency_ms", Quantile(adj_ms, 0.5), "ms", adj_ms.size()},
        {"sim.tree_ms", Quantile(tree_ms, 0.5), "ms", tree_ms.size()},
        {"kspot.deploy_ms", Quantile(t.deploy_ms, 0.5), "ms", t.deploy_ms.size()},
        {"kspot.open_ms", Quantile(t.open_ms, 0.5), "ms", t.open_ms.size()},
        {"kspot.subscribe_ms", Quantile(t.subscribe_ms, 0.5), "ms", t.subscribe_ms.size()},
        {"query.admit_us", Quantile(t.admit_us, 0.5), "us", t.admit_us.size()},
        {"kspot.step_ms", per_epoch_ms(t.spans.step), "ms", t.epochs},
        {"kspot.step_self_ms",
         per_epoch_ms(t.spans.step - t.spans.churn - t.spans.plan - t.spans.waves -
                      t.spans.merge),
         "ms", t.epochs},
        {"kspot.waves_ms", per_epoch_ms(t.spans.waves), "ms", t.epochs},
        {"kspot.plan_ms", per_epoch_ms(t.spans.plan), "ms", t.epochs},
        {"kspot.merge_ms", per_epoch_ms(t.spans.merge), "ms", t.epochs},
        {"kspot.slice_ms", Quantile(t.slice_ms, 0.5), "ms", t.slice_ms.size()},
        {"kspot.churn_ms", per_epoch_ms(t.spans.churn), "ms", t.epochs},
        {"fault.repair_ms", per_epoch_ms(t.spans.repair), "ms", t.epochs},
        {"fault.repair_events", static_cast<double>(f.repair_events) / fe, "count", f.epochs},
        {"fault.repair_msgs_per_epoch", static_cast<double>(f.repair_messages) / fe, "count",
         f.epochs},
        {"fault.detached_mean", f.detached_sum / fe, "count", f.epochs},
        {"kspot.publish_ms", Mean(t.publish_ms), "ms", t.publish_ms.size()},
        {"kspot.deliveries_per_epoch", static_cast<double>(f.deliveries) / fe, "count",
         f.epochs},
        {"kspot.audit_admit_ms", Quantile(t.audit_admit_ms, 0.5), "ms", t.audit_admit_ms.size()},
        {"core.audit_recall", check.audit_recall, "ratio", check.audits},
        {"kspot.operators", static_cast<double>(f.operators), "count", 1},
        {"kspot.share_ratio",
         f.operators > 0 ? static_cast<double>(f.queries) / static_cast<double>(f.operators)
                         : 0.0,
         "ratio", 1},
        {"kspot.groups_ran_per_epoch", static_cast<double>(f.groups_ran) / fe, "count",
         f.epochs},
        {"sim.frames_per_epoch", static_cast<double>(f.frames) / fe, "count", f.epochs},
        {"sim.onair_bytes_per_epoch", static_cast<double>(f.onair_bytes) / fe, "B", f.epochs},
        {"core.snapshot_recall", check.snapshot_recall, "ratio", f.opening_ids.size()},
        {"obs.trace_overhead",
         t.EpochsPerS() > 0.0 ? plain.totals.EpochsPerS() / t.EpochsPerS() : 0.0, "ratio",
         t.epochs},
    };
  }

  if (!calls.first_error.empty()) {
    std::fprintf(stderr, "serve_bench: first failed call: %s\n", calls.first_error.c_str());
  }
  if (!correct) std::fprintf(stderr, "serve_bench: check failed: %s\n", problem.c_str());
  PrintResult(correct, calls, metrics);
  return 0;
}
