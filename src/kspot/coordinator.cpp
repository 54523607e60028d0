#include "kspot/coordinator.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "agg/aggregate.hpp"
#include "core/historic_stream.hpp"
#include "core/history_source.hpp"
#include "core/mint.hpp"
#include "core/tag.hpp"
#include "data/windowed.hpp"
#include "fault/churn_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/history_store.hpp"

namespace kspot::system {

namespace {

constexpr sim::Epoch kNoEpoch = std::numeric_limits<sim::Epoch>::max();

/// How a query executes on the shared data plane.
enum class OpKind {
  kSnapshot,    ///< MINT continuous top-k.
  kTagFullView, ///< GROUP BY without TOP: TAG reporting every group.
  kSelect,      ///< Ungrouped acquisitional SELECT (optional WHERE).
  kHorizontal,  ///< MINT over per-node window aggregates.
  kVertical,    ///< One-shot TJA over buffered windows.
};

/// The single classification both the compatibility key and the operator
/// construction derive from: two queries share an operator if and only if
/// their plans carry identical fields, because the key below is built from
/// exactly the fields the construction switch consumes.
struct OperatorPlan {
  OpKind kind = OpKind::kSnapshot;
  core::QuerySpec spec;                  ///< kSnapshot/kTagFullView/kHorizontal.
  size_t window = 0;                     ///< kHorizontal/kVertical.
  core::HistoricOptions historic;        ///< kVertical.
  bool has_where = false;                ///< kSelect.
  query::Predicate where;                ///< kSelect.
};

OperatorPlan PlanFor(const query::ParsedQuery& parsed, query::QueryClass cls,
                     const Scenario& scenario) {
  OperatorPlan plan;
  plan.spec = SpecFromQuery(parsed, scenario);
  plan.window =
      parsed.history > 0 ? static_cast<size_t>(parsed.history) : Deployment::kDefaultWindow;
  switch (cls) {
    case query::QueryClass::kBasicSelect:
      if (parsed.FirstAggregate() != nullptr && !parsed.group_by.empty()) {
        plan.kind = OpKind::kTagFullView;
      } else {
        plan.kind = OpKind::kSelect;
        plan.has_where = parsed.has_where;
        if (parsed.has_where) plan.where = parsed.where;
      }
      break;
    case query::QueryClass::kSnapshotTopK:
      plan.kind = OpKind::kSnapshot;
      break;
    case query::QueryClass::kHistoricHorizontal:
      plan.kind = OpKind::kHorizontal;
      break;
    case query::QueryClass::kHistoricVertical: {
      plan.kind = OpKind::kVertical;
      plan.historic.k = std::max(1, parsed.top_k);
      const query::SelectItem* agg_item = parsed.FirstAggregate();
      if (agg_item != nullptr) agg::ParseAggKind(agg_item->aggregate, &plan.historic.agg);
      break;
    }
  }
  return plan;
}

/// Canonical compatibility key, a pure function of the plan's consumed
/// fields: queries mapping to the same key reduce to the same operator
/// configuration and may piggyback on one instance.
std::string CompatKey(const OperatorPlan& plan) {
  char buf[160];
  switch (plan.kind) {
    case OpKind::kSnapshot:
    case OpKind::kTagFullView:
      std::snprintf(buf, sizeof buf, "%s|k=%d|agg=%d|group=%d",
                    plan.kind == OpKind::kSnapshot ? "mint" : "tag", plan.spec.k,
                    static_cast<int>(plan.spec.agg), static_cast<int>(plan.spec.grouping));
      break;
    case OpKind::kSelect:
      if (plan.has_where) {
        std::snprintf(buf, sizeof buf, "select|%s|%d|%.17g", plan.where.attribute.c_str(),
                      static_cast<int>(plan.where.op), plan.where.literal);
      } else {
        std::snprintf(buf, sizeof buf, "select|all");
      }
      break;
    case OpKind::kHorizontal:
      std::snprintf(buf, sizeof buf, "hist|k=%d|agg=%d|group=%d|w=%zu", plan.spec.k,
                    static_cast<int>(plan.spec.agg), static_cast<int>(plan.spec.grouping),
                    plan.window);
      break;
    case OpKind::kVertical:
      std::snprintf(buf, sizeof buf, "tja|k=%d|agg=%d|w=%zu", plan.historic.k,
                    static_cast<int>(plan.historic.agg), plan.window);
      break;
  }
  return buf;
}

/// One operator instance of the shared data plane and the queries riding it.
struct OpGroup {
  OperatorPlan plan;
  std::string key;                       ///< CompatKey while alive.
  std::string algorithm;
  /// Indices into the admitted set of every query that EVER rode this
  /// operator (admission order) — share_group_size reports this.
  std::vector<size_t> members;
  bool alive = true;                     ///< False once released by Cancel.
  /// A topology change happened during an epoch this group skipped
  /// (rate-limited): evict stale caches before the next step.
  bool pending_refresh = false;
  /// Epoch-driven operators (snapshot MINT, grouped-select TAG, horizontal
  /// MINT-over-windows) ...
  std::unique_ptr<core::EpochAlgorithm> algo;
  /// ... or the tuple-collection path of ungrouped selects.
  std::unique_ptr<core::BasicSelect> select;
  /// Horizontal historic operators own their window adapter (the shared
  /// per-epoch wave feeds it through its own inner generator replay).
  std::unique_ptr<data::DataGenerator> own_inner;
  std::unique_ptr<data::WindowAggregateGenerator> window_gen;

  /// Cached tracer name id for this operator's per-epoch span
  /// ("coord.run.<algorithm>"); interned lazily on the first traced step.
  uint32_t span_id = 0;

  sim::TrafficCounters cost;
  std::vector<core::TopKResult> per_epoch;
  std::vector<std::vector<core::SelectTuple>> rows_per_epoch;
  /// Epoch stamps parallel to per_epoch / rows_per_epoch (rate limits and
  /// mid-session joins make them sparse / offset).
  std::vector<sim::Epoch> result_epochs;
  core::HistoricResult historic;

  /// Releases the operator: the share group emptied, stop costing anything.
  void Release() {
    alive = false;
    algo.reset();
    select.reset();
    window_gen.reset();
    own_inner.reset();
    key.clear();
  }
};

}  // namespace

/// Everything one open session owns: the shared data plane plus the
/// query->group bindings it serves. Destroyed at Close().
struct QueryCoordinator::Session {
  sim::RoutingTree tree;
  sim::Network net;
  std::unique_ptr<data::DataGenerator> shared_gen;
  std::unique_ptr<fault::ChurnEngine> churn;

  std::vector<OpGroup> groups;
  std::map<std::string, size_t> group_of_key;

  /// One entry per query this session served, admission order.
  struct Served {
    size_t admitted_index = 0;
    size_t group = 0;
    sim::Epoch join = 0;
    sim::Epoch leave = kNoEpoch;  ///< Set when cancelled mid-session.
  };
  std::vector<Served> served;

  sim::Epoch epoch = 0;  ///< Next epoch StepEpoch() executes.

  Session(const Deployment& deployment, const sim::NetworkOptions& net_options,
          uint64_t net_seed)
      : tree(deployment.tree),
        net(&deployment.topology, &tree, net_options, util::Rng(net_seed)) {}
};

QueryCoordinator::QueryCoordinator(Scenario scenario, Options options)
    : options_(std::move(options)),
      owned_deployment_(std::make_unique<Deployment>(std::move(scenario), options_.seed)),
      deployment_(owned_deployment_.get()) {}

QueryCoordinator::QueryCoordinator(const Deployment* deployment, Options options)
    : options_(std::move(options)), deployment_(deployment) {}

QueryCoordinator::~QueryCoordinator() = default;
QueryCoordinator::QueryCoordinator(QueryCoordinator&&) noexcept = default;
QueryCoordinator& QueryCoordinator::operator=(QueryCoordinator&&) noexcept = default;

std::unique_ptr<data::DataGenerator> QueryCoordinator::MakeGenerator(uint64_t seed) const {
  if (options_.make_generator) return options_.make_generator(deployment_->scenario, seed);
  return deployment_->DefaultGenerator(seed);
}

sim::NetworkOptions QueryCoordinator::NetOptions() const { return RadioOptionsFrom(options_); }

util::StatusOr<QueryId> QueryCoordinator::Admit(const std::string& sql) {
  return Admit(sql, AdmitOptions{});
}

util::StatusOr<QueryId> QueryCoordinator::Admit(const std::string& sql,
                                                const AdmitOptions& admit) {
  if (admit.period < 1) return util::Status::Error("AdmitOptions::period must be >= 1");
  util::StatusOr<query::ParsedQuery> parsed = query::Parse(sql);
  if (!parsed.ok()) return parsed.status();
  util::Status valid = query::Validate(parsed.value());
  if (!valid.ok()) return valid;
  Admitted entry;
  entry.id = next_id_++;
  entry.sql = sql;
  entry.parsed = parsed.value();
  entry.query_class = query::Classify(entry.parsed);
  entry.admit = admit;
  admitted_.push_back(std::move(entry));
  // Live admission: the query joins the running deployment at the next
  // epoch (creating its operator now if no compatible group exists).
  if (session_) BindToSession(admitted_.size() - 1);
  return admitted_.back().id;
}

util::Status QueryCoordinator::Cancel(QueryId id) {
  for (size_t qi = 0; qi < admitted_.size(); ++qi) {
    Admitted& entry = admitted_[qi];
    if (entry.id != id) continue;
    if (!entry.active) break;  // same clean error as an unknown id
    entry.active = false;
    if (!session_) return util::Status::Ok();
    // Live withdrawal: leave the share group; release the operator when the
    // group empties so it stops costing the shared network.
    for (Session::Served& served : session_->served) {
      if (served.admitted_index != qi || served.leave != kNoEpoch) continue;
      served.leave = session_->epoch;
      OpGroup& group = session_->groups[served.group];
      bool any_active = false;
      for (const Session::Served& other : session_->served) {
        if (other.group == served.group && other.leave == kNoEpoch) any_active = true;
      }
      if (!any_active && group.alive) {
        session_->group_of_key.erase(group.key);
        group.Release();
      }
      break;
    }
    return util::Status::Ok();
  }
  return util::Status::Error("no active query with id " + std::to_string(id));
}

bool QueryCoordinator::query_active(QueryId id) const {
  for (const Admitted& entry : admitted_) {
    if (entry.id == id) return entry.active;
  }
  return false;
}

size_t QueryCoordinator::active_queries() const {
  size_t n = 0;
  for (const Admitted& entry : admitted_) n += entry.active ? 1 : 0;
  return n;
}

bool QueryCoordinator::session_open() const { return session_ != nullptr; }

sim::Epoch QueryCoordinator::session_epoch() const { return session_ ? session_->epoch : 0; }

size_t QueryCoordinator::active_operators() const {
  if (!session_) return 0;
  size_t n = 0;
  for (const OpGroup& group : session_->groups) n += group.alive ? 1 : 0;
  return n;
}

/// Binds admitted_[admitted_index] to the open session: piggyback on an
/// existing compatible group or create the operator, and run one-shot
/// historic (TJA) queries immediately on the shared network. Mirrors the
/// historical batch planning loop exactly for queries bound at Open().
util::Status QueryCoordinator::BindToSession(size_t admitted_index) {
  Session& session = *session_;
  const Admitted& entry = admitted_[admitted_index];
  OperatorPlan plan = PlanFor(entry.parsed, entry.query_class, deployment_->scenario);
  std::string key = CompatKey(plan);
  if (!options_.share_operators) key += "#" + std::to_string(entry.id);

  Session::Served served;
  served.admitted_index = admitted_index;
  served.join = session.epoch;

  auto it = session.group_of_key.find(key);
  if (it != session.group_of_key.end()) {
    // Joining an existing group never perturbs it: the operator keeps its
    // state and wave schedule, the joiner just starts observing results.
    session.groups[it->second].members.push_back(admitted_index);
    served.group = it->second;
    session.served.push_back(served);
    return util::Status::Ok();
  }

  size_t n = deployment_->topology.num_nodes();
  OpGroup group;
  group.plan = plan;
  group.key = key;
  group.members.push_back(admitted_index);
  switch (plan.kind) {
    case OpKind::kTagFullView:
      group.algo =
          std::make_unique<core::TagTopK>(&session.net, session.shared_gen.get(), plan.spec);
      group.algorithm = group.algo->name();
      break;
    case OpKind::kSelect:
      group.select = std::make_unique<core::BasicSelect>(
          &session.net, session.shared_gen.get(), plan.has_where, plan.where);
      group.algorithm = "SELECT";
      break;
    case OpKind::kSnapshot:
      group.algo =
          std::make_unique<core::MintViews>(&session.net, session.shared_gen.get(), plan.spec);
      group.algorithm = group.algo->name();
      break;
    case OpKind::kHorizontal:
      group.own_inner = MakeGenerator(options_.seed);
      group.window_gen = std::make_unique<data::WindowAggregateGenerator>(
          group.own_inner.get(), n, plan.window, plan.spec.agg);
      group.algo =
          std::make_unique<core::MintViews>(&session.net, group.window_gen.get(), plan.spec);
      group.algorithm = "MINT+history";
      break;
    case OpKind::kVertical: {
      if (options_.historic.continuous) {
        // Continuous historic: a first-class session citizen. The operator
        // buffers each epoch's reading into per-node stores and StepEpoch
        // advances the sink's window view like any snapshot operator.
        core::HistoricStreamOptions hopt;
        hopt.k = plan.historic.k;
        hopt.agg = plan.historic.agg;
        hopt.window = plan.window;
        hopt.incremental = options_.historic.incremental;
        hopt.archive_to_flash = options_.historic.archive_to_flash;
        hopt.flash_accounting = options_.historic.flash_accounting;
        hopt.suppression = options_.historic.suppression;
        hopt.suppression_eps = options_.historic.suppression_eps;
        group.algo = std::make_unique<core::HistoricStream>(&session.net,
                                                            session.shared_gen.get(), hopt);
        group.algorithm = group.algo->name();
        break;
      }
      // One-shot historic: runs over already-buffered windows on the same
      // network — its traffic drains the same batteries the continuous
      // queries live off. Mid-session admits run theirs at admission.
      auto gen = MakeGenerator(options_.seed);
      std::vector<storage::HistoryStore> stores;
      stores.reserve(n);
      const data::ModalityInfo& info = data::GetModalityInfo(deployment_->scenario.modality);
      for (sim::NodeId id = 0; id < n; ++id) {
        stores.emplace_back(plan.window, /*archive_to_flash=*/false, info.min_value,
                            info.max_value);
      }
      for (size_t t = 0; t < plan.window; ++t) {
        for (sim::NodeId id = 1; id < n; ++id) {
          stores[id].Append(static_cast<sim::Epoch>(t),
                            gen->Value(id, static_cast<sim::Epoch>(t)));
        }
      }
      storage::StoreHistorySource source(&stores);
      core::Tja tja(&session.net, &source, plan.historic);
      sim::TrafficCounters before = session.net.total();
      group.historic = tja.Run();
      group.algorithm = tja.name();
      group.cost = session.net.total().Since(before);
      break;
    }
  }
  served.group = session.groups.size();
  session.group_of_key.emplace(std::move(key), session.groups.size());
  session.groups.push_back(std::move(group));
  session.served.push_back(served);
  return util::Status::Ok();
}

util::Status QueryCoordinator::Open() {
  if (session_) return util::Status::Error("session already open");

  // Observability opt-in rides the deployment config. The switches are
  // process-global and only ever turned ON here — another session or the
  // KSPOT_OBS environment variable may already hold them up — and flipping
  // them changes no answer: measurements are wall-clock only, outside the
  // golden-pinned path (golden_equivalence_test pins this).
  if (options_.enable_metrics) obs::SetMetricsEnabled(true);
  if (options_.enable_tracing) obs::SetTracingEnabled(true);

  // ------------------------------------------------------- shared data plane
  // One tree copy per session (churn repairs it in place; the deployment
  // stays pristine), one network, one generator: the per-epoch data wave
  // every epoch-driven operator reads. Seed derivations match KSpotServer's
  // snapshot path exactly, so a lone snapshot query reproduces Execute().
  session_ =
      std::make_unique<Session>(*deployment_, NetOptions(), options_.seed ^ options_.net_salt);
  session_->shared_gen = MakeGenerator(options_.seed);

  if (options_.enable_churn) {
    fault::FaultPlanOptions churn_opt = options_.churn;
    if (churn_opt.horizon == 0 || churn_opt.horizon > options_.epochs) {
      churn_opt.horizon = static_cast<sim::Epoch>(options_.epochs);
    }
    fault::FaultPlan plan =
        fault::FaultPlan::Generate(deployment_->topology, churn_opt, options_.seed ^ 0xFA11);
    session_->churn =
        std::make_unique<fault::ChurnEngine>(&session_->net, &session_->tree, std::move(plan));
  }

  // Bind every admitted query: group planning in admission order, exactly
  // the historical batch planning loop (operator constructors are pure state
  // allocation, so inline one-shot TJA runs land in the same group order the
  // batch TJA phase used).
  for (size_t qi = 0; qi < admitted_.size(); ++qi) {
    if (!admitted_[qi].active) continue;
    BindToSession(qi);
  }
  return util::Status::Ok();
}

util::StatusOr<EpochUpdate> QueryCoordinator::StepEpoch() {
  if (!session_) return util::Status::Error("no open session (call Open first)");
  Session& session = *session_;
  const sim::Epoch epoch = session.epoch;
  static const uint32_t kStepSpan = obs::GlobalTracer().InternName("coord.step");
  obs::ScopedSpan step_span(kStepSpan);
  const uint64_t step_start = obs::MetricsOn() ? obs::NowMicros() : 0;
  EpochUpdate update;
  update.epoch = epoch;
  sim::TrafficCounters epoch_start = session.net.total();
  // Refill per-node retry budgets and clear the degraded flag: deadlines and
  // budgets are per-epoch contracts.
  if (options_.reliability.enabled) session.net.BeginReliabilityEpoch();

  bool topology_changed = false;
  sim::TopologyDelta delta;
  if (session.churn) {
    static const uint32_t kChurnSpan = obs::GlobalTracer().InternName("coord.churn");
    obs::ScopedSpan churn_span(kChurnSpan);
    fault::ChurnReport churn_report = session.churn->BeginEpoch(epoch);
    topology_changed = churn_report.topology_changed;
    delta = churn_report.delta;
  }

  // Execution order: priority-desc over the live epoch-driven groups, ties
  // in creation (= admission) order — all-default priorities reproduce the
  // batch ordering bit-exactly.
  std::vector<size_t> order;
  std::vector<int> group_priority(session.groups.size(), 0);
  std::vector<char> group_eligible(session.groups.size(), 0);
  {
    static const uint32_t kPlanSpan = obs::GlobalTracer().InternName("coord.plan");
    obs::ScopedSpan plan_span(kPlanSpan);
    for (const Session::Served& served : session.served) {
      if (served.leave != kNoEpoch) continue;
      const AdmitOptions& admit = admitted_[served.admitted_index].admit;
      size_t gi = served.group;
      group_priority[gi] = std::max(group_priority[gi], admit.priority);
      if (epoch >= served.join &&
          (epoch - served.join) % static_cast<sim::Epoch>(admit.period) == 0) {
        group_eligible[gi] = 1;
      }
    }
    for (size_t gi = 0; gi < session.groups.size(); ++gi) {
      // Epoch-driven groups carry an algorithm or a select pipeline.
      // One-shot vertical (TJA) groups carry neither — they already ran at
      // bind time — while continuous-historic vertical groups step here
      // like any snapshot operator.
      const OpGroup& group = session.groups[gi];
      if (group.alive && (group.algo != nullptr || group.select != nullptr)) {
        order.push_back(gi);
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return group_priority[a] > group_priority[b];
    });
  }

  static const uint32_t kWavesSpan = obs::GlobalTracer().InternName("coord.waves");
  const uint64_t waves_start = obs::TracingOn() ? obs::NowMicros() : 0;
  for (size_t gi : order) {
    OpGroup& group = session.groups[gi];
    GroupUpdate gu;
    gu.group_id = gi;
    gu.algorithm = group.algorithm;
    for (const Session::Served& served : session.served) {
      if (served.group == gi && served.leave == kNoEpoch) {
        gu.members.push_back(admitted_[served.admitted_index].id);
      }
    }
    if (!group_eligible[gi]) {
      // Rate-limited out of this epoch. Operators keep caches keyed against
      // the tree; remember to evict them if it changed while we slept.
      if (topology_changed) group.pending_refresh = true;
      update.groups.push_back(std::move(gu));
      continue;
    }
    if (group.span_id == 0 && obs::TracingOn()) {
      group.span_id = obs::GlobalTracer().InternName("coord.run." + group.algorithm);
    }
    obs::ScopedSpan group_span(group.span_id);
    sim::TrafficCounters before = session.net.total();
    // The operator's own churn repair (e.g. MINT's cardinality-delta
    // converge-cast) is part of what this query group costs the network,
    // so it books inside the group's delta; only the tree-level join
    // handshakes (phase "fault.repair", charged by the engine above) stay
    // shared.
    if (group.pending_refresh) {
      if (group.algo) group.algo->OnTopologyChanged();
      group.pending_refresh = false;
    }
    if (topology_changed && group.algo) group.algo->OnTopologyChanged(delta);
    gu.ran = true;
    if (group.algo) {
      group.per_epoch.push_back(group.algo->RunEpoch(epoch));
      gu.result = std::make_shared<core::TopKResult>(group.per_epoch.back());
    } else {
      group.rows_per_epoch.push_back(group.select->RunEpoch(epoch));
      gu.rows =
          std::make_shared<std::vector<core::SelectTuple>>(group.rows_per_epoch.back());
    }
    group.result_epochs.push_back(epoch);
    group.cost.Add(session.net.total().Since(before));
    update.groups.push_back(std::move(gu));
  }
  if (waves_start != 0) {
    obs::GlobalTracer().Record(kWavesSpan, waves_start, obs::NowMicros() - waves_start);
  }

  {
    static const uint32_t kMergeSpan = obs::GlobalTracer().InternName("coord.merge");
    obs::ScopedSpan merge_span(kMergeSpan);
    update.epoch_cost = session.net.total().Since(epoch_start);
    update.alive = session.net.AliveCount();
    if (session.churn) {
      update.detached = session.churn->detached_count();
      update.repair_events = session.churn->repair_events();
      update.repair_messages = session.churn->repair_messages();
    }
    update.degraded = session.net.EpochDegraded();
    if (options_.reliability.enabled && obs::MetricsOn()) {
      static obs::Counter& retries = obs::Registry().counter("net.retries");
      static obs::Counter& backoff = obs::Registry().counter("net.backoff_us");
      static obs::Histogram& completeness = obs::Registry().histogram("result.completeness");
      retries.Add(update.epoch_cost.retries);
      backoff.Add(update.epoch_cost.backoff_us);
      for (const GroupUpdate& gu : update.groups) {
        if (gu.ran && gu.result) completeness.Observe(gu.result->completeness);
      }
    }
    if (obs::MetricsOn() &&
        (update.epoch_cost.flash_reads != 0 || update.epoch_cost.flash_writes != 0)) {
      static obs::Counter& flash_reads = obs::Registry().counter("net.flash_reads");
      static obs::Counter& flash_writes = obs::Registry().counter("net.flash_writes");
      static obs::Counter& flash_bytes = obs::Registry().counter("net.flash_bytes");
      flash_reads.Add(update.epoch_cost.flash_reads);
      flash_writes.Add(update.epoch_cost.flash_writes);
      flash_bytes.Add(update.epoch_cost.flash_bytes);
    }
    if (options_.historic.continuous && obs::MetricsOn()) {
      static obs::Counter& historic_steps = obs::Registry().counter("historic.steps");
      for (const GroupUpdate& gu : update.groups) {
        if (gu.ran && gu.algorithm.rfind("HIST-", 0) == 0) historic_steps.Add(1);
      }
    }
  }
  if (step_start != 0) {
    static obs::Histogram& step_us = obs::Registry().histogram("coord.step_us");
    static obs::Counter& epochs = obs::Registry().counter("coord.epochs");
    step_us.Observe(static_cast<double>(obs::NowMicros() - step_start));
    epochs.Add(1);
  }
  session.epoch = epoch + 1;
  return update;
}

util::StatusOr<CoordinatorReport> QueryCoordinator::Close() {
  if (!session_) return util::Status::Error("no open session (call Open first)");
  Session& session = *session_;
  CoordinatorReport report;
  report.epochs = session.epoch;
  report.total = session.net.total();
  report.operators = session.groups.size();
  if (session.churn) {
    report.repair_events = session.churn->repair_events();
    report.repair_messages = session.churn->repair_messages();
    report.detached_nodes = session.churn->detached_count();
  }

  static const uint32_t kSliceSpan = obs::GlobalTracer().InternName("coord.slice");
  obs::ScopedSpan slice_span(kSliceSpan);
  std::vector<size_t> members_left(session.groups.size(), 0);
  for (const Session::Served& served : session.served) ++members_left[served.group];
  for (const Session::Served& served : session.served) {
    const Admitted& entry = admitted_[served.admitted_index];
    OpGroup& group = session.groups[served.group];
    QueryOutcome outcome;
    outcome.id = entry.id;
    outcome.sql = entry.sql;
    outcome.query_class = entry.query_class;
    outcome.algorithm = group.algorithm;
    outcome.shared_cost = group.cost;
    outcome.share_group_size = group.members.size();
    outcome.joined_epoch = served.join;
    outcome.cancelled_mid_session = served.leave != kNoEpoch;
    // The query observes the group results produced inside its [join, leave)
    // window. Full-span members get the whole history; the last of them
    // takes it by move so an N-way share costs N-1 copies, not N.
    size_t lo = 0;
    size_t hi = group.result_epochs.size();
    while (lo < hi && group.result_epochs[lo] < served.join) ++lo;
    while (hi > lo && group.result_epochs[hi - 1] >= served.leave) --hi;
    bool full_span = lo == 0 && hi == group.result_epochs.size();
    if (--members_left[served.group] == 0 && full_span) {
      outcome.per_epoch = std::move(group.per_epoch);
      outcome.rows_per_epoch = std::move(group.rows_per_epoch);
      outcome.historic = std::move(group.historic);
    } else {
      if (!group.per_epoch.empty()) {
        outcome.per_epoch.assign(group.per_epoch.begin() + lo, group.per_epoch.begin() + hi);
      }
      if (!group.rows_per_epoch.empty()) {
        outcome.rows_per_epoch.assign(group.rows_per_epoch.begin() + lo,
                                      group.rows_per_epoch.begin() + hi);
      }
      outcome.historic = group.historic;
    }
    report.outcomes.push_back(std::move(outcome));
    ++report.queries;
  }
  session_.reset();
  return report;
}

util::StatusOr<CoordinatorReport> QueryCoordinator::Run() {
  // Batch mode is the session driven end to end: pure in the admitted set
  // and seed, repeatable, bit-identical to the historical monolithic loop.
  util::Status opened = Open();
  if (!opened.ok()) return opened;
  for (size_t e = 0; e < options_.epochs; ++e) {
    util::StatusOr<EpochUpdate> step = StepEpoch();
    if (!step.ok()) {
      session_.reset();
      return step.status();
    }
  }
  return Close();
}

}  // namespace kspot::system
