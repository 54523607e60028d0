#include "kspot/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "agg/aggregate.hpp"
#include "core/history_source.hpp"
#include "core/mint.hpp"
#include "core/tag.hpp"
#include "data/windowed.hpp"
#include "fault/churn_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/task_pool.hpp"

namespace kspot::system {

namespace {

constexpr sim::Epoch kNoEpoch = std::numeric_limits<sim::Epoch>::max();

/// Smallest deployment whose epochs step operator groups concurrently.
constexpr size_t kMinConcurrentNodes = 2048;

/// Epochs between two checkpoints of a session's shared generator. A ring
/// growth that starts at epoch f replays from the last checkpoint at or
/// before f, so it draws at most kCheckpointEvery - 1 + W epochs however old
/// the session is; each checkpoint costs the generator's process state
/// (O(rooms) for the default walk).
constexpr sim::Epoch kCheckpointEvery = 16;

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
  /// kVertical: the epoch window position 0 stands for. Two audits
  /// admitted at different epochs rank different windows, so never share.
  sim::Epoch first = 0;
  core::HistoricOptions historic;        ///< kVertical.
  bool has_where = false;                ///< kSelect.
  query::Predicate where;                ///< kSelect.
};

OperatorPlan PlanFor(const query::ParsedQuery& parsed, query::QueryClass cls,
                     const Scenario& scenario) {
  OperatorPlan plan;
  plan.spec = SpecFromQuery(parsed, scenario);
  plan.window = static_cast<size_t>(parsed.history);
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
      std::snprintf(buf, sizeof buf, "tja|k=%d|agg=%d|w=%zu|first=%llu", plan.historic.k,
                    static_cast<int>(plan.historic.agg), plan.window,
                    static_cast<unsigned long long>(plan.first));
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
  /// Horizontal historic operators read their windows through a view over
  /// the session's reading ring.
  std::unique_ptr<data::WindowAggregateGenerator> window_gen;

  /// Cached tracer name id for this operator's per-epoch span
  /// ("coord.run.<algorithm>"); interned lazily on the first traced step.
  uint32_t span_id = 0;

  /// Where this group's charges land while it steps concurrently with other
  /// groups (replayed into the session network in creation order), and its
  /// smoothed wall time then, which schedules concurrent epochs.
  sim::ChargeLedger ledger;
  uint64_t step_us = 0;
  uint32_t steps = 0;          ///< Epochs this group has run.
  uint64_t last_messages = 0;  ///< Messages its last step sent.

  sim::TrafficCounters cost;
  std::vector<core::TopKResult> per_epoch;
  std::vector<std::vector<core::SelectTuple>> rows_per_epoch;
  /// Epoch stamps parallel to per_epoch / rows_per_epoch (rate limits and
  /// mid-session joins make them sparse / offset).
  std::vector<sim::Epoch> result_epochs;
  core::HistoricResult historic;

  /// Adds one step's radio bill.
  void Bill(const sim::TrafficCounters& bill) {
    cost.Add(bill);
    last_messages = bill.messages;
  }

  /// Releases the operator: the share group emptied, stop costing anything.
  void Release() {
    alive = false;
    algo.reset();
    select.reset();
    window_gen.reset();
    key.clear();
  }
};

/// Steps one operator group through `epoch` into `gu`, charging the network
/// through whatever ledger the calling thread has bound. The answer is built
/// on the calling thread and published as is; the group's history keeps a
/// copy the coordinator thread makes, so a worker's allocator arena holds
/// only what the next epoch frees again.
void StepGroup(OpGroup& group, GroupUpdate& gu, sim::Epoch epoch, bool topology_changed,
               const sim::TopologyDelta& delta) {
  if (group.span_id == 0 && obs::TracingOn()) {
    group.span_id = obs::GlobalTracer().InternName("coord.run." + group.algorithm);
  }
  obs::ScopedSpan group_span(group.span_id);
  // The operator's own churn repair (e.g. MINT's cardinality-delta
  // converge-cast) is part of what this query group costs the network, so
  // it books inside the group's delta; only the tree-level join handshakes
  // (phase "fault.repair", charged by the churn engine) stay shared.
  if (group.pending_refresh) {
    if (group.algo) group.algo->OnTopologyChanged();
    group.pending_refresh = false;
  }
  if (topology_changed && group.algo) group.algo->OnTopologyChanged(delta);
  if (group.algo) {
    gu.result = std::make_shared<core::TopKResult>(group.algo->RunEpoch(epoch));
  } else {
    gu.rows = std::make_shared<std::vector<core::SelectTuple>>(group.select->RunEpoch(epoch));
  }
  ++group.steps;
}

/// The worker pool every session's concurrent epochs and split waves share,
/// created on first use and sized to the hardware. A session that finds it
/// busy (another session in the process is fanning out) steps its groups
/// inline instead, so however many sessions step at once — kspot_bench runs
/// one per trial thread — group stepping adds at most one pool of workers.
util::SharedTaskPool& SharedGroupPool() {
  static util::SharedTaskPool shared;
  return shared;
}

/// Span around growing the reading ring at admission.
uint32_t AdmitWindowSpan() {
  static const uint32_t id = obs::GlobalTracer().InternName("coord.admit.window");
  return id;
}

}  // namespace

/// Everything one open session owns: the shared data plane plus the
/// query->group bindings it serves. Destroyed at Close().
struct QueryCoordinator::Session {
  sim::RoutingTree tree;
  sim::Network net;
  /// The one source of readings: every operator reads it at the current
  /// epoch, the reading ring buffers it, and the ring's growth replays it
  /// from one of its checkpoints.
  std::unique_ptr<data::DataGenerator> shared_gen;
  /// shared_gen before epochs 0, kCheckpointEvery, 2 * kCheckpointEvery, ...
  /// (empty when the generator hands out no checkpoint).
  std::vector<data::GeneratorCheckpoint> checkpoints;
  /// shared_gen's readings of the last R epochs, R the largest W of a
  /// horizontal group or min(W, a) of an audit admitted at epoch a > 0
  /// (empty until one asks).
  std::optional<data::ReadingRing> ring;
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

  Session(const Deployment& deployment, const DeploymentConfig& config)
      : tree(deployment.tree),
        net(SessionNetwork(deployment, &tree, config)),
        shared_gen(SessionGenerator(deployment, config)) {
    if (auto checkpoint = shared_gen->Checkpoint()) checkpoints.push_back(std::move(*checkpoint));
  }

  /// A generator whose next draw is epoch `first`, drawing what shared_gen
  /// drew (or will draw) from there on: resumed from the last checkpoint at
  /// or before `first`, or replayed from a fresh generator of `deployment`
  /// and `config` when there is none. Every epoch in between is drawn, as
  /// shared_gen draws every epoch.
  std::unique_ptr<data::DataGenerator> GeneratorAt(sim::Epoch first, const Deployment& deployment,
                                                   const DeploymentConfig& config) const {
    auto after = std::upper_bound(
        checkpoints.begin(), checkpoints.end(), first,
        [](sim::Epoch e, const data::GeneratorCheckpoint& cp) { return e < cp.next_epoch; });
    std::unique_ptr<data::DataGenerator> gen;
    sim::Epoch from = 0;
    if (after != checkpoints.begin()) {
      gen = shared_gen->Resume(*(after - 1));
      from = (after - 1)->next_epoch;
    } else {
      gen = SessionGenerator(deployment, config);
    }
    for (sim::Epoch e = from; e < first; ++e) gen->PrepareEpoch(e);
    return gen;
  }

  /// The reading ring, grown first to hold the last `rows` epochs. Growth is
  /// the only place past epochs are drawn again: it replays the last
  /// min(rows, epoch) of them through GeneratorAt, into the same object, so
  /// the views over it stay valid.
  const data::ReadingRing& RingOf(size_t rows, const Deployment& deployment,
                                  const DeploymentConfig& config) {
    if (!ring || ring->rows() < rows) {
      obs::ScopedSpan window_span(AdmitWindowSpan());
      const sim::Epoch first = epoch - std::min<sim::Epoch>(rows, epoch);
      ring = data::ReadingRing(deployment.topology.num_nodes(), rows, first);
      if (first == epoch) return *ring;
      auto gen = GeneratorAt(first, deployment, config);
      for (sim::Epoch e = first; e < epoch; ++e) ring->Push(*gen, e);
    }
    return *ring;
  }

  /// The pool a converge-cast on this session's network may split across
  /// (see sim::UpWave), or nullptr. The same gate as a concurrent epoch: on
  /// a multi-core host, charges commute, churn off, at least
  /// kMinConcurrentNodes motes.
  util::SharedTaskPool* WavePool() const {
    static const bool kMultiCore = std::thread::hardware_concurrency() > 1;
    if (!kMultiCore || churn || !net.CanJournalCharges() ||
        net.topology().num_nodes() < kMinConcurrentNodes) {
      return nullptr;
    }
    return &SharedGroupPool();
  }

  /// One group stepping this epoch and the update entry it fills.
  struct Step {
    OpGroup* group;
    GroupUpdate* update;
  };
  /// Steps `steps` (creation order) on the shared worker pool and replays
  /// their ledgers in that order, when the epoch allows it; false (nothing
  /// done) otherwise.
  bool StepConcurrently(const std::vector<Step>& steps, sim::Epoch epoch);
};

bool QueryCoordinator::Session::StepConcurrently(const std::vector<Step>& steps,
                                                 sim::Epoch epoch) {
  // Groups share nothing but the network, so an epoch whose charges commute
  // (no loss draw, no reliability state, no battery death, no churn) can
  // step them concurrently, each into its own ledger, and replay the ledgers
  // in creation order: every sum then adds in the serial order, bit for bit.
  // Every wave visits every node, so a group's step grows with the mote
  // count; below kMinConcurrentNodes a step is too short to pay for the
  // fan-out and the ledgers (measured on a five-group mix: 1025 motes ran
  // 12% slower fanned out, 2049 motes 1.9x faster; E17's 33-mote floor
  // lost a third of its coord_qps).
  util::SharedTaskPool* pool = WavePool();
  if (pool == nullptr || steps.size() < 2) return false;
  for (const Step& step : steps) {
    // A group's first two steps (creation and the first update) build the
    // state and wave workspaces it keeps: run them on this thread, so that
    // state and the creation bill stay out of worker arenas and ledgers.
    if (step.group->steps < 2) return false;
  }
  util::SharedTaskPool& shared = *pool;
  std::unique_lock<std::mutex> pool_lock(shared.busy, std::try_to_lock);
  if (!pool_lock.owns_lock()) return false;

  // Longest first onto the least-loaded lane, by each group's smoothed step
  // time. Lane l always runs on pool thread l, so a group that keeps its
  // lane keeps its allocator arena; a lane that runs dry takes groups no
  // lane has started yet, longest first. Wall clock only, never results.
  std::vector<Step> order = steps;
  std::stable_sort(order.begin(), order.end(), [](const Step& a, const Step& b) {
    return a.group->step_us > b.group->step_us;
  });
  std::vector<std::vector<size_t>> lanes(std::min(order.size(), shared.pool.thread_count()));
  std::vector<uint64_t> load(lanes.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    size_t lane = static_cast<size_t>(std::min_element(load.begin(), load.end()) - load.begin());
    lanes[lane].push_back(i);
    load[lane] += order[i].group->step_us + 1;
  }
  // Room for about three charges per message of the group's last bill, and
  // half as much again.
  for (const Step& step : steps) {
    const uint64_t charges = 3 * step.group->last_messages;
    step.group->ledger.Clear(charges + charges / 2);
  }
  std::vector<std::atomic<bool>> started(order.size());
  auto run = [&](size_t i) {
    if (started[i].exchange(true)) return;
    OpGroup& group = *order[i].group;
    sim::Network::LedgerScope scope(net, &group.ledger);
    const uint64_t start = obs::NowMicros();
    StepGroup(group, *order[i].update, epoch, /*topology_changed=*/false, sim::TopologyDelta{});
    const uint64_t took = obs::NowMicros() - start;
    group.step_us = group.step_us == 0 ? took : (3 * group.step_us + took) / 4;
  };
  shared.pool.RunPerThread(lanes.size(), [&](size_t lane) {
    for (size_t i : lanes[lane]) run(i);
    for (size_t i = 0; i < order.size(); ++i) run(i);
  });
  pool_lock.unlock();
  for (const Step& step : steps) {
    sim::TrafficCounters before = net.total();
    net.Replay(step.group->ledger);
    step.group->Bill(net.total().Since(before));
  }
  if (obs::MetricsOn()) {
    static obs::Counter& concurrent = obs::Registry().counter("coord.concurrent_epochs");
    concurrent.Add(1);
  }
  return true;
}

QueryCoordinator::QueryCoordinator(Scenario scenario, Options options)
    : options_(std::move(options)),
      owned_deployment_(std::make_unique<Deployment>(std::move(scenario), options_.seed)),
      deployment_(owned_deployment_.get()) {}

QueryCoordinator::QueryCoordinator(const Deployment* deployment, Options options)
    : options_(std::move(options)), deployment_(deployment) {}

QueryCoordinator::~QueryCoordinator() = default;
QueryCoordinator::QueryCoordinator(QueryCoordinator&&) noexcept = default;
QueryCoordinator& QueryCoordinator::operator=(QueryCoordinator&&) noexcept = default;

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

const sim::Network& QueryCoordinator::session_network() const { return session_->net; }
const data::ReadingRing* QueryCoordinator::session_ring() const {
  return session_->ring ? &*session_->ring : nullptr;
}

/// Binds admitted_[admitted_index] to the open session: piggyback on an
/// existing compatible group or create the operator, and run one-shot
/// historic (TJA) queries immediately on the shared network. Mirrors the
/// historical batch planning loop exactly for queries bound at Open().
util::Status QueryCoordinator::BindToSession(size_t admitted_index) {
  Session& session = *session_;
  const Admitted& entry = admitted_[admitted_index];
  OperatorPlan plan = PlanFor(entry.parsed, entry.query_class, deployment_->scenario);
  if (plan.kind == OpKind::kVertical && session.epoch > 0) {
    // The one-shot window rule. A query bound before the first step ranks
    // the pre-history [0, W); one admitted at epoch a > 0 ranks the readings
    // that already exist, [max(0, a - W), a) — shorter than W when a < W.
    plan.first = session.epoch - std::min(session.epoch, static_cast<sim::Epoch>(plan.window));
    plan.window = static_cast<size_t>(session.epoch - plan.first);
  }
  std::string key = CompatKey(plan);

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

  // Operator construction; a vertical bind's window and TJA run have their
  // own spans.
  static const uint32_t kOperatorSpan = obs::GlobalTracer().InternName("coord.admit.operator");
  obs::ScopedSpan operator_span(plan.kind == OpKind::kVertical ? 0 : kOperatorSpan);
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
    case OpKind::kHorizontal: {
      // The window at epoch e is [max(0, e - W + 1), e] whatever the join
      // epoch: the ring's last min(W, e + 1) epochs.
      group.window_gen = std::make_unique<data::WindowAggregateGenerator>(
          &session.RingOf(plan.window, *deployment_, options_), plan.window, plan.spec.agg,
          session.shared_gen->modality());
      group.algo =
          std::make_unique<core::MintViews>(&session.net, group.window_gen.get(), plan.spec);
      group.algorithm = "MINT+history";
      break;
    }
    case OpKind::kVertical: {
      // One-shot historic: ranks the plan's window on the same network — its
      // traffic drains the same batteries the continuous queries live off.
      // A mid-session admit copies [first, epoch) from the reading ring; one
      // bound before the first step replays the pre-history [0, W).
      std::optional<core::RingHistory> source;
      if (session.epoch == 0) {
        obs::ScopedSpan window_span(AdmitWindowSpan());
        auto gen = session.GeneratorAt(plan.first, *deployment_, options_);
        source.emplace(data::DrawnRing(*gen, n, plan.first, plan.window), plan.window);
      } else {
        source.emplace(session.RingOf(plan.window, *deployment_, options_), plan.window);
      }
      static const uint32_t kTjaSpan = obs::GlobalTracer().InternName("coord.admit.tja");
      obs::ScopedSpan tja_span(kTjaSpan);
      sim::Network::PoolScope split_waves(session.net, session.WavePool());
      core::Tja tja(&session.net, &*source, plan.historic);
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
  // every epoch-driven operator reads.
  session_ = std::make_unique<Session>(*deployment_, options_);
  if (options_.enable_churn) {
    session_->churn = std::make_unique<fault::ChurnEngine>(
        &session_->net, &session_->tree, SessionFaultPlan(*deployment_, options_));
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

  std::vector<char> group_eligible(session.groups.size(), 0);
  {
    static const uint32_t kPlanSpan = obs::GlobalTracer().InternName("coord.plan");
    obs::ScopedSpan plan_span(kPlanSpan);
    for (const Session::Served& served : session.served) {
      if (served.leave != kNoEpoch) continue;
      const AdmitOptions& admit = admitted_[served.admitted_index].admit;
      if (epoch >= served.join &&
          (epoch - served.join) % static_cast<sim::Epoch>(admit.period) == 0) {
        group_eligible[served.group] = 1;
      }
    }
  }

  static const uint32_t kWavesSpan = obs::GlobalTracer().InternName("coord.waves");
  const uint64_t waves_start = obs::TracingOn() ? obs::NowMicros() : 0;
  // Checkpoint the generator before it draws a checkpoint epoch. Then draw
  // the epoch's readings once, into the ring too, so the groups only read.
  if (!session.checkpoints.empty() && epoch % kCheckpointEvery == 0 && epoch > 0) {
    session.checkpoints.push_back(*session.shared_gen->Checkpoint());
  }
  session.shared_gen->PrepareEpoch(epoch);
  if (session.ring) session.ring->Push(*session.shared_gen, epoch);
  // Every live epoch-driven group reports, in creation order (admission
  // order). Epoch-driven groups carry an algorithm or a select pipeline;
  // vertical (TJA) groups carry neither: they ran at bind time.
  for (size_t gi = 0; gi < session.groups.size(); ++gi) {
    OpGroup& group = session.groups[gi];
    if (!group.alive || (group.algo == nullptr && group.select == nullptr)) continue;
    GroupUpdate gu;
    gu.group_id = gi;
    gu.algorithm = group.algorithm;
    for (const Session::Served& served : session.served) {
      if (served.group == gi && served.leave == kNoEpoch) {
        gu.members.push_back(admitted_[served.admitted_index].id);
      }
    }
    gu.ran = group_eligible[gi] != 0;
    if (!gu.ran && topology_changed) {
      // Rate-limited out of this epoch. Operators keep caches keyed against
      // the tree; remember to evict them if it changed while we slept.
      group.pending_refresh = true;
    }
    update.groups.push_back(std::move(gu));
  }
  std::vector<Session::Step> steps;
  for (GroupUpdate& gu : update.groups) {
    if (gu.ran) steps.push_back({&session.groups[gu.group_id], &gu});
  }
  if (!session.StepConcurrently(steps, epoch)) {
    for (const Session::Step& step : steps) {
      sim::TrafficCounters before = session.net.total();
      // A lone group's waves may split across the pool instead, once its
      // first two steps built its state on this thread.
      sim::Network::PoolScope split_waves(
          session.net, step.group->steps >= 2 ? session.WavePool() : nullptr);
      StepGroup(*step.group, *step.update, epoch, topology_changed, delta);
      step.group->Bill(session.net.total().Since(before));
    }
  }
  for (const Session::Step& step : steps) {
    if (step.update->result) step.group->per_epoch.push_back(*step.update->result);
    if (step.update->rows) step.group->rows_per_epoch.push_back(*step.update->rows);
    step.group->result_epochs.push_back(epoch);
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
