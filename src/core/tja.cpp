#include "core/tja.hpp"

#include <algorithm>
#include <functional>

#include "sim/waves.hpp"
#include "util/bloom_filter.hpp"
#include "util/fixed_point.hpp"

namespace kspot::core {

namespace {

constexpr double kCertEps = 1e-9;
/// Target false-positive rate of the Lsink Bloom filter.
constexpr double kBloomFpr = 0.05;

// Interned once per process; the Clean-Up deepening loop re-enters the
// phases, so re-interning per round would be wasted lookups.
const sim::PhaseId kPhaseLb = sim::Network::InternPhase("tja.lb");
const sim::PhaseId kPhaseHj = sim::Network::InternPhase("tja.hj");
const sim::PhaseId kPhaseCl = sim::Network::InternPhase("tja.cl");

/// The local bound m_i of one node's window: its `k_deep`-th largest value
/// (0 for an empty window), found by selection. The node's local list is
/// every window key whose value is >= m_i — its top `k_deep` *extended
/// through ties* with the k_deep-th value. The tie extension is what makes
/// the Clean-Up certificate sound with >=: any key outside every node's
/// extended list is *strictly* below m_i at every node, so its aggregate is
/// strictly below the union threshold. A `k_deep` of 0 has no list.
double LocalBound(const WindowSpan& window, size_t k_deep, std::vector<double>* values) {
  if (window.empty() || k_deep == 0) return 0.0;
  values->clear();
  window.ForEach([&](size_t, double v) { values->push_back(v); });
  const size_t kth = std::min(k_deep, values->size()) - 1;
  std::nth_element(values->begin(), values->begin() + static_cast<long>(kth), values->end(),
                   std::greater<double>());
  return (*values)[kth];
}

}  // namespace

Tja::Tja(sim::Network* net, const HistorySource* history, HistoricOptions options)
    : net_(net), history_(history), options_(options) {}

Tja::LbOutcome Tja::LowerBoundPhase(size_t k_deep) {
  using Msg = LbMsg;
  net_->SetPhase(kPhaseLb);
  if (lanes_.size() < sim::WaveLanes(*net_)) lanes_.resize(sim::WaveLanes(*net_));
  for (LaneScratch& lane : lanes_) lane.lb_keys.clear();
  lb_span_.assign(history_->num_nodes(), {});
  // Lane aware: a node reads its own window and writes its own span and its
  // lane's key list.
  auto produce = [&](sim::NodeId node, std::vector<Msg>&& inbox,
                     size_t lane) -> std::optional<Msg> {
    Msg out;
    for (Msg& child : inbox) {
      out.view.MergeView(std::move(child.view));
      out.m_sum_fx += child.m_sum_fx;
    }
    if (node != sim::kSinkId) {
      LaneScratch& scratch = lanes_[lane];
      WindowSpan window = history_->Window(node);
      const double m_i = LocalBound(window, k_deep, &scratch.values);
      const auto first = static_cast<uint32_t>(scratch.lb_keys.size());
      // The local list in ascending key order, merged into the subtree's
      // view at once.
      scratch.own.clear();
      window.ForEach([&](size_t t, double v) {
        if (k_deep == 0 || v < m_i) return;
        const auto key = static_cast<sim::GroupId>(t);
        scratch.own.AddReading(key, v);
        scratch.lb_keys.push_back(key);
      });
      out.view.MergeView(scratch.own);
      lb_span_[node] = {static_cast<uint32_t>(lane), first,
                        static_cast<uint32_t>(scratch.lb_keys.size()) - first};
      out.m_sum_fx += util::fixed_point::Encode(m_i);
    }
    return out;
  };
  auto wire_bytes = [&](const Msg& m) {
    return kMsgHeaderBytes + agg::codec::ViewWireBytes(options_.agg, m.view.size()) + 8;
  };
  auto sink = sim::UpWave<Msg>::Run(*net_, produce, wire_bytes, &lb_ws_);

  LbOutcome outcome;
  if (sink.has_value()) {
    outcome.union_view = std::move(sink->view);
    size_t sensors = history_->num_nodes() - 1;
    double m_total = static_cast<double>(sink->m_sum_fx) / util::fixed_point::kScale;
    // tau_U bounds every key outside Lsink: its per-node values are all below
    // the local m_i, so its SUM is below sum(m_i) and its AVG below the mean.
    outcome.tau_u = options_.agg == agg::AggKind::kAvg && sensors > 0
                        ? m_total / static_cast<double>(sensors)
                        : m_total;
  }
  return outcome;
}

agg::GroupView Tja::HierarchicalJoinPhase(const std::vector<sim::GroupId>& lsink) {
  // Downstream: the candidate key set, as a plain sorted u16 list or as a
  // Bloom filter. Nodes keep whatever representation arrives and answer for
  // every window key that matches it.
  struct DownMsg {
    std::vector<sim::GroupId> keys;  // empty when bloom is used
    util::BloomFilter bloom{64, 1};
    bool use_bloom = false;
  };
  net_->SetPhase(kPhaseHj);

  DownMsg seed;
  seed.use_bloom = options_.use_bloom;
  if (options_.use_bloom) {
    seed.bloom = util::BloomFilter::WithExpectedItems(lsink.size(), kBloomFpr);
    for (sim::GroupId key : lsink) seed.bloom.Insert(static_cast<uint64_t>(key));
  } else {
    seed.keys = lsink;
  }
  // Which keys each node must answer for (recorded during dissemination):
  // node i's are answer_keys[answer_span[i].first, +answer_span[i].second).
  std::vector<sim::GroupId> answer_keys;
  std::vector<std::pair<uint32_t, uint32_t>> answer_span(history_->num_nodes(), {0, 0});

  // A node answers for the window keys the message matches, minus the keys
  // it already contributed during LB — the sink merges the LB union view
  // with the HJ complement, so resending is waste. One merge walk over the
  // node's ascending LB keys and the ascending candidates (or the window,
  // when a Bloom filter stands in for them).
  auto record_keys = [&](sim::NodeId node, const DownMsg& msg) {
    const size_t window = history_->window_size();
    const auto first = static_cast<uint32_t>(answer_keys.size());
    const LbSpan span = lb_span_[node];
    const sim::GroupId* lb = lanes_[span.lane].lb_keys.data() + span.first;
    const sim::GroupId* const lb_end = lb + span.count;
    auto answer = [&](sim::GroupId key) {
      while (lb != lb_end && *lb < key) ++lb;
      if (lb == lb_end || *lb != key) answer_keys.push_back(key);
    };
    if (msg.use_bloom) {
      for (size_t t = 0; t < window; ++t) {
        const auto key = static_cast<sim::GroupId>(t);
        if (msg.bloom.MayContain(static_cast<uint64_t>(key))) answer(key);
      }
    } else {
      for (sim::GroupId key : msg.keys) {
        if (static_cast<size_t>(key) >= window) break;
        answer(key);
      }
    }
    answer_span[node] = {first, static_cast<uint32_t>(answer_keys.size()) - first};
  };
  // Every node forwards the seed unchanged, so the wave carries a pointer to
  // it rather than a copy per node.
  using DownRef = const DownMsg*;
  auto down_produce = [&](sim::NodeId node, const DownRef* incoming) -> std::optional<DownRef> {
    if (node == sim::kSinkId) return &seed;
    record_keys(node, **incoming);
    return *incoming;
  };
  auto down_bytes = [&](DownRef msg) {
    if (msg->use_bloom) return kMsgHeaderBytes + msg->bloom.WireSizeBytes();
    return kMsgHeaderBytes + 2 + 2 * msg->keys.size();
  };
  sim::DownWave<DownRef>::Run(*net_, down_produce, down_bytes);

  // Upstream: exact contributions for the candidate keys, merged per key.
  net_->SetPhase(kPhaseHj);
  using UpMsg = agg::GroupView;
  // Lane aware: a node reads its own window and answer keys. Its answers
  // form one ascending run, merged into the subtree's view at once.
  auto up_produce = [&](sim::NodeId node, std::vector<UpMsg>&& inbox,
                        size_t lane) -> std::optional<UpMsg> {
    UpMsg view;
    for (UpMsg& child : inbox) view.MergeView(std::move(child));
    if (node != sim::kSinkId) {
      WindowSpan window = history_->Window(node);
      agg::GroupView& own = lanes_[lane].own;
      own.clear();
      const auto [first, count] = answer_span[node];
      for (uint32_t i = first; i < first + count; ++i) {
        const sim::GroupId key = answer_keys[i];
        if (static_cast<size_t>(key) < window.size()) {
          own.AddReading(key, window[static_cast<size_t>(key)]);
        }
      }
      view.MergeView(own);
      if (view.empty()) return std::nullopt;
    }
    return view;
  };
  auto up_bytes = [&](const UpMsg& m) {
    return kMsgHeaderBytes + agg::codec::ViewWireBytes(options_.agg, m.size());
  };
  auto sink = sim::UpWave<UpMsg>::Run(*net_, up_produce, up_bytes, &hj_ws_);
  return sink.value_or(UpMsg{});
}

HistoricResult Tja::Run() {
  size_t window = history_->window_size();
  size_t sensors = history_->num_nodes() - 1;
  size_t k = static_cast<size_t>(options_.k);
  HistoricResult result;
  size_t k_deep = std::min(k, window);
  // The union threshold bounds sums/averages only. For any other aggregate
  // the certificate is unsound, so degrade defensively to full coverage
  // (exact at full-collection cost) instead of risking a wrong answer.
  if (options_.agg != agg::AggKind::kAvg && options_.agg != agg::AggKind::kSum) {
    k_deep = window;
  }
  for (int round = 1;; ++round) {
    result.rounds = round;
    LbOutcome lb = LowerBoundPhase(k_deep);
    std::vector<sim::GroupId> lsink;
    lsink.reserve(lb.union_view.size());
    for (const auto& [key, partial] : lb.union_view.entries()) lsink.push_back(key);
    result.lsink_size = lsink.size();

    agg::GroupView exact = HierarchicalJoinPhase(lsink);
    // Complete totals = LB contributions + HJ complements. Keep only keys
    // with complete counts (Bloom false positives are complete too; extra
    // exact keys only help).
    exact.MergeView(lb.union_view);
    net_->SetPhase(kPhaseCl);
    std::vector<agg::RankedItem> candidates;
    for (const auto& [key, partial] : exact.entries()) {
      if (partial.count >= sensors) {
        candidates.push_back(agg::RankedItem{key, partial.Final(options_.agg)});
      }
    }
    std::sort(candidates.begin(), candidates.end(), agg::RankHigher);

    bool have_everything = k_deep >= window || lsink.size() >= window;
    bool certified = candidates.size() >= k &&
                     candidates[k - 1].value >= lb.tau_u - kCertEps;
    if (have_everything || certified) {
      if (candidates.size() > k) candidates.resize(k);
      result.items = std::move(candidates);
      return result;
    }
    // Clean-Up: deepen the local lists and retry.
    k_deep = std::min(window, k_deep * 2);
  }
}

}  // namespace kspot::core
