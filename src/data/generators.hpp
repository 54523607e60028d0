#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "data/modality.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"

namespace kspot::data {

/// Produces the reading of every sensing node at every epoch.
///
/// Contract: `Value(id, epoch)` is deterministic — repeated calls with the
/// same arguments return the same reading — and epochs must be queried in
/// non-decreasing order (stateful generators advance their processes).
/// Readings are quantized to the wire fixed-point grid at the source so that
/// in-network aggregation is bit-exact with centralized computation.
class DataGenerator {
 public:
  virtual ~DataGenerator() = default;

  /// Reading of node `id` at `epoch`. Node 0 (the sink) reads 0.
  virtual double Value(sim::NodeId id, sim::Epoch epoch) = 0;

  /// Advances the generator's stochastic process to `epoch` so that
  /// subsequent `Value(_, epoch)` calls are pure cache reads. Stateful
  /// generators mutate on the first Value() of a new epoch; this hook runs
  /// that mutation at a point the caller chooses, so an epoch's waves only
  /// read values and a benchmark can time data generation apart from them.
  /// Calling it is always safe — it performs exactly the mutation the first
  /// Value() would have, so the draw order is unchanged — and the default is
  /// a no-op for stateless generators.
  virtual void PrepareEpoch(sim::Epoch epoch) { (void)epoch; }

  /// The modality generated (defines the bounded domain).
  virtual const ModalityInfo& modality() const = 0;
};

/// Fixed per-node values (e.g. the Figure-1 scenario): epoch-invariant.
class ConstantGenerator : public DataGenerator {
 public:
  /// `values[id]` is node id's reading forever.
  ConstantGenerator(std::vector<double> values, Modality modality = Modality::kSound);

  double Value(sim::NodeId id, sim::Epoch epoch) override;
  const ModalityInfo& modality() const override { return info_; }

 private:
  std::vector<double> values_;
  ModalityInfo info_;
};

/// Independent uniform readings over the modality domain, fresh each epoch.
class UniformGenerator : public DataGenerator {
 public:
  UniformGenerator(size_t num_nodes, Modality modality, util::Rng rng);

  double Value(sim::NodeId id, sim::Epoch epoch) override;
  void PrepareEpoch(sim::Epoch epoch) override { FillEpoch(epoch); }
  const ModalityInfo& modality() const override { return info_; }

 private:
  size_t num_nodes_;
  ModalityInfo info_;
  util::Rng rng_;
  sim::Epoch cached_epoch_ = 0;
  std::vector<double> cache_;
  bool primed_ = false;

  void FillEpoch(sim::Epoch epoch);
};

/// Per-node Gaussian around a per-node mean (stable ranking with noise).
class GaussianGenerator : public DataGenerator {
 public:
  /// Means drawn uniformly from the domain; readings = mean + N(0, stddev),
  /// clamped to the domain.
  GaussianGenerator(size_t num_nodes, Modality modality, double stddev, util::Rng rng);

  double Value(sim::NodeId id, sim::Epoch epoch) override;
  void PrepareEpoch(sim::Epoch epoch) override { FillEpoch(epoch); }
  const ModalityInfo& modality() const override { return info_; }

 private:
  ModalityInfo info_;
  double stddev_;
  util::Rng rng_;
  std::vector<double> means_;
  sim::Epoch cached_epoch_ = 0;
  std::vector<double> cache_;
  bool primed_ = false;

  void FillEpoch(sim::Epoch epoch);
};

/// Bounded random walk per node: `x(t+1) = clamp(x(t) + N(0, sigma))`.
/// The volatility knob for the FILA-vs-MINT monitoring experiments.
/// `quantize_step > 0` additionally rounds readings to that granularity —
/// the coarse ADC grid of real sensor boards (TinyDB readings are integers),
/// which makes temporally stable signals produce genuinely unchanged values.
class RandomWalkGenerator : public DataGenerator {
 public:
  RandomWalkGenerator(size_t num_nodes, Modality modality, double step_sigma, util::Rng rng,
                      double quantize_step = 0.0);

  double Value(sim::NodeId id, sim::Epoch epoch) override;
  void PrepareEpoch(sim::Epoch epoch) override { AdvanceTo(epoch); }
  const ModalityInfo& modality() const override { return info_; }

 private:
  ModalityInfo info_;
  double sigma_;
  util::Rng rng_;
  double quantize_step_;
  sim::Epoch cached_epoch_ = 0;
  std::vector<double> state_;
  std::vector<double> observed_;
  bool primed_ = false;

  void AdvanceTo(sim::Epoch epoch);
};

/// Room-correlated readings: a building-wide activity level (sessions
/// starting and ending move every room together) plus each room's own
/// bounded random walk, observed with i.i.d. per-sensor noise — the
/// "conference rooms with discussions" signal of the demo scenario. The
/// global component makes hot *time instances* correlate across nodes,
/// which is the regime historic top-k queries (TJA) target.
class RoomCorrelatedGenerator : public DataGenerator {
 public:
  /// `room_of[id]` maps nodes to rooms. `room_sigma` drives how fast room
  /// activity changes; `noise_sigma` is per-sensor observation noise;
  /// `global_sigma` the building-wide walk; `quantize_step > 0` rounds
  /// readings to a coarse ADC grid.
  RoomCorrelatedGenerator(std::vector<sim::GroupId> room_of, Modality modality,
                          double room_sigma, double noise_sigma, util::Rng rng,
                          double global_sigma = 0.0, double quantize_step = 0.0);

  double Value(sim::NodeId id, sim::Epoch epoch) override;
  void PrepareEpoch(sim::Epoch epoch) override { AdvanceTo(epoch); }
  const ModalityInfo& modality() const override { return info_; }

 private:
  std::vector<sim::GroupId> room_of_;
  ModalityInfo info_;
  double room_sigma_;
  double noise_sigma_;
  util::Rng rng_;
  double global_sigma_;
  double quantize_step_;
  double global_level_ = 0.0;
  std::unordered_map<sim::GroupId, double> room_level_;
  sim::Epoch cached_epoch_ = 0;
  std::vector<double> cache_;
  bool primed_ = false;

  void AdvanceTo(sim::Epoch epoch);
};

/// Mostly-flat baseline with occasional spikes (events): each epoch a node
/// spikes with probability `spike_prob`, jumping near the domain maximum.
/// Exercises top-k churn.
class SpikeGenerator : public DataGenerator {
 public:
  SpikeGenerator(size_t num_nodes, Modality modality, double baseline, double spike_prob,
                 util::Rng rng);

  double Value(sim::NodeId id, sim::Epoch epoch) override;
  void PrepareEpoch(sim::Epoch epoch) override { FillEpoch(epoch); }
  const ModalityInfo& modality() const override { return info_; }

 private:
  size_t num_nodes_;
  ModalityInfo info_;
  double baseline_;
  double spike_prob_;
  util::Rng rng_;
  sim::Epoch cached_epoch_ = 0;
  std::vector<double> cache_;
  bool primed_ = false;

  void FillEpoch(sim::Epoch epoch);
};

/// Replays a recorded trace: `matrix[epoch][id]`; epochs beyond the trace
/// wrap around (cyclic replay).
class TraceGenerator : public DataGenerator {
 public:
  TraceGenerator(std::vector<std::vector<double>> matrix, Modality modality);

  double Value(sim::NodeId id, sim::Epoch epoch) override;
  const ModalityInfo& modality() const override { return info_; }

  /// Number of recorded epochs.
  size_t trace_length() const { return matrix_.size(); }

 private:
  std::vector<std::vector<double>> matrix_;
  ModalityInfo info_;
};

}  // namespace kspot::data
