#include "data/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "util/fixed_point.hpp"

namespace kspot::data {

namespace {

double ClampToDomain(double v, const ModalityInfo& info) {
  return std::clamp(v, info.min_value, info.max_value);
}

double QuantizeToDomain(double v, const ModalityInfo& info) {
  return util::fixed_point::Quantize(ClampToDomain(v, info));
}

double QuantizeToStep(double v, double step, const ModalityInfo& info) {
  if (step > 0.0) v = std::round(v / step) * step;
  return QuantizeToDomain(v, info);
}

/// A stateful generator was asked for an epoch it has already moved past:
/// its process cannot go back, and answering with the current epoch's
/// reading would be silently wrong.
[[noreturn]] void EpochWentBack(const char* generator, sim::Epoch asked, sim::Epoch next) {
  std::fprintf(stderr,
               "%s: epoch %llu asked after the generator moved on to epoch %llu "
               "(epochs must be queried in non-decreasing order)\n",
               generator, static_cast<unsigned long long>(asked),
               static_cast<unsigned long long>(next));
  std::abort();
}

}  // namespace

// ---------------------------------------------------------------- Constant

ConstantGenerator::ConstantGenerator(std::vector<double> values, Modality modality)
    : values_(std::move(values)), info_(GetModalityInfo(modality)) {
  for (double& v : values_) v = QuantizeToDomain(v, info_);
}

double ConstantGenerator::Value(sim::NodeId id, sim::Epoch /*epoch*/) {
  if (id >= values_.size()) return 0.0;
  return values_[id];
}

std::unique_ptr<DataGenerator> ConstantGenerator::Resume(const GeneratorCheckpoint&) const {
  return std::make_unique<ConstantGenerator>(*this);
}

// ----------------------------------------------------------------- Uniform

UniformGenerator::UniformGenerator(size_t num_nodes, Modality modality, util::Rng rng)
    : num_nodes_(num_nodes), info_(GetModalityInfo(modality)), rng_(rng) {}

void UniformGenerator::FillEpoch(sim::Epoch epoch) {
  if (cached_ && epoch + 1 == next_epoch_) return;
  if (epoch < next_epoch_) EpochWentBack("UniformGenerator", epoch, next_epoch_);
  cache_.assign(num_nodes_, 0.0);
  for (size_t i = 1; i < num_nodes_; ++i) {
    cache_[i] = QuantizeToDomain(rng_.NextDouble(info_.min_value, info_.max_value), info_);
  }
  next_epoch_ = epoch + 1;
  cached_ = true;
}

double UniformGenerator::Value(sim::NodeId id, sim::Epoch epoch) {
  FillEpoch(epoch);
  return id < cache_.size() ? cache_[id] : 0.0;
}

// ---------------------------------------------------------------- Gaussian

GaussianGenerator::GaussianGenerator(size_t num_nodes, Modality modality, double stddev,
                                     util::Rng rng)
    : info_(GetModalityInfo(modality)), stddev_(stddev), rng_(rng) {
  means_.assign(num_nodes, 0.0);
  for (size_t i = 1; i < num_nodes; ++i) {
    means_[i] = rng_.NextDouble(info_.min_value, info_.max_value);
  }
}

void GaussianGenerator::FillEpoch(sim::Epoch epoch) {
  if (cached_ && epoch + 1 == next_epoch_) return;
  if (epoch < next_epoch_) EpochWentBack("GaussianGenerator", epoch, next_epoch_);
  cache_.assign(means_.size(), 0.0);
  for (size_t i = 1; i < means_.size(); ++i) {
    cache_[i] = QuantizeToDomain(means_[i] + rng_.NextGaussian(0.0, stddev_), info_);
  }
  next_epoch_ = epoch + 1;
  cached_ = true;
}

double GaussianGenerator::Value(sim::NodeId id, sim::Epoch epoch) {
  FillEpoch(epoch);
  return id < cache_.size() ? cache_[id] : 0.0;
}

// ------------------------------------------------------------- Random walk

RandomWalkGenerator::RandomWalkGenerator(size_t num_nodes, Modality modality, double step_sigma,
                                         util::Rng rng, double quantize_step)
    : info_(GetModalityInfo(modality)),
      sigma_(step_sigma),
      rng_(rng),
      quantize_step_(quantize_step) {
  state_.assign(num_nodes, 0.0);
  observed_.assign(num_nodes, 0.0);
  for (size_t i = 1; i < num_nodes; ++i) {
    // The latent walk stays continuous; only the observation is snapped to
    // the ADC grid, so coarse quantization does not bias the dynamics.
    state_[i] = ClampToDomain(rng_.NextDouble(info_.min_value, info_.max_value), info_);
    observed_[i] = QuantizeToStep(state_[i], quantize_step_, info_);
  }
}

void RandomWalkGenerator::AdvanceTo(sim::Epoch epoch) {
  if (epoch < epoch_) EpochWentBack("RandomWalkGenerator", epoch, epoch_);
  while (epoch_ < epoch) {
    for (size_t i = 1; i < state_.size(); ++i) {
      state_[i] = ClampToDomain(state_[i] + rng_.NextGaussian(0.0, sigma_), info_);
      observed_[i] = QuantizeToStep(state_[i], quantize_step_, info_);
    }
    ++epoch_;
  }
}

double RandomWalkGenerator::Value(sim::NodeId id, sim::Epoch epoch) {
  AdvanceTo(epoch);
  return id < observed_.size() ? observed_[id] : 0.0;
}

// --------------------------------------------------------- Room-correlated

RoomCorrelatedGenerator::RoomCorrelatedGenerator(std::vector<sim::GroupId> room_of,
                                                 Modality modality, double room_sigma,
                                                 double noise_sigma, util::Rng rng,
                                                 double global_sigma, double quantize_step)
    : slot_of_(room_of.size(), 0),
      info_(GetModalityInfo(modality)),
      room_sigma_(room_sigma),
      noise_sigma_(noise_sigma),
      rng_(rng),
      global_sigma_(global_sigma),
      quantize_step_(quantize_step) {
  global_level_ = global_sigma_ > 0.0 ? rng_.NextGaussian(0.0, global_sigma_ * 4.0) : 0.0;
  // Initial levels draw in order of first appearance; the per-epoch walk
  // steps the rooms in the iteration order of a hash map keyed by room id,
  // the order every recorded run drew them in. Build that map once and lay
  // the levels out flat in its order, so a reading costs no hash lookup.
  std::unordered_map<sim::GroupId, double> level_of;
  for (size_t i = 1; i < room_of.size(); ++i) {
    sim::GroupId room = room_of[i];
    if (!level_of.count(room)) level_of[room] = rng_.NextDouble(info_.min_value, info_.max_value);
  }
  std::unordered_map<sim::GroupId, uint32_t> slot;
  for (const auto& [room, level] : level_of) {
    slot[room] = static_cast<uint32_t>(room_level_.size());
    room_level_.push_back(level);
  }
  for (size_t i = 1; i < room_of.size(); ++i) slot_of_[i] = slot[room_of[i]];
}

void RoomCorrelatedGenerator::AdvanceTo(sim::Epoch epoch) {
  if (cached_ && epoch + 1 == next_epoch_) return;
  if (epoch < next_epoch_) EpochWentBack("RoomCorrelatedGenerator", epoch, next_epoch_);
  cache_.resize(slot_of_.size(), 0.0);
  while (next_epoch_ <= epoch) {
    if (next_epoch_ > 0) {
      for (double& level : room_level_) {
        level = ClampToDomain(level + rng_.NextGaussian(0.0, room_sigma_), info_);
      }
      if (global_sigma_ > 0.0) {
        // The global walk is mean-reverting so readings stay inside the domain.
        global_level_ = global_level_ * 0.98 + rng_.NextGaussian(0.0, global_sigma_);
      }
    }
    for (size_t i = 1; i < slot_of_.size(); ++i) {
      double level = room_level_[slot_of_[i]] + global_level_;
      cache_[i] =
          QuantizeToStep(level + rng_.NextGaussian(0.0, noise_sigma_), quantize_step_, info_);
    }
    ++next_epoch_;
  }
  cached_ = true;
}

double RoomCorrelatedGenerator::Value(sim::NodeId id, sim::Epoch epoch) {
  AdvanceTo(epoch);
  return id < cache_.size() ? cache_[id] : 0.0;
}

std::optional<GeneratorCheckpoint> RoomCorrelatedGenerator::Checkpoint() const {
  GeneratorCheckpoint checkpoint;
  checkpoint.next_epoch = next_epoch_;
  checkpoint.rng = rng_;
  checkpoint.global_level = global_level_;
  checkpoint.levels = room_level_;
  return checkpoint;
}

std::unique_ptr<DataGenerator> RoomCorrelatedGenerator::Resume(
    const GeneratorCheckpoint& cp) const {
  auto gen = std::make_unique<RoomCorrelatedGenerator>(*this);
  gen->rng_ = cp.rng;
  gen->global_level_ = cp.global_level;
  gen->room_level_ = cp.levels;
  gen->next_epoch_ = cp.next_epoch;
  gen->cached_ = false;
  return gen;
}

// ------------------------------------------------------------------ Spikes

SpikeGenerator::SpikeGenerator(size_t num_nodes, Modality modality, double baseline,
                               double spike_prob, util::Rng rng)
    : num_nodes_(num_nodes),
      info_(GetModalityInfo(modality)),
      baseline_(baseline),
      spike_prob_(spike_prob),
      rng_(rng) {}

void SpikeGenerator::FillEpoch(sim::Epoch epoch) {
  if (cached_ && epoch + 1 == next_epoch_) return;
  if (epoch < next_epoch_) EpochWentBack("SpikeGenerator", epoch, next_epoch_);
  cache_.assign(num_nodes_, 0.0);
  double spike_floor = info_.min_value + 0.9 * (info_.max_value - info_.min_value);
  for (size_t i = 1; i < num_nodes_; ++i) {
    double v;
    if (rng_.NextBernoulli(spike_prob_)) {
      v = rng_.NextDouble(spike_floor, info_.max_value);
    } else {
      v = baseline_ + rng_.NextGaussian(0.0, 0.02 * (info_.max_value - info_.min_value));
    }
    cache_[i] = QuantizeToDomain(v, info_);
  }
  next_epoch_ = epoch + 1;
  cached_ = true;
}

double SpikeGenerator::Value(sim::NodeId id, sim::Epoch epoch) {
  FillEpoch(epoch);
  return id < cache_.size() ? cache_[id] : 0.0;
}

// ------------------------------------------------------------------- Trace

TraceGenerator::TraceGenerator(std::vector<std::vector<double>> matrix, Modality modality)
    : matrix_(std::move(matrix)), info_(GetModalityInfo(modality)) {
  for (auto& row : matrix_) {
    for (double& v : row) v = QuantizeToDomain(v, info_);
  }
}

double TraceGenerator::Value(sim::NodeId id, sim::Epoch epoch) {
  if (matrix_.empty()) return 0.0;
  const auto& row = matrix_[epoch % matrix_.size()];
  return id < row.size() ? row[id] : 0.0;
}

std::unique_ptr<DataGenerator> TraceGenerator::Resume(const GeneratorCheckpoint&) const {
  return std::make_unique<TraceGenerator>(*this);
}

}  // namespace kspot::data
