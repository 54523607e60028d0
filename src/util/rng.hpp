#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace kspot::util {

/// Deterministic, seedable pseudo-random number generator.
///
/// Implements xoshiro256** seeded via splitmix64. Every stochastic component in
/// the library (topology generation, data generators, loss processes) takes an
/// explicit `Rng` so that simulations are reproducible from a single seed and
/// independent streams can be split off without correlation.
class Rng {
 public:
  /// Creates a generator whose entire state is derived from `seed`.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit value.
  uint64_t NextU64();

  /// Returns a uniformly distributed integer in `[0, bound)`. `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Returns a uniformly distributed integer in `[lo, hi]` (inclusive).
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Returns a uniformly distributed double in `[0, 1)`.
  double NextDouble();

  /// Returns a uniformly distributed double in `[lo, hi)`.
  double NextDouble(double lo, double hi);

  /// Returns a normally distributed double with the given mean / standard deviation.
  double NextGaussian(double mean = 0.0, double stddev = 1.0);

  /// Returns true with probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Derives an independent child generator for substream `stream_id`.
  ///
  /// The child is seeded by mixing this generator's *current* state with the
  /// stream id through splitmix64, so:
  ///   - Split is `const`: it never advances this generator. Calling
  ///     `Split(i)` for any set of ids and then drawing from the parent
  ///     yields exactly the sequence the parent would have produced anyway.
  ///   - distinct ids give decorrelated streams (different splitmix seeds),
  ///     and the same id from the same parent state reproduces the same
  ///     stream — so FaultPlan gives each node its own `Split(node_id)`
  ///     fault process and ChurnEngine derives each epoch's repair stream
  ///     with `Split(epoch)`, independent of how many draws came before.
  ///   - splitting after the parent has advanced yields different children;
  ///     split at a well-defined point (e.g. right after seeding).
  ///
  /// The exact child sequences are pinned by RngTest.SplitGoldenVectors.
  Rng Split(uint64_t stream_id) const;

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace kspot::util
