// perfbench/lib/stats.hpp
//
// Sample statistics and the seeded open-loop arrival schedule shared by
// the benchmark's workloads. Kept free of the ifsyn libraries so the
// unit tests can check them in isolation.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are less than or equal to it. `p` in (0, 100].
/// Returns 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

/// Number of samples strictly above the nearest-rank `p`-th percentile
/// position (n - rank), i.e. how many observations the tail estimate
/// rests on.
std::size_t samples_beyond(std::size_t n, double p);

double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// SplitMix64: a small, fully specified generator, so a seed yields the
/// same inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi);

 private:
  std::uint64_t state_;
};

struct Arrival {
  double t_s = 0.0;  ///< scheduled send time, seconds after phase start
  int kind = 0;      ///< request kind index
};

/// Poisson arrivals at `rate_per_s` over [0, duration_s). Kinds come in
/// shuffled copies of `mix` (kind indices, a kind listed twice weighs
/// twice), so every phase carries the same composition whatever the seed.
/// Pure function of its inputs.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double duration_s,
                                      const std::vector<int>& mix);

/// FNV-1a, for report digests.
std::uint64_t fnv1a(std::uint64_t hash, std::string_view text);
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

}  // namespace perfbench
