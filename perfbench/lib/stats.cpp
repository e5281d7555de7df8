#include "lib/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int Rng::range(int lo, int hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next() % span);
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double duration_s,
                                      const std::vector<int>& mix) {
  Rng rng(seed ^ 0x5eed5eed5eed5eedull);
  std::vector<Arrival> out;
  std::vector<int> block;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    if (block.empty()) {
      block = mix;
      for (int i = static_cast<int>(block.size()) - 1; i > 0; --i) {
        std::swap(block[static_cast<std::size_t>(i)],
                  block[static_cast<std::size_t>(rng.range(0, i))]);
      }
    }
    out.push_back({t, block.back()});
    block.pop_back();
  }
  return out;
}

std::uint64_t fnv1a(std::uint64_t hash, std::string_view text) {
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
