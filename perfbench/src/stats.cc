#include "stats.h"

#include <algorithm>

namespace perfbench {

Percentile NearestRank(std::vector<Weighted> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end(),
            [](const Weighted& a, const Weighted& b) {
              return a.value < b.value;
            });
  double total = 0.0;
  for (const Weighted& s : samples) total += s.weight;
  // Relative slack so that unit weights hit exact ranks despite rounding.
  const double target = p / 100.0 * total * (1.0 - 1e-12);
  double cumulative = 0.0;
  size_t rank = samples.size();
  for (size_t i = 0; i < samples.size(); ++i) {
    cumulative += samples[i].weight;
    if (cumulative >= target) {
      rank = i + 1;
      break;
    }
  }
  out.value = samples[rank - 1].value;
  out.beyond = samples.size() - rank;
  out.thin = out.beyond < 10;
  return out;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
