// Small statistics helpers shared by the benchmark and its self-tests.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile together with the sample it rests on.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  /// Samples strictly above the reported rank.
  size_t beyond = 0;
  /// Fewer than ten samples beyond the rank: the value is reported but
  /// should not be trusted as a tail estimate.
  bool thin = true;
};

/// One observation and the weight it carries in a percentile.
struct Weighted {
  double value = 0.0;
  double weight = 1.0;
};

/// Weighted nearest-rank percentile: sorted by value, the first sample
/// at which the cumulative weight reaches p% of the total. With unit
/// weights this is the classic rank ceil(p/100 * n). An empty sample
/// yields value 0, thin.
Percentile NearestRank(std::vector<Weighted> samples, double p);

/// Deterministic 64-bit generator (splitmix64). The request streams are
/// built from it alone, so a seed names the same stream on every
/// platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Fisher-Yates shuffle of `v` driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng->Below(i));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
