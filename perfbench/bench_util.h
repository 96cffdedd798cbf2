// Small helpers shared by the end-to-end benchmark: clock, seeded RNG,
// Zipf sampling, percentiles, and the result printer.

#ifndef ODE_PERFBENCH_BENCH_UTIL_H_
#define ODE_PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// xoshiro256** seeded through SplitMix64: the same seed yields the same
/// stream on every platform and standard library (unlike std::mt19937
/// distributions, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& word : s_) {
      seed += 0x9E3779B97F4A7C15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n) (Lemire's multiply-shift; bias < n / 2^64).
  uint64_t Uniform(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Uniform(span));
  }

  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// Zipf(theta) over [0, n) by inverse CDF: rank 0 is the hottest key.
class Zipf {
 public:
  Zipf(size_t n, double theta);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile, p in [0, 1]. 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T> values, double p) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return static_cast<double>(values[rank]);
}

/// Linearly interpolated quantile, q in [0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the benchmark's last stdout line: one JSON object with
/// `correct`, `attempted`, `failed` and `metrics`.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<MetricOut>& metrics);

/// JSON string literal for `s` (quotes and backslashes escaped).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // ODE_PERFBENCH_BENCH_UTIL_H_
