// Statistics helpers of the benchmark: order statistics over timing samples,
// ratios that carry their base, and failed/attempted accounting. Header-only
// and free of library dependencies so stats_test.cc covers them directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Median (mean of the two middle values for an even count); NaN when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `pct` in (0, 100]: the smallest sample with at
/// least pct% of the samples at or below it. NaN when empty.
inline double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Number of samples strictly after the nearest-rank position of `pct`.
inline size_t SamplesBeyond(size_t n, double pct) {
  if (n == 0) return 0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
  return n - std::min(n, static_cast<size_t>(std::max(rank, 1.0)));
}

struct TailPercentile {
  double pct = 0;  // 0 when no candidate percentile qualifies
  double value = kNaN;
};

/// The highest of p50/p75/p90/p95/p99/p99.9 that still has at least
/// `min_beyond` samples beyond it, so a tail figure is never read off a
/// handful of outliers.
inline TailPercentile HighestSupportedPercentile(const std::vector<double>& v,
                                                 size_t min_beyond = 10) {
  TailPercentile out;
  for (double pct : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (SamplesBeyond(v.size(), pct) < min_beyond) break;
    out.pct = pct;
    out.value = Percentile(v, pct);
  }
  return out;
}

/// Quartiles by Python's statistics.quantiles(v, n=4) ("exclusive" method),
/// so the spread matches what an outside script computes. Needs >= 2 samples.
inline std::vector<double> Quartiles(std::vector<double> v) {
  if (v.size() < 2) return {kNaN, kNaN, kNaN};
  std::sort(v.begin(), v.end());
  const int64_t m = static_cast<int64_t>(v.size()) + 1;
  std::vector<double> q;
  for (int64_t i = 1; i < 4; ++i) {
    const int64_t j =
        std::clamp<int64_t>(i * m / 4, 1, static_cast<int64_t>(v.size()) - 1);
    const int64_t delta = i * m - j * 4;
    q.push_back((v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

/// (Q3 - Q1) / median: the run-to-run spread the benchmark's bounds are
/// checked against.
inline double QuartileSpread(const std::vector<double>& v) {
  const std::vector<double> q = Quartiles(v);
  return (q[2] - q[0]) / Median(v);
}

/// Throughput over `windows` consecutive windows of equal event count: each
/// window's events x `items_per_event`, divided by the time from the previous
/// window's last end (or `start_s`) to its own last end. Events past the last
/// whole window are dropped. The median of these rates moves with a burst of
/// slow events only when the burst spans most windows.
inline std::vector<double> WindowRates(double start_s,
                                       const std::vector<double>& end_s,
                                       double items_per_event, size_t windows) {
  if (end_s.empty() || windows == 0) return {};
  const size_t per = std::max<size_t>(1, end_s.size() / windows);
  std::vector<double> rates;
  double prev = start_s;
  for (size_t i = per - 1; i < end_s.size(); i += per) {
    rates.push_back(items_per_event * static_cast<double>(per) /
                    (end_s[i] - prev));
    prev = end_s[i];
  }
  return rates;
}

/// A ratio that keeps its numerator and base, so every printed share states
/// what it is a share of.
struct Ratio {
  double num = 0;
  double base = 0;
  std::string base_name;

  double value() const { return base > 0 ? num / base : kNaN; }
  std::string Describe() const {
    return std::to_string(num) + " / " + std::to_string(base) + " (base: " +
           base_name + ")";
  }
};

/// Failed/attempted operation accounting. An operation is a training step or
/// a tooling call.
struct OpCount {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpCount& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

}  // namespace perfbench
