// Shared declarations of the benchmark: run arguments, the metric
// report every phase appends to, and the two phases (training, tooling).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports. A failed check clears `correct`; the JSON
/// result line is rendered from this alone.
struct Report {
  bool correct = true;
  OpCount ops;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Adds a ratio metric and prints its base, so the share is never read
  /// without what it is a share of.
  void AddRatio(const std::string& name, const Ratio& r);
  /// Records a failed output check (printed to stderr) and fails the run.
  void Fail(const std::string& what);
};

/// One span of the traced run, kept in memory and written when the run ends.
struct Span {
  const char* name = "";
  const char* parent = "";
  int rank = 0;
  int64_t step = -1;
  double t0_s = 0;
  double t1_s = 0;
};

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tooling;

/// Real-runtime training of the workload: adds the step, throughput and
/// memory metrics (untraced) or the step/tensor/optim/comm/core/ref/obs layer
/// metrics (traced). `budget_s` bounds the timed training, which is cut into
/// slices with one tooling round after each slice. Returns the set-up time
/// (median over repetitions).
double RunTraining(const Args& args, double budget_s, Tooling& tooling,
                   Report& report, std::vector<Span>& spans);

/// True when `name` is one of the training workloads.
bool IsTrainingWorkload(const std::string& name);

}  // namespace perfbench
