// Metrics registry: named counters, gauges, and histograms with a JSON
// snapshot — the cross-cutting, name-addressed aggregate. Per-object views
// stay where they are: collective traffic is counted only in each rank's
// comm::CommStats (ProcessGroup::stats()), allocator state in
// sim::AllocatorStats.
//
// Naming scheme (dot-separated, lowercase):
//   comm.{timeouts,desyncs,aborts}   elastic.{recoveries,ranks_lost,...}
//   fsdp.throttled_prefetches        fsdp.order_changes
//   alloc.{allocated,active,reserved}.peak   alloc.retries
//   <bench-specific histograms: e.g. fsdp.unshard.us>
//
// Metric objects are created on first touch and live for the process;
// returned references are stable, so hot paths look a metric up once and
// then pay only an atomic add. Histograms keep all samples (workloads here
// are bounded) and compute nearest-rank percentiles on demand.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fsdp::obs {

class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value; Max() keeps the running maximum
/// (what peak gauges want).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Max(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Histogram {
 public:
  void Observe(double v);
  int64_t count() const;
  double sum() const;
  double max() const;
  /// Nearest-rank percentile, p in [0, 100]. 0 with no samples.
  double Percentile(double p) const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
  double sum_ = 0;
  double max_ = 0;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  /// First touch creates the metric; the reference stays valid forever.
  /// A name is bound to one metric type for the process (checked).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// max, p50, p95}}} — keys sorted, parseable by obs::ParseJson.
  std::string SnapshotJson() const;

  /// Zeroes every registered metric (registrations survive — cached
  /// references remain valid).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace fsdp::obs
