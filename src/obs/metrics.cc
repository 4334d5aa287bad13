#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "obs/json.h"

namespace fsdp::obs {

void Histogram::Observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(v);
  sum_ += v;
  max_ = samples_.size() == 1 ? v : std::max(max_, v);
}

int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(samples_.size());
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::Percentile(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: ceil(p/100 * N), 1-indexed.
  const double clamped = std::min(100.0, std::max(0.0, p));
  size_t rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
  sum_ = 0;
  max_ = 0;
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry registry;
  return registry;
}

namespace {
template <typename Map>
typename Map::mapped_type::element_type& GetOrCreate(Map& map,
                                                     const std::string& name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(name, std::make_unique<
                               typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}
}  // namespace

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  FSDP_CHECK_MSG(!gauges_.count(name) && !histograms_.count(name),
                 "metric " << name << " already bound to another type");
  return GetOrCreate(counters_, name);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  FSDP_CHECK_MSG(!counters_.count(name) && !histograms_.count(name),
                 "metric " << name << " already bound to another type");
  return GetOrCreate(gauges_, name);
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  FSDP_CHECK_MSG(!counters_.count(name) && !gauges_.count(name),
                 "metric " << name << " already bound to another type");
  return GetOrCreate(histograms_, name);
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) w.Key(name).Int(c->value());
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) w.Key(name).Int(g->value());
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    w.Key(name).BeginObject();
    w.Key("count").Int(h->count());
    w.Key("sum").Double(h->sum());
    w.Key("max").Double(h->max());
    w.Key("p50").Double(h->Percentile(50));
    w.Key("p95").Double(h->Percentile(95));
    w.EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace fsdp::obs
