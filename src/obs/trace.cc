#include "obs/trace.h"

#include <algorithm>

namespace fsdp::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kAllGather: return "AG";
    case EventKind::kReduceScatter: return "RS";
    case EventKind::kAllReduce: return "AR";
    case EventKind::kBroadcast: return "BCAST";
    case EventKind::kAllToAll: return "A2A";
    case EventKind::kForward: return "FWD";
    case EventKind::kBackward: return "BWD";
    case EventKind::kReshard: return "RESHARD";
    case EventKind::kThrottle: return "THROTTLE";
    case EventKind::kOptimStep: return "OPTIM";
    case EventKind::kH2D: return "H2D";
    case EventKind::kD2H: return "D2H";
    case EventKind::kAlloc: return "ALLOC";
    case EventKind::kBarrier: return "BARRIER";
    case EventKind::kWait: return "WAIT";
    case EventKind::kSend: return "SEND";
    case EventKind::kRecv: return "RECV";
    case EventKind::kMarker: return "MARK";
  }
  return "?";
}

std::string RenderEvent(const TraceEvent& e) {
  if (e.unit.empty()) return EventKindName(e.kind);
  return std::string(EventKindName(e.kind)) + ":" + e.unit;
}

TraceCollector& TraceCollector::Get() {
  static TraceCollector collector;
  return collector;
}

void TraceCollector::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

bool TraceCollector::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

TraceCollector::RankBuffer& TraceCollector::Buffer(int rank) {
  rank = std::max(0, rank);
  {
    std::shared_lock<std::shared_mutex> lock(buffers_mu_);
    auto it = buffers_.find(rank);
    if (it != buffers_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(buffers_mu_);
  std::unique_ptr<RankBuffer>& slot = buffers_[rank];
  if (!slot) slot = std::make_unique<RankBuffer>();
  return *slot;
}

void TraceCollector::Record(TraceEvent e) {
  RankBuffer& buf = Buffer(e.rank);
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back(std::move(e));
}

std::vector<TraceEvent> TraceCollector::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::shared_lock<std::shared_mutex> map_lock(buffers_mu_);
    for (const auto& [rank, buf] : buffers_) {
      std::lock_guard<std::mutex> lock(buf->mu);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.t_begin_us != b.t_begin_us) {
                       return a.t_begin_us < b.t_begin_us;
                     }
                     return a.rank < b.rank;
                   });
  return out;
}

std::vector<TraceEvent> TraceCollector::SnapshotRank(int rank) const {
  std::shared_lock<std::shared_mutex> map_lock(buffers_mu_);
  auto it = buffers_.find(std::max(0, rank));
  if (it == buffers_.end()) return {};
  std::lock_guard<std::mutex> lock(it->second->mu);
  return it->second->events;
}

size_t TraceCollector::size() const {
  std::shared_lock<std::shared_mutex> map_lock(buffers_mu_);
  size_t n = 0;
  for (const auto& [rank, buf] : buffers_) {
    std::lock_guard<std::mutex> lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

void TraceCollector::Clear() {
  std::shared_lock<std::shared_mutex> map_lock(buffers_mu_);
  for (const auto& [rank, buf] : buffers_) {
    std::lock_guard<std::mutex> lock(buf->mu);
    buf->events.clear();
  }
}

TraceSpan::TraceSpan(EventKind kind, std::string unit, std::string lane,
                     int64_t bytes)
    : armed_(TraceCollector::Get().enabled()) {
  if (!armed_) return;
  e_.rank = std::max(0, CurrentRank());
  e_.kind = kind;
  e_.unit = std::move(unit);
  e_.lane = std::move(lane);
  e_.bytes = bytes;
  e_.t_begin_us = MonotonicMicros();
}

TraceSpan::~TraceSpan() {
  if (!armed_) return;
  e_.t_end_us = MonotonicMicros();
  TraceCollector::Get().Record(std::move(e_));
}

}  // namespace fsdp::obs
