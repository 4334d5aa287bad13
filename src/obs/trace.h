// Typed trace events — the unified observability substrate.
//
// Every schedule-relevant action in the library (FSDP unit lifecycle hooks,
// ProcessGroup collectives, rate-limiter throttles, simulator stream ops and
// allocator traffic) is describable as a TraceEvent: WHO (rank), WHAT (an
// EventKind plus a unit/op label), WHERE (a lane — the Chrome-trace "thread"
// the span renders on), and WHEN (begin/end in microseconds). Two time
// domains share the format:
//
//   * the functional layer stamps real time (MonotonicMicros),
//     via the FSDP_TRACE_SPAN RAII macro or TraceSpan directly;
//   * the simulator stamps *virtual* time, via TraceCollector::Record with
//     explicit timestamps.
//
// Events land in per-rank buffers inside the process-global TraceCollector,
// created on a rank's first event (any rank number, no fixed table). Each
// rank thread appends only to its own buffer; cross-rank merging happens
// only at snapshot time. Recording is off by default — TraceSpan reads one
// relaxed atomic and does nothing when disabled.
//
// FSDP and DDP keep no trace logs of their own: their events are a view of
// their per-rank plan::ExecLog (plan::ExecLog::TraceEvents), published as
// entries finish. The collector is the export surface (Chrome trace, see
// chrome_trace.h) that also gets comm-worker and simulator spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/rank_context.h"

namespace fsdp::obs {

enum class EventKind : int {
  kAllGather = 0,   // unshard AllGather (FSDP "AG")
  kReduceScatter,   // gradient ReduceScatter ("RS")
  kAllReduce,       // replica AllReduce ("AR"), DDP AllReduce
  kBroadcast,
  kAllToAll,
  kForward,         // unit forward compute ("FWD")
  kBackward,        // unit backward compute ("BWD", simulator)
  kReshard,         // unsharded storage freed ("RESHARD")
  kThrottle,        // rate limiter deferred a prefetch ("THROTTLE")
  kOptimStep,       // optimizer step (simulator)
  kH2D,             // host-to-device copy (CPU offload, simulator)
  kD2H,
  kAlloc,           // allocator events (simulator)
  kBarrier,         // ProcessGroup::Barrier rendezvous (comm lane)
  kWait,            // rank thread blocked on an async collective ("WAIT")
  kSend,            // pipeline point-to-point send ("SEND")
  kRecv,            // pipeline point-to-point receive ("RECV")
  kMarker,          // free-form instant
};

/// Stable short name ("AG", "RS", ...) — also the legacy string-event prefix.
const char* EventKindName(EventKind kind);

struct TraceEvent {
  int rank = 0;
  EventKind kind = EventKind::kMarker;
  std::string unit;        // unit / op label ("blocks.0", "[root]", ...)
  std::string lane;        // render lane: "runtime", "comm", "compute", ...
  double t_begin_us = 0;   // real or virtual microseconds
  double t_end_us = 0;     // == t_begin_us for instant events
  int64_t bytes = 0;       // payload size where meaningful, else 0
  /// Comm-lane spans: when the comm worker actually started executing the
  /// collective (t_begin_us is the issue time). 0 when not applicable —
  /// queue delay = t_exec_us - t_begin_us is only meaningful when set.
  double t_exec_us = 0;

  double duration_us() const { return t_end_us - t_begin_us; }
};

/// String rendering: "AG:blocks.0", or the bare kind for unit-less events.
std::string RenderEvent(const TraceEvent& e);

/// Process-global sink for trace events, partitioned by rank.
class TraceCollector {
 public:
  static TraceCollector& Get();

  /// Global on/off. Off (the default) makes Record()/TraceSpan no-ops.
  void set_enabled(bool on);
  bool enabled() const;

  /// Appends to the buffer of e.rank (negative ranks record as rank 0). Safe
  /// to call concurrently from any thread; ranks never contend with each
  /// other once their buffers exist.
  void Record(TraceEvent e);

  /// All events of all ranks, merged and sorted by (t_begin, rank).
  std::vector<TraceEvent> Snapshot() const;
  /// One rank's events in emission order.
  std::vector<TraceEvent> SnapshotRank(int rank) const;
  size_t size() const;
  void Clear();

 private:
  TraceCollector() = default;

  struct RankBuffer {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
  };

  /// The buffer of `rank`, created on first use. Buffers live as long as the
  /// collector, so the reference stays valid after the map lock is dropped.
  RankBuffer& Buffer(int rank);

  std::atomic<bool> enabled_{false};
  mutable std::shared_mutex buffers_mu_;  // guards the map, not the buffers
  std::map<int, std::unique_ptr<RankBuffer>> buffers_;
};

/// RAII span: stamps t_begin at construction and records the event at
/// destruction with t_end = now. Rank defaults to the thread-local rank
/// context (CurrentRank(), or 0 if unset). Costs one atomic load when the
/// collector is disabled.
class TraceSpan {
 public:
  TraceSpan(EventKind kind, std::string unit, std::string lane,
            int64_t bytes = 0);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

 private:
  bool armed_;
  TraceEvent e_;
};

}  // namespace fsdp::obs

#define FSDP_TRACE_CONCAT_(a, b) a##b
#define FSDP_TRACE_CONCAT(a, b) FSDP_TRACE_CONCAT_(a, b)
/// Scoped span covering the rest of the enclosing block:
///   FSDP_TRACE_SPAN(kAllGather, unit.name, "comm", nbytes);
#define FSDP_TRACE_SPAN(kind, unit, lane, ...)                           \
  ::fsdp::obs::TraceSpan FSDP_TRACE_CONCAT(fsdp_trace_span_, __LINE__)(  \
      ::fsdp::obs::EventKind::kind, (unit), (lane), ##__VA_ARGS__)
