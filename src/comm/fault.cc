#include "comm/fault.h"

#include <algorithm>
#include <cstddef>

#include "common/status.h"

namespace fsdp::comm {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDelay: return "delay";
    case FaultKind::kHang: return "hang";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kSkip: return "skip";
  }
  return "?";
}

void FaultInjector::Inject(FaultSpec spec) {
  FSDP_CHECK_MSG(spec.rank >= 0, "fault spec needs a target rank");
  FSDP_CHECK_MSG(spec.seq >= 0 || !spec.tag.empty() || spec.step >= 0,
                 "fault spec needs a seq, a tag, or a step to match");
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(std::move(spec));
  armed_.store(true, std::memory_order_relaxed);
}

bool FaultInjector::Match(int rank, int64_t seq, const std::string& label,
                          obs::EventKind kind, FaultSpec* out) {
  const int64_t step = train_step_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < pending_.size(); ++i) {
    const FaultSpec& f = pending_[i];
    if (f.rank != rank) continue;
    // Every selector that is set must match.
    if (f.seq >= 0 && f.seq != seq) continue;
    if (!f.tag.empty() && f.tag != label) continue;
    if (f.step >= 0 && f.step != step) continue;
    if (f.op_kind >= 0 && f.op_kind != static_cast<int>(kind)) continue;
    *out = f;
    if (f.kind != FaultKind::kCrash) {  // a crashed rank stays crashed
      pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
      if (pending_.empty()) armed_.store(false, std::memory_order_relaxed);
    }
    return true;
  }
  return false;
}

std::string OpSignature::Render() const {
  std::string out = obs::EventKindName(kind);
  if (!label.empty()) out += ":" + label;
  if (root >= 0) out += "@root" + std::to_string(root);
  return out;
}

const char* OpStateName(OpState state) {
  switch (state) {
    case OpState::kIssued: return "issued";
    case OpState::kStarted: return "started";
    case OpState::kCompleted: return "completed";
    case OpState::kSkipped: return "skipped";
    case OpState::kAborted: return "aborted";
  }
  return "?";
}

FlightRecorder::FlightRecorder(int num_ranks, int capacity)
    : capacity_(capacity), rings_(static_cast<size_t>(num_ranks)) {
  FSDP_CHECK(num_ranks > 0 && capacity > 0);
  for (Ring& ring : rings_) {
    ring.slots.resize(static_cast<size_t>(capacity_));
  }
}

FlightRecord* FlightRecorder::Slot(Ring& ring, int64_t seq) {
  return &ring.slots[static_cast<size_t>(seq % capacity_)];
}

void FlightRecorder::OnIssued(int rank, int64_t seq, OpSignature sig,
                              double t_us) {
  Ring& ring = rings_[static_cast<size_t>(rank)];
  std::lock_guard<std::mutex> lock(ring.mu);
  FlightRecord* r = Slot(ring, seq);
  *r = FlightRecord{};
  r->seq = seq;
  r->sig = std::move(sig);
  r->issue_us = t_us;
  r->state = OpState::kIssued;
}

void FlightRecorder::OnStarted(int rank, int64_t seq, double t_us) {
  Ring& ring = rings_[static_cast<size_t>(rank)];
  std::lock_guard<std::mutex> lock(ring.mu);
  FlightRecord* r = Slot(ring, seq);
  if (r->seq != seq) return;  // overwritten by a newer op (ring wrapped)
  r->start_us = t_us;
  r->state = OpState::kStarted;
}

void FlightRecorder::OnFinished(int rank, int64_t seq, double t_us,
                                OpState final_state) {
  Ring& ring = rings_[static_cast<size_t>(rank)];
  std::lock_guard<std::mutex> lock(ring.mu);
  FlightRecord* r = Slot(ring, seq);
  if (r->seq != seq) return;
  r->complete_us = t_us;
  r->state = final_state;
}

std::vector<FlightRecord> FlightRecorder::Records(int rank) const {
  const Ring& ring = rings_[static_cast<size_t>(rank)];
  std::lock_guard<std::mutex> lock(ring.mu);
  std::vector<FlightRecord> out;
  out.reserve(ring.slots.size());
  for (const FlightRecord& r : ring.slots) {
    if (r.seq >= 0) out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<obs::TraceEvent> FlightRecorder::TraceEvents() const {
  std::vector<obs::TraceEvent> out;
  for (int rank = 0; rank < num_ranks(); ++rank) {
    for (const FlightRecord& r : Records(rank)) {
      obs::TraceEvent e;
      e.rank = rank;
      e.kind = r.sig.kind;
      // Same rendering as the JSON dump's "op" field ("AR:warm"), so the
      // Chrome timeline and the dump name ops identically.
      e.unit = r.sig.Render() + " #" + std::to_string(r.seq) + " (" +
               OpStateName(r.state) + ")";
      e.lane = "flight";
      e.t_begin_us = r.issue_us;
      // Incomplete ops render as zero-length spans at their last known time.
      e.t_end_us = r.complete_us > 0 ? r.complete_us
                   : r.start_us > 0  ? r.start_us
                                     : r.issue_us;
      e.bytes = r.sig.numel * 4;
      out.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace fsdp::comm
