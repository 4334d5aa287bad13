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

FlightRecorder::FlightRecorder(int num_ranks)
    : rings_(static_cast<size_t>(num_ranks)) {
  FSDP_CHECK(num_ranks > 0);
  for (Ring& ring : rings_) ring.slots.resize(kCapacity);
}

void FlightRecorder::Record(int rank, std::shared_ptr<WorkState> work) {
  Ring& ring = rings_[static_cast<size_t>(rank)];
  const size_t slot = static_cast<size_t>(work->seq % kCapacity);
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.slots[slot] = std::move(work);
}

std::vector<FlightRecord> FlightRecorder::Records(int rank) const {
  std::vector<std::shared_ptr<WorkState>> live;
  {
    const Ring& ring = rings_[static_cast<size_t>(rank)];
    std::lock_guard<std::mutex> lock(ring.mu);
    for (const auto& w : ring.slots) {
      if (w) live.push_back(w);
    }
  }
  std::vector<FlightRecord> out;
  out.reserve(live.size());
  for (const auto& w : live) {
    std::lock_guard<std::mutex> lock(w->mu);
    out.push_back(FlightRecord{w->seq, w->sig, w->issue_us, w->start_us,
                               w->complete_us, w->state});
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

}  // namespace fsdp::comm
