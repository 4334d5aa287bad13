#include "comm/process_group.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/artifact.h"
#include "obs/metrics.h"

namespace fsdp::comm {

namespace {

/// Registry handles resolved once; afterwards each event pays only a
/// relaxed atomic add. Traffic is counted per rank in CommStats, not here.
struct CommMetrics {
  obs::Counter& timeouts;
  obs::Counter& desyncs;
  obs::Counter& aborts;

  CommMetrics()
      : timeouts(obs::MetricsRegistry::Get().GetCounter("comm.timeouts")),
        desyncs(obs::MetricsRegistry::Get().GetCounter("comm.desyncs")),
        aborts(obs::MetricsRegistry::Get().GetCounter("comm.aborts")) {}
};

CommMetrics& Metrics() {
  static CommMetrics m;
  return m;
}

/// Counts one op's wire bytes into its rank's CommStats. AllToAll counts
/// with the gather family; a Barrier moves nothing.
void CountTraffic(CommStats& s, obs::EventKind kind, int64_t bytes) {
  switch (kind) {
    case obs::EventKind::kAllGather:
    case obs::EventKind::kAllToAll:
      ++s.allgather_ops;
      s.allgather_bytes += bytes;
      break;
    case obs::EventKind::kReduceScatter:
      ++s.reducescatter_ops;
      s.reducescatter_bytes += bytes;
      break;
    case obs::EventKind::kAllReduce:
      ++s.allreduce_ops;
      s.allreduce_bytes += bytes;
      break;
    case obs::EventKind::kBroadcast:
      ++s.broadcast_ops;
      s.broadcast_bytes += bytes;
      break;
    case obs::EventKind::kSend:
      ++s.send_ops;
      s.send_bytes += bytes;
      break;
    case obs::EventKind::kRecv:
      ++s.recv_ops;
      s.recv_bytes += bytes;
      break;
    default:
      break;
  }
}

/// ReduceSlots for one (op, comm dtype) pair. Elements go in blocks with the
/// peers as the outer loop, so the branches leave the inner loop while each
/// element still sees acc = Q(op(acc, slot_k)) for k = 1.. in rank order.
/// A block is read from every slot before it is written to dst.
template <ReduceOp Op, DType D>
void ReduceSlotsAs(const std::vector<const float*>& slots, int64_t off,
                   int64_t n, float* dst) {
  constexpr int64_t kBlock = 512;
  const int w = static_cast<int>(slots.size());
  float acc[kBlock];
  for (int64_t b = 0; b < n; b += kBlock) {
    const int64_t len = std::min(kBlock, n - b);
    std::memcpy(acc, slots[0] + off + b, static_cast<size_t>(len) * 4);
    for (int k = 1; k < w; ++k) {
      const float* src = slots[k] + off + b;
      for (int64_t i = 0; i < len; ++i) {
        const float v = (Op == ReduceOp::kMax) ? std::max(acc[i], src[i])
                                               : acc[i] + src[i];
        acc[i] = Quantize(v, D);
      }
    }
    if constexpr (Op == ReduceOp::kAvg) {
      for (int64_t i = 0; i < len; ++i) {
        acc[i] = Quantize(acc[i] / static_cast<float>(w), D);
      }
    }
    std::memcpy(dst + b, acc, static_cast<size_t>(len) * 4);
  }
}

template <DType D>
void ReduceSlotsIn(const std::vector<const float*>& slots, int64_t off,
                   int64_t n, ReduceOp op, float* dst) {
  switch (op) {
    case ReduceOp::kSum:
      return ReduceSlotsAs<ReduceOp::kSum, D>(slots, off, n, dst);
    case ReduceOp::kAvg:
      return ReduceSlotsAs<ReduceOp::kAvg, D>(slots, off, n, dst);
    case ReduceOp::kMax:
      return ReduceSlotsAs<ReduceOp::kMax, D>(slots, off, n, dst);
  }
}

/// Reduces element range [off, off + n) across every rank's slot into dst:
/// peers in rank order, quantizing each partial sum through comm_dtype.
void ReduceSlots(const std::vector<const float*>& slots, int64_t off,
                 int64_t n, ReduceOp op, DType comm_dtype, float* dst) {
  switch (comm_dtype) {
    case DType::kBF16:
      return ReduceSlotsIn<DType::kBF16>(slots, off, n, op, dst);
    case DType::kF16:
      return ReduceSlotsIn<DType::kF16>(slots, off, n, op, dst);
    case DType::kF32:
    case DType::kI64:  // Quantize is the identity for both
      return ReduceSlotsIn<DType::kF32>(slots, off, n, op, dst);
  }
}

std::string FormatMs(double ms) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << ms;
  return os.str();
}

/// Renders two signatures that differ for a diagnosis, naming each payload
/// numel when the size is all that tells them apart.
std::pair<std::string, std::string> RenderMismatch(const OpSignature& got,
                                                   const OpSignature& want) {
  std::string a = got.Render(), b = want.Render();
  if (a == b && got.numel != want.numel) {
    a += " (numel " + std::to_string(got.numel) + ")";
    b += " (numel " + std::to_string(want.numel) + ")";
  }
  return {a, b};
}

/// "ranks 0,2,3" (or "rank 0") for diagnosis messages.
std::string RankList(const std::vector<int>& ranks) {
  std::string out = ranks.size() == 1 ? "rank " : "ranks ";
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(ranks[i]);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Work

void Work::Wait() const {
  if (!state_) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done(); });
}

Status Work::WaitStatus() const {
  if (!state_) return Status::OK();
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done(); });
  return state_->status;
}

Status Work::WaitFor(double timeout_ms) const {
  if (!state_) return Status::OK();
  std::unique_lock<std::mutex> lock(state_->mu);
  const bool done = state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return state_->done(); });
  if (!done) {
    return Status::Internal("Work::WaitFor timed out after " +
                            FormatMs(timeout_ms) + " ms (collective #" +
                            std::to_string(state_->seq) + " still pending)");
  }
  return state_->status;
}

bool Work::Completed() const {
  if (!state_) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done();
}

int64_t Work::seq() const {
  if (!state_) return -1;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->seq;
}

double Work::issue_us() const {
  if (!state_) return 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->issue_us;
}

double Work::start_us() const {
  if (!state_) return 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->start_us;
}

double Work::complete_us() const {
  if (!state_) return 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->complete_us;
}

int64_t Work::bytes() const {
  if (!state_) return 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->bytes;
}

// ---------------------------------------------------------------------------
// Communicator: comm-worker runtime

Communicator::Communicator(int size, std::shared_ptr<AbortDomain> domain)
    : size_(size), barrier_(size), src_slots_(size, nullptr),
      rank_stats_(size), domain_(std::move(domain)), queues_(size),
      flight_(size), progress_(size), sig_slots_(size) {
  FSDP_CHECK_MSG(size > 0, "communicator size must be positive");
  // Joined last, once every member is initialized: from here on a sibling's
  // abort can reach this communicator.
  if (domain_) {
    std::lock_guard<std::mutex> lock(domain_->mu);
    domain_->members.push_back(this);
  }
}

Communicator::~Communicator() {
  // Leave the failure domain first: afterwards no other thread can reach
  // this communicator through an abort.
  if (domain_) {
    std::lock_guard<std::mutex> lock(domain_->mu);
    std::erase(domain_->members, this);
  }
  // The watchdog goes next: it must not fire (dump + abort) while the rest
  // of the teardown races it.
  if (watchdog_started_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
  if (!workers_started_.load(std::memory_order_acquire)) return;
  // A communicator destroyed with scripted faults armed may have a worker
  // parked in a hang/crash and peers stuck in body barriers; abort releases
  // all of them so the drain below terminates.
  if (faults_injected_.load(std::memory_order_relaxed) && !aborted()) {
    Abort(Status::Internal(
        "communicator '" + name_ + "' destroyed with scripted faults armed"));
  }
  // Drain-then-join: flag stop, but workers keep executing queued ops until
  // their queues run dry. Fire-and-forget async ops are matched on every
  // rank (SPMD contract), so every pending barrier rendezvous completes.
  for (auto& q : queues_) {
    std::lock_guard<std::mutex> lock(q.mu);
    q.stop = true;
    q.cv.notify_all();
  }
  for (auto& t : workers_) t.join();
}

void Communicator::SetInjectedLatency(double base_us, double us_per_mib) {
  latency_base_us_.store(base_us, std::memory_order_relaxed);
  latency_us_per_mib_.store(us_per_mib, std::memory_order_relaxed);
}

void Communicator::TransferDelay(int64_t bytes) const {
  const double base = latency_base_us_.load(std::memory_order_relaxed);
  const double per_mib = latency_us_per_mib_.load(std::memory_order_relaxed);
  if (base <= 0 && per_mib <= 0) return;
  const double us =
      base + per_mib * (static_cast<double>(bytes) / (1024.0 * 1024.0));
  if (us <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
}

void Communicator::EnsureWorkersStarted() {
  // Lazy spawn keeps communicators thread-free until the first collective —
  // important for gtest death tests, which fork while meshes built in the
  // parent sit idle.
  if (workers_started_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(start_mu_);
  if (workers_.empty()) {
    workers_.reserve(size_);
    for (int r = 0; r < size_; ++r) {
      workers_.emplace_back([this, r] { WorkerLoop(r); });
    }
    workers_started_.store(true, std::memory_order_release);
  }
}

void Communicator::Enqueue(int comm_rank, CommOp op) {
  EnsureWorkersStarted();
  WorkerQueue& q = queues_[comm_rank];
  {
    std::lock_guard<std::mutex> lock(q.mu);
    q.ops.push_back(std::move(op));
  }
  q.cv.notify_one();
}

void Communicator::WorkerLoop(int comm_rank) {
  WorkerQueue& q = queues_[comm_rank];
  for (;;) {
    CommOp op;
    {
      std::unique_lock<std::mutex> lock(q.mu);
      q.cv.wait(lock, [&] { return q.stop || !q.ops.empty(); });
      if (q.ops.empty()) return;  // stop requested and fully drained
      op = std::move(q.ops.front());
      q.ops.pop_front();
    }
    ExecuteOp(comm_rank, op);
  }
}

void Communicator::ExecuteOp(int comm_rank, CommOp& op) {
  // Attribute everything below (trace events, check failures) to the
  // issuing rank, not the worker's native thread.
  RankScope scope(op.trace_rank);
  WorkState& work = *op.work;  // seq, sig and bytes are fixed since issue

  // Scripted faults fire before the op is marked started, so watchdog
  // diagnoses correctly read "never entered".
  if (injector_.armed()) {
    FaultSpec fault;
    if (injector_.Match(comm_rank, work.seq, work.sig.label, work.sig.kind,
                        &fault)) {
      switch (fault.kind) {
        case FaultKind::kDelay: {
          // Straggler: interruptible stall, then the op proceeds normally.
          WorkerQueue& q = queues_[comm_rank];
          std::unique_lock<std::mutex> lock(q.mu);
          q.cv.wait_for(
              lock,
              std::chrono::duration<double, std::micro>(fault.delay_us),
              [&] { return q.stop || aborted(); });
          break;
        }
        case FaultKind::kHang:
        case FaultKind::kCrash: {
          // The rank dies here: publish what it was holding (so the watchdog
          // can name it), then park until abort or shutdown. A crashed
          // rank's queue backs up behind this op — it stops draining.
          const bool hang = fault.kind == FaultKind::kHang;
          {
            std::lock_guard<std::mutex> lock(progress_mu_);
            RankProgress& p = progress_[comm_rank];
            p.cur = op.work;
            p.cur_start_us = MonotonicMicros();
            p.cur_timeout_ms = op.timeout_ms;
            p.health = hang ? RankHealth::kHung : RankHealth::kCrashed;
            p.stuck = op.work;
          }
          WorkerQueue& q = queues_[comm_rank];
          {
            std::unique_lock<std::mutex> lock(q.mu);
            q.cv.wait(lock, [&] { return q.stop || aborted(); });
          }
          Status st = aborted()
                          ? abort_status()
                          : Status::Internal(
                                "communicator shut down while rank " +
                                std::to_string(comm_rank) + " was " +
                                (hang ? "hung" : "crashed") + " at " +
                                work.sig.Render() + " #" +
                                std::to_string(work.seq));
          CompleteOp(comm_rank, op, std::move(st), OpState::kAborted);
          return;
        }
        case FaultKind::kSkip: {
          // Silent SPMD violation: the op "completes" without running. The
          // desync rendezvous (or the watchdog, via the flight recorder)
          // catches the divergence downstream.
          CompleteOp(comm_rank, op, Status::OK(), OpState::kSkipped);
          return;
        }
      }
    }
  }

  if (aborted()) {
    // Error-drain: pending and future ops complete with the abort Status
    // without touching shared collective state.
    Status st = abort_status();
    if (st.ok()) st = Status::Internal("communicator aborted");
    CompleteOp(comm_rank, op, std::move(st), OpState::kAborted);
    return;
  }

  const double start = MonotonicMicros();
  {
    std::lock_guard<std::mutex> lock(work.mu);
    work.start_us = start;
    work.state = OpState::kStarted;
  }
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    RankProgress& p = progress_[comm_rank];
    p.cur = op.work;
    p.cur_start_us = start;
    p.cur_timeout_ms = op.timeout_ms;
  }

  bool ok = true;
  // P2p ops (Send/Recv) skip the all-rank rendezvous: only the two
  // endpoints participate, so a barrier over every rank would deadlock. The
  // watchdog still covers them via the per-rank progress table.
  const bool p2p = work.sig.kind == obs::EventKind::kSend ||
                   work.sig.kind == obs::EventKind::kRecv;
  if (desync_detection_.load(std::memory_order_relaxed) && !p2p) {
    ok = Rendezvous(comm_rank, op.work);
  }
  if (ok) {
    TransferDelay(work.bytes);
    ok = op.body();
  }

  Status st = Status::OK();
  if (!ok) {
    st = abort_status();
    if (st.ok()) st = Status::Internal("collective aborted");
  }
  CompleteOp(comm_rank, op, std::move(st),
             ok ? OpState::kCompleted : OpState::kAborted);
}

bool Communicator::Rendezvous(int comm_rank,
                              std::shared_ptr<const WorkState> work) {
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    sig_slots_[comm_rank] = std::move(work);
  }
  if (!barrier_.Wait() || aborted()) return false;
  // All ranks have published, and no rank can overwrite its slot before
  // every peer finishes checking: every op body contains at least one
  // barrier round, so the earliest a peer can publish its *next* slot is
  // after this op's first body barrier — which cannot complete until this
  // rank arrives there too.
  WatchdogDiagnosis diag;
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    // Majority vote picks the contract: the culprit is the minority, no
    // matter which rank runs the check first. Ties go to the higher seq
    // (the rank that skipped ahead).
    const auto same = [](const WorkState& a, const WorkState& b) {
      return a.seq == b.seq && a.sig == b.sig;
    };
    int best = 0;
    int best_count = -1;
    for (int r = 0; r < size_; ++r) {
      int count = 0;
      for (int k = 0; k < size_; ++k) {
        if (same(*sig_slots_[k], *sig_slots_[r])) ++count;
      }
      if (count > best_count ||
          (count == best_count &&
           sig_slots_[r]->seq < sig_slots_[best]->seq)) {
        best = r;
        best_count = count;
      }
    }
    const WorkState& expected = *sig_slots_[best];
    std::vector<int> agree;
    for (int r = 0; r < size_; ++r) {
      const WorkState& s = *sig_slots_[r];
      if (same(s, expected)) {
        agree.push_back(r);
        diag.expected_next.push_back({r, s.seq, s.sig.Render()});
        continue;
      }
      if (diag.culprit_rank < 0) {
        diag.culprit_rank = r;
        diag.culprit_seq = s.seq;
      }
    }
    if (diag.culprit_rank < 0) return true;  // all slots agree
    const WorkState& culprit = *sig_slots_[diag.culprit_rank];
    const auto [entered, held] = RenderMismatch(culprit.sig, expected.sig);
    diag.desync = true;
    diag.stuck_op = expected.sig.Render();
    diag.reason = "collective desync on '" + name_ + "': rank " +
                  std::to_string(diag.culprit_rank) + " entered " + entered +
                  " #" + std::to_string(culprit.seq) + ", expected " + held +
                  " #" + std::to_string(expected.seq) + " (held by " +
                  RankList(agree) + ")";
  }
  AbortWithDiagnosis(std::move(diag), /*from_watchdog=*/false);
  return false;
}

void Communicator::CompleteOp(int comm_rank, CommOp& op, Status status,
                              OpState final_state) {
  WorkState& work = *op.work;
  const double end = MonotonicMicros();
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    RankProgress& p = progress_[comm_rank];
    p.cur = nullptr;
    p.last_completed_seq = std::max(p.last_completed_seq, work.seq);
    // health is sticky: a hung/crashed rank stays diagnosable after its
    // parked op was error-completed by an abort.
  }
  std::vector<Tensor> keepalive;
  {
    std::lock_guard<std::mutex> lock(work.mu);
    work.complete_us = end;
    work.status = std::move(status);
    // An op that ran gets its comm-lane span from these very stamps, while
    // the state is not yet final: no waiter can wake before the span is in
    // the collector.
    auto& collector = obs::TraceCollector::Get();
    if (work.state == OpState::kStarted && collector.enabled()) {
      obs::TraceEvent e;
      e.rank = op.trace_rank;
      e.kind = work.sig.kind;
      e.unit = work.sig.label;
      e.lane = "comm";
      e.t_begin_us = work.issue_us;
      e.t_exec_us = work.start_us;  // worker pickup: queue delay ends here
      e.t_end_us = work.complete_us;
      e.bytes = work.bytes;
      collector.Record(std::move(e));
    }
    work.state = final_state;
    keepalive = std::move(work.keepalive);
  }
  work.cv.notify_all();
  // Pinned tensors release here, outside the completion lock.
  keepalive.clear();
}

// ---------------------------------------------------------------------------
// Communicator: fault tolerance

void Communicator::SetDefaultTimeout(double timeout_ms) {
  default_timeout_ms_.store(timeout_ms, std::memory_order_relaxed);
}

double Communicator::default_timeout_ms() const {
  return default_timeout_ms_.load(std::memory_order_relaxed);
}

void Communicator::SetDesyncDetection(bool on) {
  desync_detection_.store(on, std::memory_order_relaxed);
}

bool Communicator::desync_detection() const {
  return desync_detection_.load(std::memory_order_relaxed);
}

void Communicator::InjectFault(FaultSpec spec) {
  faults_injected_.store(true, std::memory_order_relaxed);
  injector_.Inject(std::move(spec));
}

void Communicator::RegisterIssue(int comm_rank,
                                 std::shared_ptr<WorkState> work) {
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    work->seq = progress_[comm_rank].next_seq++;
  }
  flight_.Record(comm_rank, std::move(work));
}

bool Communicator::ClaimAbort(Status status, WatchdogDiagnosis* diag) {
  FSDP_CHECK_MSG(!status.ok(), "Abort needs a non-OK status");
  {
    std::lock_guard<std::mutex> lock(abort_mu_);
    if (aborted_.load(std::memory_order_acquire)) return false;
    abort_status_ = std::move(status);
    if (diag) diagnosis_ = std::move(*diag);
    aborted_.store(true, std::memory_order_release);
  }
  Metrics().aborts.Add(1);
  return true;
}

void Communicator::WakeAllAfterAbort() {
  // Wake everything that can be parked: body barriers, fault-parked workers,
  // idle workers (so they error-drain), blocked receivers, and the watchdog.
  barrier_.Abort();
  for (auto& q : queues_) {
    std::lock_guard<std::mutex> lock(q.mu);
    q.cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    for (auto& mb : mailboxes_) {
      if (mb) {
        std::lock_guard<std::mutex> mlock(mb->mu);
        mb->cv.notify_all();
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_cv_.notify_all();
  }
}

Communicator::Mailbox& Communicator::MailboxFor(int src, int dst) {
  std::lock_guard<std::mutex> lock(mailbox_mu_);
  if (mailboxes_.empty()) {
    mailboxes_.resize(static_cast<size_t>(size_) * size_);
  }
  auto& slot = mailboxes_[static_cast<size_t>(src) * size_ + dst];
  if (!slot) slot = std::make_unique<Mailbox>();
  return *slot;
}

void Communicator::PropagateAbort() {
  if (!domain_) return;
  const Status st = abort_status();
  const Status forwarded = Status::Internal(
      "aborted by linked communicator '" + name_ + "': " +
      (st.ok() ? std::string("communicator aborted") : st.message()));
  // One clique: every member is aborted here, none propagates further.
  std::lock_guard<std::mutex> lock(domain_->mu);
  for (Communicator* c : domain_->members) {
    if (c != this && c->ClaimAbort(forwarded, nullptr)) c->WakeAllAfterAbort();
  }
}

bool Communicator::AbortImpl(Status status, WatchdogDiagnosis* diag) {
  if (!ClaimAbort(std::move(status), diag)) return false;
  WakeAllAfterAbort();
  PropagateAbort();
  return true;
}

void Communicator::Abort(Status status) {
  AbortImpl(std::move(status), nullptr);
}

Status Communicator::abort_status() const {
  std::lock_guard<std::mutex> lock(abort_mu_);
  return abort_status_;
}

WatchdogDiagnosis Communicator::last_diagnosis() const {
  std::lock_guard<std::mutex> lock(abort_mu_);
  return diagnosis_;
}

std::vector<int> Communicator::UnhealthyRanks() const {
  std::vector<int> out;
  std::lock_guard<std::mutex> lock(progress_mu_);
  for (int r = 0; r < size_; ++r) {
    if (progress_[static_cast<size_t>(r)].health != RankHealth::kHealthy) {
      out.push_back(r);
    }
  }
  return out;
}

void Communicator::AbortWithDiagnosis(WatchdogDiagnosis diag,
                                      bool from_watchdog) {
  const bool desync = diag.desync;
  Status st = Status::Internal(diag.reason);
  if (!ClaimAbort(std::move(st), &diag)) return;  // a prior abort won
  if (from_watchdog) Metrics().timeouts.Add(1);
  if (desync) Metrics().desyncs.Add(1);
  // Dump before waking: by the time any waiter observes the abort Status,
  // the flight-recorder JSON (and flight_dump_path()) is already on disk.
  DumpFlightRecorder();
  WakeAllAfterAbort();
  PropagateAbort();
}

void Communicator::EnsureWatchdogStarted() {
  if (watchdog_started_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(start_mu_);
  if (!watchdog_.joinable()) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
    watchdog_started_.store(true, std::memory_order_release);
  }
}

void Communicator::WatchdogLoop() {
  constexpr auto kPoll = std::chrono::milliseconds(5);
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, kPoll, [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    if (aborted()) continue;  // nothing left to watch; idle until shutdown
    lock.unlock();
    WatchdogScan();
    lock.lock();
  }
}

void Communicator::WatchdogScan() {
  const double now = MonotonicMicros();
  std::vector<RankProgress> snapshot;
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    snapshot = progress_;
  }
  // The anchor is the stuck op with the smallest sequence number — the
  // earliest point where the stream stopped making progress.
  int anchor = -1;
  double waited_ms = 0;
  for (int r = 0; r < size_; ++r) {
    const RankProgress& p = snapshot[r];
    if (!p.cur || p.cur_timeout_ms <= 0) continue;
    const double waited = (now - p.cur_start_us) / 1000.0;
    if (waited < p.cur_timeout_ms) continue;
    if (anchor < 0 || p.cur->seq < snapshot[anchor].cur->seq) {
      anchor = r;
      waited_ms = waited;
    }
  }
  if (anchor < 0) return;
  AbortWithDiagnosis(Diagnose(snapshot, anchor, waited_ms),
                     /*from_watchdog=*/true);
}

WatchdogDiagnosis Communicator::Diagnose(
    const std::vector<RankProgress>& snapshot, int anchor_rank,
    double waited_ms) const {
  const RankProgress& a = snapshot[anchor_rank];
  const int64_t seq = a.cur->seq;
  const OpSignature& sig = a.cur->sig;

  WatchdogDiagnosis diag;
  diag.culprit_seq = seq;
  diag.stuck_op = sig.Render();

  std::vector<int> blocked;
  for (int r = 0; r < size_; ++r) {
    const RankProgress& p = snapshot[r];
    if (p.cur && p.health == RankHealth::kHealthy && p.cur->seq == seq &&
        p.cur->sig == sig) {
      blocked.push_back(r);
      diag.expected_next.push_back({r, seq, sig.Render()});
    }
  }

  // Culprit candidates, most-specific first. Within a category the lowest
  // rank wins, making the diagnosis deterministic.
  std::string what;
  for (int r = 0; diag.culprit_rank < 0 && r < size_; ++r) {
    const RankProgress& p = snapshot[r];
    if (p.health == RankHealth::kCrashed) {
      diag.culprit_rank = r;
      diag.culprit_seq = p.stuck->seq;
      what = "rank " + std::to_string(r) +
             " crashed (worker stopped draining) at " + p.stuck->sig.Render() +
             " #" + std::to_string(p.stuck->seq);
    } else if (p.health == RankHealth::kHung) {
      diag.culprit_rank = r;
      diag.culprit_seq = p.stuck->seq;
      what = "rank " + std::to_string(r) + " hung and never entered " +
             p.stuck->sig.Render() + " #" + std::to_string(p.stuck->seq);
    }
  }
  for (int r = 0; diag.culprit_rank < 0 && r < size_; ++r) {
    const RankProgress& p = snapshot[r];
    if (p.cur && (p.cur->seq != seq || p.cur->sig != sig)) {
      const auto [in, expected] = RenderMismatch(p.cur->sig, sig);
      diag.culprit_rank = r;
      diag.culprit_seq = p.cur->seq;
      diag.desync = true;
      what = "rank " + std::to_string(r) + " is in " + in + " #" +
             std::to_string(p.cur->seq) + " instead of " + expected + " #" +
             std::to_string(seq);
    }
  }
  for (int r = 0; diag.culprit_rank < 0 && r < size_; ++r) {
    const RankProgress& p = snapshot[r];
    if (p.cur) continue;
    const int64_t last_issued = p.next_seq - 1;
    if (last_issued < seq) {
      // The rank's application thread diverged: it never issued this op.
      diag.culprit_rank = r;
      diag.desync = true;
      what = "rank " + std::to_string(r) + " never issued " + sig.Render() +
             " #" + std::to_string(seq) + " (last issued #" +
             std::to_string(last_issued) + ")";
    } else if (p.last_completed_seq >= seq) {
      // The rank's worker already passed this seq — check how.
      bool skipped = false;
      for (const FlightRecord& rec : flight_.Records(r)) {
        if (rec.seq == seq && rec.state == OpState::kSkipped) skipped = true;
      }
      diag.culprit_rank = r;
      diag.desync = true;
      what = "rank " + std::to_string(r) +
             (skipped ? " skipped " : " already completed ") + sig.Render() +
             " #" + std::to_string(seq) + " and moved on";
    } else {
      // Issued but its worker has not entered it (delayed or backed up).
      diag.culprit_rank = r;
      what = "rank " + std::to_string(r) + " issued " + sig.Render() + " #" +
             std::to_string(seq) +
             " but its worker never entered it (delayed or backed up)";
    }
  }
  if (diag.culprit_rank < 0) {
    what = "no culprit identified (timeout too low or a genuine stall)";
  }

  diag.reason = "collective watchdog on '" + name_ + "': " + what +
                "; " + sig.Render() + " #" + std::to_string(seq) +
                " stuck for " + FormatMs(waited_ms) + " ms > " +
                FormatMs(a.cur_timeout_ms) + " ms";
  if (!blocked.empty()) {
    diag.reason += " (" + RankList(blocked) + " blocked in " + sig.Render() +
                   " #" + std::to_string(seq) + ")";
  }
  return diag;
}

std::string Communicator::FlightRecorderJson() const {
  const Status st = abort_status();
  const WatchdogDiagnosis diag = last_diagnosis();
  obs::JsonWriter w;
  // Shared schema envelope (like PROFILE_/TUNE_ artifacts): every rank of
  // this communicator contributes a ring, and the dump is keyed by the
  // communicator's name as the "preset".
  w.BeginObject();
  obs::WriteArtifactEnvelope(w, obs::ArtifactMeta{size_, size_, name_});
  w.Key("communicator").String(name_).Key("world_size").Int(size_);
  w.Key("aborted").Bool(aborted()).Key("status").String(st.ToString());
  w.Key("diagnosis").BeginObject();
  w.Key("culprit_rank").Int(diag.culprit_rank);
  w.Key("culprit_seq").Int(diag.culprit_seq);
  w.Key("stuck_op").String(diag.stuck_op).Key("desync").Bool(diag.desync);
  w.Key("reason").String(diag.reason).Key("expected_next").BeginArray();
  for (const auto& e : diag.expected_next) {
    w.BeginObject().Key("rank").Int(e.rank).Key("seq").Int(e.seq);
    w.Key("op").String(e.op).EndObject();
  }
  w.EndArray().EndObject().Key("ranks").BeginArray();
  for (int r = 0; r < size_; ++r) {
    w.BeginObject().Key("rank").Int(r).Key("records").BeginArray();
    for (const FlightRecord& rec : flight_.Records(r)) {
      w.BeginObject().Key("seq").Int(rec.seq);
      w.Key("op").String(rec.sig.Render());
      w.Key("bytes").Int(rec.sig.numel * 4);
      w.Key("root").Int(rec.sig.root);
      w.Key("state").String(OpStateName(rec.state));
      w.Key("issue_us").Double(rec.issue_us);
      w.Key("start_us").Double(rec.start_us);
      w.Key("complete_us").Double(rec.complete_us).EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

std::string Communicator::DumpFlightRecorder(const std::string& path) {
  const std::string target =
      path.empty() ? obs::ArtifactPath("FLIGHT_" + name_ + ".json") : path;
  std::ofstream out(target);
  if (out) out << FlightRecorderJson() << "\n";
  {
    std::lock_guard<std::mutex> lock(abort_mu_);
    flight_dump_path_ = target;
  }
  return target;
}

std::string Communicator::flight_dump_path() const {
  std::lock_guard<std::mutex> lock(abort_mu_);
  return flight_dump_path_;
}

// ---------------------------------------------------------------------------
// ProcessGroup

ProcessGroup::ProcessGroup(std::shared_ptr<Communicator> comm, int rank)
    : comm_(std::move(comm)), rank_(rank) {
  FSDP_CHECK_MSG(rank_ >= 0 && rank_ < comm_->size(),
                 "rank " << rank_ << " out of range");
}

Work ProcessGroup::Issue(obs::EventKind kind, const CollectiveOptions& opts,
                         const char* default_label, int64_t numel,
                         int64_t wire_bytes, std::function<bool()> body,
                         int root) {
  CountTraffic(comm_->rank_stats_[rank_], kind, wire_bytes);
  auto state = std::make_shared<WorkState>();
  // Fixed before the state is shared; the ring and queue mutexes publish
  // them to readers and the worker.
  state->sig = OpSignature{kind, opts.tag.empty() ? default_label : opts.tag,
                           numel, root};
  state->issue_us = MonotonicMicros();
  state->bytes = wire_bytes;
  comm_->RegisterIssue(rank_, state);
  Communicator::CommOp op;
  op.body = std::move(body);
  op.work = state;
  op.trace_rank = CurrentRank() >= 0 ? CurrentRank() : rank_;
  op.timeout_ms =
      opts.timeout_ms > 0 ? opts.timeout_ms : comm_->default_timeout_ms();
  if (op.timeout_ms > 0) comm_->EnsureWatchdogStarted();
  comm_->Enqueue(rank_, std::move(op));
  Work w(std::move(state));
  if (!opts.async) w.Wait();
  return w;
}

Work ProcessGroup::Pin(Work work, std::vector<Tensor> operands) {
  if (const auto& s = work.state_) {
    std::lock_guard<std::mutex> lock(s->mu);
    if (!s->done()) s->keepalive = std::move(operands);
  }
  return work;
}

// -- raw bodies (comm-worker threads only) ----------------------------------

bool ProcessGroup::RunAllGatherBase(Communicator* c, int rank, float* dst,
                                    const float* src,
                                    int64_t numel_per_rank) {
  const int w = c->size_;
  c->src_slots_[rank] = src;
  if (!c->BodySync()) return false;
  for (int k = 0; k < w; ++k) {
    std::memcpy(dst + static_cast<int64_t>(k) * numel_per_rank,
                c->src_slots_[k],
                static_cast<size_t>(numel_per_rank) * 4);
  }
  // Nobody may free src until all copies are done.
  return c->BodySync();
}

bool ProcessGroup::RunReduceScatter(Communicator* c, int rank, float* dst,
                                    const float* src, int64_t numel_per_rank,
                                    ReduceOp op, DType comm_dtype) {
  c->src_slots_[rank] = src;
  if (!c->BodySync()) return false;
  ReduceSlots(c->src_slots_, static_cast<int64_t>(rank) * numel_per_rank,
              numel_per_rank, op, comm_dtype, dst);
  return c->BodySync();
}

bool ProcessGroup::RunAllReduce(Communicator* c, int rank, float* buf,
                                int64_t numel, ReduceOp op,
                                DType comm_dtype) {
  const int w = c->size_;
  c->src_slots_[rank] = buf;
  // One rank resizes the shared scratch; guarded by a barrier on both sides.
  if (!c->BodySync()) return false;
  {
    std::lock_guard<std::mutex> lock(c->scratch_mu_);
    if (static_cast<int64_t>(c->scratch_.size()) < numel) {
      c->scratch_.resize(static_cast<size_t>(numel));
    }
  }
  if (!c->BodySync()) return false;
  // Each rank reduces its own chunk into scratch (disjoint writes).
  const int64_t chunk = (numel + w - 1) / w;
  const int64_t lo = std::min<int64_t>(rank * chunk, numel);
  const int64_t hi = std::min<int64_t>(lo + chunk, numel);
  ReduceSlots(c->src_slots_, lo, hi - lo, op, comm_dtype,
              c->scratch_.data() + lo);
  if (!c->BodySync()) return false;
  std::memcpy(buf, c->scratch_.data(), static_cast<size_t>(numel) * 4);
  return c->BodySync();
}

bool ProcessGroup::RunBroadcast(Communicator* c, int rank, float* buf,
                                int64_t numel, int root) {
  c->src_slots_[rank] = buf;
  if (!c->BodySync()) return false;
  if (rank != root) {
    std::memcpy(buf, c->src_slots_[root], static_cast<size_t>(numel) * 4);
  }
  return c->BodySync();
}

bool ProcessGroup::RunAllToAll(Communicator* c, int rank, float* dst,
                               const float* src, int64_t chunk_numel) {
  const int w = c->size_;
  c->src_slots_[rank] = src;
  if (!c->BodySync()) return false;
  for (int k = 0; k < w; ++k) {
    // Chunk `rank` of rank k's source lands in slot k of our destination.
    std::memcpy(dst + static_cast<int64_t>(k) * chunk_numel,
                c->src_slots_[k] + static_cast<int64_t>(rank) * chunk_numel,
                static_cast<size_t>(chunk_numel) * 4);
  }
  return c->BodySync();
}

bool ProcessGroup::RunSend(Communicator* c, int rank, const float* src,
                           int64_t numel, int dst_rank) {
  if (c->aborted()) return false;
  Communicator::Mailbox& mb = c->MailboxFor(rank, dst_rank);
  std::vector<float> payload(src, src + numel);
  {
    std::lock_guard<std::mutex> lock(mb.mu);
    mb.msgs.push_back(std::move(payload));
  }
  mb.cv.notify_all();
  return true;
}

bool ProcessGroup::RunRecv(Communicator* c, int rank, float* dst,
                           int64_t numel, int src_rank) {
  Communicator::Mailbox& mb = c->MailboxFor(src_rank, rank);
  std::unique_lock<std::mutex> lock(mb.mu);
  mb.cv.wait(lock, [&] { return !mb.msgs.empty() || c->aborted(); });
  if (mb.msgs.empty()) return false;  // woken by abort, nothing delivered
  std::vector<float> payload = std::move(mb.msgs.front());
  mb.msgs.pop_front();
  lock.unlock();
  FSDP_CHECK_MSG(static_cast<int64_t>(payload.size()) == numel,
                 "recv of " << numel << " elements from rank " << src_rank
                            << " matched a send of " << payload.size());
  std::memcpy(dst, payload.data(), static_cast<size_t>(numel) * 4);
  return true;
}

// -- collectives ------------------------------------------------------------

Work ProcessGroup::AllGatherBase(float* dst, const float* src,
                                 int64_t numel_per_rank,
                                 const CollectiveOptions& opts) {
  Communicator* c = comm_.get();
  const int rank = rank_;
  return Issue(obs::EventKind::kAllGather, opts, "allgather_base",
               numel_per_rank, (size() - 1) * numel_per_rank * 4,
               [c, rank, dst, src, numel_per_rank] {
                 return RunAllGatherBase(c, rank, dst, src, numel_per_rank);
               });
}

Work ProcessGroup::ReduceScatter(float* dst, const float* src,
                                 int64_t numel_per_rank,
                                 const CollectiveOptions& opts) {
  Communicator* c = comm_.get();
  const int rank = rank_;
  const ReduceOp op = opts.op;
  const DType dt = opts.comm_dtype;
  return Issue(obs::EventKind::kReduceScatter, opts, "reduce_scatter",
               numel_per_rank, (size() - 1) * numel_per_rank * 4,
               [c, rank, dst, src, numel_per_rank, op, dt] {
                 return RunReduceScatter(c, rank, dst, src, numel_per_rank,
                                         op, dt);
               });
}

Work ProcessGroup::AllReduce(float* buf, int64_t numel,
                             const CollectiveOptions& opts) {
  const int w = size();
  Communicator* c = comm_.get();
  const int rank = rank_;
  const ReduceOp op = opts.op;
  const DType dt = opts.comm_dtype;
  // Ring all-reduce moves 2*(w-1)/w of the buffer per rank.
  return Issue(obs::EventKind::kAllReduce, opts, "all_reduce", numel,
               2 * (w - 1) * numel * 4 / w,
               [c, rank, buf, numel, op, dt] {
                 return RunAllReduce(c, rank, buf, numel, op, dt);
               });
}

Work ProcessGroup::Broadcast(float* buf, int64_t numel, int root,
                             const CollectiveOptions& opts) {
  Communicator* c = comm_.get();
  const int rank = rank_;
  return Issue(obs::EventKind::kBroadcast, opts, "broadcast", numel,
               rank_ == root ? 0 : numel * 4,
               [c, rank, buf, numel, root] {
                 return RunBroadcast(c, rank, buf, numel, root);
               },
               root);
}

Work ProcessGroup::AllToAll(float* dst, const float* src, int64_t chunk_numel,
                            const CollectiveOptions& opts) {
  Communicator* c = comm_.get();
  const int rank = rank_;
  return Issue(obs::EventKind::kAllToAll, opts, "all_to_all", chunk_numel,
               (size() - 1) * chunk_numel * 4,
               [c, rank, dst, src, chunk_numel] {
                 return RunAllToAll(c, rank, dst, src, chunk_numel);
               });
}

Work ProcessGroup::Send(const float* src, int64_t numel, int dst_rank,
                        const CollectiveOptions& opts) {
  FSDP_CHECK_MSG(dst_rank >= 0 && dst_rank < size() && dst_rank != rank_,
                 "send peer " << dst_rank << " out of range for size "
                              << size() << " (self-send not supported)");
  Communicator* c = comm_.get();
  const int r = rank_;
  return Issue(obs::EventKind::kSend, opts, "send", numel, numel * 4,
               [c, r, src, numel, dst_rank] {
                 return RunSend(c, r, src, numel, dst_rank);
               },
               dst_rank);
}

Work ProcessGroup::Recv(float* dst, int64_t numel, int src_rank,
                        const CollectiveOptions& opts) {
  FSDP_CHECK_MSG(src_rank >= 0 && src_rank < size() && src_rank != rank_,
                 "recv peer " << src_rank << " out of range for size "
                              << size() << " (self-recv not supported)");
  Communicator* c = comm_.get();
  const int r = rank_;
  return Issue(obs::EventKind::kRecv, opts, "recv", numel, numel * 4,
               [c, r, dst, numel, src_rank] {
                 return RunRecv(c, r, dst, numel, src_rank);
               },
               src_rank);
}

Work ProcessGroup::Barrier(const CollectiveOptions& opts) {
  Communicator* c = comm_.get();
  return Issue(obs::EventKind::kBarrier, opts, "barrier", 0, 0,
               [c] { return c->BodySync(); });
}

// -- tensor conveniences ----------------------------------------------------

Work ProcessGroup::AllGatherBase(Tensor dst, const Tensor& src,
                                 const CollectiveOptions& opts) {
  FSDP_CHECK_MSG(dst.numel() == src.numel() * size(),
                 "AllGatherBase: dst numel " << dst.numel() << " != "
                                             << src.numel() << " * "
                                             << size());
  return Pin(AllGatherBase(dst.data(), src.data(), src.numel(), opts),
             {dst, src});
}

Work ProcessGroup::ReduceScatter(Tensor dst, const Tensor& src,
                                 const CollectiveOptions& opts) {
  FSDP_CHECK_MSG(src.numel() == dst.numel() * size(),
                 "ReduceScatter: src numel " << src.numel() << " != "
                                             << dst.numel() << " * "
                                             << size());
  return Pin(ReduceScatter(dst.data(), src.data(), dst.numel(), opts),
             {dst, src});
}

Work ProcessGroup::AllReduce(Tensor buf, const CollectiveOptions& opts) {
  return Pin(AllReduce(buf.data(), buf.numel(), opts), {buf});
}

Work ProcessGroup::Broadcast(Tensor buf, int root,
                             const CollectiveOptions& opts) {
  return Pin(Broadcast(buf.data(), buf.numel(), root, opts), {buf});
}

Work ProcessGroup::Send(const Tensor& src, int dst_rank,
                        const CollectiveOptions& opts) {
  return Pin(Send(src.data(), src.numel(), dst_rank, opts), {src});
}

Work ProcessGroup::Recv(Tensor dst, int src_rank,
                        const CollectiveOptions& opts) {
  return Pin(Recv(dst.data(), dst.numel(), src_rank, opts), {dst});
}

// ---------------------------------------------------------------------------
// DeviceMesh

namespace {

/// The FSDP mesh shape: F consecutive ranks shard, W/F ranks replicate.
std::vector<MeshAxis> FsdpAxes(int world_size, int sharding_factor) {
  return {{"replicate", world_size / sharding_factor},
          {"shard", sharding_factor}};
}

/// Why ShardGroup/ReplicateGroup/sharding_factor reject a mesh.
constexpr char kNotAnFsdpMesh[] =
    "; FSDP needs the 'replicate' and 'shard' axes of DeviceMesh(W, F): use "
    "FsdpSubmesh to build them over one axis of a composed mesh";

}  // namespace

DeviceMesh::DeviceMesh(int world_size, int sharding_factor) {
  FSDP_CHECK_MSG(sharding_factor >= 1 && sharding_factor <= world_size,
                 "sharding factor " << sharding_factor << " out of [1, "
                                    << world_size << "]");
  FSDP_CHECK_MSG(world_size % sharding_factor == 0,
                 "sharding factor must divide world size");
  Build(world_size, FsdpAxes(world_size, sharding_factor), nullptr, "");
}

Status DeviceMesh::Create(int world_size, std::vector<MeshAxis> axes,
                          std::shared_ptr<DeviceMesh>* out) {
  if (world_size <= 0) {
    return Status::Invalid("mesh world size must be positive, got " +
                           std::to_string(world_size));
  }
  if (axes.empty()) return Status::Invalid("mesh needs at least one axis");
  int64_t prod = 1;
  for (size_t i = 0; i < axes.size(); ++i) {
    if (axes[i].name.empty()) {
      return Status::Invalid("mesh axis " + std::to_string(i) +
                             " has an empty name");
    }
    if (axes[i].size <= 0) {
      return Status::Invalid("mesh axis '" + axes[i].name +
                             "' has non-positive size " +
                             std::to_string(axes[i].size));
    }
    for (size_t j = 0; j < i; ++j) {
      if (axes[j].name == axes[i].name) {
        return Status::Invalid("duplicate mesh axis name '" + axes[i].name +
                               "'");
      }
    }
    prod *= axes[i].size;
  }
  if (prod != world_size) {
    return Status::Invalid(
        "axis sizes multiply to " + std::to_string(prod) +
        ", which does not divide up world size " + std::to_string(world_size));
  }
  auto mesh = std::shared_ptr<DeviceMesh>(new DeviceMesh());
  mesh->Build(world_size, std::move(axes), nullptr, "");
  *out = std::move(mesh);
  return Status::OK();
}

void DeviceMesh::Build(int world_size, std::vector<MeshAxis> axes,
                       std::shared_ptr<Communicator> world,
                       const std::string& prefix) {
  world_size_ = world_size;
  axes_ = std::move(axes);
  // Born in the mesh's domain with the mesh's settings: no communicator of
  // a mesh ever runs a collective outside either.
  auto make = [&](int size, std::string name) {
    auto comm = std::make_shared<Communicator>(size, domain_);
    comm->SetName(std::move(name));
    comm->SetInjectedLatency(settings_.latency_base_us,
                             settings_.latency_us_per_mib);
    comm->SetDefaultTimeout(settings_.timeout_ms);
    comm->SetDesyncDetection(settings_.desync);
    comm->SetTrainStep(settings_.train_step);
    all_comms_.push_back(comm);
    return comm;
  };
  if (world) {
    all_comms_.push_back(world);
    world_ = std::move(world);
  } else {
    world_ = make(world_size, "world");
  }
  axis_groups_.resize(axes_.size());
  for (size_t a = 0; a < axes_.size(); ++a) {
    for (int g = 0; g < world_size / axes_[a].size; ++g) {
      axis_groups_[a].push_back(
          make(axes_[a].size, prefix + axes_[a].name + std::to_string(g)));
    }
  }
}

Status DeviceMesh::AxisIndex(const std::string& name, int* out) const {
  for (size_t a = 0; a < axes_.size(); ++a) {
    if (axes_[a].name == name) {
      *out = static_cast<int>(a);
      return Status::OK();
    }
  }
  std::string known;
  for (const MeshAxis& ax : axes_) {
    if (!known.empty()) known += ", ";
    known += ax.name;
  }
  return Status::Invalid("unknown mesh axis '" + name + "' (axes: " + known +
                         ")");
}

int DeviceMesh::AxisStride(int a) const {
  int stride = 1;
  for (size_t k = a + 1; k < axes_.size(); ++k) stride *= axes_[k].size;
  return stride;
}

int DeviceMesh::GroupIndex(int a, int rank) const {
  const int stride = AxisStride(a);
  return (rank / (stride * axes_[a].size)) * stride + rank % stride;
}

Status DeviceMesh::Coordinate(const std::string& axis, int rank,
                              int* out) const {
  int a = -1;
  Status st = AxisIndex(axis, &a);
  if (!st.ok()) return st;
  if (rank < 0 || rank >= world_size_) {
    return Status::Invalid("rank " + std::to_string(rank) +
                           " out of range for world size " +
                           std::to_string(world_size_));
  }
  *out = (rank / AxisStride(a)) % axes_[a].size;
  return Status::OK();
}

Status DeviceMesh::AxisSize(const std::string& axis, int* out) const {
  int a = -1;
  Status st = AxisIndex(axis, &a);
  if (!st.ok()) return st;
  *out = axes_[a].size;
  return Status::OK();
}

Status DeviceMesh::Slice(const std::string& axis, int rank,
                         ProcessGroup* out) {
  int a = -1;
  Status st = AxisIndex(axis, &a);
  if (!st.ok()) return st;
  if (rank < 0 || rank >= world_size_) {
    return Status::Invalid("rank " + std::to_string(rank) +
                           " out of range for world size " +
                           std::to_string(world_size_));
  }
  const int coord = (rank / AxisStride(a)) % axes_[a].size;
  *out = ProcessGroup(axis_groups_[a][GroupIndex(a, rank)], coord);
  return Status::OK();
}

Status DeviceMesh::FsdpSubmesh(const std::string& axis, int rank,
                               int sharding_factor,
                               std::shared_ptr<DeviceMesh>* out) {
  int a = -1;
  Status st = AxisIndex(axis, &a);
  if (!st.ok()) return st;
  if (rank < 0 || rank >= world_size_) {
    return Status::Invalid("rank " + std::to_string(rank) +
                           " out of range for world size " +
                           std::to_string(world_size_));
  }
  const int asize = axes_[a].size;
  if (sharding_factor < 1 || asize % sharding_factor != 0) {
    return Status::Invalid("sharding factor " +
                           std::to_string(sharding_factor) +
                           " does not divide axis '" + axis + "' of size " +
                           std::to_string(asize));
  }
  const int group = GroupIndex(a, rank);
  std::lock_guard<std::mutex> lock(mu_);
  const std::array<int, 3> key = {a, group, sharding_factor};
  for (auto& entry : submeshes_) {
    if (entry.first == key) {
      *out = entry.second;
      return Status::OK();
    }
  }
  auto sub = std::shared_ptr<DeviceMesh>(new DeviceMesh());
  sub->domain_ = domain_;
  sub->settings_ = settings_;
  // The submesh's world IS the axis slice: FullyShard's collectives run on
  // the same comm workers (and the same abort domain) as Slice(axis).
  sub->Build(asize, FsdpAxes(asize, sharding_factor), axis_groups_[a][group],
             axes_[a].name + std::to_string(group) + ".");
  for (const auto& groups : sub->axis_groups_) {
    all_comms_.insert(all_comms_.end(), groups.begin(), groups.end());
  }
  submeshes_.emplace_back(key, sub);
  *out = std::move(sub);
  return Status::OK();
}

ProcessGroup DeviceMesh::WorldGroup(int rank) {
  return ProcessGroup(world_, rank);
}

int DeviceMesh::FsdpAxis(const std::string& name) const {
  int a = -1;
  const Status st = AxisIndex(name, &a);
  FSDP_CHECK_MSG(st.ok(), st.message() << kNotAnFsdpMesh);
  return a;
}

ProcessGroup DeviceMesh::FsdpSlice(const std::string& axis, int rank) {
  FsdpAxis(axis);  // a mesh without `axis` aborts with the FsdpSubmesh hint
  ProcessGroup pg;
  Slice(axis, rank, &pg).Check();
  return pg;
}

int DeviceMesh::sharding_factor() const {
  return axes_[FsdpAxis("shard")].size;
}

ProcessGroup DeviceMesh::ShardGroup(int rank) {
  return FsdpSlice("shard", rank);
}

ProcessGroup DeviceMesh::ReplicateGroup(int rank) {
  return FsdpSlice("replicate", rank);
}

void DeviceMesh::SetInjectedLatency(double base_us, double us_per_mib) {
  std::lock_guard<std::mutex> lock(mu_);
  settings_.latency_base_us = base_us;
  settings_.latency_us_per_mib = us_per_mib;
  for (auto& c : all_comms_) c->SetInjectedLatency(base_us, us_per_mib);
}

void DeviceMesh::SetDefaultTimeout(double timeout_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  settings_.timeout_ms = timeout_ms;
  for (auto& c : all_comms_) c->SetDefaultTimeout(timeout_ms);
}

void DeviceMesh::SetDesyncDetection(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  settings_.desync = on;
  for (auto& c : all_comms_) c->SetDesyncDetection(on);
}

void DeviceMesh::SetTrainStep(int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  settings_.train_step = step;
  for (auto& c : all_comms_) c->SetTrainStep(step);
}

}  // namespace fsdp::comm
