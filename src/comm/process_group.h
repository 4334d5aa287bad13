// Asynchronous thread-per-rank process groups and collectives.
//
// Substitutes for torch.distributed ProcessGroupNCCL in the functional layer:
// W ranks are W OS threads in one process, and collectives move data through
// shared memory under sense-reversing barriers. Semantics mirror NCCL where
// the paper depends on them:
//  * all_gather_base / reduce_scatter require *even* per-rank input sizes and
//    contiguous single-tensor outputs — the efficient path FSDP's
//    FlatParameter layout is designed to hit with zero copies (Sec 3.2.1).
//    It is the only AllGather here: the list-output and uneven variants of
//    Fig 2(a) are modelled by sim::CollectiveModel.
//  * Reductions run in deterministic rank order, and can optionally quantize
//    through a reduced-precision dtype to emulate low-precision collectives
//    (Sec 4.4 "permits running all collectives in the low precision").
//
// Execution model (the "NCCL stream" analogue): every rank of a Communicator
// owns a dedicated *comm-worker thread*. A collective call never runs the
// data movement on the calling rank thread — it enqueues the operation onto
// the rank's worker queue and receives a Work completion handle. Per-rank
// queues are FIFO, so collectives execute in issue order (the single
// in-order communication stream of paper Sec 3.3.2); matching across ranks
// is the standard SPMD contract (every rank issues the same collectives in
// the same order). With CollectiveOptions::async = false (the default) the
// call waits for completion before returning — the classic synchronous
// behaviour. With async = true the caller keeps computing and calls
// Work::Wait() at first use of the result, which is what lets FSDP overlap
// AllGathers with forward/backward compute on the real substrate.
//
// Communicator::SetInjectedLatency emulates interconnect transfer time: the
// workers stall inside the collective for base + per-MiB * payload. Rank
// threads are unaffected, so the overlap benches/traces show genuine
// comm/compute concurrency in wall-clock time.
//
// Each op has one record, its WorkState (comm/fault.h): a per-rank dense
// *sequence number*, an OpSignature (kind, label, numel, root), its wire
// bytes, its lifecycle state and the issue/start/complete stamps. The Work
// handle, the per-rank FlightRecorder ring (the last 64 ops), the comm-lane
// trace span and the plan::ExecLog timings all read that one record. The
// only traffic counters are the per-rank CommStats, bumped at issue time on
// the calling thread in ProcessGroup::Issue; the metrics registry counts
// only comm.{timeouts,desyncs,aborts}.
//
// Fault tolerance (ProcessGroupNCCL watchdog / flight-recorder analogue):
// three opt-in layers harden the SPMD contract:
//
//   * desync detection (SetDesyncDetection): workers rendezvous before each
//     op body and cross-check signatures — a skipped/reordered/mismatched
//     collective aborts immediately with a culprit diagnosis instead of
//     corrupting memory or deadlocking;
//   * watchdog (CollectiveOptions::timeout_ms or SetDefaultTimeout): a
//     per-communicator thread detects collectives stuck past their timeout,
//     diagnoses the culprit rank from the per-rank progress table ("rank 2
//     never entered RS:layer3 #17"), dumps the flight recorder as JSON via
//     obs::ArtifactPath, and aborts;
//   * graceful abort (Abort): poisons the shared barrier and all queues,
//     wakes every waiter; pending and future Work completes with the abort
//     Status (Work::WaitStatus / WaitFor), so callers degrade instead of
//     hanging — FSDP/DDP propagate the error out of the train step.
//
// InjectFault scripts deterministic failures (hang / delay / crashed rank /
// skipped collective) keyed by (rank, seq | tag) for tests and benches.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault.h"
#include "common/status.h"
#include "common/threading.h"
#include "obs/trace.h"
#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace fsdp::comm {

enum class ReduceOp { kSum, kAvg, kMax };

/// Uniform knobs for every collective (PyTorch c10d opts analogue). All
/// ProcessGroup entry points, DDP, and FSDP call sites take this one struct
/// instead of repeating `(ReduceOp op, DType comm_dtype, ...)` tails.
struct CollectiveOptions {
  /// Reduction operator (ReduceScatter / AllReduce only).
  ReduceOp op = ReduceOp::kSum;
  /// != kF32 quantizes every partial sum through that dtype, emulating a
  /// low-precision collective (reductions only).
  DType comm_dtype = DType::kF32;
  /// false: the call blocks until the collective completed (classic
  /// synchronous behaviour). true: the call returns immediately after
  /// enqueuing onto the comm worker; the caller must Wait() the returned
  /// Work before reading results (or freeing inputs).
  bool async = false;
  /// Label for the exported trace span (defaults to the collective name).
  /// FSDP passes the unit name so comm-lane spans identify their unit.
  std::string tag;
  /// Watchdog deadline for this collective in milliseconds. 0 falls back to
  /// the communicator default (Communicator::SetDefaultTimeout); if that is
  /// also 0 the op is never timed out.
  double timeout_ms = 0;
};

/// Completion handle (PyTorch c10d Work analogue). A real handle: the
/// collective runs on the comm-worker threads, and Wait() blocks the calling
/// thread until every participating worker finished the data movement.
/// Default-constructed handles are trivially complete.
class Work {
 public:
  Work() = default;

  /// Blocks until the collective completed. No-op if already complete (or
  /// for a default-constructed handle). May be called multiple times and
  /// from any thread.
  void Wait() const;
  /// Blocks like Wait() and returns the completion Status: OK on success,
  /// the abort Status if the communicator aborted (watchdog timeout, desync,
  /// explicit Abort) while this op was pending.
  Status WaitStatus() const;
  /// Bounded wait: blocks up to `timeout_ms`, then returns kInternal if the
  /// collective is still pending (the op keeps running — this does not abort
  /// the communicator). Otherwise returns the completion Status.
  Status WaitFor(double timeout_ms) const;
  /// Non-blocking completion probe.
  bool Completed() const;
  /// Per-rank collective sequence number (-1 for default-constructed).
  int64_t seq() const;

  /// Completion timestamps (MonotonicMicros domain) for observability:
  /// issue (enqueue), execution start on the worker, and completion. Zero
  /// for default-constructed handles.
  double issue_us() const;
  double start_us() const;
  double complete_us() const;
  /// Bytes this rank moves on the wire (0 for default-constructed).
  int64_t bytes() const;

 private:
  friend class ProcessGroup;
  explicit Work(std::shared_ptr<WorkState> state) : state_(std::move(state)) {}
  std::shared_ptr<WorkState> state_;
};

/// Byte/op counters for one rank (reset-able).
struct CommStats {
  int64_t allgather_ops = 0;
  int64_t allgather_bytes = 0;  // bytes received from peers
  int64_t reducescatter_ops = 0;
  int64_t reducescatter_bytes = 0;
  int64_t allreduce_ops = 0;
  int64_t allreduce_bytes = 0;
  int64_t broadcast_ops = 0;
  int64_t broadcast_bytes = 0;
  int64_t send_ops = 0;
  int64_t send_bytes = 0;
  int64_t recv_ops = 0;
  int64_t recv_bytes = 0;
};

/// What the watchdog (or the desync rendezvous) concluded when it aborted a
/// communicator: who broke the SPMD contract, where in the stream, and what
/// the healthy ranks were waiting to run. Embedded in the abort Status
/// message and in the flight-recorder JSON dump.
struct WatchdogDiagnosis {
  int culprit_rank = -1;
  int64_t culprit_seq = -1;
  std::string stuck_op;  // rendered signature of the stuck collective
  std::string reason;    // full human-readable diagnosis
  bool desync = false;   // contract violation vs. plain timeout
  struct Expected {
    int rank = -1;
    int64_t seq = -1;
    std::string op;  // rendered signature this rank is blocked in
  };
  /// The rendezvous point of the healthy ranks — what the culprit was
  /// expected to enter next.
  std::vector<Expected> expected_next;
};

class Communicator;

/// The communicators that abort together: a mesh's failure domain. It holds
/// no strong references: members leave at the start of their destructor and
/// propagation runs under `mu`, so no member dies while being aborted, and
/// no thread a communicator owns (watchdog, worker) can ever end up running
/// that communicator's destructor.
struct AbortDomain {
  std::mutex mu;
  std::vector<Communicator*> members;  // guarded by mu
};

/// Shared state of one communicator (one "NCCL communicator"): the per-rank
/// comm-worker threads and queues, plus barriers and pointer-exchange slots
/// for the fixed set of participants. Workers spawn lazily on the first
/// collective and are joined in the destructor (after draining the queues,
/// so fire-and-forget async work still completes).
class Communicator {
 public:
  /// A communicator of `size` ranks. With a `domain` it is a member of that
  /// failure domain for its whole life: when any member aborts (watchdog,
  /// desync, explicit Abort), every other member is aborted after the local
  /// waiters are woken. DeviceMesh creates every communicator of a mesh in
  /// the mesh's one domain, so a timeout on one group (a TP AllReduce on
  /// `tp0`, a ReduceScatter on `shard1`) tears down the siblings instead of
  /// leaving them deadlocked mid-step.
  explicit Communicator(int size,
                        std::shared_ptr<AbortDomain> domain = nullptr);
  ~Communicator();

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int size() const { return size_; }

  /// Emulated interconnect transfer time, applied inside every collective on
  /// the worker threads: base_us + us_per_mib * (payload MiB). Zero (the
  /// default) disables. Set before issuing collectives that should stall;
  /// benches/tests use this to make comm/compute overlap observable in
  /// wall-clock time.
  void SetInjectedLatency(double base_us, double us_per_mib = 0);

  // --- Fault tolerance -----------------------------------------------------

  /// Display name used in diagnoses and the flight-recorder dump filename
  /// ("world", "shard0", ...). Set before issuing collectives.
  void SetName(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  /// Default watchdog timeout for ops without CollectiveOptions::timeout_ms.
  /// Non-zero arms the watchdog thread. 0 (the default) times out nothing.
  void SetDefaultTimeout(double timeout_ms);
  double default_timeout_ms() const;

  /// Enables the pre-op signature rendezvous: workers cross-check (seq,
  /// OpSignature) before every collective body and abort on mismatch. Off by
  /// default (it adds one barrier round per op); the fault-overhead bench
  /// measures both layers separately.
  void SetDesyncDetection(bool on);
  bool desync_detection() const;

  /// Scripts a fault (see comm/fault.h) and arms the watchdog if a default
  /// timeout is set. The destructor aborts a faulted communicator that was
  /// never aborted, so parked workers always get released.
  void InjectFault(FaultSpec spec);

  /// Publishes the current training step to the fault injector so
  /// step-keyed FaultSpecs (`spec.step >= 0`) can fire; call at each step
  /// boundary (DeviceMesh::SetTrainStep forwards to every communicator).
  void SetTrainStep(int64_t step) { injector_.set_train_step(step); }

  /// Poisons the communicator: the shared barrier and all worker queues are
  /// aborted, every parked worker and every Work waiter wakes, and all
  /// pending + future ops complete with `status`. First abort wins;
  /// subsequent calls are no-ops. Safe from any thread (watchdog, worker,
  /// rank thread).
  void Abort(Status status);
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  /// The first abort's Status (OK if never aborted).
  Status abort_status() const;
  /// Diagnosis of the watchdog/desync abort (default-constructed for manual
  /// Abort() calls or when never aborted).
  WatchdogDiagnosis last_diagnosis() const;

  /// Communicator-local ranks whose worker is known dead: hung or crashed
  /// (scripted fault fired, or so diagnosed by the watchdog). The watchdog
  /// diagnosis names ONE culprit; this is the full progress-table view the
  /// elastic runtime uses to size the survivor set when several ranks died
  /// in the same step.
  std::vector<int> UnhealthyRanks() const;

  const FlightRecorder& flight_recorder() const { return flight_; }
  /// Flight-recorder records of all ranks (+ diagnosis when aborted) as a
  /// JSON document — the ProcessGroupNCCL "flight recorder dump" analogue.
  std::string FlightRecorderJson() const;
  /// Writes FlightRecorderJson() to `path`, or to
  /// obs::ArtifactPath("FLIGHT_<name>.json") when empty. Returns the path
  /// written (also retrievable via flight_dump_path()).
  std::string DumpFlightRecorder(const std::string& path = "");
  /// Path of the most recent dump ("" if none). The watchdog dumps
  /// automatically before aborting.
  std::string flight_dump_path() const;

 private:
  friend class ProcessGroup;

  /// One enqueued collective for one rank's worker.
  struct CommOp {
    /// The rank's share of the collective; returns false when it bailed out
    /// on a communicator abort (the op then completes with the abort Status).
    std::function<bool()> body;
    std::shared_ptr<WorkState> work;  // the op's seq, signature and bytes
    int trace_rank = 0;               // issuer's global rank (attribution)
    double timeout_ms = 0;            // effective watchdog deadline (0 = off)
  };

  /// Point-to-point message channel for one (src, dst) rank pair, created
  /// lazily on first use. Senders deposit copies; receivers block until a
  /// message (or an abort) arrives. FIFO per pair, matching NCCL's
  /// same-order p2p contract.
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::vector<float>> msgs;
  };

  struct WorkerQueue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<CommOp> ops;
    bool stop = false;
  };

  enum class RankHealth : int { kHealthy = 0, kHung, kCrashed };

  /// Watchdog's view of one rank's worker; updated under progress_mu_ at
  /// issue, op entry and op completion. Ops are referenced, not copied: a
  /// WorkState's seq and signature never change once it is shared.
  struct RankProgress {
    int64_t next_seq = 0;  // issue-side counter; next_seq - 1 = last issued
    int64_t last_completed_seq = -1;
    /// The op the worker is in (null between ops), since when, and its
    /// deadline.
    std::shared_ptr<const WorkState> cur;
    double cur_start_us = 0;
    double cur_timeout_ms = 0;
    RankHealth health = RankHealth::kHealthy;
    std::shared_ptr<const WorkState> stuck;  // op a hung/crashed worker got
  };

  void EnsureWorkersStarted();
  void WorkerLoop(int comm_rank);
  /// Runs one op on its worker: fault check, start stamp and progress,
  /// optional signature rendezvous, transfer delay, body, completion.
  void ExecuteOp(int comm_rank, CommOp& op);
  /// Publishes the op, synchronizes, and cross-checks all ranks' (seq,
  /// sig). Returns false (after aborting with a desync diagnosis) on
  /// mismatch or when the communicator aborted mid-rendezvous.
  bool Rendezvous(int comm_rank, std::shared_ptr<const WorkState> work);
  /// Completes `op`: progress record, the comm-lane span of an op that ran
  /// (from the WorkState's own stamps, before any waiter can wake), then
  /// `status` and `final_state` into the WorkState; wakes all waiters
  /// exactly once and releases the keepalive.
  void CompleteOp(int comm_rank, CommOp& op, Status status,
                  OpState final_state);
  /// Synchronization point inside collective bodies: barrier + abort check.
  /// Bodies bail out (returning early) when this returns false.
  bool BodySync() {
    return barrier_.Wait() && !aborted();
  }
  void Enqueue(int comm_rank, CommOp op);
  /// Emulated transfer stall for `bytes` of payload (no-op when latency 0).
  void TransferDelay(int64_t bytes) const;
  /// The (src → dst) mailbox, created on first use.
  Mailbox& MailboxFor(int src, int dst);
  /// Aborts the rest of this communicator's failure domain with its abort
  /// Status (outside all local locks).
  void PropagateAbort();

  /// Issue-side bookkeeping (calling rank thread): stamps the rank's next
  /// seq into `work` and files it in the flight recorder.
  void RegisterIssue(int comm_rank, std::shared_ptr<WorkState> work);
  void EnsureWatchdogStarted();
  void WatchdogLoop();
  /// One watchdog scan: looks for ops stuck past their deadline; on fire,
  /// diagnoses the culprit, dumps the flight recorder and aborts.
  void WatchdogScan();
  /// Builds the culprit diagnosis for a stuck op (anchor = the minimum stuck
  /// seq) from a snapshot of the progress table.
  WatchdogDiagnosis Diagnose(const std::vector<RankProgress>& snapshot,
                             int anchor_rank, double waited_ms) const;
  /// Records the diagnosis, bumps metrics (comm.timeouts when fired by the
  /// watchdog, comm.desyncs when diag.desync), dumps the flight recorder and
  /// aborts with a Status carrying `diag.reason`.
  void AbortWithDiagnosis(WatchdogDiagnosis diag, bool from_watchdog);
  /// First-abort-wins core: publishes status (+ optional diagnosis), poisons
  /// the barrier, wakes every queue and the watchdog. Returns false when a
  /// prior abort already won.
  bool AbortImpl(Status status, WatchdogDiagnosis* diag);
  /// The claim half of AbortImpl: atomically publishes the abort state
  /// without waking anyone, so the claimer can finish side effects (the
  /// flight-recorder dump) before any waiter observes the abort.
  bool ClaimAbort(Status status, WatchdogDiagnosis* diag);
  /// The wake half: poisons the barrier, wakes every queue and the watchdog.
  void WakeAllAfterAbort();

  int size_;
  Barrier barrier_;
  std::vector<const float*> src_slots_;
  std::vector<float> scratch_;  // all_reduce staging
  std::mutex scratch_mu_;
  std::vector<CommStats> rank_stats_;  // shared by all handles of a rank

  std::mutex mailbox_mu_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  // [src * size_ + dst]

  const std::shared_ptr<AbortDomain> domain_;  // fixed at construction

  std::vector<WorkerQueue> queues_;
  std::vector<std::thread> workers_;
  std::atomic<bool> workers_started_{false};
  std::mutex start_mu_;
  std::atomic<double> latency_base_us_{0};
  std::atomic<double> latency_us_per_mib_{0};

  // Fault tolerance.
  std::string name_ = "comm";
  FaultInjector injector_;
  std::atomic<bool> faults_injected_{false};
  FlightRecorder flight_;
  std::atomic<double> default_timeout_ms_{0};
  std::atomic<bool> desync_detection_{false};

  mutable std::mutex progress_mu_;
  std::vector<RankProgress> progress_;
  /// Rendezvous exchange, one per rank: the op each rank published.
  std::vector<std::shared_ptr<const WorkState>> sig_slots_;

  std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mu_;
  Status abort_status_;           // guarded by abort_mu_
  WatchdogDiagnosis diagnosis_;   // guarded by abort_mu_
  std::string flight_dump_path_;  // guarded by abort_mu_

  std::thread watchdog_;
  std::atomic<bool> watchdog_started_{false};
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by watchdog_mu_
};

/// Per-rank handle over a Communicator. All collective calls must be entered
/// by every rank of the communicator in the same order (standard SPMD
/// contract); mismatched sizes are checked. Every call returns a Work handle;
/// with CollectiveOptions::async the data movement proceeds on the comm
/// worker while the caller computes.
class ProcessGroup {
 public:
  ProcessGroup() = default;
  ProcessGroup(std::shared_ptr<Communicator> comm, int rank);

  int rank() const { return rank_; }
  int size() const { return comm_->size(); }
  bool valid() const { return comm_ != nullptr; }

  /// NCCL-style AllGather: every rank contributes `numel_per_rank` elements;
  /// `dst` receives size()*numel_per_rank elements in rank order.
  Work AllGatherBase(float* dst, const float* src, int64_t numel_per_rank,
                     const CollectiveOptions& opts = {});

  /// NCCL-style ReduceScatter: every rank contributes size()*numel_per_rank
  /// elements; `dst` receives the reduction of chunk `rank()`.
  Work ReduceScatter(float* dst, const float* src, int64_t numel_per_rank,
                     const CollectiveOptions& opts = {});

  Work AllReduce(float* buf, int64_t numel,
                 const CollectiveOptions& opts = {});

  Work Broadcast(float* buf, int64_t numel, int root,
                 const CollectiveOptions& opts = {});

  /// AllToAll: `src` holds size() chunks of `chunk_numel` elements; chunk j
  /// goes to rank j. `dst` receives chunk i from rank i, in rank order.
  /// (The activation-exchange primitive of recommendation models like DHEN.)
  Work AllToAll(float* dst, const float* src, int64_t chunk_numel,
                const CollectiveOptions& opts = {});

  /// Point-to-point send of `numel` elements to `dst_rank` (pipeline
  /// activation/gradient handoff). Buffered: the payload is copied into the
  /// pair's mailbox, so a send never blocks on its receiver (beyond the
  /// injected transfer latency). Routed through Issue() — sequence number,
  /// flight-recorder record, watchdog deadline — but NOT through the
  /// all-rank desync rendezvous (only two ranks participate).
  Work Send(const float* src, int64_t numel, int dst_rank,
            const CollectiveOptions& opts = {});
  /// Point-to-point receive of `numel` elements from `src_rank`. Blocks the
  /// comm worker until the matching Send's payload (or an abort) arrives;
  /// messages from one sender are delivered in send order.
  Work Recv(float* dst, int64_t numel, int src_rank,
            const CollectiveOptions& opts = {});

  /// Rendezvous of all ranks. Routed through Issue() like every collective:
  /// it runs on the comm worker in FIFO order, carries a sequence number and
  /// a kBarrier trace span, respects injected latency, and is covered by the
  /// watchdog/desync machinery. Synchronous unless opts.async.
  Work Barrier(const CollectiveOptions& opts = {});

  // Tensor conveniences (operate on the flat contents): a size check, the
  // float* call, and src/dst pinned in the Work until completion, so async
  // callers may drop temporaries.
  Work AllGatherBase(Tensor dst, const Tensor& src,
                     const CollectiveOptions& opts = {});
  Work ReduceScatter(Tensor dst, const Tensor& src,
                     const CollectiveOptions& opts = {});
  Work AllReduce(Tensor buf, const CollectiveOptions& opts = {});
  Work Broadcast(Tensor buf, int root, const CollectiveOptions& opts = {});
  Work Send(const Tensor& src, int dst_rank,
            const CollectiveOptions& opts = {});
  Work Recv(Tensor dst, int src_rank, const CollectiveOptions& opts = {});

  /// Per-rank counters, shared by every ProcessGroup handle over the same
  /// (communicator, rank) — so a caller can observe traffic produced by a
  /// wrapper (DDP/FSDP) holding its own handle copy. Counters are bumped at
  /// issue time on the calling thread. The runtime's only traffic counters.
  const CommStats& stats() const { return comm_->rank_stats_[rank_]; }
  void ResetStats() { comm_->rank_stats_[rank_] = CommStats{}; }

  /// The underlying communicator (shared by all rank handles) — the surface
  /// for fault-tolerance controls: timeouts, desync detection, fault
  /// injection, abort, flight-recorder dumps.
  const std::shared_ptr<Communicator>& communicator() const { return comm_; }

 private:
  /// The one place an op's identity and traffic are decided. Stamps the
  /// OpSignature {kind, tag or `default_label`, numel, root} every rank must
  /// agree on (`numel` is the payload size all ranks share, `root` the
  /// broadcast root or p2p peer, -1 otherwise), counts this rank's
  /// `wire_bytes` into CommStats, and enqueues
  /// `body` onto this rank's comm worker; waits for completion unless
  /// opts.async.
  Work Issue(obs::EventKind kind, const CollectiveOptions& opts,
             const char* default_label, int64_t numel, int64_t wire_bytes,
             std::function<bool()> body, int root = -1);
  /// Pins `operands` in `work` until the op completes (nothing to pin once
  /// it has).
  static Work Pin(Work work, std::vector<Tensor> operands);

  // Raw per-rank collective bodies; run on the comm-worker threads only.
  // Static (no ProcessGroup capture) so an async op enqueued through a
  // temporary handle stays valid: the communicator outlives its workers.
  // Each returns false when it bailed out early on a communicator abort
  // (results are then garbage; the Work completes with the abort Status).
  static bool RunAllGatherBase(Communicator* c, int rank, float* dst,
                               const float* src, int64_t numel_per_rank);
  static bool RunReduceScatter(Communicator* c, int rank, float* dst,
                               const float* src, int64_t numel_per_rank,
                               ReduceOp op, DType comm_dtype);
  static bool RunAllReduce(Communicator* c, int rank, float* buf,
                           int64_t numel, ReduceOp op, DType comm_dtype);
  static bool RunBroadcast(Communicator* c, int rank, float* buf,
                           int64_t numel, int root);
  static bool RunAllToAll(Communicator* c, int rank, float* dst,
                          const float* src, int64_t chunk_numel);
  static bool RunSend(Communicator* c, int rank, const float* src,
                      int64_t numel, int dst_rank);
  static bool RunRecv(Communicator* c, int rank, float* dst, int64_t numel,
                      int src_rank);

  std::shared_ptr<Communicator> comm_;
  int rank_ = -1;
};

/// One named dimension of an N-d device mesh ("dp", "tp", "pp", ...).
struct MeshAxis {
  std::string name;
  int size = 0;
};

/// Pre-built communicators for a world and its parallelism subgroups: a
/// named-axis mesh. Construct once (before spawning rank threads), then hand
/// each rank its groups.
///
/// `Create(W, {{"pp",2},{"dp",2},{"tp",2}})` lays ranks out row-major with
/// the LAST axis fastest-varying (the PyTorch DeviceMesh convention — put
/// "tp" last so TP groups are the consecutive intra-host ranks) and builds
/// one communicator per group of every axis. `Slice(axis, rank)` returns the
/// group containing `rank`.
///
/// `DeviceMesh(W, F)` is shorthand for the 2-axis mesh
/// `Create(W, {{"replicate", W/F}, {"shard", F}})` — the hybrid-sharding
/// geometry of paper Sec 3.2.2: the shard group of rank r is the F
/// consecutive ranks r belongs to (S_1..S_{W/F}), its replicate group the
/// W/F ranks with r's index within their shard group (R_1..R_F).
/// `ShardGroup(r)` / `ReplicateGroup(r)` are `Slice("shard"/"replicate", r)`.
/// `FsdpSubmesh` builds the same two axes over one group of a larger mesh,
/// for core::FullyShard in a composed run.
///
/// Every mesh is one failure domain: all its communicators (world, axis
/// groups, submesh groups) are created in one AbortDomain, so an abort on
/// any of them — watchdog timeout, desync, explicit Abort — propagates to
/// all siblings and a step never deadlocks half-torn-down. A drill that must
/// abort one group in isolation uses a standalone Communicator.
class DeviceMesh {
 public:
  /// The FSDP mesh: `{{"replicate", W/F}, {"shard", F}}`. F must divide W.
  DeviceMesh(int world_size, int sharding_factor);

  /// N-d named-axis mesh. Returns InvalidArgument (never aborts) when an
  /// axis has non-positive size, names are empty/duplicated, or the axis
  /// sizes don't multiply to `world_size` (non-divisible worlds).
  static Status Create(int world_size, std::vector<MeshAxis> axes,
                       std::shared_ptr<DeviceMesh>* out);

  int world_size() const { return world_size_; }
  /// The "shard" axis size F, and W / F. Both abort on a mesh without one.
  int sharding_factor() const;
  int num_shard_groups() const { return world_size_ / sharding_factor(); }
  const std::vector<MeshAxis>& axes() const { return axes_; }

  ProcessGroup WorldGroup(int rank);
  /// Slice("shard", rank) / Slice("replicate", rank). Abort, naming the
  /// mesh's axes, on a mesh without that axis: hand FullyShard a
  /// `DeviceMesh(W, F)` or an `FsdpSubmesh` instead.
  ProcessGroup ShardGroup(int rank);      // size F
  ProcessGroup ReplicateGroup(int rank);  // size W/F

  /// The `axis` communicator containing global rank `rank` (the group of
  /// ranks sharing all OTHER coordinates), as a ProcessGroup whose rank is
  /// `rank`'s coordinate along `axis`. Errors on unknown axes or
  /// out-of-range ranks.
  Status Slice(const std::string& axis, int rank, ProcessGroup* out);
  /// Global rank's coordinate along `axis`.
  Status Coordinate(const std::string& axis, int rank, int* out) const;
  /// Size of `axis` (InvalidArgument on unknown names).
  Status AxisSize(const std::string& axis, int* out) const;

  /// The FSDP mesh `{{"replicate", S/F}, {"shard", F}}` over the `axis`
  /// group (size S) containing `rank`, for handing to core::FullyShard in a
  /// composed run. Its world communicator IS the axis slice — same threads,
  /// same abort domain — and its shard/replicate groups are created in this
  /// mesh's domain with this mesh's current settings, on first use, and
  /// cached (one submesh per axis group × F). Callers address the submesh
  /// with the rank's coordinate along `axis`.
  Status FsdpSubmesh(const std::string& axis, int rank, int sharding_factor,
                     std::shared_ptr<DeviceMesh>* out);

  // Mesh-wide settings: applied to every communicator of this mesh (cached
  // submeshes included) and to every one it creates later.

  /// Communicator::SetInjectedLatency.
  void SetInjectedLatency(double base_us, double us_per_mib = 0);
  /// Arms the watchdog (Communicator::SetDefaultTimeout).
  void SetDefaultTimeout(double timeout_ms);
  /// Enables the desync rendezvous (Communicator::SetDesyncDetection).
  void SetDesyncDetection(bool on);
  /// Publishes the current training step to every fault injector
  /// (step-keyed FaultSpecs).
  void SetTrainStep(int64_t step);

 private:
  /// The mesh-wide settings as last set; new communicators start with them.
  struct Settings {
    double latency_base_us = 0;
    double latency_us_per_mib = 0;
    double timeout_ms = 0;
    bool desync = false;
    int64_t train_step = -1;
  };

  DeviceMesh() = default;

  /// The one construction path. `world` is a fresh communicator, or (for
  /// FsdpSubmesh) an existing axis slice; every axis group is created in
  /// domain_ with settings_ and named `prefix + axis + group`.
  void Build(int world_size, std::vector<MeshAxis> axes,
             std::shared_ptr<Communicator> world, const std::string& prefix);
  /// Index of `name` in axes_, or an error naming the known axes.
  Status AxisIndex(const std::string& name, int* out) const;
  /// The group along axis `a` that global rank `rank` belongs to.
  int GroupIndex(int a, int rank) const;
  /// Product of axis sizes after `a` (the stride of axis a, row-major).
  int AxisStride(int a) const;
  /// AxisIndex for the FSDP axes: aborts with the FsdpSubmesh hint when the
  /// mesh has no axis `name`.
  int FsdpAxis(const std::string& name) const;
  /// Slice(axis, rank) that aborts on failure (ShardGroup/ReplicateGroup).
  ProcessGroup FsdpSlice(const std::string& axis, int rank);

  int world_size_ = 0;
  std::vector<MeshAxis> axes_;
  std::shared_ptr<Communicator> world_;
  std::vector<std::vector<std::shared_ptr<Communicator>>> axis_groups_;
  std::shared_ptr<AbortDomain> domain_ = std::make_shared<AbortDomain>();

  std::mutex mu_;
  Settings settings_;  // guarded by mu_
  /// world_, axis groups and every cached submesh's groups, each once.
  std::vector<std::shared_ptr<Communicator>> all_comms_;  // guarded by mu_
  /// (axis, group, F) -> cached FSDP submesh.
  std::vector<std::pair<std::array<int, 3>, std::shared_ptr<DeviceMesh>>>
      submeshes_;  // guarded by mu_
};

}  // namespace fsdp::comm
