// Fault-tolerance primitives for the comm-worker runtime: scriptable fault
// injection, per-op signatures, the per-op record, and the flight recorder.
//
// The thread-per-rank substrate is only honest about distributed failure
// modes if we can *produce* them deterministically. A FaultSpec names one
// failure at one point of the collective stream — (rank, sequence number)
// or (rank, tag) — and the Communicator's workers consult the injector
// before entering every op:
//
//   kDelay — the worker stalls for delay_us before entering the op
//            (straggler; benign below the watchdog timeout);
//   kHang  — the worker never enters the op (stuck CUDA kernel / lost NCCL
//            completion); it parks until the communicator aborts;
//   kCrash — the rank dies: the worker stops draining its queue entirely
//            (SIGKILLed trainer process);
//   kSkip  — the rank silently skips the collective and moves on — the
//            classic SPMD desync (a diverged control flow issued one fewer
//            collective on this rank).
//
// OpSignature is the per-collective identity checked at the rendezvous
// (kind, label/tag, payload numel, broadcast root) — the analogue of NCCL's
// collective hashing used by desync debugging. WorkState is the one record
// of a collective on one rank: its seq, signature, lifecycle state and
// issue/start/complete stamps, shared by the Work handle, the comm worker
// and the FlightRecorder. The recorder keeps the last 64 WorkStates of each
// rank in a ring and snapshots them into FlightRecords, the data the
// watchdog dumps as JSON when it fires (ProcessGroupNCCL flight-recorder
// analogue).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "tensor/tensor.h"

namespace fsdp::comm {

enum class FaultKind : int { kDelay = 0, kHang, kCrash, kSkip };

const char* FaultKindName(FaultKind kind);

/// One scripted fault. `rank` is the communicator-local rank whose worker
/// misbehaves; the fault arms on the first op matching every selector that
/// is set: `seq` (when >= 0), `tag` (when non-empty; matched against the op
/// label, i.e. CollectiveOptions::tag or the collective's default name),
/// `step` (when >= 0; matched against the training step last published via
/// FaultInjector::set_train_step — this is what makes "kill rank 3 in step
/// 7's backward" robust to plan-compiler reorderings that renumber seqs),
/// and `op_kind` (when >= 0; the obs::EventKind of the collective, so a
/// unit-tagged spec can distinguish the backward ReduceScatter from the
/// forward AllGather sharing the same tag). At least one of seq/tag/step
/// must be set. Each spec fires exactly once, except kCrash which is sticky
/// by nature (the rank is dead).
struct FaultSpec {
  FaultKind kind = FaultKind::kDelay;
  int rank = -1;
  int64_t seq = -1;
  std::string tag;
  double delay_us = 0;  // kDelay only
  int64_t step = -1;    // training step filter (-1 = any)
  int op_kind = -1;     // obs::EventKind filter (-1 = any)
};

/// Thread-safe store of pending faults; consulted by every comm worker
/// before executing an op. armed() is a relaxed-atomic fast path so the
/// fault-free hot path pays one load.
class FaultInjector {
 public:
  /// Registers a fault. Specs matching no seq, tag, or step are invalid.
  void Inject(FaultSpec spec);
  /// Consumes and returns (into `out`) the first fault matching this op.
  /// kCrash specs are not consumed — a dead rank stays dead.
  bool Match(int rank, int64_t seq, const std::string& label,
             obs::EventKind kind, FaultSpec* out);
  bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Publishes the current training step for step-keyed specs. Called by the
  /// train loop (Communicator/DeviceMesh::SetTrainStep) at step boundaries.
  void set_train_step(int64_t step) {
    train_step_.store(step, std::memory_order_relaxed);
  }
  int64_t train_step() const {
    return train_step_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::vector<FaultSpec> pending_;
  std::atomic<bool> armed_{false};
  std::atomic<int64_t> train_step_{-1};
};

/// Identity of one collective op — what every rank must agree on at the
/// rendezvous for the SPMD contract (paper Sec 3.3.2) to hold.
struct OpSignature {
  obs::EventKind kind = obs::EventKind::kMarker;
  std::string label;   // CollectiveOptions::tag or the default op name
  int64_t numel = 0;   // payload size every rank agrees on (f32 elements)
  int root = -1;       // broadcast root / p2p peer, -1 otherwise

  bool operator==(const OpSignature& o) const {
    return kind == o.kind && label == o.label && numel == o.numel &&
           root == o.root;
  }
  bool operator!=(const OpSignature& o) const { return !(*this == o); }
  /// "RS:layer3" (plus "@root2" for rooted ops) — the rendered identity used
  /// in diagnoses and the flight-recorder dump.
  std::string Render() const;
};

/// Lifecycle state of one collective: issued, then started by its worker,
/// then one of the final states (kCompleted and everything after it).
enum class OpState : int { kIssued = 0, kStarted, kCompleted, kSkipped,
                           kAborted };

const char* OpStateName(OpState state);

/// The one record of a collective on one rank, shared by its Work handle,
/// its comm worker and the FlightRecorder. `seq`, `sig`, `issue_us` and
/// `bytes` are fixed on the issuing thread before the state is shared. The
/// worker writes each later stamp once, under `mu`: `start_us` with state
/// kStarted, then `complete_us` and `status` with the final state.
struct WorkState {
  std::mutex mu;
  std::condition_variable cv;
  int64_t seq = -1;     // per-rank collective sequence number
  OpSignature sig;      // identity every rank must agree on
  double issue_us = 0;  // enqueued on the calling rank thread
  int64_t bytes = 0;    // this rank's wire bytes (CommStats, trace span)
  OpState state = OpState::kIssued;
  double start_us = 0;     // comm worker began executing
  double complete_us = 0;  // worker finished (successfully or not)
  Status status;  // completion status (abort/timeout propagate here)
  /// The Tensor overloads' operands, pinned until completion; released by
  /// the worker on completion.
  std::vector<Tensor> keepalive;

  bool done() const { return state >= OpState::kCompleted; }
};

/// A snapshot of one WorkState, as the flight-recorder dump renders it.
struct FlightRecord {
  int64_t seq = -1;
  OpSignature sig;
  double issue_us = 0;
  double start_us = 0;
  double complete_us = 0;
  OpState state = OpState::kIssued;
};

/// Per-rank rings of the last kCapacity collectives' WorkStates. Sequence
/// numbers are dense per rank, so op `seq` lives in slot `seq % kCapacity`.
/// Each rank's ring has its own mutex, taken by the issuing rank thread and
/// by dump readers; a worker's stamps go to the WorkState alone.
class FlightRecorder {
 public:
  static constexpr int kCapacity = 64;

  explicit FlightRecorder(int num_ranks);

  /// Files a newly issued op (seq and sig set) in `rank`'s ring, dropping
  /// the op kCapacity seqs older.
  void Record(int rank, std::shared_ptr<WorkState> work);

  /// Snapshots of one rank's live records, oldest first.
  std::vector<FlightRecord> Records(int rank) const;

 private:
  struct Ring {
    mutable std::mutex mu;
    std::vector<std::shared_ptr<WorkState>> slots;
  };

  std::vector<Ring> rings_;
};

}  // namespace fsdp::comm
