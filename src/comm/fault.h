// Fault-tolerance primitives for the comm-worker runtime: scriptable fault
// injection, per-op signatures, and the flight recorder.
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
// collective hashing used by desync debugging. FlightRecorder keeps the last
// N per-rank collective records (seq, signature, issue/start/complete
// timestamps, final state) in a ring, the data the watchdog dumps as JSON
// when it fires (ProcessGroupNCCL flight-recorder analogue).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

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

/// Lifecycle state of one recorded collective.
enum class OpState : int { kIssued = 0, kStarted, kCompleted, kSkipped,
                           kAborted };

const char* OpStateName(OpState state);

struct FlightRecord {
  int64_t seq = -1;
  OpSignature sig;
  double issue_us = 0;     // enqueued by the calling rank thread
  double start_us = 0;     // worker entered the op
  double complete_us = 0;  // worker completed (successfully or not)
  OpState state = OpState::kIssued;
};

/// Per-rank ring buffers of the last `capacity` collective records. Sequence
/// numbers are dense per rank, so record `seq` lives in slot `seq %
/// capacity`; updates find their record in O(1). Each rank's ring has its
/// own mutex — workers never contend with each other, only with dump
/// readers.
class FlightRecorder {
 public:
  FlightRecorder(int num_ranks, int capacity = kDefaultCapacity);

  static constexpr int kDefaultCapacity = 64;

  void OnIssued(int rank, int64_t seq, OpSignature sig, double t_us);
  void OnStarted(int rank, int64_t seq, double t_us);
  void OnFinished(int rank, int64_t seq, double t_us, OpState final_state);

  /// One rank's live records, oldest first.
  std::vector<FlightRecord> Records(int rank) const;
  int num_ranks() const { return static_cast<int>(rings_.size()); }
  int capacity() const { return capacity_; }

  /// The records as comm-lane trace events ("flight" lane; incomplete ops
  /// render as instants at their last known timestamp) for the Chrome-trace
  /// exporter.
  std::vector<obs::TraceEvent> TraceEvents() const;

 private:
  struct Ring {
    mutable std::mutex mu;
    std::vector<FlightRecord> slots;
  };

  FlightRecord* Slot(Ring& ring, int64_t seq);

  int capacity_;
  std::vector<Ring> rings_;
};

}  // namespace fsdp::comm
