// Typed execution-plan IR — the single source of truth for the FSDP/DDP
// schedule (paper Secs 3.2–3.3).
//
// A StepPlan is one training step flattened into an ordered list of typed
// instructions: Unshard (AllGather issue), WaitUnshard, Compute, ReduceGrad
// (ReduceScatter issue; bucket AllReduce for DDP), AllReduceReplicas,
// WaitReduceGrad, Reshard (free the unsharded parameter), RateLimitGate,
// OptimStep, plus substrate bookkeeping ops (activation/gradient frees, CPU
// offload copies, non-FSDP input exchange). Each instruction carries its
// stream lane and explicit dependency edges (indices of earlier
// instructions whose completion gates its start).
//
// Two layers consume the same IR:
//
//   * the REAL runtime executes it: core::FsdpState's hooks run their
//     unit's instructions of the runtime-shape plan the builder
//     (plan/builder.h) emits. It and ddp::DistributedDataParallel record
//     every instruction they execute, in issue order and with measured
//     times, into one per-rank ExecLog;
//   * the SIMULATOR (simfsdp::FsdpSimulator / DdpSimulator) interprets a
//     StepPlan emitted by the builder against the virtual-time substrate —
//     streams, caching allocator, cost models.
//
// CanonicalSchedule projects either side onto the schedule-defining ops so
// tests can assert real-execution order == simulator-consumed plan order
// (tests/plan_test.cc — the anti-drift contract).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/trace.h"

namespace fsdp::plan {

enum class Op : int {
  kRateLimitGate = 0,  // block until an inflight-unshard slot frees (Sec 3.4)
  kUnshard,            // issue the unit's AllGather (+ unsharded-buffer alloc,
                       //   + H2D shard upload under CPU offload)
  kWaitUnshard,        // first-use point: block on the pending AllGather
  kCompute,            // unit forward/backward compute (see phase/seg)
  kInputExchange,      // non-FSDP input collective (DHEN sparse all-to-all)
  kReduceGrad,         // issue the gradient ReduceScatter (DDP: bucket
                       //   AllReduce); `bytes` carries DDP bucket size
  kAllReduceReplicas,  // hybrid-sharding replica AllReduce (Eq. 1)
  kGradOffloadD2H,     // D2H copy of the reduced gradient shard (CPU offload)
  kWaitReduceGrad,     // end-of-backward completion of issued reductions
  kReshard,            // free the unsharded flat parameter
  kFreeGrad,           // release the unsharded gradient buffer
  kFreeAct,            // release the unit's persisted activations
  kOptimStep,          // sharded optimizer step
  kTpAllGather,        // tensor-parallel output AllGather (axis kTp)
  kTpAllReduce,        // tensor-parallel partial-sum AllReduce (axis kTp) —
                       //   Megatron's g (forward, RowParallel output) and f
                       //   (backward, input grad) operators
  kSendAct,            // pipeline point-to-point send: activation to
                       //   `peer_stage` (forward) or grad to `peer_stage`
                       //   (backward). Axis kPp.
  kRecvAct,            // pipeline point-to-point receive from `peer_stage`
};

/// Mesh axis an instruction's collective runs on. Data-parallel (FSDP
/// AllGather/ReduceScatter/replica-AllReduce and everything pre-existing)
/// is kDp; tensor-parallel collectives are kTp; pipeline send/recv are kPp.
/// Compute and host bookkeeping stay kDp — the axis only matters for
/// comm-lane instructions, where it selects the mesh-sliced communicator.
enum class Axis : int { kDp = 0, kTp, kPp };

enum class Phase : int { kNone = 0, kForward, kBackward };

/// Which segment of a unit's computation a kCompute instruction covers. The
/// simulator's analytic workloads split the root unit into an embedding-side
/// prologue and a head/loss epilogue (Sec 3.3.1); the functional runtime
/// treats the root as one unit (kMain).
enum class Seg : int { kMain = 0, kRootPre, kRootHead };

enum class Lane : int { kCompute = 0, kComm, kHost };

struct Instr {
  Op op = Op::kCompute;
  int unit = -1;  // index into StepPlan::unit_names (-1: none / all units)
  Phase phase = Phase::kNone;
  Seg seg = Seg::kMain;
  Lane lane = Lane::kCompute;
  bool prefetch = false;  // unshard issued ahead of first use (Secs 3.3.2/3.3.3)
  int microbatch = 0;
  /// Mesh axis whose communicator executes this instruction (comm lane).
  Axis axis = Axis::kDp;
  /// Pipeline stage this instruction belongs to (composed plans). -1 means
  /// stage-less: the instruction belongs to every stage (the terminal
  /// kOptimStep of a composed plan). Single-stage plans leave it 0.
  int stage = 0;
  /// kSendAct/kRecvAct only: the pipeline stage on the other end.
  int peer_stage = -1;
  int64_t bytes = 0;      // payload where structural (DDP bucket bytes,
                          //   fused-collective totals)
  /// Additional units a batched collective covers (the fusion pass of
  /// plan/passes.h): the instruction moves this unit's payload plus every
  /// listed unit's in ONE collective. Empty for unbatched instructions.
  /// Meaningful on kUnshard / kReduceGrad.
  std::vector<int> batch_units;
  /// kReshard only: the gathered parameter is NOT released (the F = 1
  /// no-op reshard, ReshardPolicy::kKeepUnsharded) — the unit stays
  /// resident and later unshards of it are skipped.
  bool retain = false;
  /// Extra latency injected before this instruction executes (fault
  /// perturbations; see plan/perturb.h). Virtual microseconds in the
  /// simulator, real microseconds in the plan replayer.
  double delay_us = 0;
  /// Completion edges: indices of earlier instructions this one starts
  /// after. Same-lane ordering is implicit (streams execute in order);
  /// edges express the cross-lane waits (compute after its AllGather, the
  /// ReduceScatter after its backward, the optimizer after all reductions).
  std::vector<int> deps;
};

/// One training step (steady-state iteration) as ordered instructions.
/// unit_names[0] is the root/outermost unit; the rest follow forward
/// execution order.
struct StepPlan {
  std::vector<std::string> unit_names;
  std::vector<Instr> instrs;

  int size() const { return static_cast<int>(instrs.size()); }
  /// Schedule-defining projection of this plan (see CanonicalSchedule).
  std::vector<std::string> Canonical() const;
};

const char* OpName(Op op);
const char* LaneName(Lane lane);
const char* AxisName(Axis axis);

/// Stable trace-track name for an instruction: the plain lane name for
/// kDp instructions ("comm", "compute", "host"), the axis-suffixed lane for
/// composed comm instructions ("comm.tp", "comm.pp"). The Chrome-trace
/// exporter uses this so TP collectives and pipeline sends land on their
/// own tracks instead of interleaving with FSDP's AllGathers.
std::string LaneTrackName(const Instr& instr);

/// The obs::TraceEvent kind an instruction maps to when exported (the
/// plan -> trace-lane contract shared by both layers). Waits map to kWait.
obs::EventKind ToEventKind(Op op, Phase phase);

/// Renders one instruction as "OP:unit" (e.g. "UNSHARD:blocks.0",
/// "BWD:blocks.1", "FWD:[root].head"). Batched collectives render every
/// covered unit ("UNSHARD:a+b+c"). `names` supplies unit labels.
std::string RenderInstr(const Instr& instr,
                        const std::vector<std::string>& names);

/// Visits the units a (possibly batched) collective covers, in order:
/// `unit`, then `batch_units`; nothing for unit-less instructions. No
/// allocation. A visitor that returns bool ends the walk by returning true,
/// and the call then returns true; a void visitor sees every unit.
template <typename F>
bool ForEachCoveredUnit(const Instr& instr, F&& visit) {
  if (instr.unit < 0) return false;
  if constexpr (std::is_void_v<std::invoke_result_t<F&, int>>) {
    visit(instr.unit);
    for (int u : instr.batch_units) visit(u);
    return false;
  } else {
    if (visit(instr.unit)) return true;
    for (int u : instr.batch_units) {
      if (visit(u)) return true;
    }
    return false;
  }
}

/// How many units ForEachCoveredUnit visits.
inline int NumCoveredUnits(const Instr& instr) {
  return instr.unit < 0 ? 0 : 1 + static_cast<int>(instr.batch_units.size());
}

/// True for ops that define the schedule the paper's claims are about —
/// collective issues, computes, waits, and resharding frees. Substrate
/// bookkeeping (rate-limiter gates, allocator frees, offload copies) and the
/// optimizer join are excluded: the functional layer either has no such
/// instruction or places it outside the FSDP hooks.
bool IsCanonicalOp(Op op);

/// Projects an instruction stream onto the canonical schedule ops, rendered
/// as "OP:unit" strings. Equality of two projections (one recorded by real
/// execution, one emitted by the builder and consumed by the simulator) is
/// the anti-drift assertion of tests/plan_test.cc.
std::vector<std::string> CanonicalSchedule(
    const std::vector<Instr>& instrs, const std::vector<std::string>& names);

/// Projects a composed plan onto one pipeline stage: keeps instructions
/// whose `stage` matches (or is -1, i.e. all-stage), remapping dependency
/// indices and dropping cross-stage edges (the send/recv pairing carries
/// that ordering at the comm layer). The result is what ONE rank of that
/// stage executes — comparable against a per-rank executed log.
StepPlan FilterStage(const StepPlan& plan, int stage);

/// One executed instruction with its measured times (MonotonicMicros) and
/// payload. Collectives are timed from their comm::Work handle (issue,
/// worker pickup, completion); computes, waits and reshards by the hook that
/// records them (t_exec_us == t_begin_us). t_end_us is 0 until the entry
/// finishes; composed runs' TP and pipeline records carry no times.
struct ExecEntry {
  Instr instr;
  /// What the action is as a trace event: ToEventKind(op, phase), except
  /// that a DDP bucket's kReduceGrad is an AllReduce.
  obs::EventKind kind = obs::EventKind::kMarker;
  double t_begin_us = 0;
  double t_exec_us = 0;
  double t_end_us = 0;
  int64_t bytes = 0;           // collective wire bytes (comm::Work::bytes)
  int64_t resident_bytes = 0;  // full unsharded-parameter / bucket bytes
};

/// The per-rank execution log: what one rank executed, in issue order, with
/// times. FSDP hooks, DDP buckets, TP layers and pipeline handoffs of a rank
/// record into one log, so a composed run lands in ONE stream (the composed
/// half of the anti-drift contract). An entry recorded at issue is finished
/// later through the id Record returns; finished entries are published to
/// the TraceCollector when it is enabled. Unit names are interned on first
/// use. Thread-safe.
class ExecLog {
 public:
  /// `rank` attributes the trace events this log publishes.
  explicit ExecLog(int rank = 0) : rank_(rank) {}

  /// Returns the interned unit index for `name` (appending if new).
  int UnitIndex(const std::string& name);
  /// Appends `entry` and returns its id. A finished entry (t_end_us > 0) is
  /// published at once.
  int64_t Record(ExecEntry entry);
  /// Appends an untimed entry for `instr` (kind from ToEventKind).
  int64_t Record(Instr instr);
  /// Sets the times and wire bytes of entry `id` and publishes it. Ids from
  /// before the last Clear() are ignored.
  void Finish(int64_t id, double t_begin_us, double t_exec_us,
              double t_end_us, int64_t bytes = 0);

  /// Snapshot as a StepPlan: instructions only, no dependency edges.
  StepPlan Snapshot() const;
  std::vector<ExecEntry> Entries() const;
  /// The trace view, in log order, built by the one entry -> event mapping
  /// (also what Publish sends): every entry yields its "runtime"-lane event
  /// — collective issues and computes as instants at t_begin_us, waits and
  /// reshards as spans — and a compute also its "compute"-lane span.
  std::vector<obs::TraceEvent> TraceEvents() const;
  /// Drops the entries; the unit-name table stays, so interned indices
  /// remain valid.
  void Clear();

 private:
  /// Appends the trace events of `entry` to `out` (mu_ held).
  void AppendTraceEvents(const ExecEntry& entry,
                         std::vector<obs::TraceEvent>* out) const;
  /// Sends `entry`'s events to the TraceCollector if enabled (mu_ held).
  void Publish(const ExecEntry& entry) const;

  int rank_;
  mutable std::mutex mu_;
  std::vector<std::string> unit_names_;
  std::vector<ExecEntry> entries_;
  int64_t first_id_ = 0;  // id of entries_[0]
};

}  // namespace fsdp::plan
