// PlanBuilder — emits the StepPlan both execution layers share.
//
// BuildFsdpStepPlan unrolls one steady-state FSDP training step for a model
// of N units (unit 0 = root) under the paper's schedule knobs: sharding
// strategy effects (reshard-after-forward, replica AllReduce, backward
// reshard), backward/forward prefetch (Secs 3.3.2/3.3.3), the rate limiter
// (Sec 3.4), CPU offload, and gradient accumulation with/without
// communication (Sec 3.3.4). This is the one place the FSDP schedule is
// decided: which unit is prefetched where, what reshards when, which
// reductions a microbatch issues.
//
// Two fidelity *shapes* share the one emission core, selected by flags:
//
//   * runtime shape (FsdpPlanOptions::Runtime()): the plan core::FsdpState
//     executes — its hooks run each unit's instructions (ExpectedStepPlan
//     in core/fsdp.h returns it). The root computes as one unit, Wait*
//     markers are emitted, substrate bookkeeping (allocator frees, gates)
//     is not;
//   * simulator shape (FsdpPlanOptions::Sim()): the analytic workloads
//     split the root into embedding-side prologue + head epilogue, and the
//     plan carries the rate-limiter gates and activation/gradient frees the
//     virtual-memory substrate interprets. Wait markers are still emitted
//     (the interpreter treats them as free — its CPU thread runs ahead,
//     Sec 3.4) so both shapes project onto the same canonical schedule.
//
// Their canonical projections (plan::CanonicalSchedule) agree on the shared
// schedule ops — the property tests/plan_test.cc locks down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/plan.h"

namespace fsdp::plan {

/// What happens to a unit's gathered parameter after its backward — one
/// policy shared by the runtime and the simulator (simfsdp::
/// BuildSimStepPlan), so both answer "is the parameter resident after
/// backward?" identically.
enum class ReshardPolicy : int {
  /// Free after each unit's backward, on every microbatch (ZeRO-3 style).
  kAfterBackward = 0,
  /// Free only on gradient-syncing microbatches — the functional runtime's
  /// behaviour: no_sync / accumulation microbatches keep parameters
  /// unsharded so the next microbatch skips the re-gather (Sec 3.3.4).
  kIfGradSync,
  /// Emit the reshard instruction but release nothing: the F = 1 no-op
  /// reshard, after which later unshards of the unit are skipped.
  kKeepUnsharded,
};

/// Gradient accumulation mode (Sec 3.3.4), shared by the runtime and the
/// simulator: both derive their no_sync schedule from this one enum.
enum class AccumMode : int {
  /// Reduce every microbatch (accumulate *with* communication).
  kReduceEveryMicrobatch = 0,
  /// Reduce only the last microbatch (no_sync accumulation: unsharded
  /// gradients accumulate locally, one reduction at the end).
  kReduceLastMicrobatch,
  /// Drop every reduction — the step inside a no_sync guard.
  kNoSync,
};

struct FsdpPlanOptions {
  /// Free unsharded parameters after each non-root unit's forward; re-gather
  /// them in backward (FULL_SHARD / HYBRID_SHARD).
  bool reshard_after_forward = true;
  /// Issue the next AllGather before the current ReduceScatter (Sec 3.3.2).
  bool backward_prefetch = true;
  /// Issue the next unit's AllGather before the current forward compute
  /// (Sec 3.3.3). The plan is the steady-state iteration: the functional
  /// layer only prefetches once it has observed an order, from iteration 2.
  bool forward_prefetch = false;
  /// Emit a RateLimitGate before every unshard (simulator semantics: the CPU
  /// thread blocks on free events when the inflight cap is hit, Sec 3.4).
  bool limiter = false;
  /// F < W: gradient reduction is ReduceScatter + replica AllReduce (Eq. 1).
  bool replica_allreduce = false;
  /// Backward resharding policy (see ReshardPolicy).
  ReshardPolicy reshard = ReshardPolicy::kAfterBackward;
  /// Gradient accumulation mode (see AccumMode).
  AccumMode accum = AccumMode::kReduceEveryMicrobatch;
  bool cpu_offload = false;    // H2D before AllGather, D2H after reduction
  bool input_exchange = false; // DHEN sparse all-to-all feeding forward
  /// Split the root into RootPre/RootHead compute segments (see file
  /// comment).
  bool root_compute_split = false;
  /// Emit FreeGrad/FreeAct for the virtual-memory substrate.
  bool memory_instrs = false;
  int microbatches = 1;

  /// Checks knob consistency so an invalid combination fails at plan-build
  /// time instead of producing a silently-wrong plan: microbatch bounds, and
  /// a rate limiter whose free-event supply the resharding policy would
  /// starve. BuildFsdpStepPlan aborts on a non-OK status; callers building
  /// options programmatically can validate first.
  Status Validate() const;

  /// Runtime-shape factory (validated): the plan core::FsdpState executes —
  /// root computes as one unit, Wait* markers emitted, no substrate
  /// bookkeeping, resharding tied to gradient sync (kIfGradSync).
  static FsdpPlanOptions Runtime();
  /// Simulator-shape factory (validated): split root compute, FreeGrad/
  /// FreeAct memory instructions for the virtual-memory substrate.
  static FsdpPlanOptions Sim();
};

/// Builds the FSDP step plan for units `unit_names` (index 0 = root, rest in
/// forward execution order).
StepPlan BuildFsdpStepPlan(const std::vector<std::string>& unit_names,
                           const FsdpPlanOptions& options);

struct DdpPlanOptions {
  /// Gradient bucket capacity in bytes; buckets fill in reverse unit order.
  int64_t bucket_bytes = 25 << 20;
  /// Per-unit gradient bytes (unit_bytes[0] = root), used to place bucket
  /// boundaries — bucket assignment is schedule structure, not cost.
  std::vector<int64_t> unit_bytes;
};

/// Builds the DDP baseline step plan: forward computes, backward computes in
/// reverse with bucketed AllReduce issues overlapping them, optimizer join.
StepPlan BuildDdpStepPlan(const std::vector<std::string>& unit_names,
                          const DdpPlanOptions& options);

/// Options for a composed FSDP×TP×PP step plan (paper Secs 5.1/7: FSDP as
/// one layer of a composed stack). Each pipeline stage is an independent
/// FSDP program (the `fsdp` shape, emitted per stage with a stage tag);
/// tensor-parallel units carry axis-scoped AllReduce instructions (Megatron
/// g after the forward compute, f's backward after the backward compute);
/// stage boundaries are kSendAct/kRecvAct pairs with explicit cross-stage
/// dependency edges, microbatch-indexed.
struct ComposedPlanOptions {
  /// Per-stage FSDP shape. `fsdp.microbatches` is ignored — the composed
  /// microbatch loop below drives every stage.
  FsdpPlanOptions fsdp;
  int pp_stages = 1;
  int microbatches = 1;
  /// > 1 marks every non-root unit of every stage tensor-parallel: one
  /// kTpAllReduce after its forward compute and one after its backward
  /// compute, on mesh axis kTp.
  int tp_degree = 1;
  /// Payload carried by each boundary kSendAct/kRecvAct (simulator cost).
  int64_t act_bytes = 0;
  /// Payload carried by each kTpAllReduce (simulator cost).
  int64_t tp_bytes = 0;

  Status Validate() const;
};

/// Builds the composed step plan: `stage_units[s]` is stage s's unit list
/// (index 0 = that stage's root). The schedule is the serial per-microbatch
/// pipeline the interop tests execute — for each microbatch, forward runs
/// stage 0..S-1 with activation sends between them, then backward runs
/// S-1..0 with gradient sends back; one terminal kOptimStep (stage -1)
/// joins every stage's reductions. FilterStage projects out what one
/// stage's ranks execute.
StepPlan BuildComposedStepPlan(
    const std::vector<std::vector<std::string>>& stage_units,
    const ComposedPlanOptions& options);

}  // namespace fsdp::plan
