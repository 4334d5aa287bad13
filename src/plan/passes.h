// Plan compiler — semantics-preserving optimization passes over StepPlan.
//
// PR 3 made plan::StepPlan the single source of truth for the schedule and
// PR 5 calibrated a per-instruction cost model against real runs; this layer
// closes the loop by *rewriting* the IR before either interpreter consumes
// it:
//
//   * HoistUnshards  — overlap reordering: move AllGather issues (with their
//     rate-limiter gates) earlier across independent compute so the comm
//     stream starts sooner (generalizes Secs 3.3.2/3.3.3 prefetch, which the
//     builder can only express at fixed hook points);
//   * FuseAllGathers — collective batching: merge adjacent small AllGathers
//     below a byte threshold into ONE batched kUnshard (Instr::batch_units),
//     amortizing per-collective launch latency — the Fig 2b effect;
//   * SinkReduces    — push gradient-reduction chains later across backward
//     compute (and past prefetched AllGathers), taking the ReduceScatter off
//     the comm stream's critical path and making reduce runs adjacent;
//   * FuseReduceScatters — the symmetric batching pass for kReduceGrad.
//
// Every pass is gated by PlanValidator: PassManager::Run validates the input
// plan, re-validates after each pass, and reports per-pass rewrite counts so
// a broken rewrite fails loudly instead of producing a silently-wrong
// schedule. Passes preserve the plan's *semantics* — the multiset of units
// gathered/reduced per microbatch and every gather-before-compute /
// reduce-after-backward ordering — while deliberately changing the canonical
// *sequence* (that is the optimization).
//
// Cost: each pass is one scan plus one rebuild of the plan. The reordering
// passes track the rewritten order as a vector of original indices (deps
// keep their original numbering meanwhile) and apply it with a single
// ApplyOrder; the fusion passes apply their merges with a single erase-and-
// remap. So a pass costs O(n + instructions its blockers scan), and a
// PlanValidator check is one linear walk with no per-instruction heap
// allocation.
//
// Static memory planning (BuildArenaPlan) is the third compiler product: a
// liveness walk over the plan (mirroring exactly where the simulator's
// interpreter allocates and frees) yields per-buffer lifetime intervals, and
// first-fit interval packing assigns arena offsets so sim::ArenaAllocator's
// hot path is a table lookup instead of free-list search + cudaMalloc
// retries.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/plan.h"

namespace fsdp::plan {

/// Structural checker for StepPlans — the gate every compiler pass runs
/// behind. Checks are linear walks over the instruction list that allocate
/// per plan (flat per-unit and per-(microbatch, unit) tables), never per
/// instruction:
///
///  * dependency sanity: every dep index points strictly earlier (the IR is
///    a topologically ordered list, so a forward/self edge IS a cycle);
///  * gather state machine: no redundant unshard of a gathered unit, no
///    compute/wait on a never-gathered unit (use-after-free), no reshard of
///    an already-sharded unit (double free), batched instructions checked
///    per covered unit;
///  * buffer frees: kFreeGrad / kFreeAct only release a live buffer;
///  * reductions: a unit reduces only after its backward compute in the same
///    microbatch, at most once per microbatch, and every microbatch that
///    syncs covers every unit that ran backward (no dropped reductions);
///  * structure: nothing is scheduled after kOptimStep.
///
/// Unit-gather checks apply only to units the plan ever unshards — executed
/// DDP plans (bucketed AllReduce, no unshards) validate cleanly.
struct PlanValidator {
  Status Check(const StepPlan& plan) const;
};

/// Cost/size inputs the passes need beyond the plan structure itself.
struct PassOptions {
  /// Per-unit communicated shard bytes (AllGather payload), indexed like
  /// StepPlan::unit_names. Empty disables FuseAllGathers.
  std::vector<int64_t> unit_shard_bytes;
  /// Per-unit ReduceScatter input bytes. Empty disables FuseReduceScatters.
  std::vector<int64_t> unit_reduce_bytes;
  /// Collectives strictly below this payload are fusion candidates (0
  /// disables both fusion passes) — the Fig 2b "batch small AllGathers"
  /// threshold.
  int64_t fuse_below_bytes = 0;
  /// A fused collective stops growing at this total payload.
  int64_t max_fused_bytes = 256LL << 20;
  /// How many compute instructions an unshard may be hoisted across.
  int max_hoist_computes = 2;
  /// How many compute instructions a reduce chain may sink across.
  int max_sink_computes = 2;
};

/// Each pass rewrites the plan in place and returns the number of rewrites
/// applied (0 = no-op). Passes assume (and preserve) PlanValidator-clean
/// input.
int HoistUnshards(StepPlan& plan, const PassOptions& options);
int FuseAllGathers(StepPlan& plan, const PassOptions& options);
int SinkReduces(StepPlan& plan, const PassOptions& options);
int FuseReduceScatters(StepPlan& plan, const PassOptions& options);

struct PassResult {
  /// Per-pass (name, rewrite count) in execution order.
  std::vector<std::pair<std::string, int>> applied;
  int total_rewrites() const {
    int n = 0;
    for (const auto& p : applied) n += p.second;
    return n;
  }
};

/// Runs an ordered pass list over a plan with validation before, between,
/// and after passes (FSDP_CHECK on violation — a pass that corrupts the
/// plan is a programming error, not an input error).
class PassManager {
 public:
  using PassFn = std::function<int(StepPlan&, const PassOptions&)>;

  explicit PassManager(PassOptions options) : options_(std::move(options)) {}

  void AddPass(std::string name, PassFn fn) {
    passes_.emplace_back(std::move(name), std::move(fn));
  }

  /// The default pipeline: hoist-unshards, fuse-allgathers, sink-reduces,
  /// fuse-reducescatters.
  static PassManager Default(PassOptions options);

  PassResult Run(StepPlan& plan) const;

  const PassOptions& options() const { return options_; }

 private:
  PassOptions options_;
  std::vector<std::pair<std::string, PassFn>> passes_;
  PlanValidator validator_;
};

// ---------------------------------------------------------------------------
// Static memory planning
// ---------------------------------------------------------------------------

/// The buffer classes the simulator's interpreter allocates while walking a
/// plan (see simfsdp/schedule.cc): each (kind, unit) keys a sequence of
/// lifetime intervals.
enum class BufKind : int {
  kParam = 0,   // unsharded flat parameter  [kUnshard .. freeing kReshard]
  kGrad,        // unsharded gradient        [backward kCompute .. kFreeGrad]
  kAct,         // persisted activations     [forward kCompute .. kFreeAct]
  kRecompute,   // checkpoint rematerialization, transient within backward
  kHead,        // root head / logits scratch [RootHead fwd .. RootHead bwd]
};

const char* BufKindName(BufKind kind);

/// One planned buffer: a fixed arena offset for one lifetime interval of
/// (kind, unit). A key with several disjoint lifetimes in the plan gets one
/// assignment per lifetime, in plan order — the allocator consumes them as a
/// per-key queue.
struct ArenaAssignment {
  BufKind kind = BufKind::kParam;
  int unit = -1;
  int64_t offset = 0;  // bytes from arena base
  int64_t bytes = 0;   // rounded size actually reserved
  int open_at = 0;     // plan instr index where the buffer comes alive
  int close_at = 0;    // plan instr index of its release (plan.size() = end)
};

/// The compiled arena layout: a single reservation of total_bytes, with a
/// persistent base region [0, persistent_bytes) for state allocated outside
/// the plan walk (master/optimizer shards, framework overhead), and offset
/// assignments for every plan-driven buffer lifetime above it.
struct ArenaPlan {
  int64_t total_bytes = 0;
  int64_t persistent_bytes = 0;
  std::vector<ArenaAssignment> assignments;
};

/// Per-unit byte sizes feeding the liveness walk; vectors are indexed like
/// StepPlan::unit_names. Sizes must match what the interpreter will request
/// (simfsdp::MakeMemoryPlanOptions derives them from the same unit table the
/// simulator uses).
struct MemoryPlanOptions {
  std::vector<int64_t> param_bytes;      // unsharded flat parameter
  std::vector<int64_t> grad_bytes;       // unsharded gradient buffer
  std::vector<int64_t> act_bytes;        // persisted activations (0 for root)
  std::vector<int64_t> recompute_bytes;  // transient backward rematerialized
  int64_t head_bytes = 0;                // root head / logits scratch
  int64_t persistent_bytes = 0;          // always-live base region
};

/// Walks the plan once, mirroring the simulator's allocation guards (a
/// gathered unit is not re-allocated; a gradient lives across accumulation
/// microbatches until its kFreeGrad), producing lifetime intervals; then
/// packs them first-fit into a single arena. Buffers still live when the
/// plan ends (retained parameters, no_sync gradients) span the whole
/// horizon, which is exactly their steady-state residency when the plan
/// replays.
ArenaPlan BuildArenaPlan(const StepPlan& plan,
                         const MemoryPlanOptions& options);

}  // namespace fsdp::plan
