// FSDP — the paper's primary contribution (Sec 3 & 4), with both frontends:
//
//  * FullyShardedDataParallel — the model-wrapper API: wraps the whole model
//    in an nn::Module whose Forward drives the wrapped module;
//  * FullyShard(...) — the functional `fully_shard` API: installs FSDP logic
//    purely as nn::Module forward hooks, "preserving both model structures
//    and parameter fully-qualified names" (Sec 4). Returns the FsdpState
//    handle; the user keeps calling their own module.
//
// Both share one runtime, FsdpState, which decomposes the model into FSDP
// units via an auto-wrap policy, gives each unit a FlatParamHandle, and
// drives the schedule:
//
//   pre-forward   unshard (AllGather) + install parameter views + optional
//                 *forward prefetch* of the next unit by the previous
//                 iteration's order (Sec 3.3.3);
//   post-forward  reshard (strategies with reshard-after-forward; the
//                 outermost unit is intentionally kept unsharded, Sec 3.3.1)
//                 and register the pre-backward hook on the unit output;
//   pre-backward  re-unshard if resharded after forward (Sec 4.3 Tensor
//                 hook);
//   post-backward (AccumulateGrad hook on the unsharded FlatParameter)
//                 optional *backward prefetch* — issue the next unit's
//                 AllGather before this unit's ReduceScatter (Sec 3.3.2) —
//                 then ReduceScatter(+AllReduce for hybrid) and reshard;
//   end-backward  (queue_callback) reshard everything, roll execution order
//                 into the next iteration's prefetch hints (Sec 4.3).
//
// Unshards are issued *asynchronously*: IssueUnshard enqueues the AllGather
// on the comm-worker runtime (comm/process_group.h) and returns; the rank
// thread blocks only in ConsumeUnshard, at the first real use of the
// parameters. Prefetched AllGathers therefore genuinely proceed while the
// current unit computes, and a rate limiter caps genuinely *pending* work:
// at most limit_all_gathers un-waited unshards exist at a time (default 2,
// the paper's minimum for overlap, Sec 3.4) — prefetch beyond the cap is
// deferred. Gradient reductions are likewise split: the ReduceScatter is
// issued async at post-backward and completed at end-of-backward, so the
// rank thread never stalls behind a prefetched AllGather on the same
// communication stream.
//
// The runtime also validates execution order: if the observed pre-forward
// order changes between iterations (a dynamic graph), prefetch hints adapt
// — the freshly-observed-order property of Sec 3.3.2 — and the change is
// surfaced via order_changed() and the fsdp.order_changes counter.
//
// Every action is recorded once, into this rank's plan::ExecLog: the typed
// plan instruction with its begin, exec-start and end times and its wire
// and resident bytes. Collectives are timed from their comm::Work handle
// when the rank thread waits on them; the hooks time computes, waits and
// reshards. The rest are views of that log: executed_plan() and its
// canonical projection executed_schedule() (compared against
// ExpectedStepPlan() and the simulator's plan by tests/plan_test.cc),
// trace_events() (also published to an enabled obs::TraceCollector), and
// obs::BuildStepProfiles, which reads the times from exec_log().
#pragma once

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "comm/process_group.h"
#include "common/status.h"
#include "core/flat_param.h"
#include "core/wrap_policy.h"
#include "nn/module.h"
#include "obs/trace.h"
#include "plan/builder.h"

namespace fsdp::core {

/// Paper Sec 3.2: all strategies are (sharding factor F, reshard-after-
/// forward) points. F is carried by the DeviceMesh; the strategy pins the
/// expected F and the resharding behaviour.
enum class ShardingStrategy {
  kFullShard,         // F = W,   reshard after forward (ZeRO-3, "RAF")
  kShardGradOp,       // F = W,   keep unsharded between fwd & bwd ("NRAF")
  kNoShard,           // F = 1,   DDP-equivalent (AllReduce via Eq. 1)
  kHybridShard,       // 1<F<W,   reshard after forward
  kHybridShardZero2,  // 1<F<W,   keep unsharded between fwd & bwd
};

const char* ShardingStrategyName(ShardingStrategy s);
/// True for strategies that free unsharded parameters after forward.
bool ReshardAfterForward(ShardingStrategy s);

struct FsdpOptions {
  ShardingStrategy strategy = ShardingStrategy::kFullShard;
  AutoWrapPolicy auto_wrap_policy;  // default: NoWrapPolicy
  /// Modules (subtrees) FSDP must leave alone: their parameters are neither
  /// flattened nor sharded and keep their original tensors — the
  /// ignored_modules escape hatch. DHEN-style models use it to exclude the
  /// sparse embedding tables that a separate system (embedding-table model
  /// parallelism) manages while FSDP trains the dense tower (Sec 5.1).
  AutoWrapPolicy ignore_policy;  // default: ignore nothing
  MixedPrecision mixed_precision;
  /// Issue the next AllGather before the current ReduceScatter in backward
  /// (BACKWARD_PRE). The paper's Fig 6(b) knob.
  bool backward_prefetch = true;
  /// Issue the next AllGather (previous iteration's order) before the
  /// current forward computation.
  bool forward_prefetch = false;
  /// Max inflight unshards (the rate limiter, Sec 3.4). <= 0 disables.
  int limit_all_gathers = 2;
  /// Broadcast rank 0's parameter values at wrap time.
  bool sync_module_states = true;
  /// Record the execution log (instructions with times). Off: nothing is
  /// recorded and no clock or Work timestamp is read.
  bool record_events = true;

  /// Checks option consistency against the mesh geometry: strategy vs.
  /// sharding-factor agreement, limit_all_gathers bounds (0 disables; a
  /// positive limit must lie in [1, 1024]; negative is rejected), and
  /// mixed-precision dtype sanity (floating-point only). Both frontends call
  /// this (via the FsdpState constructor, which aborts on failure); callers
  /// building options programmatically can validate first.
  Status Validate(int world_size, int sharding_factor) const;
};

/// The FSDP runtime attached to a model. Obtain one via FullyShard() (the
/// functional frontend) or implicitly through FullyShardedDataParallel.
class FsdpState {
 public:
  /// `mesh` must be built with the sharding factor the strategy implies
  /// (full/grad-op: W; no-shard: 1; hybrid: user F). One state per rank,
  /// all sharing the mesh's communicators. Installs hooks on `module` and
  /// materializes+shards every unit.
  FsdpState(nn::ModulePtr module, comm::DeviceMesh& mesh, int rank,
            FsdpOptions options);

  FsdpState(const FsdpState&) = delete;
  FsdpState& operator=(const FsdpState&) = delete;

  /// Sharded FlatParameters — what the optimizer must be constructed over.
  std::vector<Tensor> Parameters();

  /// While false, backward skips gradient reduction and keeps *unsharded*
  /// gradients on each rank (accumulation-without-communication, Sec 3.3.4).
  void set_require_backward_grad_sync(bool v) { require_sync_ = v; }
  bool require_backward_grad_sync() const { return require_sync_; }

  // ----- state dict -----
  /// Full (unsharded) parameters by original fully-qualified name. Collective
  /// call: every rank must enter; every rank receives the full values.
  std::vector<std::pair<std::string, Tensor>> FullStateDict();
  void LoadFullStateDict(
      const std::vector<std::pair<std::string, Tensor>>& state);
  /// This rank's shard per unit: (unit name, sharded flat tensor clone).
  std::vector<std::pair<std::string, Tensor>> ShardedStateDict();

  // ----- introspection (tests / benches) -----
  int num_units() const { return static_cast<int>(units_.size()); }
  FlatParamHandle& unit_handle(int i) { return *units_[i].handle; }
  const std::string& unit_name(int i) const { return units_[i].name; }
  /// The execution log this state records into: its own, or the one
  /// passed to AttachExecLog.
  const plan::ExecLog& exec_log() const { return *log_; }
  /// The log as trace events, in log order (plan::ExecLog::TraceEvents).
  std::vector<obs::TraceEvent> trace_events() const {
    return log_->TraceEvents();
  }
  /// Drops the log's entries.
  void ClearEvents() { log_->Clear(); }
  /// The plan instructions of the log, in issue order.
  std::vector<plan::Instr> executed_plan() const {
    return log_->Snapshot().instrs;
  }
  /// Canonical projection of executed_plan() — "OP:unit" strings comparable
  /// against a builder-emitted plan's Canonical() (tests/plan_test.cc).
  std::vector<std::string> executed_schedule() const {
    return log_->Snapshot().Canonical();
  }
  /// The step plan the shared PlanBuilder predicts for this state's options
  /// and unit structure (unit names in forward execution order). The
  /// anti-drift contract: executed_schedule() == ExpectedStepPlan()
  /// .Canonical() for a steady-state iteration.
  plan::StepPlan ExpectedStepPlan() const;
  int max_inflight_unshards() const { return max_inflight_; }
  int throttled_prefetches() const { return throttled_prefetches_; }
  /// How often ConsumeUnshard had to block on an AllGather that was still
  /// genuinely pending (issued but incomplete) — the overlap-miss count.
  int waits_on_pending() const { return waits_on_pending_; }
  /// True if the last completed iteration observed a pre-forward order
  /// different from the previous one (dynamic graph detected).
  bool order_changed() const { return order_changed_; }
  /// Sticky first communication error (fault-tolerant runtime): when a
  /// collective aborts (watchdog timeout, desync, explicit Abort), the
  /// train step completes structurally — garbage reductions are dropped so
  /// sharded .grad / optimizer state stay uncorrupted — and the abort
  /// Status lands here instead of crashing the rank thread. Callers check
  /// after each step; OK means every collective of the step completed.
  const Status& status() const { return status_; }
  int rank() const { return rank_; }
  int world_size() const { return world_size_; }
  nn::Module& module() { return *module_; }
  const FsdpOptions& options() const { return options_; }

  /// Composed FSDP×TP×PP runs: records into `log` (not owned; nullptr
  /// restores the state's own log), tagging entries with pipeline `stage`
  /// and the current microbatch. TP layers and the pipeline handoff record
  /// into the same log, so one per-rank stream covers all three axes and
  /// compares against the composed builder plan.
  void AttachExecLog(plan::ExecLog* log, int stage);
  /// Microbatch tag stamped on recorded instructions (composed runs).
  void set_composed_microbatch(int mb) { microbatch_ = mb; }

 private:
  struct Unit {
    std::string name;
    nn::Module* module = nullptr;
    std::unique_ptr<FlatParamHandle> handle;
    bool is_root = false;
    bool inflight = false;        // unsharded but not yet consumed
    bool backward_done = false;   // this backward pass
    int log_unit = -1;            // the unit's index in the log's names
    int64_t gather_entry = -1;    // AllGather awaiting its Work times
    int64_t fwd_entry = -1;       // forward compute awaiting its end
    int64_t reduce_entry = -1;    // ReduceScatter awaiting its Work times
    int64_t replica_entry = -1;   // replica AllReduce awaiting its times
    double fwd_begin_us = 0;      // forward compute start
    double bwd_begin_us = 0;      // backward compute start
  };

  void BuildUnits(comm::DeviceMesh& mesh);
  void InstallHooks();
  /// The clock when recording, else 0 (no clock read).
  double Now() const {
    return options_.record_events ? MonotonicMicros() : 0;
  }
  /// Records an entry for `op` on `unit` (nullptr: unit-less) spanning
  /// [t_begin, t_end]; t_end 0 leaves it for a later Finish. Returns its
  /// id, or -1 when not recording.
  int64_t Record(plan::Op op, const Unit* unit, plan::Phase phase,
                 double t_begin, double t_end, int64_t resident_bytes = 0,
                 bool prefetch = false);
  /// Times collective entry `id` from its completed Work handle.
  void FinishCollective(int64_t id, const comm::Work& work);

  /// Records the first non-OK collective Status (sticky; see status()).
  void NoteError(const Status& st) {
    if (status_.ok() && !st.ok()) status_ = st;
  }

  void ArmIteration();  // root pre-forward: per-iteration reset
  /// Issues a prefetch of `next` (if any) unless the rate limiter is full
  /// (Sec 3.4), in which case the prefetch is counted as throttled.
  void Prefetch(Unit* next, plan::Phase phase);
  /// Issues the unit's AllGather asynchronously (no-op if unsharded or
  /// already in flight) and counts it against the rate limiter. `phase` and
  /// `prefetch` annotate the recorded plan instruction.
  void IssueUnshard(Unit& unit, plan::Phase phase,
                    bool prefetch = false);
  /// First-use point: waits for the unit's pending AllGather (counting
  /// genuinely-pending waits) and releases its rate-limiter slot.
  void ConsumeUnshard(Unit& unit, plan::Phase phase = plan::Phase::kNone);

  void OnPreForward(Unit& unit);
  void OnPostForward(Unit& unit, const Tensor& output);
  void OnPreBackward(Unit& unit);
  void OnPostBackward(Unit& unit);
  void OnBackwardFinal();

  /// Backward prefetch target: previous unit in this iteration's forward
  /// order whose backward hasn't run (reverse pre-forward order, Sec 3.3.2).
  Unit* NextBackwardPrefetchTarget(const Unit& current);
  /// Forward prefetch target: unit after `current` in the previous
  /// iteration's forward order (Sec 3.3.3).
  Unit* NextForwardPrefetchTarget(const Unit& current);

  nn::ModulePtr module_;
  int rank_;
  int world_size_;
  FsdpOptions options_;
  std::vector<Unit> units_;

  bool require_sync_ = true;
  bool final_callback_queued_ = false;
  std::vector<int> forward_order_;       // unit indices, this iteration
  std::vector<int> prev_forward_order_;  // last completed iteration
  std::unordered_set<int> forward_seen_;
  bool order_changed_ = false;

  int inflight_ = 0;
  int max_inflight_ = 0;
  int throttled_prefetches_ = 0;
  int waits_on_pending_ = 0;
  Status status_;  // sticky first collective error (see status())
  plan::ExecLog own_log_;
  plan::ExecLog* log_ = &own_log_;  // own_log_ or the attached log
  int stage_ = 0;       // pipeline stage tag (composed runs)
  int microbatch_ = 0;  // microbatch tag (composed runs)
};

/// The functional frontend (`fully_shard`): installs FSDP on `module` via
/// nn::Module hooks, preserving the module structure and parameter FQNs.
/// The caller keeps invoking the module directly; the returned state manages
/// sharding and exposes Parameters()/state dicts.
std::shared_ptr<FsdpState> FullyShard(nn::ModulePtr module,
                                      comm::DeviceMesh& mesh, int rank,
                                      FsdpOptions options = {});

/// The wrapper frontend: an nn::Module that owns the wrapped model and its
/// FsdpState. Forward(x) simply runs the wrapped module (hooks drive FSDP).
class FullyShardedDataParallel : public nn::Module {
 public:
  FullyShardedDataParallel(nn::ModulePtr module, comm::DeviceMesh& mesh,
                           int rank, FsdpOptions options = {});

  Tensor Forward(const Tensor& input) override;
  std::string TypeName() const override { return "FullyShardedDataParallel"; }

  // Curated delegation core. Everything else — grad-sync toggles, unit
  // introspection, the execution log, rate-limiter counters — lives on the
  // shared runtime: use state().
  std::vector<Tensor> Parameters() { return state_->Parameters(); }
  std::vector<std::pair<std::string, Tensor>> FullStateDict() {
    return state_->FullStateDict();
  }
  void LoadFullStateDict(
      const std::vector<std::pair<std::string, Tensor>>& state) {
    state_->LoadFullStateDict(state);
  }
  std::vector<std::pair<std::string, Tensor>> ShardedStateDict() {
    return state_->ShardedStateDict();
  }
  FsdpState& state() { return *state_; }

  /// The execution log as trace events (FsdpState::trace_events()).
  std::vector<obs::TraceEvent> trace_events() const {
    return state_->trace_events();
  }

 private:
  nn::ModulePtr module_;
  std::shared_ptr<FsdpState> state_;
};

/// RAII accumulation guard (DDP-style no_sync) for FSDP; works with either
/// frontend through the shared state.
class FsdpNoSyncGuard {
 public:
  explicit FsdpNoSyncGuard(FsdpState& state) : state_(state) {
    state_.set_require_backward_grad_sync(false);
  }
  explicit FsdpNoSyncGuard(FullyShardedDataParallel& fsdp)
      : FsdpNoSyncGuard(fsdp.state()) {}
  ~FsdpNoSyncGuard() { state_.set_require_backward_grad_sync(true); }

 private:
  FsdpState& state_;
};

}  // namespace fsdp::core
