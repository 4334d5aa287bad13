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
// executes the step plan plan::BuildFsdpStepPlan (plan/builder.h) emits for
// its options over the observed forward order. The schedule — backward
// prefetch (Sec 3.3.2), forward prefetch by the previous iteration's order
// (Sec 3.3.3), reshard-after-forward with the outermost unit kept (Sec
// 3.3.1), the reductions a no_sync step skips (Sec 3.3.4) — is decided
// there; each hook runs its unit's instructions of that plan:
//
//   pre-forward   AllGather, forward prefetch, wait, start of the compute;
//   post-forward  reshard-after-forward; registers the pre-backward hook on
//                 the unit output (Sec 4.3 Tensor hook);
//   pre-backward  re-gather and wait;
//   post-backward (AccumulateGrad hook on the unsharded FlatParameter)
//                 backward prefetch, ReduceScatter(+AllReduce for hybrid),
//                 reshard;
//   end-backward  (queue_callback) completes the reductions (the plan's join).
//
// The plan is rebuilt at the first pre-backward of an iteration when the
// observed order (a dynamic graph; surfaced via order_changed() and the
// fsdp.order_changes counter) or require_backward_grad_sync changed. The
// hooks keep only guards: an unshard of a unit gathered or in flight does
// nothing; a hook out of plan order (activation-checkpoint recompute, unused
// units) still runs exactly its unit's instructions and gathers on demand.
//
// Unshards are *asynchronous*: the AllGather runs on the comm-worker runtime
// (comm/process_group.h) and the rank thread blocks only at the plan's wait,
// so prefetched gathers overlap compute. The rate limiter caps *pending*
// gathers at limit_all_gathers (default 2, the paper's minimum for overlap,
// Sec 3.4): a prefetch beyond it is skipped and its unit gathered on demand.
// ReduceScatters are issued at post-backward and completed at end of
// backward, so the rank thread never stalls behind a prefetched AllGather.
//
// Every action is recorded once, into this rank's plan::ExecLog: the
// executed plan instruction with its begin, exec-start and end times and its
// wire and resident bytes. Collectives are timed from their comm::Work
// handle when the rank thread waits on them; the hooks time computes, waits
// and reshards. The rest are views of that log: executed_plan() and its
// canonical projection executed_schedule() (compared against
// ExpectedStepPlan() and the simulator's plan by tests/plan_test.cc),
// trace_events() (also published to an enabled obs::TraceCollector), and
// obs::BuildStepProfiles, which reads the times from exec_log().
#pragma once

#include <array>
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
  /// The step plan the hooks execute: the shared PlanBuilder's runtime
  /// shape for this state's options, unit names in the last observed
  /// forward order (definition order before the first backward). A root
  /// module without parameters leaves its "[root]" slot a placeholder no
  /// hook runs. The anti-drift contract: executed_schedule() ==
  /// ExpectedStepPlan().Canonical() for a steady-state iteration.
  plan::StepPlan ExpectedStepPlan() const { return plan_; }
  int max_inflight_unshards() const { return max_inflight_; }
  int throttled_prefetches() const { return throttled_prefetches_; }
  /// How often a wait had to block on an AllGather that was still
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
  /// The unit hooks that run plan instructions.
  enum Hook : int { kPreForward, kPostForward, kPreBackward, kPostBackward,
                    kNumHooks };

  struct Unit {
    std::string name;
    nn::Module* module = nullptr;
    std::unique_ptr<FlatParamHandle> handle;
    /// Its hooks' instructions of the current plan (Instr::unit: units_).
    std::array<std::vector<plan::Instr>, kNumHooks> steps;
    bool ends_sharded = false;    // the plan reshards it in backward
    bool inflight = false;        // unsharded but not yet consumed
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
  int Index(const Unit& unit) const {
    return static_cast<int>(&unit - units_.data());
  }
  /// Builds plan_ over the observed order and hands out its instructions.
  void BuildPlan();

  /// The clock when recording, else 0 (no clock read).
  double Now() const {
    return options_.record_events ? MonotonicMicros() : 0;
  }
  /// Records executed instruction `in`, stamped with the stage and
  /// microbatch, spanning [t_begin, t_end]; t_end 0 leaves it for a later
  /// Finish. Returns its id, or -1 when not recording.
  int64_t Record(const plan::Instr& in, double t_begin, double t_end,
                 int64_t resident_bytes = 0);
  /// Times collective entry `id` from its completed Work handle.
  void FinishCollective(int64_t id, const comm::Work& work);

  /// Records the first non-OK collective Status (sticky; see status()).
  void NoteError(const Status& st) {
    if (status_.ok() && !st.ok()) status_ = st;
  }

  void ArmIteration();  // root pre-forward: per-iteration reset
  /// Executes one instruction on its unit: a plan instruction, or one a
  /// runtime guard issues outside the plan (fsdp.cc GuardInstr).
  void Execute(const plan::Instr& in);
  /// Runs a pre-forward / pre-backward hook: the unit's own gather (on
  /// demand if the plan has none here), its instructions, a final wait.
  void RunPreHook(Unit& unit, Hook hook, plan::Phase phase);
  void RunHook(Unit& unit, Hook hook) {
    for (const plan::Instr& in : unit.steps[hook]) Execute(in);
  }

  void OnPreForward(Unit& unit);
  void OnPostForward(Unit& unit, const Tensor& output);
  void OnPreBackward(Unit& unit);
  void OnPostBackward(Unit& unit) { RunHook(unit, kPostBackward); }
  void OnBackwardFinal();

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

  plan::StepPlan plan_;                       // the plan the hooks execute
  std::vector<int> plan_order_;               // forward order it was built on
  bool plan_sync_ = true;                     // require_sync_ it was built on
  std::vector<plan::Instr> end_of_backward_;  // its end-of-backward join

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
