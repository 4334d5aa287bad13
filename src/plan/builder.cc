#include "plan/builder.h"

#include <memory>

#include "common/status.h"

namespace fsdp::plan {

Status FsdpPlanOptions::Validate() const {
  if (microbatches < 1) {
    return Status::Invalid("microbatches must be >= 1, got " +
                           std::to_string(microbatches));
  }
  // The rate limiter blocks unshards on freed-buffer events; a plan that
  // never reshards has no free events to unblock on, so the gates would
  // starve the schedule (the simulator's CPU thread deadlocks in effect).
  if (limiter && !reshard_after_forward &&
      reshard == ReshardPolicy::kKeepUnsharded) {
    return Status::Invalid(
        "rate limiter would starve: no reshard ever frees an unsharded "
        "buffer (reshard_after_forward=false, reshard=keep_unsharded)");
  }
  return Status::OK();
}

FsdpPlanOptions FsdpPlanOptions::Runtime() {
  FsdpPlanOptions o;
  o.reshard = ReshardPolicy::kIfGradSync;
  return o;
}

FsdpPlanOptions FsdpPlanOptions::Sim() {
  FsdpPlanOptions o;
  o.root_compute_split = true;
  o.memory_instrs = true;
  return o;
}

namespace {

// Per-unit emission state. The builder decides the schedule: an unshard is
// only emitted for a currently sharded unit, and prefetch targets skip units
// already gathered or done with backward. core::FsdpState executes the
// runtime-shape plan as emitted; its guards only matter where execution
// departs from the plan (a throttled prefetch, a hook out of plan order).
struct UnitState {
  bool unsharded = false;
  bool backward_done = false;
  int last_unshard = -1;  // instr index of the latest kUnshard (dep anchor)
  bool pending_wait = false;  // gathered but not yet waited at a use point
};

class Emitter {
 public:
  Emitter(StepPlan& plan, const FsdpPlanOptions& o)
      : Emitter(plan, o, /*stage=*/0, /*unit_base=*/0,
                static_cast<int>(plan.unit_names.size()),
                /*tp_units=*/false, /*tp_bytes=*/0) {}

  /// Stage-scoped emitter for composed plans: operates on the `n_units`
  /// units starting at `unit_base` in the shared plan, tagging every
  /// instruction with `stage`. With `tp_units`, non-root units carry a
  /// kTpAllReduce after each forward and backward compute (the Megatron
  /// g / f-backward operators recorded by the TP layers).
  Emitter(StepPlan& plan, const FsdpPlanOptions& o, int stage, int unit_base,
          int n_units, bool tp_units, int64_t tp_bytes)
      : plan_(plan), o_(o), stage_(stage), base_(unit_base), st_(n_units),
        tp_(tp_units), tp_bytes_(tp_bytes) {}

  int Emit(Op op, int unit, Phase phase, Seg seg, Lane lane, bool prefetch,
           std::vector<int> deps) {
    Instr in;
    in.op = op;
    in.unit = unit < 0 ? -1 : base_ + unit;
    in.phase = phase;
    in.seg = seg;
    in.lane = lane;
    in.prefetch = prefetch;
    in.microbatch = mb_;
    in.stage = stage_;
    in.deps = std::move(deps);
    plan_.instrs.push_back(std::move(in));
    return plan_.size() - 1;
  }

  /// Tensor-parallel AllReduce on axis kTp, chained into the phase's
  /// serial order (the layers consume its result before the next compute).
  int EmitTpAllReduce(int unit, Phase phase, std::vector<int> deps) {
    int i = Emit(Op::kTpAllReduce, unit, phase, Seg::kMain, Lane::kComm,
                 false, std::move(deps));
    plan_.instrs[static_cast<size_t>(i)].axis = Axis::kTp;
    plan_.instrs[static_cast<size_t>(i)].bytes = tp_bytes_;
    return i;
  }

  void set_microbatch(int mb) { mb_ = mb; }
  std::vector<int>& opt_deps() { return opt_deps_; }

  /// Issue-unshard: rate-limiter gate (when modelled) + AllGather. No-op for
  /// an already gathered unit — the execution-layer guard.
  void Unshard(int u, Phase phase, bool prefetch) {
    if (st_[u].unsharded) return;
    if (o_.limiter) {
      Emit(Op::kRateLimitGate, u, phase, Seg::kMain, Lane::kHost, prefetch,
           {});
    }
    st_[u].last_unshard =
        Emit(Op::kUnshard, u, phase, Seg::kMain, Lane::kComm, prefetch, {});
    st_[u].unsharded = true;
    st_[u].pending_wait = true;
  }

  /// First-use wait on a pending AllGather. Emitted only when one is pending
  /// — matching the runtime, which records a wait only for an in-flight
  /// unshard.
  void MaybeWait(int u, Phase phase) {
    if (!st_[u].pending_wait) return;
    Emit(Op::kWaitUnshard, u, phase, Seg::kMain, Lane::kHost, false, {});
    st_[u].pending_wait = false;
  }

  int Compute(int u, Phase phase, Seg seg, std::vector<int> deps) {
    st_[u].pending_wait = false;  // compute is the use point
    return Emit(Op::kCompute, u, phase, seg, Lane::kCompute, false,
                std::move(deps));
  }

  /// Gradient-reduction chain for one unit: ReduceScatter (AllReduce under
  /// replication follows; CPU offload appends the D2H shard copy for
  /// non-root units — the simulator's long-standing shape). Returns the
  /// chain's tail instr.
  int ReduceChain(int u, bool offload_d2h) {
    int r = Emit(Op::kReduceGrad, u, Phase::kBackward, Seg::kMain, Lane::kComm,
                 false, {prev_bwd_});
    if (o_.replica_allreduce) {
      r = Emit(Op::kAllReduceReplicas, u, Phase::kBackward, Seg::kMain,
               Lane::kComm, false, {r});
    }
    if (o_.cpu_offload && offload_d2h) {
      r = Emit(Op::kGradOffloadD2H, u, Phase::kBackward, Seg::kMain,
               Lane::kComm, false, {r});
    }
    if (o_.memory_instrs) {
      Emit(Op::kFreeGrad, u, Phase::kBackward, Seg::kMain, Lane::kHost, false,
           {r});
    }
    opt_deps_.push_back(r);
    return r;
  }

  void BackwardReshard(int u, bool sync_mb) {
    if (o_.reshard == ReshardPolicy::kIfGradSync && !sync_mb) return;
    const bool retain = o_.reshard == ReshardPolicy::kKeepUnsharded;
    int r = Emit(Op::kReshard, u, Phase::kBackward, Seg::kMain, Lane::kHost,
                 false, {prev_bwd_});
    plan_.instrs[static_cast<size_t>(r)].retain = retain;
    if (!retain) st_[u].unsharded = false;
  }

  /// The forward half of one microbatch. `entry_dep` (composed plans: the
  /// stage's activation kRecvAct) gates the root compute; returns the index
  /// of the last forward-side instruction (the stage's output point).
  int ForwardPass(int entry_dep) {
    const int n = static_cast<int>(st_.size());
    for (UnitState& s : st_) s.backward_done = false;

    int input_ex = -1;
    if (o_.input_exchange) {
      input_ex = Emit(Op::kInputExchange, -1, Phase::kForward, Seg::kMain,
                      Lane::kComm, false, {});
    }
    // Root gathered first and kept through forward (Sec 3.3.1); the forward
    // prefetch of the first unit is issued before the root's wait.
    Unshard(0, Phase::kForward, false);
    if (o_.forward_prefetch && n > 1) Unshard(1, Phase::kForward, true);
    MaybeWait(0, Phase::kForward);
    std::vector<int> root_deps;
    if (st_[0].last_unshard >= 0) root_deps.push_back(st_[0].last_unshard);
    if (input_ex >= 0) root_deps.push_back(input_ex);
    if (entry_dep >= 0) root_deps.push_back(entry_dep);
    int prev_fwd = Compute(
        0, Phase::kForward,
        o_.root_compute_split ? Seg::kRootPre : Seg::kMain,
        std::move(root_deps));

    for (int i = 1; i < n; ++i) {
      Unshard(i, Phase::kForward, false);
      if (o_.forward_prefetch && i + 1 < n) {
        Unshard(i + 1, Phase::kForward, true);
      }
      MaybeWait(i, Phase::kForward);
      std::vector<int> deps;
      if (st_[i].last_unshard >= 0) deps.push_back(st_[i].last_unshard);
      prev_fwd = Compute(i, Phase::kForward, Seg::kMain, std::move(deps));
      if (tp_) {
        // RowParallel output partial sums combine before the next layer
        // consumes them (Megatron's g operator) — recorded after the
        // unit's forward compute, which the hooks record at entry.
        prev_fwd = EmitTpAllReduce(i, Phase::kForward, {prev_fwd});
      }
      if (o_.reshard_after_forward) {
        Emit(Op::kReshard, i, Phase::kForward, Seg::kMain, Lane::kHost, false,
             {prev_fwd});
        st_[i].unsharded = false;
      }
    }
    if (o_.root_compute_split) {
      // Head / logits close the forward and open the backward.
      std::vector<int> deps{prev_fwd};
      if (st_[0].last_unshard >= 0) deps.push_back(st_[0].last_unshard);
      int head_fwd =
          Compute(0, Phase::kForward, Seg::kRootHead, std::move(deps));
      prev_bwd_ = Compute(0, Phase::kBackward, Seg::kRootHead, {head_fwd});
    } else {
      prev_bwd_ = -1;
    }
    return prev_fwd;
  }

  /// The backward half of one microbatch. `entry_dep` (composed plans: the
  /// stage's gradient kRecvAct) seeds the backward chain; returns the root
  /// backward compute index (the stage's input-gradient point).
  int BackwardPass(int entry_dep, bool sync_mb) {
    const int n = static_cast<int>(st_.size());
    if (entry_dep >= 0 && prev_bwd_ < 0) prev_bwd_ = entry_dep;

    for (int idx = n - 1; idx >= 1; --idx) {
      Unshard(idx, Phase::kBackward, false);  // re-gather under RAF
      MaybeWait(idx, Phase::kBackward);
      if (tp_) {
        // The f operator's backward: the unit's partial input gradients
        // combine via AllReduce (Megatron Sec 3). The engine schedules the
        // TpInput node ahead of the unit's parameter-gradient tasks, so the
        // AllReduce issues after the unit's pre-backward unshard/wait and
        // BEFORE the post-backward hook's records (compute, prefetch,
        // reduce, reshard) — the TP AllReduce opens the unit's backward
        // block (verified against the real hook stream in
        // tests/compose_test.cc).
        std::vector<int> tdeps;
        if (st_[idx].last_unshard >= 0) tdeps.push_back(st_[idx].last_unshard);
        if (prev_bwd_ >= 0) tdeps.push_back(prev_bwd_);
        prev_bwd_ =
            EmitTpAllReduce(idx, Phase::kBackward, std::move(tdeps));
      }
      std::vector<int> deps;
      if (st_[idx].last_unshard >= 0) deps.push_back(st_[idx].last_unshard);
      if (prev_bwd_ >= 0) deps.push_back(prev_bwd_);
      prev_bwd_ = Compute(idx, Phase::kBackward, Seg::kMain, std::move(deps));
      st_[idx].backward_done = true;

      // Backward prefetch: the next AllGather ahead of this ReduceScatter
      // (Sec 3.3.2). Target = the nearest earlier unit in forward order
      // (reverse forward order approximates backward order) that is neither
      // finished nor already gathered.
      if (o_.backward_prefetch) {
        for (int j = idx - 1; j >= 0; --j) {
          if (st_[j].backward_done || st_[j].unsharded) continue;
          Unshard(j, Phase::kBackward, true);
          break;
        }
      }
      if (sync_mb) ReduceChain(idx, /*offload_d2h=*/true);
      BackwardReshard(idx, sync_mb);
      if (o_.memory_instrs) {
        Emit(Op::kFreeAct, idx, Phase::kBackward, Seg::kMain, Lane::kHost,
             false, {prev_bwd_});
      }
    }

    // Root backward and its reduction (no D2H: the simulator has always kept
    // the root gradient shard on device).
    std::vector<int> rdeps;
    if (prev_bwd_ >= 0) rdeps.push_back(prev_bwd_);
    prev_bwd_ = Compute(0, Phase::kBackward,
                        o_.root_compute_split ? Seg::kRootPre : Seg::kMain,
                        std::move(rdeps));
    st_[0].backward_done = true;
    opt_deps_.push_back(prev_bwd_);
    if (sync_mb) ReduceChain(0, /*offload_d2h=*/false);
    BackwardReshard(0, sync_mb);
    return prev_bwd_;
  }

  /// End-of-backward join: the issued reductions complete before the
  /// optimizer may observe gradients (queue_callback, Sec 4.3).
  void EmitWaitReduce() {
    Emit(Op::kWaitReduceGrad, -1, Phase::kBackward, Seg::kMain, Lane::kHost,
         false, {});
  }

  bool SyncMicrobatch(int mb, int microbatches) const {
    return o_.accum != AccumMode::kNoSync &&
           (o_.accum == AccumMode::kReduceEveryMicrobatch ||
            mb + 1 == microbatches);
  }

  void BuildMicrobatch() {
    const bool sync_mb = SyncMicrobatch(mb_, o_.microbatches);
    ForwardPass(/*entry_dep=*/-1);
    BackwardPass(/*entry_dep=*/-1, sync_mb);
    if (sync_mb) EmitWaitReduce();
  }

  void Build() {
    for (mb_ = 0; mb_ < o_.microbatches; ++mb_) BuildMicrobatch();
    Emit(Op::kOptimStep, -1, Phase::kNone, Seg::kMain, Lane::kCompute, false,
         std::move(opt_deps_));
  }

 private:
  StepPlan& plan_;
  const FsdpPlanOptions& o_;
  int stage_ = 0;
  int base_ = 0;
  std::vector<UnitState> st_;
  bool tp_ = false;
  int64_t tp_bytes_ = 0;
  int mb_ = 0;
  int prev_bwd_ = -1;
  std::vector<int> opt_deps_;
};

}  // namespace

StepPlan BuildFsdpStepPlan(const std::vector<std::string>& unit_names,
                           const FsdpPlanOptions& options) {
  FSDP_CHECK_MSG(!unit_names.empty(), "plan needs at least the root unit");
  const Status st = options.Validate();
  FSDP_CHECK_MSG(st.ok(), st.message());
  StepPlan plan;
  plan.unit_names = unit_names;
  Emitter(plan, options).Build();
  return plan;
}

StepPlan BuildDdpStepPlan(const std::vector<std::string>& unit_names,
                          const DdpPlanOptions& options) {
  FSDP_CHECK_MSG(!unit_names.empty(), "plan needs at least the root unit");
  FSDP_CHECK_MSG(options.unit_bytes.size() == unit_names.size(),
                 "unit_bytes must match unit_names");
  StepPlan plan;
  plan.unit_names = unit_names;
  const int n = static_cast<int>(unit_names.size());
  auto emit = [&](Op op, int unit, Phase phase, Seg seg, Lane lane,
                  int64_t bytes, std::vector<int> deps) {
    Instr in;
    in.op = op;
    in.unit = unit;
    in.phase = phase;
    in.seg = seg;
    in.lane = lane;
    in.bytes = bytes;
    in.deps = std::move(deps);
    plan.instrs.push_back(std::move(in));
    return plan.size() - 1;
  };

  // Forward: root prologue, units in order, head epilogue.
  int prev = emit(Op::kCompute, 0, Phase::kForward, Seg::kRootPre,
                  Lane::kCompute, 0, {});
  for (int i = 1; i < n; ++i) {
    prev = emit(Op::kCompute, i, Phase::kForward, Seg::kMain, Lane::kCompute,
                0, {});
  }
  prev = emit(Op::kCompute, 0, Phase::kForward, Seg::kRootHead, Lane::kCompute,
              0, {prev});
  // Backward: head first, then reverse unit order with bucketed AllReduce
  // overlap — a bucket's reduction is issued as soon as enough gradient
  // bytes accumulate (reverse order approximates readiness order).
  prev = emit(Op::kCompute, 0, Phase::kBackward, Seg::kRootHead,
              Lane::kCompute, 0, {prev});
  std::vector<int> opt_deps;
  int64_t bucket_fill = 0;
  for (int i = n - 1; i >= 1; --i) {
    prev = emit(Op::kCompute, i, Phase::kBackward, Seg::kMain, Lane::kCompute,
                0, {prev});
    bucket_fill += options.unit_bytes[static_cast<size_t>(i)];
    if (bucket_fill >= options.bucket_bytes || i == 1) {
      opt_deps.push_back(emit(Op::kReduceGrad, i, Phase::kBackward, Seg::kMain,
                              Lane::kComm, bucket_fill, {prev}));
      bucket_fill = 0;
    }
  }
  // Root parameters reduce in the final bucket.
  opt_deps.push_back(emit(Op::kReduceGrad, 0, Phase::kBackward, Seg::kMain,
                          Lane::kComm, options.unit_bytes[0], {prev}));
  emit(Op::kOptimStep, -1, Phase::kNone, Seg::kMain, Lane::kCompute, 0,
       std::move(opt_deps));
  return plan;
}

Status ComposedPlanOptions::Validate() const {
  if (pp_stages < 1) {
    return Status::Invalid("pp_stages must be >= 1, got " +
                           std::to_string(pp_stages));
  }
  if (microbatches < 1) {
    return Status::Invalid("microbatches must be >= 1, got " +
                           std::to_string(microbatches));
  }
  if (tp_degree < 1) {
    return Status::Invalid("tp_degree must be >= 1, got " +
                           std::to_string(tp_degree));
  }
  if (fsdp.root_compute_split && pp_stages > 1) {
    return Status::Invalid(
        "root_compute_split is a single-stage simulator shape; pipeline "
        "stages model their boundary with send/recv instead");
  }
  return fsdp.Validate();
}

StepPlan BuildComposedStepPlan(
    const std::vector<std::vector<std::string>>& stage_units,
    const ComposedPlanOptions& options) {
  FSDP_CHECK_MSG(static_cast<int>(stage_units.size()) == options.pp_stages,
                 "stage_units has " << stage_units.size()
                                    << " stages, options.pp_stages = "
                                    << options.pp_stages);
  const Status vst = options.Validate();
  FSDP_CHECK_MSG(vst.ok(), vst.message());

  StepPlan plan;
  const int S = options.pp_stages;
  std::vector<int> base(static_cast<size_t>(S), 0);
  for (int s = 0; s < S; ++s) {
    FSDP_CHECK_MSG(!stage_units[static_cast<size_t>(s)].empty(),
                   "stage " << s << " needs at least its root unit");
    base[static_cast<size_t>(s)] = static_cast<int>(plan.unit_names.size());
    plan.unit_names.insert(plan.unit_names.end(),
                           stage_units[static_cast<size_t>(s)].begin(),
                           stage_units[static_cast<size_t>(s)].end());
  }

  // Every stage runs the same FSDP shape under the composed microbatch loop.
  FsdpPlanOptions fo = options.fsdp;
  fo.microbatches = options.microbatches;
  const bool tp = options.tp_degree > 1;
  std::vector<std::unique_ptr<Emitter>> em;
  em.reserve(static_cast<size_t>(S));
  for (int s = 0; s < S; ++s) {
    em.push_back(std::make_unique<Emitter>(
        plan, fo, s, base[static_cast<size_t>(s)],
        static_cast<int>(stage_units[static_cast<size_t>(s)].size()), tp,
        options.tp_bytes));
  }

  auto emit_p2p = [&](Op op, int stage, int peer, Phase phase, int mb,
                      std::vector<int> deps) {
    Instr in;
    in.op = op;
    in.unit = -1;
    in.phase = phase;
    in.seg = Seg::kMain;
    in.lane = Lane::kComm;
    in.microbatch = mb;
    in.axis = Axis::kPp;
    in.stage = stage;
    in.peer_stage = peer;
    in.bytes = options.act_bytes;
    in.deps = std::move(deps);
    plan.instrs.push_back(std::move(in));
    return plan.size() - 1;
  };

  for (int mb = 0; mb < options.microbatches; ++mb) {
    for (auto& e : em) e->set_microbatch(mb);
    const bool sync_mb = em[0]->SyncMicrobatch(mb, options.microbatches);

    // Forward sweep: stage s hands its activation to s+1. The recv's
    // cross-stage dep edge is the microbatch-indexed send that feeds it.
    std::vector<int> fwd_send(static_cast<size_t>(S), -1);
    for (int s = 0; s < S; ++s) {
      int entry = -1;
      if (s > 0) {
        entry = emit_p2p(Op::kRecvAct, s, s - 1, Phase::kForward, mb,
                         {fwd_send[static_cast<size_t>(s - 1)]});
      }
      const int out = em[static_cast<size_t>(s)]->ForwardPass(entry);
      if (s + 1 < S) {
        fwd_send[static_cast<size_t>(s)] =
            emit_p2p(Op::kSendAct, s, s + 1, Phase::kForward, mb, {out});
      }
    }

    // Backward sweep: stage s hands the input gradient back to s-1. The
    // end-of-backward reduction join (WaitReduceGrad) fires inside each
    // stage's backward before the boundary send, matching the runtime's
    // end-of-backward callback.
    std::vector<int> bwd_send(static_cast<size_t>(S), -1);
    for (int s = S - 1; s >= 0; --s) {
      int entry = -1;
      if (s + 1 < S) {
        entry = emit_p2p(Op::kRecvAct, s, s + 1, Phase::kBackward, mb,
                         {bwd_send[static_cast<size_t>(s + 1)]});
      }
      const int in_grad =
          em[static_cast<size_t>(s)]->BackwardPass(entry, sync_mb);
      if (sync_mb) em[static_cast<size_t>(s)]->EmitWaitReduce();
      if (s > 0) {
        bwd_send[static_cast<size_t>(s)] =
            emit_p2p(Op::kSendAct, s, s - 1, Phase::kBackward, mb, {in_grad});
      }
    }
  }

  // One terminal optimizer join across every stage's reductions (stage -1:
  // all stages execute it).
  std::vector<int> opt_deps;
  for (auto& e : em) {
    opt_deps.insert(opt_deps.end(), e->opt_deps().begin(),
                    e->opt_deps().end());
  }
  Instr opt;
  opt.op = Op::kOptimStep;
  opt.unit = -1;
  opt.lane = Lane::kCompute;
  opt.stage = -1;
  opt.deps = std::move(opt_deps);
  plan.instrs.push_back(std::move(opt));
  return plan;
}

}  // namespace fsdp::plan
