#include "core/fsdp.h"

#include <algorithm>
#include <unordered_map>

#include "autograd/engine.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace fsdp::core {

namespace {

// An instruction a runtime guard executes outside the plan: an on-demand
// gather, a wait, or an end-of-backward reshard of unit `unit`.
plan::Instr GuardInstr(plan::Op op, int unit, plan::Phase phase) {
  plan::Instr in;
  in.op = op;
  in.unit = unit;
  in.phase = phase;
  in.lane = op == plan::Op::kUnshard ? plan::Lane::kComm : plan::Lane::kHost;
  return in;
}

}  // namespace

const char* ShardingStrategyName(ShardingStrategy s) {
  switch (s) {
    case ShardingStrategy::kFullShard: return "FULL_SHARD";
    case ShardingStrategy::kShardGradOp: return "SHARD_GRAD_OP";
    case ShardingStrategy::kNoShard: return "NO_SHARD";
    case ShardingStrategy::kHybridShard: return "HYBRID_SHARD";
    case ShardingStrategy::kHybridShardZero2: return "HYBRID_SHARD_ZERO2";
  }
  return "?";
}

bool ReshardAfterForward(ShardingStrategy s) {
  return s == ShardingStrategy::kFullShard ||
         s == ShardingStrategy::kHybridShard;
}

Status FsdpOptions::Validate(int world_size, int sharding_factor) const {
  // The mesh's sharding factor must match the strategy (paper Sec 3.2).
  switch (strategy) {
    case ShardingStrategy::kFullShard:
    case ShardingStrategy::kShardGradOp:
      if (sharding_factor != world_size) {
        return Status::Invalid(std::string(ShardingStrategyName(strategy)) +
                               " requires sharding factor == world size");
      }
      break;
    case ShardingStrategy::kNoShard:
      if (sharding_factor != 1) {
        return Status::Invalid("NO_SHARD requires sharding factor 1");
      }
      break;
    case ShardingStrategy::kHybridShard:
    case ShardingStrategy::kHybridShardZero2:
      if (sharding_factor < 1 || sharding_factor > world_size) {
        return Status::Invalid("hybrid sharding factor out of range");
      }
      break;
  }
  // <= 0 could only mean "disabled"; 0 is the canonical spelling. A negative
  // value is almost certainly an arithmetic bug at the call site, and an
  // absurdly large cap defeats the limiter's purpose (Sec 3.4).
  if (limit_all_gathers < 0) {
    return Status::Invalid("limit_all_gathers must be >= 0 (0 disables)");
  }
  if (limit_all_gathers > 1024) {
    return Status::Invalid("limit_all_gathers out of range (max 1024)");
  }
  for (DType d : {mixed_precision.param_dtype, mixed_precision.reduce_dtype,
                  mixed_precision.buffer_dtype}) {
    if (!IsFloatingPoint(d)) {
      return Status::Invalid(
          "mixed-precision dtypes must be floating point");
    }
  }
  return Status::OK();
}

FsdpState::FsdpState(nn::ModulePtr module, comm::DeviceMesh& mesh, int rank,
                     FsdpOptions options)
    : module_(std::move(module)), rank_(rank),
      world_size_(mesh.world_size()), options_(std::move(options)),
      own_log_(rank) {
  if (!options_.auto_wrap_policy) options_.auto_wrap_policy = NoWrapPolicy();

  options_.Validate(world_size_, mesh.sharding_factor()).Check();

  BuildUnits(mesh);
  for (Unit& unit : units_) unit.log_unit = own_log_.UnitIndex(unit.name);
  BuildPlan();
  // Per-iteration arming runs before any unit logic: register on the root
  // module ahead of the unit hooks (pre-hooks run in registration order).
  module_->RegisterForwardPreHook([this](nn::Module&, const Tensor&) {
    ArmIteration();
    return Tensor();
  });
  InstallHooks();

  for (Unit& unit : units_) {
    unit.handle->MaterializeAndShard(options_.sync_module_states);
  }
  // Cast non-trainable buffers once at wrap time (Sec 4.4 buffer_dtype).
  if (options_.mixed_precision.buffer_dtype != DType::kF32) {
    for (auto& [name, slot] : module_->NamedBuffers()) {
      if (slot->device() == Device::kCpu) {
        *slot = slot->CastTo(options_.mixed_precision.buffer_dtype);
      }
    }
  }
}

void FsdpState::BuildUnits(comm::DeviceMesh& mesh) {
  // Deepest-first assignment, post-order (children in registration order
  // before their parent): nested annotated blocks claim their parameters
  // first and the parent (ultimately the root) receives the residuals —
  // the paper's nested-annotation rule (Sec 4.2).
  struct PendingUnit {
    std::string name;
    nn::Module* module;
    std::vector<std::pair<std::string, Tensor*>> named_slots;
  };
  std::vector<PendingUnit> pending;
  std::unordered_map<const TensorImpl*, size_t> impl_to_unit;
  constexpr size_t kIgnored = static_cast<size_t>(-1);

  std::function<void(nn::Module&, const std::string&)> visit =
      [&](nn::Module& mod, const std::string& fqn) {
        // Ignored subtrees: claim their parameters for "nobody" so neither
        // this subtree nor any ancestor unit flattens them.
        if (!fqn.empty() && options_.ignore_policy &&
            options_.ignore_policy(mod, fqn)) {
          for (auto& [pname, slot] : mod.NamedParameters()) {
            impl_to_unit.emplace(slot->impl().get(), kIgnored);
          }
          return;
        }
        for (auto& [child_name, child] : mod.Children()) {
          visit(*child, fqn.empty() ? child_name : fqn + "." + child_name);
        }
        const bool is_root = fqn.empty();
        if (!is_root && !options_.auto_wrap_policy(mod, fqn)) return;

        std::vector<std::pair<std::string, Tensor*>> named_slots;
        const std::string prefix = is_root ? "" : fqn + ".";
        for (auto& [pname, slot] : mod.NamedParameters()) {
          if (impl_to_unit.count(slot->impl().get())) continue;
          named_slots.emplace_back(prefix + pname, slot);
        }
        if (named_slots.empty()) return;
        for (auto& [pname, slot] : named_slots) {
          impl_to_unit.emplace(slot->impl().get(), pending.size());
        }
        pending.push_back(PendingUnit{is_root ? "[root]" : fqn, &mod,
                                      std::move(named_slots)});
      };
  visit(*module_, "");
  FSDP_CHECK_MSG(!pending.empty(), "model has no parameters to wrap");

  // Shared-parameter alias pass: a slot elsewhere in the model aliasing a
  // claimed impl must also be redirected to the claiming unit's views
  // (within one unit this is safe; across units it reproduces the Sec 7.2.2
  // pitfall when the claiming unit reshards first).
  std::vector<std::unordered_set<Tensor*>> unit_slots(pending.size());
  for (size_t u = 0; u < pending.size(); ++u) {
    for (auto& [pname, slot] : pending[u].named_slots) {
      unit_slots[u].insert(slot);
    }
  }
  for (auto& [pname, slot] : module_->NamedParameters()) {
    auto it = impl_to_unit.find(slot->impl().get());
    if (it == impl_to_unit.end() || it->second == kIgnored) continue;
    if (unit_slots[it->second].insert(slot).second) {
      pending[it->second].named_slots.emplace_back(pname, slot);
    }
  }

  // Store outermost-first (root, if it formed a unit, is unit 0).
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    Unit unit;
    unit.name = it->name;
    unit.module = it->module;
    unit.handle = std::make_unique<FlatParamHandle>(
        unit.name, BuildParamInfos(it->named_slots), mesh.ShardGroup(rank_),
        mesh.sharding_factor() < world_size_ ? mesh.ReplicateGroup(rank_)
                                             : comm::ProcessGroup(),
        options_.mixed_precision);
    units_.push_back(std::move(unit));
  }
}

void FsdpState::InstallHooks() {
  for (size_t i = 0; i < units_.size(); ++i) {
    Unit* unit = &units_[i];
    unit->module->RegisterForwardPreHook(
        [this, unit](nn::Module&, const Tensor&) {
          OnPreForward(*unit);
          return Tensor();
        });
    unit->module->RegisterForwardPostHook(
        [this, unit](nn::Module&, const Tensor&, const Tensor& output) {
          OnPostForward(*unit, output);
          return Tensor();
        });
    unit->handle->SetPostBackwardHook([this, unit] { OnPostBackward(*unit); });
  }
}

void FsdpState::AttachExecLog(plan::ExecLog* log, int stage) {
  log_ = log ? log : &own_log_;
  stage_ = stage;
  for (Unit& unit : units_) unit.log_unit = log_->UnitIndex(unit.name);
}

void FsdpState::BuildPlan() {
  // Plan order: the forward order observed this iteration, then every unit
  // it did not reach (definition order), so each unit has its instructions
  // even in a step that skips it. A root module that owns no parameters
  // forms no unit: the plan's root slot is then a placeholder (-1).
  std::vector<int> order = forward_order_;
  if (units_[0].module != module_.get()) {
    order.insert(order.begin(), -1);
  } else if (order.empty()) {
    order.push_back(0);
  }
  for (int i = num_units(); i-- > 0;) {
    if (std::find(order.begin(), order.end(), i) == order.end()) {
      order.push_back(i);
    }
  }
  std::vector<std::string> names;
  for (int i : order) {
    names.push_back(i < 0 ? "[root]" : units_[static_cast<size_t>(i)].name);
  }

  plan::FsdpPlanOptions o = plan::FsdpPlanOptions::Runtime();
  o.reshard_after_forward = ReshardAfterForward(options_.strategy);
  o.backward_prefetch = options_.backward_prefetch;
  // Forward prefetch follows the previous iteration's order (Sec 3.3.3):
  // there is none before an order was observed.
  o.forward_prefetch = options_.forward_prefetch && !forward_order_.empty();
  o.replica_allreduce = units_[0].handle->replicate_pg().valid();
  o.accum = require_sync_ ? plan::AccumMode::kReduceEveryMicrobatch
                          : plan::AccumMode::kNoSync;
  plan_ = plan::BuildFsdpStepPlan(names, o);
  plan_order_ = forward_order_;
  plan_sync_ = require_sync_;

  // Hand each hook its instructions, unit indices mapped onto units_.
  for (Unit& unit : units_) {
    for (auto& steps : unit.steps) steps.clear();
    unit.ends_sharded = false;
  }
  end_of_backward_.clear();
  for (size_t k = 0; k < plan_.instrs.size(); ++k) {
    // A prefetch runs with its neighbour: a forward prefetch in the hook of
    // the unit whose compute follows it (Sec 3.3.3), a backward prefetch in
    // the hook of the unit whose backward precedes it (Sec 3.3.2).
    size_t anchor = k;
    while (plan_.instrs[anchor].op == plan::Op::kUnshard &&
           plan_.instrs[anchor].prefetch) {
      anchor = plan_.instrs[anchor].phase == plan::Phase::kForward
                   ? anchor + 1
                   : anchor - 1;
    }
    const plan::Instr& a = plan_.instrs[anchor];
    plan::Instr in = plan_.instrs[k];
    in.deps.clear();
    if (in.op == plan::Op::kWaitReduceGrad) {
      end_of_backward_.push_back(std::move(in));
      continue;
    }
    // The optimizer step is the caller's; a placeholder root's instructions
    // run nowhere.
    if (in.unit < 0 || order[static_cast<size_t>(a.unit)] < 0) continue;
    in.unit = order[static_cast<size_t>(in.unit)];
    if (in.op == plan::Op::kReshard && in.phase == plan::Phase::kBackward) {
      units_[static_cast<size_t>(in.unit)].ends_sharded = true;
    }
    // Gathers and waits precede the unit's compute; forward compute starts
    // in pre-forward; backward compute, reductions and the backward reshard
    // close the unit's backward in post-backward.
    const bool gather =
        a.op == plan::Op::kUnshard || a.op == plan::Op::kWaitUnshard;
    const Hook hook =
        a.phase == plan::Phase::kForward
            ? (a.op == plan::Op::kReshard ? kPostForward : kPreForward)
            : (gather ? kPreBackward : kPostBackward);
    units_[static_cast<size_t>(order[static_cast<size_t>(a.unit)])]
        .steps[hook]
        .push_back(std::move(in));
  }
}

int64_t FsdpState::Record(const plan::Instr& in, double t_begin, double t_end,
                          int64_t resident_bytes) {
  if (!options_.record_events) return -1;
  plan::ExecEntry e;
  e.instr = in;
  if (in.unit >= 0) {
    e.instr.unit = units_[static_cast<size_t>(in.unit)].log_unit;
  }
  e.instr.stage = stage_;
  e.instr.microbatch = microbatch_;
  e.kind = plan::ToEventKind(in.op, in.phase);
  e.t_begin_us = e.t_exec_us = t_begin;
  e.t_end_us = t_end;
  e.resident_bytes = resident_bytes;
  return log_->Record(std::move(e));
}

void FsdpState::FinishCollective(int64_t id, const comm::Work& work) {
  if (id < 0) return;
  log_->Finish(id, work.issue_us(), work.start_us(), work.complete_us(),
               work.bytes());
}

void FsdpState::ArmIteration() {
  // New iteration: arm per-pass state. (Multiple forwards before a backward
  // keep appending to forward_order_ — the order rolls over only when a
  // backward completes.)
  if (forward_seen_.empty()) forward_order_.clear();
}

void FsdpState::Execute(const plan::Instr& in) {
  Unit& unit = units_[static_cast<size_t>(in.unit)];
  const int64_t unit_bytes = unit.handle->padded_numel() * 4;
  switch (in.op) {
    case plan::Op::kUnshard:
      // Issue guard: a unit already gathered or in flight needs nothing.
      if (unit.inflight || unit.handle->is_unsharded()) return;
      // Rate limiter (Sec 3.4): a prefetch past limit_all_gathers pending
      // gathers is skipped; the unit's own pre-hook gathers it on demand.
      if (in.prefetch && options_.limit_all_gathers > 0 &&
          inflight_ >= options_.limit_all_gathers) {
        ++throttled_prefetches_;
        obs::MetricsRegistry::Get()
            .GetCounter("fsdp.throttled_prefetches")
            .Add(1);
        FSDP_LOG(kDebug,
                 "throttle " << unit.name << " (inflight " << inflight_ << ")");
        return;
      }
      // Async issue: the AllGather proceeds on the comm worker while this
      // rank thread keeps computing; the wait times the entry from the Work.
      unit.handle->UnshardAsync(unit.name);
      FSDP_LOG(kDebug, "AG " << unit.name << " (" << unit_bytes << " bytes)");
      unit.gather_entry = Record(in, 0, 0, unit_bytes);
      unit.inflight = true;
      max_inflight_ = std::max(max_inflight_, ++inflight_);
      return;
    case plan::Op::kWaitUnshard:
      // Blocks only on an in-flight gather (counting genuinely pending
      // ones), and frees the unit's rate-limiter slot.
      if (unit.handle->unshard_in_flight()) {
        if (!unit.handle->unshard_work().Completed()) ++waits_on_pending_;
        const comm::Work gather = options_.record_events
                                      ? unit.handle->unshard_work()
                                      : comm::Work();
        const double t0 = Now();
        NoteError(unit.handle->WaitUnshard());
        FinishCollective(unit.gather_entry, gather);
        unit.gather_entry = -1;
        Record(in, t0, Now());
      }
      if (unit.inflight) {
        unit.inflight = false;
        --inflight_;
      }
      return;
    case plan::Op::kCompute:
      if (in.phase == plan::Phase::kForward) {
        // Starts after the unit's wait, so the compute span never absorbs
        // the gather wait (the overlap assertions would trivially pass).
        unit.fwd_begin_us = Now();
        unit.fwd_entry = Record(in, unit.fwd_begin_us, 0);
      } else {
        // The unit's backward ran from its pre-backward to this hook.
        const double now = Now();
        Record(in, unit.bwd_begin_us > 0 ? unit.bwd_begin_us : now, now);
        unit.bwd_begin_us = 0;
      }
      return;
    case plan::Op::kReshard: {
      const double t0 = Now();
      unit.handle->Reshard();  // also lands a gather still in flight
      Record(in, t0, Now());
      return;
    }
    case plan::Op::kReduceGrad:
      // Async issue of the ReduceScatter; OnBackwardFinal waits for it (and
      // runs the hybrid replica AllReduce) so the rank thread never stalls
      // here behind a prefetched AllGather on the same comm stream.
      unit.handle->BeginGradientReduce(static_cast<float>(world_size_),
                                       unit.name);
      unit.reduce_entry = Record(in, 0, 0, unit_bytes);
      return;
    case plan::Op::kAllReduceReplicas:
      // Recorded here, in issue order; run and timed at end of backward.
      unit.replica_entry = Record(in, 0, 0, unit_bytes);
      return;
    default:
      FSDP_CHECK_MSG(false, "no FSDP hook runs " << plan::OpName(in.op));
  }
}

void FsdpState::RunPreHook(Unit& unit, Hook hook, plan::Phase phase) {
  // The unit's own gather leads: the plan's, or — when the plan counted on
  // a prefetch the rate limiter skipped, or the hook fired out of plan
  // order — one on demand. Either way it is issued before the hook's
  // prefetches, so the limiter counts it first.
  const std::vector<plan::Instr>& steps = unit.steps[hook];
  if (steps.empty() || steps[0].op != plan::Op::kUnshard ||
      steps[0].unit != Index(unit)) {
    Execute(GuardInstr(plan::Op::kUnshard, Index(unit), phase));
  }
  for (const plan::Instr& in : steps) Execute(in);
  // The parameters are read next: wait on a gather still in flight.
  Execute(GuardInstr(plan::Op::kWaitUnshard, Index(unit), phase));
}

void FsdpState::OnPreForward(Unit& unit) {
  const int index = Index(unit);
  if (forward_seen_.insert(index).second) forward_order_.push_back(index);
  RunPreHook(unit, kPreForward, plan::Phase::kForward);
  unit.handle->UseUnshardedViews();
}

void FsdpState::OnPostForward(Unit& unit, const Tensor& output) {
  // The unit's own compute ran since pre-forward: the entry ends here.
  if (unit.fwd_entry >= 0) {
    log_->Finish(unit.fwd_entry, unit.fwd_begin_us, unit.fwd_begin_us, Now());
    unit.fwd_entry = -1;
  }
  // An activation-checkpoint recompute re-enters this unit's forward from
  // inside the backward pass: keep the parameters unsharded (the imminent
  // nested backward needs them; its post-backward reshards) and skip the
  // pre-backward registration (the unit is already unsharded).
  if (autograd::InBackward()) return;
  RunHook(unit, kPostForward);
  // Pre-backward anchor: a Tensor hook on the unit's forward output fires
  // when the output's gradient is ready, just before backward enters the
  // unit (Sec 4.3).
  if (output.defined() && Participates(output.impl())) {
    Unit* u = &unit;
    const_cast<Tensor&>(output).register_hook([this, u](const Tensor&) {
      OnPreBackward(*u);
      return Tensor();
    });
  }
}

void FsdpState::OnPreBackward(Unit& unit) {
  if (!final_callback_queued_) {
    final_callback_queued_ = true;
    autograd::QueueCallback([this] { OnBackwardFinal(); });
    // First pre-backward of the iteration: its forward order is complete.
    if (forward_order_ != plan_order_ || require_sync_ != plan_sync_) {
      BuildPlan();
    }
  }
  RunPreHook(unit, kPreBackward, plan::Phase::kBackward);
  // The unit's backward compute runs from here until its post-backward hook
  // (stamped after the gather wait, like the forward compute).
  unit.bwd_begin_us = Now();
}

void FsdpState::OnBackwardFinal() {
  // End of backward (Sec 4.3 queue_callback): complete the in-flight
  // gradient reductions (wait on the async ReduceScatters, run the hybrid
  // replica AllReduce, divide and accumulate), reshard what the plan
  // expected sharded but is still gathered (a prefetch no hook used, a unit
  // whose post-backward never ran), and roll the observed forward order
  // into execution-order validation.
  const double reduce_wait_begin = Now();
  for (Unit& unit : units_) {
    FlatParamHandle::ReduceWork done;
    NoteError(unit.handle->FinishGradientReduce(
        options_.record_events ? &done : nullptr));
    FinishCollective(unit.reduce_entry, done.reduce_scatter);
    FinishCollective(unit.replica_entry, done.replica_allreduce);
    unit.reduce_entry = unit.replica_entry = -1;
  }
  const double reduce_wait_end = Now();
  for (Unit& unit : units_) {
    const int u = Index(unit);
    Execute(GuardInstr(plan::Op::kWaitUnshard, u, plan::Phase::kBackward));
    if (unit.ends_sharded && unit.handle->is_unsharded()) {
      Execute(GuardInstr(plan::Op::kReshard, u, plan::Phase::kBackward));
    }
  }
  // The plan's join of the reductions issued through backward: one
  // end-of-backward wait in the log, spanning the joins above.
  for (const plan::Instr& in : end_of_backward_) {
    Record(in, reduce_wait_begin, reduce_wait_end);
  }
  // Execution-order validation (Sec 3.3.2's "freshly observed each
  // iteration"): surface dynamic-graph order changes.
  order_changed_ =
      !prev_forward_order_.empty() && forward_order_ != prev_forward_order_;
  if (order_changed_) {
    FSDP_LOG(kInfo, "forward execution order changed this iteration");
    obs::MetricsRegistry::Get().GetCounter("fsdp.order_changes").Add(1);
  }
  prev_forward_order_ = forward_order_;
  forward_seen_.clear();
  final_callback_queued_ = false;
}

std::vector<Tensor> FsdpState::Parameters() {
  std::vector<Tensor> out;
  out.reserve(units_.size());
  for (Unit& unit : units_) out.push_back(unit.handle->sharded_param());
  return out;
}

std::vector<std::pair<std::string, Tensor>> FsdpState::FullStateDict() {
  std::vector<std::pair<std::string, Tensor>> out;
  for (Unit& unit : units_) {
    auto params = unit.handle->GatherFullParams();
    out.insert(out.end(), params.begin(), params.end());
  }
  // Buffers are replicated (never sharded): save the local copies.
  for (auto& [name, slot] : module_->NamedBuffers()) {
    out.emplace_back(name, slot->Clone());
  }
  return out;
}

void FsdpState::LoadFullStateDict(
    const std::vector<std::pair<std::string, Tensor>>& state) {
  for (Unit& unit : units_) unit.handle->LoadFullParams(state);
  for (auto& [name, slot] : module_->NamedBuffers()) {
    for (const auto& [fqn, value] : state) {
      if (fqn == name) {
        FSDP_CHECK_MSG(value.numel() == slot->numel(),
                       "buffer size mismatch for " << fqn);
        slot->CopyFrom_(value);
      }
    }
  }
}

std::vector<std::pair<std::string, Tensor>> FsdpState::ShardedStateDict() {
  std::vector<std::pair<std::string, Tensor>> out;
  for (Unit& unit : units_) {
    out.emplace_back(unit.name, unit.handle->sharded_param().Clone());
  }
  return out;
}

std::shared_ptr<FsdpState> FullyShard(nn::ModulePtr module,
                                      comm::DeviceMesh& mesh, int rank,
                                      FsdpOptions options) {
  return std::make_shared<FsdpState>(std::move(module), mesh, rank,
                                     std::move(options));
}

FullyShardedDataParallel::FullyShardedDataParallel(nn::ModulePtr module,
                                                   comm::DeviceMesh& mesh,
                                                   int rank,
                                                   FsdpOptions options)
    : module_(module) {
  RegisterModule("module", module_);
  state_ = std::make_shared<FsdpState>(std::move(module), mesh, rank,
                                       std::move(options));
}

Tensor FullyShardedDataParallel::Forward(const Tensor& input) {
  return (*module_)(input);  // the hooks installed by FsdpState drive FSDP
}

}  // namespace fsdp::core
