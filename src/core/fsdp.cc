#include "core/fsdp.h"

#include <algorithm>
#include <unordered_map>

#include "autograd/engine.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace fsdp::core {

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
    bool is_root;
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
        pending.push_back(PendingUnit{is_root ? "[root]" : fqn, &mod, is_root,
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
    unit.is_root = it->is_root;
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

int64_t FsdpState::Record(plan::Op op, const Unit* unit, plan::Phase phase,
                          double t_begin, double t_end,
                          int64_t resident_bytes, bool prefetch) {
  if (!options_.record_events) return -1;
  plan::ExecEntry e;
  e.instr.op = op;
  e.instr.unit = unit ? unit->log_unit : -1;
  e.instr.phase = phase;
  e.instr.prefetch = prefetch;
  e.instr.stage = stage_;
  e.instr.microbatch = microbatch_;
  switch (op) {
    case plan::Op::kUnshard:
    case plan::Op::kReduceGrad:
    case plan::Op::kAllReduceReplicas:
      e.instr.lane = plan::Lane::kComm;
      break;
    case plan::Op::kCompute:
      e.instr.lane = plan::Lane::kCompute;
      break;
    default:
      e.instr.lane = plan::Lane::kHost;
      break;
  }
  e.kind = plan::ToEventKind(op, phase);
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
  if (forward_seen_.empty()) {
    forward_order_.clear();
    for (Unit& unit : units_) unit.backward_done = false;
  }
}

void FsdpState::IssueUnshard(Unit& unit, plan::Phase phase, bool prefetch) {
  if (unit.inflight || unit.handle->is_unsharded()) return;
  // Async issue: the AllGather proceeds on the comm worker while this rank
  // thread keeps computing; ConsumeUnshard waits at first parameter use and
  // times the entry from the Work handle.
  unit.handle->UnshardAsync(unit.name);
  FSDP_LOG(kDebug, "AG " << unit.name << " ("
                         << unit.handle->padded_numel() * 4 << " bytes)");
  unit.gather_entry = Record(plan::Op::kUnshard, &unit, phase, 0, 0,
                             unit.handle->padded_numel() * 4, prefetch);
  unit.inflight = true;
  ++inflight_;
  max_inflight_ = std::max(max_inflight_, inflight_);
}

void FsdpState::Prefetch(Unit* next, plan::Phase phase) {
  if (!next) return;
  if (options_.limit_all_gathers > 0 &&
      inflight_ >= options_.limit_all_gathers) {
    ++throttled_prefetches_;
    obs::MetricsRegistry::Get().GetCounter("fsdp.throttled_prefetches").Add(1);
    FSDP_LOG(kDebug,
             "throttle " << next->name << " (inflight " << inflight_ << ")");
    return;
  }
  IssueUnshard(*next, phase, /*prefetch=*/true);
}

void FsdpState::ConsumeUnshard(Unit& unit, plan::Phase phase) {
  if (unit.handle->unshard_in_flight()) {
    if (!unit.handle->unshard_work().Completed()) ++waits_on_pending_;
    const comm::Work gather = options_.record_events
                                  ? unit.handle->unshard_work()
                                  : comm::Work();
    const double t0 = Now();
    NoteError(unit.handle->WaitUnshard());
    FinishCollective(unit.gather_entry, gather);
    unit.gather_entry = -1;
    Record(plan::Op::kWaitUnshard, &unit, phase, t0, Now());
  }
  if (unit.inflight) {
    unit.inflight = false;
    --inflight_;
  }
}

void FsdpState::OnPreForward(Unit& unit) {
  const int index = static_cast<int>(&unit - units_.data());
  if (!forward_seen_.count(index)) {
    forward_seen_.insert(index);
    forward_order_.push_back(index);
  }
  IssueUnshard(unit, plan::Phase::kForward);
  unit.handle->UseUnshardedViews();

  // Forward prefetch: issue the next unit's AllGather (previous iteration's
  // order) before this unit's forward computation (Sec 3.3.3).
  if (options_.forward_prefetch) {
    Prefetch(NextForwardPrefetchTarget(unit), plan::Phase::kForward);
  }
  // First real use of the parameters: wait for the pending AllGather before
  // the unit's compute begins. Starting the compute entry after the wait
  // keeps its span honest — it must not absorb the gather wait, or the
  // overlap assertions would trivially pass.
  ConsumeUnshard(unit, plan::Phase::kForward);
  unit.fwd_begin_us = Now();
  unit.fwd_entry = Record(plan::Op::kCompute, &unit, plan::Phase::kForward,
                          unit.fwd_begin_us, 0);
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
  // The outermost unit's parameters intentionally stay in memory after
  // forward (Sec 3.3.1), covering custom parameters between wrapped
  // submodules; inner units reshard under RAF strategies.
  if (ReshardAfterForward(options_.strategy) && !unit.is_root) {
    const double t0 = Now();
    unit.handle->Reshard();
    Record(plan::Op::kReshard, &unit, plan::Phase::kForward, t0, Now());
  }
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
  }
  IssueUnshard(unit, plan::Phase::kBackward);
  ConsumeUnshard(unit, plan::Phase::kBackward);
  // The unit's backward compute runs from here until its post-backward hook
  // (stamped after the gather wait, like the forward compute).
  unit.bwd_begin_us = Now();
}

void FsdpState::OnPostBackward(Unit& unit) {
  unit.backward_done = true;
  const double now = Now();
  Record(plan::Op::kCompute, &unit, plan::Phase::kBackward,
         unit.bwd_begin_us > 0 ? unit.bwd_begin_us : now, now);
  unit.bwd_begin_us = 0;
  // Backward prefetch: issue the *next* AllGather before the *current*
  // ReduceScatter so the single in-order communication stream does not
  // stall the next gradient computation (Sec 3.3.2).
  if (options_.backward_prefetch) {
    Prefetch(NextBackwardPrefetchTarget(unit), plan::Phase::kBackward);
  }
  if (require_sync_) {
    const int64_t grad_bytes = unit.handle->padded_numel() * 4;
    // Async issue of the ReduceScatter; OnBackwardFinal waits for it (plus
    // the replica AllReduce for hybrid sharding) so the rank thread never
    // stalls here behind a prefetched AllGather on the same comm stream.
    // Both entries are recorded here, in issue order, and timed there.
    unit.handle->BeginGradientReduce(static_cast<float>(world_size_),
                                     unit.name);
    unit.reduce_entry = Record(plan::Op::kReduceGrad, &unit,
                               plan::Phase::kBackward, 0, 0, grad_bytes);
    if (unit.handle->replicate_pg().valid()) {
      unit.replica_entry = Record(plan::Op::kAllReduceReplicas, &unit,
                                  plan::Phase::kBackward, 0, 0, grad_bytes);
    }
    const double t0 = Now();
    unit.handle->Reshard();
    Record(plan::Op::kReshard, &unit, plan::Phase::kBackward, t0, Now());
    ConsumeUnshard(unit, plan::Phase::kBackward);
  }
  // Without sync (accumulation-without-communication, Sec 3.3.4) the
  // unsharded gradient stays on the autograd leaf and the parameters stay
  // unsharded — trading memory for skipped communication.
}

void FsdpState::OnBackwardFinal() {
  // End of backward (Sec 4.3 queue_callback): complete the in-flight
  // gradient reductions (wait on the async ReduceScatters, run the hybrid
  // replica AllReduce, divide and accumulate), reshard everything still
  // unsharded, and roll the observed forward order into the next
  // iteration's forward-prefetch hints.
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
    ConsumeUnshard(unit, plan::Phase::kBackward);  // straggling prefetches
    if (unit.handle->is_unsharded() && require_sync_) {
      const double t0 = Now();
      unit.handle->Reshard();
      Record(plan::Op::kReshard, &unit, plan::Phase::kBackward, t0, Now());
    }
  }
  // The reductions issued through backward complete here (the Sec 4.3
  // queue_callback join) — one end-of-backward wait in the log, spanning
  // the FinishGradientReduce joins above.
  if (require_sync_) {
    Record(plan::Op::kWaitReduceGrad, nullptr, plan::Phase::kBackward,
           reduce_wait_begin, reduce_wait_end);
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

FsdpState::Unit* FsdpState::NextBackwardPrefetchTarget(const Unit& current) {
  const int index = static_cast<int>(&current - units_.data());
  auto pos = std::find(forward_order_.begin(), forward_order_.end(), index);
  if (pos == forward_order_.end()) return nullptr;
  // Walk backwards through the pre-forward order (its reverse approximates
  // the pre-backward order).
  while (pos != forward_order_.begin()) {
    --pos;
    Unit& candidate = units_[static_cast<size_t>(*pos)];
    if (!candidate.backward_done && !candidate.handle->is_unsharded() &&
        !candidate.handle->unshard_in_flight()) {
      return &candidate;
    }
  }
  return nullptr;
}

FsdpState::Unit* FsdpState::NextForwardPrefetchTarget(const Unit& current) {
  const int index = static_cast<int>(&current - units_.data());
  auto pos = std::find(prev_forward_order_.begin(), prev_forward_order_.end(),
                       index);
  if (pos == prev_forward_order_.end()) return nullptr;
  ++pos;
  if (pos == prev_forward_order_.end()) return nullptr;
  Unit& next = units_[static_cast<size_t>(*pos)];
  if (next.handle->is_unsharded() || next.handle->unshard_in_flight()) {
    return nullptr;
  }
  return &next;
}

plan::StepPlan FsdpState::ExpectedStepPlan() const {
  // Plan unit order = forward execution order. Units are stored outermost
  // first, then reversed post-order, so forward order is units_[0] followed
  // by units_[n-1] .. units_[1].
  std::vector<std::string> names;
  names.reserve(units_.size());
  names.push_back(units_[0].name);
  for (size_t i = units_.size(); i-- > 1;) names.push_back(units_[i].name);

  plan::FsdpPlanOptions o = plan::FsdpPlanOptions::Runtime();
  o.reshard_after_forward = ReshardAfterForward(options_.strategy);
  o.backward_prefetch = options_.backward_prefetch;
  o.forward_prefetch = options_.forward_prefetch;
  o.replica_allreduce = units_[0].handle->replicate_pg().valid();
  o.accum = require_sync_ ? plan::AccumMode::kReduceEveryMicrobatch
                          : plan::AccumMode::kNoSync;
  return plan::BuildFsdpStepPlan(names, o);
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
