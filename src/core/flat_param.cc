#include "core/flat_param.h"

#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "autograd/ops.h"
#include "nn/init.h"

namespace fsdp::core {

std::vector<ParamInfo> BuildParamInfos(
    const std::vector<std::pair<std::string, Tensor*>>& named_slots) {
  std::vector<ParamInfo> infos;
  std::unordered_map<const TensorImpl*, size_t> by_impl;
  int64_t offset = 0;
  for (const auto& [fqn, slot] : named_slots) {
    const TensorImpl* key = slot->impl().get();
    auto it = by_impl.find(key);
    if (it != by_impl.end()) {
      // Shared parameter: extra slot aliases the same flat region.
      infos[it->second].slots.push_back(slot);
      continue;
    }
    ParamInfo info;
    info.fqn = fqn;
    info.slots = {slot};
    info.shape = slot->shape();
    info.numel = slot->numel();
    info.offset = offset;
    offset += info.numel;
    by_impl.emplace(key, infos.size());
    infos.push_back(std::move(info));
  }
  return infos;
}

FlatParamHandle::FlatParamHandle(std::string name,
                                 std::vector<ParamInfo> params,
                                 comm::ProcessGroup shard_pg,
                                 comm::ProcessGroup replicate_pg,
                                 MixedPrecision mp)
    : name_(std::move(name)), params_(std::move(params)),
      shard_pg_(std::move(shard_pg)), replicate_pg_(std::move(replicate_pg)),
      mp_(mp) {
  FSDP_CHECK_MSG(!params_.empty(), "FSDP unit '" << name_ << "' has no params");
  for (const ParamInfo& p : params_) total_numel_ += p.numel;
  const int64_t f = shard_pg_.size();
  padded_numel_ = (total_numel_ + f - 1) / f * f;
  shard_numel_ = padded_numel_ / f;
  FSDP_DCHECK(padded_numel_ - total_numel_ < f);  // padding <= F-1

  sharded_param_ = Tensor::Zeros({shard_numel_});
  sharded_param_.set_requires_grad(true);
  unsharded_param_ = Tensor::Zeros({padded_numel_}, mp_.param_dtype);
  unsharded_param_.set_requires_grad(true);
  // The unsharded flat starts *freed*: its bytes exist only between Unshard
  // and Reshard, so constructing many handles costs only the shards.
  unsharded_param_.storage()->Free();
}

void FlatParamHandle::BuildFullFlat(Tensor dst) {
  for (const ParamInfo& p : params_) {
    Tensor region = dst.SliceView(p.offset, {p.numel});
    Tensor* slot = p.slots.front();
    if (slot->device() == Device::kFake) {
      // Deferred init: replay the recorded op directly into flat storage —
      // the unit-at-a-time materialization of paper Sec 3.1.
      nn::InitOp op;
      FSDP_CHECK_MSG(nn::InitRecorder::Lookup(*slot, &op),
                     "fake parameter '" << p.fqn
                                        << "' has no recorded init op");
      nn::ExecuteInitOp(op, region);
      nn::InitRecorder::Erase(*slot);
    } else {
      region.CopyFrom_(slot->Flatten());
    }
  }
}

void FlatParamHandle::MaterializeAndShard(bool sync_from_rank0) {
  FSDP_CHECK_MSG(!materialized_, "unit '" << name_ << "' already materialized");
  {
    NoGradGuard no_grad;
    Tensor full = Tensor::Zeros({padded_numel_});
    BuildFullFlat(full);
    if (sync_from_rank0) {
      // Propagate global rank 0's values: first across replicas (each shard
      // position), then within the shard group. Ordering matters: after the
      // replicate broadcast every shard group's rank 0 holds shard-group-0's
      // rank-0 value only if ranks are laid out [shard-major], which
      // DeviceMesh guarantees (shard group = consecutive ranks, replicate
      // group = equal local index). Global rank 0 is local rank 0 of both.
      if (replicate_pg_.valid()) replicate_pg_.Broadcast(full, 0);
      shard_pg_.Broadcast(full, 0);
    }
    sharded_param_.CopyFrom_(
        full.SliceView(shard_pg_.rank() * shard_numel_, {shard_numel_}));
  }
  materialized_ = true;
  // Leave module slots with correctly-shaped views so shapes and numels read
  // sensibly between iterations; the backing bytes are freed below.
  for (const ParamInfo& p : params_) {
    Tensor view = unsharded_param_.SliceView(p.offset, p.shape);
    for (Tensor* slot : p.slots) *slot = view;
  }
  Reshard();
}

void FlatParamHandle::UnshardAsync(const std::string& tag) {
  FSDP_CHECK_MSG(materialized_, "unit '" << name_ << "' not materialized");
  if (unsharded_ || unshard_in_flight_) return;
  NoGradGuard no_grad;
  // resize_ semantics: re-allocate the freed unsharded storage; existing
  // views (module slots, autograd-saved tensors) see the fresh bytes.
  unsharded_param_.storage()->Allocate();
  comm::CollectiveOptions opts;
  opts.async = true;
  opts.tag = tag.empty() ? name_ : tag;
  if (mp_.param_dtype != DType::kF32) {
    // Cast the local shard to low precision so both the communication and
    // the gathered parameter are low-precision (Sec 4.4). The cast temporary
    // is pinned in the Work handle until the worker finishes reading it.
    Tensor low = sharded_param_.CastTo(mp_.param_dtype);
    unshard_work_ = shard_pg_.AllGatherBase(unsharded_param_, low, opts);
  } else {
    unshard_work_ =
        shard_pg_.AllGatherBase(unsharded_param_, sharded_param_, opts);
  }
  unshard_in_flight_ = true;
}

Status FlatParamHandle::WaitUnshard() {
  if (!unshard_in_flight_) return Status::OK();
  Status st = unshard_work_.WaitStatus();
  unshard_work_ = comm::Work();
  unshard_in_flight_ = false;
  // The storage is marked unsharded even on failure: the bytes exist (they
  // were allocated before the issue), they are just garbage. Reshard()
  // remains the single teardown path either way.
  unsharded_ = true;
  return st;
}

Status FlatParamHandle::Unshard() {
  UnshardAsync();
  return WaitUnshard();
}

void FlatParamHandle::UseUnshardedViews() {
  FSDP_CHECK_MSG(unsharded_ || unshard_in_flight_,
                 "views requested while '" << name_ << "' is sharded");
  for (const ParamInfo& p : params_) {
    Tensor view = ops::SliceView(unsharded_param_, p.offset, p.shape);
    for (Tensor* slot : p.slots) *slot = view;
  }
}

void FlatParamHandle::Reshard() {
  // A pending gather must land before its destination storage dies. The
  // Status is irrelevant here: freed is freed, also after an abort.
  (void)WaitUnshard();
  // Free the unsharded flat parameter's bytes (PyTorch's resize_(0)): the
  // memory accounting drops to the sharded footprint, and any stale read —
  // the shared-parameter pitfall of Sec 7.2.2, or a missing pre-backward
  // unshard — aborts with a "freed storage" error instead of silently
  // reading stale values.
  unsharded_param_.storage()->Free();
  unsharded_ = false;
}

void FlatParamHandle::BeginGradientReduce(float grad_divisor,
                                          const std::string& tag) {
  FSDP_CHECK_MSG(!reduce_in_flight_, "gradient reduction already in flight "
                                     "on '" << name_ << "'");
  NoGradGuard no_grad;
  Tensor ugrad = unsharded_param_.grad();
  FSDP_CHECK_MSG(ugrad.defined(),
                 "BeginGradientReduce with no unsharded gradient on '"
                     << name_ << "'");
  Tensor reduce_src = ugrad;
  if (mp_.reduce_dtype != DType::kF32) {
    reduce_src = ugrad.CastTo(mp_.reduce_dtype);
  }
  pending_shard_grad_ = Tensor::Zeros({shard_numel_});
  comm::CollectiveOptions opts;
  opts.comm_dtype = mp_.reduce_dtype;
  opts.async = true;
  opts.tag = tag.empty() ? name_ : tag;
  // Both the destination and the (possibly cast) source are pinned in the
  // Work handle; the unsharded grad may be cleared only after Finish waits.
  reduce_work_ = shard_pg_.ReduceScatter(pending_shard_grad_, reduce_src,
                                         opts);
  pending_divisor_ = grad_divisor;
  reduce_in_flight_ = true;
}

Status FlatParamHandle::FinishGradientReduce(ReduceWork* done) {
  if (!reduce_in_flight_) return Status::OK();
  NoGradGuard no_grad;
  Status st = reduce_work_.WaitStatus();
  if (done) done->reduce_scatter = reduce_work_;
  reduce_work_ = comm::Work();
  reduce_in_flight_ = false;
  Tensor shard_grad = pending_shard_grad_;
  pending_shard_grad_ = Tensor();
  if (st.ok() && replicate_pg_.valid()) {
    // Hybrid sharding (Eq. 1): reduce the sharded gradients across replicas.
    comm::CollectiveOptions ar_opts;
    ar_opts.comm_dtype = mp_.reduce_dtype;
    // Tag with the unit FQN like the shard-group collectives, so fault
    // injection and the comm-lane trace span name the unit.
    ar_opts.tag = name_;
    const comm::Work replica = replicate_pg_.AllReduce(shard_grad, ar_opts);
    st = replica.WaitStatus();
    if (done) done->replica_allreduce = replica;
  }
  if (!st.ok()) {
    // Drop the garbage reduction; the sharded .grad keeps its previous
    // value, so a failed step cannot corrupt the optimizer state.
    ClearUnshardedGrad();
    return st;
  }
  if (pending_divisor_ != 1.f) shard_grad.Mul_(1.f / pending_divisor_);

  Tensor existing = sharded_param_.grad();
  if (existing.defined()) {
    existing.Add_(shard_grad);  // gradient accumulation *with* communication
  } else {
    sharded_param_.set_grad(shard_grad);
  }
  ClearUnshardedGrad();
  return Status::OK();
}

Status FlatParamHandle::PrepareGradient(float grad_divisor) {
  BeginGradientReduce(grad_divisor);
  return FinishGradientReduce();
}

void FlatParamHandle::ClearUnshardedGrad() { unsharded_param_.zero_grad(); }

void FlatParamHandle::SetPostBackwardHook(std::function<void()> hook) {
  FSDP_CHECK_MSG(!post_backward_hook_, "post-backward hook already set");
  post_backward_hook_ = std::move(hook);
  unsharded_param_.register_post_accumulate_grad_hook(
      [this] { post_backward_hook_(); });
}

std::vector<std::pair<std::string, Tensor>>
FlatParamHandle::GatherFullParams() {
  NoGradGuard no_grad;
  Tensor full = Tensor::Empty({padded_numel_});
  shard_pg_.AllGatherBase(full, sharded_param_);
  std::vector<std::pair<std::string, Tensor>> out;
  out.reserve(params_.size());
  for (const ParamInfo& p : params_) {
    out.emplace_back(p.fqn, full.SliceView(p.offset, p.shape).Clone());
  }
  return out;
}

std::vector<std::pair<std::string, Tensor>>
FlatParamHandle::GatherFullGrads() {
  NoGradGuard no_grad;
  std::vector<std::pair<std::string, Tensor>> out;
  Tensor shard_grad = sharded_param_.grad();
  if (!shard_grad.defined()) {
    for (const ParamInfo& p : params_) out.emplace_back(p.fqn, Tensor());
    return out;
  }
  Tensor full = Tensor::Empty({padded_numel_});
  shard_pg_.AllGatherBase(full, shard_grad);
  for (const ParamInfo& p : params_) {
    out.emplace_back(p.fqn, full.SliceView(p.offset, p.shape).Clone());
  }
  return out;
}

void FlatParamHandle::LoadFullParams(
    const std::vector<std::pair<std::string, Tensor>>& full_params) {
  NoGradGuard no_grad;
  Tensor full = Tensor::Empty({padded_numel_});
  shard_pg_.AllGatherBase(full, sharded_param_);
  for (const auto& [fqn, value] : full_params) {
    for (const ParamInfo& p : params_) {
      if (p.fqn != fqn) continue;
      FSDP_CHECK_MSG(value.numel() == p.numel,
                     "load size mismatch for " << fqn);
      full.SliceView(p.offset, {p.numel}).CopyFrom_(value.Flatten());
    }
  }
  sharded_param_.CopyFrom_(
      full.SliceView(shard_pg_.rank() * shard_numel_, {shard_numel_}));
}

std::vector<FlatParamHandle::ShardExtent>
FlatParamHandle::LocalShardExtents() const {
  const int64_t lo = shard_pg_.rank() * shard_numel_;
  const int64_t hi = lo + shard_numel_;
  std::vector<ShardExtent> out;
  for (const ParamInfo& p : params_) {
    const int64_t p_lo = std::max(lo, p.offset);
    const int64_t p_hi = std::min(hi, p.offset + p.numel);
    ShardExtent e;
    e.fqn = p.fqn;
    if (p_lo < p_hi) {
      e.start = p_lo - p.offset;
      e.end = p_hi - p.offset;
    }
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace fsdp::core
