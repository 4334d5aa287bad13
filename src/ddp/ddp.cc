#include "ddp/ddp.h"

#include "autograd/engine.h"
#include "common/rank_context.h"

namespace fsdp::ddp {

DistributedDataParallel::DistributedDataParallel(nn::ModulePtr module,
                                                 comm::ProcessGroup pg,
                                                 DdpOptions options)
    : module_(std::move(module)), pg_(std::move(pg)), options_(options),
      log_(pg_.rank()) {
  FSDP_CHECK_MSG(!module_->HasFakeParameters(),
                 "DDP requires a fully materialized model (the limitation "
                 "FSDP's deferred init removes)");
  RegisterModule("module", module_);
  // Replicas must agree: broadcast parameters (and buffers) from rank 0.
  for (Tensor* slot : module_->ParameterSlots()) pg_.Broadcast(*slot, 0);
  for (auto& [name, slot] : module_->NamedBuffers()) pg_.Broadcast(*slot, 0);
  BuildBuckets();
}

void DistributedDataParallel::BuildBuckets() {
  // Reverse registration order approximates backward execution order, so the
  // first bucket to fill is likely the first needed — maximizing overlap.
  std::vector<Tensor*> slots = module_->ParameterSlots();
  Bucket current;
  for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
    Tensor* slot = *it;
    if (current.numel > 0 &&
        current.numel + slot->numel() > options_.bucket_cap_numel) {
      buckets_.push_back(std::move(current));
      current = Bucket{};
    }
    current.params.push_back(slot);
    current.numel += slot->numel();
  }
  if (!current.params.empty()) buckets_.push_back(std::move(current));
  for (size_t b = 0; b < buckets_.size(); ++b) {
    log_.UnitIndex("ddp_bucket" + std::to_string(b));
  }

  for (size_t b = 0; b < buckets_.size(); ++b) {
    for (Tensor* slot : buckets_[b].params) {
      slot->register_post_accumulate_grad_hook([this, b] { OnParamReady(b); });
    }
  }
}

Tensor DistributedDataParallel::Forward(const Tensor& input) {
  // Arm per-backward state. (Multiple forwards before one backward re-arm
  // harmlessly; hooks only fire during backward.)
  for (Bucket& bucket : buckets_) {
    bucket.pending = static_cast<int>(bucket.params.size());
    bucket.issued = false;
    bucket.work = comm::Work();
    bucket.flat = Tensor();
  }
  callback_queued_ = false;
  return (*module_)(input);
}

void DistributedDataParallel::OnParamReady(size_t bucket_index) {
  if (!require_sync_) return;  // no_sync: accumulate locally
  if (!callback_queued_) {
    callback_queued_ = true;
    autograd::QueueCallback([this] { FinalizePendingBuckets(); });
  }
  Bucket& bucket = buckets_[bucket_index];
  if (--bucket.pending == 0) IssueBucketReduce(bucket);
}

void DistributedDataParallel::IssueBucketReduce(Bucket& bucket) {
  NoGradGuard no_grad;
  // Flatten grads into one bucket buffer (missing grads contribute zeros —
  // the unused-parameter path) and issue the AllReduce asynchronously: the
  // comm worker reduces this bucket while backward keeps producing the next
  // one. The remaining backward never touches the flat staging buffer.
  bucket.flat = Tensor::Zeros({bucket.numel});
  int64_t off = 0;
  for (Tensor* slot : bucket.params) {
    Tensor g = slot->grad();
    if (g.defined()) {
      bucket.flat.SliceView(off, {g.numel()}).CopyFrom_(g);
    }
    off += slot->numel();
  }
  const size_t index = static_cast<size_t>(&bucket - buckets_.data());
  comm::CollectiveOptions opts;
  opts.op = options_.average ? comm::ReduceOp::kAvg : comm::ReduceOp::kSum;
  opts.async = true;
  opts.tag = "ddp_bucket" + std::to_string(index);
  bucket.work = pg_.AllReduce(bucket.flat, opts);
  bucket.issued = true;

  plan::ExecEntry e;
  e.instr.op = plan::Op::kReduceGrad;
  e.instr.unit = static_cast<int>(index);
  e.instr.phase = plan::Phase::kBackward;
  e.instr.lane = plan::Lane::kComm;
  e.instr.bytes = e.resident_bytes = bucket.numel * 4;
  e.kind = obs::EventKind::kAllReduce;
  bucket.entry = log_.Record(std::move(e));
}

void DistributedDataParallel::CompleteBucketReduce(Bucket& bucket) {
  NoGradGuard no_grad;
  const double t0 = MonotonicMicros();
  Status st = bucket.work.WaitStatus();
  log_.Finish(bucket.entry, bucket.work.issue_us(), bucket.work.start_us(),
              bucket.work.complete_us(), bucket.work.bytes());
  plan::ExecEntry wait;
  wait.instr.op = plan::Op::kWaitReduceGrad;
  wait.instr.unit = static_cast<int>(&bucket - buckets_.data());
  wait.instr.phase = plan::Phase::kBackward;
  wait.instr.lane = plan::Lane::kHost;
  wait.kind = obs::EventKind::kWait;
  wait.t_begin_us = wait.t_exec_us = t0;
  wait.t_end_us = MonotonicMicros();
  log_.Record(std::move(wait));
  if (st.ok()) {
    int64_t off = 0;
    for (Tensor* slot : bucket.params) {
      Tensor g = slot->grad();
      if (!g.defined()) {
        g = Tensor::Zeros(slot->shape());
        slot->set_grad(g);
      }
      g.CopyFrom_(bucket.flat.SliceView(off, {g.numel()}));
      off += slot->numel();
    }
  } else if (status_.ok()) {
    // Aborted reduction: the flat buffer holds garbage — leave .grad at its
    // local values and surface the first error through status().
    status_ = std::move(st);
  }
  bucket.work = comm::Work();
  bucket.flat = Tensor();
}

void DistributedDataParallel::FinalizePendingBuckets() {
  if (!require_sync_) return;
  // Buckets whose parameters were (partly) unused this backward: reduce with
  // whatever grads exist so every rank ends the iteration consistent.
  for (Bucket& bucket : buckets_) {
    if (!bucket.issued) IssueBucketReduce(bucket);
  }
  // The wait point: every bucket's Work completes before the optimizer step
  // can observe .grad.
  for (Bucket& bucket : buckets_) CompleteBucketReduce(bucket);
}

}  // namespace fsdp::ddp
