// DistributedDataParallel — the replication baseline (paper Sec 2.1, and the
// comparison system in the evaluation).
//
// Faithful to Li et al. 2020 where the paper depends on it:
//  * every rank holds a full replica; construction broadcasts parameters from
//    rank 0 so replicas start identical;
//  * gradients are synchronized with bucketed AllReduce(avg): parameters are
//    assigned to fixed-size buckets in *reverse registration order* (the
//    heuristic approximating backward execution order), each parameter's
//    AccumulateGrad post-hook marks it ready, and a bucket's AllReduce is
//    *issued asynchronously* on the comm worker as soon as all of its
//    parameters are ready — genuinely overlapping communication with the
//    remaining backward. The Work handles are waited (and the reduced
//    values scattered back into .grad) at end-of-backward, before the
//    optimizer step can observe them;
//  * unused parameters are handled at end-of-backward (queue_callback):
//    pending buckets reduce with zero contributions, so .grad is defined for
//    every parameter on every rank (find_unused_parameters=true semantics);
//  * no_sync() skips reduction to accumulate gradients locally.
//
// The replica records what it executed once, into its per-rank
// plan::ExecLog (units: buckets "ddp_bucket<b>"): each bucket's AllReduce,
// timed from its Work handle at the end-of-backward wait, and that wait.
#pragma once

#include <memory>
#include <vector>

#include "comm/process_group.h"
#include "nn/module.h"
#include "plan/plan.h"

namespace fsdp::ddp {

struct DdpOptions {
  /// Bucket capacity in elements (PyTorch defaults to 25 MiB; tests use small
  /// values to exercise multi-bucket paths).
  int64_t bucket_cap_numel = 25 * 1024 * 1024 / 4;
  /// Average gradients (true) or plain sum (false).
  bool average = true;
};

class DistributedDataParallel : public nn::Module {
 public:
  DistributedDataParallel(nn::ModulePtr module, comm::ProcessGroup pg,
                          DdpOptions options = {});

  Tensor Forward(const Tensor& input) override;
  std::string TypeName() const override { return "DistributedDataParallel"; }

  /// While false, backward passes skip gradient reduction (no_sync).
  void set_require_backward_grad_sync(bool v) { require_sync_ = v; }
  bool require_backward_grad_sync() const { return require_sync_; }

  nn::Module& module() { return *module_; }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }

  /// Sticky first communication error: when a bucket AllReduce aborts
  /// (watchdog timeout / desync / explicit Abort) the reduced garbage is NOT
  /// scattered back — .grad keeps its local (unreduced) values — and the
  /// abort Status lands here instead of crashing the backward. Callers check
  /// after each step; OK means every bucket of the step reduced cleanly.
  const Status& status() const { return status_; }

  /// The execution log: one kReduceGrad (kind kAllReduce, `unit` = bucket
  /// index, bytes = bucket gradient bytes) per issued bucket, in issue order,
  /// and one kWaitReduceGrad per completed bucket. Real buckets follow
  /// parameter registration order, not the per-unit structure of the
  /// simulator's BuildDdpSimPlan: same IR, not canonically comparable.
  const plan::ExecLog& exec_log() const { return log_; }

 private:
  struct Bucket {
    std::vector<Tensor*> params;  // slots into the wrapped module
    int64_t numel = 0;
    int pending = 0;       // params not yet ready this backward
    bool issued = false;   // AllReduce issued this backward
    comm::Work work;       // completion handle of the issued AllReduce
    int64_t entry = -1;    // its log entry, timed at completion
    Tensor flat;           // flattened grads (the AllReduce buffer)
  };

  void BuildBuckets();
  void OnParamReady(size_t bucket_index);
  /// Flattens the bucket's grads and issues its async AllReduce.
  void IssueBucketReduce(Bucket& bucket);
  /// Waits the bucket's AllReduce and scatters the result back into .grad.
  void CompleteBucketReduce(Bucket& bucket);
  /// End-of-backward: issue any still-pending buckets (unused-parameter
  /// path), then wait + scatter all of them.
  void FinalizePendingBuckets();

  nn::ModulePtr module_;
  comm::ProcessGroup pg_;
  DdpOptions options_;
  std::vector<Bucket> buckets_;
  plan::ExecLog log_;
  Status status_;  // sticky first collective error (see status())
  bool require_sync_ = true;
  bool callback_queued_ = false;
};

/// RAII no_sync() guard.
class NoSyncGuard {
 public:
  explicit NoSyncGuard(DistributedDataParallel& ddp) : ddp_(ddp) {
    ddp_.set_require_backward_grad_sync(false);
  }
  ~NoSyncGuard() { ddp_.set_require_backward_grad_sync(true); }

 private:
  DistributedDataParallel& ddp_;
};

}  // namespace fsdp::ddp
