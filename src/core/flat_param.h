// FlatParameter and FlatParamHandle (paper Sec 3.2.1, 3.2.3, 4.2, 4.4).
//
// One FlatParameter owns the storage of all original parameters in one FSDP
// unit: the originals are flattened, concatenated, padded on the right to a
// multiple of the sharding factor F (so padding is at most F-1), and chunked
// evenly — the exact layout AllGather / ReduceScatter expect, enabling
// zero-copy collectives. The FlatParamHandle manages one FlatParameter's
// lifecycle:
//
//   MaterializeAndShard  — build the full flat value (copying eager values or
//                          replaying deferred-init records one unit at a
//                          time), keep only the local chunk;
//   UnshardAsync         — issue the AllGather of the chunks into the
//                          unsharded flat on the comm worker (optionally
//                          casting to the low-precision param_dtype first:
//                          Sec 4.4) and return without waiting;
//   WaitUnshard          — block until the issued AllGather completed (the
//                          "wait at first use" point);
//   Unshard              — UnshardAsync + WaitUnshard (synchronous
//                          convenience);
//   UseUnshardedViews    — point every original parameter slot at an
//                          autograd-visible SliceView of the unsharded flat;
//   Reshard              — free the unsharded flat's bytes (resize_(0)
//                          semantics): memory accounting drops to the shard,
//                          and any use of stale parameters (the shared-
//                          parameter pitfall of Sec 7.2.2, or a missing
//                          pre-backward re-gather) aborts loudly with the
//                          "missing tensor storage" failure the paper
//                          describes;
//   BeginGradientReduce  — post-backward: issue the async ReduceScatter of
//                          the unsharded gradient over the shard group (in
//                          reduce_dtype) on the comm worker;
//   FinishGradientReduce — wait for the ReduceScatter, AllReduce over the
//                          replicate group when F < W (hybrid sharding,
//                          Eq. 1), divide by the data-parallel world size,
//                          and accumulate into the sharded FlatParameter's
//                          .grad. Split from Begin so the rank thread never
//                          blocks on a ReduceScatter queued behind a
//                          prefetched AllGather;
//   PrepareGradient      — Begin + Finish (synchronous convenience).
//
// The *sharded* FlatParameter is the leaf the optimizer sees; the *unsharded*
// flat tensor is the autograd leaf the views hang off, whose AccumulateGrad
// post-hook is FSDP's post-backward anchor (Sec 4.3).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/process_group.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace fsdp::core {

/// Mixed-precision settings (paper Sec 4.4). kF32 everywhere = off.
struct MixedPrecision {
  DType param_dtype = DType::kF32;   // unsharded params & compute
  DType reduce_dtype = DType::kF32;  // gradient reduction
  DType buffer_dtype = DType::kF32;  // non-trainable buffers

  bool enabled() const {
    return param_dtype != DType::kF32 || reduce_dtype != DType::kF32;
  }
};

/// Metadata for one original parameter inside a FlatParameter.
struct ParamInfo {
  std::string fqn;                  // fully-qualified name
  std::vector<Tensor*> slots;       // all module slots sharing this parameter
  Shape shape;
  int64_t numel = 0;
  int64_t offset = 0;               // element offset in the flat parameter
};

class FlatParamHandle {
 public:
  /// `shard_pg` spans the F ranks parameters are sharded over; when
  /// F < world, `replicate_pg` spans the W/F replicas (undefined otherwise).
  FlatParamHandle(std::string name, std::vector<ParamInfo> params,
                  comm::ProcessGroup shard_pg, comm::ProcessGroup replicate_pg,
                  MixedPrecision mp);

  // ----- lifecycle -----
  /// Builds flat values (eager copy or deferred-init replay) and keeps only
  /// this rank's chunk. If `sync_from_rank0`, broadcasts the full flat value
  /// over the shard+replicate groups first so all ranks agree.
  void MaterializeAndShard(bool sync_from_rank0);
  /// Issues the AllGather of the local chunks into the unsharded flat
  /// parameter on the comm worker and returns without waiting. No-op if
  /// already unsharded or in flight. Casts through param_dtype when mixed
  /// precision is on. `tag` labels the comm-lane trace span (unit name).
  void UnshardAsync(const std::string& tag = "");
  /// Blocks until the issued AllGather completed; afterwards the unsharded
  /// values are valid. No-op (OK) when nothing is in flight. Returns the
  /// collective's completion Status: non-OK when the communicator aborted
  /// (watchdog timeout / desync / explicit abort) — the unsharded bytes are
  /// then garbage and must not be consumed.
  Status WaitUnshard();
  /// Synchronous unshard: UnshardAsync + WaitUnshard.
  Status Unshard();
  /// True between UnshardAsync and WaitUnshard.
  bool unshard_in_flight() const { return unshard_in_flight_; }
  /// The pending unshard's completion handle (trivially-complete when none).
  const comm::Work& unshard_work() const { return unshard_work_; }
  /// Installs autograd-visible views into the module's parameter slots and
  /// re-arms the unsharded leaf for gradient accumulation. Views carry no
  /// data reads, so this is safe while the unshard is still in flight.
  void UseUnshardedViews();
  /// Logically frees (and poisons) the unsharded flat parameter. Waits for a
  /// pending unshard first — the gather must land before its target dies.
  void Reshard();
  /// Issues the async ReduceScatter of the unsharded gradient; see file
  /// comment. The eventual result is divided by `grad_divisor` (the
  /// data-parallel world size) in FinishGradientReduce.
  void BeginGradientReduce(float grad_divisor, const std::string& tag = "");
  /// The collectives one FinishGradientReduce waited on: the ReduceScatter
  /// and the hybrid replica AllReduce (default-constructed if not run).
  struct ReduceWork {
    comm::Work reduce_scatter;
    comm::Work replica_allreduce;
  };
  /// Waits for the issued ReduceScatter, runs the hybrid-sharding replica
  /// AllReduce, divides, and accumulates into the sharded .grad. No-op (OK)
  /// when no reduction is in flight. On a non-OK Status (aborted
  /// communicator) the garbage reduction is dropped: the sharded .grad is
  /// left untouched so a failed step cannot corrupt the optimizer state.
  /// `done`, when given, receives the completed Work handles.
  Status FinishGradientReduce(ReduceWork* done = nullptr);
  bool gradient_reduce_in_flight() const { return reduce_in_flight_; }
  /// Synchronous gradient path: BeginGradientReduce + FinishGradientReduce.
  Status PrepareGradient(float grad_divisor);
  /// Drops the unsharded gradient accumulated on the autograd leaf.
  void ClearUnshardedGrad();

  // ----- accessors -----
  const std::string& name() const { return name_; }
  /// The sharded FlatParameter (optimizer target). Leaf, requires_grad.
  Tensor& sharded_param() { return sharded_param_; }
  /// The unsharded flat parameter (autograd leaf for views).
  Tensor& unsharded_param() { return unsharded_param_; }
  bool is_unsharded() const { return unsharded_; }
  int64_t total_numel() const { return total_numel_; }      // without padding
  int64_t padded_numel() const { return padded_numel_; }
  int64_t shard_numel() const { return shard_numel_; }
  int64_t padding_numel() const { return padded_numel_ - total_numel_; }
  const std::vector<ParamInfo>& params() const { return params_; }
  const MixedPrecision& mixed_precision() const { return mp_; }
  comm::ProcessGroup& shard_pg() { return shard_pg_; }
  comm::ProcessGroup& replicate_pg() { return replicate_pg_; }

  /// Registers the post-backward anchor once: fired when the unsharded flat
  /// parameter's gradient finishes accumulating.
  void SetPostBackwardHook(std::function<void()> hook);

  /// AllGathers the sharded values and splits them back into original-shaped
  /// tensors (full state_dict path). No autograd.
  std::vector<std::pair<std::string, Tensor>> GatherFullParams();
  /// Same, for the sharded gradient (tests / optimizer inspection). Entries
  /// are undefined Tensors when no gradient is present.
  std::vector<std::pair<std::string, Tensor>> GatherFullGrads();
  /// Writes `full` (original fqn -> tensor) into this rank's shard (load
  /// path). Missing entries keep current values.
  void LoadFullParams(
      const std::vector<std::pair<std::string, Tensor>>& full);

  /// This rank's shard of the *original* parameter layout: for each param,
  /// the [start, end) element range owned locally (optimizer-state
  /// inspection; empty range if the param lies outside the local chunk).
  struct ShardExtent {
    std::string fqn;
    int64_t start = 0;  // within the original flattened param
    int64_t end = 0;
  };
  std::vector<ShardExtent> LocalShardExtents() const;

 private:
  /// Fills `dst` (padded_numel) with the full flat value from eager params
  /// or deferred-init records.
  void BuildFullFlat(Tensor dst);

  std::string name_;
  std::vector<ParamInfo> params_;
  comm::ProcessGroup shard_pg_;
  comm::ProcessGroup replicate_pg_;  // invalid when F == world size
  MixedPrecision mp_;

  int64_t total_numel_ = 0;
  int64_t padded_numel_ = 0;
  int64_t shard_numel_ = 0;

  Tensor sharded_param_;    // (shard_numel) leaf, fp32 master copy
  Tensor unsharded_param_;  // (padded_numel) autograd leaf for views
  bool unsharded_ = false;
  bool materialized_ = false;
  std::function<void()> post_backward_hook_;

  // Async-collective state. The Work handles pin the staging tensors
  // (low-precision casts, reduce sources) until the comm worker completes.
  comm::Work unshard_work_;
  bool unshard_in_flight_ = false;
  comm::Work reduce_work_;
  Tensor pending_shard_grad_;   // ReduceScatter destination
  float pending_divisor_ = 1.f;
  bool reduce_in_flight_ = false;
};

/// Builds the ParamInfo list (with offsets) for a set of (fqn, slot) pairs,
/// deduplicating shared parameters by TensorImpl identity.
std::vector<ParamInfo> BuildParamInfos(
    const std::vector<std::pair<std::string, Tensor*>>& named_slots);

}  // namespace fsdp::core
