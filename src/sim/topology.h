// Cluster topology and communication/computation cost models.
//
// Models the paper's testbed: hosts of 8 A100-80GB GPUs with fast intra-host
// interconnect (NVLink) and a 2 Tb/s-per-host RoCE fabric with fat-tree
// oversubscription (Sec 3.2.2, 5.1). Collectives follow NCCL ring costs:
//
//   t = launch + (W-1) * hop_latency + moved_bytes / effective_bw
//
// with an effective bandwidth that (a) saturates with message size — small
// messages are latency/overhead bound, which produces Fig 2(b)'s knee — and
// (b) degrades slowly with participant count across hosts (stragglers and
// fabric interference), which produces Fig 7(c)'s ~7% regression at 512
// GPUs. Fig 2(a)'s variants are modeled explicitly: the list-output
// AllGather adds staging copies; uneven inputs fall back to per-rank
// broadcasts.
//
// All constants live in SimConstants so benches can state their calibration
// (EXPERIMENTS.md records the values used per figure).
#pragma once

#include <cstdint>

#include "common/status.h"
#include "tensor/dtype.h"

namespace fsdp::sim {

/// A100 HBM bandwidth in bytes/us, the rate of memory-bound phases (the
/// optimizer step) in the simulator and in the autotuner's envelope.
constexpr double kHbmBytesPerUs = 1555.0 * 1e9 / 1e6;

struct SimConstants {
  // --- compute (A100) ---
  double peak_bf16_tflops = 312.0;
  double peak_fp16_tflops = 312.0;
  double peak_fp32_tflops = 19.5 * 8;   // TF32 tensor-core path
  double matmul_efficiency = 0.62;      // attainable fraction of peak
  double kernel_launch_gpu_us = 1.5;    // per fused launch, GPU side
  double cpu_issue_us_per_kernel = 9.0; // CPU-thread cost to issue one kernel
  /// cudaEventSynchronize cost paid by the CPU thread each time the rate
  /// limiter actually blocks on a free event (blocking-sync wakeup latency).
  double event_sync_us = 150.0;

  // --- interconnect ---
  double intra_host_bw_gbps = 300.0;    // NVLink per-GPU bus bandwidth (GB/s)
  // Ring streaming rate for host-spanning groups: a NCCL ring crosses each
  // host's NIC exactly once per direction, so the rate is the full 2 Tb/s
  // RoCE NIC (250 GB/s), not the per-GPU share.
  double inter_host_bw_gbps = 250.0;
  double hop_latency_us = 2.5;          // per ring step
  double collective_launch_us = 12.0;   // NCCL kernel launch + proto setup
  // Bandwidth saturation: eff_bw(msg) = bw * msg / (msg + half_peak_bytes).
  double half_peak_bytes_intra = 4.0 * (1 << 20);
  double half_peak_bytes_inter = 32.0 * (1 << 20);
  // Straggler/interference on the oversubscribed fat tree:
  // eff_bw /= (1 + straggler_frac * log2(hosts)).
  double straggler_frac = 0.6;
  // Extra copy cost of the list-output AllGather variant (device copies via
  // SM, GB/s).
  double d2d_copy_bw_gbps = 900.0;

  // --- host link (CPU offload) ---
  double pcie_gbps = 25.0;          // H2D/D2H per GPU (PCIe gen4 x16)
  double host_mem_gbps = 50.0;      // CPU-side optimizer bandwidth

  // --- memory ---
  int64_t hbm_bytes = 80LL << 30;
  /// CUDA context + NCCL channel buffers + cuDNN workspaces resident on
  /// every GPU regardless of the model.
  int64_t framework_overhead_bytes = 13LL << 30;

  /// Peak matmul rate for `dtype`; f32 runs the TF32 tensor-core path.
  double PeakTflops(DType dtype) const {
    if (dtype == DType::kBF16) return peak_bf16_tflops;
    if (dtype == DType::kF16) return peak_fp16_tflops;
    return peak_fp32_tflops;
  }
  /// Attainable matmul rate for `dtype` in FLOP/us.
  double FlopsPerUs(DType dtype) const {
    return PeakTflops(dtype) * 1e12 * matmul_efficiency / 1e6;
  }
};

struct Topology {
  int num_hosts = 1;
  int gpus_per_host = 8;
  int world() const { return num_hosts * gpus_per_host; }
};

/// A communicator group used by a collective.
struct Group {
  int size = 1;
  /// Hosts spanned by this group (1 = fully intra-host).
  int hosts = 1;
  bool intra_host() const { return hosts <= 1; }
};

/// Forms the shard / replicate groups the DeviceMesh would create on this
/// topology for sharding factor F with consecutive-rank sharding groups.
Group ShardGroup(const Topology& topo, int sharding_factor);
Group ReplicateGroup(const Topology& topo, int sharding_factor);
Group WorldGroup(const Topology& topo);

class CollectiveModel {
 public:
  CollectiveModel(SimConstants constants, Topology topo)
      : c_(constants), topo_(topo) {}

  /// NCCL AllGather (Base): each rank contributes `shard_bytes`, receives
  /// (W-1) * shard_bytes. Time for the whole collective.
  double AllGatherBase(int64_t shard_bytes, const Group& group) const;
  /// List-output variant: AllGatherBase + staging copies in and out.
  double AllGatherListOutput(int64_t shard_bytes, const Group& group) const;
  /// Uneven-size fallback: one Broadcast per rank (Fig 2(a)).
  double AllGatherUneven(int64_t total_bytes, const Group& group) const;
  /// ReduceScatter of a `total_bytes` input per rank.
  double ReduceScatter(int64_t total_bytes, const Group& group) const;
  /// Ring AllReduce of `bytes`.
  double AllReduce(int64_t bytes, const Group& group) const;
  double Broadcast(int64_t bytes, const Group& group) const;
  /// Pipeline stage boundary: one point-to-point transfer of `bytes`
  /// crossing `hops` inter-host network hops (0 = the peer shares the
  /// host and the transfer rides NVLink).
  double PointToPoint(int64_t bytes, int hops) const;

  /// Effective ring bandwidth (bytes/us) for a per-step message size.
  double EffectiveBwBytesPerUs(int64_t step_bytes, const Group& group) const;

  const SimConstants& constants() const { return c_; }
  const Topology& topology() const { return topo_; }

 private:
  double RingTime(int64_t bytes_moved_per_rank, int steps, int64_t step_bytes,
                  const Group& group) const;

  SimConstants c_;
  Topology topo_;
};

class ComputeModel {
 public:
  explicit ComputeModel(SimConstants constants) : c_(constants) {}

  /// Time (us) to execute `flops` of dense math in `dtype`.
  double MatmulTime(double flops, DType dtype) const;
  /// CPU time (us) for the host thread to issue `n` kernels.
  double CpuIssueTime(int n_kernels) const {
    return n_kernels * c_.cpu_issue_us_per_kernel;
  }

 private:
  SimConstants c_;
};

}  // namespace fsdp::sim
