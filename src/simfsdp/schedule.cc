#include "simfsdp/schedule.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "plan/passes.h"

namespace fsdp::simfsdp {

namespace {

constexpr int kComputeStream = 1;
constexpr int kCommStream = 2;

// Per-unit cost/state table — the *cost* side of the simulation. The
// *schedule* side (instruction order and dependencies) comes from the
// interpreted plan::StepPlan.
struct UnitSim {
  // static
  std::string label;
  int64_t padded_numel = 0;
  int64_t shard_bytes = 0;      // communicated shard (param_dtype)
  int64_t unsharded_bytes = 0;  // gathered flat parameter
  int64_t grad_bytes = 0;       // unsharded gradient buffer
  int64_t reduce_total_bytes = 0;  // ReduceScatter input
  double fwd_us = 0, bwd_us = 0;
  double cpu_fwd_us = 0, cpu_bwd_us = 0;
  int64_t act_bytes = 0;
  int64_t recompute_bytes = 0;  // transient full activations during bwd
  // runtime
  sim::CachingAllocator::BlockId param_block = -1;
  sim::CachingAllocator::BlockId grad_block = -1;
  sim::CachingAllocator::BlockId act_block = -1;
  bool unsharded = false;
};

std::vector<std::string> SimUnitNames(const Workload& w) {
  std::vector<std::string> names;
  names.reserve(w.units.size() + 1);
  names.push_back("[root]");
  for (size_t i = 0; i < w.units.size(); ++i) {
    names.push_back("unit" + std::to_string(i + 1));
  }
  return names;
}

int NormalizedShardingFactor(const sim::Topology& topo,
                             const FsdpSimConfig& cfg) {
  const int tp = std::max(cfg.tp_degree, 1);
  return cfg.sharding_factor <= 0 ? topo.world() / tp : cfg.sharding_factor;
}

// The byte side of the per-unit table, shared by Run()'s cost table, the
// pass options (fusion payloads), and the memory-plan options (arena buffer
// sizes) — one computation, so compiler and interpreter agree byte-for-byte.
struct UnitSizes {
  int64_t padded_numel = 0;
  int64_t shard_bytes = 0;
  int64_t unsharded_bytes = 0;
  int64_t grad_bytes = 0;
  int64_t reduce_total_bytes = 0;
  int64_t act_bytes = 0;
  int64_t recompute_bytes = 0;
};

std::vector<UnitSizes> UnitSizeTable(const Workload& w, int f,
                                     const FsdpSimConfig& cfg) {
  const int64_t psize = SizeOf(cfg.param_dtype);
  const int64_t rsize = SizeOf(cfg.reduce_dtype);
  const int batch = cfg.batch_per_gpu;
  // Composed 2D runs (tp_degree > 1) slice every non-root unit's weight
  // 1/tp per rank before FSDP shards it across the dp axis. Activations
  // stay full-size (the Megatron pair saves the replicated block input).
  const int64_t tp = std::max(cfg.tp_degree, 1);
  auto fill = [&](int64_t params, int64_t act, int64_t ckpt) {
    UnitSizes s;
    s.padded_numel = (params + f - 1) / f * f;
    s.shard_bytes = s.padded_numel / f * psize;
    s.unsharded_bytes = s.padded_numel * psize;
    s.grad_bytes = s.padded_numel * rsize;
    s.reduce_total_bytes = s.padded_numel * rsize;
    s.act_bytes = (cfg.activation_checkpointing ? ckpt : act) * batch;
    s.recompute_bytes =
        cfg.activation_checkpointing ? (act - ckpt) * batch : 0;
    return s;
  };
  std::vector<UnitSizes> table;
  table.reserve(w.units.size() + 1);
  table.push_back(fill(w.root_param_numel, w.root_act_bytes_per_sample,
                       w.root_act_bytes_per_sample));
  for (const UnitSpec& u : w.units) {
    table.push_back(fill(u.param_numel / tp, u.act_bytes_per_sample,
                         u.ckpt_bytes_per_sample));
  }
  return table;
}

}  // namespace

plan::FsdpPlanOptions MakeSimPlanOptions(const Workload& w,
                                         const sim::Topology& topo,
                                         const FsdpSimConfig& cfg) {
  const int f = NormalizedShardingFactor(topo, cfg);
  plan::FsdpPlanOptions o = plan::FsdpPlanOptions::Sim();
  o.reshard_after_forward = cfg.reshard_after_forward;
  o.backward_prefetch = cfg.backward_prefetch;
  o.forward_prefetch = cfg.forward_prefetch;
  o.limiter = cfg.limit_all_gathers > 0;
  o.replica_allreduce = topo.world() / (f * std::max(cfg.tp_degree, 1)) > 1;
  // F = 1 resharding is the no-op reshard (the unit stays resident);
  // otherwise the reshard is tied to gradient sync exactly like the
  // runtime's, so no_sync / accumulation microbatches keep parameters
  // gathered on both sides of the anti-drift contract.
  o.reshard = f > 1 ? plan::ReshardPolicy::kIfGradSync
                    : plan::ReshardPolicy::kKeepUnsharded;
  o.cpu_offload = cfg.cpu_offload_params;
  o.input_exchange = w.sparse_exchange_bytes_per_sample > 0;
  o.microbatches = cfg.microbatches;
  o.accum = cfg.accum;
  return o;
}

plan::StepPlan BuildSimStepPlan(const Workload& w, const sim::Topology& topo,
                                const FsdpSimConfig& cfg) {
  return plan::BuildFsdpStepPlan(SimUnitNames(w),
                                 MakeSimPlanOptions(w, topo, cfg));
}

plan::PassOptions MakePassOptions(const Workload& w, const sim::Topology& topo,
                                  const FsdpSimConfig& cfg) {
  const int f = NormalizedShardingFactor(topo, cfg);
  plan::PassOptions o;
  for (const UnitSizes& s : UnitSizeTable(w, f, cfg)) {
    o.unit_shard_bytes.push_back(s.shard_bytes);
    o.unit_reduce_bytes.push_back(s.reduce_total_bytes);
  }
  return o;
}

plan::MemoryPlanOptions MakeMemoryPlanOptions(const Workload& w,
                                              const sim::Topology& topo,
                                              const sim::SimConstants& c,
                                              const FsdpSimConfig& cfg) {
  const int f = NormalizedShardingFactor(topo, cfg);
  plan::MemoryPlanOptions o;
  int64_t shard_total = 0;
  for (const UnitSizes& s : UnitSizeTable(w, f, cfg)) {
    o.param_bytes.push_back(s.unsharded_bytes);
    o.grad_bytes.push_back(s.grad_bytes);
    o.act_bytes.push_back(s.act_bytes);
    o.recompute_bytes.push_back(s.recompute_bytes);
    shard_total += s.padded_numel / f;
  }
  o.head_bytes = w.head_act_bytes_per_sample * cfg.batch_per_gpu;
  // Mirrors Run()'s pre-plan persistent allocations: framework overhead,
  // FP32 master shard + gradient shard + two Adam states (on device only
  // without CPU offload), and non-FSDP state.
  o.persistent_bytes = c.framework_overhead_bytes;
  if (!cfg.cpu_offload_params) o.persistent_bytes += shard_total * 16;
  if (w.non_fsdp_state_bytes > 0) o.persistent_bytes += w.non_fsdp_state_bytes;
  return o;
}

FsdpSimulator::FsdpSimulator(Workload workload, sim::Topology topo,
                             sim::SimConstants constants, FsdpSimConfig config)
    : w_(std::move(workload)), topo_(topo), c_(constants), cfg_(config) {
  cfg_.sharding_factor = NormalizedShardingFactor(topo_, cfg_);
  plan_ = BuildSimStepPlan(w_, topo_, cfg_);
}

FsdpSimulator::FsdpSimulator(Workload workload, sim::Topology topo,
                             sim::SimConstants constants, FsdpSimConfig config,
                             plan::StepPlan plan)
    : w_(std::move(workload)), topo_(topo), c_(constants), cfg_(config),
      plan_(std::move(plan)) {
  cfg_.sharding_factor = NormalizedShardingFactor(topo_, cfg_);
  FSDP_CHECK_MSG(plan_.unit_names.size() == w_.units.size() + 1,
                 "plan unit count must match workload (root + N units)");
}

SimMetrics FsdpSimulator::Run() {
  SimMetrics m;
  const int f = cfg_.sharding_factor;
  const int tp = std::max(cfg_.tp_degree, 1);
  FSDP_CHECK_MSG(topo_.world() % (f * tp) == 0, "F x TP must divide world");
  const int replicas = topo_.world() / (f * tp);
  sim::Group shard_g = sim::ShardGroup(topo_, f);
  if (tp > 1) {
    // dp-axis peers stride across the mesh at tp ranks apart: with the
    // canonical tp == gpus_per_host placement, every dp hop crosses hosts.
    const int per_host = std::max(1, topo_.gpus_per_host / tp);
    shard_g.hosts = std::min((f + per_host - 1) / per_host, topo_.num_hosts);
  }
  const sim::Group repl_g = sim::ReplicateGroup(topo_, f * tp);
  const sim::Group world_g = sim::WorldGroup(topo_);
  // TP collectives ride the intra-host lane whenever tp fits in a host.
  sim::Group tp_g;
  tp_g.size = tp;
  tp_g.hosts = (tp + topo_.gpus_per_host - 1) / topo_.gpus_per_host;
  // Pipeline stage boundaries: stages land on different hosts at scale.
  const int pp_hops = topo_.num_hosts > 1 ? 1 : 0;
  sim::CollectiveModel cm(c_, topo_);
  sim::ComputeModel pm(c_);

  sim::SimStream compute("compute"), comm("comm");
  if (cfg_.record_trace) {
    compute.AttachTrace(cfg_.trace_rank, "compute");
    comm.AttachTrace(cfg_.trace_rank, "comm");
  }
  sim::AllocatorConfig acfg;
  acfg.capacity_bytes = c_.hbm_bytes;
  sim::CachingAllocator alloc(acfg);
  // Static memory planning: compile the plan's buffer lifetimes into an
  // arena layout once, and serve every plan-driven allocation as an O(1)
  // cursor bump — no free-list search, no cudaMalloc retries.
  std::optional<sim::ArenaAllocator> arena;
  if (cfg_.static_memory_plan) {
    arena.emplace(
        plan::BuildArenaPlan(plan_, MakeMemoryPlanOptions(w_, topo_, c_, cfg_)),
        c_.hbm_bytes);
  }

  sim::SimTime cpu = 0;
  bool oom = false;
  auto device_sync = [&]() {
    return std::max(compute.available_at(), comm.available_at());
  };
  auto malloc_block = [&](int64_t bytes, int stream, plan::BufKind kind,
                          int unit) -> sim::CachingAllocator::BlockId {
    if (oom || bytes <= 0) return -1;
    if (arena) {
      auto out = arena->Malloc(kind, unit, bytes);
      if (!out.ok) {
        oom = true;
        return -1;
      }
      return out.block;
    }
    auto out = alloc.Malloc(bytes, stream, cpu, device_sync);
    cpu = out.cpu_time_after;
    if (!out.ok) {
      oom = true;
      return -1;
    }
    return out.block;
  };
  auto persist_block = [&](int64_t bytes) {
    if (oom || bytes <= 0) return;
    if (arena) {
      if (!arena->MallocPersistent(bytes).ok) oom = true;
      return;
    }
    auto out = alloc.Malloc(bytes, kComputeStream, cpu, device_sync);
    cpu = out.cpu_time_after;
    if (!out.ok) oom = true;
  };
  auto record_use = [&](sim::CachingAllocator::BlockId id, int stream,
                        sim::SimTime completes_at) {
    // The arena layout is conservative against plan order; no event gating.
    if (!arena) alloc.RecordStreamUse(id, stream, completes_at);
  };
  auto free_block = [&](sim::CachingAllocator::BlockId id) {
    if (arena) {
      arena->Free(id);
    } else {
      alloc.Free(id, cpu);
    }
  };

  const int batch = cfg_.batch_per_gpu;

  // ---- build unit table: index 0 is the root unit ----
  std::vector<UnitSim> units(w_.units.size() + 1);
  const double flops_rate = c_.FlopsPerUs(cfg_.param_dtype);
  const std::vector<UnitSizes> sizes = UnitSizeTable(w_, f, cfg_);
  auto fill = [&](UnitSim& u, const UnitSizes& s, double fwd_flops,
                  int n_kernels) {
    u.padded_numel = s.padded_numel;
    u.shard_bytes = s.shard_bytes;
    u.unsharded_bytes = s.unsharded_bytes;
    u.grad_bytes = s.grad_bytes;
    u.reduce_total_bytes = s.reduce_total_bytes;
    u.fwd_us = fwd_flops * batch / flops_rate +
               n_kernels * c_.kernel_launch_gpu_us;
    // backward = 2x forward matmuls (+ recompute under checkpointing).
    const double recompute = cfg_.activation_checkpointing ? 1.0 : 0.0;
    u.bwd_us = (2.0 + recompute) * fwd_flops * batch / flops_rate +
               2 * n_kernels * c_.kernel_launch_gpu_us;
    u.cpu_fwd_us = pm.CpuIssueTime(n_kernels);
    u.cpu_bwd_us = pm.CpuIssueTime(2 * n_kernels);
    u.act_bytes = s.act_bytes;
    u.recompute_bytes = s.recompute_bytes;
  };
  fill(units[0], sizes[0],
       w_.root_pre_flops_per_sample + w_.root_post_flops_per_sample, 6);
  for (size_t i = 0; i < w_.units.size(); ++i) {
    const UnitSpec& spec = w_.units[i];
    // TP slices each non-root unit's dense math 1/tp per rank.
    fill(units[i + 1], sizes[i + 1], spec.fwd_flops_per_sample / tp,
         spec.n_kernels);
  }
  for (size_t i = 0; i < units.size(); ++i) {
    units[i].label = plan_.unit_names[i];
  }

  // ---- persistent state (allocated once) ----
  persist_block(c_.framework_overhead_bytes);
  int64_t shard_total = 0;
  for (const UnitSim& u : units) shard_total += u.padded_numel / f;
  if (!cfg_.cpu_offload_params) {
    // FP32 master shard + FP32 gradient shard + two Adam states.
    persist_block(shard_total * 4);
    persist_block(shard_total * 4);
    persist_block(shard_total * 8);
  }
  // (With CPU offload the shards live in host memory; only transient device
  // buffers remain.)
  if (w_.non_fsdp_state_bytes > 0) {
    persist_block(w_.non_fsdp_state_bytes);
  }
  const double pcie_bytes_per_us = c_.pcie_gbps * 1e3;

  // ---- cost helpers ----
  auto ar_time = [&](const UnitSim& u) {
    return cm.AllReduce(u.reduce_total_bytes / f, repl_g);
  };
  auto add_traffic = [&](double per_gpu_bytes, const sim::Group& g) {
    if (g.hosts > 1) m.cross_host_bytes_per_gpu += per_gpu_bytes;
  };

  // ---- rate limiter ----
  std::deque<sim::SimTime> free_events;
  auto limiter_gate = [&]() {
    if (cfg_.limit_all_gathers <= 0) return;
    while (static_cast<int>(free_events.size()) >=
           cfg_.limit_all_gathers) {
      if (free_events.front() > cpu) {
        // The CPU thread really blocks on the free event; waking from a
        // cudaEventSynchronize costs real time (the DeepViT-style overhead
        // of throttling, Sec 5.3).
        cpu = free_events.front() + c_.event_sync_us;
      }
      free_events.pop_front();
    }
  };

  // ---- plan interpretation state ----
  // Completion time of each plan instruction, realizing its dependency
  // edges. Persisted across iterations: an unshard skipped because the unit
  // is still gathered (the issue guard) leaves its previous completion time
  // in place, exactly as the retained AllGather end the hand-written
  // schedule used to keep per unit.
  std::vector<sim::SimTime> done(plan_.instrs.size(), 0);
  auto dep_max = [&](const plan::Instr& in) {
    sim::SimTime t = 0;
    for (int d : in.deps) t = std::max(t, done[static_cast<size_t>(d)]);
    return t;
  };
  auto dep_times = [&](const plan::Instr& in, sim::SimTime extra = -1) {
    std::vector<sim::SimTime> t;
    t.reserve(in.deps.size() + 1);
    for (int d : in.deps) t.push_back(done[static_cast<size_t>(d)]);
    if (extra >= 0) t.push_back(extra);
    return t;
  };

  // ---- iterations: replay the same step plan back-to-back ----
  sim::SimTime prev_iter_end = 0;
  sim::SimTime params_ready = 0;  // optimizer completion gates next forward
  double compute_busy_before = 0, comm_busy_before = 0;
  double iter_flops = 0;
  sim::CachingAllocator::BlockId head_block = -1;

  for (int iter = 0; iter < cfg_.iterations && !oom; ++iter) {
    const bool last_iter = iter + 1 == cfg_.iterations;
    if (arena) arena->BeginIteration();
    if (last_iter) {
      compute_busy_before = compute.busy_us();
      comm_busy_before = comm.busy_us();
      if (arena) {
        arena->ResetPeaks();
      } else {
        alloc.ResetPeaks();
      }
      m.cross_host_bytes_per_gpu = 0;
      iter_flops = 0;
    }
    sim::SimTime last_comm_end = 0;

    for (size_t ip = 0; ip < plan_.instrs.size() && !oom; ++ip) {
      const plan::Instr& in = plan_.instrs[ip];
      const size_t ui = in.unit >= 0 ? static_cast<size_t>(in.unit) : 0;
      // Perturbation-injected straggler delay (plan/perturb.h): stall the
      // issuing CPU thread before this instruction, pushing everything
      // launched after it.
      if (in.delay_us > 0) cpu += in.delay_us;
      switch (in.op) {
        case plan::Op::kRateLimitGate:
          // Gates pair with their unshard: both no-op for a still-gathered
          // unit (the runtime's issue guard).
          if (!units[ui].unsharded) limiter_gate();
          break;

        case plan::Op::kUnshard: {
          // A batched instruction (the fusion pass) gathers every covered
          // unit's shard in ONE collective; unbatched instructions cover
          // exactly their own unit. Units retained from a previous step are
          // skipped (the runtime's issue guard).
          int64_t sum_shard = 0, sum_unsharded = 0;
          std::vector<int> need;
          for (int cu : plan::CoveredUnits(in)) {
            const UnitSim& u = units[static_cast<size_t>(cu)];
            if (u.unsharded) continue;
            need.push_back(cu);
            sum_shard += u.shard_bytes;
            sum_unsharded += u.unsharded_bytes;
          }
          if (need.empty()) break;  // retained from a previous step
          for (int cu : need) {
            UnitSim& u = units[static_cast<size_t>(cu)];
            u.param_block = malloc_block(u.unsharded_bytes, kCommStream,
                                         plan::BufKind::kParam, cu);
          }
          if (oom) break;
          std::string label = units[static_cast<size_t>(need.front())].label;
          for (size_t k = 1; k < need.size(); ++k) {
            label += "+" + units[static_cast<size_t>(need[k])].label;
          }
          if (cfg_.cpu_offload_params) {
            // H2D copy of the local shard(s) precedes the AllGather (FSDP
            // CPUOffload streams the shard up just in time).
            comm.Launch(cpu, sum_shard / pcie_bytes_per_us, {},
                        obs::EventKind::kH2D, label, sum_shard);
            cpu += c_.cpu_issue_us_per_kernel;
          }
          done[ip] = comm.Launch(cpu, cm.AllGatherBase(sum_shard, shard_g),
                                 {}, obs::EventKind::kAllGather, label,
                                 sum_unsharded);
          cpu += c_.cpu_issue_us_per_kernel;
          for (int cu : need) units[static_cast<size_t>(cu)].unsharded = true;
          if (last_iter) {
            add_traffic(static_cast<double>(shard_g.size - 1) * sum_shard,
                        shard_g);
          }
          break;
        }

        case plan::Op::kWaitUnshard:
        case plan::Op::kWaitReduceGrad:
          // Free in virtual time: the CPU thread runs ahead of the device
          // (Sec 3.4); the downstream dependency edges carry the ordering.
          break;

        case plan::Op::kInputExchange: {
          const int64_t bytes = w_.sparse_exchange_bytes_per_sample * batch;
          const double t =
              c_.collective_launch_us +
              bytes / cm.EffectiveBwBytesPerUs(bytes, world_g);
          done[ip] = comm.Launch(cpu, t, {params_ready},
                                 obs::EventKind::kAllToAll, "sparse", bytes);
          cpu += c_.cpu_issue_us_per_kernel;
          if (last_iter) add_traffic(static_cast<double>(bytes), world_g);
          break;
        }

        case plan::Op::kCompute: {
          UnitSim& u = units[ui];
          if (in.phase == plan::Phase::kForward) {
            if (in.seg == plan::Seg::kRootPre) {
              // Embedding-side prologue of the root unit (Sec 3.3.1).
              done[ip] = compute.Launch(
                  cpu,
                  w_.root_pre_flops_per_sample * batch / flops_rate +
                      c_.kernel_launch_gpu_us,
                  dep_times(in, params_ready), obs::EventKind::kForward,
                  u.label + ".pre");
              cpu += pm.CpuIssueTime(2);
            } else if (in.seg == plan::Seg::kRootHead) {
              // Head / logits at the end of forward; logits and loss scratch
              // live until the head backward completes.
              head_block = malloc_block(w_.head_act_bytes_per_sample * batch,
                                        kComputeStream, plan::BufKind::kHead,
                                        in.unit);
              done[ip] = compute.Launch(
                  cpu,
                  w_.root_post_flops_per_sample * batch / flops_rate +
                      c_.kernel_launch_gpu_us,
                  dep_times(in, params_ready), obs::EventKind::kForward,
                  u.label + ".head");
              cpu += pm.CpuIssueTime(4);
              if (last_iter) {
                iter_flops += w_.root_post_flops_per_sample * batch;
              }
            } else {
              if (in.unit != 0 && u.act_block < 0) {
                u.act_block = malloc_block(u.act_bytes, kComputeStream,
                                           plan::BufKind::kAct, in.unit);
              }
              done[ip] = compute.Launch(cpu, u.fwd_us,
                                        dep_times(in, params_ready),
                                        obs::EventKind::kForward, u.label);
              cpu += u.cpu_fwd_us;
              if (last_iter) iter_flops += u.fwd_us * flops_rate;
              if (u.param_block >= 0) {
                record_use(u.param_block, kComputeStream, done[ip]);
              }
            }
          } else {  // backward
            if (in.seg == plan::Seg::kRootHead) {
              done[ip] = compute.Launch(
                  cpu,
                  2.0 * w_.root_post_flops_per_sample * batch / flops_rate +
                      c_.kernel_launch_gpu_us,
                  dep_times(in), obs::EventKind::kBackward,
                  u.label + ".head");
              cpu += pm.CpuIssueTime(4);
              if (last_iter) {
                iter_flops += 2.0 * w_.root_post_flops_per_sample * batch;
              }
              if (head_block >= 0) {
                record_use(head_block, kComputeStream, done[ip]);
                free_block(head_block);
                head_block = -1;
              }
            } else if (in.seg == plan::Seg::kRootPre) {
              // Root (embedding-side) backward. Its FLOPs are intentionally
              // not counted — the head-side 2x covers the measured root
              // backward in the calibrated workloads.
              done[ip] = compute.Launch(
                  cpu,
                  2.0 * w_.root_pre_flops_per_sample * batch / flops_rate +
                      c_.kernel_launch_gpu_us,
                  dep_times(in), obs::EventKind::kBackward, u.label);
              cpu += pm.CpuIssueTime(2);
              if (u.grad_block < 0) {
                u.grad_block = malloc_block(u.grad_bytes, kComputeStream,
                                            plan::BufKind::kGrad, in.unit);
              }
              last_comm_end = std::max(last_comm_end, done[ip]);
            } else {
              if (u.grad_block < 0) {
                u.grad_block = malloc_block(u.grad_bytes, kComputeStream,
                                            plan::BufKind::kGrad, in.unit);
              }
              // Activation checkpointing re-materializes the full
              // activations for the duration of this unit's backward.
              sim::CachingAllocator::BlockId recompute_block =
                  malloc_block(u.recompute_bytes, kComputeStream,
                               plan::BufKind::kRecompute, in.unit);
              done[ip] = compute.Launch(cpu, u.bwd_us, dep_times(in),
                                        obs::EventKind::kBackward, u.label);
              cpu += u.cpu_bwd_us;
              if (last_iter) iter_flops += u.bwd_us * flops_rate;
              if (recompute_block >= 0) {
                record_use(recompute_block, kComputeStream, done[ip]);
                free_block(recompute_block);
              }
            }
          }
          break;
        }

        case plan::Op::kReduceGrad: {
          // Batched reductions (the fusion pass) reduce every covered
          // unit's gradient in one ReduceScatter.
          int64_t sum_reduce = 0;
          std::string label;
          for (int cu : plan::CoveredUnits(in)) {
            sum_reduce += units[static_cast<size_t>(cu)].reduce_total_bytes;
            if (!label.empty()) label += "+";
            label += units[static_cast<size_t>(cu)].label;
          }
          done[ip] = comm.Launch(cpu, cm.ReduceScatter(sum_reduce, shard_g),
                                 dep_times(in), obs::EventKind::kReduceScatter,
                                 label, sum_reduce);
          cpu += c_.cpu_issue_us_per_kernel;
          if (last_iter) {
            add_traffic(static_cast<double>(shard_g.size - 1) / shard_g.size *
                            sum_reduce,
                        shard_g);
          }
          last_comm_end = std::max(last_comm_end, done[ip]);
          break;
        }

        case plan::Op::kAllReduceReplicas: {
          UnitSim& u = units[ui];
          if (replicas <= 1) {
            done[ip] = dep_max(in);
            break;
          }
          done[ip] = comm.Launch(cpu, ar_time(u), dep_times(in),
                                 obs::EventKind::kAllReduce, u.label,
                                 u.reduce_total_bytes / f);
          cpu += c_.cpu_issue_us_per_kernel;
          if (last_iter) {
            add_traffic(2.0 * (repl_g.size - 1) / repl_g.size *
                            (u.reduce_total_bytes / f),
                        repl_g);
          }
          last_comm_end = std::max(last_comm_end, done[ip]);
          break;
        }

        case plan::Op::kGradOffloadD2H: {
          UnitSim& u = units[ui];
          if (!cfg_.cpu_offload_params) {
            done[ip] = dep_max(in);
            break;
          }
          // D2H copy of the reduced gradient shard back to host.
          done[ip] = comm.Launch(
              cpu, (u.reduce_total_bytes / f) / pcie_bytes_per_us,
              dep_times(in), obs::EventKind::kD2H, u.label,
              u.reduce_total_bytes / f);
          cpu += c_.cpu_issue_us_per_kernel;
          last_comm_end = std::max(last_comm_end, done[ip]);
          break;
        }

        case plan::Op::kFreeGrad: {
          UnitSim& u = units[ui];
          if (u.grad_block >= 0) {
            record_use(u.grad_block, kCommStream, dep_max(in));
            free_block(u.grad_block);
            u.grad_block = -1;
          }
          break;
        }

        case plan::Op::kReshard: {
          UnitSim& u = units[ui];
          if (in.phase == plan::Phase::kForward) {
            // Reshard-after-forward: the compute handler already recorded
            // the parameter's use; the free event feeds the rate limiter.
            if (u.param_block >= 0) free_block(u.param_block);
            u.param_block = -1;
            u.unsharded = false;
            free_events.push_back(dep_max(in));
          } else if (u.param_block >= 0 && !in.retain) {
            // Backward reshard (all sharded strategies; the plan's retain
            // flag marks the F = 1 no-op reshard that keeps the unit
            // resident). The root's free is not a limiter event — nothing
            // can be gathered behind it.
            record_use(u.param_block, kComputeStream, dep_max(in));
            free_block(u.param_block);
            u.param_block = -1;
            u.unsharded = false;
            if (in.unit != 0) free_events.push_back(dep_max(in));
          }
          break;
        }

        case plan::Op::kFreeAct: {
          UnitSim& u = units[ui];
          if (u.act_block >= 0) {
            record_use(u.act_block, kComputeStream, dep_max(in));
            free_block(u.act_block);
            u.act_block = -1;
          }
          break;
        }

        case plan::Op::kTpAllGather: {
          // Axis-scoped activation gather on the tp lane (Megatron
          // gather_output). Payload comes from the plan instruction.
          const int64_t bytes = in.bytes > 0 ? in.bytes : units[ui].act_bytes;
          done[ip] = comm.Launch(cpu, cm.AllGatherBase(bytes / tp, tp_g),
                                 dep_times(in), obs::EventKind::kAllGather,
                                 units[ui].label + ".tp", bytes);
          cpu += c_.cpu_issue_us_per_kernel;
          if (last_iter && tp_g.hosts > 1) {
            add_traffic(static_cast<double>(tp_g.size - 1) * (bytes / tp),
                        tp_g);
          }
          break;
        }

        case plan::Op::kTpAllReduce: {
          // The Megatron activation AllReduce (g forward / f backward).
          const int64_t bytes = in.bytes > 0 ? in.bytes : units[ui].act_bytes;
          done[ip] = comm.Launch(cpu, cm.AllReduce(bytes, tp_g),
                                 dep_times(in), obs::EventKind::kAllReduce,
                                 units[ui].label + ".tp", bytes);
          cpu += c_.cpu_issue_us_per_kernel;
          if (last_iter && tp_g.hosts > 1) {
            add_traffic(2.0 * (tp_g.size - 1) / tp_g.size * bytes, tp_g);
          }
          break;
        }

        case plan::Op::kSendAct: {
          // Pipeline boundary: one point-to-point hop to the peer stage.
          done[ip] = comm.Launch(cpu, cm.PointToPoint(in.bytes, pp_hops),
                                 dep_times(in), obs::EventKind::kSend,
                                 "pp", in.bytes);
          cpu += c_.cpu_issue_us_per_kernel;
          if (last_iter && pp_hops > 0) {
            sim::Group pair{2, 2};
            add_traffic(static_cast<double>(in.bytes), pair);
          }
          break;
        }

        case plan::Op::kRecvAct:
          // Free in virtual time: the matching send's completion arrives
          // through this instruction's cross-stage dependency edge.
          done[ip] = dep_max(in);
          break;

        case plan::Op::kOptimStep: {
          // Adam over the FP32 shard: memory-bound (read p/g/m/v, write
          // p/m/v). With CPU offload the step runs on the host at
          // host-memory bandwidth.
          const double opt_bw = cfg_.cpu_offload_params
                                    ? c_.host_mem_gbps * 1e3
                                    : sim::kHbmBytesPerUs;
          const double opt_us =
              7.0 * shard_total * 4 / opt_bw + c_.kernel_launch_gpu_us;
          params_ready = compute.Launch(cpu, opt_us, {last_comm_end},
                                        obs::EventKind::kOptimStep, "adam",
                                        shard_total * 4);
          done[ip] = params_ready;
          cpu = std::max(cpu, params_ready);
          cpu = std::max(cpu, comm.available_at());
          break;
        }
      }
    }
    if (oom) break;

    if (last_iter) {
      m.iter_time_us = cpu - prev_iter_end;
      m.compute_busy_us = compute.busy_us() - compute_busy_before;
      m.comm_busy_us = comm.busy_us() - comm_busy_before;
      const auto& st = arena ? arena->stats() : alloc.stats(cpu);
      m.peak_allocated = st.peak_allocated;
      m.peak_active = st.peak_active;
      m.peak_reserved = st.peak_reserved;
      m.num_alloc_retries = st.num_alloc_retries;
      m.tflops_per_gpu = iter_flops / m.iter_time_us / 1e6;
      m.qps_per_gpu =
          batch * cfg_.microbatches / (m.iter_time_us / 1e6);
      m.exposed_comm_us = std::max(0.0, m.iter_time_us - m.compute_busy_us);
    }
    prev_iter_end = cpu;
  }
  m.oom = oom;
  return m;
}

plan::StepPlan BuildDdpSimPlan(const Workload& w, const DdpSimConfig& cfg) {
  const int64_t esize = SizeOf(cfg.dtype);
  plan::DdpPlanOptions o;
  o.bucket_bytes = cfg.bucket_bytes;
  o.unit_bytes.reserve(w.units.size() + 1);
  o.unit_bytes.push_back(w.root_param_numel * esize);
  for (const auto& u : w.units) o.unit_bytes.push_back(u.param_numel * esize);
  return plan::BuildDdpStepPlan(SimUnitNames(w), o);
}

DdpSimulator::DdpSimulator(Workload workload, sim::Topology topo,
                           sim::SimConstants constants, DdpSimConfig config)
    : w_(std::move(workload)), topo_(topo), c_(constants), cfg_(config) {
  plan_ = BuildDdpSimPlan(w_, cfg_);
}

SimMetrics DdpSimulator::Run() {
  SimMetrics m;
  const sim::Group world_g = sim::WorldGroup(topo_);
  sim::CollectiveModel cm(c_, topo_);
  sim::ComputeModel pm(c_);
  sim::SimStream compute("compute"), comm("comm");
  sim::AllocatorConfig acfg;
  acfg.capacity_bytes = c_.hbm_bytes;
  sim::CachingAllocator alloc(acfg);

  sim::SimTime cpu = 0;
  bool oom = false;
  auto device_sync = [&]() {
    return std::max(compute.available_at(), comm.available_at());
  };
  auto malloc_block = [&](int64_t bytes) -> sim::CachingAllocator::BlockId {
    if (oom || bytes <= 0) return -1;
    auto out = alloc.Malloc(bytes, kComputeStream, cpu, device_sync);
    cpu = out.cpu_time_after;
    if (!out.ok) oom = true;
    return out.block;
  };

  const int64_t esize = SizeOf(cfg_.dtype);
  const int batch = cfg_.batch_per_gpu;
  const double flops_rate = c_.FlopsPerUs(cfg_.dtype);
  const int64_t total_params = w_.total_params();

  // Full replica: params + grads + two Adam states, all resident (the DDP
  // requirement that OOMs beyond ~2.28B on 40-80GB devices, Sec 2.1/5.2).
  (void)malloc_block(c_.framework_overhead_bytes);
  (void)malloc_block(total_params * esize);        // params
  (void)malloc_block(total_params * esize);        // grads
  (void)malloc_block(total_params * 8);            // Adam m, v (fp32)
  if (w_.non_fsdp_state_bytes > 0) (void)malloc_block(w_.non_fsdp_state_bytes);

  // Activations for the whole model (no resharding to save anything).
  int64_t act_bytes = w_.root_act_bytes_per_sample;
  for (const auto& u : w_.units) {
    act_bytes += cfg_.activation_checkpointing ? u.ckpt_bytes_per_sample
                                               : u.act_bytes_per_sample;
  }
  (void)malloc_block(act_bytes * batch);

  if (oom) {
    m.oom = true;
    return m;
  }

  const double recompute = cfg_.activation_checkpointing ? 1.0 : 0.0;
  std::vector<sim::SimTime> done(plan_.instrs.size(), 0);
  auto dep_times = [&](const plan::Instr& in) {
    std::vector<sim::SimTime> t;
    t.reserve(in.deps.size());
    for (int d : in.deps) t.push_back(done[static_cast<size_t>(d)]);
    return t;
  };

  sim::SimTime prev_iter_end = 0;
  double compute_busy_before = 0, comm_busy_before = 0;
  double iter_flops = 0;

  for (int iter = 0; iter < cfg_.iterations; ++iter) {
    const bool last_iter = iter + 1 == cfg_.iterations;
    if (last_iter) {
      compute_busy_before = compute.busy_us();
      comm_busy_before = comm.busy_us();
      m.cross_host_bytes_per_gpu = 0;
      iter_flops = 0;
    }
    sim::SimTime last_comm_end = 0;

    for (size_t ip = 0; ip < plan_.instrs.size(); ++ip) {
      const plan::Instr& in = plan_.instrs[ip];
      switch (in.op) {
        case plan::Op::kCompute: {
          if (in.seg == plan::Seg::kRootPre) {
            done[ip] = compute.Launch(
                cpu,
                w_.root_pre_flops_per_sample * batch / flops_rate +
                    c_.kernel_launch_gpu_us,
                dep_times(in));
            cpu += pm.CpuIssueTime(2);
          } else if (in.seg == plan::Seg::kRootHead) {
            if (in.phase == plan::Phase::kForward) {
              done[ip] = compute.Launch(
                  cpu,
                  w_.root_post_flops_per_sample * batch / flops_rate +
                      c_.kernel_launch_gpu_us,
                  dep_times(in));
              cpu += pm.CpuIssueTime(4);
              if (last_iter) {
                // 3x: the calibrated head covers its own forward + backward.
                iter_flops += (w_.root_post_flops_per_sample * 3.0) * batch;
              }
            } else {
              done[ip] = compute.Launch(
                  cpu,
                  2.0 * w_.root_post_flops_per_sample * batch / flops_rate +
                      c_.kernel_launch_gpu_us,
                  dep_times(in));
              cpu += pm.CpuIssueTime(4);
            }
          } else {
            const UnitSpec& u = w_.units[static_cast<size_t>(in.unit - 1)];
            if (in.phase == plan::Phase::kForward) {
              const double fwd =
                  u.fwd_flops_per_sample * batch / flops_rate +
                  u.n_kernels * c_.kernel_launch_gpu_us;
              done[ip] = compute.Launch(cpu, fwd, dep_times(in));
              cpu += pm.CpuIssueTime(u.n_kernels);
              if (last_iter) iter_flops += fwd * flops_rate;
            } else {
              const double bwd =
                  (2.0 + recompute) * u.fwd_flops_per_sample * batch /
                      flops_rate +
                  2 * u.n_kernels * c_.kernel_launch_gpu_us;
              done[ip] = compute.Launch(cpu, bwd, dep_times(in));
              cpu += pm.CpuIssueTime(2 * u.n_kernels);
              if (last_iter) iter_flops += bwd * flops_rate;
            }
          }
          break;
        }

        case plan::Op::kReduceGrad: {
          // Bucketed AllReduce; the bucket's byte count is carried by the
          // instruction (structure decided by the builder).
          done[ip] = comm.Launch(cpu, cm.AllReduce(in.bytes, world_g),
                                 dep_times(in));
          cpu += c_.cpu_issue_us_per_kernel;
          if (last_iter && world_g.hosts > 1) {
            m.cross_host_bytes_per_gpu +=
                2.0 * (world_g.size - 1) / world_g.size * in.bytes;
          }
          last_comm_end = done[ip];
          break;
        }

        case plan::Op::kOptimStep: {
          const double opt_us = 7.0 * total_params * 4 / sim::kHbmBytesPerUs +
                                c_.kernel_launch_gpu_us;
          done[ip] = compute.Launch(cpu, opt_us, {last_comm_end});
          cpu = std::max({cpu, done[ip], comm.available_at()});
          break;
        }

        default:
          break;  // DDP plans carry no other ops
      }
    }

    if (last_iter) {
      m.iter_time_us = cpu - prev_iter_end;
      m.compute_busy_us = compute.busy_us() - compute_busy_before;
      m.comm_busy_us = comm.busy_us() - comm_busy_before;
      const auto& st = alloc.stats(cpu);
      m.peak_allocated = st.peak_allocated;
      m.peak_active = st.peak_active;
      m.peak_reserved = st.peak_reserved;
      m.num_alloc_retries = st.num_alloc_retries;
      m.tflops_per_gpu = iter_flops / m.iter_time_us / 1e6;
      m.qps_per_gpu = batch / (m.iter_time_us / 1e6);
      m.exposed_comm_us = std::max(0.0, m.iter_time_us - m.compute_busy_us);
    }
    prev_iter_end = cpu;
  }
  m.oom = oom;
  return m;
}

double AnalyticCrossHostTraffic(double model_bytes, const sim::Topology& topo,
                                int sharding_factor, bool full_replication) {
  const double w = topo.world();
  const double g = topo.gpus_per_host;
  if (full_replication) return 2.0 * model_bytes * (w - 1) / w;
  if (sharding_factor >= topo.world()) {
    return 3.0 * model_bytes * (w - 1) / w;
  }
  // Hybrid with intra-host shard groups: only the gradient AllReduce crosses
  // hosts. Exact form 2M(W-G)/(GW); the paper approximates 2M(W-1)/(GW).
  return 2.0 * model_bytes * (w - g) / (g * w);
}

}  // namespace fsdp::simfsdp
