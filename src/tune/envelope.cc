#include "tune/envelope.h"

#include <algorithm>
#include <vector>

#include "plan/passes.h"

namespace fsdp::tune {

namespace {

/// Raw link bandwidth in bytes/us for a group — the ceiling of
/// CollectiveModel::EffectiveBwBytesPerUs (saturation and straggler terms
/// only derate it), which is what makes moved/raw a true lower bound.
double RawBwBytesPerUs(const sim::SimConstants& c, const sim::Group& g) {
  return (g.intra_host() ? c.intra_host_bw_gbps : c.inter_host_bw_gbps) * 1e3;
}

}  // namespace

Envelope ComputeEnvelope(const CompiledCandidate& cc, const TuneInputs& in) {
  Envelope env;
  const sim::SimConstants& c = in.constants;
  env.capacity_bytes =
      in.capacity_bytes > 0 ? in.capacity_bytes : c.hbm_bytes;

  // ---- memory: the exact arena the scoring simulator will reserve ----
  env.peak_bytes =
      plan::BuildArenaPlan(cc.plan, simfsdp::MakeMemoryPlanOptions(
                                        cc.workload, in.topo, c, cc.config))
          .total_bytes;
  env.memory_feasible = env.peak_bytes <= env.capacity_bytes;

  // ---- bandwidth / compute lower bounds ----
  const int world = in.topo.world();
  const int f = cc.config.sharding_factor <= 0 ? world
                                               : cc.config.sharding_factor;
  const sim::Group shard_g = sim::ShardGroup(in.topo, f);
  const sim::Group repl_g = sim::ReplicateGroup(in.topo, f);
  const sim::Group world_g = sim::WorldGroup(in.topo);
  const double shard_bw = RawBwBytesPerUs(c, shard_g);
  const double repl_bw = RawBwBytesPerUs(c, repl_g);
  const double world_bw = RawBwBytesPerUs(c, world_g);
  const double pcie_bw = c.pcie_gbps * 1e3;
  const double flops_rate = c.FlopsPerUs(cc.config.param_dtype);
  const int batch = cc.config.batch_per_gpu;
  const double recompute = cc.config.activation_checkpointing ? 1.0 : 0.0;
  const simfsdp::Workload& w = cc.workload;
  const std::vector<int64_t>& shard_bytes = cc.pass_options.unit_shard_bytes;
  const std::vector<int64_t>& reduce_bytes = cc.pass_options.unit_reduce_bytes;

  int64_t shard_total_numel = 0;  // per-rank FP32 master shard numel
  {
    auto pad = [&](int64_t numel) { return (numel + f - 1) / f * f / f; };
    shard_total_numel += pad(w.root_param_numel);
    for (const simfsdp::UnitSpec& u : w.units) {
      shard_total_numel += pad(u.param_numel);
    }
  }

  auto unit_fwd_flops = [&](int unit) -> double {
    if (unit <= 0) {
      return w.root_pre_flops_per_sample + w.root_post_flops_per_sample;
    }
    return w.units[static_cast<size_t>(unit - 1)].fwd_flops_per_sample;
  };

  // Two passes over the plan: the first warms the gathered-unit set exactly
  // like the simulator's issue guard (retained units' re-unshards no-op in
  // steady state), the second counts. Gathered state is per plan replay, so
  // the counted pass is the steady-state iteration the simulator reports.
  std::vector<char> unsharded(cc.plan.unit_names.size(), 0);
  double comm = 0, compute = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool count = pass == 1;
    for (const plan::Instr& instr : cc.plan.instrs) {
      switch (instr.op) {
        case plan::Op::kUnshard: {
          int64_t sum_shard = 0;
          for (int cu : plan::CoveredUnits(instr)) {
            if (unsharded[static_cast<size_t>(cu)]) continue;
            sum_shard += shard_bytes[static_cast<size_t>(cu)];
            unsharded[static_cast<size_t>(cu)] = 1;
          }
          if (count && sum_shard > 0) {
            if (cc.config.cpu_offload_params) comm += sum_shard / pcie_bw;
            comm += static_cast<double>(shard_g.size - 1) * sum_shard /
                    shard_bw;
          }
          break;
        }
        case plan::Op::kReshard: {
          const size_t ui = instr.unit >= 0 ? static_cast<size_t>(instr.unit)
                                            : 0;
          if (instr.phase == plan::Phase::kForward ||
              (!instr.retain && unsharded[ui])) {
            unsharded[ui] = 0;
          }
          break;
        }
        case plan::Op::kReduceGrad: {
          if (!count) break;
          int64_t sum_reduce = 0;
          for (int cu : plan::CoveredUnits(instr)) {
            sum_reduce += reduce_bytes[static_cast<size_t>(cu)];
          }
          comm += static_cast<double>(shard_g.size - 1) *
                  (static_cast<double>(sum_reduce) /
                   std::max(shard_g.size, 1)) /
                  shard_bw;
          break;
        }
        case plan::Op::kAllReduceReplicas: {
          if (!count || repl_g.size <= 1) break;
          const size_t ui = instr.unit >= 0 ? static_cast<size_t>(instr.unit)
                                            : 0;
          const double bytes =
              static_cast<double>(reduce_bytes[ui]) / f;
          comm += 2.0 * (repl_g.size - 1) * (bytes / repl_g.size) / repl_bw;
          break;
        }
        case plan::Op::kGradOffloadD2H: {
          if (!count || !cc.config.cpu_offload_params) break;
          const size_t ui = instr.unit >= 0 ? static_cast<size_t>(instr.unit)
                                            : 0;
          comm += (static_cast<double>(reduce_bytes[ui]) / f) / pcie_bw;
          break;
        }
        case plan::Op::kInputExchange: {
          if (!count) break;
          comm += static_cast<double>(w.sparse_exchange_bytes_per_sample) *
                  batch / world_bw;
          break;
        }
        case plan::Op::kCompute: {
          if (!count) break;
          double flops = 0;
          if (instr.seg == plan::Seg::kRootPre) {
            flops = w.root_pre_flops_per_sample * batch;
            if (instr.phase == plan::Phase::kBackward) flops *= 2.0;
          } else if (instr.seg == plan::Seg::kRootHead) {
            flops = w.root_post_flops_per_sample * batch;
            if (instr.phase == plan::Phase::kBackward) flops *= 2.0;
          } else {
            flops = unit_fwd_flops(instr.unit) * batch;
            if (instr.phase == plan::Phase::kBackward) {
              // Backward = 2x forward matmuls (+ recompute under
              // checkpointing) — but the root-as-one-unit (runtime-shape)
              // backward recomputes nothing.
              flops *= instr.unit == 0 ? 2.0 : 2.0 + recompute;
            }
          }
          compute += flops / flops_rate;
          break;
        }
        case plan::Op::kOptimStep: {
          if (!count) break;
          // The simulator's bytes at the simulator's rate, minus its launch
          // overhead.
          const double opt_bw = cc.config.cpu_offload_params
                                    ? c.host_mem_gbps * 1e3
                                    : sim::kHbmBytesPerUs;
          compute += 7.0 * shard_total_numel * 4 / opt_bw;
          break;
        }
        default:
          break;  // gates, waits, frees: no stream time
      }
    }
  }
  env.comm_lb_us = comm;
  env.compute_lb_us = compute;
  env.step_lb_us = std::max(comm, compute);
  return env;
}

}  // namespace fsdp::tune
