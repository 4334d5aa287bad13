#include "tune/search_space.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace fsdp::tune {

std::string TuneCandidate::Key() const {
  std::ostringstream out;
  out << "bp=" << (backward_prefetch ? 1 : 0)
      << ",fp=" << (forward_prefetch ? 1 : 0) << ",lim=" << limit_all_gathers
      << ",f=" << sharding_factor << ",raf=" << (reshard_after_forward ? 1 : 0)
      << ",wrap=" << wrap_blocks_per_unit << ",fuse=" << fuse_below_bytes
      << ",hoist=" << max_hoist_computes << ",sink=" << max_sink_computes;
  return out.str();
}

std::string TuneCandidate::Describe() const {
  std::ostringstream out;
  if (!name.empty()) out << name << ": ";
  out << (backward_prefetch ? "bwd-prefetch" : "no-bwd-prefetch");
  if (forward_prefetch) out << " fwd-prefetch";
  out << " limiter=" << limit_all_gathers;
  out << (sharding_factor == 0
              ? " full-shard"
              : " F=" + std::to_string(sharding_factor));
  out << (reshard_after_forward ? " reshard-fwd" : " keep-after-fwd");
  out << " wrap=" << wrap_blocks_per_unit;
  if (fuse_below_bytes > 0) {
    out << " fuse<" << (fuse_below_bytes >> 20) << "MiB";
  }
  if (max_hoist_computes > 0) out << " hoist=" << max_hoist_computes;
  if (max_sink_computes > 0) out << " sink=" << max_sink_computes;
  return out.str();
}

int64_t SearchSpace::RawSize() const {
  return static_cast<int64_t>(backward_prefetch.size()) *
         forward_prefetch.size() * limit_all_gathers.size() *
         sharding_factor.size() * reshard_after_forward.size() *
         wrap_blocks_per_unit.size() * fuse_below_bytes.size() *
         max_hoist_computes.size() * max_sink_computes.size();
}

SearchSpace SearchSpace::Default(const sim::Topology& topo) {
  SearchSpace s;
  s.sharding_factor.clear();
  for (int f : {0, topo.gpus_per_host, 2, 1}) {
    if (f > topo.world()) continue;
    if (f > 0 && topo.world() % f != 0) continue;
    if (f == topo.world()) f = 0;  // full shard is canonically 0
    if (std::find(s.sharding_factor.begin(), s.sharding_factor.end(), f) ==
        s.sharding_factor.end()) {
      s.sharding_factor.push_back(f);
    }
  }
  return s;
}

simfsdp::Workload ApplyWrapGranularity(const simfsdp::Workload& w,
                                       int blocks_per_unit) {
  if (blocks_per_unit <= 1) return w;
  simfsdp::Workload out = w;
  out.units.clear();
  for (size_t i = 0; i < w.units.size(); i += blocks_per_unit) {
    simfsdp::UnitSpec merged = w.units[i];
    for (size_t j = i + 1;
         j < w.units.size() && j < i + static_cast<size_t>(blocks_per_unit);
         ++j) {
      const simfsdp::UnitSpec& u = w.units[j];
      merged.name += "+" + u.name;
      merged.param_numel += u.param_numel;
      merged.fwd_flops_per_sample += u.fwd_flops_per_sample;
      merged.act_bytes_per_sample += u.act_bytes_per_sample;
      merged.ckpt_bytes_per_sample += u.ckpt_bytes_per_sample;
      merged.n_kernels += u.n_kernels;
    }
    out.units.push_back(std::move(merged));
  }
  return out;
}

std::vector<TuneCandidate> EnumerateCandidates(const SearchSpace& s) {
  std::vector<TuneCandidate> out;
  out.reserve(static_cast<size_t>(s.RawSize()));
  for (int bp : s.backward_prefetch)
    for (int fp : s.forward_prefetch)
      for (int lim : s.limit_all_gathers)
        for (int f : s.sharding_factor)
          for (int raf : s.reshard_after_forward)
            for (int wrap : s.wrap_blocks_per_unit)
              for (int64_t fuse : s.fuse_below_bytes)
                for (int hoist : s.max_hoist_computes)
                  for (int sink : s.max_sink_computes) {
                    TuneCandidate c;
                    c.backward_prefetch = bp != 0;
                    c.forward_prefetch = fp != 0;
                    c.limit_all_gathers = lim;
                    c.sharding_factor = f;
                    c.reshard_after_forward = raf != 0;
                    c.wrap_blocks_per_unit = wrap;
                    c.fuse_below_bytes = fuse;
                    c.max_hoist_computes = hoist;
                    c.max_sink_computes = sink;
                    out.push_back(std::move(c));
                  }
  return out;
}

namespace {

template <typename T>
void AddAxisNeighbors(const std::vector<T>& axis, T cur,
                      const std::function<void(T)>& emit) {
  auto it = std::find(axis.begin(), axis.end(), cur);
  if (it == axis.end()) return;
  if (it != axis.begin()) emit(*std::prev(it));
  if (std::next(it) != axis.end()) emit(*std::next(it));
}

}  // namespace

std::vector<TuneCandidate> NeighborCandidates(const SearchSpace& s,
                                              const TuneCandidate& cand) {
  std::vector<TuneCandidate> out;
  auto push = [&](TuneCandidate c) {
    c.name.clear();
    out.push_back(std::move(c));
  };
  AddAxisNeighbors<int>(s.backward_prefetch, cand.backward_prefetch ? 1 : 0,
                        [&](int v) {
                          TuneCandidate c = cand;
                          c.backward_prefetch = v != 0;
                          push(c);
                        });
  AddAxisNeighbors<int>(s.forward_prefetch, cand.forward_prefetch ? 1 : 0,
                        [&](int v) {
                          TuneCandidate c = cand;
                          c.forward_prefetch = v != 0;
                          push(c);
                        });
  AddAxisNeighbors<int>(s.limit_all_gathers, cand.limit_all_gathers,
                        [&](int v) {
                          TuneCandidate c = cand;
                          c.limit_all_gathers = v;
                          push(c);
                        });
  AddAxisNeighbors<int>(s.sharding_factor, cand.sharding_factor, [&](int v) {
    TuneCandidate c = cand;
    c.sharding_factor = v;
    push(c);
  });
  AddAxisNeighbors<int>(s.reshard_after_forward,
                        cand.reshard_after_forward ? 1 : 0, [&](int v) {
                          TuneCandidate c = cand;
                          c.reshard_after_forward = v != 0;
                          push(c);
                        });
  AddAxisNeighbors<int>(s.wrap_blocks_per_unit, cand.wrap_blocks_per_unit,
                        [&](int v) {
                          TuneCandidate c = cand;
                          c.wrap_blocks_per_unit = v;
                          push(c);
                        });
  AddAxisNeighbors<int64_t>(s.fuse_below_bytes, cand.fuse_below_bytes,
                            [&](int64_t v) {
                              TuneCandidate c = cand;
                              c.fuse_below_bytes = v;
                              push(c);
                            });
  AddAxisNeighbors<int>(s.max_hoist_computes, cand.max_hoist_computes,
                        [&](int v) {
                          TuneCandidate c = cand;
                          c.max_hoist_computes = v;
                          push(c);
                        });
  AddAxisNeighbors<int>(s.max_sink_computes, cand.max_sink_computes,
                        [&](int v) {
                          TuneCandidate c = cand;
                          c.max_sink_computes = v;
                          push(c);
                        });
  return out;
}

std::vector<TuneCandidate> HandTunedPresets(const sim::Topology& topo) {
  std::vector<TuneCandidate> out;
  auto add = [&](const std::string& name) -> TuneCandidate& {
    TuneCandidate c;
    c.name = name;
    out.push_back(std::move(c));
    return out.back();
  };
  add("default");  // paper defaults: bwd prefetch, limiter 2, full shard
  add("no-prefetch").backward_prefetch = false;
  add("fwd-prefetch").forward_prefetch = true;
  add("no-limiter").limit_all_gathers = 0;
  add("limiter-deep").limit_all_gathers = 4;
  add("coarse-wrap").wrap_blocks_per_unit = 2;
  if (topo.num_hosts > 1 && topo.world() % topo.gpus_per_host == 0) {
    // _HYBRID_SHARD with intra-host shard groups (paper Sec 3.2.2).
    add("hybrid-intra-host").sharding_factor = topo.gpus_per_host;
  }
  return out;
}

bool TuneCandidate::SameSchedule(const TuneCandidate& o) const {
  return backward_prefetch == o.backward_prefetch &&
         forward_prefetch == o.forward_prefetch &&
         limit_all_gathers == o.limit_all_gathers &&
         sharding_factor == o.sharding_factor &&
         reshard_after_forward == o.reshard_after_forward &&
         wrap_blocks_per_unit == o.wrap_blocks_per_unit;
}

Status LowerSchedule(const TuneCandidate& cand, const TuneInputs& in,
                     CompiledCandidate* out) {
  const int world = in.topo.world();
  if (cand.sharding_factor < 0 || cand.sharding_factor > world ||
      (cand.sharding_factor > 0 && world % cand.sharding_factor != 0)) {
    return Status::Invalid("sharding factor " +
                           std::to_string(cand.sharding_factor) +
                           " does not divide world " + std::to_string(world));
  }
  if (cand.wrap_blocks_per_unit < 1) {
    return Status::Invalid("wrap_blocks_per_unit must be >= 1");
  }
  CompiledCandidate cc;
  cc.cand = cand;
  cc.workload = ApplyWrapGranularity(in.workload, cand.wrap_blocks_per_unit);
  cc.config = in.base;
  cc.config.backward_prefetch = cand.backward_prefetch;
  cc.config.forward_prefetch = cand.forward_prefetch;
  cc.config.limit_all_gathers = cand.limit_all_gathers;
  cc.config.sharding_factor = cand.sharding_factor;
  cc.config.reshard_after_forward = cand.reshard_after_forward;
  // Arena-backed simulation: the envelope's BuildArenaPlan residency IS the
  // scoring simulator's memory model, so "envelope infeasible" and "sim
  // OOM" are one predicate.
  cc.config.static_memory_plan = true;

  const plan::FsdpPlanOptions po =
      simfsdp::MakeSimPlanOptions(cc.workload, in.topo, cc.config);
  if (Status s = po.Validate(); !s.ok()) return s;

  cc.plan = simfsdp::BuildSimStepPlan(cc.workload, in.topo, cc.config);
  cc.pass_options = simfsdp::MakePassOptions(cc.workload, in.topo, cc.config);
  *out = std::move(cc);
  return Status::OK();
}

void CompileBudgets(const TuneCandidate& cand, CompiledCandidate* cc) {
  cc->cand = cand;
  cc->pass_options.fuse_below_bytes = cand.fuse_below_bytes;
  cc->pass_options.max_hoist_computes = cand.max_hoist_computes;
  cc->pass_options.max_sink_computes = cand.max_sink_computes;
  cc->passes = plan::PassManager::Default(cc->pass_options).Run(cc->plan);
}

Status CompileCandidate(const TuneCandidate& cand, const TuneInputs& in,
                        CompiledCandidate* out) {
  CompiledCandidate cc;
  if (Status s = LowerSchedule(cand, in, &cc); !s.ok()) return s;
  CompileBudgets(cand, &cc);
  *out = std::move(cc);
  return Status::OK();
}

}  // namespace fsdp::tune
