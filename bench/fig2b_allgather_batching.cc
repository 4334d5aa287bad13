// Figure 2(b): total time to move a fixed 2^30-element FP32 volume while
// varying the per-AllGather size.
//
// Paper observation: "once the AllGather size decreases below 33M elements,
// the total communication time begins increasing rapidly" — launch overhead
// and unsaturated bandwidth dominate small collectives. This motivates the
// FlatParameter design (batch parameters into few large collectives).
//
// Part 2 drives the SAME batching through the plan compiler: a StepPlan of
// many small kUnshard instructions is rewritten by plan::FuseAllGathers, and
// the fused plan's modeled time must reproduce (or beat) the best
// hand-batched point of the sweep — the compiler automates what the hand
// sweep tunes. The binary aborts if the pass loses to the hand numbers, so
// this doubles as the plancompiler smoke test.
#include "bench/bench_util.h"
#include "plan/passes.h"
#include "plan/plan.h"

int main() {
  using namespace fsdp;
  using namespace fsdp::bench;
  sim::SimConstants c;
  sim::Topology topo{2, 8};
  sim::CollectiveModel cm(c, topo);
  const sim::Group g = sim::WorldGroup(topo);

  const int64_t total_elems = 1LL << 30;
  Header("Figure 2(b)",
         "fixed 2^30 FP32 elements, varying per-AllGather size");
  Row("%-16s %10s %16s %14s", "elems/allgather", "num ops", "total time(ms)",
      "rel. to best");
  double best = 1e300;
  int64_t worst_per_op = total_elems;
  std::vector<std::pair<int64_t, double>> series;
  for (int64_t per_op = total_elems; per_op >= (1 << 17); per_op /= 4) {
    const int64_t ops = total_elems / per_op;
    const double t = ops * cm.AllGatherBase(per_op * 4 / g.size, g) / 1e3;
    series.emplace_back(per_op, t);
    if (t < best) best = t;
    worst_per_op = per_op;  // smallest ops are last — the worst point
  }
  for (auto& [per_op, t] : series) {
    Row("%-16lld %10lld %16.2f %13.2fx", static_cast<long long>(per_op),
        static_cast<long long>(total_elems / per_op), t, t / best);
  }
  Row("\npaper shape: flat near the right (large ops), rapid growth below "
      "~33M elements/op (knee).");

  // ---- plan-compiler path: FuseAllGathers over the worst sweep point ----
  const int64_t ops = total_elems / worst_per_op;
  const int64_t shard_bytes = worst_per_op * 4 / g.size;
  plan::StepPlan p;
  p.unit_names.resize(static_cast<size_t>(ops));
  plan::PassOptions opt;
  opt.unit_shard_bytes.assign(static_cast<size_t>(ops), shard_bytes);
  for (int64_t u = 0; u < ops; ++u) {
    p.unit_names[static_cast<size_t>(u)] = "p" + std::to_string(u);
    plan::Instr in;
    in.op = plan::Op::kUnshard;
    in.unit = static_cast<int>(u);
    in.lane = plan::Lane::kComm;
    p.instrs.push_back(in);
  }
  opt.fuse_below_bytes = shard_bytes + 1;       // every op is a candidate
  opt.max_fused_bytes = total_elems * 4 / g.size;  // one full-volume batch
  plan::PassManager pm(opt);
  pm.AddPass("fuse-allgathers", plan::FuseAllGathers);
  const plan::PassResult res = pm.Run(p);

  double fused_ms = 0;
  int64_t collectives = 0;
  for (const plan::Instr& in : p.instrs) {
    if (in.op != plan::Op::kUnshard) continue;
    ++collectives;
    const int64_t bytes = plan::NumCoveredUnits(in) * shard_bytes;
    fused_ms += cm.AllGatherBase(bytes, g) / 1e3;
  }
  Header("Plan compiler", "FuseAllGathers over the worst sweep point");
  Row("%-28s %10lld ops -> %lld fused collectives (%d rewrites)",
      "batching", static_cast<long long>(ops),
      static_cast<long long>(collectives), res.total_rewrites());
  Row("%-28s %16.2f ms (hand-batched best %.2f ms)", "fused total time",
      fused_ms, best);
  FSDP_CHECK_MSG(fused_ms <= best * 1.001,
                 "fusion pass lost to the hand-batched sweep: " << fused_ms
                 << " ms vs " << best << " ms");
  Row("\ncompiler reproduces the hand-batched optimum: the Fig 2(b) knee is "
      "automated by plan::FuseAllGathers.");
  return 0;
}
