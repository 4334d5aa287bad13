// Plan-compiler suite (plan/passes.h): PlanValidator rejection of
// deliberately-corrupt plans, the rewrite passes' behavior on hand-built and
// builder-emitted plans, and the two acceptance properties of the compiler —
// fusion + reordering reduce calibrated-sim exposed communication time on a
// many-small-units workload, and the static memory plan's peak stays within
// the free-list caching allocator's peak.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "plan/builder.h"
#include "plan/passes.h"
#include "plan/perturb.h"
#include "plan/plan.h"
#include "sim/allocator.h"
#include "simfsdp/schedule.h"
#include "simfsdp/workload.h"

namespace fsdp {
namespace {

// ---------------------------------------------------------------------- util

plan::Instr MakeInstr(plan::Op op, int unit, plan::Phase phase,
                      plan::Lane lane, std::vector<int> deps = {}) {
  plan::Instr in;
  in.op = op;
  in.unit = unit;
  in.phase = phase;
  in.lane = lane;
  in.deps = std::move(deps);
  return in;
}

plan::Instr Unshard(int unit, std::vector<int> deps = {}) {
  return MakeInstr(plan::Op::kUnshard, unit, plan::Phase::kNone,
                   plan::Lane::kComm, std::move(deps));
}

plan::Instr Fwd(int unit, std::vector<int> deps = {}) {
  return MakeInstr(plan::Op::kCompute, unit, plan::Phase::kForward,
                   plan::Lane::kCompute, std::move(deps));
}

plan::Instr Bwd(int unit, std::vector<int> deps = {}) {
  return MakeInstr(plan::Op::kCompute, unit, plan::Phase::kBackward,
                   plan::Lane::kCompute, std::move(deps));
}

plan::Instr Reduce(int unit, std::vector<int> deps = {}) {
  return MakeInstr(plan::Op::kReduceGrad, unit, plan::Phase::kBackward,
                   plan::Lane::kComm, std::move(deps));
}

plan::Instr Reshard(int unit, std::vector<int> deps = {}) {
  return MakeInstr(plan::Op::kReshard, unit, plan::Phase::kBackward,
                   plan::Lane::kHost, std::move(deps));
}

plan::StepPlan MakePlan(std::vector<std::string> names,
                        std::vector<plan::Instr> instrs) {
  plan::StepPlan p;
  p.unit_names = std::move(names);
  p.instrs = std::move(instrs);
  return p;
}

// ------------------------------------------------------------ PlanValidator

TEST(PlanValidatorTest, AcceptsEveryBuilderPlan) {
  const std::vector<std::string> names{"[root]", "a", "b", "c"};
  plan::PlanValidator v;
  for (bool sim_shape : {false, true}) {
    for (bool raf : {false, true}) {
      for (int mb : {1, 3}) {
        plan::FsdpPlanOptions o = sim_shape ? plan::FsdpPlanOptions::Sim()
                                            : plan::FsdpPlanOptions::Runtime();
        o.reshard_after_forward = raf;
        o.microbatches = mb;
        if (mb > 1) o.accum = plan::AccumMode::kReduceLastMicrobatch;
        const Status st = v.Check(plan::BuildFsdpStepPlan(names, o));
        EXPECT_TRUE(st.ok()) << st.message();
      }
    }
  }
}

TEST(PlanValidatorTest, RejectsForwardDependency) {
  plan::StepPlan p = MakePlan({"a"}, {Unshard(0, {0})});  // self edge = cycle
  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cycle"), std::string::npos) << st.message();
}

TEST(PlanValidatorTest, RejectsRedundantUnshard) {
  plan::StepPlan p = MakePlan({"a"}, {Unshard(0), Unshard(0)});
  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("redundant unshard"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsComputeAfterReshard) {
  plan::StepPlan p = MakePlan(
      {"a"}, {Unshard(0), Fwd(0, {0}), Reshard(0), Bwd(0)});
  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("use-after-free"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsDoubleReshard) {
  plan::StepPlan p = MakePlan(
      {"a"}, {Unshard(0), Fwd(0, {0}), Reshard(0), Reshard(0)});
  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("double free"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsGradDoubleFree) {
  plan::StepPlan p = MakePlan(
      {"a"},
      {Unshard(0), Bwd(0, {0}),
       MakeInstr(plan::Op::kFreeGrad, 0, plan::Phase::kBackward,
                 plan::Lane::kHost),
       MakeInstr(plan::Op::kFreeGrad, 0, plan::Phase::kBackward,
                 plan::Lane::kHost)});
  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("double free of gradient"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsDuplicateReduction) {
  plan::StepPlan p = MakePlan(
      {"a"}, {Unshard(0), Bwd(0, {0}), Reduce(0, {1}), Reduce(0, {1})});
  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("duplicate reduction"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsReductionWithoutBackward) {
  plan::StepPlan p = MakePlan({"a"}, {Unshard(0), Fwd(0, {0}), Reduce(0)});
  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("without a backward"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsDroppedReduction) {
  // Both units run backward in microbatch 0, which syncs (it reduces unit
  // 0) — dropping unit 1's reduction is the classic silently-wrong rewrite.
  plan::StepPlan p = MakePlan(
      {"a", "b"},
      {Unshard(0), Unshard(1), Bwd(1, {1}), Bwd(0, {0}), Reduce(0, {3})});
  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("drops the reduction"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsInstructionAfterOptimStep) {
  plan::StepPlan p = MakePlan(
      {"a"}, {Unshard(0), Fwd(0, {0}),
              MakeInstr(plan::Op::kOptimStep, -1, plan::Phase::kNone,
                        plan::Lane::kCompute),
              Fwd(0)});
  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("after kOptimStep"), std::string::npos);
}

TEST(PlanValidatorTest, AcceptsReduceOnlyLogs) {
  // DDP's executed plan records bucket reduces without computes.
  plan::StepPlan p = MakePlan({"b0", "b1"}, {Reduce(0), Reduce(1)});
  const Status st = plan::PlanValidator{}.Check(p);
  EXPECT_TRUE(st.ok()) << st.message();
}

// Property: seeded random sequences of 1-4 drop/swap/delay perturbations
// over the builder's FSDP plans (three strategies x backward prefetch) never
// abort the validator, and every plan it accepts runs through the
// explicit-plan simulator without tripping a check.
TEST(PlanValidatorTest, RandomPerturbationsValidateOrSimulate) {
  simfsdp::TransformerShape shape;
  shape.name = "perturb-toy";
  shape.hidden = 256;
  shape.layers = 4;
  shape.heads = 4;
  shape.seq = 64;
  shape.vocab = 512;
  const simfsdp::Workload w = simfsdp::MakeTransformer(shape);
  const sim::Topology topo{1, 8};
  struct Strategy {
    const char* name;
    int sharding_factor;
    bool reshard_after_forward;
  };
  const Strategy strategies[] = {{"FULL_SHARD", 0, true},
                                 {"SHARD_GRAD_OP", 0, false},
                                 {"HYBRID_SHARD", 4, true}};
  const plan::PlanValidator validator;
  Rng rng(/*seed=*/7, /*stream=*/0);
  int accepted = 0, rejected = 0;
  for (const Strategy& strategy : strategies) {
    for (bool prefetch : {false, true}) {
      simfsdp::FsdpSimConfig cfg;
      cfg.sharding_factor = strategy.sharding_factor;
      cfg.reshard_after_forward = strategy.reshard_after_forward;
      cfg.backward_prefetch = prefetch;
      cfg.iterations = 1;
      const plan::StepPlan base = simfsdp::BuildSimStepPlan(w, topo, cfg);
      ASSERT_TRUE(validator.Check(base).ok()) << strategy.name;
      for (int trial = 0; trial < 100; ++trial) {
        plan::StepPlan p = base;
        std::string edits;
        const uint64_t steps = 1 + rng.NextBelow(4);
        for (uint64_t k = 0; k < steps && p.size() > 1; ++k) {
          plan::Perturbation edit;
          edit.kind = static_cast<plan::PerturbKind>(rng.NextBelow(3));
          const int span = edit.kind == plan::PerturbKind::kSwapAdjacent
                               ? p.size() - 1
                               : p.size();
          edit.index = static_cast<int>(rng.NextBelow(span));
          edit.delay_us = rng.NextUniform(0, 5000);
          edits += " " + plan::DescribePerturbation(p, edit);
          p = plan::ApplyPerturbation(p, edit);
        }
        if (!validator.Check(p).ok()) {
          ++rejected;
          continue;
        }
        ++accepted;
        SCOPED_TRACE(std::string(strategy.name) +
                     (prefetch ? " prefetch" : "") + ":" + edits);
        const simfsdp::SimMetrics m =
            simfsdp::FsdpSimulator(w, topo, sim::SimConstants{}, cfg, p)
                .Run();
        EXPECT_GT(m.iter_time_us, 0);
      }
    }
  }
  // Both verdicts occur: delays alone keep a plan valid, drops of a
  // collective do not.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// ----------------------------------------------------------------- rewrites

TEST(HoistUnshardsTest, HoistsAcrossIndependentCompute) {
  plan::StepPlan p = MakePlan(
      {"a", "b"}, {Unshard(0), Fwd(0, {0}), Unshard(1), Fwd(1, {2})});
  plan::PassOptions opt;
  EXPECT_EQ(plan::HoistUnshards(p, opt), 1);
  const auto canon = p.Canonical();
  ASSERT_EQ(canon.size(), 4u);
  // b's AllGather now overlaps a's forward.
  EXPECT_EQ(canon[0], "UNSHARD:a");
  EXPECT_EQ(canon[1], "UNSHARD:b");
  EXPECT_EQ(canon[2], "FWD:a");
  EXPECT_TRUE(plan::PlanValidator{}.Check(p).ok());
}

TEST(HoistUnshardsTest, RespectsComputeBudget) {
  plan::StepPlan p = MakePlan(
      {"a", "b"},
      {Unshard(0), Fwd(0, {0}), Fwd(0), Fwd(0), Unshard(1), Fwd(1, {4})});
  plan::PassOptions opt;
  opt.max_hoist_computes = 2;
  EXPECT_EQ(plan::HoistUnshards(p, opt), 1);
  // Only two of a's three forward segments may be crossed.
  EXPECT_EQ(p.Canonical()[2], "UNSHARD:b");
  EXPECT_TRUE(plan::PlanValidator{}.Check(p).ok());
}

TEST(FuseAllGathersTest, BatchesAdjacentSmallUnshards) {
  plan::StepPlan p = MakePlan(
      {"a", "b", "c"},
      {Unshard(0), Unshard(1), Unshard(2), Fwd(0, {0}), Fwd(1, {1}),
       Fwd(2, {2})});
  plan::PassOptions opt;
  opt.unit_shard_bytes = {1024, 1024, 1024};
  opt.fuse_below_bytes = 1 << 20;
  EXPECT_EQ(plan::FuseAllGathers(p, opt), 1);
  ASSERT_EQ(p.size(), 4);
  const plan::Instr& fused = p.instrs[0];
  EXPECT_EQ(fused.op, plan::Op::kUnshard);
  EXPECT_EQ(fused.batch_units, (std::vector<int>{1, 2}));
  EXPECT_EQ(fused.bytes, 3 * 1024);
  EXPECT_EQ(p.Canonical()[0], "UNSHARD:a+b+c");
  // Every compute's dep collapsed onto the fused collective.
  for (int i = 1; i < p.size(); ++i) {
    EXPECT_EQ(p.instrs[static_cast<size_t>(i)].deps, (std::vector<int>{0}));
  }
  EXPECT_TRUE(plan::PlanValidator{}.Check(p).ok());
}

TEST(FuseAllGathersTest, LeavesLargeCollectivesAlone) {
  plan::StepPlan p = MakePlan(
      {"a", "b"}, {Unshard(0), Unshard(1), Fwd(0, {0}), Fwd(1, {1})});
  plan::PassOptions opt;
  opt.unit_shard_bytes = {8 << 20, 8 << 20};
  opt.fuse_below_bytes = 1 << 20;  // both are above the threshold
  EXPECT_EQ(plan::FuseAllGathers(p, opt), 0);
  EXPECT_EQ(p.size(), 4);
}

TEST(SinkThenFuseTest, PacksReduceChainsAndBatchesThem) {
  // Backward order: bwd b, reduce b, bwd a, reduce a. Sinking b's reduce
  // across a's backward makes the two reduces adjacent; fusion then merges
  // them into one batched ReduceScatter.
  plan::StepPlan p = MakePlan(
      {"a", "b"},
      {Unshard(0), Unshard(1), Bwd(1, {1}), Reduce(1, {2}), Bwd(0, {0}),
       Reduce(0, {4})});
  plan::PassOptions opt;
  opt.unit_reduce_bytes = {1024, 1024};
  opt.fuse_below_bytes = 1 << 20;
  EXPECT_EQ(plan::SinkReduces(p, opt), 1);
  EXPECT_TRUE(plan::PlanValidator{}.Check(p).ok());
  EXPECT_EQ(plan::FuseReduceScatters(p, opt), 1);
  EXPECT_TRUE(plan::PlanValidator{}.Check(p).ok());
  int reduces = 0;
  for (const plan::Instr& in : p.instrs) {
    if (in.op == plan::Op::kReduceGrad) {
      ++reduces;
      EXPECT_EQ(plan::CoveredUnits(in).size(), 2u);
    }
  }
  EXPECT_EQ(reduces, 1);
}

TEST(FuseReduceScattersTest, SkipsReplicaAllReduceChains) {
  plan::StepPlan p = MakePlan(
      {"a", "b"},
      {Unshard(0), Unshard(1), Bwd(1, {1}), Reduce(1, {2}),
       MakeInstr(plan::Op::kAllReduceReplicas, 1, plan::Phase::kBackward,
                 plan::Lane::kComm),
       Bwd(0, {0}), Reduce(0, {5})});
  plan::PassOptions opt;
  opt.unit_reduce_bytes = {1024, 1024};
  opt.fuse_below_bytes = 1 << 20;
  EXPECT_EQ(plan::FuseReduceScatters(p, opt), 0);
}

TEST(PassManagerTest, DefaultPipelineReportsEveryPass) {
  const std::vector<std::string> names{"[root]", "a", "b", "c"};
  plan::StepPlan p =
      plan::BuildFsdpStepPlan(names, plan::FsdpPlanOptions::Sim());
  plan::PassOptions opt;
  opt.unit_shard_bytes.assign(names.size(), 1 << 20);
  opt.unit_reduce_bytes.assign(names.size(), 1 << 20);
  opt.fuse_below_bytes = 16 << 20;
  const plan::PassResult res = plan::PassManager::Default(opt).Run(p);
  ASSERT_EQ(res.applied.size(), 4u);
  EXPECT_EQ(res.applied[0].first, "hoist-unshards");
  EXPECT_EQ(res.applied[1].first, "fuse-allgathers");
  EXPECT_EQ(res.applied[2].first, "sink-reduces");
  EXPECT_EQ(res.applied[3].first, "fuse-reducescatters");
  EXPECT_GT(res.total_rewrites(), 0);
  EXPECT_TRUE(plan::PlanValidator{}.Check(p).ok());
}

// ------------------------------------------------------ acceptance: latency

TEST(PassAcceptanceTest, FusionAndReorderingReduceExposedCommTime) {
  // Many small units: per-collective launch latency dominates, the regime
  // Fig 2(b) motivates batching for.
  simfsdp::TransformerShape shape;
  shape.name = "many-small";
  shape.hidden = 256;
  shape.layers = 32;
  shape.heads = 4;
  shape.seq = 64;
  shape.vocab = 2048;
  const simfsdp::Workload w = simfsdp::MakeTransformer(shape);
  const sim::Topology topo{2, 8};
  const sim::SimConstants c;
  simfsdp::FsdpSimConfig cfg;
  cfg.batch_per_gpu = 2;
  cfg.limit_all_gathers = 0;  // gates pin unshard order; give passes room

  simfsdp::FsdpSimulator base(w, topo, c, cfg);
  const simfsdp::SimMetrics m_base = base.Run();
  ASSERT_FALSE(m_base.oom);

  plan::StepPlan optimized = base.plan();
  plan::PassOptions opt = simfsdp::MakePassOptions(w, topo, cfg);
  opt.fuse_below_bytes = 8 << 20;
  opt.max_hoist_computes = 4;
  opt.max_sink_computes = 4;
  const plan::PassResult res =
      plan::PassManager::Default(opt).Run(optimized);
  EXPECT_GT(res.total_rewrites(), 0);

  const simfsdp::SimMetrics m_opt =
      simfsdp::FsdpSimulator(w, topo, c, cfg, optimized).Run();
  ASSERT_FALSE(m_opt.oom);
  EXPECT_LT(m_opt.exposed_comm_us, m_base.exposed_comm_us)
      << "optimized plan must expose less communication";
  EXPECT_LT(m_opt.iter_time_us, m_base.iter_time_us);
}

// ------------------------------------------------------- acceptance: memory

TEST(ArenaPlanTest, AssignmentsNeverOverlapWhileBothLive) {
  const simfsdp::Workload w = simfsdp::T5_611M();
  const sim::Topology topo{1, 8};
  simfsdp::FsdpSimConfig cfg;
  cfg.batch_per_gpu = 2;
  const plan::StepPlan p = simfsdp::BuildSimStepPlan(w, topo, cfg);
  const plan::ArenaPlan layout = plan::BuildArenaPlan(
      p, simfsdp::MakeMemoryPlanOptions(w, topo, sim::SimConstants{}, cfg));
  ASSERT_FALSE(layout.assignments.empty());
  for (size_t i = 0; i < layout.assignments.size(); ++i) {
    const plan::ArenaAssignment& a = layout.assignments[i];
    EXPECT_GE(a.offset, layout.persistent_bytes);
    EXPECT_LE(a.offset + a.bytes, layout.total_bytes);
    for (size_t j = i + 1; j < layout.assignments.size(); ++j) {
      const plan::ArenaAssignment& b = layout.assignments[j];
      const bool time_overlap =
          a.open_at <= b.close_at && b.open_at <= a.close_at;
      const bool space_overlap =
          a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
      EXPECT_FALSE(time_overlap && space_overlap)
          << plan::BufKindName(a.kind) << a.unit << " and "
          << plan::BufKindName(b.kind) << b.unit << " overlap";
    }
  }
}

TEST(ArenaPlanTest, StaticPlanPeakWithinCachingAllocatorPeak) {
  const simfsdp::Workload w = simfsdp::T5_611M();
  const sim::Topology topo{1, 8};
  const sim::SimConstants c;
  simfsdp::FsdpSimConfig cfg;
  cfg.batch_per_gpu = 2;

  const simfsdp::SimMetrics m_cache =
      simfsdp::FsdpSimulator(w, topo, c, cfg).Run();
  ASSERT_FALSE(m_cache.oom);

  simfsdp::FsdpSimConfig cfg_arena = cfg;
  cfg_arena.static_memory_plan = true;
  const simfsdp::SimMetrics m_arena =
      simfsdp::FsdpSimulator(w, topo, c, cfg_arena).Run();
  ASSERT_FALSE(m_arena.oom);

  // The compiled arena reserves once, below the free-list allocator's
  // fragmented peak, and the bump path never retries.
  EXPECT_LE(m_arena.peak_reserved, m_cache.peak_reserved);
  EXPECT_EQ(m_arena.num_alloc_retries, 0);
  EXPECT_GT(m_arena.peak_allocated, 0);
  // Same schedule, minus cudaMalloc/retry stalls on the CPU thread.
  EXPECT_LE(m_arena.iter_time_us, m_cache.iter_time_us * 1.001);
}

}  // namespace
}  // namespace fsdp
