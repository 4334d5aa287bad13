// Anti-drift contract for the shared execution-plan IR (src/plan):
//
//  1. the REAL runtime's executed instruction order (FsdpState::
//     executed_schedule()) must equal the canonical projection of the plan
//     its hooks execute (ExpectedStepPlan()), and
//  2. the SIMULATOR-shape plan built from the same knobs (and the real unit
//     names) must project to the same canonical schedule, and be consumable
//     by simfsdp::FsdpSimulator's explicit-plan constructor.
//
// Together these pin the real schedule and the simulated schedule to one
// source of truth: a divergence in either layer breaks the string equality.
// Exercised on the steady-state (second) step across {full shard, hybrid,
// no shard} x {backward prefetch on/off} x {forward prefetch on/off} on a
// 4-rank toy transformer, and on a model whose forward order differs from
// its definition order.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "autograd/engine.h"
#include "core/fsdp.h"
#include "ddp/ddp.h"
#include "nn/transformer.h"
#include "plan/builder.h"
#include "plan/passes.h"
#include "plan/plan.h"
#include "simfsdp/schedule.h"
#include "simfsdp/workload.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

using core::FsdpOptions;
using core::FullyShardedDataParallel;
using core::ShardingStrategy;

constexpr int kWorld = 4;
constexpr int kLayers = 4;

nn::ModulePtr MakeModel(uint64_t seed = 7) {
  nn::InitCtx ctx(Device::kCpu, seed);
  nn::TransformerConfig cfg;
  cfg.vocab_size = 13;
  cfg.max_seq = 4;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = kLayers;
  return std::make_shared<nn::TransformerModel>(cfg, ctx);
}

Tensor RankTokens(int rank) {
  return ops::IndexTensor({(rank * 3 + 1) % 13, (rank * 5 + 2) % 13,
                           (rank * 7 + 3) % 13, (rank + 4) % 13},
                          {1, 4});
}

Tensor RankTargets(int rank) {
  return ops::IndexTensor({(rank + 5) % 13, (rank + 6) % 13, (rank + 7) % 13,
                           (rank + 8) % 13},
                          {4});
}

int FactorFor(ShardingStrategy s) {
  switch (s) {
    case ShardingStrategy::kNoShard: return 1;
    case ShardingStrategy::kHybridShard:
    case ShardingStrategy::kHybridShardZero2: return 2;
    default: return kWorld;
  }
}

/// Two training steps on all ranks; returns rank 0's executed canonical
/// schedule of the second (steady-state) step plus the plan its hooks ran.
struct StepRecord {
  std::vector<std::string> executed;
  std::vector<plan::Instr> executed_instrs;
  plan::StepPlan expected;
};

StepRecord RunRealStep(ShardingStrategy strategy, bool backward_prefetch,
                       bool forward_prefetch) {
  comm::DeviceMesh mesh(kWorld, FactorFor(strategy));
  StepRecord rec;
  RunOnRanks(kWorld, [&](int r) {
    auto model = MakeModel();
    FsdpOptions opts;
    opts.strategy = strategy;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    opts.backward_prefetch = backward_prefetch;
    opts.forward_prefetch = forward_prefetch;
    FullyShardedDataParallel fsdp(model, mesh, r, opts);
    for (int step = 0; step < 2; ++step) {
      fsdp.state().ClearEvents();
      Tensor loss =
          ops::CrossEntropy(fsdp.Forward(RankTokens(r)), RankTargets(r));
      autograd::RunBackward(loss);
    }
    if (r == 0) {
      rec.executed = fsdp.state().executed_schedule();
      rec.executed_instrs = fsdp.state().executed_plan();
      rec.expected = fsdp.state().ExpectedStepPlan();
    }
  });
  return rec;
}

/// The simulator-shape plan for the same schedule knobs, over the real unit
/// names (forward order).
plan::StepPlan BuildSimShapePlan(const StepRecord& rec,
                                 ShardingStrategy strategy,
                                 bool backward_prefetch,
                                 bool forward_prefetch) {
  const int f = FactorFor(strategy);
  plan::FsdpPlanOptions o = plan::FsdpPlanOptions::Sim();
  o.reshard_after_forward = core::ReshardAfterForward(strategy);
  o.backward_prefetch = backward_prefetch;
  o.forward_prefetch = forward_prefetch;
  o.replica_allreduce = f < kWorld;
  o.reshard = f > 1 ? plan::ReshardPolicy::kIfGradSync
                    : plan::ReshardPolicy::kKeepUnsharded;
  return plan::BuildFsdpStepPlan(rec.expected.unit_names, o);
}

class PlanDriftTest : public ::testing::TestWithParam<
                          std::tuple<ShardingStrategy, bool, bool>> {};

TEST_P(PlanDriftTest, RealOrderMatchesBuilderAndSimulatorPlan) {
  const auto [strategy, backward_prefetch, forward_prefetch] = GetParam();
  StepRecord rec = RunRealStep(strategy, backward_prefetch, forward_prefetch);
  ASSERT_FALSE(rec.executed.empty());
  ASSERT_EQ(rec.expected.unit_names.size(), kLayers + 1u);

  // Real execution vs the runtime-shape builder plan.
  EXPECT_EQ(rec.executed, rec.expected.Canonical());

  // Every recorded and predicted plan must be structurally sound: the
  // executed-plan log this rank actually issued, the builder's prediction,
  // and the simulator-shape plan all pass the compiler's validator.
  plan::PlanValidator validator;
  plan::StepPlan executed_plan;
  executed_plan.unit_names = rec.expected.unit_names;
  executed_plan.instrs = rec.executed_instrs;
  Status st = validator.Check(executed_plan);
  EXPECT_TRUE(st.ok()) << "executed plan: " << st.message();
  st = validator.Check(rec.expected);
  EXPECT_TRUE(st.ok()) << "expected plan: " << st.message();

  // Real execution vs the simulator-shape plan over the same names. The sim
  // shape adds memory/gate instructions and splits the root compute, but its
  // canonical projection must be the same schedule.
  plan::StepPlan sim_plan = BuildSimShapePlan(rec, strategy,
                                              backward_prefetch,
                                              forward_prefetch);
  st = validator.Check(sim_plan);
  EXPECT_TRUE(st.ok()) << "sim plan: " << st.message();
  EXPECT_EQ(rec.executed, sim_plan.Canonical());

  // And the simulator must be able to interpret that exact plan (real unit
  // names and all) against a matching workload.
  simfsdp::TransformerShape shape;
  shape.name = "toy";
  shape.hidden = 64;
  shape.layers = kLayers;
  shape.heads = 2;
  shape.seq = 16;
  shape.vocab = 128;
  simfsdp::Workload w = simfsdp::MakeTransformer(shape);
  ASSERT_EQ(w.units.size(), static_cast<size_t>(kLayers));

  simfsdp::FsdpSimConfig cfg;
  cfg.sharding_factor = FactorFor(strategy);
  cfg.reshard_after_forward = core::ReshardAfterForward(strategy);
  cfg.backward_prefetch = backward_prefetch;
  cfg.forward_prefetch = forward_prefetch;
  cfg.limit_all_gathers = 0;  // the plan carries no gate instructions
  cfg.iterations = 2;
  simfsdp::FsdpSimulator sim(w, sim::Topology{1, kWorld}, sim::SimConstants{},
                             cfg, sim_plan);
  simfsdp::SimMetrics m = sim.Run();
  EXPECT_FALSE(m.oom);
  EXPECT_GT(m.iter_time_us, 0);
  EXPECT_GT(m.compute_busy_us, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, PlanDriftTest,
    ::testing::Combine(::testing::Values(ShardingStrategy::kFullShard,
                                         ShardingStrategy::kHybridShard,
                                         ShardingStrategy::kNoShard),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      std::string name =
          core::ShardingStrategyName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '_') c = 'x';
      }
      return name + (std::get<1>(info.param) ? "Prefetch" : "NoPrefetch") +
             (std::get<2>(info.param) ? "FwdPrefetch" : "");
    });

/// Registers a, b, c but runs them a -> c -> b: the forward execution order
/// differs from the definition order (the shape of PyTorch's
/// test_fsdp_param_exec_order_wrap). The root owns the input and output
/// projections.
struct ReorderedModel : nn::Module {
  std::shared_ptr<nn::Linear> in, out;
  std::shared_ptr<nn::MLP> a, b, c;

  explicit ReorderedModel(uint64_t seed) {
    nn::InitCtx ctx(Device::kCpu, seed);
    in = std::make_shared<nn::Linear>(6, 8, true, ctx);
    a = std::make_shared<nn::MLP>(8, 16, ctx);
    b = std::make_shared<nn::MLP>(8, 16, ctx);
    c = std::make_shared<nn::MLP>(8, 16, ctx);
    out = std::make_shared<nn::Linear>(8, 4, true, ctx);
    RegisterModule("in", in);
    RegisterModule("a", a);
    RegisterModule("b", b);
    RegisterModule("c", c);
    RegisterModule("out", out);
  }
  Tensor Forward(const Tensor& x) override {
    Tensor h = (*in)(x);
    h = ops::Add(h, (*a)(h));
    h = ops::Add(h, (*c)(h));
    h = ops::Add(h, (*b)(h));
    return (*out)(h);
  }
  std::string TypeName() const override { return "ReorderedModel"; }
};

Tensor ReorderedInput(int rank) {
  Rng rng(static_cast<uint64_t>(rank) + 11, 0);
  return Tensor::Randn({3, 6}, rng);
}

TEST(PlanDriftTest, ExecutionOrderDiffersFromDefinitionOrder) {
  // Local reference: the mean over ranks of each rank's gradient.
  std::map<std::string, Tensor> ref;
  {
    ReorderedModel model(5);
    for (int r = 0; r < kWorld; ++r) {
      Tensor y = model.Forward(ReorderedInput(r));
      autograd::RunBackward(
          ops::ScalarMul(ops::Mean(ops::Mul(y, y)), 1.f / kWorld));
    }
    for (auto& [name, slot] : model.NamedParameters()) {
      ref[name] = slot->grad();
    }
  }

  for (bool forward_prefetch : {false, true}) {
    comm::DeviceMesh mesh(kWorld, kWorld);
    RunOnRanks(kWorld, [&](int r) {
      auto model = std::make_shared<ReorderedModel>(5);
      FsdpOptions opts;
      opts.auto_wrap_policy = core::ModuleTypePolicy({"MLP"});
      opts.forward_prefetch = forward_prefetch;
      auto state = core::FullyShard(model, mesh, r, opts);
      for (int step = 0; step < 2; ++step) {
        state->ClearEvents();
        for (Tensor& p : state->Parameters()) p.zero_grad();
        Tensor y = (*model)(ReorderedInput(r));
        autograd::RunBackward(ops::Mean(ops::Mul(y, y)));
      }
      ASSERT_TRUE(state->status().ok());
      const plan::StepPlan expected = state->ExpectedStepPlan();
      EXPECT_EQ(expected.unit_names,
                (std::vector<std::string>{"[root]", "a", "c", "b"}));
      EXPECT_EQ(state->executed_schedule(), expected.Canonical())
          << "forward_prefetch " << forward_prefetch;
      for (int u = 0; u < state->num_units(); ++u) {
        for (auto& [fqn, grad] : state->unit_handle(u).GatherFullGrads()) {
          ASSERT_TRUE(grad.defined()) << fqn;
          EXPECT_TRUE(grad.AllClose(ref.at(fqn), 1e-4f, 1e-5f))
              << "rank " << r << " " << fqn;
        }
      }
    });
  }
}

// ------------------------------------------------ builder-level properties

TEST(PlanBuilderTest, RuntimeAndSimShapesShareCanonicalSchedule) {
  const std::vector<std::string> names{"[root]", "u1", "u2", "u3"};
  plan::StepPlan rt =
      plan::BuildFsdpStepPlan(names, plan::FsdpPlanOptions::Runtime());
  plan::StepPlan sim =
      plan::BuildFsdpStepPlan(names, plan::FsdpPlanOptions::Sim());
  EXPECT_EQ(rt.Canonical(), sim.Canonical());
  // The sim shape is strictly richer (memory instrs, split root compute).
  EXPECT_GT(sim.size(), rt.size());
}

TEST(PlanBuilderTest, DependencyEdgesPointBackward) {
  plan::FsdpPlanOptions o = plan::FsdpPlanOptions::Sim();
  o.microbatches = 3;
  o.accum = plan::AccumMode::kReduceLastMicrobatch;
  plan::StepPlan p = plan::BuildFsdpStepPlan({"[root]", "a", "b"}, o);
  for (int i = 0; i < p.size(); ++i) {
    for (int d : p.instrs[static_cast<size_t>(i)].deps) {
      EXPECT_GE(d, 0);
      EXPECT_LT(d, i) << "dep must precede its instruction";
    }
  }
  // Without accumulation communication, only the last microbatch reduces.
  int reduces = 0;
  for (const plan::Instr& in : p.instrs) {
    if (in.op == plan::Op::kReduceGrad) {
      ++reduces;
      EXPECT_EQ(in.microbatch, 2);
    }
  }
  EXPECT_EQ(reduces, 3);  // root + 2 units, final microbatch only
}

TEST(PlanBuilderTest, BackwardPrefetchReordersUnshardBeforeReduce) {
  plan::FsdpPlanOptions o = plan::FsdpPlanOptions::Runtime();
  o.backward_prefetch = true;
  plan::StepPlan p = plan::BuildFsdpStepPlan({"[root]", "a", "b"}, o);
  auto canon = p.Canonical();
  // After b's backward compute, b's ReduceScatter must come after a's
  // (prefetched) backward AllGather — not the forward one, hence the `from`.
  auto pos = [&](const std::string& s, int from) {
    for (size_t i = static_cast<size_t>(from); i < canon.size(); ++i) {
      if (canon[i] == s) return static_cast<int>(i);
    }
    return -1;
  };
  const int bwd_b = pos("BWD:b", 0);
  ASSERT_NE(bwd_b, -1);
  const int prefetch_a = pos("UNSHARD:a", bwd_b);
  const int reduce_b = pos("REDUCE_GRAD:b", bwd_b);
  ASSERT_NE(prefetch_a, -1);
  ASSERT_NE(reduce_b, -1);
  EXPECT_LT(prefetch_a, reduce_b);
}

TEST(PlanBuilderTest, DdpPlanBucketsByBytes) {
  plan::DdpPlanOptions o;
  o.bucket_bytes = 100;
  o.unit_bytes = {40, 60, 60, 60};  // root + 3 units
  plan::StepPlan p = plan::BuildDdpStepPlan({"[root]", "a", "b", "c"}, o);
  std::vector<int64_t> bucket_bytes;
  for (const plan::Instr& in : p.instrs) {
    if (in.op == plan::Op::kReduceGrad) bucket_bytes.push_back(in.bytes);
  }
  // c+b fill the first bucket (120 >= 100), a flushes at the last unit, the
  // root reduces in its own final bucket.
  EXPECT_EQ(bucket_bytes, (std::vector<int64_t>{120, 60, 40}));
}

// ------------------------------------------------ pass semantics property

/// The multiset of (microbatch, unit) pairs a plan gathers / reduces — the
/// semantic payload the compiler passes must preserve exactly (batched
/// instructions count once per covered unit).
std::multiset<std::pair<int, int>> CollectiveUnits(const plan::StepPlan& p,
                                                   plan::Op op) {
  std::multiset<std::pair<int, int>> out;
  for (const plan::Instr& in : p.instrs) {
    if (in.op != op) continue;
    for (int u : plan::CoveredUnits(in)) out.insert({in.microbatch, u});
  }
  return out;
}

TEST(PassPropertyTest, DefaultPipelinePreservesCollectiveSemantics) {
  const std::vector<std::string> names{"[root]", "u1", "u2", "u3",
                                       "u4", "u5", "u6"};
  plan::PassOptions popt;
  popt.unit_shard_bytes.assign(names.size(), 1 << 20);
  popt.unit_reduce_bytes.assign(names.size(), 1 << 20);
  popt.fuse_below_bytes = 4 << 20;  // everything is a fusion candidate

  int total_rewrites = 0;
  for (plan::ReshardPolicy reshard :
       {plan::ReshardPolicy::kIfGradSync, plan::ReshardPolicy::kAfterBackward,
        plan::ReshardPolicy::kKeepUnsharded}) {
    for (bool backward_prefetch : {false, true}) {
      for (bool forward_prefetch : {false, true}) {
        for (int microbatches : {1, 2}) {
          plan::FsdpPlanOptions o = plan::FsdpPlanOptions::Sim();
          o.reshard = reshard;
          o.reshard_after_forward =
              reshard != plan::ReshardPolicy::kKeepUnsharded;
          o.backward_prefetch = backward_prefetch;
          o.forward_prefetch = forward_prefetch;
          o.microbatches = microbatches;
          if (microbatches > 1) {
            o.accum = plan::AccumMode::kReduceLastMicrobatch;
          }
          plan::StepPlan p = plan::BuildFsdpStepPlan(names, o);
          const auto gathers_before =
              CollectiveUnits(p, plan::Op::kUnshard);
          const auto reduces_before =
              CollectiveUnits(p, plan::Op::kReduceGrad);

          // Run validates before and after every pass (FSDP_CHECK aborts on
          // a corrupting rewrite), so surviving it IS the structural check.
          plan::PassManager pm = plan::PassManager::Default(popt);
          plan::PassResult res = pm.Run(p);
          total_rewrites += res.total_rewrites();

          EXPECT_EQ(gathers_before, CollectiveUnits(p, plan::Op::kUnshard))
              << "pass dropped or duplicated a gather";
          EXPECT_EQ(reduces_before, CollectiveUnits(p, plan::Op::kReduceGrad))
              << "pass dropped or duplicated a reduction";
        }
      }
    }
  }
  // The property must not hold vacuously: the grid has plans the pipeline
  // actually rewrites.
  EXPECT_GT(total_rewrites, 0);
}

// ------------------------------------------------ DDP executed-plan log

TEST(DdpExecutedPlanTest, RecordsBucketReducesAndWaits) {
  const int world = 2;
  std::vector<plan::Instr> executed;
  int num_buckets = 0;
  auto comm = std::make_shared<comm::Communicator>(world);
  RunOnRanks(world, [&](int r) {
    ddp::DistributedDataParallel ddp(MakeModel(), comm::ProcessGroup(comm, r),
                                     {.bucket_cap_numel = 64});
    Tensor loss =
        ops::CrossEntropy(ddp.Forward(RankTokens(r)), RankTargets(r));
    autograd::RunBackward(loss);
    if (r == 0) {
      executed = ddp.exec_log().Snapshot().instrs;
      num_buckets = ddp.num_buckets();
    }
  });
  ASSERT_GT(num_buckets, 1);
  // The recorded DDP plan passes the compiler's validator (bucketed
  // AllReduce, no unshards — the gather checks don't apply). Instr::unit
  // indexes buckets here, so size the name table to the bucket count.
  plan::StepPlan ddp_plan;
  ddp_plan.unit_names.assign(static_cast<size_t>(num_buckets), "");
  ddp_plan.instrs = executed;
  const Status st = plan::PlanValidator{}.Check(ddp_plan);
  EXPECT_TRUE(st.ok()) << st.message();
  int reduces = 0, waits = 0;
  for (const plan::Instr& in : executed) {
    if (in.op == plan::Op::kReduceGrad) {
      ++reduces;
      EXPECT_GT(in.bytes, 0);
    }
    if (in.op == plan::Op::kWaitReduceGrad) ++waits;
  }
  EXPECT_EQ(reduces, num_buckets);
  EXPECT_EQ(waits, num_buckets);
  // Every reduce precedes the first wait only if backward produced buckets
  // in order; at minimum the final wait follows the final reduce.
  EXPECT_EQ(executed.back().op, plan::Op::kWaitReduceGrad);
}

}  // namespace
}  // namespace fsdp
