// Composed parallelism: FSDP x TP x PP through one plan IR (paper Sec 7.1).
//
// The composed anti-drift contract extends tests/plan_test.cc to three mesh
// axes: a real 8-rank run (pp2 x dp2 x tp2) records every instruction it
// executes — FSDP hooks on the dp axis, TP layers on the tp axis, pipeline
// handoffs on the pp axis — into one per-rank plan::ExecLog, and that log's
// canonical projection must equal the per-stage projection of the composed
// builder plan, which the simulator interprets unchanged. PlanValidator
// must accept all three forms and reject hand-corrupted plans (unmatched
// sends, recv-before-send cycles, off-axis collectives).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "autograd/engine.h"
#include "comm/plan_replay.h"
#include "comm/process_group.h"
#include "common/threading.h"
#include "core/fsdp.h"
#include "nn/tensor_parallel.h"
#include "plan/builder.h"
#include "plan/passes.h"
#include "plan/perturb.h"
#include "sim/topology.h"
#include "simfsdp/schedule.h"
#include "simfsdp/workload.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

using plan::Axis;
using plan::Instr;
using plan::Op;
using plan::Phase;
using plan::Perturbation;
using plan::PerturbKind;
using plan::StepPlan;

// --------------------------------------------------- N-d mesh edge cases

TEST(DeviceMeshNdTest, CreateRejectsBadShapes) {
  std::shared_ptr<comm::DeviceMesh> mesh;
  // Non-divisible world: 3 x 2 != 8. A Status error, never an abort.
  Status st = comm::DeviceMesh::Create(8, {{"dp", 3}, {"tp", 2}}, &mesh);
  EXPECT_FALSE(st.ok());
  // Zero-size axis.
  st = comm::DeviceMesh::Create(8, {{"dp", 0}, {"tp", 8}}, &mesh);
  EXPECT_FALSE(st.ok());
  // Duplicate axis names.
  st = comm::DeviceMesh::Create(8, {{"dp", 2}, {"dp", 4}}, &mesh);
  EXPECT_FALSE(st.ok());
  // Empty axis name.
  st = comm::DeviceMesh::Create(4, {{"", 4}}, &mesh);
  EXPECT_FALSE(st.ok());
  // Empty axis list.
  st = comm::DeviceMesh::Create(4, {}, &mesh);
  EXPECT_FALSE(st.ok());
  // Non-positive world.
  st = comm::DeviceMesh::Create(0, {{"dp", 1}}, &mesh);
  EXPECT_FALSE(st.ok());
}

TEST(DeviceMeshNdTest, CoordinatesAndSlices) {
  std::shared_ptr<comm::DeviceMesh> mesh;
  ASSERT_TRUE(
      comm::DeviceMesh::Create(8, {{"pp", 2}, {"dp", 2}, {"tp", 2}}, &mesh)
          .ok());

  // Row-major, last axis fastest: rank 5 = pp 1, dp 0, tp 1.
  int c = -1;
  ASSERT_TRUE(mesh->Coordinate("pp", 5, &c).ok());
  EXPECT_EQ(c, 1);
  ASSERT_TRUE(mesh->Coordinate("dp", 5, &c).ok());
  EXPECT_EQ(c, 0);
  ASSERT_TRUE(mesh->Coordinate("tp", 5, &c).ok());
  EXPECT_EQ(c, 1);
  int size = 0;
  ASSERT_TRUE(mesh->AxisSize("dp", &size).ok());
  EXPECT_EQ(size, 2);

  // A slice's ProcessGroup rank is the coordinate, its size the axis size.
  comm::ProcessGroup tp;
  ASSERT_TRUE(mesh->Slice("tp", 5, &tp).ok());
  EXPECT_EQ(tp.rank(), 1);
  EXPECT_EQ(tp.size(), 2);

  // Errors, not aborts: unknown axis, out-of-range rank.
  EXPECT_FALSE(mesh->Slice("ep", 0, &tp).ok());
  EXPECT_FALSE(mesh->Slice("tp", 8, &tp).ok());
  EXPECT_FALSE(mesh->Coordinate("ep", 0, &c).ok());
  EXPECT_FALSE(mesh->AxisSize("ep", &size).ok());

  // FsdpSubmesh: the sharding factor must divide the axis size.
  std::shared_ptr<comm::DeviceMesh> sub;
  EXPECT_FALSE(mesh->FsdpSubmesh("dp", 0, 3, &sub).ok());
  ASSERT_TRUE(mesh->FsdpSubmesh("dp", 0, 2, &sub).ok());
  EXPECT_EQ(sub->world_size(), 2);
  EXPECT_EQ(sub->sharding_factor(), 2);

  // DeviceMesh(W, F) is shorthand for {{"replicate", W/F}, {"shard", F}}.
  comm::DeviceMesh fsdp_mesh(4, 4);
  ASSERT_EQ(fsdp_mesh.axes().size(), 2u);
  EXPECT_EQ(fsdp_mesh.axes()[0].name, "replicate");
  EXPECT_EQ(fsdp_mesh.axes()[0].size, 1);
  EXPECT_EQ(fsdp_mesh.axes()[1].name, "shard");
  EXPECT_EQ(fsdp_mesh.axes()[1].size, 4);
  Status st = fsdp_mesh.Slice("dp", 0, &tp);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unknown mesh axis"), std::string::npos)
      << st.message();
}

TEST(DeviceMeshNdTest, SubmeshGroupsTakeTheMeshSettings) {
  std::shared_ptr<comm::DeviceMesh> mesh;
  ASSERT_TRUE(comm::DeviceMesh::Create(4, {{"dp", 2}, {"tp", 2}}, &mesh).ok());
  mesh->SetDefaultTimeout(100);
  mesh->SetDesyncDetection(true);
  // Created after the settings: its groups are born with them.
  std::shared_ptr<comm::DeviceMesh> sub;
  ASSERT_TRUE(mesh->FsdpSubmesh("dp", 0, 2, &sub).ok());
  const auto shard = sub->ShardGroup(0).communicator();
  EXPECT_EQ(shard->name(), "dp0.shard0");
  EXPECT_EQ(shard->default_timeout_ms(), 100);
  EXPECT_TRUE(shard->desync_detection());
  // Changed after: the mesh's setters reach every cached submesh group.
  mesh->SetDefaultTimeout(50);
  EXPECT_EQ(shard->default_timeout_ms(), 50);
  EXPECT_EQ(sub->ReplicateGroup(1).communicator()->default_timeout_ms(), 50);
  // And an abort on a submesh group reaches the mesh's other axes.
  shard->Abort(Status::Invalid("injected shard failure"));
  comm::ProcessGroup tp3;
  ASSERT_TRUE(mesh->Slice("tp", 3, &tp3).ok());
  EXPECT_TRUE(tp3.communicator()->aborted());
}

TEST(DeviceMeshNdTest, AxisSlicesCarryDisjointCollectives) {
  std::shared_ptr<comm::DeviceMesh> mesh;
  ASSERT_TRUE(comm::DeviceMesh::Create(4, {{"dp", 2}, {"tp", 2}}, &mesh).ok());
  // tp pairs {0,1},{2,3}; dp pairs {0,2},{1,3}. Each rank AllReduces its
  // global rank on both axes; the sums identify the group membership.
  RunOnRanks(4, [&](int r) {
    comm::ProcessGroup tp, dp;
    ASSERT_TRUE(mesh->Slice("tp", r, &tp).ok());
    ASSERT_TRUE(mesh->Slice("dp", r, &dp).ok());
    float v = static_cast<float>(r);
    ASSERT_TRUE(tp.AllReduce(&v, 1).WaitStatus().ok());
    EXPECT_FLOAT_EQ(v, r < 2 ? 1.f : 5.f);  // 0+1 or 2+3
    v = static_cast<float>(r);
    ASSERT_TRUE(dp.AllReduce(&v, 1).WaitStatus().ok());
    EXPECT_FLOAT_EQ(v, r % 2 == 0 ? 2.f : 4.f);  // 0+2 or 1+3
  });
}

TEST(DeviceMeshNdTest, AbortPropagatesAcrossSiblingAxes) {
  std::shared_ptr<comm::DeviceMesh> mesh;
  ASSERT_TRUE(comm::DeviceMesh::Create(4, {{"dp", 2}, {"tp", 2}}, &mesh).ok());

  comm::ProcessGroup tp0, dp1;
  ASSERT_TRUE(mesh->Slice("tp", 0, &tp0).ok());
  ASSERT_TRUE(mesh->Slice("dp", 1, &dp1).ok());

  // A rank blocked in a point-to-point receive on the dp axis (peer never
  // sends) must be woken with an error when a *tp* communicator aborts —
  // the whole mesh is one failure domain.
  Status recv_status;
  std::thread blocked([&] {
    float buf = 0;
    recv_status = dp1.Recv(&buf, 1, /*src_rank=*/1).WaitStatus();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  tp0.communicator()->Abort(Status::Invalid("injected tp failure"));
  blocked.join();
  EXPECT_FALSE(recv_status.ok());

  // Sibling-axis communicators observe the abort...
  comm::ProcessGroup dp0;
  ASSERT_TRUE(mesh->Slice("dp", 0, &dp0).ok());
  EXPECT_TRUE(dp0.communicator()->aborted());
  // ...and so do FSDP submeshes carved from the mesh (same abort web).
  std::shared_ptr<comm::DeviceMesh> sub;
  ASSERT_TRUE(mesh->FsdpSubmesh("dp", 0, 2, &sub).ok());
  float v = 0;
  EXPECT_FALSE(sub->WorldGroup(0).AllReduce(&v, 1).WaitStatus().ok());
}

// ------------------------------------------------------- lane / rendering

TEST(ComposedPlanTest, LaneTrackAndRenderNames) {
  Instr tp_ar;
  tp_ar.op = Op::kTpAllReduce;
  tp_ar.lane = plan::Lane::kComm;
  tp_ar.axis = Axis::kTp;
  EXPECT_EQ(plan::LaneTrackName(tp_ar), "comm.tp");

  Instr send;
  send.op = Op::kSendAct;
  send.lane = plan::Lane::kComm;
  send.axis = Axis::kPp;
  send.phase = Phase::kForward;
  send.stage = 0;
  send.peer_stage = 1;
  EXPECT_EQ(plan::LaneTrackName(send), "comm.pp");
  EXPECT_EQ(plan::RenderInstr(send, {}), "SEND:fwd.s0>s1");

  Instr recv = send;
  recv.op = Op::kRecvAct;
  recv.phase = Phase::kBackward;
  EXPECT_EQ(plan::RenderInstr(recv, {}), "RECV:bwd.s0<s1");

  // dp-axis comm instructions keep the plain lane name (existing traces
  // must not change track), and compute stays compute.
  Instr ag;
  ag.op = Op::kUnshard;
  ag.lane = plan::Lane::kComm;
  ag.axis = Axis::kDp;
  EXPECT_EQ(plan::LaneTrackName(ag), "comm");
  Instr fwd;
  fwd.op = Op::kCompute;
  fwd.lane = plan::Lane::kCompute;
  EXPECT_EQ(plan::LaneTrackName(fwd), "compute");
}

// --------------------------------------------------- composed plan builder

plan::ComposedPlanOptions ComposedOpts(int microbatches) {
  plan::ComposedPlanOptions o;
  o.fsdp = plan::FsdpPlanOptions::Runtime();
  o.fsdp.accum = plan::AccumMode::kReduceLastMicrobatch;
  o.pp_stages = 2;
  o.microbatches = microbatches;
  o.tp_degree = 2;
  o.act_bytes = 512;
  o.tp_bytes = 512;
  return o;
}

StepPlan BuildTwoStagePlan(int microbatches = 2) {
  return plan::BuildComposedStepPlan(
      {{"[root]", "a", "b"}, {"[root]", "c", "d"}}, ComposedOpts(microbatches));
}

int CountOp(const StepPlan& p, Op op) {
  int n = 0;
  for (const Instr& in : p.instrs) n += in.op == op ? 1 : 0;
  return n;
}

int FindInstr(const StepPlan& p, const std::function<bool(const Instr&)>& f) {
  for (int i = 0; i < p.size(); ++i) {
    if (f(p.instrs[static_cast<size_t>(i)])) return i;
  }
  return -1;
}

TEST(ComposedPlanTest, BuilderEmitsAxisTaggedComposedSchedule) {
  const StepPlan p = BuildTwoStagePlan(/*microbatches=*/2);
  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_TRUE(st.ok()) << st.message();

  // Per microbatch: one fwd activation send (s0>s1) and one bwd gradient
  // send (s1>s0), each with its matching recv.
  EXPECT_EQ(CountOp(p, Op::kSendAct), 4);
  EXPECT_EQ(CountOp(p, Op::kRecvAct), 4);
  // Four TP units (a, b, c, d) x (fwd + bwd) x 2 microbatches.
  EXPECT_EQ(CountOp(p, Op::kTpAllReduce), 16);

  const auto canon = p.Canonical();
  auto has = [&](const std::string& s) {
    return std::find(canon.begin(), canon.end(), s) != canon.end();
  };
  EXPECT_TRUE(has("SEND:fwd.s0>s1"));
  EXPECT_TRUE(has("RECV:fwd.s1<s0"));
  EXPECT_TRUE(has("SEND:bwd.s1>s0"));
  EXPECT_TRUE(has("RECV:bwd.s0<s1"));

  // FilterStage keeps only that stage's instructions (plus the all-stage
  // optimizer join).
  const StepPlan s0 = plan::FilterStage(p, 0);
  for (const Instr& in : s0.instrs) {
    EXPECT_TRUE(in.stage == 0 || in.stage == -1);
  }
  EXPECT_GT(s0.size(), 0);
  const Status s0st = plan::PlanValidator{}.Check(s0);
  EXPECT_TRUE(s0st.ok()) << s0st.message();
}

TEST(ComposedPlanTest, ValidatorRejectsCorruptedComposedPlans) {
  const StepPlan base = BuildTwoStagePlan();
  const plan::PlanValidator validator{};

  // Dropping a recv leaves its send dangling: the peer stage would block
  // at the step boundary.
  const int recv_i =
      FindInstr(base, [](const Instr& in) { return in.op == Op::kRecvAct; });
  ASSERT_GE(recv_i, 0);
  Status st = validator.Check(
      ApplyPerturbation(base, {PerturbKind::kDropInstr, recv_i, 0}));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("send never matched"), std::string::npos)
      << st.message();

  // The forward send and the next stage's recv are adjacent in the composed
  // schedule; swapping them schedules the recv before its send — the
  // cross-stage cycle the validator must catch.
  const int send_i = FindInstr(base, [&base](const Instr& in) {
    return in.op == Op::kSendAct;
  });
  ASSERT_GE(send_i, 0);
  ASSERT_LT(send_i + 1, base.size());
  ASSERT_EQ(base.instrs[static_cast<size_t>(send_i) + 1].op, Op::kRecvAct);
  st = validator.Check(
      ApplyPerturbation(base, {PerturbKind::kSwapAdjacent, send_i, 0}));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("matching send"), std::string::npos)
      << st.message();

  // Axis discipline: a TP collective retagged onto the dp axis.
  const int tp_i = FindInstr(
      base, [](const Instr& in) { return in.op == Op::kTpAllReduce; });
  ASSERT_GE(tp_i, 0);
  StepPlan off_axis = base;
  off_axis.instrs[static_cast<size_t>(tp_i)].axis = Axis::kDp;
  st = validator.Check(off_axis);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("off the tp axis"), std::string::npos)
      << st.message();

  // And the reverse: an FSDP AllGather wandering onto the tp axis.
  const int ag_i =
      FindInstr(base, [](const Instr& in) { return in.op == Op::kUnshard; });
  ASSERT_GE(ag_i, 0);
  StepPlan off_dp = base;
  off_dp.instrs[static_cast<size_t>(ag_i)].axis = Axis::kTp;
  st = validator.Check(off_dp);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("off the dp axis"), std::string::npos)
      << st.message();
}

// Multiset of communication work per mesh axis: what must survive any
// semantics-preserving compiler pass. P2p instructions key by endpoint
// pair, collectives by covered unit.
std::multiset<std::string> AxisCommMultiset(const StepPlan& p) {
  std::multiset<std::string> out;
  for (const Instr& in : p.instrs) {
    if (in.lane != plan::Lane::kComm) continue;
    std::ostringstream key;
    key << plan::AxisName(in.axis) << "/" << plan::OpName(in.op) << "/mb"
        << in.microbatch << "/"
        << (in.phase == Phase::kBackward ? "bwd" : "fwd");
    if (in.op == Op::kSendAct || in.op == Op::kRecvAct) {
      key << "/s" << in.stage << ":s" << in.peer_stage;
      out.insert(key.str());
      continue;
    }
    plan::ForEachCoveredUnit(in, [&](int u) {
      out.insert(key.str() + "/" + p.unit_names[static_cast<size_t>(u)]);
    });
  }
  return out;
}

TEST(ComposedPlanTest, PassesPreserveAxisCommMultisets) {
  StepPlan p = BuildTwoStagePlan(/*microbatches=*/2);
  const auto before = AxisCommMultiset(p);

  plan::PassOptions po;
  po.unit_shard_bytes.assign(p.unit_names.size(), 512);
  po.unit_reduce_bytes.assign(p.unit_names.size(), 512);
  po.fuse_below_bytes = 4096;  // everything is a fusion candidate
  const plan::PassManager pm = plan::PassManager::Default(po);
  pm.Run(p);

  const Status st = plan::PlanValidator{}.Check(p);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(AxisCommMultiset(p), before);
}

// ------------------------------------------------- perturb classification

TEST(ComposedPerturbTest, ClassifierCoversComposedOps) {
  const StepPlan p = BuildTwoStagePlan();

  // Dropping any comm-lane instruction desyncs its axis: TP AllReduce and
  // pipeline send alike.
  const int tp_i =
      FindInstr(p, [](const Instr& in) { return in.op == Op::kTpAllReduce; });
  const int send_i =
      FindInstr(p, [](const Instr& in) { return in.op == Op::kSendAct; });
  ASSERT_GE(tp_i, 0);
  ASSERT_GE(send_i, 0);
  EXPECT_TRUE(PerturbsCollectives(p, {PerturbKind::kDropInstr, tp_i, 0}));
  EXPECT_TRUE(PerturbsCollectives(p, {PerturbKind::kDropInstr, send_i, 0}));

  // Swapping the adjacent fwd send/recv reorders the pp stream: violating.
  ASSERT_EQ(p.instrs[static_cast<size_t>(send_i) + 1].op, Op::kRecvAct);
  EXPECT_TRUE(PerturbsCollectives(p, {PerturbKind::kSwapAdjacent, send_i, 0}));

  // A pp-axis forward recv directly followed by the receiving stage's dp-axis
  // root AllGather swap cleanly: each per-axis stream keeps its own order.
  const int cross_i = FindInstr(p, [&p](const Instr& in) {
    const int i = static_cast<int>(&in - p.instrs.data());
    return in.op == Op::kRecvAct && in.phase == Phase::kForward &&
           i + 1 < p.size() &&
           p.instrs[static_cast<size_t>(i) + 1].op == Op::kUnshard;
  });
  ASSERT_GE(cross_i, 0) << "expected fwd-recv/root-unshard adjacency";
  EXPECT_FALSE(
      PerturbsCollectives(p, {PerturbKind::kSwapAdjacent, cross_i, 0}));

  // Delays never desync — they are timing, not stream order.
  EXPECT_FALSE(PerturbsCollectives(p, {PerturbKind::kDelay, send_i, 500.0}));
}

// --------------------------------------------- composed anti-drift (real)

Instr P2pRecord(Op op, Phase phase, int stage, int peer, int mb) {
  Instr in;
  in.op = op;
  in.unit = -1;
  in.phase = phase;
  in.lane = plan::Lane::kComm;
  in.axis = Axis::kPp;
  in.stage = stage;
  in.peer_stage = peer;
  in.microbatch = mb;
  return in;
}

TEST(ComposedAntiDriftTest, RealRunMatchesBuilderAndSimulator) {
  // 8 ranks as pp2 x dp2 x tp2. Each pipeline stage: a root-owned plain MLP
  // at the INPUT end (so the root's last AccumulateGrad — and with it the
  // root's post-backward hook — fires last, matching the builder's
  // root-compute-last backward order) followed by two TP MLP units.
  const int W = 8, S = 2, M = 2;
  const int64_t dim = 8, hidden = 8;
  std::shared_ptr<comm::DeviceMesh> mesh;
  ASSERT_TRUE(
      comm::DeviceMesh::Create(W, {{"pp", 2}, {"dp", 2}, {"tp", 2}}, &mesh)
          .ok());

  std::vector<StepPlan> snaps(W);
  std::vector<std::vector<std::string>> stage_names(S);
  std::vector<Status> fsdp_status(W);
  std::mutex mu;

  RunOnRanks(W, [&](int r) {
    int stage = -1, dp = -1;
    ASSERT_TRUE(mesh->Coordinate("pp", r, &stage).ok());
    ASSERT_TRUE(mesh->Coordinate("dp", r, &dp).ok());
    comm::ProcessGroup tp_pg, pp_pg;
    ASSERT_TRUE(mesh->Slice("tp", r, &tp_pg).ok());
    ASSERT_TRUE(mesh->Slice("pp", r, &pp_pg).ok());
    std::shared_ptr<comm::DeviceMesh> sub;
    ASSERT_TRUE(mesh->FsdpSubmesh("dp", r, 2, &sub).ok());

    nn::InitCtx ctx(Device::kCpu, 40 + stage);
    auto mlp1 = std::make_shared<nn::TensorParallelMLP>(dim, hidden, tp_pg,
                                                        ctx);
    auto mlp2 = std::make_shared<nn::TensorParallelMLP>(dim, hidden, tp_pg,
                                                        ctx);
    auto stage_mod = std::make_shared<nn::Sequential>();
    stage_mod->Append(std::make_shared<nn::MLP>(dim, hidden, ctx));
    stage_mod->Append(mlp1);
    stage_mod->Append(mlp2);

    core::FsdpOptions opts;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TensorParallelMLP"});
    opts.sync_module_states = false;  // TP slices differ per rank by design
    opts.limit_all_gathers = 0;       // plan shape carries no gates
    auto state = core::FullyShard(stage_mod, *sub, dp, opts);

    const std::vector<std::string> names =
        state->ExpectedStepPlan().unit_names;
    ASSERT_EQ(names.size(), 3u);
    {
      std::lock_guard<std::mutex> lock(mu);
      stage_names[static_cast<size_t>(stage)] = names;
    }

    // One executed log per rank, fed by all three axes.
    plan::ExecLog log;
    state->AttachExecLog(&log, stage);
    nn::TpRecorder rec1{&log, names[1], stage, 0, 512};
    nn::TpRecorder rec2{&log, names[2], stage, 0, 512};
    mlp1->set_recorder(&rec1);
    mlp2->set_recorder(&rec2);

    Rng rng(7 + r, 0);
    for (int mb = 0; mb < M; ++mb) {
      state->set_composed_microbatch(mb);
      rec1.microbatch = rec2.microbatch = mb;
      std::optional<core::FsdpNoSyncGuard> no_sync;
      if (mb + 1 < M) no_sync.emplace(*state);

      if (stage == 0) {
        Tensor x = Tensor::Randn({2, dim}, rng);
        Tensor y = (*stage_mod)(x);
        ASSERT_TRUE(pp_pg.Send(y, /*dst=*/1).WaitStatus().ok());
        log.Record(P2pRecord(Op::kSendAct, Phase::kForward, 0, 1, mb));
        Tensor g = Tensor::Zeros(y.shape());
        ASSERT_TRUE(pp_pg.Recv(g, /*src=*/1).WaitStatus().ok());
        log.Record(P2pRecord(Op::kRecvAct, Phase::kBackward, 0, 1, mb));
        autograd::RunBackward(y, g);
      } else {
        Tensor x = Tensor::Zeros({2, dim});
        ASSERT_TRUE(pp_pg.Recv(x, /*src=*/0).WaitStatus().ok());
        log.Record(P2pRecord(Op::kRecvAct, Phase::kForward, 1, 0, mb));
        // The boundary activation is this stage's autograd entry: it must
        // participate so the TP input operator attaches and the input
        // gradient exists to hand back.
        x.set_requires_grad(true);
        Tensor y = (*stage_mod)(x);
        autograd::RunBackward(ops::Mean(ops::Mul(y, y)));
        ASSERT_TRUE(x.grad().defined());
        ASSERT_TRUE(pp_pg.Send(x.grad(), /*dst=*/0).WaitStatus().ok());
        log.Record(P2pRecord(Op::kSendAct, Phase::kBackward, 1, 0, mb));
      }
    }
    // The FSDP hooks recorded straight into `log`: the state's log is the
    // attached one, so its view and the log's snapshot are the same entries.
    EXPECT_EQ(&state->exec_log(), &log);
    EXPECT_EQ(state->executed_plan().size(), log.Snapshot().instrs.size());
    std::lock_guard<std::mutex> lock(mu);
    snaps[static_cast<size_t>(r)] = log.Snapshot();
    fsdp_status[static_cast<size_t>(r)] = state->status();
  });

  for (int r = 0; r < W; ++r) {
    ASSERT_TRUE(fsdp_status[static_cast<size_t>(r)].ok())
        << "rank " << r << ": " << fsdp_status[static_cast<size_t>(r)].ToString();
  }

  // The builder's composed prediction over the runtime's own unit names.
  plan::ComposedPlanOptions copt = ComposedOpts(M);
  const StepPlan composed =
      plan::BuildComposedStepPlan({stage_names[0], stage_names[1]}, copt);
  const plan::PlanValidator validator{};
  Status st = validator.Check(composed);
  ASSERT_TRUE(st.ok()) << st.message();

  // Anti-drift across all three axes: every rank's executed stream equals
  // its stage's projection of the composed plan, and validates on its own
  // (per-rank logs carry one stage; peer-stage send/recv matching is
  // skipped for stages the log does not contain).
  for (int r = 0; r < W; ++r) {
    int stage = -1;
    ASSERT_TRUE(mesh->Coordinate("pp", r, &stage).ok());
    const StepPlan& snap = snaps[static_cast<size_t>(r)];
    ASSERT_FALSE(snap.instrs.empty()) << "rank " << r;
    if (std::getenv("COMPOSE_DUMP") && r == 4) {
      std::ostringstream os;
      os << "real:";
      for (const auto& s : snap.Canonical()) os << " " << s;
      os << "\nplan:";
      for (const auto& s : plan::FilterStage(composed, stage).Canonical())
        os << " " << s;
      fprintf(stderr, "%s\n", os.str().c_str());
    }
    EXPECT_EQ(snap.Canonical(), plan::FilterStage(composed, stage).Canonical())
        << "rank " << r << " (stage " << stage << ") drifted";
    st = validator.Check(snap);
    EXPECT_TRUE(st.ok()) << "rank " << r << ": " << st.message();
  }

  // Third consumer: the simulator interprets the exact same composed plan
  // (real unit names and all) at the composed geometry — dp collectives on
  // the dp lane, TP AllReduces intra-host, activation handoffs
  // point-to-point.
  simfsdp::TransformerShape shape;
  shape.name = "compose-toy";
  shape.hidden = 64;
  shape.layers = static_cast<int>(composed.unit_names.size()) - 1;
  shape.heads = 2;
  shape.seq = 16;
  shape.vocab = 128;
  simfsdp::Workload w = simfsdp::MakeTransformer(shape);
  ASSERT_EQ(w.units.size() + 1, composed.unit_names.size());

  simfsdp::FsdpSimConfig cfg;
  cfg.sharding_factor = 2;
  cfg.tp_degree = 2;
  cfg.limit_all_gathers = 0;  // the plan carries no gate instructions
  cfg.accum = plan::AccumMode::kReduceLastMicrobatch;
  cfg.microbatches = M;
  simfsdp::FsdpSimulator sim(w, sim::Topology{1, 8}, sim::SimConstants{}, cfg,
                             composed);
  EXPECT_EQ(sim.plan().Canonical(), composed.Canonical());
  const simfsdp::SimMetrics m = sim.Run();
  EXPECT_FALSE(m.oom);
  EXPECT_GT(m.iter_time_us, 0);
}

// ------------------------------------------------- composed plan replay

TEST(ComposedReplayTest, ReplaysCleanlyOnEightRanks) {
  const int W = 8;
  std::shared_ptr<comm::DeviceMesh> mesh;
  ASSERT_TRUE(
      comm::DeviceMesh::Create(W, {{"pp", 2}, {"dp", 2}, {"tp", 2}}, &mesh)
          .ok());
  const StepPlan p = BuildTwoStagePlan(/*microbatches=*/2);

  RunOnRanks(W, [&](int r) {
    comm::ProcessGroup dp, tp, pp;
    ASSERT_TRUE(mesh->Slice("dp", r, &dp).ok());
    ASSERT_TRUE(mesh->Slice("tp", r, &tp).ok());
    ASSERT_TRUE(mesh->Slice("pp", r, &pp).ok());
    comm::ReplayOptions ro;
    ro.unit_numel = 32;
    ro.tp_group = tp;
    ro.pp_group = pp;
    ro.pp_stage = pp.rank();
    const Status st = comm::ReplayPlan(dp, p, ro);
    EXPECT_TRUE(st.ok()) << "rank " << r << ": " << st.ToString();
  });
}

TEST(ComposedReplayTest, DroppedSendIsCaughtAndBenignCrossAxisSwapIsNot) {
  const StepPlan base = BuildTwoStagePlan(/*microbatches=*/2);

  // The violating fault: stage 0 drops its forward activation send. Its
  // pipeline peer blocks in Recv until the watchdog aborts the mesh.
  const int send_i = FindInstr(base, [](const Instr& in) {
    return in.op == Op::kSendAct && in.stage == 0;
  });
  ASSERT_GE(send_i, 0);
  // The benign fault: stage 1's pp-axis forward recv and the dp-axis root
  // AllGather that follows it swap without reordering either axis's stream.
  const int cross_i = FindInstr(base, [&base](const Instr& in) {
    const int i = static_cast<int>(&in - base.instrs.data());
    return in.op == Op::kRecvAct && in.phase == Phase::kForward &&
           i + 1 < base.size() &&
           base.instrs[static_cast<size_t>(i) + 1].op == Op::kUnshard;
  });
  ASSERT_GE(cross_i, 0);

  struct Case {
    const char* label;
    Perturbation perturb;
    bool violates;
    int faulty_rank;  // the rank replaying the perturbed plan; it must be on
                      // the stage that executes the perturbed instructions
  };
  const std::vector<Case> cases = {
      {"drop-send", {PerturbKind::kDropInstr, send_i, 0}, true, 0},
      {"cross-axis-swap", {PerturbKind::kSwapAdjacent, cross_i, 0}, false, 4},
  };

  for (const Case& c : cases) {
    EXPECT_EQ(PerturbsCollectives(base, c.perturb), c.violates) << c.label;
    const StepPlan perturbed = ApplyPerturbation(base, c.perturb);

    const int W = 8;
    std::shared_ptr<comm::DeviceMesh> mesh;
    ASSERT_TRUE(
        comm::DeviceMesh::Create(W, {{"pp", 2}, {"dp", 2}, {"tp", 2}}, &mesh)
            .ok());
    if (c.violates) {
      mesh->SetDefaultTimeout(150);
      mesh->SetDesyncDetection(true);
    }

    std::vector<Status> status(W);
    RunOnRanks(W, [&](int r) {
      comm::ProcessGroup dp, tp, pp;
      ASSERT_TRUE(mesh->Slice("dp", r, &dp).ok());
      ASSERT_TRUE(mesh->Slice("tp", r, &tp).ok());
      ASSERT_TRUE(mesh->Slice("pp", r, &pp).ok());
      comm::ReplayOptions ro;
      ro.unit_numel = 32;
      ro.tp_group = tp;
      ro.pp_group = pp;
      ro.pp_stage = pp.rank();
      if (c.violates) ro.timeout_ms = 150;
      status[static_cast<size_t>(r)] =
          comm::ReplayPlan(dp, r == c.faulty_rank ? perturbed : base, ro);
    });

    if (c.violates) {
      // The blocked pipeline peer of rank 0 (global rank 4: same dp/tp
      // coordinates, other stage) must fail, and the abort must have
      // propagated across sibling axes of the shared mesh.
      EXPECT_FALSE(status[4].ok()) << c.label;
      bool any_error = false;
      for (const Status& st : status) any_error |= !st.ok();
      EXPECT_TRUE(any_error) << c.label;
      comm::ProcessGroup dp0;
      ASSERT_TRUE(mesh->Slice("dp", 0, &dp0).ok());
      EXPECT_TRUE(dp0.communicator()->aborted()) << c.label;
    } else {
      for (int r = 0; r < W; ++r) {
        EXPECT_TRUE(status[static_cast<size_t>(r)].ok())
            << c.label << " rank " << r << ": "
            << status[static_cast<size_t>(r)].ToString();
      }
    }
  }
}

}  // namespace
}  // namespace fsdp
