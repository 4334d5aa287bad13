// Plan-compiler suite (plan/passes.h): PlanValidator rejection of
// deliberately-corrupt plans, the rewrite passes' behavior on hand-built and
// builder-emitted plans, and the two acceptance properties of the compiler —
// fusion + reordering reduce calibrated-sim exposed communication time on a
// many-small-units workload, and the static memory plan's peak stays within
// the free-list caching allocator's peak.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "plan/builder.h"
#include "plan/passes.h"
#include "plan/perturb.h"
#include "plan/plan.h"
#include "sim/allocator.h"
#include "simfsdp/schedule.h"
#include "simfsdp/workload.h"
#include "tune/search_space.h"

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

// ----------------------------------------------------------------- oracle
//
// The reordering passes and the validator as they were written before they
// became linear: every hoist or sink rebuilt and renumbered the whole plan
// (MoveBlock), and the validator collected covered units, stages and
// per-microbatch reductions into fresh containers. They live only here, as
// the reference the rewritten versions in plan/passes.cc must match field
// for field and message for message.
namespace oracle {

using plan::Axis;
using plan::Instr;
using plan::Lane;
using plan::Op;
using plan::Phase;
using plan::PassOptions;
using plan::RenderInstr;
using plan::Seg;
using plan::StepPlan;

std::vector<int> CoveredUnits(const Instr& instr) {
  std::vector<int> units;
  if (instr.unit < 0) return units;
  units.push_back(instr.unit);
  units.insert(units.end(), instr.batch_units.begin(),
               instr.batch_units.end());
  return units;
}

void ApplyOrder(StepPlan& plan, const std::vector<int>& order) {
  const int n = plan.size();
  std::vector<int> inv(static_cast<size_t>(n), 0);
  for (int p = 0; p < n; ++p) inv[static_cast<size_t>(order[p])] = p;
  std::vector<Instr> out;
  out.reserve(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) {
    out.push_back(std::move(plan.instrs[static_cast<size_t>(order[p])]));
  }
  for (Instr& in : out) {
    for (int& d : in.deps) d = inv[static_cast<size_t>(d)];
  }
  plan.instrs = std::move(out);
}

/// Moves the contiguous block [b, e) to start at position dst (dst < b:
/// hoist; dst >= e: sink to just before old index dst).
void MoveBlock(StepPlan& plan, int b, int e, int dst) {
  const int n = plan.size();
  std::vector<int> order;
  order.reserve(static_cast<size_t>(n));
  if (dst < b) {
    for (int k = 0; k < dst; ++k) order.push_back(k);
    for (int k = b; k < e; ++k) order.push_back(k);
    for (int k = dst; k < b; ++k) order.push_back(k);
    for (int k = e; k < n; ++k) order.push_back(k);
  } else {
    for (int k = 0; k < b; ++k) order.push_back(k);
    for (int k = e; k < dst; ++k) order.push_back(k);
    for (int k = b; k < e; ++k) order.push_back(k);
    for (int k = dst; k < n; ++k) order.push_back(k);
  }
  ApplyOrder(plan, order);
}

bool SharesUnit(const Instr& a, const Instr& b) {
  for (int ua : CoveredUnits(a)) {
    for (int ub : CoveredUnits(b)) {
      if (ua == ub) return true;
    }
  }
  return false;
}

bool DependsOnRange(const Instr& in, int b, int e) {
  for (int d : in.deps) {
    if (d >= b && d < e) return true;
  }
  return false;
}

int HoistUnshards(StepPlan& plan, const PassOptions& options) {
  if (options.max_hoist_computes <= 0) return 0;
  bool has_gates = false;
  for (const Instr& in : plan.instrs) {
    if (in.op == Op::kRateLimitGate) has_gates = true;
  }
  int rewrites = 0;
  for (int i = 0; i < plan.size(); ++i) {
    const Instr& un = plan.instrs[static_cast<size_t>(i)];
    if (un.op != Op::kUnshard) continue;
    int b = i;
    if (b > 0) {
      const Instr& prev = plan.instrs[static_cast<size_t>(b - 1)];
      if (prev.op == Op::kRateLimitGate && prev.unit == un.unit) b = i - 1;
    }
    int dst = b;
    int computes = 0;
    for (int j = b - 1; j >= 0; --j) {
      const Instr& x = plan.instrs[static_cast<size_t>(j)];
      if (x.lane == Lane::kComm) break;
      if (SharesUnit(x, un)) break;
      if (x.op == Op::kOptimStep || x.op == Op::kWaitReduceGrad) break;
      if (x.microbatch != un.microbatch) break;
      if (DependsOnRange(un, j, j + 1)) break;
      if (has_gates && (x.op == Op::kReshard || x.op == Op::kFreeGrad ||
                        x.op == Op::kFreeAct)) {
        break;
      }
      if (x.op == Op::kCompute) {
        if (computes + 1 > options.max_hoist_computes) break;
        ++computes;
      }
      dst = j;
    }
    if (dst < b && computes > 0) {
      MoveBlock(plan, b, i + 1, dst);
      ++rewrites;
    }
  }
  return rewrites;
}

int SinkReduces(StepPlan& plan, const PassOptions& options) {
  if (options.max_sink_computes <= 0) return 0;
  int rewrites = 0;
  for (int i = plan.size() - 1; i >= 0; --i) {
    if (plan.instrs[static_cast<size_t>(i)].op != Op::kReduceGrad) continue;
    int e = i + 1;
    while (e < plan.size()) {
      const Instr& x = plan.instrs[static_cast<size_t>(e)];
      const bool chained = (x.op == Op::kAllReduceReplicas ||
                            x.op == Op::kGradOffloadD2H ||
                            x.op == Op::kFreeGrad) &&
                           x.unit == plan.instrs[static_cast<size_t>(i)].unit;
      if (!chained) break;
      ++e;
    }
    const int mb = plan.instrs[static_cast<size_t>(i)].microbatch;
    int dst = e;
    int computes = 0;
    for (int j = e; j < plan.size(); ++j) {
      const Instr& x = plan.instrs[static_cast<size_t>(j)];
      if (x.op == Op::kReduceGrad || x.op == Op::kWaitReduceGrad ||
          x.op == Op::kOptimStep || x.op == Op::kSendAct ||
          x.op == Op::kRecvAct) {
        break;
      }
      if (x.stage != plan.instrs[static_cast<size_t>(i)].stage) break;
      if (x.microbatch != mb) break;
      if (DependsOnRange(x, i, e)) break;
      if (x.op == Op::kCompute) {
        if (computes + 1 > options.max_sink_computes) break;
        ++computes;
      }
      dst = j + 1;
    }
    if (dst > e) {
      MoveBlock(plan, i, e, dst);
      ++rewrites;
    }
  }
  return rewrites;
}

Status Check(const StepPlan& plan) {
  const int n = plan.size();
  const int nu = static_cast<int>(plan.unit_names.size());
  auto fail = [&](int i, const std::string& what) {
    std::ostringstream oss;
    oss << "instr " << i << " ("
        << RenderInstr(plan.instrs[static_cast<size_t>(i)], plan.unit_names)
        << " mb" << plan.instrs[static_cast<size_t>(i)].microbatch << "): "
        << what;
    return Status::Invalid(oss.str());
  };

  // Units the plan manages (ever unshards). Units never unsharded are
  // treated as resident from the start: DDP plans, and runtime-recorded
  // steps that inherit gathered parameters from a previous no_sync step.
  std::vector<char> managed(static_cast<size_t>(nu), 0);
  bool has_unshard = false;
  bool has_compute = false;
  // Stages with any instruction in this plan. Per-rank executed logs and
  // FilterStage projections only carry one stage; send/recv matching is
  // skipped against stages the plan does not contain.
  std::set<int> stages_present;
  for (int i = 0; i < n; ++i) {
    const Instr& in = plan.instrs[static_cast<size_t>(i)];
    for (int u : CoveredUnits(in)) {
      if (u < 0 || u >= nu) return fail(i, "unit index out of range");
    }
    if (in.op == Op::kUnshard) {
      has_unshard = true;
      for (int u : CoveredUnits(in)) managed[static_cast<size_t>(u)] = 1;
    }
    if (in.op == Op::kCompute) has_compute = true;
    if (in.stage >= 0) stages_present.insert(in.stage);
  }

  std::vector<char> gathered(static_cast<size_t>(nu), 0);
  for (int u = 0; u < nu; ++u) {
    if (!managed[static_cast<size_t>(u)]) gathered[static_cast<size_t>(u)] = 1;
  }
  std::vector<char> grad_live(static_cast<size_t>(nu), 0);
  std::vector<char> act_live(static_cast<size_t>(nu), 0);
  std::vector<int> last_bwd_mb(static_cast<size_t>(nu), -1);
  // Per-microbatch reduction bookkeeping for duplicate + coverage checks.
  std::map<int, std::set<int>> bwd_units, reduced_units;
  // Pipeline boundary matching: sends keyed by (sender stage, receiver
  // stage, phase, microbatch) queue up until the matching recv consumes
  // them. Plan order is issue order, so a recv whose send appears later
  // would deadlock the composed run — that is the cross-axis cycle check.
  using P2pKey = std::tuple<int, int, int, int>;
  std::map<P2pKey, std::deque<int>> pending_sends;
  bool after_optim = false;

  for (int i = 0; i < n; ++i) {
    const Instr& in = plan.instrs[static_cast<size_t>(i)];
    for (int d : in.deps) {
      if (d < 0 || d >= i) {
        return fail(i, "dep " + std::to_string(d) +
                           " does not point strictly earlier (cycle)");
      }
    }
    if (after_optim) return fail(i, "instruction after kOptimStep");

    // Axis discipline: the FSDP schedule lives on the dp axis; TP
    // collectives and pipeline point-to-points carry their own axis tags so
    // the simulator (and trace lanes) route them onto the right fabric.
    switch (in.op) {
      case Op::kTpAllGather:
      case Op::kTpAllReduce:
        if (in.axis != Axis::kTp) {
          return fail(i, "tensor-parallel collective off the tp axis");
        }
        break;
      case Op::kSendAct:
      case Op::kRecvAct:
        if (in.axis != Axis::kPp) {
          return fail(i, "pipeline send/recv off the pp axis");
        }
        break;
      default:
        if (in.axis != Axis::kDp) {
          return fail(i, "FSDP instruction tagged off the dp axis");
        }
        break;
    }

    switch (in.op) {
      case Op::kUnshard:
        for (int u : CoveredUnits(in)) {
          if (gathered[static_cast<size_t>(u)]) {
            return fail(i, "redundant unshard: unit already gathered");
          }
          gathered[static_cast<size_t>(u)] = 1;
        }
        break;
      case Op::kWaitUnshard:
        if (in.unit >= 0 && managed[static_cast<size_t>(in.unit)] &&
            !gathered[static_cast<size_t>(in.unit)]) {
          return fail(i, "wait on a unit that is not gathered");
        }
        break;
      case Op::kCompute: {
        if (in.unit < 0) return fail(i, "compute without a unit");
        const size_t u = static_cast<size_t>(in.unit);
        if (managed[u] && !gathered[u]) {
          return fail(i, "compute on a resharded unit (use-after-free)");
        }
        if (in.phase == Phase::kBackward) {
          last_bwd_mb[u] = in.microbatch;
          grad_live[u] = 1;
          if (in.seg != Seg::kRootHead) {
            bwd_units[in.microbatch].insert(in.unit);
          }
        } else if (in.phase == Phase::kForward && in.seg == Seg::kMain) {
          act_live[u] = 1;
        }
        break;
      }
      case Op::kReduceGrad:
        for (int u : CoveredUnits(in)) {
          // Reduce-only logs (DDP's executed plan records buckets, not
          // computes) can't anchor reductions to a backward — skip.
          if (has_compute &&
              last_bwd_mb[static_cast<size_t>(u)] != in.microbatch) {
            return fail(i, "reduction of unit " + std::to_string(u) +
                               " without a backward compute this "
                               "microbatch");
          }
          if (!reduced_units[in.microbatch].insert(u).second) {
            return fail(i, "duplicate reduction of unit " +
                               std::to_string(u) + " this microbatch");
          }
        }
        break;
      case Op::kReshard: {
        if (in.unit < 0) return fail(i, "reshard without a unit");
        const size_t u = static_cast<size_t>(in.unit);
        if (!gathered[u]) {
          return fail(i, "reshard of an already-sharded unit (double free)");
        }
        if (!in.retain) gathered[u] = 0;
        break;
      }
      case Op::kFreeGrad: {
        if (in.unit < 0) return fail(i, "free-grad without a unit");
        const size_t u = static_cast<size_t>(in.unit);
        if (!grad_live[u]) return fail(i, "double free of gradient buffer");
        grad_live[u] = 0;
        break;
      }
      case Op::kFreeAct: {
        if (in.unit < 0) return fail(i, "free-act without a unit");
        const size_t u = static_cast<size_t>(in.unit);
        if (!act_live[u]) return fail(i, "double free of activation buffer");
        act_live[u] = 0;
        break;
      }
      case Op::kOptimStep:
        after_optim = true;
        break;
      case Op::kSendAct:
        if (in.stage < 0 || in.peer_stage < 0) {
          return fail(i, "send without stage/peer-stage tags");
        }
        pending_sends[{in.stage, in.peer_stage, static_cast<int>(in.phase),
                       in.microbatch}]
            .push_back(i);
        break;
      case Op::kRecvAct: {
        if (in.stage < 0 || in.peer_stage < 0) {
          return fail(i, "recv without stage/peer-stage tags");
        }
        if (stages_present.count(in.peer_stage) == 0) break;
        auto& q = pending_sends[{in.peer_stage, in.stage,
                                 static_cast<int>(in.phase), in.microbatch}];
        if (q.empty()) {
          return fail(i,
                      "recv with no earlier matching send (unmatched recv, "
                      "or a send scheduled after its recv — cross-stage "
                      "cycle)");
        }
        q.pop_front();
        break;
      }
      case Op::kTpAllGather:
      case Op::kTpAllReduce:
      case Op::kRateLimitGate:
      case Op::kInputExchange:
      case Op::kAllReduceReplicas:
      case Op::kGradOffloadD2H:
      case Op::kWaitReduceGrad:
        break;
    }
  }

  // Every send whose receiving stage is in the plan must have been
  // consumed; a dangling send is a peer blocked forever at step boundary.
  for (const auto& [key, q] : pending_sends) {
    if (q.empty()) continue;
    if (stages_present.count(std::get<1>(key)) == 0) continue;
    return fail(q.front(), "send never matched by a recv on stage " +
                               std::to_string(std::get<1>(key)));
  }

  // Coverage: a microbatch that syncs at all must reduce every unit whose
  // backward ran in it — a dropped reduction is the classic silent-wrong
  // rewrite. DDP bucket plans (no unshards) key reductions by bucket
  // boundary, not per unit; the per-unit coverage contract does not apply.
  if (has_unshard) {
    for (const auto& [mb, red] : reduced_units) {
      for (int u : bwd_units[mb]) {
        if (red.count(u) == 0) {
          return Status::Invalid(
              "microbatch " + std::to_string(mb) + " syncs but drops the "
              "reduction of unit " + std::to_string(u));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace oracle

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
      EXPECT_EQ(plan::NumCoveredUnits(in), 2);
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

// ----------------------------------------- oracle: linear passes == MoveBlock

/// The first field in which two plans differ ("" when identical).
std::string FirstDiff(const plan::StepPlan& a, const plan::StepPlan& b) {
  if (a.unit_names != b.unit_names) return "unit_names";
  if (a.size() != b.size()) {
    return "size " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (int i = 0; i < a.size(); ++i) {
    const plan::Instr& x = a.instrs[static_cast<size_t>(i)];
    const plan::Instr& y = b.instrs[static_cast<size_t>(i)];
    const std::pair<const char*, bool> fields[] = {
        {"op", x.op == y.op},
        {"unit", x.unit == y.unit},
        {"phase", x.phase == y.phase},
        {"seg", x.seg == y.seg},
        {"lane", x.lane == y.lane},
        {"prefetch", x.prefetch == y.prefetch},
        {"microbatch", x.microbatch == y.microbatch},
        {"axis", x.axis == y.axis},
        {"stage", x.stage == y.stage},
        {"peer_stage", x.peer_stage == y.peer_stage},
        {"bytes", x.bytes == y.bytes},
        {"batch_units", x.batch_units == y.batch_units},
        {"retain", x.retain == y.retain},
        {"delay_us", x.delay_us == y.delay_us},
        {"deps", x.deps == y.deps},
    };
    for (const auto& [name, same] : fields) {
      if (!same) return "instr " + std::to_string(i) + " field " + name;
    }
  }
  return "";
}

void ExpectSameVerdict(const plan::StepPlan& p) {
  EXPECT_EQ(plan::PlanValidator{}.Check(p).ToString(),
            oracle::Check(p).ToString());
}

struct OracleTally {
  int plans = 0;
  int hoists = 0;
  int sinks = 0;
  int valid = 0;
  int invalid = 0;
};

/// Runs the default pipeline twice over `base` — once with the library's
/// passes, once with the oracle's reordering passes — and requires the same
/// rewrite counts, field-identical plans after each reordering pass, and
/// the same validator verdict after every pass.
void ExpectPipelinesMatch(const plan::StepPlan& base,
                          const plan::PassOptions& opt, OracleTally* tally) {
  plan::StepPlan lin = base, ref = base;
  ExpectSameVerdict(base);
  const int hoists = plan::HoistUnshards(lin, opt);
  ASSERT_EQ(hoists, oracle::HoistUnshards(ref, opt));
  ASSERT_EQ(FirstDiff(lin, ref), "") << "after hoist-unshards";
  ExpectSameVerdict(lin);
  plan::FuseAllGathers(lin, opt);
  plan::FuseAllGathers(ref, opt);
  ExpectSameVerdict(lin);
  const int sinks = plan::SinkReduces(lin, opt);
  ASSERT_EQ(sinks, oracle::SinkReduces(ref, opt));
  ASSERT_EQ(FirstDiff(lin, ref), "") << "after sink-reduces";
  ExpectSameVerdict(lin);
  plan::FuseReduceScatters(lin, opt);
  ExpectSameVerdict(lin);
  ++tally->plans;
  tally->hoists += hoists;
  tally->sinks += sinks;
}

/// Seeded drop/swap edits of `base`: the validator and the oracle's
/// validator must return the same Status string for every edited plan.
void ExpectPerturbedVerdictsMatch(const plan::StepPlan& base, int trials,
                                  Rng& rng, OracleTally* tally) {
  for (int trial = 0; trial < trials && base.size() > 2; ++trial) {
    plan::StepPlan p = base;
    const uint64_t steps = 1 + rng.NextBelow(2);
    for (uint64_t k = 0; k < steps; ++k) {
      plan::Perturbation edit;
      edit.kind = rng.NextBelow(2) == 0 ? plan::PerturbKind::kDropInstr
                                        : plan::PerturbKind::kSwapAdjacent;
      const int span = edit.kind == plan::PerturbKind::kSwapAdjacent
                           ? p.size() - 1
                           : p.size();
      edit.index = static_cast<int>(rng.NextBelow(span));
      p = plan::ApplyPerturbation(p, edit);
    }
    const std::string verdict = plan::PlanValidator{}.Check(p).ToString();
    EXPECT_EQ(verdict, oracle::Check(p).ToString());
    ++(plan::PlanValidator{}.Check(p).ok() ? tally->valid : tally->invalid);
  }
}

/// A seeded sample of the tuner's grid for one workload: every sampled
/// candidate with nonzero hoist and sink budgets is lowered as the tuner
/// lowers it and compiled both ways.
void CheckGridSample(const tune::TuneInputs& in, int samples, uint64_t seed,
                     OracleTally* tally) {
  std::vector<tune::TuneCandidate> grid =
      tune::EnumerateCandidates(tune::SearchSpace::Default(in.topo));
  Rng rng(seed, /*stream=*/0);
  int taken = 0;
  for (size_t i = 0; i < grid.size() && taken < samples; ++i) {
    std::swap(grid[i], grid[i + rng.NextBelow(grid.size() - i)]);
    const tune::TuneCandidate& cand = grid[i];
    if (cand.max_hoist_computes <= 0 || cand.max_sink_computes <= 0) continue;
    tune::CompiledCandidate cc;
    if (!tune::LowerSchedule(cand, in, &cc).ok()) continue;
    ++taken;
    SCOPED_TRACE(in.workload.name + " " + cand.Key());
    plan::PassOptions opt = cc.pass_options;
    opt.fuse_below_bytes = cand.fuse_below_bytes;
    opt.max_hoist_computes = cand.max_hoist_computes;
    opt.max_sink_computes = cand.max_sink_computes;
    ExpectPipelinesMatch(cc.plan, opt, tally);
    tune::CompileBudgets(cand, &cc);
    ExpectPerturbedVerdictsMatch(cc.plan, 2, rng, tally);
  }
  EXPECT_EQ(taken, samples);
}

tune::TuneInputs TunerCase(simfsdp::Workload w, sim::Topology topo,
                           int batch) {
  tune::TuneInputs in;
  in.workload = std::move(w);
  in.topo = topo;
  in.base.batch_per_gpu = batch;
  return in;
}

TEST(PassOracleTest, ReorderingMatchesMoveBlockOnTunerGridPlans) {
  OracleTally tally;
  CheckGridSample(TunerCase(simfsdp::T5_11B(), {2, 8}, 1), 96, 11, &tally);
  CheckGridSample(TunerCase(simfsdp::GPT_175B(), {16, 8}, 2), 48, 12, &tally);
  EXPECT_GT(tally.hoists, 0);
  EXPECT_GT(tally.sinks, 0);
  EXPECT_GT(tally.valid, 0);
  EXPECT_GT(tally.invalid, 0);
}

TEST(PassOracleTest, ReorderingMatchesMoveBlockOnManySmallBlocks) {
  OracleTally tally;
  Rng rng(/*seed=*/13, /*stream=*/0);
  for (int layers : {32, 128}) {
    for (int limit : {0, 2}) {
      SCOPED_TRACE("layers=" + std::to_string(layers) +
                   " limiter=" + std::to_string(limit));
      simfsdp::TransformerShape shape;
      shape.name = "many-small";
      shape.hidden = 256;
      shape.layers = layers;
      shape.heads = 4;
      shape.seq = 64;
      shape.vocab = 2048;
      const simfsdp::Workload w = simfsdp::MakeTransformer(shape);
      const sim::Topology topo{2, 8};
      simfsdp::FsdpSimConfig cfg;
      cfg.batch_per_gpu = 2;
      cfg.limit_all_gathers = limit;
      plan::PassOptions opt = simfsdp::MakePassOptions(w, topo, cfg);
      opt.fuse_below_bytes = 8 << 20;
      opt.max_hoist_computes = 4;
      opt.max_sink_computes = 4;
      const plan::StepPlan base = simfsdp::BuildSimStepPlan(w, topo, cfg);
      ExpectPipelinesMatch(base, opt, &tally);
      plan::StepPlan compiled = base;
      plan::PassManager::Default(opt).Run(compiled);
      ExpectPerturbedVerdictsMatch(compiled, 8, rng, &tally);
    }
  }
  EXPECT_EQ(tally.plans, 4);
  EXPECT_GT(tally.hoists, 0);
  EXPECT_GT(tally.sinks, 0);
  EXPECT_GT(tally.invalid, 0);
}

TEST(PassOracleTest, ReorderingMatchesMoveBlockWithExtraDeps) {
  // Builder plans rarely give an unshard, or what follows a reduce chain, a
  // dep that no other blocker already stops at. Seeded extra deps on nearby
  // earlier instructions make the dep blockers decide, after earlier
  // rewrites have already shifted positions. Deps only point earlier, so
  // the plan stays topologically ordered.
  OracleTally tally;
  Rng rng(/*seed=*/19, /*stream=*/0);
  for (int limit : {0, 2}) {
    SCOPED_TRACE("limiter=" + std::to_string(limit));
    simfsdp::TransformerShape shape;
    shape.name = "many-small";
    shape.hidden = 256;
    shape.layers = 32;
    shape.heads = 4;
    shape.seq = 64;
    shape.vocab = 2048;
    const simfsdp::Workload w = simfsdp::MakeTransformer(shape);
    const sim::Topology topo{2, 8};
    simfsdp::FsdpSimConfig cfg;
    cfg.batch_per_gpu = 2;
    cfg.limit_all_gathers = limit;
    plan::PassOptions opt = simfsdp::MakePassOptions(w, topo, cfg);
    opt.fuse_below_bytes = 8 << 20;
    opt.max_hoist_computes = 4;
    opt.max_sink_computes = 4;
    plan::StepPlan base = simfsdp::BuildSimStepPlan(w, topo, cfg);
    for (int i = 1; i < base.size(); ++i) {
      if (rng.NextBelow(3) != 0) continue;
      const int back = 1 + static_cast<int>(rng.NextBelow(std::min(i, 6)));
      std::vector<int>& deps = base.instrs[static_cast<size_t>(i)].deps;
      deps.push_back(i - back);
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    }
    ExpectPipelinesMatch(base, opt, &tally);
  }
  // Once b's reduce sinks away, a's gradient free lands right behind a's
  // reduce and joins its chain, so the group's positions {0, 1} hold
  // original instructions {0, 2}; the compute that depends on original 2
  // must stop the sink.
  const plan::Instr free_a = MakeInstr(plan::Op::kFreeGrad, 0,
                                       plan::Phase::kBackward,
                                       plan::Lane::kHost);
  ExpectPipelinesMatch(
      MakePlan({"a", "b", "c"},
               {Reduce(0), Reduce(1), free_a, Bwd(2, {2}), Bwd(2, {3})}),
      plan::PassOptions{}, &tally);
  EXPECT_EQ(tally.plans, 3);
  EXPECT_GT(tally.hoists, 0);
  EXPECT_GT(tally.sinks, 0);
}

TEST(PassOracleTest, ValidatorMatchesOnComposedAndAccumulationPlans) {
  // Pipeline stages (send/recv matching, stage projections) and several
  // microbatches (per-microbatch reduction coverage) exercise the parts of
  // the validator the single-stage grid plans leave idle.
  OracleTally tally;
  Rng rng(/*seed=*/17, /*stream=*/0);
  plan::ComposedPlanOptions co;
  co.fsdp = plan::FsdpPlanOptions::Runtime();
  co.fsdp.accum = plan::AccumMode::kReduceLastMicrobatch;
  co.pp_stages = 2;
  co.microbatches = 2;
  co.tp_degree = 2;
  co.act_bytes = 512;
  co.tp_bytes = 512;
  const plan::StepPlan composed = plan::BuildComposedStepPlan(
      {{"[root]", "a", "b"}, {"[root]", "c", "d"}}, co);
  plan::PassOptions po;
  po.unit_shard_bytes.assign(composed.unit_names.size(), 512);
  po.unit_reduce_bytes.assign(composed.unit_names.size(), 512);
  po.fuse_below_bytes = 4096;
  ExpectPipelinesMatch(composed, po, &tally);
  std::vector<plan::StepPlan> plans{composed, plan::FilterStage(composed, 0),
                                    plan::FilterStage(composed, 1)};
  const std::vector<std::string> names{"[root]", "a", "b", "c"};
  for (plan::AccumMode accum : {plan::AccumMode::kReduceEveryMicrobatch,
                                plan::AccumMode::kReduceLastMicrobatch}) {
    plan::FsdpPlanOptions o = plan::FsdpPlanOptions::Runtime();
    o.microbatches = 3;
    o.accum = accum;
    plans.push_back(plan::BuildFsdpStepPlan(names, o));
  }
  for (const plan::StepPlan& p : plans) {
    ExpectSameVerdict(p);
    ExpectPerturbedVerdictsMatch(p, 40, rng, &tally);
  }
  EXPECT_GT(tally.valid, 0);
  EXPECT_GT(tally.invalid, 0);
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
