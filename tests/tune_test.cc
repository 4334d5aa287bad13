// The calibrated plan autotuner (src/tune): search-space mechanics, the
// analytic envelope pruner's soundness, search determinism, degenerate
// spaces, the TUNE_*.json artifact — and the two acceptance properties the
// subsystem exists for:
//
//  * on a T5-11B-like and a GPT-175B-like workload the tuned schedule
//    strictly beats EVERY hand-tuned preset on calibrated-sim step time
//    (and is no worse on exposed comm), because the grid reaches knob
//    combinations no single-knob preset expresses;
//  * the envelope pruner skips at least half of the raw candidate space
//    without ever pruning the eventual winner — proven three ways: the
//    winner itself was fully simulated (never carried a prune reason), every
//    full-scored candidate's analytic lower bound is <= its simulated time
//    (so bound-pruning cannot discard a potential winner), and a
//    memory-pruned candidate really does OOM when simulated at the same
//    capacity (the envelope's arena plan IS the simulator's reservation).
//
// Plus the end of the loop: the winning candidate's compiled StepPlan
// replayed through comm::ReplayPlan on 4 real ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "comm/plan_replay.h"
#include "common/threading.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "tune/tuner.h"

namespace fsdp {
namespace {

using tune::Autotune;
using tune::CandidateOutcome;
using tune::CompiledCandidate;
using tune::SearchSpace;
using tune::TuneCandidate;
using tune::TuneInputs;
using tune::TuneOptions;
using tune::TuneReport;

/// The T5-11B-like acceptance config: 2 hosts x 8 GPUs on a 100 GB/s
/// inter-host fabric (a calibrated-constants setting, not the paper
/// testbed's 2 Tb/s), batch 1, 80 GiB devices. Small batch leaves backward
/// re-gathers exposed, so the winning schedule combines intra-host hybrid
/// sharding with keep-after-forward — a two-knob combination no hand-tuned
/// preset expresses — while full-shard groups are bound-pruned and the
/// small sharding factors are memory-pruned.
TuneInputs T5LikeInputs() {
  TuneInputs in;
  in.workload = simfsdp::T5_11B();
  in.topo = sim::Topology{2, 8};
  in.base.batch_per_gpu = 1;
  in.constants.inter_host_bw_gbps = 100.0;
  in.capacity_bytes = int64_t{80} << 30;
  return in;
}

/// The GPT-175B-like acceptance config: 16 hosts x 8 GPUs at 100 GB/s,
/// batch 2, 80 GiB devices. At this scale only full sharding fits (keeping
/// 350 GB of parameters or sharding 8-way both blow the arena), so the
/// envelope memory-prunes most of the grid, and the winner strictly beats
/// the presets through overlap knobs (limiter off + reduce sinking).
TuneInputs GptLikeInputs() {
  TuneInputs in;
  in.workload = simfsdp::GPT_175B();
  in.topo = sim::Topology{16, 8};
  in.base.batch_per_gpu = 2;
  in.constants.inter_host_bw_gbps = 100.0;
  in.capacity_bytes = int64_t{80} << 30;
  return in;
}

/// A small, fast config for mechanics tests.
TuneInputs SmallInputs() {
  TuneInputs in;
  in.workload = simfsdp::T5_611M();
  in.topo = sim::Topology{1, 8};
  in.base.batch_per_gpu = 2;
  return in;
}

/// Every hand-tuned preset that was fully scored (feasible on this config).
std::vector<const CandidateOutcome*> ScoredPresets(const TuneReport& rep) {
  std::vector<const CandidateOutcome*> out;
  for (const CandidateOutcome& o : rep.outcomes) {
    if (o.stage == "preset" && o.full_score && !o.metrics.oom) {
      out.push_back(&o);
    }
  }
  return out;
}

/// Asserts the two acceptance properties on a finished report; returns the
/// winner's margin over the best preset (us).
double CheckAcceptance(const TuneReport& rep, double min_margin_us) {
  EXPECT_TRUE(rep.found);

  // -- tuned beats every hand-tuned preset, strictly on step time and no
  //    worse on exposed comm.
  const auto presets = ScoredPresets(rep);
  EXPECT_GE(presets.size(), 4u);  // the baseline is real, not vacuous
  double margin = 1e300;
  for (const CandidateOutcome* p : presets) {
    EXPECT_GT(p->metrics.iter_time_us,
              rep.winner_metrics.iter_time_us + min_margin_us)
        << "preset " << p->cand.name << " not strictly beaten";
    EXPECT_LE(rep.winner_metrics.exposed_comm_us,
              p->metrics.exposed_comm_us + 1e-6)
        << "preset " << p->cand.name << " has less exposed comm";
    margin = std::min(margin,
                      p->metrics.iter_time_us - rep.winner_metrics.iter_time_us);
  }

  // -- the envelope pruned at least half the raw space...
  const auto& c = rep.counts;
  EXPECT_GT(c.raw_candidates, 0);
  EXPECT_GE(2 * (c.memory_pruned + c.bound_pruned), c.raw_candidates)
      << "envelope pruned " << c.memory_pruned << "+" << c.bound_pruned
      << " of " << c.raw_candidates;

  // -- ...without ever pruning the eventual winner. (a) The winner was
  //    fully simulated, never carried a prune reason.
  bool winner_seen = false;
  for (const CandidateOutcome& o : rep.outcomes) {
    if (o.cand.Key() == rep.winner.cand.Key() && o.full_score) {
      winner_seen = true;
      EXPECT_EQ(o.pruned, "");
    }
  }
  EXPECT_TRUE(winner_seen);
  // (b) The analytic bound under-estimates every simulated time, so a
  //     candidate faster than the incumbent can never be bound-pruned.
  for (const CandidateOutcome& o : rep.outcomes) {
    if (o.full_score && !o.metrics.oom) {
      EXPECT_LE(o.env.step_lb_us, o.metrics.iter_time_us + 1e-3)
          << o.cand.Key();
    }
  }
  return margin;
}

// ---------------------------------------------------------------------------
// Search-space mechanics.

TEST(TuneSpaceTest, WrapGranularityMergesConsecutiveUnits) {
  simfsdp::Workload w = simfsdp::T5_611M();
  const size_t n = w.units.size();
  ASSERT_GE(n, 3u);
  int64_t total_params = 0;
  for (const auto& u : w.units) total_params += u.param_numel;

  simfsdp::Workload merged = tune::ApplyWrapGranularity(w, 2);
  EXPECT_EQ(merged.units.size(), (n + 1) / 2);
  int64_t merged_params = 0;
  for (const auto& u : merged.units) merged_params += u.param_numel;
  EXPECT_EQ(merged_params, total_params);  // wrapping moves, never drops
  EXPECT_EQ(merged.units[0].param_numel,
            w.units[0].param_numel + w.units[1].param_numel);

  // wrap=1 is the identity; an over-large factor degenerates to one unit.
  EXPECT_EQ(tune::ApplyWrapGranularity(w, 1).units.size(), n);
  EXPECT_EQ(tune::ApplyWrapGranularity(w, int(n) + 7).units.size(), 1u);
}

TEST(TuneSpaceTest, EnumerateMatchesRawSizeWithUniqueKeys) {
  const SearchSpace space = SearchSpace::Default(sim::Topology{2, 8});
  const auto all = tune::EnumerateCandidates(space);
  EXPECT_EQ(int64_t(all.size()), space.RawSize());
  std::set<std::string> keys;
  for (const auto& c : all) keys.insert(c.Key());
  EXPECT_EQ(int64_t(keys.size()), space.RawSize());  // Key() is injective
}

TEST(TuneSpaceTest, DefaultSpaceShardingFactorsDivideWorld) {
  const SearchSpace space = SearchSpace::Default(sim::Topology{2, 8});
  for (int f : space.sharding_factor) {
    if (f > 0) {
      EXPECT_EQ(16 % f, 0) << f;
    }
  }
  // Full shard is always present; a single-host topology offers no hybrid
  // factor equal to its world.
  EXPECT_TRUE(std::count(space.sharding_factor.begin(),
                         space.sharding_factor.end(), 0));
}

TEST(TuneSpaceTest, NeighborsDifferInExactlyOneKnob) {
  const SearchSpace space = SearchSpace::Default(sim::Topology{2, 8});
  TuneCandidate c;  // defaults sit inside every dimension
  const auto neighbors = tune::NeighborCandidates(space, c);
  EXPECT_FALSE(neighbors.empty());
  std::set<std::string> keys;
  for (const auto& n : neighbors) {
    EXPECT_TRUE(keys.insert(n.Key()).second);
    EXPECT_NE(n.Key(), c.Key());
    int diffs = 0;
    diffs += n.backward_prefetch != c.backward_prefetch;
    diffs += n.forward_prefetch != c.forward_prefetch;
    diffs += n.limit_all_gathers != c.limit_all_gathers;
    diffs += n.sharding_factor != c.sharding_factor;
    diffs += n.reshard_after_forward != c.reshard_after_forward;
    diffs += n.wrap_blocks_per_unit != c.wrap_blocks_per_unit;
    diffs += n.fuse_below_bytes != c.fuse_below_bytes;
    diffs += n.max_hoist_computes != c.max_hoist_computes;
    diffs += n.max_sink_computes != c.max_sink_computes;
    EXPECT_EQ(diffs, 1) << n.Key();
  }
}

TEST(TuneSpaceTest, CompileRejectsInvalidCombinations) {
  const TuneInputs in = SmallInputs();
  CompiledCandidate cc;

  // F=1 keeps units resident (kKeepUnsharded), so with forward resharding
  // also off, nothing ever frees an unsharded buffer and the rate limiter's
  // gates would starve — the builder must reject, not abort.
  TuneCandidate bad;
  bad.sharding_factor = 1;
  bad.limit_all_gathers = 2;
  bad.reshard_after_forward = false;
  EXPECT_FALSE(tune::CompileCandidate(bad, in, &cc).ok());

  TuneCandidate nondiv;  // sharding factor must divide the world
  nondiv.sharding_factor = 3;
  EXPECT_FALSE(tune::CompileCandidate(nondiv, in, &cc).ok());

  TuneCandidate ok = bad;  // forward resharding feeds the limiter again
  ok.reshard_after_forward = true;
  ASSERT_TRUE(tune::CompileCandidate(ok, in, &cc).ok());
  EXPECT_GT(cc.plan.size(), 0);
  EXPECT_TRUE(cc.config.static_memory_plan);
}

// ---------------------------------------------------------------------------
// Envelope soundness.

TEST(TuneEnvelopeTest, LowerBoundsSimulatedTimeAcrossTheGrid) {
  const TuneInputs in = SmallInputs();
  int checked = 0;
  for (const TuneCandidate& cand :
       tune::EnumerateCandidates(SearchSpace::Default(in.topo))) {
    // Spot-check a deterministic slice of the grid to stay fast.
    if (++checked % 37 != 0) continue;
    CompiledCandidate cc;
    if (!tune::CompileCandidate(cand, in, &cc).ok()) continue;
    const tune::Envelope env = tune::ComputeEnvelope(cc, in);
    if (!env.memory_feasible) continue;
    simfsdp::FsdpSimulator sim(cc.workload, in.topo, in.constants, cc.config,
                               cc.plan);
    const simfsdp::SimMetrics m = sim.Run();
    ASSERT_FALSE(m.oom) << cand.Key();
    EXPECT_LE(env.step_lb_us, m.iter_time_us + 1e-3) << cand.Key();
    EXPECT_GT(env.step_lb_us, 0.0) << cand.Key();
  }
  EXPECT_GT(checked, 100);
}

TEST(TuneEnvelopeTest, MemoryPrunedCandidatesAreNeverSimulatedAndDoOom) {
  TuneInputs in;
  in.workload = simfsdp::T5_11B();
  in.topo = sim::Topology{2, 8};
  in.base.batch_per_gpu = 8;
  in.capacity_bytes = int64_t{40} << 30;  // keep-after-forward etc. blow this

  std::set<std::string> simulated;
  TuneOptions opt;
  opt.sim_observer = [&](const TuneCandidate& c, int) {
    simulated.insert(c.Key());
  };
  const TuneReport rep = Autotune(in, SearchSpace::Default(in.topo), opt);

  ASSERT_GT(rep.counts.memory_pruned, 0);
  const CandidateOutcome* mem_pruned = nullptr;
  for (const CandidateOutcome& o : rep.outcomes) {
    if (o.pruned == "memory") {
      EXPECT_EQ(simulated.count(o.cand.Key()), 0u) << o.cand.Key();
      EXPECT_FALSE(o.simulated);
      if (!mem_pruned) mem_pruned = &o;
    } else if (o.simulated) {
      EXPECT_EQ(simulated.count(o.cand.Key()), 1u) << o.cand.Key();
    }
  }

  // The prune was not a guess: simulating a memory-pruned candidate at the
  // same capacity really does OOM (the envelope's arena plan is the
  // simulator's reservation, byte for byte).
  ASSERT_NE(mem_pruned, nullptr);
  TuneInputs direct = in;
  direct.constants.hbm_bytes = in.capacity_bytes;
  CompiledCandidate cc;
  ASSERT_TRUE(tune::CompileCandidate(mem_pruned->cand, direct, &cc).ok());
  simfsdp::FsdpSimulator sim(cc.workload, direct.topo, direct.constants,
                             cc.config, cc.plan);
  EXPECT_TRUE(sim.Run().oom);
}

// ---------------------------------------------------------------------------
// Search behavior.

TEST(TuneSearchTest, DeterministicForAFixedSeed) {
  const TuneInputs in = SmallInputs();
  const SearchSpace space = SearchSpace::Default(in.topo);
  TuneOptions opt;
  opt.seed = 7;

  const TuneReport a = Autotune(in, space, opt);
  const TuneReport b = Autotune(in, space, opt);
  ASSERT_TRUE(a.found);
  EXPECT_EQ(a.winner.cand.Key(), b.winner.cand.Key());
  EXPECT_EQ(a.winner_metrics.iter_time_us, b.winner_metrics.iter_time_us);
  EXPECT_EQ(a.counts.sim_runs, b.counts.sim_runs);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].cand.Key(), b.outcomes[i].cand.Key()) << i;
    EXPECT_EQ(a.outcomes[i].pruned, b.outcomes[i].pruned) << i;
    EXPECT_EQ(a.outcomes[i].stage, b.outcomes[i].stage) << i;
  }
}

TEST(TuneSearchTest, SingleCandidateSpaceReturnsThatCandidate) {
  const TuneInputs in = SmallInputs();
  SearchSpace space;
  space.backward_prefetch = {1};
  space.forward_prefetch = {0};
  space.limit_all_gathers = {2};
  space.sharding_factor = {0};
  space.reshard_after_forward = {1};
  space.wrap_blocks_per_unit = {1};
  space.fuse_below_bytes = {0};
  space.max_hoist_computes = {0};
  space.max_sink_computes = {0};
  ASSERT_EQ(space.RawSize(), 1);

  const TuneReport rep = Autotune(in, space, {});
  ASSERT_TRUE(rep.found);
  EXPECT_FALSE(rep.winner_metrics.oom);
  // The grid's lone point was fully scored (it is the only finalist), and
  // the winner — that point or a hand-tuned preset, which always compete —
  // is at least as fast.
  const CandidateOutcome* grid = nullptr;
  int grid_outcomes = 0;
  for (const CandidateOutcome& o : rep.outcomes) {
    if (o.stage == "grid") {
      ++grid_outcomes;
      grid = &o;
    }
  }
  ASSERT_EQ(grid_outcomes, 1);
  EXPECT_TRUE(grid->full_score);
  EXPECT_LE(rep.winner_metrics.iter_time_us, grid->metrics.iter_time_us);
}

TEST(TuneSearchTest, AllInfeasibleSpaceReportsNotFound) {
  TuneInputs in = SmallInputs();
  in.capacity_bytes = int64_t{1} << 30;  // under the persistent framework base
  const TuneReport rep = Autotune(in, SearchSpace::Default(in.topo), {});
  EXPECT_FALSE(rep.found);
  // Presets are always fully scored, so the all-infeasible verdict comes
  // from simulated OOMs there and memory prunes on the entire grid.
  EXPECT_EQ(rep.counts.memory_pruned, rep.counts.raw_candidates -
                                          rep.counts.invalid);
}

TEST(TuneSearchTest, TimeBudgetDegradesGracefully) {
  TuneInputs in = SmallInputs();
  TuneOptions opt;
  opt.time_budget_ms = 1;  // presets always score; the grid gets cut short
  const TuneReport rep = Autotune(in, SearchSpace::Default(in.topo), opt);
  EXPECT_TRUE(rep.found);  // never worse than the best preset
  EXPECT_TRUE(rep.budget_exhausted);
  EXPECT_GT(rep.counts.budget_skipped, 0);
}

// ---------------------------------------------------------------------------
// Acceptance: tuned beats every hand-tuned preset while the envelope prunes
// at least half the raw space, on two workloads.

TEST(TuneAcceptanceTest, T5LikeTunedBeatsEveryPresetWithHalfTheSpacePruned) {
  const TuneInputs in = T5LikeInputs();
  const TuneReport rep = Autotune(in, SearchSpace::Default(in.topo), {});
  const double margin = CheckAcceptance(rep, /*min_margin_us=*/100.0);
  // The probed margin is ~26 ms/iteration; assert a generous floor so cost
  // model refinements don't flake the suite.
  EXPECT_GT(margin, 1000.0);
  // The winner reaches a combination no preset expresses: intra-host hybrid
  // sharding together with keep-after-forward.
  EXPECT_EQ(rep.winner.cand.sharding_factor, 8);
  EXPECT_FALSE(rep.winner.cand.reshard_after_forward);
  // Both pruning mechanisms fired: small factors by memory, full-shard
  // groups by the comm lower bound.
  EXPECT_GT(rep.counts.memory_pruned, 0);
  EXPECT_GT(rep.counts.bound_pruned, 0);
}

TEST(TuneAcceptanceTest, GptLikeTunedBeatsEveryPresetWithHalfTheSpacePruned) {
  const TuneInputs in = GptLikeInputs();
  const TuneReport rep = Autotune(in, SearchSpace::Default(in.topo), {});
  const double margin = CheckAcceptance(rep, /*min_margin_us=*/100.0);
  EXPECT_GT(margin, 10000.0);  // probed ~243 ms/iteration
  // At 175B scale only full sharding fits in 80 GiB.
  EXPECT_EQ(rep.winner.cand.sharding_factor, 0);
  EXPECT_GT(rep.counts.memory_pruned, 0);
}

/// Full-depth simulated metrics of one candidate, scored as Autotune scores
/// it (the simulator's HBM is the tuner's capacity), with no search run.
simfsdp::SimMetrics ScoreCandidate(TuneInputs in, const TuneCandidate& cand) {
  in.constants.hbm_bytes = in.capacity_bytes;
  CompiledCandidate cc;
  const Status compiled = tune::CompileCandidate(cand, in, &cc);
  EXPECT_TRUE(compiled.ok()) << compiled.ToString();
  return simfsdp::FsdpSimulator(cc.workload, in.topo, in.constants, cc.config,
                                cc.plan)
      .Run();
}

/// Asserts `winner` and its backward-prefetch twin simulate to exactly the
/// same iteration time: in both winners prefetch has nothing left to move.
void ExpectPrefetchTwinTies(const TuneInputs& in, const TuneCandidate& winner,
                            const std::string& key) {
  ASSERT_EQ(winner.Key(), key);
  TuneCandidate twin = winner;
  twin.backward_prefetch = true;
  const simfsdp::SimMetrics a = ScoreCandidate(in, winner);
  const simfsdp::SimMetrics b = ScoreCandidate(in, twin);
  ASSERT_FALSE(a.oom);
  ASSERT_FALSE(b.oom);
  EXPECT_EQ(a.iter_time_us, b.iter_time_us) << key;
}

// T5-11B 2x8 keeps parameters after forward, so backward has no gathers for
// prefetch to issue early.
TEST(TunePrefetchTwinTest, T5WinnerTiesItsPrefetchTwin) {
  TuneCandidate winner;
  winner.backward_prefetch = false;
  winner.forward_prefetch = false;
  winner.limit_all_gathers = 0;
  winner.sharding_factor = 8;
  winner.reshard_after_forward = false;
  winner.wrap_blocks_per_unit = 1;
  ExpectPrefetchTwinTies(
      T5LikeInputs(), winner,
      "bp=0,fp=0,lim=0,f=8,raf=0,wrap=1,fuse=0,hoist=0,sink=0");
}

// GPT-175B 16x8 sinks each ReduceScatter behind the next AllGather
// (sink=2), which is the reordering backward prefetch would make.
TEST(TunePrefetchTwinTest, GptWinnerTiesItsPrefetchTwin) {
  TuneCandidate winner;
  winner.backward_prefetch = false;
  winner.forward_prefetch = false;
  winner.limit_all_gathers = 0;
  winner.sharding_factor = 0;
  winner.reshard_after_forward = true;
  winner.wrap_blocks_per_unit = 1;
  winner.max_sink_computes = 2;
  ExpectPrefetchTwinTies(
      GptLikeInputs(), winner,
      "bp=0,fp=0,lim=0,f=0,raf=1,wrap=1,fuse=0,hoist=0,sink=2");
}

// ---------------------------------------------------------------------------
// The end of the loop: the winning schedule is executable by the real
// collective runtime.

TEST(TuneReplayTest, WinnerPlanReplaysOnFourRealRanks) {
  TuneInputs in;
  in.workload = simfsdp::T5_611M();
  in.topo = sim::Topology{1, 4};
  in.base.batch_per_gpu = 2;
  const TuneReport rep = Autotune(in, SearchSpace::Default(in.topo), {});
  ASSERT_TRUE(rep.found);
  ASSERT_GT(rep.winner.plan.size(), 0);

  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetName("tune-replay");
  std::vector<Status> status(w);
  RunOnRanks(w, [&](int r) {
    comm::ReplayOptions ro;
    ro.unit_numel = 64;
    ro.timeout_ms = 30000;
    status[r] = comm::ReplayPlan(comm::ProcessGroup(comm, r),
                                 rep.winner.plan, ro);
  });
  for (int r = 0; r < w; ++r) {
    EXPECT_TRUE(status[r].ok()) << "rank " << r << ": "
                                << status[r].ToString();
  }
  EXPECT_FALSE(comm->aborted());

  // The ready-to-apply bundle round-trips the winning knobs.
  const tune::RuntimeKnobs knobs = tune::ToRuntimeKnobs(rep.winner, in.topo);
  EXPECT_EQ(knobs.sharding_factor == in.topo.world(),
            rep.winner.cand.sharding_factor == 0 ||
                rep.winner.cand.sharding_factor == in.topo.world());
  EXPECT_EQ(knobs.backward_prefetch, rep.winner.cand.backward_prefetch);
  EXPECT_FALSE(knobs.Describe().empty());
}

// ---------------------------------------------------------------------------
// Artifact.

TEST(TuneArtifactTest, WriteTuneJsonEmitsValidatedEnvelope) {
  const TuneInputs in = SmallInputs();
  const TuneReport rep = Autotune(in, SearchSpace::Default(in.topo), {});
  ASSERT_TRUE(rep.found);

  obs::ArtifactMeta meta;
  meta.world_size = in.topo.world();
  meta.preset = "tune_test";
  const std::string path = tune::WriteTuneJson("tune_test", rep, meta);

  auto parsed = obs::ParseJsonFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const obs::JsonValue& doc = parsed.ValueOrDie();
  const Status envelope = obs::ValidateArtifactJson(doc);
  EXPECT_TRUE(envelope.ok()) << envelope.ToString();
  EXPECT_TRUE(doc["found"].AsBool());
  EXPECT_EQ(doc["winner"]["candidate"]["key"].AsString(),
            rep.winner.cand.Key());
  EXPECT_EQ(int64_t(doc["counts"]["raw_candidates"].AsNumber()),
            rep.counts.raw_candidates);
  EXPECT_EQ(doc["outcomes"].AsArray().size(), rep.outcomes.size());
}

// Scores are written exactly, so a tie between two candidates can be read
// from the artifact: a T5-11B-2x8-scale time (~280 ms) carrying all 17
// significant digits parses back bit-equal.
TEST(TuneArtifactTest, WinnerTimeParsesBackBitEqual) {
  const double iter_time_us = 279974.91028500003;
  TuneReport rep;
  rep.found = true;
  rep.winner_metrics.iter_time_us = iter_time_us;
  rep.best_preset = "default";
  rep.best_preset_metrics.iter_time_us = iter_time_us + 1;
  const std::string path =
      tune::WriteTuneJson("tune_test_exact", rep, obs::ArtifactMeta{});

  auto parsed = obs::ParseJsonFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const obs::JsonValue& doc = parsed.ValueOrDie();
  EXPECT_EQ(doc["winner"]["metrics"]["iter_time_us"].AsNumber(), iter_time_us);
  EXPECT_EQ(doc["best_preset"]["metrics"]["iter_time_us"].AsNumber(),
            iter_time_us + 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fsdp
