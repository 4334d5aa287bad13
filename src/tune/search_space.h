// Autotuner search space — the typed knob grid the tuner explores.
//
// A TuneCandidate is one point in the joint space of FSDP schedule knobs
// (prefetch policy, rate-limiter depth, hybrid sharding factor, reshard
// policy — the paper's hand-tuned Sec 3.3/3.4 settings), wrapping granularity
// (how many transformer blocks share one FSDP unit, the Fig 2b x-axis), and
// plan-compiler budgets (fusion threshold, hoist/sink distances from
// plan::PassOptions). CompileCandidate lowers a candidate all the way to the
// artifact the rest of the stack consumes: a pass-optimized plan::StepPlan
// plus the FsdpSimConfig / PassOptions that built it — the same plan the
// calibrated simulator scores, plan::BuildArenaPlan sizes, and
// comm::ReplayPlan executes on real ranks.
//
// Candidates are *validated before building*: knob combinations the plan
// builder rejects (e.g. a rate limiter whose free-event supply the reshard
// policy starves, or a sharding factor that does not divide the world) come
// back as a non-OK Status instead of aborting the search.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/builder.h"
#include "plan/passes.h"
#include "plan/plan.h"
#include "sim/topology.h"
#include "simfsdp/schedule.h"
#include "simfsdp/workload.h"

namespace fsdp::tune {

/// One point in the search space. Field defaults are the paper's defaults
/// (backward prefetch on, limiter depth 2, full shard, reshard after
/// forward, one block per unit, compiler passes off).
struct TuneCandidate {
  std::string name;  // non-empty for named (hand-tuned) presets
  // --- schedule knobs (FsdpSimConfig / core::FsdpOptions) ---
  bool backward_prefetch = true;
  bool forward_prefetch = false;
  int limit_all_gathers = 2;  // 0 disables the rate limiter
  int sharding_factor = 0;    // 0 = full shard (F = world)
  bool reshard_after_forward = true;
  // --- wrapping granularity ---
  /// Consecutive workload units merged into one FSDP unit (1 = the
  /// workload's native wrapping; larger = coarser units, fewer but bigger
  /// collectives).
  int wrap_blocks_per_unit = 1;
  // --- plan-compiler budgets (plan::PassOptions) ---
  int64_t fuse_below_bytes = 0;  // 0 disables both fusion passes
  int max_hoist_computes = 0;    // 0 disables HoistUnshards
  int max_sink_computes = 0;     // 0 disables SinkReduces

  /// True when every schedule knob and the wrap granularity match: the two
  /// candidates lower to the same workload, config and unoptimized plan,
  /// and differ at most in their compiler budgets.
  bool SameSchedule(const TuneCandidate& other) const;
  /// Canonical "knob=value,..." encoding — stable across runs, used for
  /// dedupe and as the deterministic final tie-break in score comparisons.
  std::string Key() const;
  /// Human-readable one-liner for reports and logs.
  std::string Describe() const;
};

/// Allowed values per knob; the raw space is the cross product. Bool knobs
/// use {0, 1} int vectors so every dimension mutates uniformly.
struct SearchSpace {
  std::vector<int> backward_prefetch = {0, 1};
  std::vector<int> forward_prefetch = {0, 1};
  std::vector<int> limit_all_gathers = {0, 2, 4};
  std::vector<int> sharding_factor = {0};  // Default() fills topology divisors
  std::vector<int> reshard_after_forward = {0, 1};
  std::vector<int> wrap_blocks_per_unit = {1, 2};
  std::vector<int64_t> fuse_below_bytes = {0, 8 << 20};
  std::vector<int> max_hoist_computes = {0, 2};
  std::vector<int> max_sink_computes = {0, 2};

  /// Number of points in the cross product (the "raw candidate space" the
  /// envelope pruner is measured against).
  int64_t RawSize() const;

  /// The default space for a topology: every schedule knob above plus
  /// sharding factors {world, gpus_per_host, 2, 1} (deduplicated, divisors
  /// of world only).
  static SearchSpace Default(const sim::Topology& topo);
};

/// Everything the tuner needs besides the space itself: which workload on
/// which cluster, the (calibrated) cost-model constants, and the base
/// simulator config carrying the non-searched knobs (dtypes, batch,
/// activation checkpointing, microbatches, iterations).
struct TuneInputs {
  simfsdp::Workload workload;
  sim::Topology topo;
  sim::SimConstants constants;
  simfsdp::FsdpSimConfig base;
  /// Per-GPU memory budget for the envelope pruner AND the scoring
  /// simulations (overrides constants.hbm_bytes when > 0) — so "envelope
  /// says infeasible" and "simulator OOMs" are the same predicate.
  int64_t capacity_bytes = 0;
};

/// A candidate lowered to executable form: the wrapped workload, the full
/// simulator config, the pass inputs, and the pass-optimized StepPlan.
struct CompiledCandidate {
  TuneCandidate cand;
  simfsdp::Workload workload;      // wrap granularity applied
  simfsdp::FsdpSimConfig config;   // base + candidate knobs, static arena on
  plan::PassOptions pass_options;  // per-unit bytes + candidate budgets
  plan::StepPlan plan;             // built + compiled (PassManager::Default)
  plan::PassResult passes;
};

/// Merges every `blocks_per_unit` consecutive units of `w` into one unit
/// (summing params / FLOPs / activation bytes / kernel counts; a short tail
/// becomes a final smaller unit). blocks_per_unit <= 1 returns `w` unchanged.
simfsdp::Workload ApplyWrapGranularity(const simfsdp::Workload& w,
                                       int blocks_per_unit);

/// The full cross product of `space`, in deterministic row-major order
/// (later knobs vary fastest). Includes points the builder will reject —
/// CompileCandidate is the validity check.
std::vector<TuneCandidate> EnumerateCandidates(const SearchSpace& space);

/// All candidates one index step away from `cand` along exactly one
/// dimension of `space` (the local-mutation neighborhood). Knob values not
/// present in the space vector contribute no neighbors on that dimension.
std::vector<TuneCandidate> NeighborCandidates(const SearchSpace& space,
                                              const TuneCandidate& cand);

/// The hand-tuned configurations the repo's benches/examples use — scored
/// first by the tuner (they seed the pruning bound) and the baseline the
/// acceptance tests require the winner to beat. All have compiler budgets
/// at 0 and native wrapping: that is what hand tuning looked like before
/// this subsystem.
std::vector<TuneCandidate> HandTunedPresets(const sim::Topology& topo);

/// Lowers `cand` against `in`: validates the knob combination
/// (FsdpPlanOptions::Validate via simfsdp::MakeSimPlanOptions, sharding
/// factor divides world), applies wrap granularity, builds the sim-shape
/// plan, and runs the default compiler pipeline with the candidate's
/// budgets. Returns Invalid for inconsistent knob combinations. It is
/// LowerSchedule followed by CompileBudgets.
Status CompileCandidate(const TuneCandidate& cand, const TuneInputs& in,
                        CompiledCandidate* out);

/// The schedule half of CompileCandidate: everything but the compiler
/// pipeline. `out->plan` is the unoptimized plan and `out->pass_options`
/// carries the per-unit bytes with the default budgets. Depends only on the
/// fields TuneCandidate::SameSchedule compares, so one result serves every
/// candidate with the same schedule.
Status LowerSchedule(const TuneCandidate& cand, const TuneInputs& in,
                     CompiledCandidate* out);

/// The compiler half: takes `cc` from LowerSchedule (of a candidate with
/// the same schedule), sets `cand` and its budgets, and runs the default
/// pipeline over `cc->plan`.
void CompileBudgets(const TuneCandidate& cand, CompiledCandidate* cc);

}  // namespace fsdp::tune
