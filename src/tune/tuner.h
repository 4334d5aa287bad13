// The calibrated plan autotuner (OSDP-style, ROADMAP item).
//
// Autotune closes the loop the previous layers opened: the plan compiler
// generates candidate schedules, the analytic envelope (tune/envelope.h)
// prunes the infeasible and the provably-dominated, and the calibrated
// simulator (constants from sim::CalibrateFromProfile, or the paper-testbed
// defaults) scores the survivors — successive halving over short simulations
// first, full-depth scoring for the finalists, then local mutation around
// the incumbent. The search is deterministic for a fixed seed: candidate
// order, stable sorts with the candidate Key as final tie-break, and
// counter-based Rng sampling.
//
// Stages:
//   1. hand-tuned presets are fully scored first — they seed the pruning
//      bound and guarantee the winner is never worse than any preset;
//   2. the raw grid is enumerated; every candidate is compiled and gets an
//      envelope. memory-infeasible candidates are dropped unsimulated (the
//      envelope's arena residency IS the scoring simulator's reservation, so
//      nothing viable is lost); candidates whose analytic lower bound
//      already exceeds the best fully-simulated time are dropped unsimulated
//      (lb <= true simulated time, so they cannot win);
//   3. survivors run one successive-halving rung (lb-sorted pool, 1-iteration
//      sims, the better half kept), finalists are scored at full depth;
//   4. local mutation: the incumbent's single-knob neighbors (deterministic
//      Rng-sampled when many) are scored full-depth for a few hill-climbing
//      rounds.
//
// The result is a TuneReport: the winning CompiledCandidate (its
// pass-optimized StepPlan is directly executable by comm::ReplayPlan and
// the simulator), per-candidate outcomes for auditability, prune/simulate
// counts, and a TUNE_<name>.json artifact via the shared envelope.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/artifact.h"
#include "tune/envelope.h"
#include "tune/search_space.h"

namespace fsdp::tune {

struct TuneOptions {
  uint64_t seed = 42;
  /// Wall-clock budget for the whole search; 0 = unbounded. When exhausted,
  /// remaining candidates are skipped (counted) and the best-so-far wins —
  /// the search degrades gracefully instead of overrunning.
  int64_t time_budget_ms = 0;
  /// Test hook: invoked immediately before every simulator run with the
  /// candidate and the sim iteration depth. Lets tests prove pruned
  /// candidates are never simulated.
  std::function<void(const TuneCandidate&, int iterations)> sim_observer;
};

/// What happened to one considered candidate.
struct CandidateOutcome {
  TuneCandidate cand;
  Envelope env;            // valid unless pruned == "invalid"
  std::string stage;       // "preset" | "grid" | "mutation"
  /// Why the candidate was dropped before full scoring: "" (not dropped),
  /// "invalid" (builder rejected the knob combination), "memory" /
  /// "bound" (envelope pruner), "pool" (kMaxPool cap), "halving"
  /// (eliminated in a rung), "budget" (time budget exhausted).
  std::string pruned;
  bool simulated = false;  // at least one simulator run
  int sim_iterations = 0;  // depth of the deepest run
  bool full_score = false; // metrics below are full-depth
  simfsdp::SimMetrics metrics;
};

/// Search accounting. The per-reason counters cover the GRID stage only —
/// raw_candidates is the cross product the acceptance criterion measures
/// pruning against; preset/mutation outcomes keep their reasons in
/// TuneReport::outcomes. `simulated` and `sim_runs` span all stages.
struct TuneCounts {
  int64_t raw_candidates = 0;  // grid cross product (presets not included)
  int64_t presets = 0;
  int64_t invalid = 0;         // builder-rejected knob combinations
  int64_t memory_pruned = 0;   // envelope: arena peak > capacity
  int64_t bound_pruned = 0;    // envelope: step lower bound >= best time
  int64_t pool_skipped = 0;    // beyond kMaxPool
  int64_t budget_skipped = 0;  // time budget exhausted
  int64_t simulated = 0;       // distinct candidates with >= 1 sim run
  int64_t sim_runs = 0;        // total simulator invocations
};

struct TuneReport {
  /// False only when every candidate (presets included) was infeasible or
  /// invalid — the degenerate all-infeasible space.
  bool found = false;
  CompiledCandidate winner;
  simfsdp::SimMetrics winner_metrics;  // full-depth
  Envelope winner_env;
  std::string best_preset;             // best fully-scored hand-tuned preset
  simfsdp::SimMetrics best_preset_metrics;
  TuneCounts counts;
  bool budget_exhausted = false;
  double search_ms = 0;
  std::vector<CandidateOutcome> outcomes;  // every considered candidate
};

/// Runs the search described in the file comment. Deterministic for fixed
/// (inputs, space, options.seed) when no time budget is set.
TuneReport Autotune(const TuneInputs& in, const SearchSpace& space,
                    const TuneOptions& options = {});

/// The ready-to-apply options bundle for a winning candidate: the knob
/// values in the shapes each consumer takes — core::FsdpOptions-style
/// runtime knobs, the wrap granularity for the auto-wrap policy, the
/// compiler PassOptions, and the full simulator config. The candidate's
/// compiled plan itself is directly replayable (comm::ReplayPlan).
struct RuntimeKnobs {
  int sharding_factor = 0;  // normalized: F = world for full shard
  bool reshard_after_forward = true;
  bool backward_prefetch = true;
  bool forward_prefetch = false;
  int limit_all_gathers = 2;
  int wrap_blocks_per_unit = 1;
  plan::PassOptions pass_options;
  simfsdp::FsdpSimConfig sim_config;

  std::string Describe() const;
};

RuntimeKnobs ToRuntimeKnobs(const CompiledCandidate& cc,
                            const sim::Topology& topo);

/// Writes TUNE_<name>.json (shared artifact envelope + winner + counts +
/// per-candidate outcomes) via obs::ArtifactPath; returns the path.
std::string WriteTuneJson(const std::string& name, const TuneReport& report,
                          const obs::ArtifactMeta& meta);

}  // namespace fsdp::tune
