// Per-instruction step profiler over a rank's execution log.
//
// The runtime records every step into one per-rank plan::ExecLog
// (FsdpState::exec_log() / DistributedDataParallel::exec_log()): WHAT ran,
// in issue order, and WHEN — collectives with their Work handle's issue,
// worker-pickup and completion times, computes/waits/reshards with the
// times their hooks stamped. The profiler reads those times directly (the
// TraceCollector may be off) to answer the paper's tuning questions: where
// does the step's time go, and is communication overlapped or exposed?
//
//   ExecEntry ──▶ InstrProfile (queue = exec - begin, service = end - exec)
//
// On top of that sit:
//   * exposed-vs-overlapped communication (comm service time not covered by
//     busy compute — compute spans minus wait spans) and overlap_efficiency;
//   * critical-path analysis: walk the structural dependency edges backward
//     from the last-finishing instruction, always taking the predecessor
//     that finished last — the binding chain of the step;
//   * per-step memory attribution from unsharded-parameter residency
//     (AllGather completions add bytes, reshards subtract them);
//   * cross-step aggregation (p50/p95 per instruction label), prof.*
//     metrics, PROFILE_<name>.json artifacts and Chrome counter tracks.
//
// A step whose runtime surfaced a sticky error (aborted collective) is
// marked incomplete with the error as its reason.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/artifact.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "plan/plan.h"

namespace fsdp::obs {

/// One executed instruction with its measured times.
struct InstrProfile {
  plan::Instr instr;
  std::string label;       // plan::RenderInstr(instr, unit_names)
  /// True when the entry carries measured times (it finished).
  bool matched = false;
  /// What the instruction executed as (kReduceGrad is a kReduceScatter
  /// under FSDP but a kAllReduce for a DDP bucket).
  EventKind matched_kind = EventKind::kMarker;

  double t_begin_us = 0;   // begin (comm: issue time on the rank thread)
  double t_exec_us = 0;    // comm: worker pickup; others: == t_begin_us
  double t_end_us = 0;     // completion
  int64_t bytes = 0;       // comm wire bytes
  /// Full (unsharded / bucket) payload the instruction manipulates; 0 if
  /// unknown.
  int64_t resident_bytes = 0;

  double queue_us = 0;     // t_exec - t_begin: comm-worker queue delay
  double service_us = 0;   // t_end - t_exec: actual execution time
  double exposed_us = 0;   // comm only: service time not covered by compute
  bool on_critical_path = false;

  double duration_us() const { return t_end_us - t_begin_us; }
};

struct LaneUsage {
  std::string lane;        // "compute", "comm", "runtime"
  double busy_us = 0;
  double utilization = 0;  // busy / step span
};

/// One training step: the instruction table plus derived analysis.
struct StepProfile {
  std::vector<std::string> unit_names;
  std::vector<InstrProfile> instrs;

  /// False when the runtime surfaced a sticky error (aborted collective) or
  /// an instruction has not finished — derived quantities are then
  /// best-effort and comparisons against them should be skipped.
  bool complete = false;
  std::string incomplete_reason;

  double t_begin_us = 0;
  double t_end_us = 0;
  double step_us = 0;

  double compute_busy_us = 0;   // |union(compute spans) - union(wait spans)|
  double comm_busy_us = 0;      // sum of comm service windows
  double exposed_comm_us = 0;   // comm service not covered by busy compute
  double overlap_efficiency = 1.0;  // 1 - exposed/comm_busy (1 if no comm)
  std::vector<LaneUsage> lanes;

  std::vector<int> critical_path;  // indices into instrs, in time order
  double critical_path_us = 0;     // summed durations along the chain

  int64_t peak_unsharded_bytes = 0;      // max unsharded-param residency
  std::vector<std::string> peak_units;   // units resident at that peak
};

/// Everything the profiler needs for one rank. `entries` is the rank's
/// execution log (ExecLog::Entries()), possibly spanning several steps;
/// `status` is the runtime's sticky error (FsdpState::status() /
/// DistributedDataParallel::status()).
struct ProfileInputs {
  std::vector<plan::ExecEntry> entries;
  std::vector<std::string> unit_names;
  int rank = 0;
  Status status;
};

/// Splits the log into steps (a step ends at its trailing run of
/// kWaitReduceGrad entries; no_sync accumulation folds into the next
/// synchronizing step) and analyzes each.
std::vector<StepProfile> BuildStepProfiles(const ProfileInputs& in);

/// Cross-step stats for one instruction label (nearest-rank percentiles of
/// the measured durations; comm instructions use service time).
struct InstrStats {
  std::string label;
  int count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double max_us = 0;
  double total_us = 0;
  double queue_p50_us = 0;
  double exposed_p50_us = 0;
  int critical_hits = 0;  // steps where this label sat on the binding chain
};

struct ProfileAggregate {
  int steps = 0;
  int complete_steps = 0;
  double step_p50_us = 0;
  double step_p95_us = 0;
  double critical_path_p50_us = 0;
  double overlap_efficiency_mean = 1.0;
  std::vector<InstrStats> instrs;  // sorted by total_us, descending
};

ProfileAggregate AggregateProfiles(const std::vector<StepProfile>& steps);

/// Publishes the profiles into MetricsRegistry: histograms prof.step.us,
/// prof.critical_path.us, prof.exposed_comm.us, prof.overlap_efficiency
/// (one observation per complete step) and counters prof.steps /
/// prof.incomplete_steps.
void PublishProfileMetrics(const std::vector<StepProfile>& steps);

/// Chrome counter tracks derived from the profiles: "unsharded_bytes"
/// (parameter residency) and "inflight_collectives" (issued-not-complete).
std::vector<CounterTrack> ProfileCounterTracks(
    const std::vector<StepProfile>& steps, int rank);

/// Writes PROFILE_<name>.json via ArtifactPath: artifact envelope
/// (schema_version + meta), the cross-step aggregate table, and the
/// per-step detail (instr table, critical path, overlap, memory peak).
/// Returns the path written.
Result<std::string> WriteProfileJson(const std::string& name,
                                     const std::vector<StepProfile>& steps,
                                     const ArtifactMeta& meta);

}  // namespace fsdp::obs
