// Elastic train-loop driver: the resume protocol tying the pieces together.
//
// The fault layer detects rank loss (watchdog abort -> sticky
// FsdpState::status()), the rendezvous re-forms the world, the sharded
// checkpoints reshard across world sizes. TrainLoopDriver is the loop that
// composes them into "training survives rank loss":
//
//   form world (rendezvous) -> build model/FSDP/Adam over the fresh mesh ->
//   load latest complete checkpoint set (reshard-on-load) -> step, saving
//   every ckpt_interval steps -> on a sticky step error: read the dead set
//   off the poisoned communicators' progress tables, exit if self is dead,
//   else rejoin with expected = survivors and repeat from "form world".
//
// Rollback granularity is the checkpoint interval: recovery resumes from
// the last COMPLETE saved step, replaying at most interval-1 steps. Because
// reductions run in deterministic rank order, a recovered run at world size
// M is bitwise identical to an uninterrupted world-size-M run resumed from
// the same checkpoint — the property the elastic drills in
// tests/elastic_test.cc assert.
//
// Planned resizes (scale-up or scale-down at a step boundary) reuse the same
// machinery minus the abort: save, rejoin at the new size, reshard-on-load.
// Fresh joiners enter through RunJoiner with a min_generation fence so they
// sit out the rounds that precede their scale-up.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/fsdp.h"
#include "core/optim_state.h"
#include "elastic/rendezvous.h"
#include "nn/module.h"
#include "optim/optimizer.h"

namespace fsdp::elastic {

/// A planned world-size change at a step boundary: before executing step
/// `at_step`, every rank saves a checkpoint, rejoins at `new_world`, and
/// resumes from that checkpoint (resharded). Requires a non-empty ckpt_stem
/// unless at_step == 0. at_step < 0 disables.
struct PlannedResize {
  int64_t at_step = -1;
  int new_world = 0;
};

struct DriverConfig {
  /// Builds the (deterministically seeded) model; called once per world
  /// formation on every member.
  std::function<nn::ModulePtr()> model_factory;
  /// One step's forward: returns the loss to backward. The module is the one
  /// built by model_factory, with FSDP hooks installed — invoke it directly.
  std::function<Tensor(nn::Module& model, int rank, int world_size,
                       int64_t step)>
      loss_fn;
  core::FsdpOptions fsdp;        // strategy must fully shard (F == W)
  optim::AdamOptions adam;
  int64_t total_steps = 0;
  /// Save a sharded checkpoint after step s when (s+1) % ckpt_interval == 0
  /// (0 = only planned-resize saves). Ignored when ckpt_stem is empty.
  int64_t ckpt_interval = 0;
  std::string ckpt_stem;         // empty = never save
  /// Where the INITIAL formation loads from (recoveries and resizes always
  /// reload from ckpt_stem when set). Empty = ckpt_stem.
  std::string load_stem;
  /// Step to load at the initial formation (-1 = latest complete set).
  int64_t load_step = -1;
  double watchdog_ms = 200;      // per fresh mesh; 0 = no watchdog
  double rendezvous_timeout_ms = 2000;
  PlannedResize resize;
  /// After each recovery, compare the first post-resume step's executed
  /// schedule against the PlanBuilder's expected plan (the anti-drift check
  /// of tests/plan_test.cc, valid on a fresh state's first step). A mismatch
  /// fails the run with Internal.
  bool validate_plan_after_recovery = false;
  /// Forwarded to the rendezvous: called once per formed world on its fresh
  /// mesh — the drills' fault-injection point, keyed by generation.
  std::function<void(comm::DeviceMesh&, int64_t generation)> post_build;
  /// Stamped into the RECOVERY_<name>.json artifact.
  std::string name = "drill";
};

struct RunResult {
  Status status;                 // OK, or the first unrecoverable error
  bool died = false;             // this rank was in a dead set
  bool retired = false;          // planned scale-down removed this rank
  int final_world = 0;
  int final_rank = -1;
  int64_t steps_completed = 0;   // optimizer steps this thread applied
  int recoveries = 0;            // successful re-formations participated in
  /// Checkpoint step the most recent recovery/resize resumed from (-1 when
  /// none happened) — what a reference run must load to reproduce this run.
  int64_t last_resume_ckpt_step = -1;
  /// Full (unsharded) model + optimizer state after the last step, gathered
  /// collectively by every surviving rank (empty for dead/retired ranks).
  std::vector<std::pair<std::string, Tensor>> final_state;
  std::vector<core::FullOptimEntry> final_optim;
};

/// One driver instance is shared by all rank threads of a drill (it owns the
/// rendezvous store). Each thread calls RunRank (initial members) or
/// RunJoiner (fresh ranks joining a later generation).
class TrainLoopDriver {
 public:
  explicit TrainLoopDriver(DriverConfig cfg);

  /// Runs the elastic loop as initial-world rank `rank` of `world_size`.
  RunResult RunRank(int rank, int world_size);
  /// Runs the elastic loop as a fresh joiner: parks until the round that
  /// forms `min_generation` opens, then joins expecting `world_size`.
  RunResult RunJoiner(int64_t min_generation, int world_size);

  RendezvousStore& store() { return store_; }

 private:
  RunResult RunLoop(int old_rank, int expected, int64_t min_generation);

  DriverConfig cfg_;
  RendezvousStore store_;
};

}  // namespace fsdp::elastic
