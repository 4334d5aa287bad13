#include "elastic/driver.h"

#include <chrono>
#include <cstdio>
#include <set>
#include <string>

#include "autograd/engine.h"
#include "comm/process_group.h"
#include "elastic/sharded_ckpt.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsdp::elastic {
namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything a recovery must report once the new world proves itself by
/// completing its first post-resume step.
struct PendingRecovery {
  bool active = false;
  int old_world = 0;
  std::vector<int> dead;
  std::string reason;
  std::string flight_dump;
  double t_begin_us = 0;
  // Filled after the re-formed world reloads:
  int64_t generation = 0;
  int64_t ckpt_step = -1;
  int64_t resume_step = 0;
  double t_recover_us = 0;
};

void WriteRecoveryArtifact(const DriverConfig& cfg, const PendingRecovery& p,
                           const WorldView& view, int64_t first_step) {
  const std::string path = obs::ArtifactPath("RECOVERY_" + cfg.name + ".json");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return;
  obs::ArtifactMeta meta;
  meta.world_size = view.world_size;
  meta.ranks = 1;  // rank 0 writes on behalf of the world
  meta.preset = cfg.name;
  obs::JsonWriter w;
  w.BeginObject();
  obs::WriteArtifactEnvelope(w, meta);
  w.Key("generation").Int(view.generation).Key("old_world").Int(p.old_world);
  w.Key("new_world").Int(view.world_size).Key("dead_ranks").BeginArray();
  for (int r : p.dead) w.Int(r);
  w.EndArray().Key("ckpt_step").Int(p.ckpt_step);
  w.Key("resume_step").Int(p.resume_step);
  w.Key("first_step_after_resume").Int(first_step);
  w.Key("reason").String(p.reason).Key("flight_dump").String(p.flight_dump);
  w.Key("time_to_recover_us").Double(p.t_recover_us).EndObject();
  const std::string s = w.str() + "\n";
  std::fwrite(s.data(), 1, s.size(), f);
  std::fclose(f);
}

}  // namespace

TrainLoopDriver::TrainLoopDriver(DriverConfig cfg)
    : cfg_(std::move(cfg)), store_([this] {
        RendezvousStore::Options o;
        o.join_timeout_ms = cfg_.rendezvous_timeout_ms;
        o.watchdog_ms = cfg_.watchdog_ms;
        o.post_build = cfg_.post_build;
        return o;
      }()) {}

RunResult TrainLoopDriver::RunRank(int rank, int world_size) {
  return RunLoop(rank, world_size, /*min_generation=*/0);
}

RunResult TrainLoopDriver::RunJoiner(int64_t min_generation, int world_size) {
  return RunLoop(/*old_rank=*/-1, world_size, min_generation);
}

RunResult TrainLoopDriver::RunLoop(int old_rank, int expected,
                                   int64_t min_generation) {
  RunResult res;
  if (!cfg_.model_factory || !cfg_.loss_fn) {
    res.status = Status::Invalid("driver needs model_factory and loss_fn");
    return res;
  }
  ElasticAgent agent(store_);
  auto& metrics = obs::MetricsRegistry::Get();
  PendingRecovery pending;
  bool initial = true;

  for (;;) {  // one iteration per formed world
    Result<WorldView> joined = agent.Join(old_rank, expected, min_generation);
    if (!joined.ok()) {
      res.status = joined.status();
      return res;
    }
    WorldView view = *joined;
    min_generation = 0;  // the fence only guards the first join
    res.final_world = view.world_size;
    res.final_rank = view.rank;

    nn::ModulePtr model = cfg_.model_factory();
    std::shared_ptr<core::FsdpState> state =
        core::FullyShard(model, *view.mesh, view.rank, cfg_.fsdp);
    optim::Adam adam(state->Parameters(), cfg_.adam);

    // Which set to load: the initial formation honours load_stem/load_step;
    // recoveries and resizes reload the latest complete set under ckpt_stem.
    // Agreement across ranks is by construction: a set only counts once ALL
    // its files exist, and all exist only if every writer completed the
    // save — in which case every survivor rolls back to the same step.
    int64_t start_step = 0;
    int64_t loaded_step = -1;
    {
      std::string stem = cfg_.ckpt_stem;
      int64_t step = -1;
      if (initial) {
        if (!cfg_.load_stem.empty()) stem = cfg_.load_stem;
        step = cfg_.load_step >= 0
                   ? cfg_.load_step
                   : (stem.empty() ? -1 : LatestShardedStep(stem));
      } else {
        if (stem.empty()) stem = cfg_.load_stem;
        step = stem.empty() ? -1 : LatestShardedStep(stem);
      }
      if (step >= 0) {
        Status st =
            LoadShardedCheckpoint(stem, step, *state, &adam, &loaded_step);
        if (!st.ok()) {
          res.status = st;
          return res;
        }
        start_step = loaded_step + 1;
      }
    }
    initial = false;

    if (pending.active) {
      pending.generation = view.generation;
      pending.ckpt_step = loaded_step;
      pending.resume_step = start_step;
      pending.t_recover_us = NowUs() - pending.t_begin_us;
      res.last_resume_ckpt_step = loaded_step;
      if (view.rank == 0) {
        metrics.GetCounter("elastic.recoveries").Add();
        metrics.GetCounter("elastic.ranks_lost")
            .Add(static_cast<int64_t>(pending.dead.size()));
        metrics.GetHistogram("elastic.time_to_recover_us")
            .Observe(pending.t_recover_us);
      }
    }

    bool reform = false;
    for (int64_t s = start_step; s < cfg_.total_steps; ++s) {
      // ----- planned resize fence (before executing step s) -----
      if (s == cfg_.resize.at_step && cfg_.resize.new_world > 0 &&
          view.world_size != cfg_.resize.new_world) {
        if (s > 0) {
          if (cfg_.ckpt_stem.empty()) {
            res.status =
                Status::Invalid("a planned resize needs ckpt_stem to carry "
                                "state into the new world");
            return res;
          }
          Status st = SaveShardedCheckpoint(cfg_.ckpt_stem, s - 1, *state,
                                            &adam);
          if (!st.ok()) {
            res.status = st;
            return res;
          }
        }
        if (view.rank >= cfg_.resize.new_world) {
          res.retired = true;  // scale-down: this rank leaves gracefully
          return res;
        }
        old_rank = view.rank;
        expected = cfg_.resize.new_world;
        res.last_resume_ckpt_step = s - 1;
        reform = true;
        break;
      }

      view.mesh->SetTrainStep(s);
      const bool validate = pending.active && cfg_.validate_plan_after_recovery;
      if (pending.active) state->ClearEvents();
      adam.ZeroGrad();
      Tensor loss = cfg_.loss_fn(*model, view.rank, view.world_size, s);
      autograd::RunBackward(loss);

      if (!state->status().ok()) {
        // ----- rank loss: read the dead set off the poisoned comms -----
        FSDP_TRACE_SPAN(kMarker, "recovery", "elastic");
        const double t0 = NowUs();
        std::set<int> dead;
        std::string flight;
        std::string reason = state->status().message();
        auto collect = [&](const std::shared_ptr<comm::Communicator>& c) {
          if (!c) return;
          for (int r : c->UnhealthyRanks()) dead.insert(r);
          comm::WatchdogDiagnosis d = c->last_diagnosis();
          if (d.culprit_rank >= 0) dead.insert(d.culprit_rank);
          if (!d.reason.empty()) reason = d.reason;
          if (flight.empty()) flight = c->flight_dump_path();
        };
        // At full sharding the shard group is the world, so comm-local ranks
        // in both tables are global ranks.
        collect(view.mesh->WorldGroup(view.rank).communicator());
        collect(view.mesh->ShardGroup(view.rank).communicator());
        if (dead.empty()) {
          res.status = Status::Internal(
              "collective abort with no identifiable dead rank: " + reason);
          return res;
        }
        if (dead.count(view.rank) > 0) {
          res.died = true;  // scripted death: this thread retires
          return res;
        }
        pending = PendingRecovery{};
        pending.active = true;
        pending.old_world = view.world_size;
        pending.dead.assign(dead.begin(), dead.end());
        pending.reason = reason;
        pending.flight_dump = flight;
        pending.t_begin_us = t0;
        old_rank = view.rank;
        expected = view.world_size - static_cast<int>(dead.size());
        res.recoveries++;
        reform = true;
        break;
      }

      adam.Step();
      res.steps_completed++;

      if (validate) {
        if (state->executed_schedule() !=
            state->ExpectedStepPlan().Canonical()) {
          res.status = Status::Internal(
              "post-recovery executed schedule drifted from the expected "
              "plan");
          return res;
        }
      }
      if (pending.active) {
        if (view.rank == 0) WriteRecoveryArtifact(cfg_, pending, view, s);
        pending.active = false;
      }

      if (cfg_.ckpt_interval > 0 && !cfg_.ckpt_stem.empty() &&
          (s + 1) % cfg_.ckpt_interval == 0) {
        Status st = SaveShardedCheckpoint(cfg_.ckpt_stem, s, *state, &adam);
        if (!st.ok()) {
          res.status = st;
          return res;
        }
      }
    }
    if (reform) continue;

    // Done: gather the full model + optimizer state (collective).
    res.final_state = state->FullStateDict();
    res.final_optim = core::GatherFullOptimState(*state, adam);
    res.final_world = view.world_size;
    res.final_rank = view.rank;
    return res;
  }
}

}  // namespace fsdp::elastic
