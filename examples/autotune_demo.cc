// autotune_demo — the autotuner quickstart: profile a real run, calibrate
// the simulator to it, search the schedule space, and prove the winner on
// the real collective runtime.
//
//   record    a 4-rank FSDP transformer for a few steps into rank 0's
//             timed execution log (same harness as profile_report);
//   calibrate sim::CalibrateFromProfile fits compute rate and link
//             bandwidth/launch from the measured times and reports the
//             per-unit parameter/FLOP table it learned;
//   search    tune::Autotune over the default knob grid for this topology,
//             scoring candidates in the simulator under the CALIBRATED
//             constants — the envelope prunes, successive halving ranks,
//             mutation polishes;
//   prove     the winning candidate's compiled StepPlan replays through
//             comm::ReplayPlan on the same 4 real ranks, and the tuner's
//             predicted step time is printed next to the measured one.
//
// Registered as the `autotune_demo_smoke` ctest (label "tune"): every
// assertion exits nonzero, so a failed calibration, an infeasible search
// result, a non-replayable winner or a malformed TUNE_demo.json fails CI.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "comm/plan_replay.h"
#include "core/fsdp.h"
#include "nn/transformer.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "sim/calibrate.h"
#include "tune/tuner.h"

namespace {

#define REQUIRE(cond)                                                       \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "autotune_demo: FAILED at %s:%d: %s\n",          \
                   __FILE__, __LINE__, #cond);                              \
      std::exit(1);                                                         \
    }                                                                       \
  } while (0)

}  // namespace

int main() {
  using namespace fsdp;  // NOLINT

  const int world = 4;
  const int steps_to_run = 3;

  // --- 1. record a profiled 4-rank run ----------------------------------
  comm::DeviceMesh mesh(world, world);
  // Injected interconnect latency gives comm spans realistic size-dependent
  // durations for the calibration fit (in-process memcpy is ~instant).
  mesh.SetInjectedLatency(/*base_us=*/200, /*us_per_mib=*/50000);

  obs::ProfileInputs inputs;
  RunOnRanks(world, [&](int rank) {
    nn::InitCtx ctx(Device::kCpu, 7);
    nn::TransformerConfig cfg;
    cfg.vocab_size = 64;
    cfg.max_seq = 8;
    cfg.dim = 64;
    cfg.num_heads = 4;
    cfg.num_layers = 2;
    auto model = std::make_shared<nn::TransformerModel>(cfg, ctx);
    core::FsdpOptions opts;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    auto state = core::FullyShard(model, mesh, rank, opts);
    Tensor tokens = ops::IndexTensor({1, 2, 3, 4}, {1, 4});
    Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});
    for (int s = 0; s < steps_to_run; ++s) {
      Tensor loss = ops::CrossEntropy((*model)(tokens), targets);
      autograd::RunBackward(loss);
    }
    if (rank == 0) {
      inputs.entries = state->exec_log().Entries();
      for (int u = 0; u < state->num_units(); ++u) {
        inputs.unit_names.push_back(state->unit_name(u));
      }
      inputs.status = state->status();
    }
  });
  inputs.rank = 0;

  const std::vector<obs::StepProfile> profiles =
      obs::BuildStepProfiles(inputs);
  REQUIRE(profiles.size() == static_cast<size_t>(steps_to_run));
  const obs::ProfileAggregate agg = obs::AggregateProfiles(profiles);
  REQUIRE(agg.complete_steps == steps_to_run);

  // --- 2. calibrate the simulator to this substrate ---------------------
  sim::CalibrationOptions copts;
  copts.topo = sim::Topology{1, world};
  const sim::CalibrationReport cal = sim::CalibrateFromProfile(profiles, copts);
  REQUIRE(cal.samples > 0);
  REQUIRE(!cal.units.empty());
  std::printf("calibrated over %d samples: bw %.3f GB/s, launch %.1fus, "
              "matmul eff %.2e (mean |err| %.1fus)\n",
              cal.samples, cal.constants.intra_host_bw_gbps,
              cal.constants.collective_launch_us,
              cal.constants.matmul_efficiency, cal.mean_abs_err_us);

  // The workload the tuner searches over is the measured one: the per-unit
  // parameter/FLOP table the calibration learned from the AllGather spans.
  simfsdp::Workload workload;
  workload.name = "demo-transformer";
  for (const sim::CalibratedUnit& u : cal.units) {
    simfsdp::UnitSpec spec;
    spec.name = u.name;
    spec.param_numel = u.param_numel;
    spec.fwd_flops_per_sample = u.fwd_flops / copts.batch_samples;
    spec.act_bytes_per_sample = 4 * u.param_numel / world;  // modest
    spec.ckpt_bytes_per_sample = spec.act_bytes_per_sample / 4;
    workload.units.push_back(spec);
  }

  // --- 3. search the schedule space under the calibrated constants ------
  tune::TuneInputs in;
  in.workload = workload;
  in.topo = copts.topo;
  in.constants = cal.constants;
  in.base.batch_per_gpu = 1;
  const tune::TuneReport rep =
      tune::Autotune(in, tune::SearchSpace::Default(in.topo), {});
  REQUIRE(rep.found);
  REQUIRE(!rep.winner_metrics.oom);

  const tune::RuntimeKnobs knobs = tune::ToRuntimeKnobs(rep.winner, in.topo);
  std::printf("\nsearched %lld candidates (%lld memory- + %lld bound-pruned "
              "unsimulated, %lld sim runs, %.0f ms)\n",
              static_cast<long long>(rep.counts.raw_candidates),
              static_cast<long long>(rep.counts.memory_pruned),
              static_cast<long long>(rep.counts.bound_pruned),
              static_cast<long long>(rep.counts.sim_runs), rep.search_ms);
  std::printf("winner: %s\n  ready-to-apply: %s\n",
              rep.winner.cand.Describe().c_str(), knobs.Describe().c_str());
  std::printf("predicted step %.1fus (calibrated sim)  vs  measured step "
              "p50 %.1fus (recorded run, default knobs)\n",
              rep.winner_metrics.iter_time_us, agg.step_p50_us);
  std::printf("best hand-tuned preset: %s at %.1fus — tuned is %.2fx\n",
              rep.best_preset.c_str(), rep.best_preset_metrics.iter_time_us,
              rep.best_preset_metrics.iter_time_us /
                  rep.winner_metrics.iter_time_us);
  // The search is seeded with the presets, so this is an invariant.
  REQUIRE(rep.winner_metrics.iter_time_us <=
          rep.best_preset_metrics.iter_time_us);

  // --- 4. prove the winner on the real collective runtime ---------------
  auto comm = std::make_shared<comm::Communicator>(world);
  comm->SetName("autotune-demo");
  std::vector<Status> status(world);
  RunOnRanks(world, [&](int r) {
    comm::ReplayOptions ro;
    ro.unit_numel = 64;
    ro.timeout_ms = 30000;
    status[r] = comm::ReplayPlan(comm::ProcessGroup(comm, r), rep.winner.plan,
                                 ro);
  });
  for (int r = 0; r < world; ++r) {
    REQUIRE(status[r].ok());
  }
  REQUIRE(!comm->aborted());
  std::printf("\nreplayed the winning plan (%d instrs) on %d real ranks: OK\n",
              rep.winner.plan.size(), world);

  // --- 5. artifact -------------------------------------------------------
  obs::ArtifactMeta meta;
  meta.world_size = world;
  meta.preset = "autotune_demo";
  const std::string path = tune::WriteTuneJson("demo", rep, meta);
  auto parsed = obs::ParseJsonFile(path);
  REQUIRE(parsed.ok());
  REQUIRE(obs::ValidateArtifactJson(parsed.ValueOrDie()).ok());
  REQUIRE(parsed.ValueOrDie()["found"].AsBool());
  std::printf("wrote %s\n", path.c_str());

  std::printf("\nautotune_demo: OK\n");
  return 0;
}
