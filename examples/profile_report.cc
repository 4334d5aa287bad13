// profile_report — the profiler + calibration quickstart and smoke test.
//
// Runs a 4-rank FSDP transformer for a few steps, profiles rank 0's timed
// execution log (obs::BuildStepProfiles), prints the per-instruction table
// with the critical path and overlap analysis, writes the
// PROFILE_report.json artifact plus a Chrome trace (the trace collector's
// spans with memory / in-flight counter tracks), and calibrates the
// simulator's cost constants from the measured durations.
//
// Registered as the `profile_report_smoke` ctest (label "obs"): every
// assertion below exits nonzero, so a malformed artifact, an untimed
// instruction or a calibration regression fails CI.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "core/fsdp.h"
#include "nn/transformer.h"
#include "obs/artifact.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/calibrate.h"

namespace {

#define REQUIRE(cond)                                                       \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "profile_report: FAILED at %s:%d: %s\n",         \
                   __FILE__, __LINE__, #cond);                              \
      std::exit(1);                                                         \
    }                                                                       \
  } while (0)

}  // namespace

int main() {
  using namespace fsdp;  // NOLINT

  const int world = 4;
  const int steps_to_run = 3;

  // --- 1. record a profiled run -----------------------------------------
  auto& collector = obs::TraceCollector::Get();
  collector.Clear();
  collector.set_enabled(true);

  comm::DeviceMesh mesh(world, world);
  // Emulate interconnect transfer time so comm spans have realistic,
  // size-dependent durations (the in-process memcpy alone is ~instant). The
  // model is sized so each unit moves ~100s of KB and the injected stall
  // (several ms per collective) dominates scheduling noise — keeps the
  // calibration-beats-defaults assertion below robust under CI load.
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
  collector.set_enabled(false);
  inputs.rank = 0;

  // --- 2. analyze -------------------------------------------------------
  const std::vector<obs::StepProfile> profiles =
      obs::BuildStepProfiles(inputs);
  REQUIRE(profiles.size() == static_cast<size_t>(steps_to_run));
  for (const obs::StepProfile& step : profiles) {
    REQUIRE(step.complete);
    REQUIRE(!step.critical_path.empty());
    REQUIRE(step.overlap_efficiency >= 0 && step.overlap_efficiency <= 1);
    for (const obs::InstrProfile& p : step.instrs) REQUIRE(p.matched);
  }
  obs::PublishProfileMetrics(profiles);
  const obs::ProfileAggregate agg = obs::AggregateProfiles(profiles);
  REQUIRE(agg.complete_steps == steps_to_run);

  std::printf("step p50 %.1fus  p95 %.1fus  critical-path p50 %.1fus  "
              "overlap %.0f%%\n\n",
              agg.step_p50_us, agg.step_p95_us, agg.critical_path_p50_us,
              100.0 * agg.overlap_efficiency_mean);
  std::printf("%-28s %5s %10s %10s %10s %10s %5s\n", "instr", "n",
              "p50_us", "p95_us", "queue_us", "exposed", "crit");
  for (const obs::InstrStats& s : agg.instrs) {
    std::printf("%-28s %5d %10.1f %10.1f %10.1f %10.1f %5d\n",
                s.label.c_str(), s.count, s.p50_us, s.p95_us, s.queue_p50_us,
                s.exposed_p50_us, s.critical_hits);
  }
  const obs::StepProfile& last = profiles.back();
  std::printf("\nstep %d critical path (%.1fus):\n", steps_to_run - 1,
              last.critical_path_us);
  for (int i : last.critical_path) {
    std::printf("  %-28s [%8.1f, %8.1f]\n", last.instrs[i].label.c_str(),
                last.instrs[i].t_begin_us - last.t_begin_us,
                last.instrs[i].t_end_us - last.t_begin_us);
  }
  std::printf("peak unsharded bytes: %lld (%zu units resident)\n",
              static_cast<long long>(last.peak_unsharded_bytes),
              last.peak_units.size());

  // --- 3. artifacts -----------------------------------------------------
  obs::ArtifactMeta meta;
  meta.world_size = world;
  meta.ranks = 1;  // rank 0's view
  meta.preset = "profile_report";
  auto written = obs::WriteProfileJson("report", profiles, meta);
  REQUIRE(written.ok());
  const std::string profile_path = written.ValueOrDie();
  std::printf("\nwrote %s\n", profile_path.c_str());

  // Re-parse and validate what we just wrote: envelope, critical path and
  // overlap fields present — the artifact contract the docs promise.
  auto parsed = obs::ParseJsonFile(profile_path);
  REQUIRE(parsed.ok());
  const obs::JsonValue& doc = parsed.ValueOrDie();
  REQUIRE(obs::ValidateArtifactJson(doc).ok());
  REQUIRE(doc["aggregate"].Has("overlap_efficiency_mean"));
  const obs::JsonArray& step_docs = doc["steps"].AsArray();
  REQUIRE(step_docs.size() == static_cast<size_t>(steps_to_run));
  for (const obs::JsonValue& s : step_docs) {
    REQUIRE(s["complete"].AsBool());
    REQUIRE(!s["critical_path"].AsArray().empty());
    REQUIRE(s.Has("overlap_efficiency"));
  }

  // Chrome trace with the profiler's counter tracks (residency + in-flight
  // collectives) alongside the recorded spans.
  const std::string trace_path = obs::ArtifactPath("profile_report_trace.json");
  const Status trace_st = obs::WriteChromeTrace(
      trace_path, collector.SnapshotRank(0),
      obs::ProfileCounterTracks(profiles, /*rank=*/0));
  REQUIRE(trace_st.ok());
  std::printf("wrote %s\n", trace_path.c_str());

  // --- 4. calibrate the simulator from the measurements ------------------
  sim::CalibrationOptions copts;
  copts.topo = sim::Topology{1, world};
  const sim::CalibrationReport uncal =
      sim::EvaluateConstants(profiles, copts, sim::SimConstants{});
  const sim::CalibrationReport cal =
      sim::CalibrateFromProfile(profiles, copts);
  REQUIRE(uncal.samples > 0);
  REQUIRE(cal.mean_abs_err_us < uncal.mean_abs_err_us);
  std::printf("\ncalibration: %d samples, mean |real - sim| %.1fus -> %.1fus "
              "(bw %.3f GB/s, launch %.1fus, matmul eff %.2e)\n",
              cal.samples, uncal.mean_abs_err_us, cal.mean_abs_err_us,
              cal.constants.intra_host_bw_gbps,
              cal.constants.collective_launch_us,
              cal.constants.matmul_efficiency);

  collector.Clear();
  std::printf("\nprofile_report: OK\n");
  return 0;
}
