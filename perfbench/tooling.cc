#include "tooling.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "simfsdp/workload.h"

namespace perfbench {
namespace {

namespace sim = fsdp::sim;

constexpr int kSetupReps = 11;
// Per half round: compile and simulate after each autotune call, so these
// short samples are spread over the run instead of bunched in one window.
constexpr int kPassReps32 = 10;  // timed PassManager::Run calls
constexpr int kPassReps128 = 3;
constexpr int kSimChunks = 3;  // each yields one runs/s sample
constexpr double kSimChunkSeconds = 0.05;

tune::TuneInputs TuneCase(simfsdp::Workload w, sim::Topology topo, int batch) {
  tune::TuneInputs in;
  in.workload = std::move(w);
  in.topo = topo;
  in.base.batch_per_gpu = batch;
  in.constants.inter_host_bw_gbps = 100.0;  // a fabric where schedules matter
  in.capacity_bytes = int64_t{80} << 30;
  return in;
}

bool SameMetrics(const simfsdp::SimMetrics& a, const simfsdp::SimMetrics& b) {
  return a.oom == b.oom && a.iter_time_us == b.iter_time_us &&
         a.tflops_per_gpu == b.tflops_per_gpu &&
         a.compute_busy_us == b.compute_busy_us &&
         a.comm_busy_us == b.comm_busy_us &&
         a.exposed_comm_us == b.exposed_comm_us &&
         a.peak_allocated == b.peak_allocated &&
         a.peak_active == b.peak_active &&
         a.peak_reserved == b.peak_reserved &&
         a.num_alloc_retries == b.num_alloc_retries &&
         a.cross_host_bytes_per_gpu == b.cross_host_bytes_per_gpu;
}

double Min(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

}  // namespace

/// A plan of `layers` small transformer blocks, with fusion and hoisting
/// budgets that give every default pass work to do.
Tooling::CompileCase Tooling::ManySmall(int layers) {
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
  cfg.limit_all_gathers = 0;
  plan::PassOptions opt = simfsdp::MakePassOptions(w, topo, cfg);
  opt.fuse_below_bytes = 8 << 20;
  opt.max_hoist_computes = 4;
  opt.max_sink_computes = 4;
  return {simfsdp::BuildSimStepPlan(w, topo, cfg),
          std::make_unique<plan::PassManager>(plan::PassManager::Default(opt))};
}

Tooling::Inputs Tooling::BuildInputs() {
  Inputs in;
  in.t5 = TuneCase(simfsdp::T5_11B(), {2, 8}, 1);
  in.gpt = TuneCase(simfsdp::GPT_175B(), {16, 8}, 2);
  in.l32 = ManySmall(32);
  in.l128 = ManySmall(128);
  in.sim_t5 = std::make_unique<simfsdp::FsdpSimulator>(
      in.t5.workload, in.t5.topo, in.t5.constants, in.t5.base);
  return in;
}

Tooling::Tooling(const Args& args, Report& report)
    : args_(args), report_(report) {
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowS();
    in_ = BuildInputs();
    setup.push_back(NowS() - t0);
  }
  setup_s_ = Median(setup);
  tune_options_.seed = args.seed;
  tune_options_.time_budget_ms = 60000;  // a runaway search fails, not hangs
  reference_ = in_.sim_t5->Run();
}

void Tooling::Tune(const tune::TuneInputs& in, const char* span,
                   std::vector<double>& ms) {
  const double t0 = NowS();
  const tune::TuneReport rep =
      tune::Autotune(in, tune::SearchSpace::Default(in.topo), tune_options_);
  const double t1 = NowS();
  const bool ok = rep.found && !rep.budget_exhausted;
  report_.ops.Record(ok);
  if (!ok) report_.Fail(std::string(span) + ": no schedule within budget");
  if (ok && rep.winner_metrics.iter_time_us >
                rep.best_preset_metrics.iter_time_us) {
    report_.Fail(std::string(span) + ": tuned schedule slower than preset " +
                 rep.best_preset);
  }
  ms.push_back((t1 - t0) * 1e3);
  if (args_.trace) spans_.push_back({span, "tooling", 0, round_, t0, t1});
  counts_.raw_candidates += rep.counts.raw_candidates;
  counts_.memory_pruned += rep.counts.memory_pruned;
  counts_.bound_pruned += rep.counts.bound_pruned;
  counts_.sim_runs += rep.counts.sim_runs;
}

void Tooling::Compile(const CompileCase& c, int reps, const char* span,
                      std::vector<double>& ms) {
  plan::StepPlan compiled = c.plan;
  c.passes->Run(compiled);  // untimed: warm caches after the autotune call
  for (int i = 0; i < reps; ++i) {
    compiled = c.plan;
    const double t0 = NowS();
    c.passes->Run(compiled);  // aborts the process on an invalid rewrite
    const double t1 = NowS();
    report_.ops.Record(true);
    ms.push_back((t1 - t0) * 1e3);
    if (args_.trace) spans_.push_back({span, "tooling", 0, round_, t0, t1});
  }
  const fsdp::Status valid = plan::PlanValidator{}.Check(compiled);
  if (!valid.ok()) {
    report_.Fail(std::string(span) + ": compiled plan invalid: " +
                 valid.ToString());
  }
}

void Tooling::Simulate() {
  in_.sim_t5->Run();  // untimed warm-up, as for the compiles
  for (int chunk = 0; chunk < kSimChunks; ++chunk) {
    const double c0 = NowS();
    int64_t n = 0;
    do {
      const double t0 = NowS();
      const bool same = SameMetrics(in_.sim_t5->Run(), reference_);
      const double t1 = NowS();
      report_.ops.Record(same);
      if (!same) report_.Fail("repeated FsdpSimulator::Run gave other metrics");
      ++n;
      if (args_.trace) {
        sim_ms_.push_back((t1 - t0) * 1e3);
        spans_.push_back({"sim.run", "tooling", 0, round_, t0, t1});
      }
    } while (NowS() - c0 < kSimChunkSeconds);
    sim_rate_.push_back(static_cast<double>(n) / (NowS() - c0));
    sim_runs_ += n;
  }
}

void Tooling::Round() {
  counts_ = {};
  for (const auto& [in, span, ms] :
       {std::tuple{&in_.t5, "tune.t5", &t5_ms_},
        std::tuple{&in_.gpt, "tune.gpt", &gpt_ms_}}) {
    Tune(*in, span, *ms);
    Compile(in_.l32, kPassReps32, "plan.passes_l32", pass32_ms_);
    Compile(in_.l128, kPassReps128, "plan.passes_l128", pass128_ms_);
    Simulate();
  }
  ++round_;
}

void Tooling::Finish(std::vector<Span>& spans) {
  std::printf("tooling: %lld rounds, %lld simulator runs, %lld tuner "
              "simulations per round\n",
              static_cast<long long>(round_),
              static_cast<long long>(sim_runs_),
              static_cast<long long>(counts_.sim_runs));
  spans.insert(spans.end(), spans_.begin(), spans_.end());
  if (!args_.trace) {
    // Every call repeats identical single-threaded work, so the fastest
    // sample is the code's own cost; slower ones add interference from other
    // processes, which arrives in bursts of seconds and moved per-run
    // medians by up to 18% on a shared 4-core box.
    report_.Add("autotune_s", (Min(t5_ms_) + Min(gpt_ms_)) / 1e3, "s");
    report_.Add("sim_runs_per_s",
                *std::max_element(sim_rate_.begin(), sim_rate_.end()), "1/s");
    report_.Add("plan_compile_ms", Min(pass128_ms_), "ms");
    return;
  }
  const double p32 = Median(pass32_ms_), p128 = Median(pass128_ms_);
  const double n32 = static_cast<double>(in_.l32.plan.size());
  const double n128 = static_cast<double>(in_.l128.plan.size());
  report_.Add("plan.passes_ms_l32", p32, "ms");
  report_.Add("plan.passes_ms_l128", p128, "ms");
  report_.Add("plan.instrs_l128", n128, "count");
  // Exponent k of time ~ instrs^k between the two plan sizes.
  report_.Add("plan.passes_scaling", std::log(p128 / p32) / std::log(n128 / n32),
              "exponent");
  report_.Add("sim.run_ms", Median(sim_ms_), "ms");
  report_.Add("sim.instrs", static_cast<double>(in_.sim_t5->plan().size()),
              "count");
  report_.Add("tune.search_ms_t5", Median(t5_ms_), "ms");
  report_.Add("tune.search_ms_gpt", Median(gpt_ms_), "ms");
  report_.Add("tune.sim_runs", static_cast<double>(counts_.sim_runs), "count");
  report_.Add("tune.raw_candidates",
              static_cast<double>(counts_.raw_candidates), "count");
  report_.AddRatio(
      "tune.pruned_share",
      {static_cast<double>(counts_.memory_pruned + counts_.bound_pruned),
       static_cast<double>(counts_.raw_candidates), "tune.raw_candidates"});
}

}  // namespace perfbench
