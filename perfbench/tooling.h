// Tooling phase: what planning a job costs. Single-threaded calls into the
// autotuner (T5-11B on 2x8 and GPT-175B on 16x8 GPUs, the ablate_autotune
// cases), the plan compiler's default pass pipeline (a many-small-units plan
// at 32 and 128 layers) and the discrete-event simulator (T5-11B on 2x8).
// None of it touches the real runtime, and the training steps never touch
// these modules, so a change to either moves its own metrics only.
#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "plan/passes.h"
#include "simfsdp/schedule.h"
#include "tune/tuner.h"

namespace perfbench {

namespace plan = fsdp::plan;
namespace simfsdp = fsdp::simfsdp;
namespace tune = fsdp::tune;

class Tooling {
 public:
  /// Builds the inputs (workloads, constants, plans, simulator) several
  /// times; setup_s() is the median.
  Tooling(const Args& args, Report& report);

  double setup_s() const { return setup_s_; }

  /// One round: each autotune case once, the pass pipeline on both plans,
  /// and a few short batches of simulator runs. Failed calls count against
  /// the report's operations and fail the run.
  void Round();

  /// Adds the end-to-end (untraced) or per-layer (traced) tooling metrics
  /// and appends the recorded spans.
  void Finish(std::vector<Span>& spans);

 private:
  struct CompileCase {
    plan::StepPlan plan;
    std::unique_ptr<plan::PassManager> passes;
  };
  struct Inputs {
    tune::TuneInputs t5, gpt;
    CompileCase l32, l128;
    std::unique_ptr<simfsdp::FsdpSimulator> sim_t5;
  };

  static Inputs BuildInputs();
  static CompileCase ManySmall(int layers);
  void Tune(const tune::TuneInputs& in, const char* span,
            std::vector<double>& ms);
  void Compile(const CompileCase& c, int reps, const char* span,
               std::vector<double>& ms);
  void Simulate();

  const Args& args_;
  Report& report_;
  Inputs in_;
  double setup_s_ = 0;
  tune::TuneOptions tune_options_;
  simfsdp::SimMetrics reference_;  // the first Run(); every later one must match
  int64_t round_ = 0;
  tune::TuneCounts counts_;        // summed over both cases, last round
  std::vector<double> t5_ms_, gpt_ms_, pass32_ms_, pass128_ms_, sim_ms_,
      sim_rate_;
  int64_t sim_runs_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
