// Elastic recovery ablation: time-to-recover (and work replayed) vs the
// sharded-checkpoint interval.
//
// One scripted drill per interval: a 4-rank world trains 8 steps, rank 2's
// comm worker dies on a gradient ReduceScatter of step 6, the survivors
// re-form a 3-world and resume from the latest COMPLETE checkpoint set.
// The interval controls the rollback distance:
//
//   interval 1/2 : a set exists at step 5 -> resume at 6, nothing replayed
//   interval 4   : last set at step 3     -> resume at 4, 2 steps replayed
//   interval 8   : no set yet             -> restart from step 0, 6 replayed
//
// against which the measured recovery wall-clock (rendezvous + rebuild +
// reshard-on-load, from the elastic.time_to_recover_us histogram) is
// reported. Rows land in BENCH_elastic_recovery.json (schema-validated
// before exit); the binary FSDP_CHECKs that every drill actually recovered
// and that replayed work is monotone in the interval.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "bench/bench_util.h"
#include "comm/process_group.h"
#include "common/threading.h"
#include "elastic/driver.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsdp {
namespace {

constexpr int kWorld = 4;
constexpr int kDeadRank = 2;
constexpr int64_t kSteps = 8;
constexpr int64_t kKillStep = 6;

nn::ModulePtr MakeModel() {
  nn::InitCtx ctx(Device::kCpu, 42);
  nn::TransformerConfig cfg;
  cfg.vocab_size = 13;
  cfg.max_seq = 4;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  return std::make_shared<nn::TransformerModel>(cfg, ctx);
}

std::string ProbeUnitName(int index) {
  comm::DeviceMesh mesh(1, 1);
  auto model = MakeModel();
  core::FsdpOptions opts;
  opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
  auto state = core::FullyShard(model, mesh, 0, opts);
  FSDP_CHECK(state->num_units() > index);
  return state->unit_name(index);
}

struct DrillOutcome {
  int64_t resume_step = 0;    // first step executed by the re-formed world
  int64_t replayed = 0;       // optimizer steps run twice because of rollback
  double recover_us = 0;      // rendezvous + rebuild + reshard-on-load
};

DrillOutcome RunDrill(int64_t interval, const std::string& victim) {
  namespace fs = std::filesystem;
  // Per-process directory: concurrent runs of this bench never share files.
  const fs::path dir = fs::temp_directory_path() /
                       ("elastic_recovery_" + std::to_string(::getpid()) +
                        "_i" + std::to_string(interval));
  fs::remove_all(dir);
  fs::create_directories(dir);

  elastic::DriverConfig cfg;
  cfg.model_factory = [] { return MakeModel(); };
  cfg.loss_fn = [](nn::Module& m, int rank, int /*world*/, int64_t step) {
    const int64_t r = rank + 3 * step;
    Tensor tokens = ops::IndexTensor(
        {(r * 3 + 1) % 13, (r * 5 + 2) % 13, (r * 7 + 3) % 13, (r + 4) % 13},
        {1, 4});
    Tensor targets = ops::IndexTensor(
        {(r + 5) % 13, (r + 6) % 13, (r + 7) % 13, (r + 8) % 13}, {4});
    return ops::CrossEntropy(m(tokens), targets);
  };
  cfg.fsdp.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
  cfg.adam = {.lr = 1e-2f};
  cfg.total_steps = kSteps;
  cfg.ckpt_interval = interval;
  cfg.ckpt_stem = (dir / "ckpt").string();
  cfg.watchdog_ms = 120;
  cfg.name = "ablate_i" + std::to_string(interval);
  cfg.post_build = [&victim](comm::DeviceMesh& mesh, int64_t generation) {
    if (generation != 1) return;
    comm::FaultSpec f;
    f.kind = comm::FaultKind::kCrash;
    f.rank = kDeadRank;
    f.tag = victim;
    f.step = kKillStep;
    f.op_kind = static_cast<int>(obs::EventKind::kReduceScatter);
    mesh.ShardGroup(0).communicator()->InjectFault(f);
  };

  auto& hist =
      obs::MetricsRegistry::Get().GetHistogram("elastic.time_to_recover_us");
  const double sum_before = hist.sum();

  elastic::TrainLoopDriver driver(cfg);
  std::vector<elastic::RunResult> results(kWorld);
  RunOnRanks(kWorld, [&](int r) { results[r] = driver.RunRank(r, kWorld); });

  FSDP_CHECK(results[kDeadRank].died);
  DrillOutcome out;
  for (int r = 0; r < kWorld; ++r) {
    if (r == kDeadRank) continue;
    FSDP_CHECK_MSG(results[r].status.ok(),
                   "rank " << r << ": " << results[r].status.ToString());
    FSDP_CHECK(results[r].recoveries == 1);
    out.resume_step = results[r].last_resume_ckpt_step + 1;
  }
  out.replayed = kKillStep - out.resume_step;
  out.recover_us = hist.sum() - sum_before;
  fs::remove_all(dir);
  return out;
}

}  // namespace
}  // namespace fsdp

int main() {
  using namespace fsdp;
  bench::Header("ablate_elastic_recovery",
                "time-to-recover and replayed work vs sharded-checkpoint "
                "interval (4-rank drill, rank 2 killed mid-backward at "
                "step 6)");
  bench::Row("%9s %10s %12s %9s %13s", "interval", "ckpt_step", "resume_step",
             "replayed", "recover_ms");

  const std::string victim = ProbeUnitName(1);
  std::vector<bench::JsonRow> rows;
  int64_t prev_replayed = -1;
  for (int64_t interval : {8, 4, 2, 1}) {
    const DrillOutcome out = RunDrill(interval, victim);
    // Shorter intervals can only shrink the rollback.
    FSDP_CHECK(prev_replayed < 0 || out.replayed <= prev_replayed);
    prev_replayed = out.replayed;
    bench::Row("%9lld %10lld %12lld %9lld %13.2f",
               static_cast<long long>(interval),
               static_cast<long long>(out.resume_step - 1),
               static_cast<long long>(out.resume_step),
               static_cast<long long>(out.replayed), out.recover_us / 1000.0);
    rows.push_back(bench::JsonRow()
                       .Set("interval", interval)
                       .Set("world", kWorld)
                       .Set("kill_step", kKillStep)
                       .Set("ckpt_step", out.resume_step - 1)
                       .Set("resume_step", out.resume_step)
                       .Set("replayed_steps", out.replayed)
                       .Set("recover_us", out.recover_us));
  }

  obs::ArtifactMeta meta;
  meta.world_size = kWorld;
  meta.ranks = kWorld;
  meta.preset = "ablate_elastic_recovery";
  const std::string path = bench::WriteBenchJson("elastic_recovery", rows, meta);
  FSDP_CHECK(!path.empty());
  auto parsed = obs::ParseJsonFile(path);
  FSDP_CHECK_MSG(parsed.ok(), parsed.status().ToString());
  FSDP_CHECK(obs::ValidateArtifactJson(*parsed).ok());
  std::printf("\nwrote %s (schema validated)\n", path.c_str());
  return 0;
}
