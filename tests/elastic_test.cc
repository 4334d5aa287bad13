// Elastic FSDP tests: the generation-numbered rendezvous (full-house and
// deadline finalization, split-brain guard, fresh-joiner rank assignment),
// sharded-checkpoint set discovery, and the three elastic drills over
// TrainLoopDriver — kill a rank mid-backward and prove the recovered world
// converges bitwise-identically to an uninterrupted run resumed from the
// same checkpoint; shrink 8 -> 6 after a double rank loss; grow 6 -> 8
// through a planned resize with fresh joiners.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "comm/process_group.h"
#include "common/rng.h"
#include "common/threading.h"
#include "core/fsdp.h"
#include "elastic/driver.h"
#include "elastic/rendezvous.h"
#include "elastic/sharded_ckpt.h"
#include "nn/transformer.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

using comm::FaultKind;
using elastic::DriverConfig;
using elastic::RendezvousStore;
using elastic::RunResult;
using elastic::TrainLoopDriver;
using elastic::WorldView;
using fsdp::testing::ExpectAllClose;

using fsdp::testing::UseTempArtifactDir;

int64_t Counter(const std::string& name) {
  return obs::MetricsRegistry::Get().GetCounter(name).value();
}

std::string TempStem(const char* name) {
  return testing::ProcessTempDir() + "/" + name;
}

void RemoveShardFiles(const std::string& stem) {
  namespace fs = std::filesystem;
  const fs::path p(stem);
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(
           p.has_parent_path() ? p.parent_path() : fs::path("."), ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(p.filename().string() + ".step", 0) == 0) {
      fs::remove(e.path(), ec);
    }
  }
}

nn::ModulePtr MakeModel(uint64_t seed) {
  nn::InitCtx ctx(Device::kCpu, seed);
  nn::TransformerConfig cfg;
  cfg.vocab_size = 13;
  cfg.max_seq = 4;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  return std::make_shared<nn::TransformerModel>(cfg, ctx);
}

Tensor RankTokens(int rank, int64_t step) {
  const int64_t r = rank + 3 * step;
  return ops::IndexTensor(
      {(r * 3 + 1) % 13, (r * 5 + 2) % 13, (r * 7 + 3) % 13, (r + 4) % 13},
      {1, 4});
}

Tensor RankTargets(int rank, int64_t step) {
  const int64_t r = rank + 3 * step;
  return ops::IndexTensor(
      {(r + 5) % 13, (r + 6) % 13, (r + 7) % 13, (r + 8) % 13}, {4});
}

core::FsdpOptions DrillFsdpOptions() {
  core::FsdpOptions opts;
  opts.strategy = core::ShardingStrategy::kFullShard;
  opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
  return opts;
}

/// The drills key faults on a unit's collectives; unit FQNs are stable
/// across world sizes, so probe them from a single-rank instance.
std::string ProbeUnitName(int index) {
  comm::DeviceMesh mesh(1, 1);
  auto model = MakeModel(42);
  auto state = core::FullyShard(model, mesh, 0, DrillFsdpOptions());
  EXPECT_GT(state->num_units(), index);
  return state->unit_name(index);
}

DriverConfig BaseDrillConfig() {
  DriverConfig cfg;
  cfg.model_factory = [] { return MakeModel(42); };
  cfg.loss_fn = [](nn::Module& m, int rank, int /*world*/, int64_t step) {
    return ops::CrossEntropy(m(RankTokens(rank, step)),
                             RankTargets(rank, step));
  };
  cfg.fsdp = DrillFsdpOptions();
  cfg.adam = {.lr = 1e-2f};
  cfg.watchdog_ms = 150;
  cfg.rendezvous_timeout_ms = 10000;
  return cfg;
}

// ---------------------------------------------------------------------------
// Rendezvous.
// ---------------------------------------------------------------------------

TEST(RendezvousTest, FullHouseFormsWorldAndKeepsSurvivorOrder) {
  RendezvousStore store;
  std::vector<Result<WorldView>> views;
  for (int i = 0; i < 4; ++i) views.emplace_back(Status::OK());
  RunOnRanks(4, [&](int r) { views[r] = store.Join(r, 4); });
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(views[r].ok()) << views[r].status().ToString();
    EXPECT_EQ(views[r]->generation, 1);
    EXPECT_EQ(views[r]->world_size, 4);
    EXPECT_EQ(views[r]->rank, r);  // survivors keep relative (sorted) order
    ASSERT_NE(views[r]->mesh, nullptr);
    EXPECT_EQ(views[r]->mesh->world_size(), 4);
    ASSERT_EQ(views[r]->members.size(), 4u);
    for (int m = 0; m < 4; ++m) EXPECT_EQ(views[r]->members[m], m);
  }
  // All four shared ONE mesh instance.
  EXPECT_EQ(views[0]->mesh.get(), views[1]->mesh.get());
  EXPECT_EQ(store.generation(), 1);
}

TEST(RendezvousTest, DeadlineFinalizesWithWhoeverMadeIt) {
  RendezvousStore::Options opts;
  opts.join_timeout_ms = 150;
  RendezvousStore store(opts);
  // Old ranks {0, 2, 3} of a former 4-world join expecting 4; the fourth
  // never shows. The deadline forms a 3-world, ranks reassigned densely.
  const std::vector<int> old_ranks = {0, 2, 3};
  std::vector<Result<WorldView>> views;
  for (int i = 0; i < 3; ++i) views.emplace_back(Status::OK());
  RunOnRanks(3, [&](int i) { views[i] = store.Join(old_ranks[i], 4); });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(views[i].ok()) << views[i].status().ToString();
    EXPECT_EQ(views[i]->world_size, 3);
    EXPECT_EQ(views[i]->rank, i);  // 0->0, 2->1, 3->2
    ASSERT_EQ(views[i]->members.size(), 3u);
    EXPECT_EQ(views[i]->members[1], 2);
    EXPECT_EQ(views[i]->members[2], 3);
  }
}

TEST(RendezvousTest, ExpectationMismatchIsRejected) {
  RendezvousStore::Options opts;
  opts.join_timeout_ms = 2000;
  RendezvousStore store(opts);
  std::thread first([&] {
    Result<WorldView> v = store.Join(0, 2);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(v->world_size, 2);
  });
  // Let the first joiner open the round pinned at 2 participants.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Result<WorldView> bad = store.Join(1, 3);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("mismatch"), std::string::npos)
      << bad.status().message();
  Result<WorldView> good = store.Join(1, 2);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  first.join();
}

TEST(RendezvousTest, FreshJoinersTakeHighestRanksAndGenerationsAdvance) {
  RendezvousStore store;
  // Generation 1: old ranks {0, 1}.
  RunOnRanks(2, [&](int r) {
    Result<WorldView> v = store.Join(r, 2);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->generation, 1);
  });
  // Generation 2: survivor (old rank 1) + a fresh joiner fenced to sit out
  // generation 1 (it was launched knowing only "join the SECOND world").
  Result<WorldView> survivor = Status::OK();
  Result<WorldView> fresh = Status::OK();
  std::thread joiner(
      [&] { fresh = store.Join(-1, 2, /*min_generation=*/2); });
  std::thread old([&] { survivor = store.Join(1, 2); });
  joiner.join();
  old.join();
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(survivor->generation, 2);
  EXPECT_EQ(fresh->generation, 2);
  EXPECT_EQ(survivor->rank, 0);  // survivors come first
  EXPECT_EQ(fresh->rank, 1);     // fresh joiners take the high ranks
  ASSERT_EQ(fresh->members.size(), 2u);
  EXPECT_EQ(fresh->members[0], 1);
  EXPECT_EQ(fresh->members[1], -1);
}

// ---------------------------------------------------------------------------
// Sharded checkpoint set discovery.
// ---------------------------------------------------------------------------

TEST(ShardedCkptTest, IncompleteSetsAreInvisible) {
  const std::string stem = TempStem("setscan");
  RemoveShardFiles(stem);
  const int w = 2;
  comm::DeviceMesh mesh(w, w);
  std::vector<std::shared_ptr<core::FsdpState>> states(w);
  std::vector<nn::ModulePtr> models(w);
  RunOnRanks(w, [&](int r) {
    models[r] = MakeModel(42);
    states[r] = core::FullyShard(models[r], mesh, r, DrillFsdpOptions());
    ASSERT_TRUE(
        elastic::SaveShardedCheckpoint(stem, 0, *states[r], nullptr).ok());
  });
  EXPECT_EQ(elastic::LatestShardedStep(stem), 0);
  // A half-written later set (only rank 0's file) must be ignored.
  RunOnRanks(1, [&](int r) {
    ASSERT_TRUE(
        elastic::SaveShardedCheckpoint(stem, 5, *states[r], nullptr).ok());
  });
  EXPECT_EQ(elastic::LatestShardedStep(stem), 0);
  auto latest = elastic::AssembleShardedCheckpoint(stem, 0);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->world_size, 2);
  EXPECT_EQ(latest->train_step, 0);
  // Asking for the incomplete step explicitly fails.
  EXPECT_FALSE(elastic::AssembleShardedCheckpoint(stem, 5).ok());
  RemoveShardFiles(stem);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Byte positions of the first unit's padded size and of its first param's
/// first dim and offset, found by walking the shard-file header format.
struct FirstParamFields {
  size_t padded_numel = 0;
  size_t first_dim = 0;
  size_t offset = 0;
};

FirstParamFields LocateFirstParam(const std::string& bytes) {
  auto u32_at = [&](size_t pos) {
    uint32_t v = 0;
    std::memcpy(&v, bytes.data() + pos, 4);
    return v;
  };
  FirstParamFields f;
  size_t pos = 8 + 4 + 4 + 4 + 8 + 4;  // magic .. n_units
  pos += 4 + u32_at(pos);             // unit name
  pos += 8;                           // total_numel
  f.padded_numel = pos;
  pos += 8 + 4;                       // padded_numel, n_params
  pos += 4 + u32_at(pos);             // fqn
  const uint32_t ndim = u32_at(pos);
  EXPECT_GE(ndim, 1u);
  f.first_dim = pos + 4;
  f.offset = f.first_dim + 8 * ndim;
  return f;
}

std::string WithI64(std::string bytes, size_t pos, int64_t v) {
  std::memcpy(bytes.data() + pos, &v, 8);
  return bytes;
}

std::string WithU32(std::string bytes, size_t pos, uint32_t v) {
  std::memcpy(bytes.data() + pos, &v, 4);
  return bytes;
}

/// Saves a fresh model's world-size-`w` shard set at `step` under `stem`.
void SaveShardSet(const std::string& stem, int64_t step, int w) {
  comm::DeviceMesh mesh(w, w);
  RunOnRanks(w, [&](int r) {
    auto state = core::FullyShard(MakeModel(42), mesh, r, DrillFsdpOptions());
    ASSERT_TRUE(
        elastic::SaveShardedCheckpoint(stem, step, *state, nullptr).ok());
  });
}

// Corrupt header values come back as a Status: nothing is sliced or
// allocated from an unchecked offset, dim or size.
TEST(ShardedCkptTest, CorruptFilesReturnStatus) {
  const std::string stem = TempStem("corrupt");
  RemoveShardFiles(stem);
  const int w = 2;
  SaveShardSet(stem, 0, w);
  ASSERT_TRUE(elastic::AssembleShardedCheckpoint(stem, 0).ok());
  const std::string rank0 = elastic::ShardFileName(stem, 0, 0, w);
  const std::string rank1 = elastic::ShardFileName(stem, 0, 1, w);
  const std::string good0 = ReadBytes(rank0);
  const std::string good1 = ReadBytes(rank1);
  ASSERT_GT(good1.size(), 64u);

  // Rank 1's file cut short anywhere.
  const size_t stride = std::max<size_t>(1, good1.size() / 256);
  for (size_t len = 0; len < good1.size(); len += stride) {
    WriteBytes(rank1, good1.substr(0, len));
    EXPECT_FALSE(elastic::AssembleShardedCheckpoint(stem, 0).ok())
        << "rank 1 truncated to " << len << " bytes";
  }
  WriteBytes(rank1, good1);

  // Rank 0's layout is the one assembly slices with.
  const FirstParamFields f = LocateFirstParam(good0);
  int64_t padded = 0;
  std::memcpy(&padded, good0.data() + f.padded_numel, 8);
  const std::vector<std::pair<const char*, std::string>> corruptions = {
      {"offset past the end", WithI64(good0, f.offset, padded + 1)},
      {"offset at the end", WithI64(good0, f.offset, padded)},
      {"negative offset", WithI64(good0, f.offset, -1)},
      {"negative dim", WithI64(good0, f.first_dim, -1)},
      {"dim overflowing numel", WithI64(good0, f.first_dim, int64_t{1} << 62)},
      {"padded numel 2^62", WithI64(good0, f.padded_numel, int64_t{1} << 62)},
      {"negative padded numel", WithI64(good0, f.padded_numel, -2)},
  };
  for (const auto& [what, bytes] : corruptions) {
    WriteBytes(rank0, bytes);
    auto assembled = elastic::AssembleShardedCheckpoint(stem, 0);
    EXPECT_FALSE(assembled.ok()) << what;
    EXPECT_EQ(assembled.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << assembled.status().ToString();
  }
  WriteBytes(rank0, good0);
  EXPECT_TRUE(elastic::AssembleShardedCheckpoint(stem, 0).ok());

  // A header world size N that disagrees with the file name.
  constexpr size_t kWorldSizeAt = 8 + 4;  // after magic and version
  for (uint32_t n : {0u, 1u, 4u, 0xFFFFFFFFu}) {
    WriteBytes(rank1, WithU32(good1, kWorldSizeAt, n));
    auto assembled = elastic::AssembleShardedCheckpoint(stem, 0);
    EXPECT_EQ(assembled.status().code(), StatusCode::kInvalidArgument)
        << "header N " << n << ": " << assembled.status().ToString();
  }
  WriteBytes(rank1, good1);

  // Seeded random byte flips over every file of the set: each read returns
  // OK or a Status, never aborts or allocates past what the file holds.
  Rng rng(/*seed=*/24, /*stream=*/0);
  int rejected = 0;
  for (const auto& [path, good] :
       {std::pair{rank0, good0}, std::pair{rank1, good1}}) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string bytes = good;
      const uint64_t flips = 1 + rng.NextBelow(4);
      for (uint64_t i = 0; i < flips; ++i) {
        bytes[rng.NextBelow(bytes.size())] ^=
            static_cast<char>(1 + rng.NextBelow(255));
      }
      WriteBytes(path, bytes);
      rejected += !elastic::AssembleShardedCheckpoint(stem, 0).ok();
      EXPECT_EQ(elastic::LatestShardedStep(stem), 0);  // names untouched
    }
    WriteBytes(path, good);
  }
  EXPECT_GT(rejected, 0);

  // World-mismatched sets at one step: a 4-set next to the 2-set. Either
  // could be the stale one, so assembly names both and loads neither.
  SaveShardSet(stem, 0, 4);
  auto both = elastic::AssembleShardedCheckpoint(stem, 0);
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(both.status().message().find(rank0), std::string::npos)
      << both.status().ToString();
  EXPECT_NE(both.status().message().find(elastic::ShardFileName(stem, 0, 0, 4)),
            std::string::npos)
      << both.status().ToString();
  EXPECT_EQ(elastic::LatestShardedStep(stem), 0);
  const std::string four3 = elastic::ShardFileName(stem, 0, 3, 4);
  const std::string good_four3 = ReadBytes(four3);
  std::filesystem::remove(four3);
  auto two_only = elastic::AssembleShardedCheckpoint(stem, 0);
  ASSERT_TRUE(two_only.ok()) << two_only.status().ToString();
  EXPECT_EQ(two_only->world_size, 2);
  WriteBytes(four3, good_four3);
  std::filesystem::remove(rank1);
  auto four_only = elastic::AssembleShardedCheckpoint(stem, 0);
  ASSERT_TRUE(four_only.ok()) << four_only.status().ToString();
  EXPECT_EQ(four_only->world_size, 4);
  // The 4-set's rank files under the 2-set's names (the 4-set incomplete,
  // so the 2-set is the one assembled).
  std::filesystem::remove(four3);
  for (int r = 0; r < w; ++r) {
    WriteBytes(elastic::ShardFileName(stem, 0, r, w),
               ReadBytes(elastic::ShardFileName(stem, 0, r, 4)));
  }
  auto renamed = elastic::AssembleShardedCheckpoint(stem, 0);
  EXPECT_EQ(renamed.status().code(), StatusCode::kInvalidArgument)
      << renamed.status().ToString();
  RemoveShardFiles(stem);
}

// ---------------------------------------------------------------------------
// Drill 1: kill a rank mid-backward; recovered convergence is bitwise
// identical to an uninterrupted run resumed from the same checkpoint.
// ---------------------------------------------------------------------------

TEST(ElasticDrillTest, KillRankMidBackwardRecoversBitwiseIdentical) {
  UseTempArtifactDir();
  const std::string stem = TempStem("kill_drill");
  RemoveShardFiles(stem);
  const int w = 8;
  const int64_t kSteps = 6;
  const std::string victim = ProbeUnitName(1);
  const int64_t recoveries_before = Counter("elastic.recoveries");
  const int64_t lost_before = Counter("elastic.ranks_lost");

  DriverConfig cfg = BaseDrillConfig();
  cfg.total_steps = kSteps;
  cfg.ckpt_interval = 2;
  cfg.ckpt_stem = stem;
  cfg.validate_plan_after_recovery = true;
  cfg.name = "kill_drill";
  // Generation 1 only: rank 3's comm worker dies on the victim unit's
  // gradient ReduceScatter of step 3 — mid-backward, after checkpoints at
  // steps 1 (complete) and 3 (in progress, never completed by rank 3).
  cfg.post_build = [&](comm::DeviceMesh& mesh, int64_t generation) {
    if (generation != 1) return;
    comm::FaultSpec f;
    f.kind = FaultKind::kCrash;
    f.rank = 3;
    f.tag = victim;
    f.step = 3;
    f.op_kind = static_cast<int>(obs::EventKind::kReduceScatter);
    mesh.ShardGroup(0).communicator()->InjectFault(f);
  };

  TrainLoopDriver driver(cfg);
  std::vector<RunResult> results(w);
  RunOnRanks(w, [&](int r) { results[r] = driver.RunRank(r, w); });

  // Exactly the scripted rank died; everyone else recovered and finished.
  ASSERT_TRUE(results[3].died);
  EXPECT_EQ(results[3].final_rank, 3);
  for (int r = 0; r < w; ++r) {
    if (r == 3) continue;
    ASSERT_TRUE(results[r].status.ok())
        << "rank " << r << ": " << results[r].status.ToString();
    EXPECT_FALSE(results[r].died);
    EXPECT_EQ(results[r].recoveries, 1) << "rank " << r;
    EXPECT_EQ(results[r].final_world, w - 1);
    EXPECT_EQ(results[r].last_resume_ckpt_step, 1) << "rank " << r;
    ASSERT_FALSE(results[r].final_state.empty());
  }

  // Reference: an UNINTERRUPTED 7-rank run resumed from the same checkpoint
  // the survivors rolled back to (no saving — don't disturb the set).
  DriverConfig ref = BaseDrillConfig();
  ref.total_steps = kSteps;
  ref.load_stem = stem;
  ref.load_step = results[0].last_resume_ckpt_step;
  TrainLoopDriver ref_driver(ref);
  std::vector<RunResult> ref_results(w - 1);
  RunOnRanks(w - 1,
             [&](int r) { ref_results[r] = ref_driver.RunRank(r, w - 1); });

  // Bitwise-identical convergence: deterministic rank-ordered reductions
  // make the recovered world's remaining steps reproduce the reference
  // exactly — zero tolerance, parameters AND Adam moments.
  ASSERT_TRUE(ref_results[0].status.ok())
      << ref_results[0].status.ToString();
  ASSERT_EQ(results[0].final_state.size(), ref_results[0].final_state.size());
  for (size_t i = 0; i < results[0].final_state.size(); ++i) {
    EXPECT_EQ(results[0].final_state[i].first,
              ref_results[0].final_state[i].first);
    ExpectAllClose(results[0].final_state[i].second,
                   ref_results[0].final_state[i].second, 0, 0);
  }
  ASSERT_EQ(results[0].final_optim.size(), ref_results[0].final_optim.size());
  for (size_t i = 0; i < results[0].final_optim.size(); ++i) {
    EXPECT_EQ(results[0].final_optim[i].fqn, ref_results[0].final_optim[i].fqn);
    EXPECT_EQ(results[0].final_optim[i].step,
              ref_results[0].final_optim[i].step);
    ExpectAllClose(results[0].final_optim[i].exp_avg,
                   ref_results[0].final_optim[i].exp_avg, 0, 0);
    ExpectAllClose(results[0].final_optim[i].exp_avg_sq,
                   ref_results[0].final_optim[i].exp_avg_sq, 0, 0);
  }

  // The recovery artifact is a valid versioned artifact with the story.
  const std::string artifact =
      testing::ProcessTempDir() + "/RECOVERY_kill_drill.json";
  ASSERT_TRUE(std::filesystem::exists(artifact));
  auto parsed = obs::ParseJsonFile(artifact);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(obs::ValidateArtifactJson(*parsed).ok());
  const obs::JsonValue& root = *parsed;
  EXPECT_EQ(root["old_world"].AsNumber(), 8);
  EXPECT_EQ(root["new_world"].AsNumber(), 7);
  EXPECT_EQ(root["generation"].AsNumber(), 2);
  const obs::JsonArray& dead = root["dead_ranks"].AsArray();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].AsNumber(), 3);
  EXPECT_EQ(root["ckpt_step"].AsNumber(), 1);
  EXPECT_EQ(root["resume_step"].AsNumber(), 2);
  EXPECT_FALSE(root["flight_dump"].AsString().empty());

  EXPECT_GE(Counter("elastic.recoveries"), recoveries_before + 1);
  EXPECT_GE(Counter("elastic.ranks_lost"), lost_before + 1);
  EXPECT_GE(obs::MetricsRegistry::Get()
                .GetHistogram("elastic.time_to_recover_us")
                .count(),
            1);
  RemoveShardFiles(stem);
}

// ---------------------------------------------------------------------------
// Drill 2: shrink 8 -> 6 after losing TWO ranks on the same collective.
// ---------------------------------------------------------------------------

TEST(ElasticDrillTest, ShrinkAfterDoubleRankLoss) {
  UseTempArtifactDir();
  const std::string stem = TempStem("shrink_drill");
  RemoveShardFiles(stem);
  const int w = 8;
  const std::string victim = ProbeUnitName(1);

  DriverConfig cfg = BaseDrillConfig();
  cfg.total_steps = 4;
  cfg.ckpt_interval = 2;
  cfg.ckpt_stem = stem;
  cfg.name = "shrink_drill";
  // Both workers park on the SAME collective: the watchdog can only name
  // one culprit, but the progress table marks both crashed — the dead-set
  // union is what sizes the 6-world.
  cfg.post_build = [&](comm::DeviceMesh& mesh, int64_t generation) {
    if (generation != 1) return;
    for (int dead : {3, 5}) {
      comm::FaultSpec f;
      f.kind = FaultKind::kCrash;
      f.rank = dead;
      f.tag = victim;
      f.step = 3;
      f.op_kind = static_cast<int>(obs::EventKind::kReduceScatter);
      mesh.ShardGroup(0).communicator()->InjectFault(f);
    }
  };

  TrainLoopDriver driver(cfg);
  std::vector<RunResult> results(w);
  RunOnRanks(w, [&](int r) { results[r] = driver.RunRank(r, w); });

  ASSERT_TRUE(results[3].died);
  ASSERT_TRUE(results[5].died);
  for (int r = 0; r < w; ++r) {
    if (r == 3 || r == 5) continue;
    ASSERT_TRUE(results[r].status.ok())
        << "rank " << r << ": " << results[r].status.ToString();
    EXPECT_EQ(results[r].final_world, 6);
    EXPECT_EQ(results[r].recoveries, 1);
    EXPECT_EQ(results[r].last_resume_ckpt_step, 1);
  }
  // All six survivors agree on the final full state (it is a collective
  // gather — but compare across ranks anyway to pin the contract).
  for (int r = 1; r < w; ++r) {
    if (r == 3 || r == 5) continue;
    ASSERT_EQ(results[r].final_state.size(), results[0].final_state.size());
    for (size_t i = 0; i < results[0].final_state.size(); ++i) {
      ExpectAllClose(results[r].final_state[i].second,
                     results[0].final_state[i].second, 0, 0);
    }
  }
  RemoveShardFiles(stem);
}

// ---------------------------------------------------------------------------
// Drill 3: planned grow 6 -> 8; fresh joiners reshard in.
// ---------------------------------------------------------------------------

TEST(ElasticDrillTest, PlannedGrowReshardsInFreshJoiners) {
  UseTempArtifactDir();
  const std::string stem = TempStem("grow_drill");
  RemoveShardFiles(stem);
  const int w0 = 6;
  const int w1 = 8;
  const int64_t kSteps = 4;

  DriverConfig cfg = BaseDrillConfig();
  cfg.total_steps = kSteps;
  cfg.ckpt_stem = stem;
  cfg.resize = {/*at_step=*/2, /*new_world=*/w1};
  cfg.name = "grow_drill";

  TrainLoopDriver driver(cfg);
  std::vector<RunResult> results(w1);
  std::vector<std::thread> threads;
  for (int r = 0; r < w0; ++r) {
    threads.emplace_back([&, r] { results[r] = driver.RunRank(r, w0); });
  }
  for (int j = w0; j < w1; ++j) {
    threads.emplace_back([&, j] {
      // Fresh capacity: fenced to the post-resize generation.
      results[j] = driver.RunJoiner(/*min_generation=*/2, w1);
    });
  }
  for (auto& t : threads) t.join();

  std::vector<int> joiner_ranks;
  for (int r = 0; r < w1; ++r) {
    ASSERT_TRUE(results[r].status.ok())
        << "rank " << r << ": " << results[r].status.ToString();
    EXPECT_EQ(results[r].final_world, w1);
    if (r < w0) {
      // Survivors keep their ranks.
      EXPECT_EQ(results[r].final_rank, r);
      EXPECT_EQ(results[r].steps_completed, kSteps);
    } else {
      // Joiners take the high ranks in ARRIVAL order — which of the two
      // threads gets 6 vs 7 is scheduling-dependent, so assert the set.
      joiner_ranks.push_back(results[r].final_rank);
      EXPECT_EQ(results[r].steps_completed, kSteps - 2);
    }
  }
  std::sort(joiner_ranks.begin(), joiner_ranks.end());
  EXPECT_EQ(joiner_ranks, (std::vector<int>{w0, w1 - 1}));

  // Reference: an 8-rank run resumed from the same pre-resize checkpoint
  // runs the same post-resize steps — bitwise identical.
  DriverConfig ref = BaseDrillConfig();
  ref.total_steps = kSteps;
  ref.load_stem = stem;
  ref.load_step = 1;
  TrainLoopDriver ref_driver(ref);
  std::vector<RunResult> ref_results(w1);
  RunOnRanks(w1, [&](int r) { ref_results[r] = ref_driver.RunRank(r, w1); });
  ASSERT_TRUE(ref_results[0].status.ok())
      << ref_results[0].status.ToString();
  ASSERT_EQ(results[0].final_state.size(), ref_results[0].final_state.size());
  for (size_t i = 0; i < results[0].final_state.size(); ++i) {
    ExpectAllClose(results[0].final_state[i].second,
                   ref_results[0].final_state[i].second, 0, 0);
  }
  RemoveShardFiles(stem);
}

}  // namespace
}  // namespace fsdp
