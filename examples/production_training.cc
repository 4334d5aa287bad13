// Production-style training loop: everything the paper's Sec 5.4 setup uses,
// together — activation checkpointing, BF16 native mixed precision, backward
// prefetching, the rate limiter, Adam, global gradient clipping (the Sec
// 7.2.1 communicating kind), and checkpoint/restore of both parameters and
// sharded optimizer state mid-run.
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "autograd/engine.h"
#include "core/fsdp.h"
#include "core/fsdp_utils.h"
#include "core/optim_state.h"
#include "core/serialize.h"
#include "nn/transformer.h"
#include "optim/optimizer.h"

using namespace fsdp;

int main() {
  const int world = 4;
  comm::DeviceMesh mesh(world, world);

  nn::TransformerConfig cfg;
  cfg.vocab_size = 211;
  cfg.max_seq = 16;
  cfg.dim = 48;
  cfg.num_heads = 4;
  cfg.num_layers = 4;
  cfg.checkpoint_blocks = true;  // activation checkpointing, Sec 5.4

  // Checkpoints go through a real file on disk, like a real job would, in a
  // directory of this process's own so concurrent runs never collide.
  const std::filesystem::path ckpt_dir =
      std::filesystem::temp_directory_path() /
      ("fsdp_production_example_" + std::to_string(::getpid()));
  std::filesystem::create_directories(ckpt_dir);
  const std::string ckpt_path = (ckpt_dir / "model.ckpt").string();

  auto run_phase = [&](const char* phase, int steps, bool restore) {
    std::vector<float> losses(world);
    RunOnRanks(world, [&](int rank) {
      // Deferred init: the model is built on the fake device and
      // materialized shard-by-shard by FSDP.
      nn::InitCtx fake(Device::kFake, 4242);
      auto model = std::make_shared<nn::TransformerModel>(cfg, fake);

      core::FsdpOptions opts;
      opts.strategy = core::ShardingStrategy::kFullShard;
      opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
      opts.mixed_precision.param_dtype = DType::kBF16;
      opts.mixed_precision.reduce_dtype = DType::kBF16;
      opts.backward_prefetch = true;
      opts.limit_all_gathers = 2;
      auto state = core::FullyShard(model, mesh, rank, opts);
      optim::Adam adam(state->Parameters(),
                       {.lr = 1e-3f, .weight_decay = 0.01f,
                        .decoupled_weight_decay = true});

      if (restore) {
        auto loaded = core::LoadCheckpoint(ckpt_path);
        loaded.status().Check();
        state->LoadFullStateDict(loaded->state_dict);
        core::LoadFullOptimState(*state, adam, loaded->optim_state);
      }

      std::vector<int64_t> toks(16), tgts(16);
      for (int i = 0; i < 16; ++i) {
        toks[i] = (rank * 37 + i * 11) % 211;
        tgts[i] = (toks[i] + 1) % 211;
      }
      Tensor tokens = ops::IndexTensor(toks, {1, 16});
      Tensor targets = ops::IndexTensor(tgts, {16});

      for (int step = 0; step < steps; ++step) {
        adam.ZeroGrad();
        Tensor loss = ops::CrossEntropy((*model)(tokens), targets);
        losses[rank] = loss.item();
        autograd::RunBackward(loss);
        const float gnorm = core::ClipGradNorm(*state, 1.0f);
        adam.Step();
        if (rank == 0 && step % 4 == 0) {
          std::printf("  [%s] step %2d loss %.4f grad-norm %.3f\n", phase,
                      step, losses[rank], gnorm);
        }
      }

      // Write the checkpoint (parameters + sharded optimizer state) to
      // disk; the gather is collective, the write happens on rank 0.
      core::Checkpoint ckpt;
      ckpt.state_dict = state->FullStateDict();
      ckpt.optim_state = core::GatherFullOptimState(*state, adam);
      if (rank == 0) core::SaveCheckpoint(ckpt_path, ckpt).Check();
    });
    return losses[0];
  };

  std::printf("phase 1: fresh model, %d ranks, BF16 + ckpt + clip\n", world);
  const float end_phase1 = run_phase("train", 12, /*restore=*/false);
  std::printf("checkpoint written to %s\n", ckpt_path.c_str());

  std::printf("phase 2: restart from checkpoint, training continues\n");
  const float start_phase2 = run_phase("resume", 8, /*restore=*/true);

  std::printf("loss at end of phase 1: %.4f; at start of phase 2: %.4f "
              "(resumed, not reset)\n",
              end_phase1, start_phase2);
  std::filesystem::remove_all(ckpt_dir);
  std::printf("production training example done.\n");
  return start_phase2 < end_phase1 * 1.5f ? 0 : 1;
}
