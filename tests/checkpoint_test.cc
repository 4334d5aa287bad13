// Activation checkpointing tests: gradient equivalence, memory savings,
// composition with FSDP (re-AllGather on recompute), and the helpers.
#include <gtest/gtest.h>

#include <map>

#include "autograd/engine.h"
#include "core/fsdp.h"
#include "core/fsdp_utils.h"
#include "nn/checkpoint.h"
#include "nn/transformer.h"
#include "optim/optimizer.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

using fsdp::testing::ExpectAllClose;

nn::ModulePtr MlpStack(uint64_t seed, int64_t dim, int blocks,
                       bool checkpoint) {
  nn::InitCtx ctx(Device::kCpu, seed);
  auto seq = std::make_shared<nn::Sequential>();
  for (int b = 0; b < blocks; ++b) {
    nn::ModulePtr mlp = std::make_shared<nn::MLP>(dim, 2 * dim, ctx);
    if (checkpoint) mlp = std::make_shared<nn::Checkpoint>(mlp);
    seq->Append(mlp);
  }
  return seq;
}

TEST(CheckpointTest, GradientsMatchNonCheckpointed) {
  const int64_t dim = 8;
  Rng rng(1, 0);
  Tensor x = Tensor::Randn({4, dim}, rng);
  x.set_requires_grad(true);
  Tensor x2 = x.Clone();
  x2.set_requires_grad(true);

  auto plain = MlpStack(9, dim, 3, false);
  auto ckpt = MlpStack(9, dim, 3, true);

  Tensor y1 = (*plain)(x);
  autograd::RunBackward(ops::Sum(ops::Mul(y1, y1)));
  Tensor y2 = (*ckpt)(x2);
  ASSERT_TRUE(y2.AllClose(y1, 1e-5f, 1e-6f));
  autograd::RunBackward(ops::Sum(ops::Mul(y2, y2)));

  // Input gradients agree.
  ExpectAllClose(x2.grad(), x.grad(), 1e-4f, 1e-6f);
  // Parameter gradients agree (same registration order).
  auto p1 = plain->NamedParameters();
  auto p2 = ckpt->NamedParameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    ASSERT_TRUE(p2[i].second->grad().defined()) << p2[i].first;
    ASSERT_TRUE(
        p2[i].second->grad().AllClose(p1[i].second->grad(), 1e-4f, 1e-6f))
        << p2[i].first;
  }
}

TEST(CheckpointTest, ForwardKeepsOnlyBlockInputsAlive) {
  // After a checkpointed forward, live bytes must be well below the
  // non-checkpointed forward's (whose graph pins every intermediate).
  const int64_t dim = 64;
  Rng rng(2, 0);
  Tensor x = Tensor::Randn({32, dim}, rng);

  auto measure = [&](bool checkpoint) {
    auto model = MlpStack(3, dim, 6, checkpoint);
    const int64_t before = Storage::live_bytes();
    Tensor y = (*model)(x);
    const int64_t held = Storage::live_bytes() - before;
    // Keep the graph alive until measured.
    (void)y;
    return held;
  };
  const int64_t with_graph = measure(false);
  const int64_t with_ckpt = measure(true);
  EXPECT_LT(with_ckpt, with_graph / 3)
      << "ckpt " << with_ckpt << " vs full " << with_graph;
}

TEST(CheckpointTest, MultipleBackwardsThroughSameCheckpoint) {
  // Two losses from two forwards; each backward recomputes independently.
  const int64_t dim = 6;
  auto model = MlpStack(5, dim, 2, true);
  Rng rng(4, 0);
  Tensor a = Tensor::Randn({2, dim}, rng);
  Tensor b = Tensor::Randn({2, dim}, rng);
  Tensor la = ops::Sum((*model)(a));
  Tensor lb = ops::Sum((*model)(b));
  autograd::RunBackward(la);
  autograd::RunBackward(lb);
  // Reference: accumulate both on a plain model.
  auto plain = MlpStack(5, dim, 2, false);
  autograd::RunBackward(ops::Sum((*plain)(a)));
  autograd::RunBackward(ops::Sum((*plain)(b)));
  auto p1 = plain->NamedParameters();
  auto p2 = model->NamedParameters();
  for (size_t i = 0; i < p1.size(); ++i) {
    ASSERT_TRUE(
        p2[i].second->grad().AllClose(p1[i].second->grad(), 1e-4f, 1e-6f));
  }
}

TEST(CheckpointTest, ApplyActivationCheckpointingWrapsSequentialChildren) {
  auto model = MlpStack(7, 8, 3, false);
  const int wrapped = nn::ApplyActivationCheckpointing(*model, {"MLP"});
  EXPECT_EQ(wrapped, 3);
  int ckpt_children = 0;
  for (auto& [name, child] : model->Children()) {
    if (child->TypeName() == "Checkpoint") ++ckpt_children;
  }
  EXPECT_EQ(ckpt_children, 3);
  // Still trains like the eager variant.
  Rng rng(6, 0);
  Tensor x = Tensor::Randn({2, 8}, rng);
  autograd::RunBackward(ops::Sum((*model)(x)));
  for (auto& [name, slot] : model->NamedParameters()) {
    ASSERT_TRUE(slot->grad().defined()) << name;
  }
}

TEST(CheckpointTest, TransformerConfigFlagMatchesEager) {
  nn::TransformerConfig cfg;
  cfg.vocab_size = 17;
  cfg.max_seq = 4;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  Tensor tokens = ops::IndexTensor({1, 2, 3, 4}, {1, 4});
  Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});

  nn::InitCtx ctx1(Device::kCpu, 31);
  nn::TransformerModel plain(cfg, ctx1);
  autograd::RunBackward(ops::CrossEntropy(plain(tokens), targets));

  cfg.checkpoint_blocks = true;
  nn::InitCtx ctx2(Device::kCpu, 31);
  nn::TransformerModel ckpt(cfg, ctx2);
  autograd::RunBackward(ops::CrossEntropy(ckpt(tokens), targets));

  auto p1 = plain.NamedParameters();
  auto p2 = ckpt.NamedParameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    ASSERT_TRUE(
        p2[i].second->grad().AllClose(p1[i].second->grad(), 1e-4f, 1e-6f))
        << p2[i].first;
  }
}

TEST(CheckpointFsdpTest, TrainingMatchesLocalAndReAllGathers) {
  // FSDP + checkpointing (the paper's Sec 5.4 configuration): gradients must
  // match local training, and the event log must show the unit being
  // re-AllGathered for the recompute.
  const int w = 2;
  nn::TransformerConfig cfg;
  cfg.vocab_size = 13;
  cfg.max_seq = 4;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.checkpoint_blocks = true;
  Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});
  auto tokens_for = [](int r) {
    return ops::IndexTensor({(r * 3 + 1) % 13, (r * 5 + 2) % 13,
                             (r + 3) % 13, (r + 4) % 13},
                            {1, 4});
  };

  // Local reference (also checkpointed — values identical either way).
  std::map<std::string, Tensor> ref;
  {
    nn::InitCtx ctx(Device::kCpu, 42);
    nn::TransformerModel model(cfg, ctx);
    for (int r = 0; r < w; ++r) {
      Tensor loss = ops::CrossEntropy(model(tokens_for(r)), targets);
      autograd::RunBackward(ops::ScalarMul(loss, 1.f / w));
    }
    for (auto& [n, slot] : model.NamedParameters()) ref[n] = slot->grad();
  }

  comm::DeviceMesh mesh(w, w);
  RunOnRanks(w, [&](int r) {
    nn::InitCtx ctx(Device::kCpu, 42);
    auto model = std::make_shared<nn::TransformerModel>(cfg, ctx);
    core::FsdpOptions opts;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    auto state = core::FullyShard(model, mesh, r, opts);
    Tensor loss = ops::CrossEntropy((*model)(tokens_for(r)), targets);
    autograd::RunBackward(loss);
    for (int u = 0; u < state->num_units(); ++u) {
      for (auto& [fqn, grad] : state->unit_handle(u).GatherFullGrads()) {
        ASSERT_TRUE(grad.defined()) << fqn;
        ASSERT_TRUE(grad.AllClose(ref.at(fqn), 1e-4f, 1e-5f))
            << "rank " << r << " " << fqn;
      }
    }
    // Each checkpointed block is AllGathered twice: once in forward, once
    // for the backward recompute.
    int ag_block0 = 0;
    for (const auto& e : state->trace_events()) {
      if (obs::RenderEvent(e) == "AG:blocks.0.inner") ++ag_block0;
    }
    ASSERT_EQ(ag_block0, 2) << "expected forward + recompute AllGathers";
  });
}

// ---------------------------------------------------------- grad clipping

TEST(ClipGradNormTest, MatchesLocalGlobalNorm) {
  const int w = 4;
  // Local reference: global norm over all grads, clip to 0.05.
  float ref_norm = 0;
  std::map<std::string, Tensor> ref_clipped;
  {
    nn::InitCtx ctx(Device::kCpu, 42);
    nn::TransformerConfig cfg;
    cfg.vocab_size = 13;
    cfg.max_seq = 4;
    cfg.dim = 8;
    cfg.num_heads = 2;
    cfg.num_layers = 2;
    nn::TransformerModel model(cfg, ctx);
    for (int r = 0; r < w; ++r) {
      Tensor tokens = ops::IndexTensor(
          {(r * 3 + 1) % 13, (r * 5 + 2) % 13, (r + 3) % 13, (r + 4) % 13},
          {1, 4});
      Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});
      Tensor loss = ops::CrossEntropy(model(tokens), targets);
      autograd::RunBackward(ops::ScalarMul(loss, 1.f / w));
    }
    double sq = 0;
    for (auto& [n, slot] : model.NamedParameters()) {
      Tensor g = slot->grad();
      for (int64_t i = 0; i < g.numel(); ++i) {
        sq += static_cast<double>(g.data()[i]) * g.data()[i];
      }
    }
    ref_norm = static_cast<float>(std::sqrt(sq));
    const float scale = 0.05f / ref_norm;
    for (auto& [n, slot] : model.NamedParameters()) {
      Tensor g = slot->grad().Clone();
      g.Mul_(scale);
      ref_clipped[n] = g;
    }
  }
  ASSERT_GT(ref_norm, 0.05f);  // clipping must actually engage

  comm::DeviceMesh mesh(w, w);
  RunOnRanks(w, [&](int r) {
    nn::InitCtx ctx(Device::kCpu, 42);
    nn::TransformerConfig cfg;
    cfg.vocab_size = 13;
    cfg.max_seq = 4;
    cfg.dim = 8;
    cfg.num_heads = 2;
    cfg.num_layers = 2;
    auto model = std::make_shared<nn::TransformerModel>(cfg, ctx);
    core::FsdpOptions opts;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    auto state = core::FullyShard(model, mesh, r, opts);
    Tensor tokens = ops::IndexTensor(
        {(r * 3 + 1) % 13, (r * 5 + 2) % 13, (r + 3) % 13, (r + 4) % 13},
        {1, 4});
    Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});
    Tensor loss = ops::CrossEntropy((*model)(tokens), targets);
    autograd::RunBackward(loss);

    const float norm = core::ClipGradNorm(*state, 0.05f);
    ASSERT_NEAR(norm, ref_norm, 1e-3f) << "rank " << r;
    for (int u = 0; u < state->num_units(); ++u) {
      for (auto& [fqn, grad] : state->unit_handle(u).GatherFullGrads()) {
        ASSERT_TRUE(grad.AllClose(ref_clipped.at(fqn), 1e-3f, 1e-6f)) << fqn;
      }
    }
  });
}

TEST(ClipGradNormTest, HybridShardingCountsEachElementOnce) {
  // With F < W each shard group holds a full replica; the norm must not be
  // inflated by the replication factor.
  const int w = 4, f = 2;
  comm::DeviceMesh mesh(w, f);
  std::vector<float> norms(w);
  RunOnRanks(w, [&](int r) {
    nn::InitCtx ctx(Device::kCpu, 8);
    auto lin = std::make_shared<nn::Linear>(4, 4, false, ctx);
    core::FsdpOptions opts;
    opts.strategy = core::ShardingStrategy::kHybridShard;
    auto state = core::FullyShard(lin, mesh, r, opts);
    Rng rng(1, 0);
    Tensor x = Tensor::Ones({2, 4});
    Tensor y = (*lin)(x);
    autograd::RunBackward(ops::Sum(y));
    norms[r] = core::ClipGradNorm(*state, 1e9f);  // no clip, just the norm
  });
  // All ranks agree, including across replicas.
  for (int r = 1; r < w; ++r) ASSERT_NEAR(norms[r], norms[0], 1e-4f);
  // Reference: local model, same loss summed over... each rank used the
  // same data, so the averaged gradient equals the local gradient.
  nn::InitCtx ctx(Device::kCpu, 8);
  nn::Linear lin(4, 4, false, ctx);
  Tensor y = lin(Tensor::Ones({2, 4}));
  autograd::RunBackward(ops::Sum(y));
  double sq = 0;
  Tensor g = lin.NamedParameters()[0].second->grad();
  for (int64_t i = 0; i < g.numel(); ++i) {
    sq += static_cast<double>(g.data()[i]) * g.data()[i];
  }
  ASSERT_NEAR(norms[0], std::sqrt(sq), 1e-3f);
}

// ---------------------------------------------------------- summon params

TEST(SummonFullParamsTest, ReadAndWriteback) {
  const int w = 2;
  comm::DeviceMesh mesh(w, w);
  RunOnRanks(w, [&](int r) {
    nn::InitCtx ctx(Device::kCpu, 12);
    auto lin = std::make_shared<nn::Linear>(3, 3, false, ctx);
    Tensor original = *lin->NamedParameters()[0].second;
    Tensor original_values = original.Clone();
    auto state = core::FullyShard(lin, mesh, r, {});
    // Outside a summon scope the parameter storage is freed.
    ASSERT_FALSE(
        state->unit_handle(0).unsharded_param().storage()->is_allocated());
    {
      core::SummonFullParams summon(*state, /*writeback=*/true);
      Tensor& w_view = *lin->NamedParameters()[0].second;
      ASSERT_TRUE(w_view.AllClose(original_values, 0, 0));
      // SPMD modification: all ranks scale identically.
      w_view.Mul_(2.f);
    }
    ASSERT_FALSE(
        state->unit_handle(0).unsharded_param().storage()->is_allocated());
    auto full = state->FullStateDict();
    Tensor doubled = original_values.Clone();
    doubled.Mul_(2.f);
    ASSERT_TRUE(full[0].second.AllClose(doubled, 1e-6f, 1e-7f));
  });
}

TEST(SummonFullParamsTest, WithoutWritebackDiscardsChanges) {
  const int w = 2;
  comm::DeviceMesh mesh(w, w);
  RunOnRanks(w, [&](int r) {
    nn::InitCtx ctx(Device::kCpu, 13);
    auto lin = std::make_shared<nn::Linear>(3, 3, false, ctx);
    Tensor original_values = lin->NamedParameters()[0].second->Clone();
    auto state = core::FullyShard(lin, mesh, r, {});
    {
      core::SummonFullParams summon(*state);
      lin->NamedParameters()[0].second->Fill_(0.f);
    }
    auto full = state->FullStateDict();
    ASSERT_TRUE(full[0].second.AllClose(original_values, 0, 0));
  });
}

}  // namespace
}  // namespace fsdp
