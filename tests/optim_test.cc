// Optimizer and gradient-scaler tests.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "common/threading.h"
#include "optim/grad_scaler.h"
#include "optim/optimizer.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

using fsdp::testing::ExpectAllClose;

TEST(SgdTest, PlainStep) {
  Tensor p = Tensor::FromVector({1, 2}, {2});
  p.set_requires_grad(true);
  p.set_grad(Tensor::FromVector({10, -10}, {2}));
  optim::SGD sgd({p}, 0.1f);
  sgd.Step();
  ExpectAllClose(p, Tensor::FromVector({0, 3}, {2}), 1e-6f, 1e-6f);
  EXPECT_EQ(sgd.StateNumel(), 0);
}

TEST(SgdTest, MomentumAccumulates) {
  Tensor p = Tensor::Zeros({1});
  p.set_requires_grad(true);
  optim::SGD sgd({p}, 1.f, 0.9f);
  // Two steps with grad 1: v1=1, p=-1; v2=1.9, p=-2.9.
  p.set_grad(Tensor::Ones({1}));
  sgd.Step();
  EXPECT_FLOAT_EQ(p.item(), -1.f);
  sgd.Step();
  EXPECT_FLOAT_EQ(p.item(), -2.9f);
  EXPECT_EQ(sgd.StateNumel(), 1);
}

TEST(SgdTest, SkipsParamsWithoutGrad) {
  Tensor p = Tensor::Ones({2});
  p.set_requires_grad(true);
  optim::SGD sgd({p}, 0.5f);
  sgd.Step();  // no grad
  ExpectAllClose(p, Tensor::Ones({2}), 0, 0);
}

TEST(AdamTest, MatchesHandComputedFirstSteps) {
  // Single scalar, constant grad 1: with bias correction the first step is
  // exactly -lr (m_hat = 1, v_hat = 1).
  Tensor p = Tensor::Zeros({1});
  p.set_requires_grad(true);
  optim::AdamOptions o;
  o.lr = 0.1f;
  o.eps = 0.f;
  optim::Adam adam({p}, o);
  p.set_grad(Tensor::Ones({1}));
  adam.Step();
  EXPECT_NEAR(p.item(), -0.1f, 1e-6f);
  adam.Step();
  EXPECT_NEAR(p.item(), -0.2f, 1e-5f);  // still ~ -lr per step with g == 1
  EXPECT_EQ(adam.StateNumel(), 2);      // m and v
}

TEST(AdamTest, WeightDecayVariants) {
  // L2 (coupled): effective grad = g + wd*p. AdamW: p *= (1 - lr*wd) first.
  Tensor p1 = Tensor::Ones({1});
  p1.set_requires_grad(true);
  Tensor p2 = Tensor::Ones({1});
  p2.set_requires_grad(true);
  optim::AdamOptions l2;
  l2.lr = 0.f;  // isolate the decay term
  l2.weight_decay = 0.5f;
  optim::AdamOptions aw = l2;
  aw.decoupled_weight_decay = true;
  optim::Adam adam_l2({p1}, l2);
  optim::Adam adam_w({p2}, aw);
  p1.set_grad(Tensor::Zeros({1}));
  p2.set_grad(Tensor::Zeros({1}));
  adam_l2.Step();
  adam_w.Step();
  EXPECT_FLOAT_EQ(p1.item(), 1.f);  // lr=0: no movement for L2 form
  EXPECT_FLOAT_EQ(p2.item(), 1.f);  // lr=0: (1 - 0) multiplier
}

// Adam::Step's one-pass loop against the whole-tensor sequence it replaced
// (the update PyTorch's Adam spells as lerp_, mul_, addcmul_, then an
// addcdiv over sqrt(v / bc2) + eps): p, m and v stay byte-identical over
// 20 steps, with no weight decay, L2 decay and decoupled (AdamW) decay.
TEST(AdamTest, OnePassMatchesWholeTensorSequenceBitwise) {
  const int64_t n = 1031;  // no multiple of any vector width
  for (int mode = 0; mode < 3; ++mode) {
    optim::AdamOptions o;
    o.lr = 3e-3f;
    o.weight_decay = mode == 0 ? 0.f : 0.01f;
    o.decoupled_weight_decay = mode == 2;
    Rng rng(26, static_cast<uint64_t>(mode));
    Tensor p = Tensor::Randn({n}, rng);
    p.set_requires_grad(true);
    Tensor ref = p.Clone();
    Tensor m = Tensor::Zeros({n}), v = Tensor::Zeros({n});
    optim::Adam adam({p}, o);
    for (int step = 1; step <= 20; ++step) {
      Tensor g = Tensor::Randn({n}, rng);
      g.data()[step] = 0.f;
      const Tensor g_before = g.Clone();
      p.set_grad(g);
      adam.Step();

      Tensor gr = g;
      if (o.weight_decay != 0.f) {
        if (o.decoupled_weight_decay) {
          ref.Mul_(1.f - o.lr * o.weight_decay);
        } else {
          gr = g.Clone();
          gr.Add_(ref, o.weight_decay);
        }
      }
      m.Lerp_(gr, 1.f - o.beta1);
      v.Mul_(o.beta2);
      v.Addcmul_(gr, gr, 1.f - o.beta2);
      const float bc1 = 1.f - std::pow(o.beta1, static_cast<float>(step));
      const float bc2 = 1.f - std::pow(o.beta2, static_cast<float>(step));
      Tensor denom = v.Clone();
      denom.Mul_(1.f / bc2);
      ref.AddcdivSqrt_(m, denom, -o.lr / bc1, o.eps);

      const optim::Adam::StateView sv = adam.GetState(0);
      ASSERT_EQ(std::memcmp(p.data(), ref.data(), n * 4), 0)
          << "mode " << mode << " step " << step;
      ASSERT_EQ(std::memcmp(sv.exp_avg.data(), m.data(), n * 4), 0)
          << "mode " << mode << " step " << step;
      ASSERT_EQ(std::memcmp(sv.exp_avg_sq.data(), v.data(), n * 4), 0)
          << "mode " << mode << " step " << step;
      // The caller's gradient is read, never written.
      ASSERT_EQ(std::memcmp(g.data(), g_before.data(), n * 4), 0);
    }
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // min (p - 3)^2.
  Tensor p = Tensor::Zeros({1});
  p.set_requires_grad(true);
  optim::Adam adam({p}, {.lr = 0.1f});
  Tensor target = Tensor::Full({1}, 3.f);
  for (int i = 0; i < 300; ++i) {
    adam.ZeroGrad();
    Tensor loss = ops::MseLoss(p, target);
    autograd::RunBackward(loss);
    adam.Step();
  }
  EXPECT_NEAR(p.item(), 3.f, 0.05f);
}

TEST(GradScalerTest, ScalesLossAndUnscalesGrads) {
  Tensor p = Tensor::Ones({2});
  p.set_requires_grad(true);
  optim::GradScaler scaler({.init_scale = 8.f});
  Tensor loss = ops::Sum(p);
  Tensor scaled = scaler.ScaleLoss(loss);
  EXPECT_FLOAT_EQ(scaled.item(), 16.f);
  autograd::RunBackward(scaled);
  ExpectAllClose(p.grad(), Tensor::Full({2}, 8.f), 0, 0);
  EXPECT_TRUE(scaler.Unscale({p}));
  ExpectAllClose(p.grad(), Tensor::Ones({2}), 0, 0);
}

TEST(GradScalerTest, SkipsStepOnOverflowAndBacksOff) {
  Tensor p = Tensor::Ones({1});
  p.set_requires_grad(true);
  optim::GradScaler scaler({.init_scale = 4.f});
  optim::SGD sgd({p}, 1.f);
  Tensor inf_grad = Tensor::Full({1}, std::numeric_limits<float>::infinity());
  p.set_grad(inf_grad);
  EXPECT_FALSE(scaler.Step(sgd));
  EXPECT_TRUE(scaler.last_step_skipped());
  EXPECT_FLOAT_EQ(p.item(), 1.f);       // untouched
  EXPECT_FLOAT_EQ(scaler.scale(), 2.f);  // backoff 0.5
}

TEST(GradScalerTest, GrowsAfterStreak) {
  Tensor p = Tensor::Ones({1});
  p.set_requires_grad(true);
  optim::GradScaler scaler({.init_scale = 2.f, .growth_interval = 3});
  optim::SGD sgd({p}, 0.f);
  for (int i = 0; i < 3; ++i) {
    p.set_grad(Tensor::Ones({1}));
    EXPECT_TRUE(scaler.Step(sgd));
  }
  EXPECT_FLOAT_EQ(scaler.scale(), 4.f);
}

TEST(ShardedGradScalerTest, AllRanksAgreeOnSkip) {
  // Only rank 1's shard overflows; every rank must still skip (Sec 4.4).
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  std::vector<int> stepped(w, -1);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    Tensor p = Tensor::Ones({2});
    p.set_requires_grad(true);
    optim::ShardedGradScaler scaler(pg, {.init_scale = 2.f});
    optim::SGD sgd({p}, 1.f);
    Tensor g = Tensor::Ones({2});
    if (r == 1) g.set_at({0}, std::nanf(""));
    p.set_grad(g);
    stepped[r] = scaler.Step(sgd) ? 1 : 0;
  });
  for (int r = 0; r < w; ++r) EXPECT_EQ(stepped[r], 0) << "rank " << r;
}

TEST(ShardedGradScalerTest, FiniteShardsStepEverywhere) {
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  std::vector<int> stepped(w, -1);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    Tensor p = Tensor::Ones({2});
    p.set_requires_grad(true);
    optim::ShardedGradScaler scaler(pg, {.init_scale = 2.f});
    optim::SGD sgd({p}, 1.f);
    p.set_grad(Tensor::Full({2}, 2.f));  // scaled grad
    stepped[r] = scaler.Step(sgd) ? 1 : 0;
    // After unscale: grad = 1; step: p = 0.
    if (stepped[r]) {
      for (int64_t i = 0; i < 2; ++i) {
        EXPECT_FLOAT_EQ(p.data()[i], 0.f);
      }
    }
  });
  for (int r = 0; r < w; ++r) EXPECT_EQ(stepped[r], 1);
}

TEST(GradScalerTest, Fp16TrainingWithScalerAvoidsOverflow) {
  // A contrived FP16 pipeline where the *scaled* backward overflows FP16 on
  // the first iteration, the scaler backs off, and training proceeds.
  Tensor p = Tensor::Full({1}, 0.5f);
  p.set_requires_grad(true);
  optim::GradScaler scaler({.init_scale = 65536.f * 4.f});
  optim::SGD sgd({p}, 0.01f);
  int applied = 0;
  for (int iter = 0; iter < 8; ++iter) {
    sgd.ZeroGrad();
    Tensor loss = ops::Sum(ops::Mul(p, p));
    Tensor scaled = scaler.ScaleLoss(loss);
    autograd::RunBackward(scaled);
    // Emulate FP16 gradient storage: quantize the grad through FP16.
    Tensor g = p.grad();
    for (int64_t i = 0; i < g.numel(); ++i) {
      g.data()[i] = QuantizeF16(g.data()[i]);
    }
    if (scaler.Step(sgd)) ++applied;
  }
  EXPECT_GE(applied, 4);          // recovered after backoffs
  EXPECT_LT(scaler.scale(), 65536.f * 4.f);
}

}  // namespace
}  // namespace fsdp
