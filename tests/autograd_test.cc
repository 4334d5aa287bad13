// Autograd tests: per-op gradient checks against finite differences, and
// engine semantics FSDP depends on (hooks, accumulation, view gradients,
// multiple forwards, unused parameters, final callbacks).
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/checkpoint.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

using fsdp::testing::CheckGradients;
using fsdp::testing::ExpectAllClose;

Tensor Leaf(Shape shape, Rng& rng) {
  Tensor t = Tensor::Randn(std::move(shape), rng);
  t.set_requires_grad(true);
  return t;
}

TEST(AutogradOps, AddSubMulGradients) {
  Rng rng(1, 0);
  Tensor a = Leaf({3, 4}, rng), b = Leaf({3, 4}, rng);
  CheckGradients([&] { return ops::Sum(ops::Add(a, b)); }, {a, b});
  CheckGradients([&] { return ops::Sum(ops::Sub(a, b)); }, {a, b});
  CheckGradients([&] { return ops::Sum(ops::Mul(a, b)); }, {a, b});
  CheckGradients([&] { return ops::Sum(ops::ScalarMul(a, -2.5f)); }, {a});
}

TEST(AutogradOps, SquareUsesSameTensorTwice) {
  // x*x: the engine must route two contributions to x.
  Rng rng(2, 0);
  Tensor x = Leaf({5}, rng);
  CheckGradients([&] { return ops::Sum(ops::Mul(x, x)); }, {x});
  Tensor loss = ops::Sum(ops::Mul(x, x));
  x.zero_grad();
  autograd::RunBackward(loss);
  Tensor expect = x.Clone();
  expect.Mul_(2.f);
  ExpectAllClose(x.grad(), expect, 1e-4f, 1e-5f);
}

TEST(AutogradOps, MatMulAndLinearGradients) {
  Rng rng(3, 0);
  Tensor a = Leaf({4, 3}, rng), b = Leaf({3, 5}, rng);
  CheckGradients([&] { return ops::Sum(ops::MatMul(a, b)); }, {a, b});

  Tensor x = Leaf({6, 3}, rng), w = Leaf({4, 3}, rng), bias = Leaf({4}, rng);
  CheckGradients([&] { return ops::Sum(ops::Linear(x, w, bias)); },
                 {x, w, bias});
  // Bias-free variant.
  CheckGradients([&] { return ops::Sum(ops::Linear(x, w, Tensor())); },
                 {x, w});
}

TEST(AutogradOps, ActivationGradients) {
  Rng rng(4, 0);
  Tensor x = Leaf({17}, rng);
  CheckGradients([&] { return ops::Sum(ops::Gelu(x)); }, {x});
  CheckGradients([&] { return ops::Sum(ops::Sigmoid(x)); }, {x});
  CheckGradients([&] { return ops::Sum(ops::Tanh(x)); }, {x});
  // ReLU away from the kink.
  Tensor y = Tensor::FromVector({-2, -1, 0.5, 1, 3}, {5});
  y.set_requires_grad(true);
  CheckGradients([&] { return ops::Sum(ops::Relu(y)); }, {y});
}

TEST(AutogradOps, SoftmaxAndLayerNormGradients) {
  Rng rng(5, 0);
  Tensor x = Leaf({3, 6}, rng);
  Tensor weights = Tensor::Randn({3, 6}, rng);  // project to non-trivial loss
  CheckGradients(
      [&] { return ops::Sum(ops::Mul(ops::Softmax(x), weights)); }, {x});

  Tensor g = Leaf({6}, rng), b = Leaf({6}, rng);
  CheckGradients(
      [&] {
        return ops::Sum(ops::Mul(ops::LayerNorm(x, g, b), weights));
      },
      {x, g, b}, 1e-2f, 8e-2f, 2e-3f);
}

TEST(AutogradOps, TransposeSliceConcatGradients) {
  Rng rng(6, 0);
  Tensor x = Leaf({4, 6}, rng);
  Tensor weights = Tensor::Randn({6, 4}, rng);
  CheckGradients(
      [&] { return ops::Sum(ops::Mul(ops::Transpose(x), weights)); }, {x});

  Tensor w2 = Tensor::Randn({4, 2}, rng);
  CheckGradients(
      [&] { return ops::Sum(ops::Mul(ops::SliceCols(x, 1, 3), w2)); }, {x});

  Tensor w3 = Tensor::Randn({2, 6}, rng);
  CheckGradients(
      [&] { return ops::Sum(ops::Mul(ops::SliceRows(x, 1, 3), w3)); }, {x});

  Tensor y = Leaf({4, 3}, rng);
  CheckGradients(
      [&] {
        Tensor cat = ops::ConcatCols({x, y});
        return ops::Sum(ops::Mul(cat, cat));
      },
      {x, y});
  Tensor z = Leaf({2, 6}, rng);
  CheckGradients(
      [&] {
        Tensor cat = ops::ConcatRows({x, z});
        return ops::Sum(ops::Mul(cat, cat));
      },
      {x, z});
}

TEST(AutogradOps, EmbeddingAndCrossEntropyGradients) {
  Rng rng(7, 0);
  Tensor table = Leaf({5, 3}, rng);
  Tensor idx = ops::IndexTensor({1, 4, 1}, {3});
  CheckGradients([&] { return ops::Sum(ops::Embedding(table, idx)); },
                 {table});

  Tensor logits = Leaf({4, 6}, rng);
  Tensor targets = ops::IndexTensor({0, 5, 2, 2}, {4});
  CheckGradients([&] { return ops::CrossEntropy(logits, targets); },
                 {logits});
}

TEST(AutogradOps, MseAndMeanGradients) {
  Rng rng(8, 0);
  Tensor pred = Leaf({7}, rng);
  Tensor target = Tensor::Randn({7}, rng);
  CheckGradients([&] { return ops::MseLoss(pred, target); }, {pred});
  CheckGradients([&] { return ops::Mean(ops::Mul(pred, pred)); }, {pred});
}

TEST(AutogradOps, CastPassesGradThrough) {
  Rng rng(9, 0);
  Tensor x = Leaf({8}, rng);
  Tensor loss = ops::Sum(ops::Cast(x, DType::kBF16));
  autograd::RunBackward(loss);
  ExpectAllClose(x.grad(), Tensor::Ones({8}), 0, 0);
}

// ----- FlatParameter view mechanics (the core of Sec 3.2.3) -----

TEST(AutogradEngine, SliceViewGradsLandAtOffsets) {
  // A flat leaf with two views used in a computation: the flat gradient must
  // contain each view's gradient at its offset and zeros elsewhere (padding).
  Tensor flat = Tensor::FromVector({1, 2, 3, 4, 5, 6, 7, 0}, {8});
  flat.set_requires_grad(true);
  Tensor w = ops::SliceView(flat, 0, {2, 2});   // elems 0..3
  Tensor b = ops::SliceView(flat, 4, {3});      // elems 4..6; elem 7 = pad
  Tensor x = Tensor::FromVector({1, 1}, {1, 2});
  Tensor y = ops::MatMul(x, w);                  // (1,2)
  Tensor loss = ops::Add(ops::Sum(y), ops::Sum(b));
  autograd::RunBackward(loss);

  Tensor g = flat.grad();
  ASSERT_TRUE(g.defined());
  // dW = x^T @ dy = all ones; db = ones; pad = 0.
  ExpectAllClose(g, Tensor::FromVector({1, 1, 1, 1, 1, 1, 1, 0}, {8}), 0, 0);
}

TEST(AutogradEngine, UnusedViewContributesZeros) {
  Tensor flat = Tensor::Ones({6});
  flat.set_requires_grad(true);
  Tensor used = ops::SliceView(flat, 0, {3});
  Tensor unused = ops::SliceView(flat, 3, {3});
  (void)unused;
  autograd::RunBackward(ops::Sum(used));
  Tensor g = flat.grad();
  ExpectAllClose(g, Tensor::FromVector({1, 1, 1, 0, 0, 0}, {6}), 0, 0);
}

TEST(AutogradEngine, LeafGradAccumulatesAcrossBackwards) {
  Tensor x = Tensor::Ones({3});
  x.set_requires_grad(true);
  autograd::RunBackward(ops::Sum(x));
  autograd::RunBackward(ops::Sum(ops::ScalarMul(x, 2.f)));
  ExpectAllClose(x.grad(), Tensor::Full({3}, 3.f), 0, 0);
}

TEST(AutogradEngine, TensorHookFiresBeforePropagation) {
  Tensor x = Tensor::Ones({2});
  x.set_requires_grad(true);
  Tensor mid = ops::ScalarMul(x, 3.f);
  std::vector<int> order;
  mid.register_hook([&](const Tensor& g) {
    order.push_back(1);
    EXPECT_FLOAT_EQ(g.data()[0], 1.f);  // grad of Sum output
    return Tensor();
  });
  x.register_hook([&](const Tensor&) {
    order.push_back(2);
    return Tensor();
  });
  autograd::RunBackward(ops::Sum(mid));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // intermediate hook before leaf hook
  EXPECT_EQ(order[1], 2);
}

TEST(AutogradEngine, HookCanReplaceGradient) {
  Tensor x = Tensor::Ones({2});
  x.set_requires_grad(true);
  Tensor mid = ops::ScalarMul(x, 1.f);
  mid.register_hook([](const Tensor& g) {
    Tensor scaled = g.Clone();
    scaled.Mul_(10.f);
    return scaled;
  });
  autograd::RunBackward(ops::Sum(mid));
  ExpectAllClose(x.grad(), Tensor::Full({2}, 10.f), 0, 0);
}

TEST(AutogradEngine, PostAccumulateHookFiresOncePerBackward) {
  Tensor x = Tensor::Ones({4});
  x.set_requires_grad(true);
  int fired = 0;
  x.register_post_accumulate_grad_hook([&] { ++fired; });
  // Two consumers of x in one graph: hook still fires once.
  Tensor loss = ops::Add(ops::Sum(x), ops::Sum(ops::Mul(x, x)));
  autograd::RunBackward(loss);
  EXPECT_EQ(fired, 1);
  autograd::RunBackward(ops::Sum(x));
  EXPECT_EQ(fired, 2);
}

TEST(AutogradEngine, PostAccumulateHookSeesFinalizedGrad) {
  Tensor x = Tensor::Ones({2});
  x.set_requires_grad(true);
  float seen = 0;
  x.register_post_accumulate_grad_hook([&] { seen = x.grad().data()[0]; });
  autograd::RunBackward(ops::Sum(ops::ScalarMul(x, 7.f)));
  EXPECT_FLOAT_EQ(seen, 7.f);
}

TEST(AutogradEngine, QueueCallbackRunsAtEndOfBackward) {
  Tensor x = Tensor::Ones({2});
  x.set_requires_grad(true);
  std::vector<int> order;
  x.register_post_accumulate_grad_hook([&] {
    order.push_back(1);
    autograd::QueueCallback([&] { order.push_back(3); });
    order.push_back(2);
  });
  autograd::RunBackward(ops::Sum(x));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 3);  // callback after all hooks
  EXPECT_FALSE(autograd::InBackward());
}

TEST(AutogradEngine, QueueCallbackOutsideBackwardDies) {
  EXPECT_DEATH(autograd::QueueCallback([] {}), "outside");
}

TEST(AutogradEngine, MultipleForwardsBeforeBackward) {
  // Two independent graphs over the same leaf; backwards run separately and
  // accumulate — the FSDP "multiple forwards before backward" case.
  Tensor w = Tensor::Ones({2});
  w.set_requires_grad(true);
  Tensor l1 = ops::Sum(ops::ScalarMul(w, 2.f));
  Tensor l2 = ops::Sum(ops::ScalarMul(w, 5.f));
  autograd::RunBackward(l1);
  autograd::RunBackward(l2);
  ExpectAllClose(w.grad(), Tensor::Full({2}, 7.f), 0, 0);
}

TEST(AutogradEngine, UnusedLeafGetsNoGrad) {
  Tensor used = Tensor::Ones({2});
  Tensor unused = Tensor::Ones({2});
  used.set_requires_grad(true);
  unused.set_requires_grad(true);
  autograd::RunBackward(ops::Sum(used));
  EXPECT_TRUE(used.grad().defined());
  EXPECT_FALSE(unused.grad().defined());
}

TEST(AutogradEngine, NoGradGuardSuppressesGraph) {
  Tensor x = Tensor::Ones({2});
  x.set_requires_grad(true);
  NoGradGuard guard;
  Tensor y = ops::ScalarMul(x, 2.f);
  EXPECT_EQ(y.grad_fn(), nullptr);
}

TEST(AutogradEngine, DiamondGraphAccumulatesCorrectly) {
  // x -> (a = 2x, b = 3x) -> loss = sum(a*b) ; dloss/dx = 12x.
  Rng rng(10, 0);
  Tensor x = Leaf({4}, rng);
  Tensor a = ops::ScalarMul(x, 2.f);
  Tensor b = ops::ScalarMul(x, 3.f);
  autograd::RunBackward(ops::Sum(ops::Mul(a, b)));
  Tensor expect = x.Clone();
  expect.Mul_(12.f);
  ExpectAllClose(x.grad(), expect, 1e-5f, 1e-6f);
}

TEST(AutogradEngine, NonScalarRootNeedsGradOutput) {
  Tensor x = Tensor::Ones({3});
  x.set_requires_grad(true);
  Tensor y = ops::ScalarMul(x, 2.f);
  Tensor seed = Tensor::FromVector({1, 2, 3}, {3});
  autograd::RunBackward(y, seed);
  ExpectAllClose(x.grad(), Tensor::FromVector({2, 4, 6}, {3}), 0, 0);
}

// ----- In-place window accumulation, bitwise against materialize-and-add ---
//
// SliceView and SliceCols add their gradient into one zero-filled
// accumulator per input. The reference below is the path that accumulator
// replaced: every window materialized as a zero tensor in the input's shape,
// the first cloned, the rest added with Add_ in arrival order.

/// Every window's finalized gradient, in the order the engine runs the
/// window nodes (a tensor hook fires just before its producer node runs).
struct WindowLog {
  std::vector<std::pair<int, Tensor>> grads;  // (window index, grad copy)

  void Watch(Tensor& window, int index) {
    window.register_hook([this, index](const Tensor& g) {
      grads.emplace_back(index, g.Clone());
      return Tensor();
    });
  }
};

/// Writes one window's gradient into a zero tensor in the base's shape.
using PlaceFn = std::function<void(int index, const Tensor& g, Tensor* full)>;

Tensor MaterializedSum(const Shape& base, const WindowLog& log,
                       const PlaceFn& place) {
  Tensor acc;
  for (const auto& [index, g] : log.grads) {
    Tensor full = Tensor::Zeros(base);
    place(index, g, &full);
    if (!acc.defined()) {
      acc = full.Clone();
    } else {
      acc.Add_(full);
    }
  }
  return acc;
}

/// SliceView windows: window i starts at offsets[i].
PlaceFn AtOffsets(std::vector<int64_t> offsets) {
  return [offsets](int index, const Tensor& g, Tensor* full) {
    std::memcpy(full->data() + offsets[static_cast<size_t>(index)], g.data(),
                static_cast<size_t>(g.numel()) * 4);
  };
}

void ExpectBitwiseEqual(const Tensor& got, const Tensor& want) {
  ASSERT_TRUE(got.defined() && want.defined());
  ASSERT_EQ(got.numel(), want.numel());
  if (std::memcmp(got.data(), want.data(),
                  static_cast<size_t>(got.numel()) * 4) == 0) {
    return;
  }
  for (int64_t i = 0; i < got.numel(); ++i) {
    uint32_t a = 0, b = 0;
    std::memcpy(&a, got.data() + i, 4);
    std::memcpy(&b, want.data() + i, 4);
    ASSERT_EQ(a, b) << "first differing bits at flat index " << i << ": "
                    << got.data()[i] << " vs " << want.data()[i];
  }
}

/// Weights whose product with a ones gradient gives the window gradient
/// itself: random values with every fifth entry a -0.
Tensor Weights(Shape shape, Rng& rng) {
  Tensor w = Tensor::Randn(std::move(shape), rng);
  for (int64_t i = 0; i < w.numel(); i += 5) w.data()[i] = -0.f;
  return w;
}

/// sum(view * weights): the view's gradient is exactly `weights`.
Tensor Project(const Tensor& view, const Tensor& weights) {
  return ops::Sum(ops::Mul(view, weights));
}

TEST(WindowAccumulation, SeveralViewsOfOneFlatMatchBitwise) {
  Rng rng(11, 0);
  // Views cover 0..20 (the last overlaps the third at 10..11); 21..22 are
  // padding.
  Tensor flat = Leaf({23}, rng);
  const std::vector<int64_t> offsets = {0, 6, 10, 16, 8};
  const std::vector<Shape> shapes = {{2, 3}, {4}, {3, 2}, {5}, {4}};
  WindowLog log;
  Tensor loss;
  for (size_t i = 0; i < offsets.size(); ++i) {
    Tensor view = ops::SliceView(flat, offsets[i], shapes[i]);
    log.Watch(view, static_cast<int>(i));
    Tensor term = Project(view, Weights(shapes[i], rng));
    loss = loss.defined() ? ops::Add(loss, term) : term;
  }
  autograd::RunBackward(loss);
  ASSERT_EQ(log.grads.size(), offsets.size());
  Tensor want = MaterializedSum({23}, log, AtOffsets(offsets));
  ExpectBitwiseEqual(flat.grad(), want);
  // With several contributions a -0 window gradient lands as +0, as it did
  // when the zero filler of another window was added to it.
  EXPECT_FALSE(std::signbit(flat.grad().data()[0]));
  EXPECT_TRUE(std::signbit(log.grads[0].second.data()[0]));
}

TEST(WindowAccumulation, OneViewKeepsNegativeZeros) {
  Rng rng(12, 0);
  Tensor flat = Leaf({9}, rng);
  Tensor view = ops::SliceView(flat, 1, {2, 3});
  WindowLog log;
  log.Watch(view, 0);
  autograd::RunBackward(Project(view, Weights({2, 3}, rng)));
  ExpectBitwiseEqual(flat.grad(), MaterializedSum({9}, log, AtOffsets({1})));
  // A lone contribution is copied, so its -0 keeps its sign.
  EXPECT_TRUE(std::signbit(flat.grad().data()[1]));
  EXPECT_FALSE(std::signbit(flat.grad().data()[0]));
}

TEST(WindowAccumulation, TwoSlotsTiedToOneWindowMatchBitwise) {
  // One view installed in two slots (a shared parameter) has two consumers:
  // its gradient sums both, then lands in its window once.
  Rng rng(13, 0);
  Tensor flat = Leaf({10}, rng);
  Tensor tied = ops::SliceView(flat, 2, {4});
  Tensor other = ops::SliceView(flat, 6, {3});
  WindowLog log;
  log.Watch(tied, 0);
  log.Watch(other, 1);
  Tensor first = Project(tied, Weights({4}, rng));
  Tensor middle = Project(other, Weights({3}, rng));
  Tensor loss = ops::Add(ops::Add(first, middle),
                         Project(tied, Weights({4}, rng)));
  autograd::RunBackward(loss);
  ASSERT_EQ(log.grads.size(), 2u);
  ExpectBitwiseEqual(flat.grad(),
                     MaterializedSum({10}, log, AtOffsets({2, 6})));
}

TEST(WindowAccumulation, UnusedViewRegionStaysZero) {
  Rng rng(14, 0);
  Tensor flat = Leaf({12}, rng);
  Tensor a = ops::SliceView(flat, 0, {4});
  Tensor unused = ops::SliceView(flat, 4, {4});
  Tensor c = ops::SliceView(flat, 8, {4});
  WindowLog log;
  log.Watch(a, 0);
  log.Watch(unused, 1);
  log.Watch(c, 2);
  autograd::RunBackward(
      ops::Add(Project(a, Weights({4}, rng)), Project(c, Weights({4}, rng))));
  ASSERT_EQ(log.grads.size(), 2u);
  ExpectBitwiseEqual(flat.grad(),
                     MaterializedSum({12}, log, AtOffsets({0, 4, 8})));
  for (int64_t i = 4; i < 8; ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, flat.grad().data() + i, 4);
    EXPECT_EQ(bits, 0u) << "index " << i;
  }
}

TEST(WindowAccumulation, QkvColumnSplitsMatchBitwise) {
  // Attention's layout: row blocks of a (batch*seq, 3*dim) qkv projection,
  // each split into per-head q/k/v column blocks.
  const int64_t batch = 2, seq = 3, dim = 4, heads = 2, hd = dim / heads;
  Rng rng(15, 0);
  Tensor qkv = Leaf({batch * seq, 3 * dim}, rng);
  WindowLog rows_log;
  std::vector<WindowLog> cols_logs(batch);
  std::vector<Tensor> blocks;
  Tensor loss;
  for (int64_t b = 0; b < batch; ++b) {
    Tensor block = ops::SliceRows(qkv, b * seq, (b + 1) * seq);
    rows_log.Watch(block, static_cast<int>(b));
    blocks.push_back(block);
    for (int64_t h = 0; h < heads; ++h) {
      Tensor q = ops::SliceCols(block, h * hd, (h + 1) * hd);
      Tensor k = ops::SliceCols(block, dim + h * hd, dim + (h + 1) * hd);
      Tensor v = ops::SliceCols(block, 2 * dim + h * hd,
                                2 * dim + (h + 1) * hd);
      for (int part = 0; part < 3; ++part) {
        cols_logs[b].Watch(part == 0 ? q : part == 1 ? k : v,
                           static_cast<int>(part * heads + h));
      }
      Tensor scores = ops::MatMul(q, ops::Transpose(k));
      Tensor ctx = ops::MatMul(ops::Softmax(scores), v);
      Tensor term = Project(ctx, Weights({seq, hd}, rng));
      loss = loss.defined() ? ops::Add(loss, term) : term;
    }
  }
  autograd::RunBackward(loss);

  // Window index part*heads + h covers columns [part*dim + h*hd, +hd).
  const PlaceFn cols = [&](int index, const Tensor& g, Tensor* full) {
    const int64_t c0 = (index / heads) * dim + (index % heads) * hd;
    for (int64_t r = 0; r < seq; ++r) {
      std::memcpy(full->data() + r * 3 * dim + c0, g.data() + r * hd,
                  static_cast<size_t>(hd) * 4);
    }
  };
  ASSERT_EQ(rows_log.grads.size(), static_cast<size_t>(batch));
  for (const auto& [b, block_grad] : rows_log.grads) {
    ASSERT_EQ(cols_logs[b].grads.size(), static_cast<size_t>(3 * heads));
    ExpectBitwiseEqual(block_grad,
                       MaterializedSum({seq, 3 * dim}, cols_logs[b], cols));
  }
  ExpectBitwiseEqual(
      qkv.grad(), MaterializedSum({batch * seq, 3 * dim}, rows_log,
                                  AtOffsets({0, seq * 3 * dim})));
}

TEST(WindowAccumulation, OverlappingColumnWindowsAdd) {
  Rng rng(18, 0);
  Tensor x = Leaf({3, 6}, rng);
  Tensor left = ops::SliceCols(x, 0, 4), right = ops::SliceCols(x, 2, 6);
  WindowLog log;
  log.Watch(left, 0);
  log.Watch(right, 2);
  autograd::RunBackward(ops::Add(Project(left, Weights({3, 4}, rng)),
                                 Project(right, Weights({3, 4}, rng))));
  const PlaceFn cols = [](int c0, const Tensor& g, Tensor* full) {
    for (int64_t r = 0; r < 3; ++r) {
      std::memcpy(full->data() + r * 6 + c0, g.data() + r * 4, 16);
    }
  };
  ExpectBitwiseEqual(x.grad(), MaterializedSum({3, 6}, log, cols));
}

/// A unit whose parameters are views of one flat leaf, as FSDP installs
/// them; each forward makes fresh views and watches them.
class FlatUnit : public nn::Module {
 public:
  FlatUnit(Tensor flat, WindowLog* log) : flat_(std::move(flat)), log_(log) {}

  Tensor Forward(const Tensor& x) override {
    Tensor w1 = ops::SliceView(flat_, 0, {5, 4});
    Tensor b1 = ops::SliceView(flat_, 20, {5});
    Tensor w2 = ops::SliceView(flat_, 25, {4, 5});
    Tensor b2 = ops::SliceView(flat_, 45, {4});
    int index = 0;
    for (Tensor* v : {&w1, &b1, &w2, &b2}) log_->Watch(*v, index++);
    return ops::Linear(ops::Gelu(ops::Linear(x, w1, b1)), w2, b2);
  }
  std::string TypeName() const override { return "FlatUnit"; }

  static PlaceFn Place() { return AtOffsets({0, 20, 25, 45}); }

 private:
  Tensor flat_;
  WindowLog* log_;
};

TEST(WindowAccumulation, CheckpointRecomputeMatchesBitwise) {
  // The checkpointed unit's views are rebuilt and accumulate inside the
  // nested backward of the recompute.
  Rng rng(16, 0);
  Tensor x = Tensor::Randn({3, 4}, rng);
  Tensor out_w = Weights({3, 4}, rng);
  Tensor flat = Leaf({50}, rng);  // 49 used, one padding element
  WindowLog log;
  auto unit = std::make_shared<FlatUnit>(flat, &log);
  nn::Checkpoint ckpt(unit);
  autograd::RunBackward(Project(ckpt(x), out_w));
  ASSERT_EQ(log.grads.size(), 4u);
  ExpectBitwiseEqual(flat.grad(),
                     MaterializedSum({50}, log, FlatUnit::Place()));

  // The recompute yields the same bits as running the unit directly.
  Tensor checkpointed = flat.grad();
  flat.zero_grad();
  autograd::RunBackward(Project((*unit)(x), out_w));
  ExpectBitwiseEqual(flat.grad(), checkpointed);
}

// ----- Leaf gradients are adopted only when nothing else can see them -----

TEST(GradOwnership, AddOfATensorWithItselfDoubles) {
  Tensor x = Tensor::FromVector({1, -2, 3}, {3});
  x.set_requires_grad(true);
  autograd::RunBackward(ops::Sum(ops::Add(x, x)));
  ExpectAllClose(x.grad(), Tensor::Full({3}, 2.f), 0, 0);
}

TEST(GradOwnership, AddGivesEachLeafItsOwnGradient) {
  // AddBackward hands the same tensor to both inputs.
  Tensor x = Tensor::Ones({3}), y = Tensor::Ones({3});
  x.set_requires_grad(true);
  y.set_requires_grad(true);
  autograd::RunBackward(ops::Sum(ops::Add(x, y)));
  ASSERT_FALSE(x.grad().SharesStorageWith(y.grad()));
  x.grad().Mul_(5.f);
  ExpectAllClose(y.grad(), Tensor::Ones({3}), 0, 0);
}

/// A node whose input gradient stays visible to the node: it returns the
/// tensor it saved, or a fresh tensor whose storage it keeps a view of.
struct KeepsGradFn : GradFn {
  bool keep_view = false;
  Tensor kept;
  std::string name() const override { return "KeepsGradBackward"; }
  std::vector<Tensor> Backward(const Tensor&) override {
    if (!keep_view) return {kept};
    Tensor g = Tensor::Full({4}, 3.f);
    kept = g.SliceView(1, {2});
    return {g};
  }
};

TEST(GradOwnership, LeafGradNeverAliasesASavedTensor) {
  for (bool keep_view : {false, true}) {
    SCOPED_TRACE(keep_view ? "node keeps a view" : "node keeps the tensor");
    Tensor x = Tensor::Ones({4});
    x.set_requires_grad(true);
    auto node = std::make_shared<KeepsGradFn>();
    node->keep_view = keep_view;
    if (!keep_view) node->kept = Tensor::Full({4}, 3.f);
    Tensor y = Tensor::Zeros({4});
    node->inputs.push_back(x.impl());
    node->seq = NextNodeSeq();
    y.impl()->requires_grad = true;
    y.set_grad_fn(node);
    autograd::RunBackward(y, Tensor::Ones({4}));
    ASSERT_FALSE(x.grad().SharesStorageWith(node->kept));
    node->kept.Fill_(-1.f);
    ExpectAllClose(x.grad(), Tensor::Full({4}, 3.f), 0, 0);
  }
}

TEST(GradOwnership, LeafGradNeverAliasesAHookResult) {
  Tensor x = Tensor::Ones({3});
  x.set_requires_grad(true);
  Tensor kept = Tensor::Full({3}, 4.f);
  x.register_hook([&](const Tensor&) { return kept; });
  autograd::RunBackward(ops::Sum(x));
  ASSERT_FALSE(x.grad().SharesStorageWith(kept));
  kept.Fill_(0.f);
  ExpectAllClose(x.grad(), Tensor::Full({3}, 4.f), 0, 0);
}

TEST(GradOwnership, SecondBackwardAccumulatesIntoGrad) {
  // The no_sync path: .grad keeps the first pass's gradient and adds the
  // second in place — for a plain leaf and for a flat with view windows.
  Rng rng(17, 0);
  Tensor x = Leaf({5}, rng);
  Tensor flat = Leaf({9}, rng);
  const Tensor wx = Tensor::Randn({5}, rng), wa = Weights({4}, rng),
               wb = Weights({5}, rng);
  auto backward = [&] {
    Tensor a = ops::SliceView(flat, 0, {4});
    Tensor b = ops::SliceView(flat, 4, {5});
    autograd::RunBackward(ops::Add(ops::Add(Project(x, wx), Project(a, wa)),
                                   Project(b, wb)));
  };
  backward();
  const Tensor x_once = x.grad().Clone(), flat_once = flat.grad().Clone();
  const Tensor x_grad = x.grad(), flat_grad = flat.grad();
  backward();
  for (const auto& [grad, once, first] :
       {std::tuple{x.grad(), x_once, x_grad},
        std::tuple{flat.grad(), flat_once, flat_grad}}) {
    EXPECT_TRUE(grad.SharesStorageWith(first));  // accumulated in place
    Tensor twice = once.Clone();
    twice.Add_(once);
    ExpectBitwiseEqual(grad, twice);
  }
}

}  // namespace
}  // namespace fsdp
