// Unit tests for the tensor core: dtypes, storage, views, in-place math.
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/dtype.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

TEST(DTypeTest, Sizes) {
  EXPECT_EQ(SizeOf(DType::kF32), 4);
  EXPECT_EQ(SizeOf(DType::kBF16), 2);
  EXPECT_EQ(SizeOf(DType::kF16), 2);
  EXPECT_EQ(SizeOf(DType::kI64), 8);
}

TEST(DTypeTest, BF16RoundTripExactValues) {
  // Powers of two and small integers are exactly representable.
  for (float v : {0.f, 1.f, -1.f, 0.5f, 2.f, 256.f, -1024.f}) {
    EXPECT_EQ(QuantizeBF16(v), v) << v;
  }
}

TEST(DTypeTest, BF16RoundsMantissa) {
  // BF16 keeps 7 explicit mantissa bits: 1 + 2^-9 rounds to 1 (RNE).
  const float v = 1.f + std::ldexp(1.f, -9);
  EXPECT_EQ(QuantizeBF16(v), 1.f);
  // 1 + 2^-7 is representable.
  const float w = 1.f + std::ldexp(1.f, -7);
  EXPECT_EQ(QuantizeBF16(w), w);
  // Relative error bounded by 2^-8 (half ULP).
  Rng rng(7, 0);
  for (int i = 0; i < 200; ++i) {
    const float x = static_cast<float>(rng.NextNormal(0, 100));
    const float q = QuantizeBF16(x);
    EXPECT_LE(std::fabs(q - x), std::fabs(x) * (1.f / 256.f) + 1e-30f);
  }
}

TEST(DTypeTest, BF16NoOverflow) {
  // BF16 shares FP32's exponent: huge values stay finite.
  EXPECT_TRUE(std::isfinite(QuantizeBF16(1e38f)));
  EXPECT_TRUE(std::isinf(QuantizeBF16(std::numeric_limits<float>::infinity())));
  EXPECT_TRUE(std::isnan(QuantizeBF16(std::nanf(""))));
}

TEST(DTypeTest, F16ExactValues) {
  for (float v : {0.f, 1.f, -1.f, 0.5f, 1024.f, 65504.f, -65504.f}) {
    EXPECT_EQ(QuantizeF16(v), v) << v;
  }
}

TEST(DTypeTest, F16OverflowsToInf) {
  // The narrow FP16 range is what motivates the gradient scaler (Sec 4.4).
  EXPECT_TRUE(std::isinf(QuantizeF16(65536.f)));
  EXPECT_TRUE(std::isinf(QuantizeF16(1e10f)));
  EXPECT_TRUE(QuantizeF16(-1e10f) < 0);
  EXPECT_TRUE(std::isinf(QuantizeF16(-1e10f)));
  EXPECT_EQ(QuantizeF16(65504.f), 65504.f);  // max finite survives
}

TEST(DTypeTest, F16Subnormals) {
  // Smallest FP16 subnormal is 2^-24; half of it rounds to zero.
  const float sub = std::ldexp(1.f, -24);
  EXPECT_EQ(QuantizeF16(sub), sub);
  EXPECT_EQ(QuantizeF16(std::ldexp(1.f, -26)), 0.f);
  // A normal-range value keeps 10 mantissa bits.
  const float v = 1.f + std::ldexp(1.f, -10);
  EXPECT_EQ(QuantizeF16(v), v);
  EXPECT_EQ(QuantizeF16(1.f + std::ldexp(1.f, -12)), 1.f);
}

TEST(DTypeTest, F16RelativeErrorBound) {
  Rng rng(11, 0);
  for (int i = 0; i < 200; ++i) {
    const float x = static_cast<float>(rng.NextUniform(-1000, 1000));
    const float q = QuantizeF16(x);
    EXPECT_LE(std::fabs(q - x), std::fabs(x) * (1.f / 1024.f) + 1e-7f) << x;
  }
}

TEST(TensorTest, FactoriesAndAccessors) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.dim(), 2);
  EXPECT_EQ(z.size(0), 2);
  EXPECT_EQ(z.size(-1), 3);
  EXPECT_EQ(z.SumValue(), 0.f);

  Tensor o = Tensor::Ones({4});
  EXPECT_EQ(o.SumValue(), 4.f);

  Tensor f = Tensor::Full({2, 2}, 3.5f);
  EXPECT_EQ(f.at({1, 1}), 3.5f);
  f.set_at({0, 1}, -1.f);
  EXPECT_EQ(f.at({0, 1}), -1.f);

  Tensor v = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_EQ(v.at({1, 2}), 6.f);
  EXPECT_EQ(v.nbytes(), 24);
}

TEST(TensorTest, RandnIsReproducible) {
  Rng rng1(42, 0), rng2(42, 0);
  Tensor a = Tensor::Randn({100}, rng1);
  Tensor b = Tensor::Randn({100}, rng2);
  fsdp::testing::ExpectAllClose(a, b, 0, 0);
  // Roughly standard normal.
  EXPECT_LT(std::fabs(a.SumValue() / 100.f), 0.5f);
}

TEST(TensorTest, ViewsShareStorage) {
  Tensor base = Tensor::FromVector({0, 1, 2, 3, 4, 5, 6, 7}, {8});
  Tensor window = base.SliceView(2, {2, 2});
  EXPECT_TRUE(window.SharesStorageWith(base));
  EXPECT_EQ(window.at({0, 0}), 2.f);
  window.set_at({1, 1}, 99.f);
  EXPECT_EQ(base.at({5}), 99.f);  // writes propagate to base

  Tensor reshaped = base.ViewAs({2, 4});
  EXPECT_TRUE(reshaped.SharesStorageWith(base));
  Tensor cloned = base.Clone();
  EXPECT_FALSE(cloned.SharesStorageWith(base));
}

TEST(TensorTest, CastQuantizes) {
  Tensor t = Tensor::FromVector({1.0009765625f, 70000.f, 1.f}, {3});
  Tensor h = t.CastTo(DType::kF16);
  EXPECT_EQ(h.dtype(), DType::kF16);
  EXPECT_EQ(h.at({0}), 1.0009765625f);       // representable
  EXPECT_TRUE(std::isinf(h.at({1})));        // overflow
  EXPECT_EQ(h.nbytes(), 6);                  // 2 bytes/elem accounting

  Tensor b = t.CastTo(DType::kBF16);
  EXPECT_EQ(b.at({0}), 1.f);                 // mantissa dropped
  EXPECT_TRUE(std::isfinite(b.at({1})));     // wide exponent
}

TEST(TensorTest, InPlaceMath) {
  Tensor a = Tensor::FromVector({1, 2, 3}, {3});
  Tensor b = Tensor::FromVector({10, 20, 30}, {3});
  a.Add_(b, 0.5f);
  fsdp::testing::ExpectAllClose(a, Tensor::FromVector({6, 12, 18}, {3}));
  a.Mul_(2.f);
  EXPECT_EQ(a.at({2}), 36.f);
  a.Lerp_(b, 1.f);
  fsdp::testing::ExpectAllClose(a, b);

  Tensor c = Tensor::Zeros({3});
  c.Addcmul_(a, b, 0.1f);  // 0 + 0.1*b*b
  EXPECT_NEAR(c.at({1}), 40.f, 1e-3f);

  Tensor d = Tensor::Ones({3});
  Tensor num = Tensor::FromVector({4, 9, 16}, {3});
  Tensor den = Tensor::FromVector({4, 9, 16}, {3});
  d.AddcdivSqrt_(num, den, 1.f, 0.f);  // 1 + v/sqrt(v)
  fsdp::testing::ExpectAllClose(d, Tensor::FromVector({3, 4, 5}, {3}));
}

TEST(TensorTest, NonFiniteDetection) {
  Tensor t = Tensor::Ones({4});
  EXPECT_FALSE(t.HasNonFinite());
  t.set_at({2}, std::numeric_limits<float>::infinity());
  EXPECT_TRUE(t.HasNonFinite());
  t.set_at({2}, std::nanf(""));
  EXPECT_TRUE(t.HasNonFinite());
}

TEST(TensorTest, FakeDeviceHasNoData) {
  Tensor t = Tensor::Empty({1000000}, DType::kF32, Device::kFake);
  EXPECT_EQ(t.device(), Device::kFake);
  EXPECT_EQ(t.numel(), 1000000);
  EXPECT_DEATH(t.data(), "fake");
}

TEST(TensorTest, LiveBytesTracksAllocations) {
  const int64_t before = Storage::live_bytes();
  {
    Tensor t = Tensor::Zeros({1024});
    EXPECT_EQ(Storage::live_bytes(), before + 4096);
    Tensor view = t.SliceView(0, {512});  // no new storage
    EXPECT_EQ(Storage::live_bytes(), before + 4096);
  }
  EXPECT_EQ(Storage::live_bytes(), before);
}

TEST(TensorTest, QuantizeInPlace) {
  Tensor t = Tensor::Empty({2}, DType::kBF16);
  t.data()[0] = 1.0009765625f;
  t.QuantizeInPlace_();
  EXPECT_EQ(t.data()[0], 1.f);
}

TEST(KernelsTest, GemmAllTransposeVariants) {
  // A (2x3), B (3x2): C = A@B known.
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};
  const std::vector<float> at = {1, 4, 2, 5, 3, 6};
  const std::vector<float> b = {7, 8, 9, 10, 11, 12};
  const std::vector<float> bt = {7, 9, 11, 8, 10, 12};
  const std::vector<float> expect = {58, 64, 139, 154};

  float c[4];
  kernels::Gemm(a.data(), b.data(), c, 2, 2, 3, false, false, false);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], expect[i]);
  kernels::Gemm(at.data(), b.data(), c, 2, 2, 3, true, false, false);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], expect[i]);
  kernels::Gemm(a.data(), bt.data(), c, 2, 2, 3, false, true, false);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], expect[i]);
  kernels::Gemm(at.data(), bt.data(), c, 2, 2, 3, true, true, false);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], expect[i]);
  // Accumulate doubles the result.
  kernels::Gemm(a.data(), b.data(), c, 2, 2, 3, false, false, true);
  EXPECT_FLOAT_EQ(c[0], 2 * expect[0]);
}

// The vector GEMM paths this CPU can run.
std::vector<kernels::GemmIsa> VectorGemmIsas() {
  std::vector<kernels::GemmIsa> out;
  for (kernels::GemmIsa isa :
       {kernels::GemmIsa::kAvx2, kernels::GemmIsa::kAvx512}) {
    if (kernels::GemmIsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

// Runs `isa`'s Gemm path and GemmScalar on the same inputs and compares C
// byte for byte. A has about a third exact zeros and C some -0 entries. With
// `nonfinite`, every fifth p has A(:,p) == 0 and B(p,:) holding inf and NaN.
void ExpectGemmBitwise(kernels::GemmIsa isa, Rng& rng, int64_t m, int64_t n,
                       int64_t k, bool trans_a, bool trans_b, bool accumulate,
                       bool nonfinite) {
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> c(static_cast<size_t>(m * n));
  for (float& x : a) {
    x = rng.NextU64() % 3 == 0 ? 0.f
                               : static_cast<float>(rng.NextUniform(-1, 1));
  }
  for (float& x : b) x = static_cast<float>(rng.NextUniform(-1, 1));
  for (float& x : c) {
    x = rng.NextU64() % 4 == 0 ? -0.f
                               : static_cast<float>(rng.NextUniform(-1, 1));
  }
  if (nonfinite) {
    for (int64_t p = 0; p < k; p += 5) {
      for (int64_t i = 0; i < m; ++i) {
        (trans_a ? a[p * m + i] : a[i * k + p]) = 0.f;
      }
      for (int64_t j = 0; j < n; ++j) {
        (trans_b ? b[j * k + p] : b[p * n + j]) =
            j % 2 ? std::numeric_limits<float>::infinity()
                  : std::numeric_limits<float>::quiet_NaN();
      }
    }
  }
  std::vector<float> want = c;
  kernels::GemmWith(isa, a.data(), b.data(), c.data(), m, n, k, trans_a,
                    trans_b, accumulate);
  kernels::GemmScalar(a.data(), b.data(), want.data(), m, n, k, trans_a,
                      trans_b, accumulate);
  ASSERT_EQ(std::memcmp(c.data(), want.data(), c.size() * 4), 0)
      << kernels::GemmIsaName(isa) << " " << m << "x" << n << "x" << k
      << " trans_a=" << trans_a
      << " trans_b=" << trans_b << " accumulate=" << accumulate
      << " nonfinite=" << nonfinite;
  if (nonfinite && !trans_b) {
    // The a == 0 skip keeps the inf/NaN rows of B out of C.
    for (float x : c) ASSERT_TRUE(std::isfinite(x));
  }
}

TEST(KernelsTest, GemmMatchesScalarLoopsBitwise) {
  const std::vector<kernels::GemmIsa> isas = VectorGemmIsas();
  if (isas.empty()) GTEST_SKIP() << "no AVX2: Gemm runs GemmScalar itself";
  struct Case {
    int64_t m, n, k;
    bool trans_a, trans_b;
  };
  const std::vector<Case> cases = {
      // The transformer's Linear layers: forward x . W^T (NT), input
      // gradient g . W (NN), weight gradient g^T . x (TN).
      {32, 768, 256, false, true},
      {32, 256, 256, false, true},
      {32, 1024, 256, false, true},
      {32, 256, 768, false, false},
      {32, 256, 1024, false, false},
      {1024, 256, 32, true, false},
      {768, 256, 32, true, false},
      {256, 256, 32, true, false},
      // Attention per head (seq 32, head_dim 64): Q . K^T and P . V forward,
      // and their MatMul backward (dA NT, dB TN).
      {32, 32, 64, false, false},
      {32, 64, 32, false, false},
      {32, 64, 32, false, true},
      {64, 32, 32, true, false},
      {32, 32, 64, false, true},
      {32, 64, 32, true, false},
  };
  for (kernels::GemmIsa isa : isas) {
    Rng rng(23, 0);
    for (const Case& t : cases) {
      for (bool accumulate : {false, true}) {
        for (bool nonfinite : {false, true}) {
          ExpectGemmBitwise(isa, rng, t.m, t.n, t.k, t.trans_a, t.trans_b,
                            accumulate, nonfinite);
        }
      }
    }
    // Random shapes: no dimension needs to be a multiple of the panel
    // width, the row block or the transpose block.
    for (int s = 0; s < 64; ++s) {
      const int64_t m = 1 + static_cast<int64_t>(rng.NextU64() % 70);
      const int64_t n = 1 + static_cast<int64_t>(rng.NextU64() % 70);
      const int64_t k = 1 + static_cast<int64_t>(rng.NextU64() % 70);
      for (int variant = 0; variant < 16; ++variant) {
        ExpectGemmBitwise(isa, rng, m, n, k, variant & 1, variant & 2,
                          variant & 4, variant & 8);
      }
    }
  }
}

// A fused multiply-add canary. With a = b = 1 + 2^-12, a * b rounds to
// 1 + 2^-11, so -1 + a * b is 2^-11 with a separate multiply and add but
// 2^-11 + 2^-24 when fused. Every path must give the separate answer in
// every transpose variant, on full and ragged panels and row blocks.
TEST(KernelsTest, GemmNeverFusesMultiplyAdd) {
  const float x = 1.f + std::ldexp(1.f, -12);
  const float want = std::ldexp(1.f, -11);
  ASSERT_NE(std::fma(x, x, -1.f), want);  // the canary tells the two apart
  std::vector<kernels::GemmIsa> isas = VectorGemmIsas();
  isas.push_back(kernels::GemmIsa::kScalar);
  for (kernels::GemmIsa isa : isas) {
    for (int64_t m : {1, 3, 8, 9}) {
      for (int64_t n : {1, 7, 16, 32, 33, 64}) {
        for (int variant = 0; variant < 4; ++variant) {
          const bool trans_a = variant & 1, trans_b = variant & 2;
          // A(i, :) = [1, x] and B(:, j) = [-1, x], k = 2.
          std::vector<float> a(static_cast<size_t>(m * 2));
          std::vector<float> b(static_cast<size_t>(2 * n));
          auto a_at = [&](int64_t i, int64_t p) -> float& {
            return trans_a ? a[p * m + i] : a[i * 2 + p];
          };
          auto b_at = [&](int64_t p, int64_t j) -> float& {
            return trans_b ? b[j * 2 + p] : b[p * n + j];
          };
          for (int64_t i = 0; i < m; ++i) {
            a_at(i, 0) = 1.f;
            a_at(i, 1) = x;
          }
          for (int64_t j = 0; j < n; ++j) {
            b_at(0, j) = -1.f;
            b_at(1, j) = x;
          }
          std::vector<float> c(static_cast<size_t>(m * n), 7.f);
          kernels::GemmWith(isa, a.data(), b.data(), c.data(), m, n, 2,
                            trans_a, trans_b, false);
          for (float v : c) {
            ASSERT_EQ(v, want)
                << kernels::GemmIsaName(isa) << " " << m << "x" << n
                << " trans_a=" << trans_a << " trans_b=" << trans_b;
          }
        }
      }
    }
  }
}

TEST(KernelsTest, SoftmaxRowsSumToOne) {
  Rng rng(3, 0);
  Tensor x = Tensor::Randn({5, 7}, rng);
  Tensor y = Tensor::Empty({5, 7});
  kernels::SoftmaxRows(x.data(), y.data(), 5, 7);
  for (int64_t r = 0; r < 5; ++r) {
    double s = 0;
    for (int64_t c = 0; c < 7; ++c) {
      const float v = y.at({r, c});
      EXPECT_GT(v, 0.f);
      s += v;
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(KernelsTest, SoftmaxNumericallyStable) {
  Tensor x = Tensor::FromVector({1000.f, 1001.f}, {1, 2});
  Tensor y = Tensor::Empty({1, 2});
  kernels::SoftmaxRows(x.data(), y.data(), 1, 2);
  EXPECT_FALSE(y.HasNonFinite());
  EXPECT_NEAR(y.at({0, 1}), 1.f / (1.f + std::exp(-1.f)), 1e-5f);
}

TEST(KernelsTest, LayerNormNormalizesRows) {
  Rng rng(5, 0);
  Tensor x = Tensor::Randn({4, 16}, rng, 3.f, 2.f);
  Tensor gamma = Tensor::Ones({16});
  Tensor beta = Tensor::Zeros({16});
  Tensor out = Tensor::Empty({4, 16});
  Tensor mean = Tensor::Empty({4});
  Tensor rstd = Tensor::Empty({4});
  kernels::LayerNormForward(x.data(), gamma.data(), beta.data(), out.data(),
                            mean.data(), rstd.data(), 4, 16, 1e-5f);
  for (int64_t r = 0; r < 4; ++r) {
    double m = 0, v = 0;
    for (int64_t c = 0; c < 16; ++c) m += out.at({r, c});
    m /= 16;
    for (int64_t c = 0; c < 16; ++c) {
      const double d = out.at({r, c}) - m;
      v += d * d;
    }
    EXPECT_NEAR(m, 0.0, 1e-5);
    EXPECT_NEAR(v / 16, 1.0, 1e-3);
  }
}

TEST(KernelsTest, CrossEntropyMatchesManual) {
  // Two rows, 3 classes, uniform logits -> loss = log(3).
  Tensor logits = Tensor::Zeros({2, 3});
  std::vector<int64_t> targets = {0, 2};
  Tensor log_probs = Tensor::Empty({2, 3});
  const float loss = kernels::CrossEntropyForward(
      logits.data(), targets.data(), log_probs.data(), 2, 3);
  EXPECT_NEAR(loss, std::log(3.f), 1e-5f);
}

TEST(KernelsTest, EmbeddingGatherScatterRoundTrip) {
  Tensor table = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {3, 2});
  std::vector<int64_t> idx = {2, 0, 2};
  Tensor out = Tensor::Empty({3, 2});
  kernels::EmbeddingGather(table.data(), idx.data(), out.data(), 3, 2);
  EXPECT_EQ(out.at({0, 0}), 5.f);
  EXPECT_EQ(out.at({1, 1}), 2.f);

  Tensor grad_table = Tensor::Zeros({3, 2});
  Tensor grad_out = Tensor::Ones({3, 2});
  kernels::EmbeddingScatterAdd(grad_out.data(), idx.data(), grad_table.data(),
                               3, 2);
  EXPECT_EQ(grad_table.at({2, 0}), 2.f);  // index 2 hit twice
  EXPECT_EQ(grad_table.at({0, 0}), 1.f);
  EXPECT_EQ(grad_table.at({1, 0}), 0.f);
}

}  // namespace
}  // namespace fsdp
