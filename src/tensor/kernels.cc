#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/status.h"

namespace fsdp::kernels {

void GemmScalar(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k, bool trans_a, bool trans_b,
                bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * 4);
  // Index helpers: A logical (m x k), B logical (k x n).
  auto a_at = [&](int64_t i, int64_t p) {
    return trans_a ? a[p * m + i] : a[i * k + p];
  };
  if (!trans_b) {
    // ikj loop order: streams B and C rows; the common case (forward and
    // dX = dY @ W with W pre-transposed handled via trans flags below).
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = a_at(i, p);
        if (av == 0.f) continue;
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {
    // B stored (n x k): dot products along contiguous B rows.
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.f;
        if (!trans_a) {
          const float* arow = a + i * k;
          for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        } else {
          for (int64_t p = 0; p < k; ++p) acc += a[p * m + i] * brow[p];
        }
        crow[j] += acc;
      }
    }
  }
}

namespace {

// Packed-panel GEMM, one template instantiated per vector width. B is packed
// into one [k][Nr] panel at a time (Nr = two vectors) and each micro-kernel
// call computes an R x Nr block of C in 2R vector registers, keeping
// GemmScalar's per-element operation order (see Gemm in kernels.h).
//
// The templates carry no target attribute: they are always inlined into the
// two entry points below, which do (GCC cannot make a function's target
// depend on a template parameter). Vectors pass by reference, never by
// value, so no function outside those targets has a vector in its ABI. The
// avx512f target implies FMA, so kernels.cc is built with -ffp-contract=off
// (src/tensor/CMakeLists.txt) to keep every `acc + a * b` a separate
// multiply and add.
typedef float v8 __attribute__((vector_size(32)));
typedef float v16 __attribute__((vector_size(64)));
typedef int32_t i8 __attribute__((vector_size(32)));
typedef int32_t i16 __attribute__((vector_size(64)));

template <typename V>
struct Isa;
// kMaskedSkip: whether the !trans_b zero skip is a masked add rather than a
// branch. AVX-512 masks an add for free; AVX2 would need a blend after it,
// which lengthens every accumulator's dependency chain.
template <>
struct Isa<v8> {  // AVX2: 16 ymm registers
  using Index = i8;
  static constexpr int kLanes = 8;
  static constexpr bool kMaskedSkip = false;
};
template <>
struct Isa<v16> {  // AVX-512F: 32 zmm registers
  using Index = i16;
  static constexpr int kLanes = 16;
  static constexpr bool kMaskedSkip = true;
};
// Columns per panel (two vectors) and rows per micro-kernel call: the 2 x kMr
// accumulators take half the register file, leaving room for B and A.
template <typename V>
constexpr int64_t kNr = 2 * Isa<V>::kLanes;
template <typename V>
constexpr int kMr = Isa<V>::kLanes / 2;
// Panel rows per sweep of !trans_b: 256 x 32 floats fill 32 KiB of L1.
constexpr int64_t kKc = 256;

template <typename V>
[[gnu::always_inline]] inline void Load(V& v, const float* p) {
  std::memcpy(&v, p, sizeof v);
}

template <typename V>
[[gnu::always_inline]] inline void Store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// C block (R x kNr at c, row stride ldc) against the packed panel. A(i,p) is
// a[i * ars + p * acs]. On !kTransB a row whose a(i,p) is 0 keeps its
// accumulator, so inf/NaN in B never reaches it.
template <typename V, int R, bool kTransB>
[[gnu::always_inline]] inline void MicroKernel(const float* a, int64_t ars,
                                               int64_t acs, const float* panel,
                                               int64_t k, float* c,
                                               int64_t ldc) {
  constexpr int L = Isa<V>::kLanes;
  V acc[R][2];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    if (kTransB) {
      acc[r][0] = V{};
      acc[r][1] = V{};
    } else {
      Load(acc[r][0], c + r * ldc);
      Load(acc[r][1], c + r * ldc + L);
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    V b0, b1;
    Load(b0, panel + p * kNr<V>);
    Load(b1, panel + p * kNr<V> + L);
    const float* ap = a + p * acs;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      // x - (+0) is x in every lane, -0 included: a plain broadcast.
      const V av = ap[r * ars] - V{};
      if (!kTransB && Isa<V>::kMaskedSkip) {
        const auto live = av != 0;
        acc[r][0] = live ? acc[r][0] + av * b0 : acc[r][0];
        acc[r][1] = live ? acc[r][1] + av * b1 : acc[r][1];
        continue;
      }
      if (!kTransB && ap[r * ars] == 0.f) continue;
      acc[r][0] = acc[r][0] + av * b0;
      acc[r][1] = acc[r][1] + av * b1;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    if (kTransB) {
      V c0, c1;
      Load(c0, c + r * ldc);
      Load(c1, c + r * ldc + L);
      acc[r][0] = c0 + acc[r][0];
      acc[r][1] = c1 + acc[r][1];
    }
    Store(c + r * ldc, acc[r][0]);
    Store(c + r * ldc + L, acc[r][1]);
  }
}

// MicroKernel for a block of `rows` <= R rows.
template <typename V, bool kTransB, int R = kMr<V>>
[[gnu::always_inline]] inline void RowBlock(int64_t rows, const float* a,
                                            int64_t ars, int64_t acs,
                                            const float* panel, int64_t k,
                                            float* c, int64_t ldc) {
  if constexpr (R > 1) {
    if (rows < R) {
      RowBlock<V, kTransB, R - 1>(rows, a, ars, acs, panel, k, c, ldc);
      return;
    }
  }
  MicroKernel<V, R, kTransB>(a, ars, acs, panel, k, c, ldc);
}

template <typename V>
[[gnu::always_inline]] inline void RowBlock(bool trans_b, int64_t rows,
                                            const float* a, int64_t ars,
                                            int64_t acs, const float* panel,
                                            int64_t k, float* c, int64_t ldc) {
  if (trans_b) {
    RowBlock<V, true>(rows, a, ars, acs, panel, k, c, ldc);
  } else {
    RowBlock<V, false>(rows, a, ars, acs, panel, k, c, ldc);
  }
}

// One butterfly stage of TransposeBlock: within every 2H x 2H block of
// lanes, swap the two off-diagonal H x H blocks of each row pair (i, i + H).
template <typename V, int H, size_t... l>
[[gnu::always_inline]] inline void TransposeStage(V* r,
                                                  std::index_sequence<l...>) {
  constexpr int L = sizeof...(l);
  using Index = typename Isa<V>::Index;
  constexpr Index lo_idx = {static_cast<int32_t>((l & H) ? L + l - H : l)...};
  constexpr Index hi_idx = {static_cast<int32_t>((l & H) ? L + l : l + H)...};
#pragma GCC unroll 16
  for (int i = 0; i < L; ++i) {
    if (i & H) continue;
    const V lo = r[i], hi = r[i + H];
    r[i] = __builtin_shuffle(lo, hi, lo_idx);
    r[i + H] = __builtin_shuffle(lo, hi, hi_idx);
  }
}

// dst[q][t] = src[t][q] for an L x L block, L the vector width, in registers.
template <typename V>
[[gnu::always_inline]] inline void TransposeBlock(const float* src,
                                                  int64_t lds, float* dst,
                                                  int64_t ldd) {
  constexpr int L = Isa<V>::kLanes;
  V r[L];
#pragma GCC unroll 16
  for (int i = 0; i < L; ++i) Load(r[i], src + i * lds);
  // The stages commute; log2(L) of them transpose the block.
  constexpr auto lanes = std::make_index_sequence<L>{};
  TransposeStage<V, 1>(r, lanes);
  TransposeStage<V, 2>(r, lanes);
  TransposeStage<V, 4>(r, lanes);
  if constexpr (L == 16) TransposeStage<V, 8>(r, lanes);
#pragma GCC unroll 16
  for (int i = 0; i < L; ++i) Store(dst + i * ldd, r[i]);
}

// One panel per thread, shared by both widths and reused across calls: at
// most k * 32 floats for the largest k the thread has seen.
float* PanelBuffer(int64_t floats) {
  thread_local std::vector<float> panel;
  if (panel.size() < static_cast<size_t>(floats)) {
    panel.resize(static_cast<size_t>(floats));
  }
  return panel.data();
}

template <typename V>
[[gnu::always_inline]] inline void GemmPacked(const float* a, const float* b,
                                              float* c, int64_t m, int64_t n,
                                              int64_t k, bool trans_a,
                                              bool trans_b) {
  constexpr int L = Isa<V>::kLanes;
  constexpr int64_t Nr = kNr<V>, Mr = kMr<V>;
  float* pp = PanelBuffer(k * Nr);
  const int64_t ars = trans_a ? 1 : k, acs = trans_a ? m : 1;
  for (int64_t j0 = 0; j0 < n; j0 += Nr) {
    const int64_t nc = std::min(Nr, n - j0);
    // Pack B(:, j0 .. j0+nc) as panel[p][jj], zero-padded to Nr columns.
    if (nc < Nr) std::fill(pp, pp + k * Nr, 0.f);
    if (trans_b) {  // B stored (n x k): transpose L x L blocks in registers
      const int64_t kb = k - k % L, jb = nc - nc % L;
      for (int64_t jj = 0; jj < jb; jj += L) {
        for (int64_t p = 0; p < kb; p += L) {
          TransposeBlock<V>(b + (j0 + jj) * k + p, k, pp + p * Nr + jj, Nr);
        }
      }
      // The ragged edges, one element at a time.
      for (int64_t jj = 0; jj < nc; ++jj) {
        const float* brow = b + (j0 + jj) * k;
        for (int64_t p = jj < jb ? kb : 0; p < k; ++p) {
          pp[p * Nr + jj] = brow[p];
        }
      }
    } else {  // B stored (k x n)
      for (int64_t p = 0; p < k; ++p) {
        std::memcpy(pp + p * Nr, b + p * n + j0, static_cast<size_t>(nc) * 4);
      }
    }
    // !trans_b sums straight into C, so it can sweep k in chunks whose
    // panel rows stay in L1 without changing any element's order of
    // operations. trans_b's accumulator must see all of k at once.
    const int64_t kc = trans_b ? k : kKc;
    for (int64_t p0 = 0; p0 < k; p0 += kc) {
      const int64_t kn = std::min(kc, k - p0);
      const float* pk = pp + p0 * Nr;
      for (int64_t i0 = 0; i0 < m; i0 += Mr) {
        const int64_t rows = std::min(Mr, m - i0);
        const float* ablk = a + i0 * ars + p0 * acs;
        if (nc == Nr) {
          RowBlock<V>(trans_b, rows, ablk, ars, acs, pk, kn, c + i0 * n + j0,
                      n);
          continue;
        }
        // Ragged last panel: run the block on a full-width copy of C.
        float tile[Mr * Nr] = {};
        for (int64_t r = 0; r < rows; ++r) {
          std::memcpy(tile + r * Nr, c + (i0 + r) * n + j0,
                      static_cast<size_t>(nc) * 4);
        }
        RowBlock<V>(trans_b, rows, ablk, ars, acs, pk, kn, tile, Nr);
        for (int64_t r = 0; r < rows; ++r) {
          std::memcpy(c + (i0 + r) * n + j0, tile + r * Nr,
                      static_cast<size_t>(nc) * 4);
        }
      }
    }
  }
}

__attribute__((target("avx2"))) void GemmAvx2(const float* a, const float* b,
                                               float* c, int64_t m, int64_t n,
                                               int64_t k, bool trans_a,
                                               bool trans_b) {
  GemmPacked<v8>(a, b, c, m, n, k, trans_a, trans_b);
}

__attribute__((target("avx512f"))) void GemmAvx512(
    const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
    bool trans_a, bool trans_b) {
  GemmPacked<v16>(a, b, c, m, n, k, trans_a, trans_b);
}

}  // namespace

bool GemmIsaSupported(GemmIsa isa) {
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  static const bool avx512 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  switch (isa) {
    case GemmIsa::kScalar: return true;
    case GemmIsa::kAvx2: return avx2;
    case GemmIsa::kAvx512: return avx512;
  }
  return false;
}

const char* GemmIsaName(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kScalar: return "scalar";
    case GemmIsa::kAvx2: return "avx2";
    case GemmIsa::kAvx512: return "avx512";
  }
  return "?";
}

void GemmWith(GemmIsa isa, const float* a, const float* b, float* c,
              int64_t m, int64_t n, int64_t k, bool trans_a, bool trans_b,
              bool accumulate) {
  FSDP_CHECK_MSG(GemmIsaSupported(isa),
                 "this CPU cannot run the " << GemmIsaName(isa) << " GEMM");
  if (isa == GemmIsa::kScalar) {
    GemmScalar(a, b, c, m, n, k, trans_a, trans_b, accumulate);
    return;
  }
  if (!accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * 4);
  if (isa == GemmIsa::kAvx512) {
    GemmAvx512(a, b, c, m, n, k, trans_a, trans_b);
  } else {
    GemmAvx2(a, b, c, m, n, k, trans_a, trans_b);
  }
}

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b, bool accumulate) {
  static const GemmIsa best =
      GemmIsaSupported(GemmIsa::kAvx512) ? GemmIsa::kAvx512
      : GemmIsaSupported(GemmIsa::kAvx2) ? GemmIsa::kAvx2
                                         : GemmIsa::kScalar;
  GemmWith(best, a, b, c, m, n, k, trans_a, trans_b, accumulate);
}

void Add(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void Sub(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void Mul(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void Scale(const float* a, float s, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void Accumulate(float* out, const float* a, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += a[i];
}

void AddBiasRows(const float* x, const float* bias, float* out, int64_t rows,
                 int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    for (int64_t c = 0; c < cols; ++c) or_[c] = xr[c] + bias[c];
  }
}

void BiasGradCols(const float* grad_out, float* grad_bias, int64_t rows,
                  int64_t cols, bool accumulate) {
  if (!accumulate) std::memset(grad_bias, 0, static_cast<size_t>(cols) * 4);
  for (int64_t r = 0; r < rows; ++r) {
    const float* gr = grad_out + r * cols;
    for (int64_t c = 0; c < cols; ++c) grad_bias[c] += gr[c];
  }
}

void ReluForward(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] > 0.f ? x[i] : 0.f;
}

void ReluBackward(const float* x, const float* grad_out, float* grad_in,
                  int64_t n) {
  for (int64_t i = 0; i < n; ++i) grad_in[i] = x[i] > 0.f ? grad_out[i] : 0.f;
}

namespace {
constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCoef = 0.044715f;
}  // namespace

void GeluForward(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kSqrt2OverPi * (v + kGeluCoef * v * v * v);
    out[i] = 0.5f * v * (1.f + std::tanh(inner));
  }
}

void GeluBackward(const float* x, const float* grad_out, float* grad_in,
                  int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kSqrt2OverPi * (v + kGeluCoef * v * v * v);
    const float t = std::tanh(inner);
    const float dinner = kSqrt2OverPi * (1.f + 3.f * kGeluCoef * v * v);
    const float d = 0.5f * (1.f + t) + 0.5f * v * (1.f - t * t) * dinner;
    grad_in[i] = grad_out[i] * d;
  }
}

void SigmoidForward(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = 1.f / (1.f + std::exp(-x[i]));
}

void SigmoidBackward(const float* y, const float* grad_out, float* grad_in,
                     int64_t n) {
  for (int64_t i = 0; i < n; ++i) grad_in[i] = grad_out[i] * y[i] * (1.f - y[i]);
}

void TanhForward(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

void TanhBackward(const float* y, const float* grad_out, float* grad_in,
                  int64_t n) {
  for (int64_t i = 0; i < n; ++i) grad_in[i] = grad_out[i] * (1.f - y[i] * y[i]);
}

void SoftmaxRows(const float* x, float* out, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    float mx = xr[0];
    for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, xr[c]);
    float sum = 0.f;
    for (int64_t c = 0; c < cols; ++c) {
      or_[c] = std::exp(xr[c] - mx);
      sum += or_[c];
    }
    const float inv = 1.f / sum;
    for (int64_t c = 0; c < cols; ++c) or_[c] *= inv;
  }
}

void SoftmaxBackwardRows(const float* y, const float* grad_out, float* grad_in,
                         int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* yr = y + r * cols;
    const float* gr = grad_out + r * cols;
    float* gi = grad_in + r * cols;
    float dot = 0.f;
    for (int64_t c = 0; c < cols; ++c) dot += gr[c] * yr[c];
    for (int64_t c = 0; c < cols; ++c) gi[c] = (gr[c] - dot) * yr[c];
  }
}

float CrossEntropyForward(const float* logits, const int64_t* targets,
                          float* log_probs, int64_t rows, int64_t classes) {
  double loss = 0;
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = logits + r * classes;
    float* lr = log_probs + r * classes;
    float mx = xr[0];
    for (int64_t c = 1; c < classes; ++c) mx = std::max(mx, xr[c]);
    double sum = 0;
    for (int64_t c = 0; c < classes; ++c) sum += std::exp(xr[c] - mx);
    const float logz = mx + static_cast<float>(std::log(sum));
    for (int64_t c = 0; c < classes; ++c) lr[c] = xr[c] - logz;
    loss -= lr[targets[r]];
  }
  return static_cast<float>(loss / static_cast<double>(rows));
}

void CrossEntropyBackward(const float* log_probs, const int64_t* targets,
                          float grad_loss, float* grad_logits, int64_t rows,
                          int64_t classes) {
  const float scale = grad_loss / static_cast<float>(rows);
  for (int64_t r = 0; r < rows; ++r) {
    const float* lr = log_probs + r * classes;
    float* gr = grad_logits + r * classes;
    for (int64_t c = 0; c < classes; ++c) gr[c] = std::exp(lr[c]) * scale;
    gr[targets[r]] -= scale;
  }
}

void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float* out, float* mean, float* rstd, int64_t rows,
                      int64_t cols, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    double m = 0;
    for (int64_t c = 0; c < cols; ++c) m += xr[c];
    m /= static_cast<double>(cols);
    double var = 0;
    for (int64_t c = 0; c < cols; ++c) {
      const double d = xr[c] - m;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float rs = 1.f / std::sqrt(static_cast<float>(var) + eps);
    mean[r] = static_cast<float>(m);
    rstd[r] = rs;
    for (int64_t c = 0; c < cols; ++c) {
      or_[c] = (xr[c] - mean[r]) * rs * gamma[c] + beta[c];
    }
  }
}

void LayerNormBackward(const float* x, const float* gamma, const float* mean,
                       const float* rstd, const float* grad_out, float* grad_in,
                       float* grad_gamma, float* grad_beta, int64_t rows,
                       int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    const float* gr = grad_out + r * cols;
    float* gi = grad_in + r * cols;
    const float m = mean[r];
    const float rs = rstd[r];
    // xhat = (x - m) * rs; dxhat = g * gamma.
    double sum_dxhat = 0, sum_dxhat_xhat = 0;
    for (int64_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - m) * rs;
      const float dxhat = gr[c] * gamma[c];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xhat;
      grad_gamma[c] += gr[c] * xhat;
      grad_beta[c] += gr[c];
    }
    const float inv_cols = 1.f / static_cast<float>(cols);
    for (int64_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - m) * rs;
      const float dxhat = gr[c] * gamma[c];
      gi[c] = rs * (dxhat - inv_cols * static_cast<float>(sum_dxhat) -
                    xhat * inv_cols * static_cast<float>(sum_dxhat_xhat));
    }
  }
}

void EmbeddingGather(const float* table, const int64_t* indices, float* out,
                     int64_t rows, int64_t embed_dim) {
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(out + r * embed_dim, table + indices[r] * embed_dim,
                static_cast<size_t>(embed_dim) * 4);
  }
}

void EmbeddingScatterAdd(const float* grad_out, const int64_t* indices,
                         float* grad_table, int64_t rows, int64_t embed_dim) {
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = grad_table + indices[r] * embed_dim;
    const float* src = grad_out + r * embed_dim;
    for (int64_t c = 0; c < embed_dim; ++c) dst[c] += src[c];
  }
}

void Transpose2D(const float* x, float* out, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) out[c * rows + r] = x[r * cols + c];
  }
}

double SumAll(const float* x, int64_t n) {
  double s = 0;
  for (int64_t i = 0; i < n; ++i) s += x[i];
  return s;
}

}  // namespace fsdp::kernels
