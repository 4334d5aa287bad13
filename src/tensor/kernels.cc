#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

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

// Packed-panel GEMM for CPUs with AVX2. B is packed into one [k][kNr] panel
// at a time and each micro-kernel call computes an R x kNr block of C in
// vector registers, keeping GemmScalar's per-element operation order (see
// Gemm in kernels.h). The target enables AVX2 but not FMA, so no multiply
// and add can be contracted.
typedef float v8 __attribute__((vector_size(32)));
constexpr int64_t kMr = 4;   // rows of C per micro-kernel call
constexpr int64_t kNr = 16;  // columns of C per panel (two v8)

#define FSDP_AVX2 __attribute__((target("avx2")))

FSDP_AVX2 inline v8 Load(const float* p) {
  v8 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

FSDP_AVX2 inline void Store(float* p, v8 v) { std::memcpy(p, &v, sizeof v); }

// C block (R x kNr at c, row stride ldc) against the packed panel. A(i,p) is
// a[i * ars + p * acs].
template <int R, bool kTransB>
FSDP_AVX2 void MicroKernel(const float* a, int64_t ars, int64_t acs,
                           const float* panel, int64_t k, float* c,
                           int64_t ldc) {
  v8 acc[R][2];
  for (int r = 0; r < R; ++r) {
    acc[r][0] = kTransB ? v8{} : Load(c + r * ldc);
    acc[r][1] = kTransB ? v8{} : Load(c + r * ldc + 8);
  }
  for (int64_t p = 0; p < k; ++p) {
    const v8 b0 = Load(panel + p * kNr);
    const v8 b1 = Load(panel + p * kNr + 8);
    const float* ap = a + p * acs;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av = ap[r * ars];
      if (!kTransB && av == 0.f) continue;
      acc[r][0] = acc[r][0] + av * b0;
      acc[r][1] = acc[r][1] + av * b1;
    }
  }
  for (int r = 0; r < R; ++r) {
    if (kTransB) {
      acc[r][0] = Load(c + r * ldc) + acc[r][0];
      acc[r][1] = Load(c + r * ldc + 8) + acc[r][1];
    }
    Store(c + r * ldc, acc[r][0]);
    Store(c + r * ldc + 8, acc[r][1]);
  }
}

// kMicroKernels[trans_b][rows - 1].
using MicroKernelFn = void (*)(const float*, int64_t, int64_t, const float*,
                               int64_t, float*, int64_t);
constexpr MicroKernelFn kMicroKernels[2][kMr] = {
    {MicroKernel<1, false>, MicroKernel<2, false>, MicroKernel<3, false>,
     MicroKernel<4, false>},
    {MicroKernel<1, true>, MicroKernel<2, true>, MicroKernel<3, true>,
     MicroKernel<4, true>}};

FSDP_AVX2 void GemmPacked(const float* a, const float* b, float* c, int64_t m,
                          int64_t n, int64_t k, bool trans_a, bool trans_b) {
  // One panel per thread, reused across calls: at most k * kNr floats for
  // the largest k the thread has seen.
  thread_local std::vector<float> panel;
  if (panel.size() < static_cast<size_t>(k * kNr)) {
    panel.resize(static_cast<size_t>(k * kNr));
  }
  const int64_t ars = trans_a ? 1 : k, acs = trans_a ? m : 1;
  const MicroKernelFn* kernel = kMicroKernels[trans_b];
  for (int64_t j0 = 0; j0 < n; j0 += kNr) {
    const int64_t nc = std::min(kNr, n - j0);
    // Pack B(:, j0 .. j0+nc) as panel[p][jj], zero-padded to kNr columns.
    float* pp = panel.data();
    if (nc < kNr) std::fill(pp, pp + k * kNr, 0.f);
    if (trans_b) {  // B stored (n x k)
      for (int64_t jj = 0; jj < nc; ++jj) {
        const float* brow = b + (j0 + jj) * k;
        for (int64_t p = 0; p < k; ++p) pp[p * kNr + jj] = brow[p];
      }
    } else {  // B stored (k x n)
      for (int64_t p = 0; p < k; ++p) {
        std::memcpy(pp + p * kNr, b + p * n + j0, static_cast<size_t>(nc) * 4);
      }
    }
    for (int64_t i0 = 0; i0 < m; i0 += kMr) {
      const int64_t rows = std::min(kMr, m - i0);
      const float* ablk = a + i0 * ars;
      if (nc == kNr) {
        kernel[rows - 1](ablk, ars, acs, pp, k, c + i0 * n + j0, n);
        continue;
      }
      // Ragged last panel: run the block on a full-width copy of C.
      float tile[kMr * kNr] = {};
      for (int64_t r = 0; r < rows; ++r) {
        std::memcpy(tile + r * kNr, c + (i0 + r) * n + j0,
                    static_cast<size_t>(nc) * 4);
      }
      kernel[rows - 1](ablk, ars, acs, pp, k, tile, kNr);
      for (int64_t r = 0; r < rows; ++r) {
        std::memcpy(c + (i0 + r) * n + j0, tile + r * kNr,
                    static_cast<size_t>(nc) * 4);
      }
    }
  }
}

#undef FSDP_AVX2

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b, bool accumulate) {
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  if (!avx2) {
    GemmScalar(a, b, c, m, n, k, trans_a, trans_b, accumulate);
    return;
  }
  if (!accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * 4);
  GemmPacked(a, b, c, m, n, k, trans_a, trans_b);
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
