// Raw numeric kernels over contiguous float buffers.
//
// These are the "CUDA kernels" of the functional layer: pure math with no
// autograd knowledge. The autograd ops (autograd/ops.h) compose forward and
// backward passes from these primitives. Kept simple and cache-friendly;
// only Gemm, where a training step spends most of its time, has a vectorized
// path.
#pragma once

#include <cstdint>

namespace fsdp::kernels {

/// General matrix multiply: C[m,n] (+)= A op B with optional transposes.
/// A is (m x k) if !trans_a else (k x m); B is (k x n) if !trans_b else
/// (n x k). If `accumulate` is false, C is overwritten.
///
/// Runs the widest path this CPU supports (checked once, at run time): a
/// packed-panel micro-kernel on AVX-512F or AVX2, GemmScalar elsewhere. Every
/// path gives bit-identical results for every input, because each output
/// element sees the same operations in the same order, with no fused
/// multiply-add:
///  - !trans_b: c += a(i,p) * b(p,j) for ascending p, skipping terms with
///    a(i,p) == 0 (so inf/NaN in B rows that only meet zeros never reach C);
///  - trans_b: acc = 0, acc += a(i,p) * b(p,j) for ascending p, then c += acc.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b, bool accumulate);
/// The portable loops behind Gemm on CPUs without AVX2; same contract.
void GemmScalar(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k, bool trans_a, bool trans_b,
                bool accumulate);

/// The instruction sets Gemm has a path for, narrowest first.
enum class GemmIsa { kScalar, kAvx2, kAvx512 };
/// Whether this CPU can run `isa`'s path.
bool GemmIsaSupported(GemmIsa isa);
const char* GemmIsaName(GemmIsa isa);
/// Gemm on one given path, which this CPU must support. Gemm calls it with
/// the widest; tests and benchmarks call it to reach the narrower ones.
void GemmWith(GemmIsa isa, const float* a, const float* b, float* c,
              int64_t m, int64_t n, int64_t k, bool trans_a, bool trans_b,
              bool accumulate);

/// out[i] = a[i] + b[i].
void Add(const float* a, const float* b, float* out, int64_t n);
/// out[i] = a[i] - b[i].
void Sub(const float* a, const float* b, float* out, int64_t n);
/// out[i] = a[i] * b[i].
void Mul(const float* a, const float* b, float* out, int64_t n);
/// out[i] = a[i] * s.
void Scale(const float* a, float s, float* out, int64_t n);
/// out[i] += a[i] (accumulation).
void Accumulate(float* out, const float* a, int64_t n);

/// Adds bias[j] to each row of x (rows x cols), writing out.
void AddBiasRows(const float* x, const float* bias, float* out, int64_t rows,
                 int64_t cols);
/// grad_bias[j] (+)= sum over rows of grad_out[., j].
void BiasGradCols(const float* grad_out, float* grad_bias, int64_t rows,
                  int64_t cols, bool accumulate);

void ReluForward(const float* x, float* out, int64_t n);
void ReluBackward(const float* x, const float* grad_out, float* grad_in,
                  int64_t n);
/// tanh-approximation GELU (the transformer default).
void GeluForward(const float* x, float* out, int64_t n);
void GeluBackward(const float* x, const float* grad_out, float* grad_in,
                  int64_t n);
void SigmoidForward(const float* x, float* out, int64_t n);
/// grad_in = grad_out * y * (1 - y), with y the forward output.
void SigmoidBackward(const float* y, const float* grad_out, float* grad_in,
                     int64_t n);
void TanhForward(const float* x, float* out, int64_t n);
void TanhBackward(const float* y, const float* grad_out, float* grad_in,
                  int64_t n);

/// Row-wise softmax over (rows x cols).
void SoftmaxRows(const float* x, float* out, int64_t rows, int64_t cols);
/// grad_in = (grad_out - rowdot(grad_out, y)) * y, y = softmax output.
void SoftmaxBackwardRows(const float* y, const float* grad_out, float* grad_in,
                         int64_t rows, int64_t cols);

/// Mean cross-entropy with integer targets over (rows x classes) logits.
/// Writes per-row log-probabilities into log_probs (rows x classes) for the
/// backward pass; returns mean loss.
float CrossEntropyForward(const float* logits, const int64_t* targets,
                          float* log_probs, int64_t rows, int64_t classes);
/// grad_logits = (softmax - onehot(target)) * grad_loss / rows.
void CrossEntropyBackward(const float* log_probs, const int64_t* targets,
                          float grad_loss, float* grad_logits, int64_t rows,
                          int64_t classes);

/// LayerNorm over the last dimension of (rows x cols) with affine params.
/// Saves per-row mean and reciprocal std for the backward pass.
void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float* out, float* mean, float* rstd, int64_t rows,
                      int64_t cols, float eps);
void LayerNormBackward(const float* x, const float* gamma, const float* mean,
                       const float* rstd, const float* grad_out, float* grad_in,
                       float* grad_gamma, float* grad_beta, int64_t rows,
                       int64_t cols);

/// out[r, :] = table[indices[r], :]; indices given as floats (rounded) or
/// int64 buffer.
void EmbeddingGather(const float* table, const int64_t* indices, float* out,
                     int64_t rows, int64_t embed_dim);
/// grad_table[indices[r], :] += grad_out[r, :].
void EmbeddingScatterAdd(const float* grad_out, const int64_t* indices,
                         float* grad_table, int64_t rows, int64_t embed_dim);

/// Transposes (rows x cols) -> (cols x rows).
void Transpose2D(const float* x, float* out, int64_t rows, int64_t cols);

double SumAll(const float* x, int64_t n);

}  // namespace fsdp::kernels
