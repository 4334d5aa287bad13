// Differentiable operations.
//
// Each op runs its forward kernel, and — when grad mode is enabled and any
// input participates in gradient flow — attaches a GradFn capturing what the
// backward needs. Two ops deserve note for FSDP (paper Sec 3.2.3):
//
//  * SliceView / Reshape are *storage-sharing* autograd-visible views. FSDP
//    sets each original parameter to be a SliceView into the unsharded
//    FlatParameter; the backward of SliceView adds the view's gradient at
//    its offset into the engine's one zero-filled FlatParameter-shaped
//    accumulator (a WindowGradFn, autograd/node.h), and the engine's
//    dependency counting finalizes the FlatParameter grad exactly once all
//    used views have contributed — reproducing torch.split/view backward.
//  * Cast quantizes through a reduced-precision format in the forward and
//    passes gradients straight through (grads stay FP32), matching FSDP's
//    native mixed precision where only parameter/communication storage is
//    low-precision.
#pragma once

#include <vector>

#include "autograd/node.h"
#include "tensor/tensor.h"

namespace fsdp::ops {

/// Builds an index tensor (dtype kI64) from integer values.
Tensor IndexTensor(const std::vector<int64_t>& values, Shape shape);
/// Extracts integer values from an index tensor.
std::vector<int64_t> IndexValues(const Tensor& t);

// ----- elementwise -----
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor ScalarMul(const Tensor& a, float s);
Tensor Relu(const Tensor& x);
Tensor Gelu(const Tensor& x);
Tensor Sigmoid(const Tensor& x);
Tensor Tanh(const Tensor& x);

// ----- linear algebra -----
/// a (m x k) @ b (k x n) -> (m x n). 2-D only.
Tensor MatMul(const Tensor& a, const Tensor& b);
/// x (rows... x in) @ w^T (out x in) + b (out) -> (rows... x out).
/// Leading dims of x are flattened into rows. `b` may be undefined.
Tensor Linear(const Tensor& x, const Tensor& w, const Tensor& b);
/// 2-D transpose (copying).
Tensor Transpose(const Tensor& x);

// ----- shape -----
/// Autograd-visible reshape sharing storage.
Tensor Reshape(const Tensor& x, Shape shape);
/// Autograd-visible flat window view sharing storage (torch.split analogue;
/// the FlatParameter view op). `offset` is in elements relative to `x`.
Tensor SliceView(const Tensor& x, int64_t offset, Shape shape);
/// Rows [r0, r1) of a 2-D tensor — a contiguous storage-sharing view.
Tensor SliceRows(const Tensor& x, int64_t r0, int64_t r1);
/// Columns [c0, c1) of a 2-D tensor (copying; strided data).
Tensor SliceCols(const Tensor& x, int64_t c0, int64_t c1);
/// Horizontal concatenation of equal-row 2-D tensors (copying).
Tensor ConcatCols(const std::vector<Tensor>& parts);
/// Vertical concatenation of equal-column 2-D tensors (copying).
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// Repeats a 1-D tensor as every row of a (rows x numel) matrix; the
/// gradient is the column sum (bias-broadcast semantics).
Tensor BroadcastRows(const Tensor& v, int64_t rows);

// ----- normalization / softmax -----
/// Row-wise softmax over the last dimension.
Tensor Softmax(const Tensor& x);
/// LayerNorm over the last dimension with affine gamma/beta.
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

// ----- embeddings / losses / reductions -----
/// out[r, :] = table[indices[r], :]. `indices` must be an index tensor.
Tensor Embedding(const Tensor& table, const Tensor& indices);
/// Mean cross-entropy over (rows x classes) logits and integer targets.
Tensor CrossEntropy(const Tensor& logits, const Tensor& targets);
/// Mean squared error (mean over all elements).
Tensor MseLoss(const Tensor& pred, const Tensor& target);
Tensor Sum(const Tensor& x);
Tensor Mean(const Tensor& x);

// ----- precision -----
/// Quantizing cast (new storage). Gradient passes through unquantized.
Tensor Cast(const Tensor& x, DType dtype);

}  // namespace fsdp::ops
