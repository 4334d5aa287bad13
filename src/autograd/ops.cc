#include "autograd/ops.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "tensor/kernels.h"

namespace fsdp::ops {

namespace {

/// Attaches `node` as producer of `out` if grad mode is on and any input
/// participates. Inputs are recorded on the node in the given order.
void Attach(Tensor* out, std::shared_ptr<GradFn> node,
            std::initializer_list<Tensor> inputs) {
  if (!grad_mode::Enabled()) return;
  bool any = false;
  for (const Tensor& t : inputs) {
    if (t.defined() && Participates(t.impl())) any = true;
  }
  if (!any) return;
  for (const Tensor& t : inputs) node->inputs.push_back(t.impl());
  node->seq = NextNodeSeq();
  out->impl()->requires_grad = true;
  out->set_grad_fn(std::move(node));
}

int64_t RowsOf(const Tensor& t) { return t.numel() / t.size(-1); }

}  // namespace

Tensor IndexTensor(const std::vector<int64_t>& values, Shape shape) {
  FSDP_CHECK(NumelOf(shape) == static_cast<int64_t>(values.size()));
  Tensor t = Tensor::Empty(std::move(shape), DType::kI64);
  float* p = t.data();
  for (size_t i = 0; i < values.size(); ++i) {
    p[i] = static_cast<float>(values[i]);
  }
  return t;
}

std::vector<int64_t> IndexValues(const Tensor& t) {
  std::vector<int64_t> out(static_cast<size_t>(t.numel()));
  const float* p = t.data();
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<int64_t>(std::llround(p[i]));
  }
  return out;
}

// ---------------------------------------------------------------- elementwise

namespace {
struct AddFn : GradFn {
  std::string name() const override { return "AddBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override { return {g, g}; }
};

struct SubFn : GradFn {
  std::string name() const override { return "SubBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor neg = g.Clone();
    neg.Mul_(-1.f);
    return {g, neg};
  }
};

struct MulFn : GradFn {
  Tensor a, b;
  std::string name() const override { return "MulBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor ga = Tensor::Empty(a.shape());
    Tensor gb = Tensor::Empty(b.shape());
    kernels::Mul(g.data(), b.data(), ga.data(), g.numel());
    kernels::Mul(g.data(), a.data(), gb.data(), g.numel());
    return {ga, gb};
  }
};

struct ScalarMulFn : GradFn {
  float s;
  std::string name() const override { return "ScalarMulBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor ga = g.Clone();
    ga.Mul_(s);
    return {ga};
  }
};
}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  FSDP_CHECK_MSG(a.numel() == b.numel(), "Add shape mismatch");
  Tensor out = Tensor::Empty(a.shape());
  kernels::Add(a.data(), b.data(), out.data(), a.numel());
  Attach(&out, std::make_shared<AddFn>(), {a, b});
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  FSDP_CHECK(a.numel() == b.numel());
  Tensor out = Tensor::Empty(a.shape());
  kernels::Sub(a.data(), b.data(), out.data(), a.numel());
  Attach(&out, std::make_shared<SubFn>(), {a, b});
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  FSDP_CHECK(a.numel() == b.numel());
  Tensor out = Tensor::Empty(a.shape());
  kernels::Mul(a.data(), b.data(), out.data(), a.numel());
  auto node = std::make_shared<MulFn>();
  node->a = a;
  node->b = b;
  Attach(&out, std::move(node), {a, b});
  return out;
}

Tensor ScalarMul(const Tensor& a, float s) {
  Tensor out = Tensor::Empty(a.shape());
  kernels::Scale(a.data(), s, out.data(), a.numel());
  auto node = std::make_shared<ScalarMulFn>();
  node->s = s;
  Attach(&out, std::move(node), {a});
  return out;
}

namespace {
struct ReluFn : GradFn {
  Tensor x;
  std::string name() const override { return "ReluBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor gi = Tensor::Empty(x.shape());
    kernels::ReluBackward(x.data(), g.data(), gi.data(), x.numel());
    return {gi};
  }
};

struct GeluFn : GradFn {
  Tensor x;
  std::string name() const override { return "GeluBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor gi = Tensor::Empty(x.shape());
    kernels::GeluBackward(x.data(), g.data(), gi.data(), x.numel());
    return {gi};
  }
};

struct SigmoidFn : GradFn {
  Tensor y;
  std::string name() const override { return "SigmoidBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor gi = Tensor::Empty(y.shape());
    kernels::SigmoidBackward(y.data(), g.data(), gi.data(), y.numel());
    return {gi};
  }
};

struct TanhFn : GradFn {
  Tensor y;
  std::string name() const override { return "TanhBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor gi = Tensor::Empty(y.shape());
    kernels::TanhBackward(y.data(), g.data(), gi.data(), y.numel());
    return {gi};
  }
};
}  // namespace

Tensor Relu(const Tensor& x) {
  Tensor out = Tensor::Empty(x.shape());
  kernels::ReluForward(x.data(), out.data(), x.numel());
  auto node = std::make_shared<ReluFn>();
  node->x = x;
  Attach(&out, std::move(node), {x});
  return out;
}

Tensor Gelu(const Tensor& x) {
  Tensor out = Tensor::Empty(x.shape());
  kernels::GeluForward(x.data(), out.data(), x.numel());
  auto node = std::make_shared<GeluFn>();
  node->x = x;
  Attach(&out, std::move(node), {x});
  return out;
}

Tensor Sigmoid(const Tensor& x) {
  Tensor out = Tensor::Empty(x.shape());
  kernels::SigmoidForward(x.data(), out.data(), x.numel());
  auto node = std::make_shared<SigmoidFn>();
  // Save the output through a fresh storage-sharing view: a node must never
  // own its own output's impl, or the impl<->node shared_ptr cycle leaks
  // the entire iteration graph.
  node->y = out.SliceView(0, out.shape());
  Attach(&out, std::move(node), {x});
  return out;
}

Tensor Tanh(const Tensor& x) {
  Tensor out = Tensor::Empty(x.shape());
  kernels::TanhForward(x.data(), out.data(), x.numel());
  auto node = std::make_shared<TanhFn>();
  node->y = out.SliceView(0, out.shape());  // break the output self-cycle
  Attach(&out, std::move(node), {x});
  return out;
}

// ------------------------------------------------------------ linear algebra

namespace {
struct MatMulFn : GradFn {
  Tensor a, b;  // a (m x k), b (k x n)
  std::string name() const override { return "MatMulBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
    Tensor ga = Tensor::Empty({m, k});
    Tensor gb = Tensor::Empty({k, n});
    // dA = dC @ B^T ; dB = A^T @ dC.
    kernels::Gemm(g.data(), b.data(), ga.data(), m, k, n, false, true, false);
    kernels::Gemm(a.data(), g.data(), gb.data(), k, n, m, true, false, false);
    return {ga, gb};
  }
};

struct LinearFn : GradFn {
  Tensor x, w;  // x (rows x in), w (out x in)
  bool has_bias;
  Shape x_shape;
  std::string name() const override { return "LinearBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    const int64_t rows = RowsOf(x), in = x.size(-1), out_f = w.size(0);
    Tensor gx = Tensor::Empty(x_shape);
    Tensor gw = Tensor::Empty({out_f, in});
    // dX = dY @ W ; dW = dY^T @ X.
    kernels::Gemm(g.data(), w.data(), gx.data(), rows, in, out_f, false, false,
                  false);
    kernels::Gemm(g.data(), x.data(), gw.data(), out_f, in, rows, true, false,
                  false);
    if (!has_bias) return {gx, gw};
    Tensor gb = Tensor::Empty({out_f});
    kernels::BiasGradCols(g.data(), gb.data(), rows, out_f, false);
    return {gx, gw, gb};
  }
};

struct TransposeFn : GradFn {
  int64_t rows, cols;
  std::string name() const override { return "TransposeBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor gi = Tensor::Empty({rows, cols});
    kernels::Transpose2D(g.data(), gi.data(), cols, rows);
    return {gi};
  }
};
}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  FSDP_CHECK_MSG(a.dim() == 2 && b.dim() == 2 && a.size(1) == b.size(0),
                 "MatMul shapes " << ShapeToString(a.shape()) << " x "
                                  << ShapeToString(b.shape()));
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor out = Tensor::Empty({m, n});
  kernels::Gemm(a.data(), b.data(), out.data(), m, n, k, false, false, false);
  auto node = std::make_shared<MatMulFn>();
  node->a = a;
  node->b = b;
  Attach(&out, std::move(node), {a, b});
  return out;
}

Tensor Linear(const Tensor& x, const Tensor& w, const Tensor& b) {
  FSDP_CHECK_MSG(w.dim() == 2 && x.size(-1) == w.size(1),
                 "Linear: x " << ShapeToString(x.shape()) << " w "
                              << ShapeToString(w.shape()));
  const int64_t rows = RowsOf(x), in = x.size(-1), out_f = w.size(0);
  Shape out_shape = x.shape();
  out_shape.back() = out_f;
  Tensor out = Tensor::Empty(out_shape);
  // y = x @ w^T.
  kernels::Gemm(x.data(), w.data(), out.data(), rows, out_f, in, false, true,
                false);
  if (b.defined()) {
    FSDP_CHECK(b.numel() == out_f);
    kernels::AddBiasRows(out.data(), b.data(), out.data(), rows, out_f);
  }
  auto node = std::make_shared<LinearFn>();
  node->x = x;
  node->w = w;
  node->has_bias = b.defined();
  node->x_shape = x.shape();
  if (b.defined()) {
    Attach(&out, std::move(node), {x, w, b});
  } else {
    Attach(&out, std::move(node), {x, w});
  }
  return out;
}

Tensor Transpose(const Tensor& x) {
  FSDP_CHECK(x.dim() == 2);
  const int64_t rows = x.size(0), cols = x.size(1);
  Tensor out = Tensor::Empty({cols, rows});
  kernels::Transpose2D(x.data(), out.data(), rows, cols);
  auto node = std::make_shared<TransposeFn>();
  node->rows = rows;
  node->cols = cols;
  Attach(&out, std::move(node), {x});
  return out;
}

// ------------------------------------------------------------------- shape

namespace {
struct ReshapeFn : GradFn {
  Shape in_shape;
  std::string name() const override { return "ReshapeBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    return {g.Clone().ViewAs(in_shape)};
  }
};

struct SliceViewFn : WindowGradFn {
  int64_t offset;
  std::string name() const override { return "SliceViewBackward"; }
  // Each original parameter's gradient lands at its offset in the
  // FlatParameter gradient.
  void AddWindow(const Tensor& g, bool copy, Tensor* acc) const override {
    float* dst = acc->data() + offset;
    if (copy) {
      std::memcpy(dst, g.data(), static_cast<size_t>(g.numel()) * 4);
    } else {
      kernels::Accumulate(dst, g.data(), g.numel());
    }
  }
};
}  // namespace

Tensor Reshape(const Tensor& x, Shape shape) {
  Tensor out = x.ViewAs(shape);  // shares storage
  auto node = std::make_shared<ReshapeFn>();
  node->in_shape = x.shape();
  Attach(&out, std::move(node), {x});
  return out;
}

Tensor SliceView(const Tensor& x, int64_t offset, Shape shape) {
  Tensor out = x.SliceView(offset, shape);
  auto node = std::make_shared<SliceViewFn>();
  node->offset = offset;
  Attach(&out, std::move(node), {x});
  return out;
}

Tensor SliceRows(const Tensor& x, int64_t r0, int64_t r1) {
  FSDP_CHECK(x.dim() == 2 && 0 <= r0 && r0 < r1 && r1 <= x.size(0));
  const int64_t cols = x.size(1);
  return SliceView(x, r0 * cols, {r1 - r0, cols});
}

namespace {
struct SliceColsFn : WindowGradFn {
  int64_t cols, c0, c1;
  std::string name() const override { return "SliceColsBackward"; }
  void AddWindow(const Tensor& g, bool copy, Tensor* acc) const override {
    const int64_t w = c1 - c0, rows = g.numel() / w;
    for (int64_t r = 0; r < rows; ++r) {
      float* dst = acc->data() + r * cols + c0;
      const float* src = g.data() + r * w;
      if (copy) {
        std::memcpy(dst, src, static_cast<size_t>(w) * 4);
      } else {
        kernels::Accumulate(dst, src, w);
      }
    }
  }
};

struct ConcatColsFn : GradFn {
  int64_t rows;
  std::vector<int64_t> widths;
  std::string name() const override { return "ConcatColsBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    int64_t total = 0;
    for (int64_t w : widths) total += w;
    std::vector<Tensor> grads;
    int64_t c = 0;
    for (int64_t w : widths) {
      Tensor gi = Tensor::Empty({rows, w});
      for (int64_t r = 0; r < rows; ++r) {
        std::memcpy(gi.data() + r * w, g.data() + r * total + c,
                    static_cast<size_t>(w) * 4);
      }
      grads.push_back(gi);
      c += w;
    }
    return grads;
  }
};
}  // namespace

Tensor SliceCols(const Tensor& x, int64_t c0, int64_t c1) {
  FSDP_CHECK(x.dim() == 2 && 0 <= c0 && c0 < c1 && c1 <= x.size(1));
  const int64_t rows = x.size(0), cols = x.size(1), w = c1 - c0;
  Tensor out = Tensor::Empty({rows, w});
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * w, x.data() + r * cols + c0,
                static_cast<size_t>(w) * 4);
  }
  auto node = std::make_shared<SliceColsFn>();
  node->cols = cols;
  node->c0 = c0;
  node->c1 = c1;
  Attach(&out, std::move(node), {x});
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  FSDP_CHECK(!parts.empty());
  const int64_t rows = parts[0].size(0);
  int64_t total = 0;
  for (const Tensor& p : parts) {
    FSDP_CHECK(p.dim() == 2 && p.size(0) == rows);
    total += p.size(1);
  }
  Tensor out = Tensor::Empty({rows, total});
  int64_t c = 0;
  for (const Tensor& p : parts) {
    const int64_t w = p.size(1);
    for (int64_t r = 0; r < rows; ++r) {
      std::memcpy(out.data() + r * total + c, p.data() + r * w,
                  static_cast<size_t>(w) * 4);
    }
    c += w;
  }
  auto node = std::make_shared<ConcatColsFn>();
  node->rows = rows;
  for (const Tensor& p : parts) node->widths.push_back(p.size(1));
  if (grad_mode::Enabled()) {
    bool any = false;
    for (const Tensor& p : parts) any |= Participates(p.impl());
    if (any) {
      for (const Tensor& p : parts) node->inputs.push_back(p.impl());
      node->seq = NextNodeSeq();
      out.impl()->requires_grad = true;
      out.set_grad_fn(std::move(node));
    }
  }
  return out;
}

namespace {
struct ConcatRowsFn : GradFn {
  int64_t cols;
  std::vector<int64_t> row_counts;
  std::string name() const override { return "ConcatRowsBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    std::vector<Tensor> grads;
    int64_t r = 0;
    for (int64_t rc : row_counts) {
      Tensor gi = Tensor::Empty({rc, cols});
      std::memcpy(gi.data(), g.data() + r * cols,
                  static_cast<size_t>(rc * cols) * 4);
      grads.push_back(gi);
      r += rc;
    }
    return grads;
  }
};
}  // namespace

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  FSDP_CHECK(!parts.empty());
  const int64_t cols = parts[0].size(1);
  int64_t rows = 0;
  for (const Tensor& p : parts) {
    FSDP_CHECK(p.dim() == 2 && p.size(1) == cols);
    rows += p.size(0);
  }
  Tensor out = Tensor::Empty({rows, cols});
  int64_t r = 0;
  for (const Tensor& p : parts) {
    std::memcpy(out.data() + r * cols, p.data(),
                static_cast<size_t>(p.numel()) * 4);
    r += p.size(0);
  }
  auto node = std::make_shared<ConcatRowsFn>();
  node->cols = cols;
  for (const Tensor& p : parts) node->row_counts.push_back(p.size(0));
  if (grad_mode::Enabled()) {
    bool any = false;
    for (const Tensor& p : parts) any |= Participates(p.impl());
    if (any) {
      for (const Tensor& p : parts) node->inputs.push_back(p.impl());
      node->seq = NextNodeSeq();
      out.impl()->requires_grad = true;
      out.set_grad_fn(std::move(node));
    }
  }
  return out;
}

namespace {
struct BroadcastRowsFn : GradFn {
  int64_t rows = 0, cols = 0;
  std::string name() const override { return "BroadcastRowsBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor gv = Tensor::Zeros({cols});
    kernels::BiasGradCols(g.data(), gv.data(), rows, cols, false);
    return {gv};
  }
};
}  // namespace

Tensor BroadcastRows(const Tensor& v, int64_t rows) {
  FSDP_CHECK_MSG(v.dim() == 1, "BroadcastRows expects a 1-D tensor");
  const int64_t cols = v.numel();
  Tensor out = Tensor::Empty({rows, cols});
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * cols, v.data(),
                static_cast<size_t>(cols) * 4);
  }
  auto node = std::make_shared<BroadcastRowsFn>();
  node->rows = rows;
  node->cols = cols;
  Attach(&out, std::move(node), {v});
  return out;
}

// ------------------------------------------------------- softmax / layernorm

namespace {
struct SoftmaxFn : GradFn {
  Tensor y;
  int64_t rows, cols;
  std::string name() const override { return "SoftmaxBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor gi = Tensor::Empty(y.shape());
    kernels::SoftmaxBackwardRows(y.data(), g.data(), gi.data(), rows, cols);
    return {gi};
  }
};

struct LayerNormFn : GradFn {
  Tensor x, gamma, mean, rstd;
  int64_t rows, cols;
  std::string name() const override { return "LayerNormBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor gi = Tensor::Empty(x.shape());
    Tensor gg = Tensor::Zeros({cols});
    Tensor gb = Tensor::Zeros({cols});
    kernels::LayerNormBackward(x.data(), gamma.data(), mean.data(),
                               rstd.data(), g.data(), gi.data(), gg.data(),
                               gb.data(), rows, cols);
    return {gi, gg, gb};
  }
};
}  // namespace

Tensor Softmax(const Tensor& x) {
  const int64_t cols = x.size(-1), rows = RowsOf(x);
  Tensor out = Tensor::Empty(x.shape());
  kernels::SoftmaxRows(x.data(), out.data(), rows, cols);
  auto node = std::make_shared<SoftmaxFn>();
  node->y = out.SliceView(0, out.shape());  // break the output self-cycle
  node->rows = rows;
  node->cols = cols;
  Attach(&out, std::move(node), {x});
  return out;
}

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  const int64_t cols = x.size(-1), rows = RowsOf(x);
  FSDP_CHECK(gamma.numel() == cols && beta.numel() == cols);
  Tensor out = Tensor::Empty(x.shape());
  Tensor mean = Tensor::Empty({rows});
  Tensor rstd = Tensor::Empty({rows});
  kernels::LayerNormForward(x.data(), gamma.data(), beta.data(), out.data(),
                            mean.data(), rstd.data(), rows, cols, eps);
  auto node = std::make_shared<LayerNormFn>();
  node->x = x;
  node->gamma = gamma;
  node->mean = mean;
  node->rstd = rstd;
  node->rows = rows;
  node->cols = cols;
  Attach(&out, std::move(node), {x, gamma, beta});
  return out;
}

// --------------------------------------------- embedding / losses / reduce

namespace {
struct EmbeddingFn : GradFn {
  Shape table_shape;
  std::vector<int64_t> idx;
  int64_t embed_dim;
  std::string name() const override { return "EmbeddingBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor gt = Tensor::Zeros(table_shape);
    kernels::EmbeddingScatterAdd(g.data(), idx.data(), gt.data(),
                                 static_cast<int64_t>(idx.size()), embed_dim);
    // No grad for indices.
    return {gt, Tensor()};
  }
};

struct CrossEntropyFn : GradFn {
  Tensor log_probs;
  std::vector<int64_t> targets;
  int64_t rows, classes;
  std::string name() const override { return "CrossEntropyBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    Tensor gl = Tensor::Empty({rows, classes});
    kernels::CrossEntropyBackward(log_probs.data(), targets.data(), g.item(),
                                  gl.data(), rows, classes);
    return {gl, Tensor()};
  }
};

struct MseFn : GradFn {
  Tensor pred, target;
  std::string name() const override { return "MseBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    const float scale = 2.f * g.item() / static_cast<float>(pred.numel());
    Tensor gp = Tensor::Empty(pred.shape());
    kernels::Sub(pred.data(), target.data(), gp.data(), pred.numel());
    gp.Mul_(scale);
    Tensor gt = gp.Clone();
    gt.Mul_(-1.f);
    return {gp, gt};
  }
};

struct SumFn : GradFn {
  Shape in_shape;
  float scale;
  std::string name() const override { return "SumBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override {
    return {Tensor::Full(in_shape, g.item() * scale)};
  }
};
}  // namespace

Tensor Embedding(const Tensor& table, const Tensor& indices) {
  FSDP_CHECK_MSG(table.dim() == 2, "embedding table must be 2-D");
  FSDP_CHECK_MSG(indices.dtype() == DType::kI64, "indices must be kI64");
  const int64_t d = table.size(1);
  std::vector<int64_t> idx = IndexValues(indices);
  for (int64_t i : idx) {
    FSDP_CHECK_MSG(i >= 0 && i < table.size(0), "index " << i << " out of "
                                                         << table.size(0));
  }
  Shape out_shape = indices.shape();
  out_shape.push_back(d);
  Tensor out = Tensor::Empty(out_shape);
  kernels::EmbeddingGather(table.data(), idx.data(), out.data(),
                           static_cast<int64_t>(idx.size()), d);
  auto node = std::make_shared<EmbeddingFn>();
  node->table_shape = table.shape();
  node->idx = std::move(idx);
  node->embed_dim = d;
  Attach(&out, std::move(node), {table, indices});
  return out;
}

Tensor CrossEntropy(const Tensor& logits, const Tensor& targets) {
  const int64_t classes = logits.size(-1), rows = RowsOf(logits);
  FSDP_CHECK_MSG(targets.numel() == rows, "target count mismatch");
  std::vector<int64_t> tgt = IndexValues(targets);
  Tensor log_probs = Tensor::Empty({rows, classes});
  const float loss = kernels::CrossEntropyForward(logits.data(), tgt.data(),
                                                  log_probs.data(), rows,
                                                  classes);
  Tensor out = Tensor::Scalar(loss);
  auto node = std::make_shared<CrossEntropyFn>();
  node->log_probs = log_probs;
  node->targets = std::move(tgt);
  node->rows = rows;
  node->classes = classes;
  Attach(&out, std::move(node), {logits, targets});
  return out;
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  FSDP_CHECK(pred.numel() == target.numel());
  const int64_t n = pred.numel();
  double s = 0;
  const float* p = pred.data();
  const float* t = target.data();
  for (int64_t i = 0; i < n; ++i) {
    const double d = p[i] - t[i];
    s += d * d;
  }
  Tensor out = Tensor::Scalar(static_cast<float>(s / static_cast<double>(n)));
  auto node = std::make_shared<MseFn>();
  node->pred = pred;
  node->target = target;
  Attach(&out, std::move(node), {pred, target});
  return out;
}

Tensor Sum(const Tensor& x) {
  Tensor out = Tensor::Scalar(
      static_cast<float>(kernels::SumAll(x.data(), x.numel())));
  auto node = std::make_shared<SumFn>();
  node->in_shape = x.shape();
  node->scale = 1.f;
  Attach(&out, std::move(node), {x});
  return out;
}

Tensor Mean(const Tensor& x) {
  const float inv = 1.f / static_cast<float>(x.numel());
  Tensor out = Tensor::Scalar(
      static_cast<float>(kernels::SumAll(x.data(), x.numel())) * inv);
  auto node = std::make_shared<SumFn>();
  node->in_shape = x.shape();
  node->scale = inv;
  Attach(&out, std::move(node), {x});
  return out;
}

// -------------------------------------------------------------- precision

namespace {
struct CastFn : GradFn {
  std::string name() const override { return "CastBackward"; }
  std::vector<Tensor> Backward(const Tensor& g) override { return {g}; }
};
}  // namespace

Tensor Cast(const Tensor& x, DType dtype) {
  Tensor out = x.CastTo(dtype);
  Attach(&out, std::make_shared<CastFn>(), {x});
  return out;
}

}  // namespace fsdp::ops
