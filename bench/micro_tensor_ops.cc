// Micro-benchmarks (google-benchmark) of the functional layer's kernels and
// autograd ops — the substrate the correctness tests run on. Not a figure
// reproduction; useful for tracking the library's own performance.
#include <benchmark/benchmark.h>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "tensor/kernels.h"

namespace fsdp {
namespace {

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1, 0);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  Tensor c = Tensor::Empty({n, n});
  for (auto _ : state) {
    kernels::Gemm(a.data(), b.data(), c.data(), n, n, n, false, false, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The transformer's Linear GEMMs (32 rows, dim 256): forward x . W^T (NT),
// input gradient g . W (NN) and weight gradient g^T . x (TN), on every GEMM
// path this CPU supports. Args are {isa, m, n, k, trans_a, trans_b}, isa
// being a kernels::GemmIsa; a transposed operand has the same numel.
void BM_GemmLinear(benchmark::State& state) {
  const auto isa = static_cast<kernels::GemmIsa>(state.range(0));
  const int64_t m = state.range(1), n = state.range(2), k = state.range(3);
  const bool trans_a = state.range(4) != 0, trans_b = state.range(5) != 0;
  Rng rng(6, 0);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c = Tensor::Empty({m, n});
  for (auto _ : state) {
    kernels::GemmWith(isa, a.data(), b.data(), c.data(), m, n, k, trans_a,
                      trans_b, false);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
  state.SetLabel(kernels::GemmIsaName(isa));
}

void GemmLinearArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"isa", "m", "n", "k", "ta", "tb"});
  const std::vector<std::vector<int64_t>> shapes = {
      {32, 768, 256, 0, 1},  {32, 256, 256, 0, 1},  {32, 1024, 256, 0, 1},
      {32, 256, 768, 0, 0},  {32, 256, 1024, 0, 0}, {1024, 256, 32, 1, 0},
      {768, 256, 32, 1, 0},  {256, 256, 32, 1, 0}};
  for (kernels::GemmIsa isa : {kernels::GemmIsa::kScalar,
                               kernels::GemmIsa::kAvx2,
                               kernels::GemmIsa::kAvx512}) {
    if (!kernels::GemmIsaSupported(isa)) continue;
    for (std::vector<int64_t> args : shapes) {
      args.insert(args.begin(), static_cast<int64_t>(isa));
      b->Args(args);
    }
  }
}
BENCHMARK(BM_GemmLinear)->Apply(GemmLinearArgs);

void BM_LayerNormForward(benchmark::State& state) {
  const int64_t rows = 256, cols = state.range(0);
  Rng rng(2, 0);
  Tensor x = Tensor::Randn({rows, cols}, rng);
  Tensor gamma = Tensor::Ones({cols});
  Tensor beta = Tensor::Zeros({cols});
  Tensor out = Tensor::Empty({rows, cols});
  Tensor mean = Tensor::Empty({rows});
  Tensor rstd = Tensor::Empty({rows});
  for (auto _ : state) {
    kernels::LayerNormForward(x.data(), gamma.data(), beta.data(), out.data(),
                              mean.data(), rstd.data(), rows, cols, 1e-5f);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_LayerNormForward)->Arg(256)->Arg(1024);

void BM_SoftmaxRows(benchmark::State& state) {
  const int64_t rows = 128, cols = state.range(0);
  Rng rng(3, 0);
  Tensor x = Tensor::Randn({rows, cols}, rng);
  Tensor out = Tensor::Empty({rows, cols});
  for (auto _ : state) {
    kernels::SoftmaxRows(x.data(), out.data(), rows, cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_SoftmaxRows)->Arg(128)->Arg(1024);

void BM_QuantizeBF16(benchmark::State& state) {
  Rng rng(4, 0);
  Tensor x = Tensor::Randn({1 << 16}, rng);
  for (auto _ : state) {
    Tensor y = x.CastTo(DType::kBF16);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_QuantizeBF16);

void BM_AutogradLinearBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5, 0);
  Tensor x = Tensor::Randn({32, n}, rng);
  Tensor w = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n}, rng);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  for (auto _ : state) {
    w.zero_grad();
    b.zero_grad();
    Tensor loss = ops::Sum(ops::Linear(x, w, b));
    autograd::RunBackward(loss);
    benchmark::DoNotOptimize(w.grad().data());
  }
}
BENCHMARK(BM_AutogradLinearBackward)->Arg(64)->Arg(256);

// The backward through one dim-256 transformer block's FlatParameter: its 12
// parameter views (registration order: ln1, qkv, out, ln2, fc1, fc2) each
// land their gradient in the 789,760-element flat gradient. The graph is
// built once; each iteration runs the backward into a cleared .grad, which
// includes one SumBackward fill per view.
void BM_FlatParamViewsBackward(benchmark::State& state) {
  const std::vector<Shape> shapes = {{256},       {256},  {768, 256}, {768},
                                     {256, 256},  {256},  {256},      {256},
                                     {1024, 256}, {1024}, {256, 1024}, {256}};
  int64_t numel = 0;
  for (const Shape& s : shapes) numel += NumelOf(s);
  Rng rng(7, 0);
  Tensor flat = Tensor::Randn({numel}, rng);
  flat.set_requires_grad(true);
  Tensor loss;
  int64_t offset = 0;
  for (const Shape& s : shapes) {
    Tensor term = ops::Sum(ops::SliceView(flat, offset, s));
    loss = loss.defined() ? ops::Add(loss, term) : term;
    offset += NumelOf(s);
  }
  for (auto _ : state) {
    flat.zero_grad();
    autograd::RunBackward(loss);
    benchmark::DoNotOptimize(flat.grad().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * numel * 4);
}
BENCHMARK(BM_FlatParamViewsBackward)->Unit(benchmark::kMicrosecond);

// One allocate / touch / free cycle of a Storage: 789,760 floats is the
// unsharded flat of one fsdp_compute block (built, filled and resharded every
// step), 8,192 floats one activation. The touch writes one float per page,
// so a block whose pages came fresh from the OS pays for its faults.
void BM_StorageChurn(benchmark::State& state) {
  const int64_t numel = state.range(0);
  for (auto _ : state) {
    Tensor t = Tensor::Empty({numel});
    float* p = t.data();
    for (int64_t i = 0; i < numel; i += 1024) p[i] = 1.f;
    benchmark::DoNotOptimize(p);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * numel * 4);
}
BENCHMARK(BM_StorageChurn)->Arg(789760)->Arg(8192);

}  // namespace
}  // namespace fsdp

BENCHMARK_MAIN();
