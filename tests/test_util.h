// Shared helpers for the test suite.
#pragma once

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/engine.h"
#include "nn/layers.h"
#include "tensor/tensor.h"

namespace fsdp::testing {

/// A temporary directory of this test process's own, created on first use
/// and removed at exit. ctest runs tests as concurrent processes, so files
/// with fixed names (flight-recorder dumps, checkpoints, artifacts) in the
/// shared ::testing::TempDir() would clobber each other.
inline const std::string& ProcessTempDir() {
  struct Dir {
    std::string path = ::testing::TempDir() + "/fsdp_test_" +
                       std::to_string(::getpid());
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// Points obs::ArtifactPath (flight-recorder dumps, PROFILE_/BENCH_/RECOVERY_
/// artifacts) at ProcessTempDir().
inline void UseTempArtifactDir() {
  ::setenv("FSDP_ARTIFACT_DIR", ProcessTempDir().c_str(), 1);
}

/// A "pipeline stage": a small MLP stack mapping dim -> dim. Stages chained
/// sequentially on every rank emulate the 1F1B-free functional schedule
/// (each rank drives both stages; real pipelining is a scheduling concern,
/// while FSDP's interop concern is the per-micro-batch unshard traffic).
/// Shared by the pipeline interop tests and the composed FSDP×TP×PP tests.
inline nn::ModulePtr MakePipelineStage(uint64_t seed, int64_t dim) {
  nn::InitCtx ctx(Device::kCpu, seed);
  auto seq = std::make_shared<nn::Sequential>();
  seq->Append(std::make_shared<nn::MLP>(dim, 2 * dim, ctx));
  seq->Append(std::make_shared<nn::MLP>(dim, 2 * dim, ctx));
  return seq;
}

/// Checks analytic gradients of `fn` w.r.t. every tensor in `inputs` against
/// central finite differences. `fn` must return a scalar tensor and be pure.
inline void CheckGradients(
    const std::function<Tensor()>& fn, const std::vector<Tensor>& inputs,
    float eps = 1e-3f, float rtol = 5e-2f, float atol = 1e-3f) {
  // Analytic pass.
  for (const Tensor& t : inputs) {
    Tensor(t).zero_grad();
  }
  Tensor loss = fn();
  autograd::RunBackward(loss);

  for (size_t ti = 0; ti < inputs.size(); ++ti) {
    Tensor t = inputs[ti];
    Tensor grad = t.grad();
    ASSERT_TRUE(grad.defined()) << "no grad for input " << ti;
    float* data = t.data();
    const float* g = grad.data();
    const int64_t n = t.numel();
    // Probe a bounded number of coordinates to keep tests fast.
    const int64_t stride = std::max<int64_t>(1, n / 13);
    for (int64_t i = 0; i < n; i += stride) {
      const float orig = data[i];
      data[i] = orig + eps;
      const float up = fn().item();
      data[i] = orig - eps;
      const float down = fn().item();
      data[i] = orig;
      const float numeric = (up - down) / (2.f * eps);
      EXPECT_NEAR(g[i], numeric, atol + rtol * std::fabs(numeric))
          << "input " << ti << " coord " << i;
    }
  }
}

/// EXPECT that two tensors match elementwise within tolerances.
inline void ExpectAllClose(const Tensor& a, const Tensor& b,
                           float rtol = 1e-5f, float atol = 1e-6f) {
  ASSERT_TRUE(a.defined() && b.defined());
  ASSERT_EQ(a.numel(), b.numel());
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(pa[i], pb[i], atol + rtol * std::fabs(pb[i]))
        << "at flat index " << i;
  }
}

}  // namespace fsdp::testing
