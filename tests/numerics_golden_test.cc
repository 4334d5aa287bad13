// Bitwise numerics gate: trains the benchmark's two gated shapes (the
// fsdp_compute and hsdp_bf16 workloads of perfbench/) for a few steps and
// compares every rank's per-step loss, as hex floats, and the FNV-1a hash of
// the final FullStateDict against tests/golden/numerics.txt.
//
// A change that should not move numerics (a faster kernel, a fused
// optimizer loop, a new schedule) must pass unchanged. A change that moves
// them on purpose replaces the workload's lines in the file with the ones
// the failure message prints, and says why in its description.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "common/threading.h"
#include "core/fsdp.h"
#include "nn/transformer.h"
#include "optim/optimizer.h"

namespace fsdp {
namespace {

constexpr uint64_t kSeed = 1;
constexpr int kSteps = 8;
constexpr int kWorld = 4;
constexpr int kBatches = 4;  // per rank, cycled
constexpr int64_t kDim = 256, kLayers = 4, kHeads = 4, kSeq = 32, kVocab = 256;

struct Workload {
  const char* name;
  int factor;
  core::ShardingStrategy strategy;
  DType dtype;  // param_dtype and reduce_dtype
};

struct Batch {
  Tensor tokens, targets;
};

/// Per-rank batches: random tokens whose targets are a seeded permutation of
/// the vocabulary, as perfbench builds them.
std::vector<Batch> MakeBatches(int rank) {
  Rng perm_rng(kSeed, 1);
  std::vector<int64_t> perm(kVocab);
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int64_t>(i);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[perm_rng.NextU64() % i]);
  }
  Rng rng(kSeed, 100 + static_cast<uint64_t>(rank));
  std::vector<Batch> out;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<int64_t> toks(kSeq), tgts(kSeq);
    for (size_t i = 0; i < toks.size(); ++i) {
      toks[i] = static_cast<int64_t>(rng.NextU64() % kVocab);
      tgts[i] = perm[static_cast<size_t>(toks[i])];
    }
    out.push_back({ops::IndexTensor(toks, {1, kSeq}),
                   ops::IndexTensor(tgts, {kSeq})});
  }
  return out;
}

/// 64-bit FNV-1a over the names and bit patterns of a state dict.
uint64_t StateHash(const std::vector<std::pair<std::string, Tensor>>& sd) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& [name, t] : sd) {
    for (char c : name) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    const float* p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, p + i, sizeof(bits));
      h = (h ^ bits) * 1099511628211ULL;
    }
  }
  return h;
}

/// Trains `w` and renders the result as golden-file lines:
///   <name> rank<r> <loss step 0> ... <loss step kSteps-1>
///   <name> state <hash>
std::vector<std::string> Train(const Workload& w) {
  comm::DeviceMesh mesh(kWorld, w.factor);
  std::vector<std::vector<float>> losses(kWorld);
  std::vector<uint64_t> hashes(kWorld);
  RunOnRanks(kWorld, [&](int r) {
    nn::InitCtx ctx(Device::kCpu, kSeed);
    nn::TransformerConfig cfg;
    cfg.vocab_size = kVocab;
    cfg.max_seq = kSeq;
    cfg.dim = kDim;
    cfg.num_heads = kHeads;
    cfg.num_layers = kLayers;
    auto model = std::make_shared<nn::TransformerModel>(cfg, ctx);
    core::FsdpOptions o;
    o.strategy = w.strategy;
    o.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    o.mixed_precision.param_dtype = w.dtype;
    o.mixed_precision.reduce_dtype = w.dtype;
    o.record_events = false;
    auto state = core::FullyShard(model, mesh, r, o);
    optim::Adam adam(state->Parameters(), optim::AdamOptions{.lr = 2e-3f});
    const std::vector<Batch> batches = MakeBatches(r);
    for (int step = 0; step < kSteps; ++step) {
      const Batch& b = batches[static_cast<size_t>(step % kBatches)];
      adam.ZeroGrad();
      Tensor loss = ops::CrossEntropy((*model)(b.tokens), b.targets);
      autograd::RunBackward(loss);
      adam.Step();
      losses[static_cast<size_t>(r)].push_back(loss.item());
    }
    hashes[static_cast<size_t>(r)] = StateHash(state->FullStateDict());
  });
  std::vector<std::string> lines;
  for (int r = 0; r < kWorld; ++r) {
    std::string line = std::string(w.name) + " rank" + std::to_string(r);
    for (float l : losses[static_cast<size_t>(r)]) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %a", static_cast<double>(l));
      line += buf;
    }
    lines.push_back(line);
  }
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(hashes[static_cast<size_t>(r)], hashes[0])
        << w.name << ": rank " << r << "'s FullStateDict differs from rank 0's";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, " state %016llx",
                static_cast<unsigned long long>(hashes[0]));
  lines.push_back(std::string(w.name) + buf);
  return lines;
}

/// The golden file's lines for workload `name`, in file order.
std::vector<std::string> GoldenLines(const std::string& name) {
  std::ifstream in(FSDP_NUMERICS_GOLDEN);
  EXPECT_TRUE(in.good()) << "cannot read " << FSDP_NUMERICS_GOLDEN;
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, name.size() + 1, name + " ") == 0) out.push_back(line);
  }
  return out;
}

void ExpectGolden(const Workload& w) {
  const std::vector<std::string> got = Train(w);
  const std::vector<std::string> want = GoldenLines(w.name);
  if (got == want) return;
  std::ostringstream msg;
  msg << w.name << " numerics differ from " << FSDP_NUMERICS_GOLDEN << "\n";
  for (size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    const std::string g = i < got.size() ? got[i] : "(none)";
    const std::string x = i < want.size() ? want[i] : "(none)";
    if (g != x) msg << "  want: " << x << "\n   got: " << g << "\n";
  }
  msg << "This run's lines:\n";
  for (const std::string& line : got) msg << line << "\n";
  ADD_FAILURE() << msg.str();
}

TEST(NumericsGoldenTest, FsdpComputeFullShardF32) {
  ExpectGolden({"fsdp_compute", kWorld, core::ShardingStrategy::kFullShard,
                DType::kF32});
}

TEST(NumericsGoldenTest, HsdpBf16HybridShardF2) {
  ExpectGolden({"hsdp_bf16", 2, core::ShardingStrategy::kHybridShard,
                DType::kBF16});
}

}  // namespace
}  // namespace fsdp
