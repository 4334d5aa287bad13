// Collective-communication tests: correctness of every collective against a
// naive reference, subgroup (DeviceMesh) structure, and byte accounting —
// across several world sizes via parameterized suites.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "comm/process_group.h"
#include "common/threading.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, AllGatherBase) {
  const int w = GetParam();
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    const int64_t n = 5;
    std::vector<float> src(n), dst(static_cast<size_t>(w * n));
    for (int64_t i = 0; i < n; ++i) src[i] = 100.f * r + i;
    pg.AllGatherBase(dst.data(), src.data(), n);
    for (int k = 0; k < w; ++k) {
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[k * n + i], 100.f * k + i) << "rank " << r;
      }
    }
    ASSERT_EQ(pg.stats().allgather_ops, 1);
    ASSERT_EQ(pg.stats().allgather_bytes, (w - 1) * n * 4);
  });
}

TEST_P(CollectiveTest, ReduceScatterSum) {
  const int w = GetParam();
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    const int64_t n = 4;
    // src[k*n + i] = r on every rank -> each chunk reduces to w*r summed over
    // ranks... use position-dependent values for a stronger check.
    std::vector<float> src(static_cast<size_t>(w * n));
    for (int64_t i = 0; i < w * n; ++i) {
      src[static_cast<size_t>(i)] = static_cast<float>(r * 1000 + i);
    }
    std::vector<float> dst(n);
    pg.ReduceScatter(dst.data(), src.data(), n);
    // sum over ranks of (k*1000 + (r*n + i)).
    const float rank_sum = 1000.f * (w * (w - 1) / 2);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(dst[i], rank_sum + w * (r * n + i)) << "rank " << r;
    }
  });
}

TEST_P(CollectiveTest, AllReduceSumAvgMax) {
  const int w = GetParam();
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> buf = {static_cast<float>(r), 1.f,
                              static_cast<float>(-r)};
    comm::CollectiveOptions sum_opts;
    sum_opts.op = comm::ReduceOp::kSum;
    pg.AllReduce(buf.data(), 3, sum_opts);
    ASSERT_EQ(buf[0], static_cast<float>(w * (w - 1) / 2));
    ASSERT_EQ(buf[1], static_cast<float>(w));

    std::vector<float> avg = {static_cast<float>(2 * r)};
    comm::CollectiveOptions avg_opts;
    avg_opts.op = comm::ReduceOp::kAvg;
    pg.AllReduce(avg.data(), 1, avg_opts);
    ASSERT_FLOAT_EQ(avg[0], static_cast<float>(w - 1));

    std::vector<float> mx = {static_cast<float>(r == 0 ? 42 : -r)};
    comm::CollectiveOptions max_opts;
    max_opts.op = comm::ReduceOp::kMax;
    pg.AllReduce(mx.data(), 1, max_opts);
    ASSERT_EQ(mx[0], 42.f);
  });
}

/// Rank r's input element i: signed values over several binades, with
/// exact zeros of both signs and equal values across ranks mixed in.
float ReduceInput(int r, int64_t i) {
  uint32_t h = static_cast<uint32_t>(r + 1) * 2654435761u ^
               static_cast<uint32_t>(i) * 2246822519u;
  h ^= h >> 15;
  h *= 2654435761u;
  h ^= h >> 13;
  if (h % 23 == 0) return (h & 64) ? -0.f : 0.f;
  if (h % 29 == 0) return 1.5f;  // same on every rank that draws it
  const float mag = static_cast<float>(h % 20011) / 1000.f;
  const float scale = std::ldexp(1.f, static_cast<int>(h >> 28) - 6);
  return ((h & 1) ? -mag : mag) * scale;
}

/// The reduction contract, one element at a time: peers in rank order,
/// every partial result (and the average) rounded through comm_dtype.
float ReduceFormula(int w, int64_t i, comm::ReduceOp op, DType dtype) {
  float acc = ReduceInput(0, i);
  for (int k = 1; k < w; ++k) {
    const float v = ReduceInput(k, i);
    acc = op == comm::ReduceOp::kMax ? std::max(acc, v) : acc + v;
    if (dtype != DType::kF32) acc = Quantize(acc, dtype);
  }
  if (op == comm::ReduceOp::kAvg) {
    acc /= static_cast<float>(w);
    if (dtype != DType::kF32) acc = Quantize(acc, dtype);
  }
  return acc;
}

TEST_P(CollectiveTest, ReductionsMatchPerElementFormulaBitwise) {
  const int w = GetParam();
  const int64_t n = 1100;  // per-rank chunk: spans several reduce blocks
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    for (comm::ReduceOp op :
         {comm::ReduceOp::kSum, comm::ReduceOp::kAvg, comm::ReduceOp::kMax}) {
      for (DType dtype : {DType::kF32, DType::kBF16}) {
        comm::CollectiveOptions opts;
        opts.op = op;
        opts.comm_dtype = dtype;
        std::vector<float> src(static_cast<size_t>(w * n));
        for (int64_t i = 0; i < w * n; ++i) src[i] = ReduceInput(r, i);
        std::vector<float> chunk(n), want(w * n);
        for (int64_t i = 0; i < w * n; ++i) {
          want[i] = ReduceFormula(w, i, op, dtype);
        }
        pg.ReduceScatter(chunk.data(), src.data(), n, opts);
        ASSERT_EQ(std::memcmp(chunk.data(), want.data() + r * n, n * 4), 0)
            << "ReduceScatter op " << static_cast<int>(op) << " dtype "
            << DTypeName(dtype) << " rank " << r;
        pg.AllReduce(src.data(), w * n, opts);
        ASSERT_EQ(std::memcmp(src.data(), want.data(), w * n * 4), 0)
            << "AllReduce op " << static_cast<int>(op) << " dtype "
            << DTypeName(dtype) << " rank " << r;
      }
    }
  });
}

TEST_P(CollectiveTest, Broadcast) {
  const int w = GetParam();
  auto comm = std::make_shared<comm::Communicator>(w);
  for (int root = 0; root < w; ++root) {
    RunOnRanks(w, [&](int r) {
      comm::ProcessGroup pg(comm, r);
      std::vector<float> buf = {static_cast<float>(r), static_cast<float>(r)};
      pg.Broadcast(buf.data(), 2, root);
      ASSERT_EQ(buf[0], static_cast<float>(root));
    });
  }
}

TEST_P(CollectiveTest, AllToAllTransposesChunks) {
  const int w = GetParam();
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    const int64_t chunk = 3;
    // src chunk j on rank r = value r*100 + j.
    std::vector<float> src(static_cast<size_t>(w * chunk));
    for (int j = 0; j < w; ++j) {
      for (int64_t i = 0; i < chunk; ++i) {
        src[j * chunk + i] = static_cast<float>(r * 100 + j);
      }
    }
    std::vector<float> dst(static_cast<size_t>(w * chunk), -1.f);
    pg.AllToAll(dst.data(), src.data(), chunk);
    // dst chunk k must be rank k's chunk r: value k*100 + r.
    for (int k = 0; k < w; ++k) {
      for (int64_t i = 0; i < chunk; ++i) {
        ASSERT_EQ(dst[k * chunk + i], static_cast<float>(k * 100 + r))
            << "rank " << r;
      }
    }
  });
}

TEST_P(CollectiveTest, BackToBackCollectivesDoNotInterfere) {
  const int w = GetParam();
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    for (int iter = 0; iter < 50; ++iter) {
      std::vector<float> buf = {static_cast<float>(r + iter)};
      pg.AllReduce(buf.data(), 1);
      ASSERT_EQ(buf[0], static_cast<float>(w * (w - 1) / 2 + w * iter));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(CollectiveDtype, LowPrecisionReductionQuantizes) {
  // BF16 reduction: adding 1.0 and 2^-9 in bf16 loses the small addend.
  const int w = 2;
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> src = {r == 0 ? 1.f : 0.001953125f, 0.f};  // 2^-9
    std::vector<float> dst(1);
    comm::CollectiveOptions opts;
    opts.comm_dtype = DType::kBF16;
    pg.ReduceScatter(dst.data(), src.data(), 1, opts);
    ASSERT_EQ(dst[0], r == 0 ? 1.f : 0.f);  // rank 0's chunk lost the addend
  });
}

TEST(DeviceMeshTest, GroupStructure) {
  // DeviceMesh(W, F) is the mesh {{"replicate", W/F}, {"shard", F}}: its
  // FSDP groups are the two axis slices.
  const int w = 8;
  for (int f : {1, 2, 4, 8}) {
    SCOPED_TRACE("F=" + std::to_string(f));
    comm::DeviceMesh mesh(w, f);
    EXPECT_EQ(mesh.sharding_factor(), f);
    EXPECT_EQ(mesh.num_shard_groups(), w / f);
    RunOnRanks(w, [&](int r) {
      auto shard = mesh.ShardGroup(r);
      auto repl = mesh.ReplicateGroup(r);
      comm::ProcessGroup shard_slice, repl_slice;
      ASSERT_TRUE(mesh.Slice("shard", r, &shard_slice).ok());
      ASSERT_TRUE(mesh.Slice("replicate", r, &repl_slice).ok());
      ASSERT_EQ(shard.communicator(), shard_slice.communicator());
      ASSERT_EQ(shard.rank(), shard_slice.rank());
      ASSERT_EQ(shard.size(), shard_slice.size());
      ASSERT_EQ(repl.communicator(), repl_slice.communicator());
      ASSERT_EQ(repl.rank(), repl_slice.rank());
      ASSERT_EQ(repl.size(), repl_slice.size());
      ASSERT_EQ(shard.size(), f);
      ASSERT_EQ(repl.size(), w / f);
      ASSERT_EQ(shard.rank(), r % f);
      ASSERT_EQ(repl.rank(), r / f);
      // Collective inside the shard group only mixes the F local ranks.
      std::vector<float> buf = {static_cast<float>(r)};
      shard.AllReduce(buf.data(), 1);
      const int base = (r / f) * f;
      ASSERT_EQ(buf[0], static_cast<float>(base * f + f * (f - 1) / 2));
    });
  }
}

TEST(DeviceMeshTest, HybridEqualsGlobalReduction) {
  // Paper Eq. 1: reduce-scatter over shard groups + all-reduce over replicate
  // groups == global reduction.
  const int w = 8, f = 4;
  comm::DeviceMesh mesh(w, f);
  comm::DeviceMesh flat_mesh(w, w);
  RunOnRanks(w, [&](int r) {
    const int64_t n_per = 2;  // per-rank chunk under F-sharding
    std::vector<float> grad(static_cast<size_t>(f * n_per));
    for (size_t i = 0; i < grad.size(); ++i) {
      grad[i] = static_cast<float>((r + 1) * (i + 1));
    }
    // Hybrid path.
    auto shard = mesh.ShardGroup(r);
    auto repl = mesh.ReplicateGroup(r);
    std::vector<float> mine(n_per);
    shard.ReduceScatter(mine.data(), grad.data(), n_per);
    repl.AllReduce(mine.data(), n_per);
    // Global reference: sum over all ranks of grad[k][local chunk].
    const int local = r % f;
    for (int64_t i = 0; i < n_per; ++i) {
      float expect = 0;
      for (int k = 0; k < w; ++k) {
        expect += static_cast<float>((k + 1) * (local * n_per + i + 1));
      }
      ASSERT_EQ(mine[i], expect) << "rank " << r;
    }
  });
}

TEST(DeviceMeshTest, InvalidFactorsDie) {
  EXPECT_DEATH(comm::DeviceMesh(8, 3), "divide");
  EXPECT_DEATH(comm::DeviceMesh(8, 9), "out of");
}

TEST(DeviceMeshTest, FsdpGroupsOnAMeshWithoutFsdpAxesDie) {
  std::shared_ptr<comm::DeviceMesh> mesh;
  ASSERT_TRUE(comm::DeviceMesh::Create(4, {{"dp", 2}, {"tp", 2}}, &mesh).ok());
  EXPECT_DEATH(mesh->ShardGroup(0),
               "unknown mesh axis 'shard' \\(axes: dp, tp\\).*FsdpSubmesh");
  EXPECT_DEATH(mesh->ReplicateGroup(0),
               "unknown mesh axis 'replicate' \\(axes: dp, tp\\).*"
               "FsdpSubmesh");
  EXPECT_DEATH((void)mesh->sharding_factor(), "'shard'.*FsdpSubmesh");
}

TEST(CommStats, TracksBytesAndOps) {
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    Tensor t = Tensor::Ones({8});
    pg.AllReduce(t);
    Tensor dst = Tensor::Empty({2});
    Tensor src = Tensor::Ones({8});
    pg.ReduceScatter(dst, src);
    ASSERT_EQ(pg.stats().allreduce_ops, 1);
    ASSERT_EQ(pg.stats().reducescatter_ops, 1);
    ASSERT_EQ(pg.stats().reducescatter_bytes, 3 * 2 * 4);
    pg.ResetStats();
    ASSERT_EQ(pg.stats().allreduce_ops, 0);
  });
}

// A ring AllReduce moves 2*(w-1)/w of the buffer per rank. The count rounds
// once, after multiplying, so buffers smaller than the world still count.
TEST(CommStats, AllReduceBytesCountSmallBuffers) {
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    for (int64_t numel : {1, 3, 7}) {
      pg.ResetStats();
      Tensor t = Tensor::Ones({numel});
      pg.AllReduce(t);
      ASSERT_EQ(pg.stats().allreduce_bytes, 2 * (w - 1) * numel * 4 / w)
          << "numel " << numel;
      ASSERT_GT(pg.stats().allreduce_bytes, 0) << "numel " << numel;
    }
  });
}

}  // namespace
}  // namespace fsdp
