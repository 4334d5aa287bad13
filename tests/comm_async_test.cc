// Async collective runtime tests (the comm-worker "NCCL stream" analogue):
// Work-handle lifecycle and timestamps, FIFO issue ordering, genuine
// communication/compute overlap under injected link latency, the FSDP rate
// limiter with *genuinely pending* (un-waited) handles, FsdpOptions
// validation, and multi-rank multi-iteration stress for TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "autograd/engine.h"
#include "comm/process_group.h"
#include "common/threading.h"
#include "core/fsdp.h"
#include "ddp/ddp.h"
#include "nn/transformer.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

using core::FsdpOptions;
using core::FullyShardedDataParallel;
using core::ShardingStrategy;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------- Work handle basics

TEST(WorkHandle, DefaultConstructedIsComplete) {
  comm::Work w;
  EXPECT_TRUE(w.Completed());
  w.Wait();  // must not hang
}

TEST(WorkHandle, SyncCallReturnsCompletedWork) {
  const int w = 2;
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    Tensor t = Tensor::Ones({4});
    comm::Work work = pg.AllReduce(t);  // default opts: synchronous
    EXPECT_TRUE(work.Completed());
    EXPECT_GE(work.complete_us(), work.issue_us());
    for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.data()[i], 2.f);
  });
}

// One record per collective: a Work's stamps, its flight record and its
// comm-lane span carry the very same numbers, and the span is in the
// collector by the time Wait() returns.
TEST(WorkHandle, StampsEqualFlightRecordAndSpanExactly) {
  const int w = 4;
  const int64_t n = 8;
  auto& collector = obs::TraceCollector::Get();
  collector.Clear();
  collector.set_enabled(true);
  auto comm = std::make_shared<comm::Communicator>(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> shard(n, static_cast<float>(r)), full(n * w);
    std::vector<float> grad(n * w, 1.f), reduced(n);
    for (bool async : {false, true}) {
      comm::CollectiveOptions opts;
      opts.async = async;
      std::vector<comm::Work> works = {
          pg.AllGatherBase(full.data(), shard.data(), n, opts),
          pg.ReduceScatter(reduced.data(), grad.data(), n, opts),
          pg.Barrier(opts)};
      for (const comm::Work& work : works) {
        work.Wait();
        const std::string what = "rank " + std::to_string(r) + " op #" +
                                 std::to_string(work.seq()) +
                                 (async ? " async" : " sync");
        EXPECT_LE(work.issue_us(), work.start_us()) << what;
        EXPECT_LE(work.start_us(), work.complete_us()) << what;

        int records = 0;
        for (const comm::FlightRecord& rec :
             comm->flight_recorder().Records(r)) {
          if (rec.seq != work.seq()) continue;
          ++records;
          EXPECT_EQ(rec.state, comm::OpState::kCompleted) << what;
          EXPECT_EQ(rec.issue_us, work.issue_us()) << what;
          EXPECT_EQ(rec.start_us, work.start_us()) << what;
          EXPECT_EQ(rec.complete_us, work.complete_us()) << what;
        }
        EXPECT_EQ(records, 1) << what;

        int spans = 0;
        for (const obs::TraceEvent& e : collector.SnapshotRank(r)) {
          if (e.lane != "comm" || e.t_begin_us != work.issue_us()) continue;
          ++spans;
          EXPECT_EQ(e.t_exec_us, work.start_us()) << what;
          EXPECT_EQ(e.t_end_us, work.complete_us()) << what;
          EXPECT_EQ(e.bytes, work.bytes()) << what;
        }
        EXPECT_EQ(spans, 1) << what;
      }
    }
  });
  collector.set_enabled(false);
  collector.Clear();
}

TEST(WorkHandle, AsyncWorkPendingUntilWait) {
  const int w = 2;
  auto comm = std::make_shared<comm::Communicator>(w);
  // 50 ms of injected link latency: the collective cannot complete before
  // the issuing thread observes the handle, so "pending right after issue"
  // is deterministic, not a scheduler race.
  comm->SetInjectedLatency(/*base_us=*/50'000);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    Tensor t = Tensor::Full({4}, static_cast<float>(r + 1));
    comm::CollectiveOptions opts;
    opts.async = true;
    comm::Work work = pg.AllReduce(t, opts);
    EXPECT_FALSE(work.Completed()) << "50ms latency still pending at issue";
    work.Wait();
    EXPECT_TRUE(work.Completed());
    // Timestamps: issue -> start -> complete, spanning the injected latency.
    EXPECT_GE(work.start_us(), work.issue_us());
    EXPECT_GE(work.complete_us(), work.start_us());
    EXPECT_GE(work.complete_us() - work.issue_us(), 50'000.0);
    for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.data()[i], 3.f);  // 1 + 2
  });
}

TEST(WorkHandle, FifoOrderingWithinOneRank) {
  // Ops enqueue FIFO per rank worker: waiting a later handle implies every
  // earlier handle on the same queue already completed.
  const int w = 2;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetInjectedLatency(/*base_us=*/2'000);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    comm::CollectiveOptions opts;
    opts.async = true;
    Tensor a = Tensor::Full({2}, static_cast<float>(r));
    Tensor b = Tensor::Full({2}, static_cast<float>(10 * r));
    comm::Work wa = pg.AllReduce(a, opts);
    comm::Work wb = pg.AllReduce(b, opts);
    wb.Wait();
    EXPECT_TRUE(wa.Completed()) << "FIFO: waiting b implies a done";
    EXPECT_EQ(a.data()[0], 1.f);   // 0 + 1
    EXPECT_EQ(b.data()[0], 10.f);  // 0 + 10
  });
}

TEST(WorkHandle, KeepaliveOutlivesCallerScope) {
  // The issuing scope drops its tensors right after issue; the Work keepalive
  // must hold the buffers until the collective ran. TSan/ASan guard this.
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetInjectedLatency(/*base_us=*/1'000);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    comm::Work work;
    Tensor dst = Tensor::Empty({static_cast<int64_t>(w)});
    {
      Tensor src = Tensor::Full({1}, static_cast<float>(r + 1));
      comm::CollectiveOptions opts;
      opts.async = true;
      work = pg.AllGatherBase(dst, src, opts);
      // src goes out of scope here while the gather is still pending.
    }
    work.Wait();
    for (int k = 0; k < w; ++k) EXPECT_EQ(dst.data()[k], k + 1.f);
  });
}

// ----------------------------------------------------------- overlap timing

TEST(AsyncOverlap, IssueComputeWaitBeatsSynchronous) {
  // With L ms of injected comm latency and C ms of compute, sync costs
  // ~L + C while async issue -> compute -> wait costs ~max(L, C). Generous
  // margins keep this robust on loaded CI machines.
  const int w = 2;
  const double kLatencyMs = 30.0, kComputeMs = 30.0;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetInjectedLatency(/*base_us=*/kLatencyMs * 1000);
  std::vector<double> sync_ms(w), async_ms(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    auto compute = [&] {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          kComputeMs));
    };
    Tensor t = Tensor::Ones({16});
    double t0 = NowMs();
    pg.AllReduce(t);  // synchronous
    compute();
    sync_ms[r] = NowMs() - t0;

    Tensor u = Tensor::Ones({16});
    comm::CollectiveOptions opts;
    opts.async = true;
    t0 = NowMs();
    comm::Work work = pg.AllReduce(u, opts);
    compute();
    work.Wait();
    async_ms[r] = NowMs() - t0;
  });
  for (int r = 0; r < w; ++r) {
    EXPECT_LT(async_ms[r], 0.8 * sync_ms[r])
        << "rank " << r << ": async " << async_ms[r] << "ms vs sync "
        << sync_ms[r] << "ms";
  }
}

// ------------------------------------------------- rate limiter, genuinely

Tensor StressTokens(int rank, int step) {
  return ops::IndexTensor({(rank * 3 + step + 1) % 13, (rank * 5 + 2) % 13,
                           (step * 7 + 3) % 13, (rank + step + 4) % 13},
                          {1, 4});
}

Tensor StressTargets(int rank, int step) {
  return ops::IndexTensor({(rank + step + 5) % 13, (rank + 6) % 13,
                           (step + 7) % 13, (rank + 8) % 13},
                          {4});
}

nn::ModulePtr StressModel(int layers, uint64_t seed = 7) {
  nn::InitCtx ctx(Device::kCpu, seed);
  nn::TransformerConfig cfg;
  cfg.vocab_size = 13;
  cfg.max_seq = 4;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = layers;
  return std::make_shared<nn::TransformerModel>(cfg, ctx);
}

TEST(RateLimiterTest, BoundsGenuinelyPendingWork) {
  // The acceptance check for the async runtime: with injected latency the
  // prefetched AllGathers are *really* un-waited when the limiter counts
  // them — max_inflight must hit the cap exactly, and a unit's wait must
  // observe at least one still-pending handle (a real wait, not a no-op).
  const int w = 2, limit = 2;
  comm::DeviceMesh mesh(w, w);
  mesh.SetInjectedLatency(/*base_us=*/3'000);
  RunOnRanks(w, [&](int r) {
    FsdpOptions opts;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    opts.forward_prefetch = true;
    opts.backward_prefetch = true;
    opts.limit_all_gathers = limit;
    FullyShardedDataParallel fsdp(StressModel(/*layers=*/4), mesh, r, opts);
    for (int s = 0; s < 3; ++s) {
      Tensor loss = ops::CrossEntropy(fsdp.Forward(StressTokens(r, s)),
                                      StressTargets(r, s));
      autograd::RunBackward(loss);
    }
    ASSERT_EQ(fsdp.state().max_inflight_unshards(), limit);
    ASSERT_GT(fsdp.state().waits_on_pending(), 0)
        << "injected latency must make some AllGather genuinely pending";
  });
}

// ---------------------------------------------------- FsdpOptions::Validate

TEST(FsdpOptionsValidate, AcceptsConsistentConfigs) {
  FsdpOptions opts;
  EXPECT_TRUE(opts.Validate(/*world=*/8, /*factor=*/8).ok());
  opts.strategy = ShardingStrategy::kNoShard;
  EXPECT_TRUE(opts.Validate(8, 1).ok());
  opts.strategy = ShardingStrategy::kHybridShard;
  EXPECT_TRUE(opts.Validate(8, 4).ok());
  opts.limit_all_gathers = 0;  // 0 disables the limiter
  EXPECT_TRUE(opts.Validate(8, 4).ok());
}

TEST(FsdpOptionsValidate, RejectsStrategyMeshMismatch) {
  FsdpOptions opts;  // FULL_SHARD
  Status s = opts.Validate(/*world=*/8, /*factor=*/4);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("sharding factor == world size"),
            std::string::npos);

  opts.strategy = ShardingStrategy::kNoShard;
  s = opts.Validate(8, 8);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("NO_SHARD requires sharding factor 1"),
            std::string::npos);

  opts.strategy = ShardingStrategy::kHybridShard;
  s = opts.Validate(8, 9);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("hybrid sharding factor out of range"),
            std::string::npos);
}

TEST(FsdpOptionsValidate, RejectsBadLimiterAndDtypes) {
  FsdpOptions opts;
  opts.limit_all_gathers = -1;
  Status s = opts.Validate(8, 8);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("limit_all_gathers must be >= 0"),
            std::string::npos);

  opts.limit_all_gathers = 4096;
  s = opts.Validate(8, 8);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("max 1024"), std::string::npos);

  opts.limit_all_gathers = 2;
  opts.mixed_precision.reduce_dtype = DType::kI64;
  s = opts.Validate(8, 8);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("floating point"), std::string::npos);
}

TEST(FsdpOptionsValidate, ConstructorAbortsOnInvalidOptions) {
  comm::DeviceMesh mesh(2, 2);
  FsdpOptions opts;
  opts.limit_all_gathers = -3;
  EXPECT_DEATH(
      { FullyShardedDataParallel fsdp(StressModel(1), mesh, 0, opts); },
      "limit_all_gathers");
}

// -------------------------------------------------------------- TSan stress

TEST(AsyncStress, ManyRanksManyIterationsRawCollectives) {
  // Interleaved async collectives from every rank across many iterations:
  // the TSan target for the worker runtime itself (queue handoff, Work
  // completion, keepalive release).
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetInjectedLatency(/*base_us=*/100);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    comm::CollectiveOptions async_opts;
    async_opts.async = true;
    for (int iter = 0; iter < 25; ++iter) {
      Tensor a = Tensor::Full({8}, static_cast<float>(r + iter));
      Tensor gathered = Tensor::Empty({4 * w});
      Tensor src = Tensor::Full({4}, static_cast<float>(r));
      comm::Work wa = pg.AllReduce(a, async_opts);
      comm::Work wg = pg.AllGatherBase(gathered, src, async_opts);
      Tensor scattered = Tensor::Empty({2});
      Tensor rs_src = Tensor::Ones({static_cast<int64_t>(2 * w)});
      comm::Work ws = pg.ReduceScatter(scattered, rs_src, async_opts);
      ws.Wait();
      wg.Wait();
      wa.Wait();
      ASSERT_EQ(a.data()[0], static_cast<float>(w * iter + w * (w - 1) / 2));
      for (int k = 0; k < w; ++k) {
        ASSERT_EQ(gathered.data()[4 * k], static_cast<float>(k));
      }
      ASSERT_EQ(scattered.data()[0], static_cast<float>(w));
      pg.Barrier();  // marker op must respect FIFO vs pending async ops
    }
  });
}

TEST(AsyncStress, FsdpTrainingLoopUnderLatency) {
  // End-to-end stress: prefetch + rate limiter + async gradient reduction
  // over multiple optimizer steps and ranks. Run under FSDP_SANITIZE=thread
  // (ctest -L tsan) to validate the runtime is race-free.
  const int w = 4;
  comm::DeviceMesh mesh(w, w);
  mesh.SetInjectedLatency(/*base_us=*/200);
  RunOnRanks(w, [&](int r) {
    FsdpOptions opts;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    opts.forward_prefetch = true;
    opts.backward_prefetch = true;
    opts.limit_all_gathers = 2;
    FullyShardedDataParallel fsdp(StressModel(/*layers=*/3), mesh, r, opts);
    optim::Adam adam(fsdp.Parameters(), {.lr = 1e-2f});
    for (int s = 0; s < 8; ++s) {
      adam.ZeroGrad();
      Tensor loss = ops::CrossEntropy(fsdp.Forward(StressTokens(r, s)),
                                      StressTargets(r, s));
      autograd::RunBackward(loss);
      adam.Step();
      ASSERT_TRUE(std::isfinite(loss.item())) << "step " << s;
    }
  });
}

TEST(AsyncStress, DdpBucketedAsyncAllReduce) {
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetInjectedLatency(/*base_us=*/200);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    ddp::DdpOptions opts;
    opts.bucket_cap_numel = 64;  // force several buckets
    ddp::DistributedDataParallel ddp(StressModel(/*layers=*/2), pg, opts);
    ASSERT_GT(ddp.num_buckets(), 1);
    std::vector<Tensor> params;
    for (Tensor* slot : ddp.module().ParameterSlots()) params.push_back(*slot);
    optim::SGD sgd(params, /*lr=*/1e-2f);
    for (int s = 0; s < 6; ++s) {
      sgd.ZeroGrad();
      Tensor loss = ops::CrossEntropy(ddp.Forward(StressTokens(r, s)),
                                      StressTargets(r, s));
      autograd::RunBackward(loss);
      sgd.Step();
      ASSERT_TRUE(std::isfinite(loss.item())) << "step " << s;
    }
  });
}

}  // namespace
}  // namespace fsdp
