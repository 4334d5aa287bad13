// Fault-tolerant collective runtime tests: scripted fault injection (hang /
// crash / skip / delay), watchdog timeout + culprit diagnosis, desync
// detection at the signature rendezvous, graceful abort (every waiter wakes
// with the abort Status, no keepalive leaks), the flight-recorder JSON dump,
// Barrier() routed through the Issue() path, and error propagation out of
// the FSDP / DDP train step (the step degrades instead of crashing).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/engine.h"
#include "comm/process_group.h"
#include "common/rank_context.h"
#include "common/threading.h"
#include "core/fsdp.h"
#include "ddp/ddp.h"
#include "nn/transformer.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

using comm::CollectiveOptions;
using comm::FaultKind;
using comm::FaultSpec;

bool Contains(const std::string& s, const std::string& sub) {
  return s.find(sub) != std::string::npos;
}

int64_t Counter(const std::string& name) {
  return obs::MetricsRegistry::Get().GetCounter(name).value();
}

// Dumps land under obs::ArtifactPath; ctest runs from build/tests, where
// ./build does not exist, so tests point it at their own temp dir.
using fsdp::testing::UseTempArtifactDir;

nn::ModulePtr MakeModel(uint64_t seed) {
  nn::InitCtx ctx(Device::kCpu, seed);
  nn::TransformerConfig cfg;
  cfg.vocab_size = 13;
  cfg.max_seq = 4;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  return std::make_shared<nn::TransformerModel>(cfg, ctx);
}

Tensor RankTokens(int rank) {
  return ops::IndexTensor({(rank * 3 + 1) % 13, (rank * 5 + 2) % 13,
                           (rank * 7 + 3) % 13, (rank + 4) % 13},
                          {1, 4});
}

Tensor RankTargets(int rank) {
  return ops::IndexTensor({(rank + 5) % 13, (rank + 6) % 13, (rank + 7) % 13,
                           (rank + 8) % 13},
                          {4});
}

TEST(FaultTest, WatchdogAbortsHungCollectiveAndNamesCulprit) {
  UseTempArtifactDir();
  const int w = 4;
  const int64_t timeouts_before = Counter("comm.timeouts");
  const int64_t aborts_before = Counter("comm.aborts");
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetName("hangtest");
  comm->SetDefaultTimeout(80);
  // Rank 1's worker receives collective #2 and never enters it.
  comm->InjectFault({FaultKind::kHang, /*rank=*/1, /*seq=*/2, "", 0});

  std::vector<Status> final_status(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> buf(16, static_cast<float>(r));
    // #0 and #1 complete normally; #2 hangs on rank 1 until the watchdog
    // fires and aborts the communicator, waking every rank with the
    // diagnosis Status.
    ASSERT_TRUE(pg.AllReduce(buf.data(), 16).WaitStatus().ok());
    ASSERT_TRUE(pg.AllReduce(buf.data(), 16).WaitStatus().ok());
    final_status[r] = pg.AllReduce(buf.data(), 16).WaitStatus();
  });

  EXPECT_TRUE(comm->aborted());
  for (int r = 0; r < w; ++r) {
    ASSERT_FALSE(final_status[r].ok()) << "rank " << r;
    EXPECT_TRUE(Contains(final_status[r].message(), "rank 1"))
        << final_status[r].message();
    EXPECT_TRUE(Contains(final_status[r].message(), "#2"))
        << final_status[r].message();
  }
  const comm::WatchdogDiagnosis diag = comm->last_diagnosis();
  EXPECT_EQ(diag.culprit_rank, 1);
  EXPECT_EQ(diag.culprit_seq, 2);
  EXPECT_FALSE(diag.desync);
  EXPECT_TRUE(Contains(diag.reason, "hung")) << diag.reason;
  // The healthy ranks were all blocked in the same collective.
  EXPECT_EQ(diag.expected_next.size(), 3u);
  // The watchdog dumped the flight recorder before aborting.
  EXPECT_FALSE(comm->flight_dump_path().empty());
  EXPECT_TRUE(std::filesystem::exists(comm->flight_dump_path()));
  EXPECT_GE(Counter("comm.timeouts"), timeouts_before + 1);
  EXPECT_GE(Counter("comm.aborts"), aborts_before + 1);
}

// Abort-path teardown race: the watchdog of a mesh's world communicator
// fires and propagates the abort through the mesh's failure domain while the
// woken rank threads drop the last references to every communicator. No
// thread a communicator owns may end up holding the last reference to it —
// its destructor would join that very thread and terminate the process with
// "Resource deadlock avoided". Loops a fixed number of generations.
TEST(FaultTest, MeshTeardownRacingAbortPropagationNeverSelfJoins) {
  UseTempArtifactDir();  // one flight dump per generation
  // Two busy threads oversubscribe the cores, so the aborting watchdog
  // thread gets preempted mid-propagation as it does on a loaded machine
  // (without them the race almost never fires in an otherwise idle process).
  std::atomic<bool> stop{false};
  std::vector<std::thread> hogs;
  for (int i = 0; i < 2; ++i) {
    hogs.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  const int w = 4;
  constexpr int kGenerations = 60;
  for (int gen = 0; gen < kGenerations; ++gen) {
    std::vector<std::vector<comm::ProcessGroup>> groups(w);
    {
      std::shared_ptr<comm::DeviceMesh> mesh;
      ASSERT_TRUE(
          comm::DeviceMesh::Create(w, {{"dp", 2}, {"tp", 2}}, &mesh).ok());
      mesh->SetDefaultTimeout(10);
      for (int r = 0; r < w; ++r) {
        comm::ProcessGroup dp, tp;
        ASSERT_TRUE(mesh->Slice("dp", r, &dp).ok());
        ASSERT_TRUE(mesh->Slice("tp", r, &tp).ok());
        groups[r] = {mesh->WorldGroup(r), dp, tp};
      }
      // Rank `gen % w` dies in the generation's world collective.
      groups[0][0].communicator()->InjectFault(
          {FaultKind::kHang, /*rank=*/gen % w, /*seq=*/0, "", 0});
    }  // from here on the rank threads own every communicator
    RunOnRanks(w, [&](int r) {
      // Start every communicator's worker threads. Under load the world's
      // watchdog may already have aborted the mesh, so these may fail too.
      float v = 1.f;
      (void)groups[r][1].AllReduce(&v, 1).WaitStatus();
      (void)groups[r][2].AllReduce(&v, 1).WaitStatus();
      EXPECT_FALSE(groups[r][0].AllReduce(&v, 1).WaitStatus().ok());
      groups[r].clear();  // drop this rank's references at once
    });
  }
  stop = true;
  for (std::thread& t : hogs) t.join();
}

// Every mesh is one failure domain, the DeviceMesh(W, F) shorthand
// included: a watchdog timeout in one shard group tears down the world and
// every replicate group, whose collectives would otherwise wait forever for
// the hung ranks.
TEST(FaultTest, ShardGroupTimeoutAbortsTheWholeFsdpMesh) {
  UseTempArtifactDir();
  const int w = 4;
  comm::DeviceMesh mesh(w, 2);
  const auto shard0 = mesh.ShardGroup(0).communicator();
  shard0->InjectFault({FaultKind::kHang, /*rank=*/1, /*seq=*/0, "", 0});
  shard0->SetDefaultTimeout(80);
  RunOnRanks(2, [&](int r) {
    float v = 1.f;
    EXPECT_FALSE(mesh.ShardGroup(r).AllReduce(&v, 1).WaitStatus().ok());
  });
  EXPECT_TRUE(shard0->aborted());
  const auto world = mesh.WorldGroup(0).communicator();
  const std::vector<std::shared_ptr<comm::Communicator>> siblings = {
      world, mesh.ShardGroup(2).communicator(),
      mesh.ReplicateGroup(0).communicator(),
      mesh.ReplicateGroup(1).communicator()};
  // The watchdog wakes shard0's own waiters first and aborts the rest of
  // the domain right after, so the siblings may still be catching up.
  const double deadline_us = MonotonicMicros() + 10e6;
  auto all_aborted = [&] {
    return std::all_of(siblings.begin(), siblings.end(),
                       [](const auto& c) { return c->aborted(); });
  };
  while (!all_aborted() && MonotonicMicros() < deadline_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto& c : siblings) EXPECT_TRUE(c->aborted()) << c->name();
  EXPECT_TRUE(Contains(world->abort_status().message(), "'shard0'"))
      << world->abort_status().message();
}

TEST(FaultTest, DesyncDetectionNamesSkippingRank) {
  UseTempArtifactDir();
  const int w = 4;
  const int64_t desyncs_before = Counter("comm.desyncs");
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetName("desynctest");
  comm->SetDesyncDetection(true);
  // Backstop: if the rendezvous somehow missed the mismatch, the watchdog
  // would still end the test.
  comm->SetDefaultTimeout(500);
  // Rank 1 silently skips "alpha" — the classic diverged-control-flow
  // desync. Its worker then arrives at the rendezvous holding "beta" while
  // everyone else holds "alpha".
  comm->InjectFault({FaultKind::kSkip, /*rank=*/1, /*seq=*/-1, "alpha", 0});

  std::vector<Status> alpha_status(w), beta_status(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> buf(8, 1.f);
    CollectiveOptions a;
    a.tag = "alpha";
    alpha_status[r] = pg.AllReduce(buf.data(), 8, a).WaitStatus();
    CollectiveOptions b;
    b.tag = "beta";
    beta_status[r] = pg.AllReduce(buf.data(), 8, b).WaitStatus();
  });

  EXPECT_TRUE(comm->aborted());
  const comm::WatchdogDiagnosis diag = comm->last_diagnosis();
  EXPECT_TRUE(diag.desync);
  EXPECT_EQ(diag.culprit_rank, 1);
  EXPECT_TRUE(Contains(diag.reason, "desync")) << diag.reason;
  EXPECT_TRUE(Contains(diag.reason, "rank 1")) << diag.reason;
  // The skip itself completes OK on rank 1 (it "ran" from that rank's point
  // of view); the collectives caught in the abort carry the diagnosis.
  EXPECT_TRUE(alpha_status[1].ok());
  for (int r = 0; r < w; ++r) {
    EXPECT_FALSE(beta_status[r].ok()) << "rank " << r;
  }
  EXPECT_GE(Counter("comm.desyncs"), desyncs_before + 1);
}

// Every rank agrees on a broadcast's identity even though only non-roots
// receive bytes: the desync rendezvous must let it through.
TEST(FaultTest, BroadcastPassesDesyncDetection) {
  UseTempArtifactDir();
  for (const int w : {2, 4}) {
    auto comm = std::make_shared<comm::Communicator>(w);
    comm->SetName("bcast" + std::to_string(w));
    comm->SetDesyncDetection(true);
    RunOnRanks(w, [&](int r) {
      comm::ProcessGroup pg(comm, r);
      std::vector<float> buf(8, r == 0 ? 7.f : -1.f);
      ASSERT_TRUE(pg.Broadcast(buf.data(), 8, /*root=*/0).WaitStatus().ok())
          << "w=" << w << " rank " << r;
      for (float v : buf) EXPECT_EQ(v, 7.f) << "w=" << w << " rank " << r;
    });
    EXPECT_FALSE(comm->aborted()) << comm->abort_status().message();
  }
}

// FullyShard's construction broadcasts module states (sync_module_states);
// a desync-checked mesh must train through it.
TEST(FaultTest, FullyShardTrainsOnDesyncCheckedMesh) {
  UseTempArtifactDir();
  const int w = 4;
  comm::DeviceMesh mesh(w, w);
  mesh.SetDesyncDetection(true);
  RunOnRanks(w, [&](int r) {
    auto model = MakeModel(42);
    core::FsdpOptions opts;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    auto state = core::FullyShard(model, mesh, r, opts);
    Tensor loss = ops::CrossEntropy((*model)(RankTokens(r)), RankTargets(r));
    autograd::RunBackward(loss);
    EXPECT_TRUE(state->status().ok())
        << "rank " << r << ": " << state->status().message();
  });
  EXPECT_FALSE(mesh.WorldGroup(0).communicator()->aborted());
}

TEST(FaultTest, DesyncDiagnosisNamesBothSizesWhenOnlySizeDiffers) {
  UseTempArtifactDir();
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetName("sizetest");
  comm->SetDesyncDetection(true);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    // Room for either size, so a missed mismatch cannot read out of bounds.
    std::vector<float> buf(16, 1.f);
    const int64_t numel = r == 3 ? 9 : 8;
    EXPECT_FALSE(pg.AllReduce(buf.data(), numel).WaitStatus().ok())
        << "rank " << r;
  });
  ASSERT_TRUE(comm->aborted());
  const comm::WatchdogDiagnosis diag = comm->last_diagnosis();
  EXPECT_TRUE(diag.desync);
  EXPECT_EQ(diag.culprit_rank, 3);
  EXPECT_TRUE(Contains(diag.reason, "numel 9")) << diag.reason;
  EXPECT_TRUE(Contains(diag.reason, "numel 8")) << diag.reason;
}

TEST(FaultTest, CrashedRankDiagnosed) {
  UseTempArtifactDir();
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetName("crashtest");
  comm->SetDefaultTimeout(80);
  // Rank 2 dies at collective #1: its worker stops draining entirely.
  comm->InjectFault({FaultKind::kCrash, /*rank=*/2, /*seq=*/1, "", 0});

  std::vector<Status> final_status(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> buf(8, static_cast<float>(r));
    ASSERT_TRUE(pg.AllReduce(buf.data(), 8).WaitStatus().ok());
    final_status[r] = pg.AllReduce(buf.data(), 8).WaitStatus();
  });

  EXPECT_TRUE(comm->aborted());
  const comm::WatchdogDiagnosis diag = comm->last_diagnosis();
  EXPECT_EQ(diag.culprit_rank, 2);
  EXPECT_EQ(diag.culprit_seq, 1);
  EXPECT_TRUE(Contains(diag.reason, "crashed")) << diag.reason;
  // The progress table exposes the full dead set (the elastic runtime's
  // source of truth when several ranks die in one step).
  EXPECT_EQ(comm->UnhealthyRanks(), std::vector<int>{2});
  for (int r = 0; r < w; ++r) {
    EXPECT_FALSE(final_status[r].ok()) << "rank " << r;
  }
}

TEST(FaultTest, DelayFaultIsBenignBelowTimeout) {
  const int w = 2;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetDefaultTimeout(2000);
  // A 5 ms straggler, well under the watchdog deadline: everything
  // completes OK and nothing aborts.
  comm->InjectFault({FaultKind::kDelay, /*rank=*/0, /*seq=*/0, "", 5000});

  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> buf(4, 1.f);
    EXPECT_TRUE(pg.AllReduce(buf.data(), 4).WaitStatus().ok());
    EXPECT_EQ(buf[0], static_cast<float>(w));
  });
  EXPECT_FALSE(comm->aborted());
}

TEST(FaultTest, WaitForTimesOutWithoutAborting) {
  const int w = 2;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->InjectFault({FaultKind::kDelay, /*rank=*/0, /*seq=*/0, "", 50000});

  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> buf(4, 1.f);
    CollectiveOptions opts;
    opts.async = true;
    comm::Work work = pg.AllReduce(buf.data(), 4, opts);
    if (r == 0) {
      // The 50 ms delayed op cannot finish within 1 ms. WaitFor reports the
      // timeout but does NOT abort the communicator — the op keeps running.
      Status bounded = work.WaitFor(1);
      EXPECT_FALSE(bounded.ok());
      EXPECT_TRUE(Contains(bounded.message(), "timed out"))
          << bounded.message();
    }
    EXPECT_TRUE(work.WaitStatus().ok());
    EXPECT_EQ(buf[0], static_cast<float>(w));
  });
  EXPECT_FALSE(comm->aborted());
}

TEST(FaultTest, BarrierRoutesThroughIssue) {
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  std::atomic<int> arrived{0};
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    arrived.fetch_add(1);
    comm::Work first = pg.Barrier();
    // The barrier is a real rendezvous: nobody passes until everyone
    // arrived.
    EXPECT_EQ(arrived.load(), w) << "rank " << r;
    // And a real collective: it carries a per-rank sequence number and a
    // flight-recorder entry like any other op.
    EXPECT_EQ(first.seq(), 0);
    EXPECT_EQ(pg.Barrier().seq(), 1);
    const auto records = comm->flight_recorder().Records(r);
    ASSERT_GE(records.size(), 2u);
    EXPECT_EQ(records[0].sig.kind, obs::EventKind::kBarrier);
    EXPECT_EQ(records[0].sig.label, "barrier");
    EXPECT_EQ(records[0].state, comm::OpState::kCompleted);
  });
}

// TSan-targeted stress: Abort() racing concurrent Wait()/WaitFor() and
// in-flight async collectives. Every waiter must wake exactly once with a
// definite Status, and the keepalive tensors pinned by the async tensor
// overloads must all be released.
TEST(FaultTest, AbortRacesConcurrentWaitersAndReleasesKeepalives) {
  const int w = 4;
  const int ops_per_rank = 16;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetName("aborttest");

  std::vector<std::vector<std::weak_ptr<TensorImpl>>> staged(w);
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<comm::Work> works;
    works.reserve(ops_per_rank);
    for (int i = 0; i < ops_per_rank; ++i) {
      Tensor buf = Tensor::Zeros({64});
      staged[r].push_back(buf.impl());
      CollectiveOptions opts;
      opts.async = true;
      opts.tag = "stress" + std::to_string(i);
      works.push_back(pg.AllReduce(buf, opts));
      // buf goes out of scope here: only the Work keepalive pins it.
    }
    // Two ranks race Abort() against everyone's waits; first abort wins.
    if (r == 1 || r == 2) {
      comm->Abort(Status::Internal("scripted abort from rank " +
                                   std::to_string(r)));
    }
    for (comm::Work& work : works) {
      // Bounded and unbounded waits from the same thread; both must return
      // (never hang) and agree once the op is complete.
      (void)work.WaitFor(0.2);
      Status st = work.WaitStatus();
      if (!st.ok()) {
        EXPECT_TRUE(Contains(st.message(), "scripted abort")) << st.message();
      }
      EXPECT_TRUE(work.Completed());
    }
  });

  EXPECT_TRUE(comm->aborted());
  EXPECT_TRUE(Contains(comm->abort_status().message(), "scripted abort"));
  // Every op completed (successfully or with the abort Status), so every
  // keepalive tensor must have been released by the workers.
  for (int r = 0; r < w; ++r) {
    for (size_t i = 0; i < staged[r].size(); ++i) {
      EXPECT_TRUE(staged[r][i].expired()) << "rank " << r << " op " << i;
    }
  }
}

TEST(FaultTest, FlightRecorderGoldenDump) {
  UseTempArtifactDir();
  const int w = 2;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetName("golden");
  comm->SetDefaultTimeout(60);

  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> buf(8, 1.f);
    CollectiveOptions warm;
    warm.tag = "warm";
    ASSERT_TRUE(pg.AllReduce(buf.data(), 8, warm).WaitStatus().ok());
  });
  // Arm the hang at a known point: rank 1, collective #1 ("stuck").
  comm->InjectFault({FaultKind::kHang, /*rank=*/1, /*seq=*/1, "", 0});
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> buf(8, 1.f);
    CollectiveOptions opts;
    opts.tag = "stuck";
    EXPECT_FALSE(pg.AllReduce(buf.data(), 8, opts).WaitStatus().ok());
  });

  const std::string path = comm->flight_dump_path();
  ASSERT_FALSE(path.empty());
  auto parsed = obs::ParseJsonFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& root = *parsed;

  EXPECT_EQ(root["communicator"].AsString(), "golden");
  EXPECT_EQ(root["world_size"].AsNumber(), 2);
  EXPECT_TRUE(root["aborted"].AsBool());

  // The diagnosis names the stuck op, the culprit, and what the healthy
  // ranks expected next.
  const obs::JsonValue& diag = root["diagnosis"];
  EXPECT_EQ(diag["culprit_rank"].AsNumber(), 1);
  EXPECT_EQ(diag["culprit_seq"].AsNumber(), 1);
  EXPECT_TRUE(Contains(diag["stuck_op"].AsString(), "AR:stuck"))
      << diag["stuck_op"].AsString();
  EXPECT_FALSE(diag["desync"].AsBool());
  const obs::JsonArray& expected = diag["expected_next"].AsArray();
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_EQ(expected[0]["rank"].AsNumber(), 0);
  EXPECT_EQ(expected[0]["seq"].AsNumber(), 1);
  EXPECT_TRUE(Contains(expected[0]["op"].AsString(), "AR:stuck"));

  // Per-rank rings hold the full recent history with final states.
  const obs::JsonArray& ranks = root["ranks"].AsArray();
  ASSERT_EQ(ranks.size(), 2u);
  const obs::JsonArray& r0 = ranks[0]["records"].AsArray();
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0]["seq"].AsNumber(), 0);
  EXPECT_EQ(r0[0]["op"].AsString(), "AR:warm");
  EXPECT_EQ(r0[0]["state"].AsString(), "completed");
  EXPECT_EQ(r0[1]["op"].AsString(), "AR:stuck");
  // The dump is a snapshot taken when the watchdog fired, strictly before
  // any waiter observes the abort: the healthy rank is frozen mid-op
  // ("started" — entered, waiting on the hung peer), not yet "aborted".
  EXPECT_EQ(r0[1]["state"].AsString(), "started");
  // The hung rank never completed #1.
  const obs::JsonArray& r1 = ranks[1]["records"].AsArray();
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_EQ(r1[1]["op"].AsString(), "AR:stuck");
  EXPECT_NE(r1[1]["state"].AsString(), "completed");

  // The dump carries the shared artifact envelope (schema_version + meta),
  // like every other generated artifact in the repo.
  ASSERT_TRUE(obs::ValidateArtifactJson(root).ok());
  EXPECT_EQ(root["schema_version"].AsNumber(), obs::kArtifactSchemaVersion);
  EXPECT_EQ(root["meta"]["world_size"].AsNumber(), 2);
  EXPECT_EQ(root["meta"]["preset"].AsString(), "golden");
}

TEST(FaultTest, StepKeyedFaultFiresOnlyAtItsTrainStep) {
  UseTempArtifactDir();
  const int w = 2;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetName("steptest");
  comm->SetDefaultTimeout(80);
  // The same tag recurs every step; the step selector (AND-ed with the tag)
  // pins the hang to training step 2 — the elastic drills' way of killing a
  // rank "at step k" without counting sequence numbers.
  comm::FaultSpec f;
  f.kind = FaultKind::kHang;
  f.rank = 1;
  f.tag = "grad";
  f.step = 2;
  comm->InjectFault(f);

  std::vector<std::vector<Status>> status(4, std::vector<Status>(w));
  RunOnRanks(w, [&](int r) {
    comm::ProcessGroup pg(comm, r);
    std::vector<float> buf(8, 1.f);
    for (int64_t s = 0; s < 4 && !comm->aborted(); ++s) {
      comm->SetTrainStep(s);
      CollectiveOptions opts;
      opts.tag = "grad";
      status[s][r] = pg.AllReduce(buf.data(), 8, opts).WaitStatus();
    }
  });

  // Steps 0 and 1 passed untouched; step 2 hit the hang and aborted.
  for (int r = 0; r < w; ++r) {
    EXPECT_TRUE(status[0][r].ok()) << "rank " << r;
    EXPECT_TRUE(status[1][r].ok()) << "rank " << r;
    EXPECT_FALSE(status[2][r].ok()) << "rank " << r;
  }
  EXPECT_TRUE(comm->aborted());
  EXPECT_EQ(comm->last_diagnosis().culprit_rank, 1);
}

TEST(FaultTest, FsdpStepPropagatesAbortInsteadOfCrashing) {
  UseTempArtifactDir();
  const int w = 4;
  comm::DeviceMesh mesh(w, w);
  std::vector<nn::ModulePtr> models(w);
  std::vector<std::shared_ptr<core::FsdpState>> states(w);
  RunOnRanks(w, [&](int r) {
    models[r] = MakeModel(42);
    core::FsdpOptions opts;
    opts.strategy = core::ShardingStrategy::kFullShard;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    states[r] = core::FullyShard(models[r], mesh, r, opts);
  });
  ASSERT_GE(states[0]->num_units(), 2);
  // Hang rank 1's worker on the AllGather of one non-root unit (tags are
  // the unit FQNs), then arm the watchdog. Construction ran fault-free.
  const std::string victim = states[0]->unit_name(1);
  mesh.ShardGroup(0).communicator()->InjectFault(
      {FaultKind::kHang, /*rank=*/1, /*seq=*/-1, victim, 0});
  mesh.SetDefaultTimeout(100);

  RunOnRanks(w, [&](int r) {
    // The step must complete structurally — no crash, no deadlock — with
    // the abort surfaced through FsdpState::status().
    Tensor loss =
        ops::CrossEntropy((*models[r])(RankTokens(r)), RankTargets(r));
    autograd::RunBackward(loss);
    ASSERT_FALSE(states[r]->status().ok()) << "rank " << r;
    EXPECT_TRUE(Contains(states[r]->status().message(), "rank 1"))
        << states[r]->status().message();
    // The failed step must not corrupt optimizer-visible state: the garbage
    // reduction was dropped, so no sharded gradient was published.
    for (int u = 0; u < states[r]->num_units(); ++u) {
      EXPECT_FALSE(states[r]->unit_handle(u).sharded_param().grad().defined())
          << "rank " << r << " unit " << u;
    }
  });
  EXPECT_TRUE(mesh.ShardGroup(0).communicator()->aborted());
}

TEST(FaultTest, DdpStepPropagatesAbortInsteadOfCrashing) {
  UseTempArtifactDir();
  const int w = 4;
  auto comm = std::make_shared<comm::Communicator>(w);
  comm->SetName("ddpfault");
  std::vector<std::unique_ptr<ddp::DistributedDataParallel>> replicas(w);
  RunOnRanks(w, [&](int r) {
    ddp::DdpOptions opts;
    opts.bucket_cap_numel = 400;  // several buckets
    replicas[r] = std::make_unique<ddp::DistributedDataParallel>(
        MakeModel(42), comm::ProcessGroup(comm, r), opts);
  });
  ASSERT_GE(replicas[0]->num_buckets(), 2);
  comm->InjectFault({FaultKind::kHang, /*rank=*/2, /*seq=*/-1, "ddp_bucket0",
                     0});
  comm->SetDefaultTimeout(100);

  RunOnRanks(w, [&](int r) {
    ddp::DistributedDataParallel& ddp = *replicas[r];
    Tensor loss = ops::CrossEntropy(ddp(RankTokens(r)), RankTargets(r));
    autograd::RunBackward(loss);
    ASSERT_FALSE(ddp.status().ok()) << "rank " << r;
    EXPECT_TRUE(Contains(ddp.status().message(), "rank 2"))
        << ddp.status().message();
    // Grads exist (backward ran) but hold the local, un-scattered values —
    // the aborted bucket buffers were never copied back.
    for (Tensor* slot : ddp.module().ParameterSlots()) {
      EXPECT_TRUE(slot->grad().defined());
    }
  });
  EXPECT_TRUE(comm->aborted());
}

}  // namespace
}  // namespace fsdp
