// Tests for the per-instruction step profiler (src/obs/profiler.h): timed
// log entries across sharding strategies and prefetch settings, profiling
// with the trace collector off, entry times against the Work stamps, exact
// critical-path / overlap / memory-attribution numbers on a hand-built
// profile, the faulted-step incomplete path (cross-checked against the
// flight recorder), the PROFILE_*.json artifact envelope, Chrome counter
// tracks, prof.* metrics, and the collision-safe ArtifactPath counter.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/engine.h"
#include "bench/bench_util.h"
#include "comm/process_group.h"
#include "core/fsdp.h"
#include "ddp/ddp.h"
#include "nn/transformer.h"
#include "obs/artifact.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "plan/plan.h"
#include "tests/test_util.h"

namespace fsdp {
namespace {

using comm::FaultKind;
using comm::FaultSpec;

bool Contains(const std::string& s, const std::string& sub) {
  return s.find(sub) != std::string::npos;
}

// Artifacts land under obs::ArtifactPath; tests point it at their own
// temp dir.
using fsdp::testing::UseTempArtifactDir;

core::FsdpOptions BlockWrapOptions() {
  core::FsdpOptions opts;
  opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
  return opts;
}

/// Runs `steps` forward+backward iterations of a small auto-wrapped
/// transformer on `world` rank threads (with the trace collector on unless
/// `collector` is false), and returns rank 0's profiler inputs (execution
/// log + status).
obs::ProfileInputs RunProfiledFsdp(int world, int sharding_factor,
                                   core::FsdpOptions opts, int steps = 1,
                                   int num_layers = 2,
                                   bool collector_on = true) {
  auto& collector = obs::TraceCollector::Get();
  collector.Clear();
  collector.set_enabled(collector_on);
  comm::DeviceMesh mesh(world, sharding_factor);
  obs::ProfileInputs in;
  RunOnRanks(world, [&](int rank) {
    nn::InitCtx ctx(Device::kCpu, 7);
    nn::TransformerConfig cfg;
    cfg.vocab_size = 17;
    cfg.max_seq = 4;
    cfg.dim = 8;
    cfg.num_heads = 2;
    cfg.num_layers = num_layers;
    auto model = std::make_shared<nn::TransformerModel>(cfg, ctx);
    auto state = core::FullyShard(model, mesh, rank, opts);
    Tensor tokens = ops::IndexTensor({1, 2, 3, 4}, {1, 4});
    Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});
    for (int s = 0; s < steps; ++s) {
      Tensor loss = ops::CrossEntropy((*model)(tokens), targets);
      autograd::RunBackward(loss);
    }
    if (rank == 0) {
      in.entries = state->exec_log().Entries();
      for (int u = 0; u < state->num_units(); ++u) {
        in.unit_names.push_back(state->unit_name(u));
      }
      in.status = state->status();
    }
  });
  collector.set_enabled(false);
  in.rank = 0;
  collector.Clear();
  return in;
}

// ---------------------------------------------------------------------------
// (a) Join correctness: every executed instruction matches exactly one span,
// across sharding strategies x prefetch settings.

TEST(ProfilerJoinTest, EveryInstrMatchesAcrossStrategiesAndPrefetch) {
  struct Config {
    core::ShardingStrategy strategy;
    int factor;
    bool prefetch;
  };
  const int world = 4;
  const std::vector<Config> configs = {
      {core::ShardingStrategy::kFullShard, world, false},
      {core::ShardingStrategy::kFullShard, world, true},
      {core::ShardingStrategy::kShardGradOp, world, false},
      {core::ShardingStrategy::kShardGradOp, world, true},
      {core::ShardingStrategy::kHybridShard, 2, false},
      {core::ShardingStrategy::kHybridShard, 2, true},
  };
  for (const Config& cfg : configs) {
    SCOPED_TRACE(std::string(core::ShardingStrategyName(cfg.strategy)) +
                 (cfg.prefetch ? " prefetch" : " no-prefetch"));
    core::FsdpOptions opts = BlockWrapOptions();
    opts.strategy = cfg.strategy;
    opts.backward_prefetch = cfg.prefetch;
    opts.forward_prefetch = cfg.prefetch;
    const obs::ProfileInputs in =
        RunProfiledFsdp(world, cfg.factor, opts, /*steps=*/2);
    ASSERT_FALSE(in.entries.empty());

    const auto steps = obs::BuildStepProfiles(in);
    ASSERT_EQ(steps.size(), 2u);
    for (size_t s = 0; s < steps.size(); ++s) {
      SCOPED_TRACE("step " + std::to_string(s));
      const obs::StepProfile& step = steps[s];
      EXPECT_TRUE(step.complete) << step.incomplete_reason;
      for (const obs::InstrProfile& p : step.instrs) {
        EXPECT_TRUE(p.matched) << p.label;
        EXPECT_GE(p.t_end_us, p.t_begin_us) << p.label;
        EXPECT_GE(p.t_exec_us, p.t_begin_us) << p.label;
      }
      EXPECT_GT(step.step_us, 0);
      EXPECT_GT(step.comm_busy_us, 0);
      EXPECT_GE(step.overlap_efficiency, 0.0);
      EXPECT_LE(step.overlap_efficiency, 1.0);
      EXPECT_FALSE(step.critical_path.empty());
      EXPECT_GT(step.critical_path_us, 0);
      // The binding chain ends at the step's last-finishing instruction.
      const int last = step.critical_path.back();
      for (const obs::InstrProfile& p : step.instrs) {
        EXPECT_LE(p.t_end_us, step.instrs[last].t_end_us);
      }
      // AllGathers resident at some point: peak attribution is nonzero.
      EXPECT_GT(step.peak_unsharded_bytes, 0);
      EXPECT_FALSE(step.peak_units.empty());
      // Hybrid sharding runs the replica AllReduce; its instr must join to
      // an AllReduce span, while plain FSDP reduces join ReduceScatters.
      for (const obs::InstrProfile& p : step.instrs) {
        if (p.instr.op == plan::Op::kReduceGrad) {
          EXPECT_EQ(p.matched_kind, obs::EventKind::kReduceScatter) << p.label;
        }
        if (p.instr.op == plan::Op::kAllReduceReplicas) {
          EXPECT_EQ(p.matched_kind, obs::EventKind::kAllReduce) << p.label;
        }
      }
    }
    // Aggregation sees only complete steps and orders labels by total time.
    const obs::ProfileAggregate agg = obs::AggregateProfiles(steps);
    EXPECT_EQ(agg.steps, 2);
    EXPECT_EQ(agg.complete_steps, 2);
    EXPECT_GT(agg.step_p50_us, 0);
    ASSERT_FALSE(agg.instrs.empty());
    for (size_t i = 1; i < agg.instrs.size(); ++i) {
      EXPECT_GE(agg.instrs[i - 1].total_us, agg.instrs[i].total_us);
    }
  }
}

// The DDP bucket log joins the same way: per-bucket AllReduce spans (the
// kReduceGrad instructions resolve to kAllReduce, not kReduceScatter) plus
// per-bucket wait spans.
TEST(ProfilerJoinTest, DdpBucketLogJoins) {
  auto& collector = obs::TraceCollector::Get();
  collector.Clear();
  collector.set_enabled(true);
  const int world = 4;
  auto comm = std::make_shared<comm::Communicator>(world);
  obs::ProfileInputs in;
  RunOnRanks(world, [&](int rank) {
    nn::InitCtx ctx(Device::kCpu, 11);
    nn::TransformerConfig cfg;
    cfg.vocab_size = 13;
    cfg.max_seq = 4;
    cfg.dim = 8;
    cfg.num_heads = 2;
    cfg.num_layers = 2;
    ddp::DdpOptions opts;
    opts.bucket_cap_numel = 400;  // several buckets
    ddp::DistributedDataParallel replica(
        std::make_shared<nn::TransformerModel>(cfg, ctx),
        comm::ProcessGroup(comm, rank), opts);
    Tensor tokens = ops::IndexTensor({1, 2, 3, 4}, {1, 4});
    Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});
    Tensor loss = ops::CrossEntropy(replica(tokens), targets);
    autograd::RunBackward(loss);
    if (rank == 0) {
      in.entries = replica.exec_log().Entries();
      for (int b = 0; b < replica.num_buckets(); ++b) {
        in.unit_names.push_back("ddp_bucket" + std::to_string(b));
      }
      in.status = replica.status();
    }
  });
  collector.set_enabled(false);
  in.rank = 0;
  collector.Clear();

  ASSERT_GE(in.unit_names.size(), 2u);
  const auto steps = obs::BuildStepProfiles(in);
  ASSERT_EQ(steps.size(), 1u);
  const obs::StepProfile& step = steps[0];
  EXPECT_TRUE(step.complete) << step.incomplete_reason;
  int reduces = 0;
  for (const obs::InstrProfile& p : step.instrs) {
    EXPECT_TRUE(p.matched) << p.label;
    if (p.instr.op == plan::Op::kReduceGrad) {
      ++reduces;
      EXPECT_EQ(p.matched_kind, obs::EventKind::kAllReduce) << p.label;
      EXPECT_GT(p.resident_bytes, 0) << p.label;
    }
  }
  EXPECT_EQ(reduces, static_cast<int>(in.unit_names.size()));
}

// The log carries its own times: a step profiled with the trace collector
// off is complete and has the same instruction labels as with it on.
TEST(ProfilerLogTest, ProfilesWithTheCollectorOff) {
  const core::FsdpOptions opts = BlockWrapOptions();
  const auto on = obs::BuildStepProfiles(
      RunProfiledFsdp(4, 4, opts, /*steps=*/2, /*num_layers=*/2, true));
  const auto off = obs::BuildStepProfiles(
      RunProfiledFsdp(4, 4, opts, /*steps=*/2, /*num_layers=*/2, false));
  ASSERT_EQ(off.size(), 2u);
  ASSERT_EQ(on.size(), off.size());
  for (size_t s = 0; s < off.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    EXPECT_TRUE(off[s].complete) << off[s].incomplete_reason;
    EXPECT_GT(off[s].step_us, 0);
    ASSERT_EQ(on[s].instrs.size(), off[s].instrs.size());
    for (size_t i = 0; i < off[s].instrs.size(); ++i) {
      EXPECT_EQ(on[s].instrs[i].label, off[s].instrs[i].label);
      EXPECT_TRUE(off[s].instrs[i].matched) << off[s].instrs[i].label;
    }
  }
}

// One hybrid-sharded step records exactly one entry per executed
// instruction, and every collective entry carries its Work handle's stamps
// — the ones the comm worker's own span reports — including the replica
// AllReduce that runs inside FinishGradientReduce.
TEST(ProfilerLogTest, OneTimedEntryPerExecutedInstruction) {
  auto& collector = obs::TraceCollector::Get();
  collector.Clear();
  collector.set_enabled(true);
  const int world = 4;
  comm::DeviceMesh mesh(world, 2);
  core::FsdpOptions opts = BlockWrapOptions();
  opts.strategy = core::ShardingStrategy::kHybridShard;
  std::vector<plan::ExecEntry> entries;
  std::vector<std::string> names, expected;
  RunOnRanks(world, [&](int rank) {
    nn::InitCtx ctx(Device::kCpu, 7);
    nn::TransformerConfig cfg;
    cfg.vocab_size = 17;
    cfg.max_seq = 4;
    cfg.dim = 8;
    cfg.num_heads = 2;
    cfg.num_layers = 2;
    auto model = std::make_shared<nn::TransformerModel>(cfg, ctx);
    auto state = core::FullyShard(model, mesh, rank, opts);
    Tensor tokens = ops::IndexTensor({1, 2, 3, 4}, {1, 4});
    Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});
    autograd::RunBackward(ops::CrossEntropy((*model)(tokens), targets));
    ASSERT_TRUE(state->status().ok());
    if (rank == 0) {
      entries = state->exec_log().Entries();
      names = state->exec_log().Snapshot().unit_names;
      expected = state->ExpectedStepPlan().Canonical();
    }
  });
  collector.set_enabled(false);
  const std::vector<obs::TraceEvent> spans = collector.SnapshotRank(0);
  collector.Clear();

  // One entry per instruction of the step, in the builder's order.
  std::vector<plan::Instr> instrs;
  for (const plan::ExecEntry& e : entries) instrs.push_back(e.instr);
  EXPECT_EQ(plan::CanonicalSchedule(instrs, names), expected);

  int replica_reduces = 0;
  for (const plan::ExecEntry& e : entries) {
    const std::string label = plan::RenderInstr(e.instr, names);
    EXPECT_GT(e.t_end_us, 0) << label;
    EXPECT_LE(e.t_begin_us, e.t_exec_us) << label;
    EXPECT_LE(e.t_exec_us, e.t_end_us) << label;
    if (e.instr.lane != plan::Lane::kComm) continue;
    if (e.instr.op == plan::Op::kAllReduceReplicas) ++replica_reduces;
    // The Work handle's issue and pickup stamps are the comm worker span's
    // begin and exec times; completion is stamped right after the span.
    int matches = 0;
    for (const obs::TraceEvent& s : spans) {
      if (s.lane != "comm" || s.kind != e.kind ||
          s.unit != names[static_cast<size_t>(e.instr.unit)]) {
        continue;
      }
      if (s.t_begin_us != e.t_begin_us) continue;
      ++matches;
      EXPECT_EQ(s.t_exec_us, e.t_exec_us) << label;
      EXPECT_GE(e.t_end_us, s.t_end_us) << label;
      EXPECT_EQ(s.bytes, e.bytes) << label;
    }
    EXPECT_EQ(matches, 1) << label;
  }
  EXPECT_EQ(replica_reduces, 3);  // one per unit: [root] + 2 blocks
}

// ---------------------------------------------------------------------------
// (b) Exact numbers on a hand-built profile: queue/service split, exposed
// communication, overlap efficiency, lane usage, critical path, memory.

obs::ProfileInputs SyntheticInputs() {
  obs::ProfileInputs in;
  in.unit_names = {"u0"};
  // Timeline (us): AG issued at 0, picked up at 5, completes at 20. The
  // rank thread waits 2..20, computes 20..50 (fwd) and 50..95 (bwd). The
  // ReduceScatter is issued at 80 (inside backward), picked up at 82,
  // completes at 100; the end-of-backward wait spans 100..110.
  auto entry = [](plan::Op op, int unit, plan::Phase phase,
                  obs::EventKind kind, double b, double e, double exec = 0,
                  int64_t bytes = 0, int64_t resident = 0) {
    plan::ExecEntry x;
    x.instr.op = op;
    x.instr.unit = unit;
    x.instr.phase = phase;
    x.kind = kind;
    x.t_begin_us = b;
    x.t_exec_us = exec;
    x.t_end_us = e;
    x.bytes = bytes;
    x.resident_bytes = resident;
    return x;
  };
  in.entries = {
      entry(plan::Op::kUnshard, 0, plan::Phase::kForward,
            obs::EventKind::kAllGather, 0, 20, 5, 300, 400),
      entry(plan::Op::kWaitUnshard, 0, plan::Phase::kForward,
            obs::EventKind::kWait, 2, 20),
      entry(plan::Op::kCompute, 0, plan::Phase::kForward,
            obs::EventKind::kForward, 20, 50),
      entry(plan::Op::kCompute, 0, plan::Phase::kBackward,
            obs::EventKind::kBackward, 50, 95),
      entry(plan::Op::kReduceGrad, 0, plan::Phase::kBackward,
            obs::EventKind::kReduceScatter, 80, 100, 82, 300, 400),
      entry(plan::Op::kWaitReduceGrad, -1, plan::Phase::kBackward,
            obs::EventKind::kWait, 100, 110),
  };
  return in;
}

TEST(ProfilerAnalysisTest, SyntheticStepComputesExactNumbers) {
  const auto steps = obs::BuildStepProfiles(SyntheticInputs());
  ASSERT_EQ(steps.size(), 1u);
  const obs::StepProfile& step = steps[0];
  ASSERT_TRUE(step.complete) << step.incomplete_reason;
  ASSERT_EQ(step.instrs.size(), 6u);

  // Queue/service split from the comm worker's pickup stamp.
  const obs::InstrProfile& ag = step.instrs[0];
  EXPECT_DOUBLE_EQ(ag.queue_us, 5.0);
  EXPECT_DOUBLE_EQ(ag.service_us, 15.0);
  EXPECT_EQ(ag.bytes, 300);           // wire bytes from the comm span
  EXPECT_EQ(ag.resident_bytes, 400);  // full unsharded bytes from the issue
  const obs::InstrProfile& rs = step.instrs[4];
  EXPECT_DOUBLE_EQ(rs.queue_us, 2.0);
  EXPECT_DOUBLE_EQ(rs.service_us, 18.0);

  EXPECT_DOUBLE_EQ(step.t_begin_us, 0.0);
  EXPECT_DOUBLE_EQ(step.t_end_us, 110.0);
  EXPECT_DOUBLE_EQ(step.step_us, 110.0);

  // Busy compute = [20,95] (the waits do not intersect it) = 75us.
  EXPECT_DOUBLE_EQ(step.compute_busy_us, 75.0);
  // Comm busy = 15 + 18. Exposed: the AG service window [5,20] is entirely
  // uncovered (15us); the RS window [82,100] is covered up to 95 (5us).
  EXPECT_DOUBLE_EQ(step.comm_busy_us, 33.0);
  EXPECT_DOUBLE_EQ(ag.exposed_us, 15.0);
  EXPECT_DOUBLE_EQ(rs.exposed_us, 5.0);
  EXPECT_DOUBLE_EQ(step.exposed_comm_us, 20.0);
  EXPECT_DOUBLE_EQ(step.overlap_efficiency, 1.0 - 20.0 / 33.0);

  ASSERT_EQ(step.lanes.size(), 3u);
  EXPECT_EQ(step.lanes[0].lane, "compute");
  EXPECT_DOUBLE_EQ(step.lanes[0].busy_us, 75.0);
  EXPECT_DOUBLE_EQ(step.lanes[0].utilization, 75.0 / 110.0);
  EXPECT_EQ(step.lanes[1].lane, "comm");
  EXPECT_DOUBLE_EQ(step.lanes[1].busy_us, 33.0);
  EXPECT_EQ(step.lanes[2].lane, "runtime");
  EXPECT_DOUBLE_EQ(step.lanes[2].busy_us, 28.0);  // waits: 18 + 10

  // The binding chain: AG -> wait -> fwd -> bwd -> RS -> final wait (every
  // instruction binds here), summing comm service + span durations.
  ASSERT_EQ(step.critical_path.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(step.critical_path[i], static_cast<int>(i));
    EXPECT_TRUE(step.instrs[i].on_critical_path);
  }
  EXPECT_DOUBLE_EQ(step.critical_path_us, 15 + 18 + 30 + 45 + 18 + 10);

  // Memory attribution: u0's 400 bytes resident from the AG completion on
  // (never resharded in this synthetic step).
  EXPECT_EQ(step.peak_unsharded_bytes, 400);
  ASSERT_EQ(step.peak_units.size(), 1u);
  EXPECT_EQ(step.peak_units[0], "u0");
}

TEST(ProfilerAnalysisTest, MetricsAndCounterTracksFromSyntheticStep) {
  const auto steps = obs::BuildStepProfiles(SyntheticInputs());
  auto& reg = obs::MetricsRegistry::Get();
  reg.ResetAll();
  obs::PublishProfileMetrics(steps);
  EXPECT_EQ(reg.GetCounter("prof.steps").value(), 1);
  EXPECT_EQ(reg.GetCounter("prof.incomplete_steps").value(), 0);
  EXPECT_EQ(reg.GetHistogram("prof.step.us").count(), 1);
  EXPECT_DOUBLE_EQ(reg.GetHistogram("prof.step.us").max(), 110.0);
  EXPECT_DOUBLE_EQ(reg.GetHistogram("prof.overlap_efficiency").max(),
                   1.0 - 20.0 / 33.0);
  EXPECT_DOUBLE_EQ(reg.GetHistogram("prof.exposed_comm.us").max(), 20.0);

  // Counter tracks: residency rises to 400 at the AG completion; two
  // collectives are in flight never simultaneously (max 1).
  const auto tracks = obs::ProfileCounterTracks(steps, /*rank=*/0);
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0].name, "unsharded_bytes");
  ASSERT_EQ(tracks[0].samples.size(), 1u);
  EXPECT_DOUBLE_EQ(tracks[0].samples[0].t_us, 20.0);
  EXPECT_DOUBLE_EQ(tracks[0].samples[0].value, 400.0);
  EXPECT_EQ(tracks[1].name, "inflight_collectives");
  double max_inflight = 0;
  for (const auto& s : tracks[1].samples) {
    max_inflight = std::max(max_inflight, s.value);
  }
  EXPECT_DOUBLE_EQ(max_inflight, 1.0);

  // The Chrome exporter renders them as "C" counter events that parse.
  auto parsed = obs::ParseJson(obs::ChromeTraceJson({}, tracks));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  int counter_events = 0;
  for (const auto& ev : parsed.ValueOrDie()["traceEvents"].AsArray()) {
    if (ev["ph"].AsString() != "C") continue;
    ++counter_events;
    EXPECT_TRUE(ev["args"].Has(ev["name"].AsString()));
  }
  EXPECT_GT(counter_events, 0);
}

// ---------------------------------------------------------------------------
// (c) Faulted steps: a hung AllGather yields an incomplete StepProfile whose
// reason is the runtime's sticky error, cross-checked against the flight
// recorder dump the watchdog wrote.

TEST(ProfilerFaultTest, HungCollectiveYieldsIncompleteProfile) {
  UseTempArtifactDir();
  auto& collector = obs::TraceCollector::Get();
  collector.Clear();
  collector.set_enabled(true);
  const int world = 4;
  comm::DeviceMesh mesh(world, world);
  std::vector<nn::ModulePtr> models(world);
  std::vector<std::shared_ptr<core::FsdpState>> states(world);
  RunOnRanks(world, [&](int r) {
    nn::InitCtx ctx(Device::kCpu, 42);
    nn::TransformerConfig cfg;
    cfg.vocab_size = 13;
    cfg.max_seq = 4;
    cfg.dim = 8;
    cfg.num_heads = 2;
    cfg.num_layers = 2;
    models[r] = std::make_shared<nn::TransformerModel>(cfg, ctx);
    states[r] = core::FullyShard(models[r], mesh, r, BlockWrapOptions());
  });
  ASSERT_GE(states[0]->num_units(), 2);
  const std::string victim = states[0]->unit_name(1);
  mesh.ShardGroup(0).communicator()->InjectFault(
      {FaultKind::kHang, /*rank=*/1, /*seq=*/-1, victim, 0});
  mesh.SetDefaultTimeout(100);

  RunOnRanks(world, [&](int r) {
    Tensor tokens = ops::IndexTensor({1, 2, 3, 4}, {1, 4});
    Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});
    Tensor loss = ops::CrossEntropy((*models[r])(tokens), targets);
    autograd::RunBackward(loss);
    ASSERT_FALSE(states[r]->status().ok()) << "rank " << r;
  });
  collector.set_enabled(false);

  obs::ProfileInputs in;
  in.entries = states[0]->exec_log().Entries();
  for (int u = 0; u < states[0]->num_units(); ++u) {
    in.unit_names.push_back(states[0]->unit_name(u));
  }
  in.rank = 0;
  in.status = states[0]->status();
  collector.Clear();

  const auto steps = obs::BuildStepProfiles(in);
  ASSERT_FALSE(steps.empty());
  bool any_incomplete = false;
  for (const obs::StepProfile& step : steps) {
    if (step.complete) continue;
    any_incomplete = true;
    EXPECT_FALSE(step.incomplete_reason.empty());
  }
  ASSERT_TRUE(any_incomplete);

  // Aggregation must not count the broken step.
  const obs::ProfileAggregate agg = obs::AggregateProfiles(steps);
  EXPECT_LT(agg.complete_steps, agg.steps);
  auto& reg = obs::MetricsRegistry::Get();
  reg.ResetAll();
  obs::PublishProfileMetrics(steps);
  EXPECT_GT(reg.GetCounter("prof.incomplete_steps").value(), 0);

  // Cross-check the flight recorder: the watchdog dumped it before the
  // abort, and it records the collective that hung.
  const auto communicator = mesh.ShardGroup(0).communicator();
  EXPECT_TRUE(communicator->aborted());
  const std::string dump = communicator->flight_dump_path();
  ASSERT_FALSE(dump.empty());
  ASSERT_TRUE(std::filesystem::exists(dump));
  auto parsed = obs::ParseJsonFile(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  bool victim_recorded = false;
  for (const auto& rank_ring : parsed.ValueOrDie()["ranks"].AsArray()) {
    for (const auto& rec : rank_ring["records"].AsArray()) {
      if (Contains(rec["op"].AsString(), victim)) victim_recorded = true;
    }
  }
  EXPECT_TRUE(victim_recorded)
      << "flight recorder has no record for " << victim;
}

// ---------------------------------------------------------------------------
// (d) Artifacts: the PROFILE_*.json writer round-trips through the parser
// with a valid envelope, and ArtifactPath never reuses a filename.

TEST(ProfilerArtifactTest, WriteProfileJsonRoundTripsWithEnvelope) {
  UseTempArtifactDir();
  const auto steps = obs::BuildStepProfiles(SyntheticInputs());
  obs::ArtifactMeta meta;
  meta.world_size = 4;
  meta.ranks = 1;
  meta.preset = "synthetic";
  auto written = obs::WriteProfileJson("profiler_test", steps, meta);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  const std::string path = written.ValueOrDie();
  EXPECT_TRUE(Contains(path, "PROFILE_profiler_test"));

  auto parsed = obs::ParseJsonFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& doc = parsed.ValueOrDie();
  const Status envelope = obs::ValidateArtifactJson(doc);
  EXPECT_TRUE(envelope.ok()) << envelope.ToString();
  EXPECT_EQ(doc["meta"]["preset"].AsString(), "synthetic");
  EXPECT_EQ(static_cast<int>(doc["meta"]["world_size"].AsNumber()), 4);

  EXPECT_EQ(static_cast<int>(doc["aggregate"]["complete_steps"].AsNumber()),
            1);
  const auto& step = doc["steps"].AsArray().at(0);
  EXPECT_TRUE(step["complete"].AsBool());
  EXPECT_DOUBLE_EQ(step["step_us"].AsNumber(), 110.0);
  EXPECT_FALSE(step["critical_path"].AsArray().empty());
  EXPECT_EQ(static_cast<int64_t>(step["peak_unsharded_bytes"].AsNumber()),
            400);
  EXPECT_EQ(step["instrs"].AsArray().size(), 6u);
}

TEST(ProfilerArtifactTest, ArtifactPathSuffixesRepeatedFilenames) {
  UseTempArtifactDir();
  const std::string first = obs::ArtifactPath("PROFILE_collide.json");
  const std::string second = obs::ArtifactPath("PROFILE_collide.json");
  const std::string third = obs::ArtifactPath("PROFILE_collide.json");
  EXPECT_TRUE(Contains(first, "PROFILE_collide.json"));
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_TRUE(Contains(second, "PROFILE_collide-2.json")) << second;
  EXPECT_TRUE(Contains(third, "PROFILE_collide-3.json")) << third;
}

TEST(ProfilerArtifactTest, BenchEnvelopeStampedAndSchemaChecked) {
  UseTempArtifactDir();
  obs::ArtifactMeta meta;
  meta.world_size = 8;
  meta.ranks = 8;
  meta.preset = "profiler_test";
  std::vector<bench::JsonRow> rows;
  rows.push_back(bench::JsonRow().Set("gpus", 8).Set("tflops", 123.4));
  bench::WriteBenchJson("profiler_envelope", rows, meta);

  const std::string& dir = testing::ProcessTempDir();
  auto parsed = obs::ParseJsonFile(dir + "/BENCH_profiler_envelope.json");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& doc = parsed.ValueOrDie();
  const Status envelope = obs::ValidateArtifactJson(doc);
  EXPECT_TRUE(envelope.ok()) << envelope.ToString();
  EXPECT_EQ(static_cast<int>(doc["schema_version"].AsNumber()),
            obs::kArtifactSchemaVersion);
  EXPECT_EQ(static_cast<int>(doc["meta"]["world_size"].AsNumber()), 8);
  EXPECT_EQ(doc["meta"]["preset"].AsString(), "profiler_test");

  // Malformed artifacts fail the schema check: missing envelope, wrong
  // version, meta of the wrong shape.
  auto no_envelope = obs::ParseJson("{\"bench\": \"x\", \"rows\": []}");
  ASSERT_TRUE(no_envelope.ok());
  EXPECT_FALSE(obs::ValidateArtifactJson(no_envelope.ValueOrDie()).ok());
  auto wrong_version = obs::ParseJson(
      "{\"schema_version\": 999, \"meta\": {\"world_size\": 1, \"ranks\": 1, "
      "\"preset\": \"p\"}}");
  ASSERT_TRUE(wrong_version.ok());
  EXPECT_FALSE(obs::ValidateArtifactJson(wrong_version.ValueOrDie()).ok());
  auto bad_meta = obs::ParseJson(
      "{\"schema_version\": 1, \"meta\": {\"world_size\": 1}}");
  ASSERT_TRUE(bad_meta.ok());
  EXPECT_FALSE(obs::ValidateArtifactJson(bad_meta.ValueOrDie()).ok());
}

}  // namespace
}  // namespace fsdp
