// Tests for the observability layer (src/obs): typed trace spans emitted by
// a real multi-rank FSDP step, the Chrome-trace exporter (validated with the
// in-repo JSON parser), metrics registry semantics, and clear/reset behavior.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/engine.h"
#include "bench/bench_util.h"
#include "core/fsdp.h"
#include "nn/transformer.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simfsdp/schedule.h"
#include "simfsdp/workload.h"

namespace fsdp {
namespace {

// Runs `steps` forward+backward iterations of a small auto-wrapped
// transformer on `world` rank threads.
void RunStep(int world, core::FsdpOptions opts, int num_layers = 2,
             int steps = 1) {
  comm::DeviceMesh mesh(world, world);
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
  });
}

core::FsdpOptions BlockWrapOptions() {
  core::FsdpOptions opts;
  opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
  return opts;
}

const obs::TraceEvent* Find(const std::vector<obs::TraceEvent>& events,
                            obs::EventKind kind, const std::string& unit,
                            const std::string& lane) {
  for (const auto& e : events) {
    if (e.kind == kind && e.unit == unit && e.lane == lane) return &e;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// (a) Span nesting and ordering across a 4-rank FSDP step.

TEST(ObsTraceTest, FourRankStepSpansNestAndOrder) {
  auto& collector = obs::TraceCollector::Get();
  collector.Clear();
  collector.set_enabled(true);
  const int world = 4;
  RunStep(world, BlockWrapOptions());
  collector.set_enabled(false);

  for (int r = 0; r < world; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    auto events = collector.SnapshotRank(r);
    ASSERT_FALSE(events.empty());
    for (const auto& e : events) {
      EXPECT_EQ(e.rank, r);
      EXPECT_GE(e.t_end_us, e.t_begin_us);  // spans are well-formed
    }

    // Nesting: the root's compute-lane forward span must contain every
    // block's compute span (blocks run inside the root forward).
    const auto* root = Find(events, obs::EventKind::kForward, "[root]",
                            "compute");
    ASSERT_NE(root, nullptr);
    for (const char* unit : {"blocks.0", "blocks.1"}) {
      const auto* blk = Find(events, obs::EventKind::kForward, unit,
                             "compute");
      ASSERT_NE(blk, nullptr) << unit;
      EXPECT_LE(root->t_begin_us, blk->t_begin_us);
      EXPECT_GE(root->t_end_us, blk->t_end_us);
    }

    // Ordering: each unit's AllGather completes before its forward fires,
    // and blocks run in definition order.
    const auto* fwd0 = Find(events, obs::EventKind::kForward, "blocks.0",
                            "runtime");
    const auto* fwd1 = Find(events, obs::EventKind::kForward, "blocks.1",
                            "runtime");
    ASSERT_NE(fwd0, nullptr);
    ASSERT_NE(fwd1, nullptr);
    EXPECT_LT(fwd0->t_begin_us, fwd1->t_begin_us);
    for (const char* unit : {"blocks.0", "blocks.1"}) {
      const auto* ag = Find(events, obs::EventKind::kAllGather, unit,
                            "runtime");
      const auto* fwd = Find(events, obs::EventKind::kForward, unit,
                             "runtime");
      ASSERT_NE(ag, nullptr) << unit;
      EXPECT_GT(ag->bytes, 0) << unit;
      EXPECT_LE(ag->t_end_us, fwd->t_begin_us) << unit;
    }
  }

  // The merged snapshot covers all ranks and is sorted by begin time.
  auto all = collector.Snapshot();
  for (int r = 0; r < world; ++r) {
    EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                            [r](const obs::TraceEvent& e) {
                              return e.rank == r;
                            }))
        << "no events for rank " << r;
  }
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].t_begin_us, all[i].t_begin_us);
  }
  collector.Clear();
}

// Buffers are keyed by rank number, not by a fixed-size table: rank 64 must
// not alias rank 0.
TEST(ObsTraceTest, DistantRanksKeepDisjointBuffers) {
  auto& collector = obs::TraceCollector::Get();
  collector.Clear();
  collector.Record({0, obs::EventKind::kMarker, "r0", "runtime", 1, 1, 0});
  collector.Record({64, obs::EventKind::kMarker, "r64", "runtime", 2, 2, 0});
  const auto rank0 = collector.SnapshotRank(0);
  const auto rank64 = collector.SnapshotRank(64);
  ASSERT_EQ(rank0.size(), 1u);
  ASSERT_EQ(rank64.size(), 1u);
  EXPECT_EQ(rank0[0].unit, "r0");
  EXPECT_EQ(rank64[0].unit, "r64");
  EXPECT_EQ(collector.size(), 2u);
  collector.Clear();
}

// ---------------------------------------------------------------------------
// (b) Chrome-trace JSON export parses and the X events match the snapshot.

TEST(ObsTraceTest, ChromeTraceJsonParsesWithMatchedEvents) {
  std::vector<obs::TraceEvent> events = {
      {0, obs::EventKind::kAllGather, "blocks.0", "comm", 10.0, 35.5, 4096},
      {0, obs::EventKind::kForward, "blocks.0", "compute", 36.0, 90.0, 0},
      {1, obs::EventKind::kReduceScatter, "blocks.1", "comm", 12.0, 44.0,
       2048},
  };
  auto parsed = obs::ParseJson(obs::ChromeTraceJson(events));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const obs::JsonValue& doc = parsed.ValueOrDie();
  ASSERT_TRUE(doc.Has("traceEvents"));
  EXPECT_EQ(doc["displayTimeUnit"].AsString(), "ms");

  int x_events = 0, meta_events = 0;
  for (const auto& ev : doc["traceEvents"].AsArray()) {
    const std::string& ph = ev["ph"].AsString();
    if (ph == "M") {
      ++meta_events;
      EXPECT_TRUE(ev["name"].AsString() == "process_name" ||
                  ev["name"].AsString() == "thread_name");
      continue;
    }
    ASSERT_EQ(ph, "X");
    const auto& src = events[x_events];
    EXPECT_EQ(ev["name"].AsString(), obs::RenderEvent(src));
    EXPECT_EQ(ev["cat"].AsString(), obs::EventKindName(src.kind));
    EXPECT_DOUBLE_EQ(ev["ts"].AsNumber(), src.t_begin_us);
    EXPECT_DOUBLE_EQ(ev["dur"].AsNumber(), src.duration_us());
    EXPECT_EQ(static_cast<int>(ev["pid"].AsNumber()), src.rank);
    EXPECT_EQ(static_cast<int64_t>(ev["args"]["bytes"].AsNumber()),
              src.bytes);
    ++x_events;
  }
  EXPECT_EQ(x_events, 3);
  // 2 processes + 3 distinct (rank, lane) thread lanes.
  EXPECT_EQ(meta_events, 5);
}

// The parser recurses once per nesting level: deep input must come back as
// an error Status, not a stack overflow.
TEST(ObsJsonTest, DeepArrayNestingIsRejected) {
  EXPECT_FALSE(obs::ParseJson(std::string(10'000'000, '[')).ok());
  // The cap itself still parses.
  const std::string at_cap = std::string(obs::kMaxJsonDepth, '[') +
                             std::string(obs::kMaxJsonDepth, ']');
  EXPECT_TRUE(obs::ParseJson(at_cap).ok());
  const std::string past_cap = "[" + at_cap + "]";
  auto parsed = obs::ParseJson(past_cap);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("nesting"), std::string::npos);
}

TEST(ObsJsonTest, DeepObjectNestingIsRejected) {
  std::string deep;
  for (int i = 0; i < 1'000'000; ++i) deep += "{\"k\":";
  EXPECT_FALSE(obs::ParseJson(deep).ok());
  std::string closed;
  for (int i = 0; i <= obs::kMaxJsonDepth; ++i) closed += "{\"k\":";
  closed += "1" + std::string(obs::kMaxJsonDepth + 1, '}');
  EXPECT_FALSE(obs::ParseJson(closed).ok());
}

TEST(ObsJsonTest, EveryTruncatedArtifactPrefixIsAnError) {
  std::vector<obs::TraceEvent> events = {
      {0, obs::EventKind::kAllGather, "blocks.0", "comm", 10.0, 35.5, 4096},
      {1, obs::EventKind::kReduceScatter, "blocks.1", "comm", 12.0, 44.0,
       2048},
  };
  std::string doc = obs::ChromeTraceJson(events);
  while (!doc.empty() && std::isspace(static_cast<unsigned char>(doc.back()))) {
    doc.pop_back();
  }
  ASSERT_TRUE(obs::ParseJson(doc).ok());
  for (size_t n = 0; n < doc.size(); ++n) {
    EXPECT_FALSE(obs::ParseJson(doc.substr(0, n)).ok()) << "prefix " << n;
  }
}

// A simulated Fig-5 run exports a valid trace in which AllGather spans
// (comm lane) overlap compute spans — the paper's Sec 3.3 overlap claim,
// asserted on span intervals.
TEST(ObsTraceTest, SimulatedFig5TraceShowsAllGatherComputeOverlap) {
  auto& collector = obs::TraceCollector::Get();
  collector.Clear();
  simfsdp::FsdpSimConfig cfg;
  cfg.backward_prefetch = true;
  cfg.iterations = 1;
  cfg.record_trace = true;
  sim::SimConstants c;
  simfsdp::FsdpSimulator(simfsdp::T5_11B(), sim::Topology{2, 8}, c, cfg)
      .Run();
  auto events = collector.Snapshot();
  ASSERT_FALSE(events.empty());

  bool overlap = false;
  for (const auto& ag : events) {
    if (ag.kind != obs::EventKind::kAllGather || ag.lane != "comm") continue;
    for (const auto& cp : events) {
      if (cp.lane != "compute") continue;
      if (cp.kind != obs::EventKind::kForward &&
          cp.kind != obs::EventKind::kBackward) {
        continue;
      }
      if (ag.t_begin_us < cp.t_end_us && cp.t_begin_us < ag.t_end_us) {
        overlap = true;
        break;
      }
    }
    if (overlap) break;
  }
  EXPECT_TRUE(overlap)
      << "no AllGather span overlaps a compute span in the simulated trace";

  // The virtual-time trace round-trips through the Chrome exporter.
  auto parsed = obs::ParseJson(obs::ChromeTraceJson(events));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  size_t x_events = 0;
  for (const auto& ev : parsed.ValueOrDie()["traceEvents"].AsArray()) {
    if (ev["ph"].AsString() == "X") ++x_events;
  }
  EXPECT_EQ(x_events, events.size());
  collector.Clear();
}

// ---------------------------------------------------------------------------
// (c) Histogram percentile semantics on known inputs.

TEST(ObsMetricsTest, HistogramPercentilesOnKnownInputs) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);  // no samples
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);  // nearest-rank
  EXPECT_DOUBLE_EQ(h.Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);

  obs::Histogram single;
  single.Observe(42.0);
  EXPECT_DOUBLE_EQ(single.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(single.Percentile(95), 42.0);

  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

// The registry binds a name to one metric type and hands out stable refs.
TEST(ObsMetricsTest, RegistryNamesAreStable) {
  auto& reg = obs::MetricsRegistry::Get();
  obs::Counter& c1 = reg.GetCounter("obs_test.stable");
  obs::Counter& c2 = reg.GetCounter("obs_test.stable");
  EXPECT_EQ(&c1, &c2);
}

// Metrics written by the runtime round-trip through the JSON snapshot.
TEST(ObsMetricsTest, RuntimeMetricsRoundTripThroughJsonSnapshot) {
  auto& reg = obs::MetricsRegistry::Get();
  reg.ResetAll();

  // A 2-rank run with a depth-1 rate limiter and both prefetchers forces
  // throttled prefetches from the second iteration on (forward prefetch
  // needs a recorded order).
  core::FsdpOptions opts = BlockWrapOptions();
  opts.limit_all_gathers = 1;
  opts.backward_prefetch = true;
  opts.forward_prefetch = true;
  RunStep(2, opts, /*num_layers=*/4, /*steps=*/3);

  const int64_t throttled =
      reg.GetCounter("fsdp.throttled_prefetches").value();
  EXPECT_GT(throttled, 0);

  // A simulator run publishes the allocator peaks as gauges.
  simfsdp::FsdpSimConfig scfg;
  scfg.iterations = 1;
  sim::SimConstants c;
  auto m = simfsdp::FsdpSimulator(simfsdp::T5_11B(), sim::Topology{1, 8}, c,
                                  scfg)
               .Run();
  EXPECT_EQ(reg.GetGauge("alloc.allocated.peak").value(), m.peak_allocated);
  EXPECT_EQ(reg.GetGauge("alloc.active.peak").value(), m.peak_active);
  EXPECT_EQ(reg.GetGauge("alloc.reserved.peak").value(), m.peak_reserved);

  reg.GetHistogram("obs_test.latency").Observe(5.0);
  reg.GetHistogram("obs_test.latency").Observe(15.0);

  auto parsed = obs::ParseJson(reg.SnapshotJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const obs::JsonValue& doc = parsed.ValueOrDie();
  EXPECT_EQ(static_cast<int64_t>(
                doc["counters"]["fsdp.throttled_prefetches"].AsNumber()),
            throttled);
  EXPECT_EQ(static_cast<int64_t>(
                doc["gauges"]["alloc.allocated.peak"].AsNumber()),
            m.peak_allocated);
  EXPECT_EQ(static_cast<int64_t>(
                doc["gauges"]["alloc.reserved.peak"].AsNumber()),
            m.peak_reserved);
  const auto& hist = doc["histograms"]["obs_test.latency"];
  EXPECT_EQ(static_cast<int>(hist["count"].AsNumber()), 2);
  EXPECT_DOUBLE_EQ(hist["sum"].AsNumber(), 20.0);
  EXPECT_DOUBLE_EQ(hist["max"].AsNumber(), 15.0);
}

// The BENCH_<name>.json writer the fig benches use produces output the
// in-repo parser accepts, with fields round-tripping.
TEST(ObsMetricsTest, BenchJsonWriterRoundTrips) {
  std::vector<bench::JsonRow> rows;
  rows.push_back(bench::JsonRow()
                     .Set("model", "T5-11B \"quoted\"")
                     .Set("nodes", 2)
                     .Set("speedup", 2.5)
                     .Set("oom", false));
  rows.push_back(bench::JsonRow().Set("bytes", int64_t{1} << 40));
  bench::WriteBenchJson("obs_test", rows);

  auto parsed = obs::ParseJsonFile("BENCH_obs_test.json");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const obs::JsonValue& doc = parsed.ValueOrDie();
  EXPECT_EQ(doc["bench"].AsString(), "obs_test");
  // Every bench artifact carries the shared schema envelope.
  const Status envelope = obs::ValidateArtifactJson(doc);
  EXPECT_TRUE(envelope.ok()) << envelope.ToString();
  EXPECT_EQ(static_cast<int>(doc["schema_version"].AsNumber()),
            obs::kArtifactSchemaVersion);
  const auto& out = doc["rows"].AsArray();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]["model"].AsString(), "T5-11B \"quoted\"");
  EXPECT_DOUBLE_EQ(out[0]["nodes"].AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(out[0]["speedup"].AsNumber(), 2.5);
  EXPECT_FALSE(out[0]["oom"].AsBool());
  EXPECT_DOUBLE_EQ(out[1]["bytes"].AsNumber(),
                   static_cast<double>(int64_t{1} << 40));
  std::remove("BENCH_obs_test.json");
}

// A bench row keeps every bit of a double: the figure gate compares rows
// exactly, so 12 significant digits are not enough.
TEST(ObsMetricsTest, BenchJsonRowKeepsDoublesBitEqual) {
  const double third = 1.0 / 3.0;
  const std::string path = bench::WriteBenchJson(
      "obs_test_exact", {bench::JsonRow().Set("third", third)});
  ASSERT_FALSE(path.empty());
  auto parsed = obs::ParseJsonFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.ValueOrDie()["rows"].AsArray()[0]["third"].AsNumber(),
            third);
  std::remove(path.c_str());
}

// The one writer: exact numbers (flight-recorder-scale microseconds, int64
// byte counts), escaped keys and strings, null for what JSON cannot spell.
TEST(ObsJsonTest, WriterRoundTripsNumbersAndStrings) {
  const double flight_us = 123456789.125;
  const int64_t big = int64_t{1} << 40;
  const std::string tricky = "say \"hi\"\\ \n\t\r\x01 end";
  const double inf = std::numeric_limits<double>::infinity();
  obs::JsonWriter w;
  w.BeginObject().Key("us").Double(flight_us).Key("bytes").Int(big);
  w.Key(tricky).String(tricky);
  w.Key("nan").Double(std::numeric_limits<double>::quiet_NaN());
  w.Key("inf").Double(inf).Key("ninf").Double(-inf);
  w.Key("list").BeginArray().Int(-1).Bool(true).Null().BeginObject();
  w.EndObject().EndArray().EndObject();

  auto parsed = obs::ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message() << "\n" << w.str();
  const obs::JsonValue& doc = parsed.ValueOrDie();
  EXPECT_EQ(doc["us"].AsNumber(), flight_us);
  EXPECT_NE(w.str().find("123456789.125"), std::string::npos) << w.str();
  EXPECT_EQ(static_cast<int64_t>(doc["bytes"].AsNumber()), big);
  EXPECT_NE(w.str().find(std::to_string(big)), std::string::npos);
  EXPECT_EQ(doc[tricky].AsString(), tricky);
  EXPECT_TRUE(doc["nan"].is_null());
  EXPECT_TRUE(doc["inf"].is_null());
  EXPECT_TRUE(doc["ninf"].is_null());
  const obs::JsonArray& list = doc["list"].AsArray();
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[0].AsNumber(), -1.0);
  EXPECT_TRUE(list[1].AsBool());
  EXPECT_TRUE(list[2].is_null());
  EXPECT_TRUE(list[3].AsObject().empty());
}

TEST(ObsJsonDeathTest, WriterRejectsMisuse) {
  EXPECT_DEATH(obs::JsonWriter().BeginObject().Int(1), "without a Key");
  EXPECT_DEATH(obs::JsonWriter().BeginArray().Key("k"), "misplaced Key");
  EXPECT_DEATH(obs::JsonWriter().BeginArray().EndObject(), "unbalanced");
}

// The shared envelope is backward compatible only: a document stamped by a
// NEWER writer must be rejected (this reader cannot know what its fields
// mean), anything in [1, current] accepted, and non-versions refused.
TEST(ObsMetricsTest, ValidateArtifactRejectsForwardIncompatibleVersions) {
  const std::string body =
      ", \"meta\": {\"world_size\": 1, \"ranks\": 1, \"preset\": \"p\"}}";

  auto with_version = [&](int v) {
    auto parsed =
        obs::ParseJson("{\"schema_version\": " + std::to_string(v) + body);
    EXPECT_TRUE(parsed.ok());
    return obs::ValidateArtifactJson(parsed.ValueOrDie());
  };

  EXPECT_TRUE(with_version(obs::kArtifactSchemaVersion).ok());
  EXPECT_TRUE(with_version(1).ok());  // oldest envelope stays readable

  const Status newer = with_version(obs::kArtifactSchemaVersion + 1);
  EXPECT_FALSE(newer.ok());
  EXPECT_NE(newer.message().find("newer than this reader"),
            std::string::npos)
      << newer.ToString();
  EXPECT_FALSE(with_version(obs::kArtifactSchemaVersion + 1000).ok());

  EXPECT_FALSE(with_version(0).ok());
  EXPECT_FALSE(with_version(-3).ok());
}

// ---------------------------------------------------------------------------
// (d) Clear/reset semantics across all three surfaces.

TEST(ObsResetTest, ClearEventsAndCollectorAndRegistryReset) {
  auto& collector = obs::TraceCollector::Get();
  collector.Clear();
  collector.set_enabled(true);

  const int world = 2;
  comm::DeviceMesh mesh(world, world);
  RunOnRanks(world, [&](int rank) {
    nn::InitCtx ctx(Device::kCpu, 7);
    nn::TransformerConfig cfg;
    cfg.vocab_size = 17;
    cfg.max_seq = 4;
    cfg.dim = 8;
    cfg.num_heads = 2;
    cfg.num_layers = 2;
    auto model = std::make_shared<nn::TransformerModel>(cfg, ctx);
    auto state = core::FullyShard(model, mesh, rank, BlockWrapOptions());
    Tensor tokens = ops::IndexTensor({1, 2, 3, 4}, {1, 4});
    Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});
    Tensor loss = ops::CrossEntropy((*model)(tokens), targets);
    autograd::RunBackward(loss);

    // ClearEvents empties the log; the state remains usable afterwards.
    state->ClearEvents();
    EXPECT_TRUE(state->trace_events().empty());
    Tensor loss2 = ops::CrossEntropy((*model)(tokens), targets);
    autograd::RunBackward(loss2);
    EXPECT_FALSE(state->trace_events().empty());
  });
  collector.set_enabled(false);

  EXPECT_GT(collector.size(), 0u);
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_TRUE(collector.Snapshot().empty());

  auto& reg = obs::MetricsRegistry::Get();
  obs::Counter& counter = reg.GetCounter("obs_test.reset");
  counter.Add(5);
  obs::Gauge& gauge = reg.GetGauge("obs_test.reset_gauge");
  gauge.Set(9);
  reg.ResetAll();
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0);
  counter.Add(2);  // cached references survive ResetAll
  EXPECT_EQ(counter.value(), 2);
  EXPECT_EQ(&counter, &reg.GetCounter("obs_test.reset"));
}

}  // namespace
}  // namespace fsdp
