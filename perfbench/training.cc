// Training phase: closed-loop FSDP steps on the real thread-per-rank runtime.
//
// One process runs `world` rank threads, spawned once for the whole phase.
// Every step starts only when all ranks finished the previous one (a closed
// loop), so a step's time is the slowest rank's. Set-up (mesh, model,
// FullyShard, optimizer) is repeated and timed separately; the timed steps
// never include thread spawn or model construction.
//
// The traced run adds, on the same rank threads, a GEMM probe at the model's
// Linear shapes, collective probes at one FSDP unit's payload and spans
// around forward / backward / optimizer; afterwards, a single-rank reference
// run of the same model without FSDP.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "autograd/engine.h"
#include "bench.h"
#include "common/rng.h"
#include "common/threading.h"
#include "core/fsdp.h"
#include "nn/transformer.h"
#include "optim/optimizer.h"
#include "tensor/kernels.h"
#include "tooling.h"

namespace perfbench {
namespace {

using fsdp::DType;
using fsdp::Tensor;
namespace comm = fsdp::comm;
namespace core = fsdp::core;
namespace nn = fsdp::nn;
namespace ops = fsdp::ops;

struct TrainSpec {
  const char* name;
  int world;
  int factor;  // sharding factor F
  core::ShardingStrategy strategy;
  DType dtype;  // param_dtype and reduce_dtype
  int64_t dim, layers, heads, seq, vocab;
};

// fsdp_compute is bound by GEMMs. hsdp_bf16 keeps that shape and takes the
// two-group, quantizing reduction path with large payloads. fsdp_comm is
// bound by per-collective and per-hook overhead (about half its step); on a
// shared VM its step time follows the host's wake-up latency, so
// BENCHMARK.json does not gate on it (see README.md).
const TrainSpec kSpecs[] = {
    {"fsdp_compute", 4, 4, core::ShardingStrategy::kFullShard, DType::kF32,
     256, 4, 4, 32, 256},
    {"hsdp_bf16", 4, 2, core::ShardingStrategy::kHybridShard, DType::kBF16,
     256, 4, 4, 32, 256},
    {"fsdp_comm", 4, 4, core::ShardingStrategy::kFullShard, DType::kF32, 32,
     16, 4, 16, 256},
};

constexpr int64_t kBatch = 1;            // sequences per rank per step
constexpr int kBatchesPerRank = 4;       // cycled; targets are learnable
constexpr int kSetupReps = 7;
constexpr int kWarmupSteps = 2;          // dropped from every statistic
constexpr int kMinSliceSteps = 2;
constexpr int kMinRefSteps = 6;
constexpr int64_t kLossProbeStep = 4;    // fixed step whose loss is printed
constexpr int kSlices = 6;  // training slices, a tooling round after each
constexpr size_t kWindowsPerSlice = 3;  // tokens/s samples per slice
constexpr int kProbeWarmup = 10;
constexpr int kProbeIters = 100;

const TrainSpec* FindSpec(const std::string& name) {
  for (const TrainSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

struct Batch {
  Tensor tokens;
  Tensor targets;
};

/// Per-rank batches from the seed. Targets are a seeded permutation of the
/// input tokens, a mapping the model can learn, so the loss must fall.
std::vector<Batch> MakeBatches(const TrainSpec& s, uint64_t seed, int rank) {
  fsdp::Rng perm_rng(seed, 1);
  std::vector<int64_t> perm(static_cast<size_t>(s.vocab));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int64_t>(i);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[perm_rng.NextU64() % i]);
  }
  fsdp::Rng rng(seed, 100 + static_cast<uint64_t>(rank));
  std::vector<Batch> out;
  const size_t n = static_cast<size_t>(kBatch * s.seq);
  for (int b = 0; b < kBatchesPerRank; ++b) {
    std::vector<int64_t> toks(n), tgts(n);
    for (size_t i = 0; i < n; ++i) {
      toks[i] = static_cast<int64_t>(rng.NextU64() %
                                     static_cast<uint64_t>(s.vocab));
      tgts[i] = perm[static_cast<size_t>(toks[i])];
    }
    out.push_back({ops::IndexTensor(toks, {kBatch, s.seq}),
                   ops::IndexTensor(tgts, {kBatch * s.seq})});
  }
  return out;
}

nn::ModulePtr MakeModel(const TrainSpec& s, uint64_t seed) {
  nn::InitCtx ctx(fsdp::Device::kCpu, seed);
  nn::TransformerConfig cfg;
  cfg.vocab_size = s.vocab;
  cfg.max_seq = s.seq;
  cfg.dim = s.dim;
  cfg.num_heads = s.heads;
  cfg.num_layers = s.layers;
  return std::make_shared<nn::TransformerModel>(cfg, ctx);
}

core::FsdpOptions MakeOptions(const TrainSpec& s) {
  core::FsdpOptions o;
  o.strategy = s.strategy;
  o.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
  o.mixed_precision.param_dtype = s.dtype;
  o.mixed_precision.reduce_dtype = s.dtype;
  o.record_events = false;
  return o;
}

/// Forward FLOPs of one rank's step in the Linear layers (the GEMMs whose
/// rate the probe measures) and in attention's two batched matmuls.
struct FlopModel {
  double linear_fwd = 0;
  double attn_fwd = 0;
};

FlopModel Flops(const TrainSpec& s) {
  const double rows = static_cast<double>(kBatch * s.seq);
  const double d = static_cast<double>(s.dim);
  FlopModel f;
  // qkv (d -> 3d), out proj (d -> d), MLP (d -> 4d -> d), then the head.
  f.linear_fwd = static_cast<double>(s.layers) * 2 * rows * (3 + 1 + 4 + 4) *
                     d * d +
                 2 * rows * d * static_cast<double>(s.vocab);
  // Q.K^T and P.V per head: 2 * seq^2 * head_dim each, summed over heads.
  f.attn_fwd = static_cast<double>(s.layers * kBatch) * 4 *
               static_cast<double>(s.seq * s.seq) * d;
  return f;
}

struct GemmRates {
  double nn = 0, nt = 0, tn = 0;  // GFLOP/s
};

/// GEMM throughput on this thread at the model's Linear shapes: NT is the
/// forward (x . W^T), NN the input gradient (g . W), TN the weight gradient
/// (g^T . x). Each variant loops over every shape until `seconds` elapse.
GemmRates ProbeGemm(const TrainSpec& s, uint64_t seed, double seconds) {
  const int64_t rows = kBatch * s.seq, d = s.dim;
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {d, 3 * d}, {d, d}, {d, 4 * d}, {4 * d, d}, {d, s.vocab}};
  const int64_t big = std::max<int64_t>(4 * d, s.vocab) * std::max(d, rows);
  fsdp::Rng rng(seed, 7);
  auto fill = [&](std::vector<float>& v) {
    for (float& x : v) x = static_cast<float>(rng.NextUniform() - 0.5);
  };
  std::vector<float> a(static_cast<size_t>(big)), w(static_cast<size_t>(big)),
      out(static_cast<size_t>(big));
  fill(a);
  fill(w);
  auto rate = [&](int variant) {
    double flops_per_pass = 0;
    for (auto [in, o] : shapes) flops_per_pass += 2.0 * rows * in * o;
    auto pass = [&] {
      for (auto [in, o] : shapes) {
        if (variant == 0) {  // NT: y[rows,o] = x[rows,in] . W[o,in]^T
          fsdp::kernels::Gemm(a.data(), w.data(), out.data(), rows, o, in,
                              false, true, false);
        } else if (variant == 1) {  // NN: gx[rows,in] = g[rows,o] . W[o,in]
          fsdp::kernels::Gemm(a.data(), w.data(), out.data(), rows, in, o,
                              false, false, false);
        } else {  // TN: gW[o,in] = g[rows,o]^T . x[rows,in]
          fsdp::kernels::Gemm(a.data(), w.data(), out.data(), o, in, rows,
                              true, false, false);
        }
      }
    };
    pass();  // warm caches and pages
    int passes = 0;
    const double t0 = NowS();
    double elapsed = 0;
    while (passes < 3 || elapsed < seconds) {
      pass();
      ++passes;
      elapsed = NowS() - t0;
    }
    return flops_per_pass * passes / elapsed / 1e9;
  };
  GemmRates r;
  r.nt = rate(0);
  r.nn = rate(1);
  r.tn = rate(2);
  return r;
}

/// Collective probe samples of one rank: call latency on the rank thread and
/// the queue (issue -> start) and service (start -> complete) split of the
/// returned Work.
struct CommSamples {
  std::vector<double> ag_us, rs_us, ar_us, queue_us, service_us;
  double ag_bytes = 0, rs_bytes = 0;  // per call, as the comm layer counts
};

struct RankState {
  nn::ModulePtr model;
  std::shared_ptr<core::FsdpState> fsdp;
  std::unique_ptr<fsdp::optim::Adam> adam;
  std::vector<Batch> batches;
  std::vector<float> losses;  // every step, warm-up included
  int64_t step = 0;
  std::vector<Span> spans;

  void Reset() {
    adam.reset();
    fsdp.reset();
    model.reset();
  }
};

/// Rank 0's record of closed-loop steps, accumulated over the slices of a
/// run.
struct Segment {
  std::vector<double> step_ms;       // slowest rank's step, per step
  std::vector<double> skew_ms;       // slowest minus fastest rank end
  std::vector<double> tokens_per_s;  // per throughput window
  int64_t steps = 0;
  comm::CommStats traffic;           // rank 0, summed over its groups
  int64_t waits_on_pending = 0;
  int64_t throttled = 0;
};

/// acc += after - before, for the collectives FSDP issues.
void AddTraffic(comm::CommStats& acc, const comm::CommStats& before,
                const comm::CommStats& after) {
  acc.allgather_ops += after.allgather_ops - before.allgather_ops;
  acc.allgather_bytes += after.allgather_bytes - before.allgather_bytes;
  acc.reducescatter_ops += after.reducescatter_ops - before.reducescatter_ops;
  acc.reducescatter_bytes +=
      after.reducescatter_bytes - before.reducescatter_bytes;
  acc.allreduce_ops += after.allreduce_ops - before.allreduce_ops;
  acc.allreduce_bytes += after.allreduce_bytes - before.allreduce_bytes;
}

class TrainingRun {
 public:
  TrainingRun(const TrainSpec& spec, const Args& args, double budget_s,
              Tooling& tooling)
      : spec_(spec),
        args_(args),
        budget_s_(budget_s),
        tooling_(tooling),
        sync_(spec.world),
        begin_(static_cast<size_t>(spec.world)),
        end_(static_cast<size_t>(spec.world)),
        ok_(static_cast<size_t>(spec.world)),
        hash_(static_cast<size_t>(spec.world)),
        gemm_(static_cast<size_t>(spec.world)),
        probes_(static_cast<size_t>(spec.world)),
        ranks_(static_cast<size_t>(spec.world)) {}

  void Run() {
    fsdp::RunOnRanks(spec_.world, [this](int r) { RankMain(r); });
  }

  void Report(perfbench::Report& report, std::vector<Span>& spans,
              double* setup_s);

 private:
  void RankMain(int r);
  void Setup(int r, RankState& st);
  bool Step(int r, RankState& st, bool traced);
  /// Closed-loop steps until `budget_s` elapsed and `min_steps` ran; rank 0
  /// records them into `out` when it is non-null.
  void Train(int r, RankState& st, double budget_s, int min_steps,
             bool traced, Segment* out);
  void ProbeComm(int r, RankState& st);
  void Check(int r, RankState& st);

  comm::CommStats Traffic(int r) {
    // FSDP's collectives run on the shard and replicate groups; the world
    // group carries set-up broadcasts. Sum all three as rank r sees them.
    comm::CommStats out;
    for (comm::ProcessGroup pg :
         {mesh_->WorldGroup(r), mesh_->ShardGroup(r), mesh_->ReplicateGroup(r)}) {
      AddTraffic(out, {}, pg.stats());
    }
    return out;
  }

  const TrainSpec& spec_;
  const Args& args_;
  const double budget_s_;
  Tooling& tooling_;  // rounds run on rank 0 between training slices

  std::barrier<> sync_;
  std::shared_ptr<comm::DeviceMesh> mesh_;  // replaced by rank 0 only
  std::atomic<bool> stop_{false};
  double phase_t0_ = 0;            // written by rank 0 between barriers
  std::vector<double> begin_, end_;  // per-rank timestamps of the current step
  std::vector<char> ok_;
  std::vector<uint64_t> hash_;
  std::vector<GemmRates> gemm_;
  std::vector<CommSamples> probes_;
  std::vector<RankState> ranks_;  // each rank touches only its own slot

  // Results, written by rank 0.
  std::vector<double> setup_s_;
  Segment timed_;     // the segment the end-to-end metrics come from
  Segment traced_;    // traced run only
  OpCount ops_;
  std::vector<std::string> failures_;
};

void TrainingRun::Setup(int r, RankState& st) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.Reset();
    sync_.arrive_and_wait();
    if (r == 0) {
      mesh_.reset();
      phase_t0_ = NowS();
      mesh_ = std::make_shared<comm::DeviceMesh>(spec_.world, spec_.factor);
    }
    sync_.arrive_and_wait();
    st.model = MakeModel(spec_, args_.seed);
    st.fsdp = core::FullyShard(st.model, *mesh_, r, MakeOptions(spec_));
    st.adam = std::make_unique<fsdp::optim::Adam>(
        st.fsdp->Parameters(), fsdp::optim::AdamOptions{.lr = 2e-3f});
    end_[static_cast<size_t>(r)] = NowS();
    sync_.arrive_and_wait();
    if (r == 0) {
      setup_s_.push_back(*std::max_element(end_.begin(), end_.end()) -
                         phase_t0_);
    }
  }
  st.batches = MakeBatches(spec_, args_.seed, r);
}

bool TrainingRun::Step(int r, RankState& st, bool traced) {
  const Batch& b = st.batches[static_cast<size_t>(st.step) % st.batches.size()];
  st.adam->ZeroGrad();
  const double t0 = NowS();
  Tensor loss = ops::CrossEntropy((*st.model)(b.tokens), b.targets);
  const double t1 = NowS();
  fsdp::autograd::RunBackward(loss);
  const double t2 = NowS();
  st.adam->Step();
  const double t3 = NowS();
  if (traced) {
    st.spans.push_back({"fwd", "step", r, st.step, t0, t1});
    st.spans.push_back({"bwd", "step", r, st.step, t1, t2});
    st.spans.push_back({"optim", "step", r, st.step, t2, t3});
  }
  const float l = loss.item();
  st.losses.push_back(l);
  return st.fsdp->status().ok() && std::isfinite(l);
}

void TrainingRun::Train(int r, RankState& st, double budget_s, int min_steps,
                        bool traced, Segment* out) {
  const size_t ri = static_cast<size_t>(r);
  const comm::CommStats traffic0 = Traffic(r);
  const int64_t waits0 = st.fsdp->waits_on_pending();
  const int64_t throttled0 = st.fsdp->throttled_prefetches();
  std::vector<double> ends;  // rank 0: last rank's end, per step
  sync_.arrive_and_wait();   // every rank has left the previous loop
  if (r == 0) {
    stop_ = false;
    phase_t0_ = NowS();
  }
  for (;;) {
    sync_.arrive_and_wait();
    if (stop_) break;
    begin_[ri] = NowS();
    ok_[ri] = Step(r, st, traced);
    end_[ri] = NowS();
    if (traced) st.spans.push_back({"step", "", r, st.step, begin_[ri], end_[ri]});
    ++st.step;
    sync_.arrive_and_wait();
    if (r != 0) continue;
    const double first = *std::min_element(begin_.begin(), begin_.end());
    const double last = *std::max_element(end_.begin(), end_.end());
    const double fastest = *std::min_element(end_.begin(), end_.end());
    ops_.Record(std::all_of(ok_.begin(), ok_.end(), [](char ok) { return ok; }));
    ends.push_back(last);
    if (out != nullptr) {
      out->step_ms.push_back((last - first) * 1e3);
      out->skew_ms.push_back((last - fastest) * 1e3);
    }
    if (static_cast<int>(ends.size()) >= min_steps &&
        NowS() - phase_t0_ >= budget_s) {
      stop_ = true;
    }
  }
  if (r != 0 || out == nullptr) return;
  const double tokens_per_step =
      static_cast<double>(spec_.world * kBatch * spec_.seq);
  for (double rate : WindowRates(phase_t0_, ends, tokens_per_step,
                                 kWindowsPerSlice)) {
    out->tokens_per_s.push_back(rate);
  }
  out->steps += static_cast<int64_t>(ends.size());
  AddTraffic(out->traffic, traffic0, Traffic(r));
  out->waits_on_pending += st.fsdp->waits_on_pending() - waits0;
  out->throttled += st.fsdp->throttled_prefetches() - throttled0;
}

void TrainingRun::ProbeComm(int r, RankState& st) {
  // One FSDP unit's shard: the payload every block AllGather/ReduceScatter
  // of the step moves.
  int64_t n = 0;
  for (int u = 0; u < st.fsdp->num_units() && n == 0; ++u) {
    if (st.fsdp->unit_name(u) != "[root]") {
      n = st.fsdp->unit_handle(u).shard_numel();
    }
  }
  const int f = spec_.factor;
  comm::ProcessGroup shard = mesh_->ShardGroup(r);
  // Full shard has a size-1 replicate group; probe AllReduce on the world.
  comm::ProcessGroup replicas =
      f < spec_.world ? mesh_->ReplicateGroup(r) : mesh_->WorldGroup(r);
  comm::CollectiveOptions reduce_opts;
  reduce_opts.comm_dtype = spec_.dtype;
  std::vector<float> src(static_cast<size_t>(n), 1.f);
  std::vector<float> gathered(static_cast<size_t>(f * n), 1.f);
  std::vector<float> reduced(static_cast<size_t>(n), 1.f);

  CommSamples& out = probes_[static_cast<size_t>(r)];
  auto time_calls = [&](auto call, std::vector<double>& lat) {
    for (int i = 0; i < kProbeWarmup; ++i) call();
    for (int i = 0; i < kProbeIters; ++i) {
      const double t0 = NowS();
      const comm::Work w = call();
      lat.push_back((NowS() - t0) * 1e6);
      out.queue_us.push_back(w.start_us() - w.issue_us());
      out.service_us.push_back(w.complete_us() - w.start_us());
    }
  };
  const comm::CommStats s0 = shard.stats();
  time_calls([&] { return shard.AllGatherBase(gathered.data(), src.data(), n); },
             out.ag_us);
  const comm::CommStats s1 = shard.stats();
  time_calls(
      [&] {
        return shard.ReduceScatter(reduced.data(), gathered.data(), n,
                                   reduce_opts);
      },
      out.rs_us);
  const comm::CommStats s2 = shard.stats();
  time_calls([&] { return replicas.AllReduce(reduced.data(), n, reduce_opts); },
             out.ar_us);
  const double calls = kProbeWarmup + kProbeIters;
  out.ag_bytes = static_cast<double>(s1.allgather_bytes - s0.allgather_bytes) /
                 calls;
  out.rs_bytes =
      static_cast<double>(s2.reducescatter_bytes - s1.reducescatter_bytes) /
      calls;
}

/// 64-bit FNV-1a over the bit patterns of every state-dict value.
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

void TrainingRun::Check(int r, RankState& st) {
  hash_[static_cast<size_t>(r)] = StateHash(st.fsdp->FullStateDict());
  sync_.arrive_and_wait();
  if (r != 0) return;
  for (int k = 0; k < spec_.world; ++k) {
    const RankState& rs = ranks_[static_cast<size_t>(k)];
    if (!rs.fsdp->status().ok()) {
      failures_.push_back("rank " + std::to_string(k) + " status: " +
                          rs.fsdp->status().ToString());
    }
    if (!std::all_of(rs.losses.begin(), rs.losses.end(),
                     [](float l) { return std::isfinite(l); })) {
      failures_.push_back("rank " + std::to_string(k) + " non-finite loss");
    } else if (!(rs.losses.back() < rs.losses.front())) {
      failures_.push_back("rank " + std::to_string(k) + " loss did not fall");
    }
    if (hash_[static_cast<size_t>(k)] != hash_[0]) {
      failures_.push_back("rank " + std::to_string(k) +
                          " FullStateDict differs from rank 0");
    }
  }
}

void TrainingRun::RankMain(int r) {
  RankState& st = ranks_[static_cast<size_t>(r)];
  Setup(r, st);
  Train(r, st, 0, kWarmupSteps, false, nullptr);
  if (args_.trace) {
    sync_.arrive_and_wait();  // probe with all ranks busy, as in a step
    gemm_[static_cast<size_t>(r)] = ProbeGemm(spec_, args_.seed, 0.1);
    sync_.arrive_and_wait();
    ProbeComm(r, st);
  }
  // Slices spread both training and tooling samples over the whole run, so
  // a burst of interference from other processes cannot cover one phase.
  const double slice_s = budget_s_ / kSlices;
  for (int slice = 0; slice < kSlices; ++slice) {
    if (!args_.trace) {
      Train(r, st, slice_s, kMinSliceSteps, false, &timed_);
    } else {  // untraced and traced steps alternate, for the trace overhead
      Train(r, st, slice_s / 2, kMinSliceSteps, false, &timed_);
      Train(r, st, slice_s / 2, kMinSliceSteps, true, &traced_);
    }
    // The other ranks park in the next Train's first barrier meanwhile.
    if (r == 0) tooling_.Round();
  }
  Check(r, st);
}

/// Closed-loop steps of the same model on one rank without FSDP: the
/// baseline the FSDP step is compared against.
double SingleRankStepMs(const TrainSpec& spec, const Args& args,
                        double budget_s) {
  std::vector<double> ms;
  fsdp::RunOnRanks(1, [&](int) {
    nn::ModulePtr model = MakeModel(spec, args.seed);
    std::vector<Tensor> params;
    for (Tensor* slot : model->ParameterSlots()) params.push_back(*slot);
    fsdp::optim::Adam adam(params, {.lr = 2e-3f});
    const std::vector<Batch> batches = MakeBatches(spec, args.seed, 0);
    const double t_start = NowS();
    for (int i = 0;; ++i) {
      const Batch& b = batches[static_cast<size_t>(i) % batches.size()];
      const double t0 = NowS();
      adam.ZeroGrad();
      Tensor loss = ops::CrossEntropy((*model)(b.tokens), b.targets);
      fsdp::autograd::RunBackward(loss);
      adam.Step();
      if (i >= kWarmupSteps) ms.push_back((NowS() - t0) * 1e3);
      if (static_cast<int>(ms.size()) >= kMinRefSteps &&
          NowS() - t_start >= budget_s) {
        break;
      }
    }
  });
  return Median(ms);
}

double SpanMedianMs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) ms.push_back((s.t1_s - s.t0_s) * 1e3);
  }
  return Median(ms);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void TrainingRun::Report(perfbench::Report& report, std::vector<Span>& spans,
                         double* setup_s) {
  report.ops.Merge(ops_);
  for (const std::string& f : failures_) report.Fail(f);
  if (ops_.failed > 0) {
    report.Fail(std::to_string(ops_.failed) + " of " +
                std::to_string(ops_.attempted) + " steps failed");
  }
  for (int k = 0; k < spec_.world; ++k) {
    const std::vector<float>& l = ranks_[static_cast<size_t>(k)].losses;
    if (static_cast<int64_t>(l.size()) > kLossProbeStep) {
      std::printf("rank %d loss: step0 %.9g  step%lld %.9g  final(step%zu) %.9g\n",
                  k, l.front(), static_cast<long long>(kLossProbeStep),
                  l[static_cast<size_t>(kLossProbeStep)], l.size() - 1,
                  l.back());
    }
  }
  *setup_s = Median(setup_s_);
  std::printf("%s: %lld timed steps in %d slices, quartile spread %.4f; "
              "%d set-up repetitions\n",
              spec_.name, static_cast<long long>(timed_.steps), kSlices,
              QuartileSpread(timed_.step_ms), kSetupReps);
  if (!args_.trace) {
    report.Add("step_ms_p50", Median(timed_.step_ms), "ms");
    report.Add("tokens_per_s", Median(timed_.tokens_per_s), "tokens/s");
    report.Add("peak_rss_mib", PeakRssMib(), "MiB");
    return;
  }

  for (RankState& rs : ranks_) {
    spans.insert(spans.end(), rs.spans.begin(), rs.spans.end());
  }
  const Segment& t = traced_;
  const double steps = static_cast<double>(t.steps);
  const double traced_p50 = Median(t.step_ms);
  const TailPercentile tail = HighestSupportedPercentile(t.step_ms);
  const double optim_ms = SpanMedianMs(spans, "optim");
  report.Add("step.fwd_ms", SpanMedianMs(spans, "fwd"), "ms");
  report.Add("step.bwd_ms", SpanMedianMs(spans, "bwd"), "ms");
  report.Add("step.p90_ms", Percentile(t.step_ms, 90), "ms");
  report.Add("step.tail_pct", tail.pct, "%");
  report.Add("step.tail_ms", tail.pct > 0 ? tail.value : traced_p50, "ms");
  report.Add("step.samples", steps, "count");
  report.Add("step.rank_skew_ms", Median(t.skew_ms), "ms");

  GemmRates g;
  {
    std::vector<double> nn_r, nt_r, tn_r;
    for (const GemmRates& x : gemm_) {
      nn_r.push_back(x.nn);
      nt_r.push_back(x.nt);
      tn_r.push_back(x.tn);
    }
    g = {Median(nn_r), Median(nt_r), Median(tn_r)};
  }
  const FlopModel f = Flops(spec_);
  // Forward GEMMs run NT; backward runs one NN (input grad) and one TN
  // (weight grad) of the same size. Attention's matmuls are costed at NN.
  const double kernel_ms = 1e3 / 1e9 *
                           (f.linear_fwd / g.nt + f.linear_fwd / g.nn +
                            f.linear_fwd / g.tn + 3 * f.attn_fwd / g.nn);
  report.Add("step.non_kernel_ms", traced_p50 - kernel_ms - optim_ms, "ms");
  report.Add("tensor.gemm_nn_gflops", g.nn, "GFLOP/s");
  report.Add("tensor.gemm_nt_gflops", g.nt, "GFLOP/s");
  report.Add("tensor.gemm_tn_gflops", g.tn, "GFLOP/s");
  report.Add("tensor.flop_per_step", 3 * (f.linear_fwd + f.attn_fwd), "count");
  report.AddRatio("tensor.kernel_share", {kernel_ms, traced_p50, "step_ms p50 (traced)"});
  report.Add("optim.step_ms", optim_ms, "ms");

  report.Add("comm.allgather_calls", t.traffic.allgather_ops / steps, "count");
  report.Add("comm.allgather_bytes", t.traffic.allgather_bytes / steps, "bytes");
  report.Add("comm.reducescatter_calls", t.traffic.reducescatter_ops / steps, "count");
  report.Add("comm.reducescatter_bytes", t.traffic.reducescatter_bytes / steps, "bytes");
  report.Add("comm.allreduce_calls", t.traffic.allreduce_ops / steps, "count");
  report.Add("comm.allreduce_bytes", t.traffic.allreduce_bytes / steps, "bytes");
  CommSamples all;
  for (const CommSamples& p : probes_) {
    all.ag_us.insert(all.ag_us.end(), p.ag_us.begin(), p.ag_us.end());
    all.rs_us.insert(all.rs_us.end(), p.rs_us.begin(), p.rs_us.end());
    all.ar_us.insert(all.ar_us.end(), p.ar_us.begin(), p.ar_us.end());
    all.queue_us.insert(all.queue_us.end(), p.queue_us.begin(), p.queue_us.end());
    all.service_us.insert(all.service_us.end(), p.service_us.begin(),
                          p.service_us.end());
  }
  const double ag_us = Median(all.ag_us), rs_us = Median(all.rs_us);
  report.Add("comm.allgather_us_p50", ag_us, "us");
  report.Add("comm.reducescatter_us_p50", rs_us, "us");
  report.Add("comm.allreduce_us_p50", Median(all.ar_us), "us");
  report.Add("comm.allgather_gbps", probes_[0].ag_bytes / ag_us / 1e3, "GB/s");
  report.Add("comm.reducescatter_gbps", probes_[0].rs_bytes / rs_us / 1e3, "GB/s");
  report.Add("comm.queue_us_p50", Median(all.queue_us), "us");
  report.Add("comm.service_us_p50", Median(all.service_us), "us");

  // FSDP unshards a unit with exactly one AllGather.
  const double unshards = t.traffic.allgather_ops / steps;
  report.Add("core.unshards", unshards, "count");
  report.Add("core.waits_on_pending", t.waits_on_pending / steps, "count");
  report.Add("core.throttled_prefetches", t.throttled / steps, "count");
  report.AddRatio("core.overlap_miss_ratio",
                  {t.waits_on_pending / steps, unshards, "core.unshards"});
  report.Add("core.max_inflight_unshards",
             ranks_[0].fsdp->max_inflight_unshards(), "count");

  const double untraced_p50 = Median(timed_.step_ms);
  const double ref_ms = SingleRankStepMs(spec_, args_, budget_s_ / 4);
  report.Add("ref.single_rank_step_ms", ref_ms, "ms");
  report.AddRatio("ref.fsdp_overhead_ratio",
                  {untraced_p50, ref_ms, "ref.single_rank_step_ms"});
  report.AddRatio("obs.trace_overhead_share",
                  {traced_p50 - untraced_p50, untraced_p50,
                   "step_ms p50 (untraced)"});
}

}  // namespace

bool IsTrainingWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

double RunTraining(const Args& args, double budget_s, Tooling& tooling,
                   Report& report, std::vector<Span>& spans) {
  const TrainSpec* spec = FindSpec(args.workload);
  TrainingRun run(*spec, args, budget_s, tooling);
  run.Run();
  double setup_s = 0;
  run.Report(report, spans, &setup_s);
  return setup_s;
}

}  // namespace perfbench
