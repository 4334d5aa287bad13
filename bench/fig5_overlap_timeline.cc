// Figure 5: "Overlap Communication and Computation" — the paper's schedule
// illustration with three FSDP units (AG0 FWD0 | AG1 FWD1 | AG2 FWD2 ...
// then backward: BWD2, AG1 before RS2 under backward prefetch, BWD1, AG0,
// RS1, BWD0, RS0; the backward pass has one less AllGather because the
// outermost unit is intentionally kept in memory).
//
// Unlike the other figure benches, this one runs the REAL functional-layer
// FSDP (thread-per-rank) and prints rank 0's recorded event sequence, with
// and without backward prefetching, so the issue-order claims of Sec 3.3 are
// directly visible.
#include <cstdio>

#include "autograd/engine.h"
#include "bench/bench_util.h"
#include "core/fsdp.h"
#include "nn/transformer.h"

using namespace fsdp;

namespace {

void PrintTimeline(bool prefetch, std::vector<bench::JsonRow>& rows) {
  const int world = 2;
  comm::DeviceMesh mesh(world, world);
  std::vector<obs::TraceEvent> trace;
  RunOnRanks(world, [&](int rank) {
    nn::InitCtx ctx(Device::kCpu, 5);
    nn::TransformerConfig cfg;
    cfg.vocab_size = 17;
    cfg.max_seq = 4;
    cfg.dim = 8;
    cfg.num_heads = 2;
    cfg.num_layers = 2;  // root + 2 blocks = 3 units, like the figure
    auto model = std::make_shared<nn::TransformerModel>(cfg, ctx);
    core::FsdpOptions opts;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    opts.backward_prefetch = prefetch;
    auto state = core::FullyShard(model, mesh, rank, opts);
    Tensor tokens = ops::IndexTensor({1, 2, 3, 4}, {1, 4});
    Tensor targets = ops::IndexTensor({2, 3, 4, 5}, {4});
    Tensor loss = ops::CrossEntropy((*model)(tokens), targets);
    autograd::RunBackward(loss);
    if (rank == 0) trace = state->trace_events();
  });
  std::printf("\nbackward prefetch %s — rank 0 event sequence "
              "(unit0=[root], unit1=blocks.0, unit2=blocks.1):\n",
              prefetch ? "ON " : "OFF");
  int i = 0;
  for (const auto& e : trace) {
    if (e.lane != "runtime") continue;  // the rank thread's issue order
    std::printf("  %2d. %s\n", ++i, obs::RenderEvent(e).c_str());
  }
  for (size_t k = 0; k < trace.size(); ++k) {
    const auto& e = trace[k];
    rows.push_back(bench::JsonRow()
                       .Set("prefetch", prefetch)
                       .Set("idx", static_cast<int64_t>(k))
                       .Set("kind", obs::EventKindName(e.kind))
                       .Set("unit", e.unit)
                       .Set("t_begin_us", e.t_begin_us)
                       .Set("t_end_us", e.t_end_us)
                       .Set("bytes", e.bytes));
  }
}

}  // namespace

int main() {
  std::printf("================================================================\n");
  std::printf("Figure 5 — overlap schedule on the real functional runtime\n");
  std::printf("================================================================\n");
  std::vector<bench::JsonRow> rows;
  PrintTimeline(/*prefetch=*/false, rows);
  PrintTimeline(/*prefetch=*/true, rows);
  std::printf(
      "\npaper shape: forward gathers unit-by-unit ahead of compute; in\n"
      "backward, WITHOUT prefetch each ReduceScatter precedes the next\n"
      "AllGather on the single NCCL stream, WITH prefetch the order flips\n"
      "(AG:blocks.0 before RS:blocks.1); the backward pass has one less\n"
      "AllGather because the outermost unit stays in memory (Sec 3.3.1).\n");
  bench::WriteBenchJson("fig5_overlap_timeline", rows);
  return 0;
}
