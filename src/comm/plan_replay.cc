#include "comm/plan_replay.h"

#include <chrono>
#include <deque>
#include <thread>
#include <vector>

namespace fsdp::comm {

namespace {

void SleepUs(double us) {
  if (us <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
}

}  // namespace

Status ReplayPlan(ProcessGroup pg, const plan::StepPlan& plan,
                  const ReplayOptions& options) {
  FSDP_CHECK_MSG(pg.valid(), "ReplayPlan needs a valid process group");
  const int w = pg.size();
  const int64_t n = options.unit_numel;

  // Synthetic per-unit storage: a local shard, the gathered parameter, a
  // full gradient and its reduced shard. The replayer exercises schedule and
  // collective signatures, not numerics.
  struct UnitBuffers {
    std::vector<float> shard;
    std::vector<float> unsharded;
    std::vector<float> grad_full;
    std::vector<float> grad_shard;
    Work unshard;
    bool unshard_pending = false;
  };
  std::vector<UnitBuffers> units(plan.unit_names.size());
  for (UnitBuffers& u : units) {
    u.shard.assign(static_cast<size_t>(n), 1.0f);
    u.unsharded.assign(static_cast<size_t>(n) * w, 0.0f);
    u.grad_full.assign(static_cast<size_t>(n) * w, 1.0f);
    u.grad_shard.assign(static_cast<size_t>(n), 0.0f);
  }
  std::vector<float> exchange_src(static_cast<size_t>(n) * w, 1.0f);
  std::vector<float> exchange_dst(static_cast<size_t>(n) * w, 0.0f);

  // Composed-axis scratch: TP collectives and pipeline activations are
  // consumed synchronously by the compute that follows them, so they are
  // waited at issue — only the dp-axis collectives pipeline asynchronously.
  ProcessGroup tp = options.tp_group;
  ProcessGroup pp = options.pp_group;
  const int tp_w = tp.valid() ? tp.size() : 1;
  std::vector<float> tp_src(static_cast<size_t>(n), 1.0f);
  std::vector<float> tp_dst(static_cast<size_t>(n) * tp_w, 0.0f);
  std::vector<float> act(static_cast<size_t>(n), 1.0f);

  // Batched collectives (Instr::batch_units, emitted by the fusion passes)
  // issue ONE call over a concatenated payload. The scratch must stay alive
  // until the drain below; a deque keeps addresses stable.
  struct BatchScratch {
    std::vector<float> src, dst;
  };
  std::deque<BatchScratch> batch_scratch;

  std::vector<Work> pending_reduces;
  Status first_error;
  auto note = [&](Status st) {
    if (first_error.ok() && !st.ok()) first_error = std::move(st);
  };

  for (int ip = 0; ip < plan.size() && first_error.ok(); ++ip) {
    const plan::Instr& in = plan.instrs[ip];
    if (options.pp_stage >= 0 && in.stage >= 0 &&
        in.stage != options.pp_stage) {
      continue;  // another stage's segment of a composed plan
    }
    SleepUs(in.delay_us);
    const size_t ui = in.unit >= 0 ? static_cast<size_t>(in.unit) : 0;
    CollectiveOptions opts;
    opts.async = true;
    opts.timeout_ms = options.timeout_ms;
    if (in.unit >= 0 && ui < plan.unit_names.size()) {
      opts.tag = plan.unit_names[ui];
    }
    switch (in.op) {
      case plan::Op::kUnshard: {
        if (in.batch_units.empty()) {
          UnitBuffers& u = units[ui];
          u.unshard = pg.AllGatherBase(u.unsharded.data(), u.shard.data(), n,
                                       opts);
          u.unshard_pending = true;
          break;
        }
        // Fused AllGather: one collective over the covered units'
        // concatenated shards; every member shares the Work handle.
        const int64_t total = n * plan::NumCoveredUnits(in);
        batch_scratch.emplace_back();
        BatchScratch& b = batch_scratch.back();
        b.src.assign(static_cast<size_t>(total), 1.0f);
        b.dst.assign(static_cast<size_t>(total) * w, 0.0f);
        Work work = pg.AllGatherBase(b.dst.data(), b.src.data(), total, opts);
        plan::ForEachCoveredUnit(in, [&](int cu) {
          units[static_cast<size_t>(cu)].unshard = work;
          units[static_cast<size_t>(cu)].unshard_pending = true;
        });
        break;
      }
      case plan::Op::kWaitUnshard: {
        UnitBuffers& u = units[ui];
        if (u.unshard_pending) {
          note(u.unshard.WaitStatus());
          u.unshard_pending = false;
        }
        break;
      }
      case plan::Op::kCompute:
        SleepUs(options.compute_us);
        break;
      case plan::Op::kInputExchange:
        note(pg.AllToAll(exchange_dst.data(), exchange_src.data(), n, opts)
                 .WaitStatus());
        break;
      case plan::Op::kReduceGrad: {
        if (in.batch_units.empty()) {
          UnitBuffers& u = units[ui];
          pending_reduces.push_back(
              pg.ReduceScatter(u.grad_shard.data(), u.grad_full.data(), n,
                               opts));
          break;
        }
        // Fused ReduceScatter over the covered units' concatenated grads.
        const int64_t total = n * plan::NumCoveredUnits(in);
        batch_scratch.emplace_back();
        BatchScratch& b = batch_scratch.back();
        b.src.assign(static_cast<size_t>(total) * w, 1.0f);
        b.dst.assign(static_cast<size_t>(total), 0.0f);
        pending_reduces.push_back(
            pg.ReduceScatter(b.dst.data(), b.src.data(), total, opts));
        break;
      }
      case plan::Op::kAllReduceReplicas: {
        UnitBuffers& u = units[ui];
        pending_reduces.push_back(pg.AllReduce(u.grad_shard.data(), n, opts));
        break;
      }
      case plan::Op::kWaitReduceGrad:
        for (const Work& work : pending_reduces) note(work.WaitStatus());
        pending_reduces.clear();
        break;
      case plan::Op::kTpAllGather:
        FSDP_CHECK_MSG(tp.valid(),
                       "composed plan needs ReplayOptions::tp_group");
        note(tp.AllGatherBase(tp_dst.data(), tp_src.data(), n, opts)
                 .WaitStatus());
        break;
      case plan::Op::kTpAllReduce:
        FSDP_CHECK_MSG(tp.valid(),
                       "composed plan needs ReplayOptions::tp_group");
        note(tp.AllReduce(tp_src.data(), n, opts).WaitStatus());
        break;
      case plan::Op::kSendAct:
        FSDP_CHECK_MSG(pp.valid(),
                       "composed plan needs ReplayOptions::pp_group");
        note(pp.Send(act.data(), n, in.peer_stage, opts).WaitStatus());
        break;
      case plan::Op::kRecvAct:
        FSDP_CHECK_MSG(pp.valid(),
                       "composed plan needs ReplayOptions::pp_group");
        note(pp.Recv(act.data(), n, in.peer_stage, opts).WaitStatus());
        break;
      case plan::Op::kRateLimitGate:
      case plan::Op::kGradOffloadD2H:
      case plan::Op::kReshard:
      case plan::Op::kFreeGrad:
      case plan::Op::kFreeAct:
      case plan::Op::kOptimStep:
        break;  // host/bookkeeping ops: no collective footprint
    }
  }

  // Drain every outstanding handle before the buffers go out of scope —
  // also on the error path, where the abort has already completed (or will
  // promptly complete) all of them.
  for (const Work& work : pending_reduces) note(work.WaitStatus());
  for (UnitBuffers& u : units) {
    if (u.unshard_pending) note(u.unshard.WaitStatus());
  }
  return first_error;
}

}  // namespace fsdp::comm
