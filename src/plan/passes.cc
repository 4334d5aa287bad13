#include "plan/passes.h"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

namespace fsdp::plan {

namespace {

// ---------------------------------------------------------------------------
// Reordering machinery
// ---------------------------------------------------------------------------

/// Reorders plan.instrs so new position p holds old instruction order[p],
/// then rewrites every dep index through the inverse permutation. Callers
/// guarantee the permutation respects dependencies (no dep ends up pointing
/// forward).
void ApplyOrder(StepPlan& plan, const std::vector<int>& order) {
  const int n = plan.size();
  std::vector<int> inv(static_cast<size_t>(n), 0);
  for (int p = 0; p < n; ++p) inv[static_cast<size_t>(order[p])] = p;
  std::vector<Instr> out;
  out.reserve(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) {
    out.push_back(std::move(plan.instrs[static_cast<size_t>(order[p])]));
  }
  for (Instr& in : out) {
    for (int& d : in.deps) d = inv[static_cast<size_t>(d)];
  }
  plan.instrs = std::move(out);
}

bool SharesUnit(const Instr& a, const Instr& b) {
  return ForEachCoveredUnit(a, [&](int ua) {
    return ForEachCoveredUnit(b, [&](int ub) { return ua == ub; });
  });
}

bool DependsOnRange(const Instr& in, int b, int e) {
  for (int d : in.deps) {
    if (d >= b && d < e) return true;
  }
  return false;
}

bool DependsOn(const Instr& in, int target) {
  return std::find(in.deps.begin(), in.deps.end(), target) != in.deps.end();
}

/// Erases instructions marked `removed`, remapping each removed index to
/// `redirect[old]` (the surviving instruction that absorbed it) and every
/// dep through the resulting old-to-new map. Dep lists are deduplicated.
void EraseRemapped(StepPlan& plan, const std::vector<char>& removed,
                   const std::vector<int>& redirect) {
  const int n = plan.size();
  std::vector<int> old_to_new(static_cast<size_t>(n), -1);
  std::vector<Instr> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (removed[static_cast<size_t>(i)]) continue;
    old_to_new[static_cast<size_t>(i)] = static_cast<int>(out.size());
    out.push_back(std::move(plan.instrs[static_cast<size_t>(i)]));
  }
  for (int i = 0; i < n; ++i) {
    if (!removed[static_cast<size_t>(i)]) continue;
    int target = redirect[static_cast<size_t>(i)];
    old_to_new[static_cast<size_t>(i)] =
        target >= 0 ? old_to_new[static_cast<size_t>(target)] : -1;
  }
  for (Instr& in : out) {
    std::vector<int> deps;
    deps.reserve(in.deps.size());
    for (int d : in.deps) {
      int nd = old_to_new[static_cast<size_t>(d)];
      if (nd >= 0 && std::find(deps.begin(), deps.end(), nd) == deps.end()) {
        deps.push_back(nd);
      }
    }
    std::sort(deps.begin(), deps.end());
    in.deps = std::move(deps);
  }
  plan.instrs = std::move(out);
}

/// Payload of a (possibly already batched) collective, from a per-unit byte
/// table; -1 if any covered unit is out of table range.
int64_t CoveredBytes(const Instr& in, const std::vector<int64_t>& table) {
  int64_t total = 0;
  const bool out_of_range = ForEachCoveredUnit(in, [&](int u) {
    if (u < 0 || u >= static_cast<int>(table.size())) return true;
    total += table[static_cast<size_t>(u)];
    return false;
  });
  return out_of_range ? -1 : total;
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanValidator
// ---------------------------------------------------------------------------

Status PlanValidator::Check(const StepPlan& plan) const {
  const int n = plan.size();
  const int nu = static_cast<int>(plan.unit_names.size());
  auto fail = [&](int i, const std::string& what) {
    std::ostringstream oss;
    oss << "instr " << i << " ("
        << RenderInstr(plan.instrs[static_cast<size_t>(i)], plan.unit_names)
        << " mb" << plan.instrs[static_cast<size_t>(i)].microbatch << "): "
        << what;
    return Status::Invalid(oss.str());
  };

  // Units the plan manages (ever unshards). Units never unsharded are
  // treated as resident from the start: DDP plans, and runtime-recorded
  // steps that inherit gathered parameters from a previous no_sync step.
  std::vector<char> managed(static_cast<size_t>(nu), 0);
  bool has_unshard = false;
  bool has_compute = false;
  // Stages with any instruction in this plan. Per-rank executed logs and
  // FilterStage projections only carry one stage; send/recv matching is
  // skipped against stages the plan does not contain.
  int max_stage = -1;
  int mb_lo = 0, mb_hi = -1;  // microbatch range, sizes the tables below
  for (int i = 0; i < n; ++i) {
    const Instr& in = plan.instrs[static_cast<size_t>(i)];
    if (ForEachCoveredUnit(in, [&](int u) { return u < 0 || u >= nu; })) {
      return fail(i, "unit index out of range");
    }
    if (in.op == Op::kUnshard) {
      has_unshard = true;
      ForEachCoveredUnit(
          in, [&](int u) { managed[static_cast<size_t>(u)] = 1; });
    }
    if (in.op == Op::kCompute) has_compute = true;
    max_stage = std::max(max_stage, in.stage);
    if (mb_hi < mb_lo) {
      mb_lo = mb_hi = in.microbatch;
    } else {
      mb_lo = std::min(mb_lo, in.microbatch);
      mb_hi = std::max(mb_hi, in.microbatch);
    }
  }
  std::vector<char> stages_present(static_cast<size_t>(max_stage + 1), 0);
  for (const Instr& in : plan.instrs) {
    if (in.stage >= 0) stages_present[static_cast<size_t>(in.stage)] = 1;
  }
  auto stage_present = [&](int s) {
    return s >= 0 && s <= max_stage && stages_present[static_cast<size_t>(s)];
  };

  std::vector<char> gathered(static_cast<size_t>(nu), 0);
  for (int u = 0; u < nu; ++u) {
    if (!managed[static_cast<size_t>(u)]) gathered[static_cast<size_t>(u)] = 1;
  }
  std::vector<char> grad_live(static_cast<size_t>(nu), 0);
  std::vector<char> act_live(static_cast<size_t>(nu), 0);
  std::vector<int> last_bwd_mb(static_cast<size_t>(nu), -1);
  // Per-(microbatch, unit) reduction bookkeeping for the duplicate and
  // coverage checks, and which microbatches reduce at all.
  const int n_mb = mb_hi - mb_lo + 1;
  std::vector<char> bwd_units(static_cast<size_t>(n_mb) * nu, 0);
  std::vector<char> reduced_units(bwd_units.size(), 0);
  std::vector<char> mb_reduces(static_cast<size_t>(n_mb), 0);
  auto cell = [&](int mb, int u) {
    return static_cast<size_t>(mb - mb_lo) * static_cast<size_t>(nu) +
           static_cast<size_t>(u);
  };
  // Pipeline boundary matching: sends keyed by (sender stage, receiver
  // stage, phase, microbatch) queue up until the matching recv consumes
  // them. Plan order is issue order, so a recv whose send appears later
  // would deadlock the composed run — that is the cross-axis cycle check.
  using P2pKey = std::tuple<int, int, int, int>;
  std::map<P2pKey, std::deque<int>> pending_sends;
  bool after_optim = false;

  for (int i = 0; i < n; ++i) {
    const Instr& in = plan.instrs[static_cast<size_t>(i)];
    for (int d : in.deps) {
      if (d < 0 || d >= i) {
        return fail(i, "dep " + std::to_string(d) +
                           " does not point strictly earlier (cycle)");
      }
    }
    if (after_optim) return fail(i, "instruction after kOptimStep");

    // Axis discipline: the FSDP schedule lives on the dp axis; TP
    // collectives and pipeline point-to-points carry their own axis tags so
    // the simulator (and trace lanes) route them onto the right fabric.
    switch (in.op) {
      case Op::kTpAllGather:
      case Op::kTpAllReduce:
        if (in.axis != Axis::kTp) {
          return fail(i, "tensor-parallel collective off the tp axis");
        }
        break;
      case Op::kSendAct:
      case Op::kRecvAct:
        if (in.axis != Axis::kPp) {
          return fail(i, "pipeline send/recv off the pp axis");
        }
        break;
      default:
        if (in.axis != Axis::kDp) {
          return fail(i, "FSDP instruction tagged off the dp axis");
        }
        break;
    }

    switch (in.op) {
      case Op::kUnshard:
        if (ForEachCoveredUnit(in, [&](int u) {
              if (gathered[static_cast<size_t>(u)]) return true;
              gathered[static_cast<size_t>(u)] = 1;
              return false;
            })) {
          return fail(i, "redundant unshard: unit already gathered");
        }
        break;
      case Op::kWaitUnshard:
        if (in.unit >= 0 && managed[static_cast<size_t>(in.unit)] &&
            !gathered[static_cast<size_t>(in.unit)]) {
          return fail(i, "wait on a unit that is not gathered");
        }
        break;
      case Op::kCompute: {
        if (in.unit < 0) return fail(i, "compute without a unit");
        const size_t u = static_cast<size_t>(in.unit);
        if (managed[u] && !gathered[u]) {
          return fail(i, "compute on a resharded unit (use-after-free)");
        }
        if (in.phase == Phase::kBackward) {
          last_bwd_mb[u] = in.microbatch;
          grad_live[u] = 1;
          if (in.seg != Seg::kRootHead) {
            bwd_units[cell(in.microbatch, in.unit)] = 1;
          }
        } else if (in.phase == Phase::kForward && in.seg == Seg::kMain) {
          act_live[u] = 1;
        }
        break;
      }
      case Op::kReduceGrad: {
        std::string why;
        ForEachCoveredUnit(in, [&](int u) {
          // Reduce-only logs (DDP's executed plan records buckets, not
          // computes) can't anchor reductions to a backward — skip.
          if (has_compute &&
              last_bwd_mb[static_cast<size_t>(u)] != in.microbatch) {
            why = "reduction of unit " + std::to_string(u) +
                  " without a backward compute this microbatch";
            return true;
          }
          char& reduced = reduced_units[cell(in.microbatch, u)];
          if (reduced) {
            why = "duplicate reduction of unit " + std::to_string(u) +
                  " this microbatch";
            return true;
          }
          reduced = 1;
          mb_reduces[static_cast<size_t>(in.microbatch - mb_lo)] = 1;
          return false;
        });
        if (!why.empty()) return fail(i, why);
        break;
      }
      case Op::kReshard: {
        if (in.unit < 0) return fail(i, "reshard without a unit");
        const size_t u = static_cast<size_t>(in.unit);
        if (!gathered[u]) {
          return fail(i, "reshard of an already-sharded unit (double free)");
        }
        if (!in.retain) gathered[u] = 0;
        break;
      }
      case Op::kFreeGrad: {
        if (in.unit < 0) return fail(i, "free-grad without a unit");
        const size_t u = static_cast<size_t>(in.unit);
        if (!grad_live[u]) return fail(i, "double free of gradient buffer");
        grad_live[u] = 0;
        break;
      }
      case Op::kFreeAct: {
        if (in.unit < 0) return fail(i, "free-act without a unit");
        const size_t u = static_cast<size_t>(in.unit);
        if (!act_live[u]) return fail(i, "double free of activation buffer");
        act_live[u] = 0;
        break;
      }
      case Op::kOptimStep:
        after_optim = true;
        break;
      case Op::kSendAct:
        if (in.stage < 0 || in.peer_stage < 0) {
          return fail(i, "send without stage/peer-stage tags");
        }
        pending_sends[{in.stage, in.peer_stage, static_cast<int>(in.phase),
                       in.microbatch}]
            .push_back(i);
        break;
      case Op::kRecvAct: {
        if (in.stage < 0 || in.peer_stage < 0) {
          return fail(i, "recv without stage/peer-stage tags");
        }
        if (!stage_present(in.peer_stage)) break;
        auto& q = pending_sends[{in.peer_stage, in.stage,
                                 static_cast<int>(in.phase), in.microbatch}];
        if (q.empty()) {
          return fail(i,
                      "recv with no earlier matching send (unmatched recv, "
                      "or a send scheduled after its recv — cross-stage "
                      "cycle)");
        }
        q.pop_front();
        break;
      }
      case Op::kTpAllGather:
      case Op::kTpAllReduce:
      case Op::kRateLimitGate:
      case Op::kInputExchange:
      case Op::kAllReduceReplicas:
      case Op::kGradOffloadD2H:
      case Op::kWaitReduceGrad:
        break;
    }
  }

  // Every send whose receiving stage is in the plan must have been
  // consumed; a dangling send is a peer blocked forever at step boundary.
  for (const auto& [key, q] : pending_sends) {
    if (q.empty()) continue;
    if (!stage_present(std::get<1>(key))) continue;
    return fail(q.front(), "send never matched by a recv on stage " +
                               std::to_string(std::get<1>(key)));
  }

  // Coverage: a microbatch that syncs at all must reduce every unit whose
  // backward ran in it — a dropped reduction is the classic silent-wrong
  // rewrite. DDP bucket plans (no unshards) key reductions by bucket
  // boundary, not per unit; the per-unit coverage contract does not apply.
  if (has_unshard) {
    for (int mb = mb_lo; mb <= mb_hi; ++mb) {
      if (!mb_reduces[static_cast<size_t>(mb - mb_lo)]) continue;
      for (int u = 0; u < nu; ++u) {
        if (bwd_units[cell(mb, u)] && !reduced_units[cell(mb, u)]) {
          return Status::Invalid(
              "microbatch " + std::to_string(mb) + " syncs but drops the "
              "reduction of unit " + std::to_string(u));
        }
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// HoistUnshards
// ---------------------------------------------------------------------------

int HoistUnshards(StepPlan& plan, const PassOptions& options) {
  if (options.max_hoist_computes <= 0) return 0;
  bool has_gates = false;
  for (const Instr& in : plan.instrs) {
    if (in.op == Op::kRateLimitGate) has_gates = true;
  }
  // order[p] is the original index of the instruction at position p of the
  // rewritten prefix. A hoist only permutes positions at or before the
  // unshard, so original instruction i always lands next at position i.
  // Deps stay in original indices until the single ApplyOrder at the end.
  const int n = plan.size();
  std::vector<int> order;
  order.reserve(static_cast<size_t>(n));
  auto at = [&](int p) -> const Instr& {
    return plan.instrs[static_cast<size_t>(order[static_cast<size_t>(p)])];
  };
  int rewrites = 0;
  for (int i = 0; i < n; ++i) {
    order.push_back(i);
    const Instr& un = plan.instrs[static_cast<size_t>(i)];
    if (un.op != Op::kUnshard) continue;
    // The unshard's rate-limiter gate travels with it.
    int b = i;
    if (b > 0) {
      const Instr& prev = at(b - 1);
      if (prev.op == Op::kRateLimitGate && prev.unit == un.unit) b = i - 1;
    }
    int dst = b;
    int computes = 0;
    for (int j = b - 1; j >= 0; --j) {
      const Instr& x = at(j);
      // Blockers: collective issue order is preserved (comm lane), same-unit
      // instructions, explicit deps, phase joins, microbatch boundaries —
      // and, under the rate limiter, any allocator release: gates unblock on
      // free events, so an unshard may not overtake the frees that feed it.
      if (x.lane == Lane::kComm) break;
      if (SharesUnit(x, un)) break;
      if (x.op == Op::kOptimStep || x.op == Op::kWaitReduceGrad) break;
      if (x.microbatch != un.microbatch) break;
      if (DependsOn(un, order[static_cast<size_t>(j)])) break;
      if (has_gates && (x.op == Op::kReshard || x.op == Op::kFreeGrad ||
                        x.op == Op::kFreeAct)) {
        break;
      }
      if (x.op == Op::kCompute) {
        if (computes + 1 > options.max_hoist_computes) break;
        ++computes;
      }
      dst = j;
    }
    // Only a move that crosses compute buys overlap.
    if (dst < b && computes > 0) {
      std::rotate(order.begin() + dst, order.begin() + b, order.end());
      ++rewrites;
    }
  }
  if (rewrites > 0) ApplyOrder(plan, order);
  return rewrites;
}

// ---------------------------------------------------------------------------
// FuseAllGathers
// ---------------------------------------------------------------------------

int FuseAllGathers(StepPlan& plan, const PassOptions& options) {
  if (options.fuse_below_bytes <= 0 || options.unit_shard_bytes.empty()) {
    return 0;
  }
  const int n = plan.size();
  std::vector<char> removed(static_cast<size_t>(n), 0);
  std::vector<int> redirect(static_cast<size_t>(n), -1);
  int rewrites = 0;

  int i = 0;
  while (i < n) {
    const Instr& lead = plan.instrs[static_cast<size_t>(i)];
    const int64_t lead_bytes = lead.op == Op::kUnshard
                                   ? CoveredBytes(lead, options.unit_shard_bytes)
                                   : -1;
    if (lead.op != Op::kUnshard || lead_bytes < 0 ||
        lead_bytes >= options.fuse_below_bytes) {
      ++i;
      continue;
    }
    // Extend the run: later small unshards separated only by rate-limiter
    // gates, in the same phase and microbatch.
    int64_t total = lead_bytes;
    std::vector<int> members;       // member unshard indices (excl. leader)
    std::vector<int> member_gates;  // their gates (dropped on fuse)
    int j = i + 1;
    while (j < n) {
      const Instr& x = plan.instrs[static_cast<size_t>(j)];
      int gate = -1;
      if (x.op == Op::kRateLimitGate && j + 1 < n &&
          plan.instrs[static_cast<size_t>(j + 1)].op == Op::kUnshard &&
          plan.instrs[static_cast<size_t>(j + 1)].unit == x.unit) {
        gate = j;
        ++j;
      }
      const Instr& cand = plan.instrs[static_cast<size_t>(j)];
      // Composed plans: never batch across a stage or axis boundary — the
      // members would land on different mesh-sliced communicators.
      if (cand.op != Op::kUnshard || cand.phase != lead.phase ||
          cand.microbatch != lead.microbatch || cand.stage != lead.stage ||
          cand.axis != lead.axis) {
        break;
      }
      const int64_t cb = CoveredBytes(cand, options.unit_shard_bytes);
      if (cb < 0 || cb >= options.fuse_below_bytes ||
          total + cb > options.max_fused_bytes) {
        break;
      }
      // A member dep inside the run would end up pointing at the fused
      // instruction's own position or later — stop the run there.
      if (DependsOnRange(cand, i, j + 1)) break;
      total += cb;
      members.push_back(j);
      if (gate >= 0) member_gates.push_back(gate);
      ++j;
    }
    if (!members.empty()) {
      Instr& fused = plan.instrs[static_cast<size_t>(i)];
      for (int m : members) {
        const Instr& mem = plan.instrs[static_cast<size_t>(m)];
        ForEachCoveredUnit(mem,
                           [&](int u) { fused.batch_units.push_back(u); });
        for (int d : mem.deps) {
          if (std::find(fused.deps.begin(), fused.deps.end(), d) ==
              fused.deps.end()) {
            fused.deps.push_back(d);
          }
        }
        removed[static_cast<size_t>(m)] = 1;
        redirect[static_cast<size_t>(m)] = i;
      }
      std::sort(fused.deps.begin(), fused.deps.end());
      fused.bytes = total;
      for (int g : member_gates) {
        removed[static_cast<size_t>(g)] = 1;
        redirect[static_cast<size_t>(g)] = i;
      }
      ++rewrites;
    }
    i = j;
  }
  if (rewrites > 0) EraseRemapped(plan, removed, redirect);
  return rewrites;
}

// ---------------------------------------------------------------------------
// SinkReduces
// ---------------------------------------------------------------------------

int SinkReduces(StepPlan& plan, const PassOptions& options) {
  if (options.max_sink_computes <= 0) return 0;
  // The rewritten suffix, reversed: rev[k] is the original index of the
  // instruction at position n-1-k, so push_back prepends. A sink only
  // permutes positions at or after its reduce, so original instruction i
  // always lands next at position i. Deps stay in original indices until
  // the single ApplyOrder at the end.
  const int n = plan.size();
  std::vector<int> rev;
  rev.reserve(static_cast<size_t>(n));
  auto at = [&](int p) -> const Instr& {
    const int k = n - 1 - p;
    return plan.instrs[static_cast<size_t>(rev[static_cast<size_t>(k)])];
  };
  int rewrites = 0;
  // Right-to-left so chains pack toward the tail and become adjacent.
  for (int i = n - 1; i >= 0; --i) {
    rev.push_back(i);
    const Instr& red = plan.instrs[static_cast<size_t>(i)];
    if (red.op != Op::kReduceGrad) continue;
    // The group: the reduce plus its dependent chain (replica AllReduce,
    // offload D2H, gradient free), contiguous by construction.
    int e = i + 1;
    while (e < n) {
      const Instr& x = at(e);
      const bool chained = (x.op == Op::kAllReduceReplicas ||
                            x.op == Op::kGradOffloadD2H ||
                            x.op == Op::kFreeGrad) &&
                           x.unit == red.unit;
      if (!chained) break;
      ++e;
    }
    // Positions [i, e) in original indices: rev[n-e, n-i).
    const auto group_begin = rev.end() - (e - i);
    auto depends_on_group = [&](const Instr& x) {
      for (int d : x.deps) {
        if (std::find(group_begin, rev.end(), d) != rev.end()) return true;
      }
      return false;
    };
    int dst = e;  // insert-before position
    int computes = 0;
    for (int j = e; j < n; ++j) {
      const Instr& x = at(j);
      // Sinking deliberately crosses comm-lane AllGathers (prefetch issues
      // first — the reordering win) but never another reduction, the
      // end-of-backward join, or anything that consumes the group's result.
      // Pipeline boundaries pin issue order across stages: a reduce may not
      // cross a send/recv, nor leave its own stage's segment.
      if (x.op == Op::kReduceGrad || x.op == Op::kWaitReduceGrad ||
          x.op == Op::kOptimStep || x.op == Op::kSendAct ||
          x.op == Op::kRecvAct) {
        break;
      }
      if (x.stage != red.stage) break;
      if (x.microbatch != red.microbatch) break;
      if (depends_on_group(x)) break;
      if (x.op == Op::kCompute) {
        if (computes + 1 > options.max_sink_computes) break;
        ++computes;
      }
      dst = j + 1;
    }
    if (dst > e) {
      // Reversed, positions [i, dst) read as (crossed, group); moving the
      // group behind what it crossed brings it to the front of that span.
      std::rotate(rev.end() - (dst - i), group_begin, rev.end());
      ++rewrites;
    }
  }
  if (rewrites == 0) return 0;
  std::reverse(rev.begin(), rev.end());
  ApplyOrder(plan, rev);
  return rewrites;
}

// ---------------------------------------------------------------------------
// FuseReduceScatters
// ---------------------------------------------------------------------------

int FuseReduceScatters(StepPlan& plan, const PassOptions& options) {
  if (options.fuse_below_bytes <= 0 || options.unit_reduce_bytes.empty()) {
    return 0;
  }
  // Reduction chains (replica AllReduce / offload D2H) consume each
  // reduce's output shard individually — batching across them would need
  // chain surgery this pass does not attempt.
  for (const Instr& in : plan.instrs) {
    if (in.op == Op::kAllReduceReplicas || in.op == Op::kGradOffloadD2H) {
      return 0;
    }
  }
  const int n = plan.size();
  std::vector<char> removed(static_cast<size_t>(n), 0);
  std::vector<int> redirect(static_cast<size_t>(n), -1);
  int rewrites = 0;

  int i = 0;
  while (i < n) {
    const Instr& lead = plan.instrs[static_cast<size_t>(i)];
    const int64_t lead_bytes =
        lead.op == Op::kReduceGrad
            ? CoveredBytes(lead, options.unit_reduce_bytes)
            : -1;
    if (lead.op != Op::kReduceGrad || lead_bytes < 0 ||
        lead_bytes >= options.fuse_below_bytes) {
      ++i;
      continue;
    }
    int64_t total = lead_bytes;
    std::vector<int> members;
    int j = i + 1;
    while (j < n) {
      // Gradient frees of earlier run members may sit between reduces.
      while (j < n &&
             plan.instrs[static_cast<size_t>(j)].op == Op::kFreeGrad) {
        ++j;
      }
      if (j >= n) break;
      const Instr& cand = plan.instrs[static_cast<size_t>(j)];
      // Same stage/axis only — fused members share one communicator.
      if (cand.op != Op::kReduceGrad || cand.phase != lead.phase ||
          cand.microbatch != lead.microbatch || cand.stage != lead.stage ||
          cand.axis != lead.axis) {
        break;
      }
      const int64_t cb = CoveredBytes(cand, options.unit_reduce_bytes);
      if (cb < 0 || cb >= options.fuse_below_bytes ||
          total + cb > options.max_fused_bytes) {
        break;
      }
      // The fused reduction runs at the leader's position: every member dep
      // (its unit's backward compute) must already be scheduled before it.
      if (DependsOnRange(cand, i, j + 1)) break;
      total += cb;
      members.push_back(j);
      ++j;
    }
    if (!members.empty()) {
      Instr& fused = plan.instrs[static_cast<size_t>(i)];
      for (int m : members) {
        const Instr& mem = plan.instrs[static_cast<size_t>(m)];
        ForEachCoveredUnit(mem,
                           [&](int u) { fused.batch_units.push_back(u); });
        for (int d : mem.deps) {
          if (std::find(fused.deps.begin(), fused.deps.end(), d) ==
              fused.deps.end()) {
            fused.deps.push_back(d);
          }
        }
        removed[static_cast<size_t>(m)] = 1;
        redirect[static_cast<size_t>(m)] = i;
      }
      std::sort(fused.deps.begin(), fused.deps.end());
      fused.bytes = total;
      ++rewrites;
    }
    i = j;
  }
  if (rewrites > 0) EraseRemapped(plan, removed, redirect);
  return rewrites;
}

// ---------------------------------------------------------------------------
// PassManager
// ---------------------------------------------------------------------------

PassManager PassManager::Default(PassOptions options) {
  PassManager pm(std::move(options));
  pm.AddPass("hoist-unshards", HoistUnshards);
  pm.AddPass("fuse-allgathers", FuseAllGathers);
  pm.AddPass("sink-reduces", SinkReduces);
  pm.AddPass("fuse-reducescatters", FuseReduceScatters);
  return pm;
}

PassResult PassManager::Run(StepPlan& plan) const {
  Status st = validator_.Check(plan);
  FSDP_CHECK_MSG(st.ok(), "pre-pass plan invalid: " << st.message());
  PassResult result;
  for (const auto& [name, fn] : passes_) {
    const int n = fn(plan, options_);
    st = validator_.Check(plan);
    FSDP_CHECK_MSG(st.ok(),
                   "pass '" << name << "' corrupted the plan: "
                            << st.message());
    result.applied.emplace_back(name, n);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Static memory planning
// ---------------------------------------------------------------------------

const char* BufKindName(BufKind kind) {
  switch (kind) {
    case BufKind::kParam: return "param";
    case BufKind::kGrad: return "grad";
    case BufKind::kAct: return "act";
    case BufKind::kRecompute: return "recompute";
    case BufKind::kHead: return "head";
  }
  return "?";
}

namespace {

/// Arena offset/size alignment.
constexpr int64_t kArenaAlignBytes = 512;

int64_t RoundUp(int64_t bytes) {
  return (bytes + kArenaAlignBytes - 1) / kArenaAlignBytes * kArenaAlignBytes;
}

int64_t UnitBytesOrZero(const std::vector<int64_t>& table, int unit) {
  if (unit < 0 || unit >= static_cast<int>(table.size())) return 0;
  return table[static_cast<size_t>(unit)];
}

}  // namespace

ArenaPlan BuildArenaPlan(const StepPlan& plan,
                         const MemoryPlanOptions& options) {
  const int n = plan.size();
  const int nu = static_cast<int>(plan.unit_names.size());

  // ---- liveness walk: mirror the interpreter's allocation guards ----
  struct Live {
    int param = -1, grad = -1, act = -1;  // open interval index, -1 = none
  };
  std::vector<Live> live(static_cast<size_t>(nu));
  int head_open = -1;
  std::vector<ArenaAssignment> ivals;
  auto open = [&](BufKind kind, int unit, int64_t bytes, int at) -> int {
    if (bytes <= 0) return -1;
    ArenaAssignment a;
    a.kind = kind;
    a.unit = unit;
    a.bytes = RoundUp(bytes);
    a.open_at = at;
    a.close_at = n;  // until closed (or steady-state resident)
    ivals.push_back(a);
    return static_cast<int>(ivals.size()) - 1;
  };
  auto close = [&](int idx, int at) {
    if (idx >= 0) ivals[static_cast<size_t>(idx)].close_at = at;
  };

  for (int i = 0; i < n; ++i) {
    const Instr& in = plan.instrs[static_cast<size_t>(i)];
    switch (in.op) {
      case Op::kUnshard:
        ForEachCoveredUnit(in, [&](int u) {
          Live& l = live[static_cast<size_t>(u)];
          if (l.param < 0) {
            l.param = open(BufKind::kParam, u,
                           UnitBytesOrZero(options.param_bytes, u), i);
          }
        });
        break;
      case Op::kCompute: {
        if (in.unit < 0) break;
        Live& l = live[static_cast<size_t>(in.unit)];
        if (in.phase == Phase::kForward) {
          if (in.seg == Seg::kRootHead) {
            if (head_open < 0) {
              head_open = open(BufKind::kHead, in.unit, options.head_bytes, i);
            }
          } else if (in.unit != 0 && in.seg == Seg::kMain && l.act < 0) {
            l.act = open(BufKind::kAct, in.unit,
                         UnitBytesOrZero(options.act_bytes, in.unit), i);
          }
        } else if (in.phase == Phase::kBackward) {
          if (in.seg == Seg::kRootHead) {
            close(head_open, i);
            head_open = -1;
          } else {
            if (l.grad < 0) {
              l.grad = open(BufKind::kGrad, in.unit,
                            UnitBytesOrZero(options.grad_bytes, in.unit), i);
            }
            if (in.seg == Seg::kMain) {
              // Checkpoint rematerialization: transient within this compute.
              close(open(BufKind::kRecompute, in.unit,
                         UnitBytesOrZero(options.recompute_bytes, in.unit),
                         i),
                    i);
            }
          }
        }
        break;
      }
      case Op::kReshard: {
        if (in.unit < 0 || in.retain) break;
        Live& l = live[static_cast<size_t>(in.unit)];
        close(l.param, i);
        l.param = -1;
        break;
      }
      case Op::kFreeGrad: {
        if (in.unit < 0) break;
        Live& l = live[static_cast<size_t>(in.unit)];
        close(l.grad, i);
        l.grad = -1;
        break;
      }
      case Op::kFreeAct: {
        if (in.unit < 0) break;
        Live& l = live[static_cast<size_t>(in.unit)];
        close(l.act, i);
        l.act = -1;
        break;
      }
      default:
        break;
    }
  }

  // ---- first-fit interval packing above the persistent base region ----
  ArenaPlan out;
  out.persistent_bytes = RoundUp(options.persistent_bytes);
  out.total_bytes = out.persistent_bytes;
  struct Active {
    int64_t offset = 0, bytes = 0;
    int close_at = 0;
  };
  std::vector<Active> active;  // sorted by offset
  for (ArenaAssignment& a : ivals) {
    // Expire intervals strictly closed before this open point (a buffer
    // freed at instruction i may not serve an allocation at i — the
    // interpreter frees after the instruction's own allocations).
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](const Active& x) {
                                  return x.close_at < a.open_at;
                                }),
                 active.end());
    int64_t cursor = out.persistent_bytes;
    int64_t offset = -1;
    for (const Active& x : active) {
      if (x.offset - cursor >= a.bytes) {
        offset = cursor;
        break;
      }
      cursor = std::max(cursor, x.offset + x.bytes);
    }
    if (offset < 0) offset = cursor;
    a.offset = offset;
    Active na{offset, a.bytes, a.close_at};
    active.insert(std::upper_bound(active.begin(), active.end(), na,
                                   [](const Active& l, const Active& r) {
                                     return l.offset < r.offset;
                                   }),
                  na);
    out.total_bytes = std::max(out.total_bytes, offset + a.bytes);
  }
  out.assignments = std::move(ivals);
  return out;
}

}  // namespace fsdp::plan
