#include "tune/tuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/json.h"

namespace fsdp::tune {

namespace {

/// Score-comparison epsilon (us): ties within it fall through to the next
/// criterion, ending at the candidate Key — full determinism.
constexpr double kEps = 1e-6;

/// Simulator iterations in the successive-halving rung (short, ranking-only
/// sims); finalists re-run at the full TuneInputs::base.iterations depth.
constexpr int kRungIters = 1;
/// Fraction of the pool the rung keeps (at least 1 survives).
constexpr double kKeepFrac = 0.5;
/// Cap on the lb-sorted pool entering the rung; candidates beyond it are
/// skipped (counted, reachable again through mutation around the winner).
constexpr size_t kMaxPool = 64;
/// Hill-climbing rounds around the incumbent after the grid stage.
constexpr int kMutationRounds = 2;
/// Neighbors scored per mutation round (Rng-sampled when more exist).
constexpr size_t kMaxNeighbors = 12;

struct Score {
  bool valid = false;
  bool oom = true;
  double iter = 0;
  double exposed = 0;
  std::string key;
};

Score ToScore(const TuneCandidate& c, const simfsdp::SimMetrics& m) {
  Score s;
  s.valid = true;
  s.oom = m.oom;
  s.iter = m.iter_time_us;
  s.exposed = m.exposed_comm_us;
  s.key = c.Key();
  return s;
}

/// Strict weak order: primary iteration time, then exposed comm, then the
/// canonical key (so equal-cost candidates rank deterministically).
bool Better(const Score& a, const Score& b) {
  if (a.valid != b.valid) return a.valid;
  if (!a.valid) return false;
  if (a.oom != b.oom) return !a.oom;
  if (a.iter < b.iter - kEps) return true;
  if (a.iter > b.iter + kEps) return false;
  if (a.exposed < b.exposed - kEps) return true;
  if (a.exposed > b.exposed + kEps) return false;
  return a.key < b.key;
}

}  // namespace

TuneReport Autotune(const TuneInputs& in0, const SearchSpace& space,
                    const TuneOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  TuneInputs in = in0;
  // One memory predicate everywhere: the envelope checks against capacity,
  // and the scoring simulator's HBM is set to the same capacity.
  if (in.capacity_bytes <= 0) in.capacity_bytes = in.constants.hbm_bytes;
  in.constants.hbm_bytes = in.capacity_bytes;
  const int full_iters = std::max(1, in.base.iterations);

  TuneReport rep;
  std::vector<CandidateOutcome> outcomes;
  auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  auto budget_gone = [&] {
    return opt.time_budget_ms > 0 && elapsed_ms() >= opt.time_budget_ms;
  };
  auto simulate = [&](const CompiledCandidate& cc,
                      int iters) -> simfsdp::SimMetrics {
    if (opt.sim_observer) opt.sim_observer(cc.cand, iters);
    ++rep.counts.sim_runs;
    simfsdp::FsdpSimConfig cfg = cc.config;
    cfg.iterations = iters;
    return simfsdp::FsdpSimulator(cc.workload, in.topo, in.constants, cfg,
                                  cc.plan)
        .Run();
  };

  // One-entry memo of the last lowered schedule. The grid varies the
  // compiler budgets fastest, so runs of consecutive candidates share one
  // workload, config and unoptimized plan; only the passes differ.
  std::optional<TuneCandidate> lowered_for;
  Status lowered_status;
  CompiledCandidate lowered;
  auto compile = [&](const TuneCandidate& c, CompiledCandidate* cc) {
    if (!lowered_for || !lowered_for->SameSchedule(c)) {
      lowered_for = c;
      lowered_status = LowerSchedule(c, in, &lowered);
    }
    if (!lowered_status.ok()) return lowered_status;
    *cc = lowered;
    CompileBudgets(c, cc);
    return Status::OK();
  };

  std::optional<CompiledCandidate> best_cc;
  simfsdp::SimMetrics best_metrics;
  Envelope best_env;
  Score best_score;
  Score best_preset_score;
  auto offer_best = [&](const CompiledCandidate& cc, const Envelope& env,
                        const simfsdp::SimMetrics& m) {
    const Score sc = ToScore(cc.cand, m);
    if (Better(sc, best_score)) {
      best_score = sc;
      best_cc = cc;
      best_metrics = m;
      best_env = env;
      return true;
    }
    return false;
  };
  /// True once a real (non-OOM) time bounds the search from above.
  auto have_bound = [&] { return best_score.valid && !best_score.oom; };

  std::set<std::string> seen;  // keys mutation must not revisit

  // ---- stage 1: hand-tuned presets, fully scored ----
  const std::vector<TuneCandidate> presets = HandTunedPresets(in.topo);
  rep.counts.presets = static_cast<int64_t>(presets.size());
  for (const TuneCandidate& p : presets) {
    CandidateOutcome out;
    out.cand = p;
    out.stage = "preset";
    CompiledCandidate cc;
    if (Status s = compile(p, &cc); !s.ok()) {
      out.pruned = "invalid";
      outcomes.push_back(std::move(out));
      continue;
    }
    seen.insert(p.Key());
    out.env = ComputeEnvelope(cc, in);
    if (!out.env.memory_feasible) {
      out.pruned = "memory";
      outcomes.push_back(std::move(out));
      continue;
    }
    const simfsdp::SimMetrics m = simulate(cc, full_iters);
    out.simulated = true;
    out.sim_iterations = full_iters;
    out.full_score = true;
    out.metrics = m;
    const Score sc = ToScore(p, m);
    if (!m.oom && Better(sc, best_preset_score)) {
      best_preset_score = sc;
      rep.best_preset = p.name;
      rep.best_preset_metrics = m;
    }
    offer_best(cc, out.env, m);
    outcomes.push_back(std::move(out));
  }

  // ---- stage 2: the raw grid — compile, envelope-prune, then halve ----
  const std::vector<TuneCandidate> grid = EnumerateCandidates(space);
  rep.counts.raw_candidates = static_cast<int64_t>(grid.size());
  struct PoolEntry {
    CompiledCandidate cc;
    Envelope env;
    size_t out_idx = 0;
    Score rung;
  };
  std::vector<PoolEntry> pool;
  for (const TuneCandidate& g : grid) {
    CandidateOutcome out;
    out.cand = g;
    out.stage = "grid";
    if (budget_gone()) {
      rep.budget_exhausted = true;
      out.pruned = "budget";
      outcomes.push_back(std::move(out));
      continue;
    }
    CompiledCandidate cc;
    if (Status s = compile(g, &cc); !s.ok()) {
      out.pruned = "invalid";
      seen.insert(g.Key());
      outcomes.push_back(std::move(out));
      continue;
    }
    out.env = ComputeEnvelope(cc, in);
    if (!out.env.memory_feasible) {
      out.pruned = "memory";
      seen.insert(g.Key());
      outcomes.push_back(std::move(out));
      continue;
    }
    if (have_bound() && out.env.step_lb_us >= best_score.iter - kEps) {
      // The lower bound cannot beat an already-simulated time; the true
      // simulated time of this candidate is >= its bound, so it cannot win.
      out.pruned = "bound";
      seen.insert(g.Key());
      outcomes.push_back(std::move(out));
      continue;
    }
    seen.insert(g.Key());
    outcomes.push_back(out);
    pool.push_back(PoolEntry{std::move(cc), out.env, outcomes.size() - 1, {}});
  }

  // Most-promising-first: analytic lower bound, key as tie-break.
  std::stable_sort(pool.begin(), pool.end(),
                   [](const PoolEntry& a, const PoolEntry& b) {
                     if (a.env.step_lb_us != b.env.step_lb_us) {
                       return a.env.step_lb_us < b.env.step_lb_us;
                     }
                     return a.cc.cand.Key() < b.cc.cand.Key();
                   });
  if (pool.size() > kMaxPool) {
    for (size_t i = kMaxPool; i < pool.size(); ++i) {
      outcomes[pool[i].out_idx].pruned = "pool";
      seen.erase(pool[i].cc.cand.Key());  // mutation may revisit
    }
    pool.resize(kMaxPool);
  }

  // Successive halving: one rung of short ranking sims keeps kKeepFrac.
  bool out_of_time = false;
  if (pool.size() > 1) {
    for (PoolEntry& e : pool) {
      if (budget_gone()) {
        out_of_time = true;
        break;
      }
      const simfsdp::SimMetrics m = simulate(e.cc, kRungIters);
      e.rung = ToScore(e.cc.cand, m);
      CandidateOutcome& out = outcomes[e.out_idx];
      out.simulated = true;
      out.sim_iterations = kRungIters;
      out.metrics = m;
    }
    if (!out_of_time) {
      std::stable_sort(pool.begin(), pool.end(),
                       [](const PoolEntry& a, const PoolEntry& b) {
                         return Better(a.rung, b.rung);
                       });
      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(pool.size() * kKeepFrac)));
      for (size_t i = keep; i < pool.size(); ++i) {
        outcomes[pool[i].out_idx].pruned = "halving";
      }
      pool.resize(keep);
    }
  }

  // Finalists at full depth.
  for (PoolEntry& e : pool) {
    if (out_of_time || budget_gone()) {
      out_of_time = true;
      if (!outcomes[e.out_idx].simulated) {
        outcomes[e.out_idx].pruned = "budget";
      }
      continue;
    }
    const simfsdp::SimMetrics m = simulate(e.cc, full_iters);
    CandidateOutcome& out = outcomes[e.out_idx];
    out.simulated = true;
    out.sim_iterations = full_iters;
    out.full_score = true;
    out.metrics = m;
    offer_best(e.cc, e.env, m);
  }
  if (out_of_time) rep.budget_exhausted = true;

  // ---- stage 3: local mutation around the incumbent ----
  for (int round = 0; best_cc && round < kMutationRounds; ++round) {
    if (budget_gone()) {
      rep.budget_exhausted = true;
      break;
    }
    std::vector<TuneCandidate> neighbors;
    for (TuneCandidate& nb : NeighborCandidates(space, best_cc->cand)) {
      if (!seen.count(nb.Key())) neighbors.push_back(std::move(nb));
    }
    if (neighbors.size() > kMaxNeighbors) {
      // Deterministic partial Fisher-Yates draw of kMaxNeighbors.
      Rng rng(opt.seed, static_cast<uint64_t>(round) + 1);
      for (size_t i = 0; i < kMaxNeighbors; ++i) {
        const size_t j = i + rng.NextBelow(neighbors.size() - i);
        std::swap(neighbors[i], neighbors[j]);
      }
      neighbors.resize(kMaxNeighbors);
    }
    bool improved = false;
    for (const TuneCandidate& nb : neighbors) {
      if (budget_gone()) {
        rep.budget_exhausted = true;
        break;
      }
      CandidateOutcome out;
      out.cand = nb;
      out.stage = "mutation";
      seen.insert(nb.Key());
      CompiledCandidate cc;
      if (Status s = compile(nb, &cc); !s.ok()) {
        out.pruned = "invalid";
        outcomes.push_back(std::move(out));
        continue;
      }
      out.env = ComputeEnvelope(cc, in);
      if (!out.env.memory_feasible) {
        out.pruned = "memory";
        outcomes.push_back(std::move(out));
        continue;
      }
      if (have_bound() && out.env.step_lb_us >= best_score.iter - kEps) {
        out.pruned = "bound";
        outcomes.push_back(std::move(out));
        continue;
      }
      const simfsdp::SimMetrics m = simulate(cc, full_iters);
      out.simulated = true;
      out.sim_iterations = full_iters;
      out.full_score = true;
      out.metrics = m;
      if (offer_best(cc, out.env, m)) improved = true;
      outcomes.push_back(std::move(out));
    }
    if (!improved) break;
  }

  // ---- report ----
  for (const CandidateOutcome& o : outcomes) {
    if (o.simulated) ++rep.counts.simulated;
    if (o.stage != "grid") continue;
    if (o.pruned == "invalid") ++rep.counts.invalid;
    if (o.pruned == "memory") ++rep.counts.memory_pruned;
    if (o.pruned == "bound") ++rep.counts.bound_pruned;
    if (o.pruned == "pool") ++rep.counts.pool_skipped;
    if (o.pruned == "budget") ++rep.counts.budget_skipped;
  }
  rep.found = best_score.valid && !best_score.oom;
  if (best_cc) {
    rep.winner = *best_cc;
    rep.winner_metrics = best_metrics;
    rep.winner_env = best_env;
  }
  rep.search_ms = elapsed_ms();
  rep.outcomes = std::move(outcomes);
  return rep;
}

std::string RuntimeKnobs::Describe() const {
  std::ostringstream out;
  out << "F=" << sharding_factor
      << (reshard_after_forward ? " reshard-fwd" : " keep-after-fwd")
      << (backward_prefetch ? " bwd-prefetch" : " no-bwd-prefetch");
  if (forward_prefetch) out << " fwd-prefetch";
  out << " limiter=" << limit_all_gathers
      << " wrap=" << wrap_blocks_per_unit;
  if (pass_options.fuse_below_bytes > 0) {
    out << " fuse<" << (pass_options.fuse_below_bytes >> 20) << "MiB";
  }
  if (pass_options.max_hoist_computes > 0) {
    out << " hoist=" << pass_options.max_hoist_computes;
  }
  if (pass_options.max_sink_computes > 0) {
    out << " sink=" << pass_options.max_sink_computes;
  }
  return out.str();
}

RuntimeKnobs ToRuntimeKnobs(const CompiledCandidate& cc,
                            const sim::Topology& topo) {
  RuntimeKnobs k;
  k.sharding_factor = cc.config.sharding_factor <= 0
                          ? topo.world()
                          : cc.config.sharding_factor;
  k.reshard_after_forward = cc.config.reshard_after_forward;
  k.backward_prefetch = cc.config.backward_prefetch;
  k.forward_prefetch = cc.config.forward_prefetch;
  k.limit_all_gathers = cc.config.limit_all_gathers;
  k.wrap_blocks_per_unit = cc.cand.wrap_blocks_per_unit;
  k.pass_options = cc.pass_options;
  k.sim_config = cc.config;
  return k;
}

namespace {

void CandidateJson(obs::JsonWriter& w, const TuneCandidate& c) {
  w.BeginObject().Key("key").String(c.Key());
  if (!c.name.empty()) w.Key("name").String(c.name);
  w.Key("backward_prefetch").Bool(c.backward_prefetch);
  w.Key("forward_prefetch").Bool(c.forward_prefetch);
  w.Key("limit_all_gathers").Int(c.limit_all_gathers);
  w.Key("sharding_factor").Int(c.sharding_factor);
  w.Key("reshard_after_forward").Bool(c.reshard_after_forward);
  w.Key("wrap_blocks_per_unit").Int(c.wrap_blocks_per_unit);
  w.Key("fuse_below_bytes").Int(c.fuse_below_bytes);
  w.Key("max_hoist_computes").Int(c.max_hoist_computes);
  w.Key("max_sink_computes").Int(c.max_sink_computes);
  w.EndObject();
}

void MetricsJson(obs::JsonWriter& w, const simfsdp::SimMetrics& m) {
  w.BeginObject().Key("oom").Bool(m.oom);
  w.Key("iter_time_us").Double(m.iter_time_us);
  w.Key("exposed_comm_us").Double(m.exposed_comm_us);
  w.Key("tflops_per_gpu").Double(m.tflops_per_gpu);
  w.Key("peak_reserved").Int(m.peak_reserved);
  w.EndObject();
}

}  // namespace

std::string WriteTuneJson(const std::string& name, const TuneReport& rep,
                          const obs::ArtifactMeta& meta) {
  const std::string path = obs::ArtifactPath("TUNE_" + name + ".json");
  std::ofstream out(path);
  FSDP_CHECK_MSG(out.good(), "cannot open " << path);
  obs::JsonWriter w;
  w.BeginObject();
  obs::WriteArtifactEnvelope(w, meta);
  w.Key("name").String(name).Key("found").Bool(rep.found);
  if (rep.found) {
    w.Key("winner").BeginObject().Key("candidate");
    CandidateJson(w, rep.winner.cand);
    w.Key("describe").String(rep.winner.cand.Describe()).Key("metrics");
    MetricsJson(w, rep.winner_metrics);
    w.Key("step_lb_us").Double(rep.winner_env.step_lb_us);
    w.Key("peak_bytes").Int(rep.winner_env.peak_bytes).EndObject();
  }
  if (!rep.best_preset.empty()) {
    w.Key("best_preset").BeginObject().Key("name").String(rep.best_preset);
    w.Key("metrics");
    MetricsJson(w, rep.best_preset_metrics);
    w.EndObject();
  }
  const TuneCounts& c = rep.counts;
  w.Key("counts").BeginObject();
  w.Key("raw_candidates").Int(c.raw_candidates).Key("presets").Int(c.presets);
  w.Key("invalid").Int(c.invalid).Key("memory_pruned").Int(c.memory_pruned);
  w.Key("bound_pruned").Int(c.bound_pruned);
  w.Key("pool_skipped").Int(c.pool_skipped);
  w.Key("budget_skipped").Int(c.budget_skipped);
  w.Key("simulated").Int(c.simulated).Key("sim_runs").Int(c.sim_runs);
  w.EndObject().Key("budget_exhausted").Bool(rep.budget_exhausted);
  w.Key("search_ms").Double(rep.search_ms).Key("outcomes").BeginArray();
  for (const CandidateOutcome& o : rep.outcomes) {
    w.BeginObject().Key("key").String(o.cand.Key());
    w.Key("stage").String(o.stage).Key("pruned").String(o.pruned);
    w.Key("simulated").Bool(o.simulated);
    w.Key("step_lb_us").Double(o.env.step_lb_us);
    w.Key("peak_bytes").Int(o.env.peak_bytes);
    if (o.simulated) {
      w.Key("sim_iterations").Int(o.sim_iterations);
      w.Key("full_score").Bool(o.full_score);
      w.Key("iter_time_us").Double(o.metrics.iter_time_us);
      w.Key("exposed_comm_us").Double(o.metrics.exposed_comm_us);
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  out << w.str() << "\n";
  return path;
}

}  // namespace fsdp::tune
