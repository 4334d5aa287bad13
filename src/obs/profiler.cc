#include "obs/profiler.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>

#include "obs/metrics.h"

namespace fsdp::obs {

namespace {

std::string UnitName(const plan::Instr& instr,
                     const std::vector<std::string>& names) {
  if (instr.unit < 0 || instr.unit >= static_cast<int>(names.size())) {
    return "";
  }
  return names[instr.unit];
}

// ---------------------------------------------------------------------------
// Interval arithmetic for the exposed-communication computation.

using Interval = std::pair<double, double>;

std::vector<Interval> UnionOf(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

double TotalLength(const std::vector<Interval>& v) {
  double t = 0;
  for (const Interval& iv : v) t += iv.second - iv.first;
  return t;
}

/// Length of [a, b] not covered by the (disjoint, sorted) union `cover`.
double UncoveredLength(double a, double b, const std::vector<Interval>& cover) {
  double exposed = b - a;
  for (const Interval& iv : cover) {
    const double lo = std::max(a, iv.first);
    const double hi = std::min(b, iv.second);
    if (hi > lo) exposed -= hi - lo;
  }
  return std::max(0.0, exposed);
}

/// A \ B for disjoint sorted unions.
std::vector<Interval> Subtract(const std::vector<Interval>& a,
                               const std::vector<Interval>& b) {
  std::vector<Interval> out;
  for (Interval iv : a) {
    double lo = iv.first;
    for (const Interval& cut : b) {
      if (cut.second <= lo) continue;
      if (cut.first >= iv.second) break;
      if (cut.first > lo) out.emplace_back(lo, cut.first);
      lo = std::max(lo, cut.second);
      if (lo >= iv.second) break;
    }
    if (lo < iv.second) out.emplace_back(lo, iv.second);
  }
  return out;
}

bool IsCommOp(plan::Op op) {
  return op == plan::Op::kUnshard || op == plan::Op::kReduceGrad ||
         op == plan::Op::kAllReduceReplicas;
}

// ---------------------------------------------------------------------------
// Derived analysis: exposed comm, lane utilization, critical path.

void AnalyzeStep(StepProfile& step) {
  double t0 = 0, t1 = 0;
  bool any = false;
  std::vector<Interval> compute_ivs, wait_ivs;
  for (const InstrProfile& p : step.instrs) {
    if (!p.matched) continue;
    if (!any) {
      t0 = p.t_begin_us;
      t1 = p.t_end_us;
      any = true;
    } else {
      t0 = std::min(t0, p.t_begin_us);
      t1 = std::max(t1, p.t_end_us);
    }
    if (p.instr.op == plan::Op::kCompute) {
      compute_ivs.emplace_back(p.t_begin_us, p.t_end_us);
    } else if (p.instr.op == plan::Op::kWaitUnshard ||
               p.instr.op == plan::Op::kWaitReduceGrad) {
      wait_ivs.emplace_back(p.t_begin_us, p.t_end_us);
    }
  }
  if (!any) return;
  step.t_begin_us = t0;
  step.t_end_us = t1;
  step.step_us = t1 - t0;

  // Busy compute = union of compute spans minus the rank thread's collective
  // waits (the root span covers the whole pass, including time spent
  // blocked; subtracting the waits keeps overlap accounting honest).
  const std::vector<Interval> busy =
      Subtract(UnionOf(compute_ivs), UnionOf(wait_ivs));
  step.compute_busy_us = TotalLength(busy);

  double runtime_busy = 0;
  for (InstrProfile& p : step.instrs) {
    if (!p.matched) continue;
    if (IsCommOp(p.instr.op)) {
      step.comm_busy_us += p.service_us;
      p.exposed_us = UncoveredLength(p.t_exec_us, p.t_end_us, busy);
      step.exposed_comm_us += p.exposed_us;
    } else if (p.instr.op != plan::Op::kCompute) {
      runtime_busy += p.duration_us();
    }
  }
  step.overlap_efficiency =
      step.comm_busy_us > 0
          ? std::clamp(1.0 - step.exposed_comm_us / step.comm_busy_us, 0.0,
                       1.0)
          : 1.0;
  const double span = std::max(step.step_us, 1e-9);
  step.lanes = {
      {"compute", step.compute_busy_us, step.compute_busy_us / span},
      {"comm", step.comm_busy_us, step.comm_busy_us / span},
      {"runtime", runtime_busy, runtime_busy / span},
  };

  // --- critical path ---------------------------------------------------
  // Structural predecessor edges over the matched instructions, then a
  // backward walk from the last-finishing node always taking the
  // predecessor that finished last: the binding chain of the step.
  const int n = static_cast<int>(step.instrs.size());
  auto latest_before = [&](int i, auto pred) {
    for (int j = i - 1; j >= 0; --j) {
      if (step.instrs[j].matched && pred(j)) return j;
    }
    return -1;
  };
  std::vector<std::vector<int>> preds(n);
  for (int i = 0; i < n; ++i) {
    const InstrProfile& p = step.instrs[i];
    if (!p.matched) continue;
    const bool comm = IsCommOp(p.instr.op);
    // Stream-order edge within the lane (comm queue / rank thread).
    const int stream_prev = latest_before(
        i, [&](int j) { return IsCommOp(step.instrs[j].instr.op) == comm; });
    if (stream_prev >= 0) preds[i].push_back(stream_prev);
    // A collective starts only after the rank thread issued it.
    if (comm) {
      const int issuer = latest_before(
          i, [&](int j) { return !IsCommOp(step.instrs[j].instr.op); });
      if (issuer >= 0) preds[i].push_back(issuer);
    }
    // The latest earlier instruction of the same unit matching `op_ok`.
    auto same_unit = [&](auto op_ok) {
      return latest_before(i, [&](int k) {
        const plan::Instr& q = step.instrs[k].instr;
        return q.unit == p.instr.unit && op_ok(q.op, q.phase);
      });
    };
    int dep = -1;
    switch (p.instr.op) {
      case plan::Op::kWaitUnshard:
        dep = same_unit([](plan::Op op, plan::Phase) {
          return op == plan::Op::kUnshard;
        });
        break;
      case plan::Op::kCompute:
        dep = same_unit([](plan::Op op, plan::Phase) {
          return op == plan::Op::kWaitUnshard || op == plan::Op::kUnshard;
        });
        break;
      case plan::Op::kReduceGrad:
        dep = same_unit([](plan::Op op, plan::Phase phase) {
          return op == plan::Op::kCompute && phase == plan::Phase::kBackward;
        });
        break;
      case plan::Op::kAllReduceReplicas:
        dep = same_unit([](plan::Op op, plan::Phase) {
          return op == plan::Op::kReduceGrad;
        });
        break;
      case plan::Op::kWaitReduceGrad:
        for (int j = 0; j < i; ++j) {
          const plan::Instr& q = step.instrs[j].instr;
          if (!step.instrs[j].matched) continue;
          if (q.op != plan::Op::kReduceGrad &&
              q.op != plan::Op::kAllReduceReplicas) {
            continue;
          }
          if (p.instr.unit >= 0 && q.unit != p.instr.unit) continue;
          preds[i].push_back(j);
        }
        break;
      default:
        break;
    }
    if (dep >= 0) preds[i].push_back(dep);
  }
  int cur = -1;
  for (int i = 0; i < n; ++i) {
    if (!step.instrs[i].matched) continue;
    if (cur < 0 || step.instrs[i].t_end_us > step.instrs[cur].t_end_us) {
      cur = i;
    }
  }
  std::set<int> visited;
  std::vector<int> chain;
  while (cur >= 0 && !visited.count(cur)) {
    visited.insert(cur);
    chain.push_back(cur);
    int binding = -1;
    for (int j : preds[cur]) {
      if (visited.count(j)) continue;
      if (binding < 0 ||
          step.instrs[j].t_end_us > step.instrs[binding].t_end_us) {
        binding = j;
      }
    }
    cur = binding;
  }
  std::reverse(chain.begin(), chain.end());
  step.critical_path = chain;
  for (int i : chain) {
    InstrProfile& p = step.instrs[i];
    p.on_critical_path = true;
    step.critical_path_us += IsCommOp(p.instr.op) ? p.service_us
                                                  : p.duration_us();
  }
}

// One signed change of unsharded-parameter residency.
struct MemPoint {
  double t_us = 0;
  int64_t delta = 0;
  std::string unit;
};

std::vector<MemPoint> ResidencyPoints(const std::vector<StepProfile>& steps) {
  std::vector<MemPoint> points;
  std::map<std::string, int64_t> unit_bytes;
  for (const StepProfile& step : steps) {
    for (const InstrProfile& p : step.instrs) {
      if (!p.matched) continue;
      const std::string name = UnitName(p.instr, step.unit_names);
      if (p.instr.op == plan::Op::kUnshard && p.resident_bytes > 0) {
        unit_bytes[name] = p.resident_bytes;
        points.push_back({p.t_end_us, p.resident_bytes, name});
      } else if (p.instr.op == plan::Op::kReshard && unit_bytes.count(name)) {
        points.push_back({p.t_begin_us, -unit_bytes[name], name});
      }
    }
  }
  std::stable_sort(points.begin(), points.end(),
                   [](const MemPoint& a, const MemPoint& b) {
                     return a.t_us < b.t_us;
                   });
  return points;
}

/// Per-step peak residency (with carry-in from earlier steps) and the units
/// resident at the peak.
void AttributeMemory(std::vector<StepProfile>& steps) {
  const std::vector<MemPoint> points = ResidencyPoints(steps);
  for (StepProfile& step : steps) {
    int64_t level = 0, peak = 0;
    std::set<std::string> resident, at_peak;
    auto note_peak = [&](double t) {
      if (t >= step.t_begin_us && t <= step.t_end_us && level >= peak) {
        peak = level;
        at_peak = resident;
      }
    };
    note_peak(step.t_begin_us);  // carry-in counts if nothing moves in-step
    for (const MemPoint& pt : points) {
      if (pt.t_us > step.t_end_us) break;
      level += pt.delta;
      if (pt.delta > 0) {
        resident.insert(pt.unit);
      } else {
        resident.erase(pt.unit);
      }
      if (pt.t_us < step.t_begin_us) {
        if (level > peak) {  // carry-in level at step start
          peak = level;
          at_peak = resident;
        }
        continue;
      }
      note_peak(pt.t_us);
    }
    step.peak_unsharded_bytes = peak;
    step.peak_units.assign(at_peak.begin(), at_peak.end());
  }
}

double Pct(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      std::min<double>(sorted.size() - 1,
                       std::max(0.0, p / 100.0 * sorted.size() - 0.5)));
  return sorted[idx];
}

/// One log entry as a profile row: times and bytes straight from the log.
InstrProfile FromEntry(const plan::ExecEntry& e,
                       const std::vector<std::string>& names) {
  InstrProfile p;
  p.instr = e.instr;
  p.label = plan::RenderInstr(e.instr, names);
  p.matched = e.t_end_us > 0;
  if (!p.matched) return p;
  p.matched_kind = e.kind;
  p.t_begin_us = e.t_begin_us;
  p.t_end_us = e.t_end_us;
  p.t_exec_us = e.t_exec_us > 0 ? e.t_exec_us : e.t_begin_us;
  p.bytes = e.bytes;
  p.resident_bytes = e.resident_bytes;
  p.queue_us = std::max(0.0, p.t_exec_us - p.t_begin_us);
  p.service_us = std::max(0.0, p.t_end_us - p.t_exec_us);
  return p;
}

}  // namespace

std::vector<StepProfile> BuildStepProfiles(const ProfileInputs& in) {
  std::vector<StepProfile> steps;
  StepProfile cur;
  cur.unit_names = in.unit_names;
  for (size_t i = 0; i < in.entries.size(); ++i) {
    cur.instrs.push_back(FromEntry(in.entries[i], in.unit_names));
    const bool step_end =
        in.entries[i].instr.op == plan::Op::kWaitReduceGrad &&
        (i + 1 >= in.entries.size() ||
         in.entries[i + 1].instr.op != plan::Op::kWaitReduceGrad);
    if (step_end) {
      steps.push_back(std::move(cur));
      cur = StepProfile();
      cur.unit_names = in.unit_names;
    }
  }
  if (!cur.instrs.empty()) steps.push_back(std::move(cur));

  for (StepProfile& step : steps) {
    AnalyzeStep(step);
    const bool finished =
        std::all_of(step.instrs.begin(), step.instrs.end(),
                    [](const InstrProfile& p) { return p.matched; });
    step.complete = finished && in.status.ok();
    if (!in.status.ok()) {
      step.incomplete_reason = "runtime error: " + in.status.message();
    } else if (!finished) {
      step.incomplete_reason = "step still in flight";
    }
  }
  AttributeMemory(steps);
  return steps;
}

ProfileAggregate AggregateProfiles(const std::vector<StepProfile>& steps) {
  ProfileAggregate agg;
  agg.steps = static_cast<int>(steps.size());
  std::vector<double> step_us, crit_us;
  double overlap_sum = 0;
  struct Acc {
    std::vector<double> dur, queue, exposed;
    int critical_hits = 0;
  };
  std::map<std::string, Acc> by_label;
  for (const StepProfile& step : steps) {
    if (!step.complete) continue;
    ++agg.complete_steps;
    step_us.push_back(step.step_us);
    crit_us.push_back(step.critical_path_us);
    overlap_sum += step.overlap_efficiency;
    for (const InstrProfile& p : step.instrs) {
      if (!p.matched) continue;
      Acc& a = by_label[p.label];
      a.dur.push_back(IsCommOp(p.instr.op) ? p.service_us : p.duration_us());
      a.queue.push_back(p.queue_us);
      a.exposed.push_back(p.exposed_us);
      if (p.on_critical_path) ++a.critical_hits;
    }
  }
  std::sort(step_us.begin(), step_us.end());
  std::sort(crit_us.begin(), crit_us.end());
  agg.step_p50_us = Pct(step_us, 50);
  agg.step_p95_us = Pct(step_us, 95);
  agg.critical_path_p50_us = Pct(crit_us, 50);
  agg.overlap_efficiency_mean =
      agg.complete_steps > 0 ? overlap_sum / agg.complete_steps : 1.0;
  for (auto& [label, a] : by_label) {
    InstrStats s;
    s.label = label;
    s.count = static_cast<int>(a.dur.size());
    for (double d : a.dur) {
      s.total_us += d;
      s.max_us = std::max(s.max_us, d);
    }
    s.mean_us = s.count > 0 ? s.total_us / s.count : 0;
    std::sort(a.dur.begin(), a.dur.end());
    std::sort(a.queue.begin(), a.queue.end());
    std::sort(a.exposed.begin(), a.exposed.end());
    s.p50_us = Pct(a.dur, 50);
    s.p95_us = Pct(a.dur, 95);
    s.queue_p50_us = Pct(a.queue, 50);
    s.exposed_p50_us = Pct(a.exposed, 50);
    s.critical_hits = a.critical_hits;
    agg.instrs.push_back(std::move(s));
  }
  std::stable_sort(agg.instrs.begin(), agg.instrs.end(),
                   [](const InstrStats& a, const InstrStats& b) {
                     return a.total_us > b.total_us;
                   });
  return agg;
}

void PublishProfileMetrics(const std::vector<StepProfile>& steps) {
  auto& reg = MetricsRegistry::Get();
  for (const StepProfile& step : steps) {
    reg.GetCounter("prof.steps").Add(1);
    if (!step.complete) {
      reg.GetCounter("prof.incomplete_steps").Add(1);
      continue;
    }
    reg.GetHistogram("prof.step.us").Observe(step.step_us);
    reg.GetHistogram("prof.critical_path.us").Observe(step.critical_path_us);
    reg.GetHistogram("prof.exposed_comm.us").Observe(step.exposed_comm_us);
    reg.GetHistogram("prof.overlap_efficiency")
        .Observe(step.overlap_efficiency);
  }
}

std::vector<CounterTrack> ProfileCounterTracks(
    const std::vector<StepProfile>& steps, int rank) {
  CounterTrack mem{"unsharded_bytes", rank, {}};
  int64_t level = 0;
  for (const MemPoint& pt : ResidencyPoints(steps)) {
    level += pt.delta;
    mem.samples.push_back({pt.t_us, static_cast<double>(level)});
  }
  CounterTrack inflight{"inflight_collectives", rank, {}};
  std::vector<std::pair<double, int>> edges;
  for (const StepProfile& step : steps) {
    for (const InstrProfile& p : step.instrs) {
      if (!p.matched || !IsCommOp(p.instr.op)) continue;
      edges.emplace_back(p.t_begin_us, 1);
      edges.emplace_back(p.t_end_us, -1);
    }
  }
  std::sort(edges.begin(), edges.end());
  int count = 0;
  for (const auto& [t, d] : edges) {
    count += d;
    inflight.samples.push_back({t, static_cast<double>(count)});
  }
  return {mem, inflight};
}

Result<std::string> WriteProfileJson(const std::string& name,
                                     const std::vector<StepProfile>& steps,
                                     const ArtifactMeta& meta) {
  const ProfileAggregate agg = AggregateProfiles(steps);
  JsonWriter w;
  w.BeginObject().Key("profile").String(name);
  WriteArtifactEnvelope(w, meta);
  w.Key("aggregate").BeginObject();
  w.Key("steps").Int(agg.steps).Key("complete_steps").Int(agg.complete_steps);
  w.Key("step_p50_us").Double(agg.step_p50_us);
  w.Key("step_p95_us").Double(agg.step_p95_us);
  w.Key("critical_path_p50_us").Double(agg.critical_path_p50_us);
  w.Key("overlap_efficiency_mean").Double(agg.overlap_efficiency_mean);
  w.Key("instrs").BeginArray();
  for (const InstrStats& s : agg.instrs) {
    w.BeginObject().Key("label").String(s.label).Key("count").Int(s.count);
    w.Key("mean_us").Double(s.mean_us).Key("p50_us").Double(s.p50_us);
    w.Key("p95_us").Double(s.p95_us).Key("max_us").Double(s.max_us);
    w.Key("total_us").Double(s.total_us);
    w.Key("queue_p50_us").Double(s.queue_p50_us);
    w.Key("exposed_p50_us").Double(s.exposed_p50_us);
    w.Key("critical_hits").Int(s.critical_hits);
    w.EndObject();
  }
  w.EndArray().EndObject().Key("steps").BeginArray();
  for (const StepProfile& step : steps) {
    w.BeginObject().Key("complete").Bool(step.complete);
    w.Key("incomplete_reason").String(step.incomplete_reason);
    w.Key("step_us").Double(step.step_us);
    w.Key("overlap_efficiency").Double(step.overlap_efficiency);
    w.Key("exposed_comm_us").Double(step.exposed_comm_us);
    w.Key("critical_path_us").Double(step.critical_path_us);
    w.Key("critical_path").BeginArray();
    for (int k : step.critical_path) w.String(step.instrs[k].label);
    w.EndArray().Key("peak_unsharded_bytes").Int(step.peak_unsharded_bytes);
    w.Key("peak_units").BeginArray();
    for (const std::string& unit : step.peak_units) w.String(unit);
    w.EndArray().Key("lanes").BeginArray();
    for (const LaneUsage& lane : step.lanes) {
      w.BeginObject().Key("lane").String(lane.lane);
      w.Key("busy_us").Double(lane.busy_us);
      w.Key("utilization").Double(lane.utilization).EndObject();
    }
    w.EndArray().Key("instrs").BeginArray();
    for (const InstrProfile& p : step.instrs) {
      w.BeginObject().Key("label").String(p.label);
      w.Key("matched").Bool(p.matched);
      w.Key("t_begin_us").Double(p.t_begin_us);
      w.Key("t_end_us").Double(p.t_end_us);
      w.Key("queue_us").Double(p.queue_us);
      w.Key("service_us").Double(p.service_us);
      w.Key("exposed_us").Double(p.exposed_us);
      w.Key("bytes").Int(p.bytes).Key("resident_bytes").Int(p.resident_bytes);
      w.Key("critical").Bool(p.on_critical_path).EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();

  const std::string path = ArtifactPath("PROFILE_" + name + ".json");
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  file << w.str() << "\n";
  if (!file) return Status::IOError("write failed for " + path);
  return path;
}

}  // namespace fsdp::obs
