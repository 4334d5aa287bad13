#include "plan/plan.h"

namespace fsdp::plan {

const char* OpName(Op op) {
  switch (op) {
    case Op::kRateLimitGate: return "GATE";
    case Op::kUnshard: return "UNSHARD";
    case Op::kWaitUnshard: return "WAIT_UNSHARD";
    case Op::kCompute: return "COMPUTE";
    case Op::kInputExchange: return "INPUT_EXCHANGE";
    case Op::kReduceGrad: return "REDUCE_GRAD";
    case Op::kAllReduceReplicas: return "ALLREDUCE_REPLICAS";
    case Op::kGradOffloadD2H: return "GRAD_D2H";
    case Op::kWaitReduceGrad: return "WAIT_REDUCE_GRAD";
    case Op::kReshard: return "RESHARD";
    case Op::kFreeGrad: return "FREE_GRAD";
    case Op::kFreeAct: return "FREE_ACT";
    case Op::kOptimStep: return "OPTIM_STEP";
    case Op::kTpAllGather: return "TP_AG";
    case Op::kTpAllReduce: return "TP_AR";
    case Op::kSendAct: return "SEND";
    case Op::kRecvAct: return "RECV";
  }
  return "?";
}

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kDp: return "dp";
    case Axis::kTp: return "tp";
    case Axis::kPp: return "pp";
  }
  return "?";
}

std::string LaneTrackName(const Instr& instr) {
  if (instr.lane != Lane::kComm || instr.axis == Axis::kDp) {
    return LaneName(instr.lane);
  }
  return std::string(LaneName(instr.lane)) + "." + AxisName(instr.axis);
}

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kCompute: return "compute";
    case Lane::kComm: return "comm";
    case Lane::kHost: return "host";
  }
  return "?";
}

obs::EventKind ToEventKind(Op op, Phase phase) {
  switch (op) {
    case Op::kUnshard: return obs::EventKind::kAllGather;
    case Op::kReduceGrad: return obs::EventKind::kReduceScatter;
    case Op::kAllReduceReplicas: return obs::EventKind::kAllReduce;
    case Op::kInputExchange: return obs::EventKind::kAllToAll;
    case Op::kCompute:
      return phase == Phase::kBackward ? obs::EventKind::kBackward
                                       : obs::EventKind::kForward;
    case Op::kReshard: return obs::EventKind::kReshard;
    case Op::kOptimStep: return obs::EventKind::kOptimStep;
    case Op::kGradOffloadD2H: return obs::EventKind::kD2H;
    case Op::kRateLimitGate: return obs::EventKind::kThrottle;
    case Op::kFreeGrad:
    case Op::kFreeAct: return obs::EventKind::kAlloc;
    case Op::kWaitUnshard:
    case Op::kWaitReduceGrad: return obs::EventKind::kWait;
    case Op::kTpAllGather: return obs::EventKind::kAllGather;
    case Op::kTpAllReduce: return obs::EventKind::kAllReduce;
    case Op::kSendAct: return obs::EventKind::kSend;
    case Op::kRecvAct: return obs::EventKind::kRecv;
  }
  return obs::EventKind::kMarker;
}

std::vector<int> CoveredUnits(const Instr& instr) {
  std::vector<int> units;
  if (instr.unit < 0) return units;
  units.reserve(instr.batch_units.size() + 1);
  units.push_back(instr.unit);
  units.insert(units.end(), instr.batch_units.begin(),
               instr.batch_units.end());
  return units;
}

std::string RenderInstr(const Instr& instr,
                        const std::vector<std::string>& names) {
  std::string label;
  if (instr.unit >= 0 && instr.unit < static_cast<int>(names.size())) {
    label = names[static_cast<size_t>(instr.unit)];
    for (int b : instr.batch_units) {
      label += "+";
      if (b >= 0 && b < static_cast<int>(names.size())) {
        label += names[static_cast<size_t>(b)];
      }
    }
  }
  if (instr.op == Op::kSendAct || instr.op == Op::kRecvAct) {
    // Point-to-point instructions render the stage pair plus direction, not
    // a unit: "SEND:fwd.s0>s1" is stage 0 handing its activation forward,
    // "RECV:bwd.s0<s1" is stage 0 taking the gradient back. Stable across
    // the builder, the executed log, and the replayer — the composed half
    // of the canonical "OP:unit" contract.
    const char* dir = instr.op == Op::kSendAct ? ">" : "<";
    label = std::string(instr.phase == Phase::kBackward ? "bwd" : "fwd") +
            ".s" + std::to_string(instr.stage) + dir + "s" +
            std::to_string(instr.peer_stage);
    return std::string(OpName(instr.op)) + ":" + label;
  }
  if (instr.op == Op::kCompute) {
    // Computes render by phase. The root prologue (kRootPre) renders as the
    // root unit itself — it is the simulator's half of what the functional
    // runtime executes as the single root compute — while the head epilogue
    // keeps a distinguishing suffix (and is excluded from the canonical
    // projection, which the runtime has no counterpart for).
    if (instr.seg == Seg::kRootHead) label += ".head";
    return std::string(instr.phase == Phase::kBackward ? "BWD" : "FWD") + ":" +
           label;
  }
  if (label.empty()) return OpName(instr.op);
  return std::string(OpName(instr.op)) + ":" + label;
}

bool IsCanonicalOp(Op op) {
  switch (op) {
    case Op::kUnshard:
    case Op::kWaitUnshard:
    case Op::kCompute:
    case Op::kReduceGrad:
    case Op::kAllReduceReplicas:
    case Op::kWaitReduceGrad:
    case Op::kReshard:
    case Op::kInputExchange:
    case Op::kTpAllGather:
    case Op::kTpAllReduce:
    case Op::kSendAct:
    case Op::kRecvAct:
      return true;
    default:
      return false;
  }
}

std::vector<std::string> CanonicalSchedule(
    const std::vector<Instr>& instrs, const std::vector<std::string>& names) {
  std::vector<std::string> out;
  out.reserve(instrs.size());
  for (const Instr& instr : instrs) {
    if (!IsCanonicalOp(instr.op)) continue;
    // Head-segment computes are a simulator-only decomposition of the root
    // unit (the runtime's root compute maps to the kRootPre/kMain segment).
    if (instr.op == Op::kCompute && instr.seg == Seg::kRootHead) continue;
    out.push_back(RenderInstr(instr, names));
  }
  return out;
}

std::vector<std::string> StepPlan::Canonical() const {
  return CanonicalSchedule(instrs, unit_names);
}

StepPlan FilterStage(const StepPlan& plan, int stage) {
  StepPlan out;
  out.unit_names = plan.unit_names;
  std::vector<int> remap(plan.instrs.size(), -1);
  for (size_t i = 0; i < plan.instrs.size(); ++i) {
    const Instr& instr = plan.instrs[i];
    if (stage >= 0 && instr.stage >= 0 && instr.stage != stage) continue;
    Instr kept = instr;
    kept.deps.clear();
    for (int d : instr.deps) {
      // Cross-stage edges (a recv depending on the other stage's send) are
      // carried by the comm layer on the sliced rank's side; the per-stage
      // projection keeps only in-stage ordering.
      if (d >= 0 && d < static_cast<int>(remap.size()) && remap[d] >= 0) {
        kept.deps.push_back(remap[d]);
      }
    }
    remap[i] = static_cast<int>(out.instrs.size());
    out.instrs.push_back(std::move(kept));
  }
  return out;
}

int ExecLog::UnitIndex(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < unit_names_.size(); ++i) {
    if (unit_names_[i] == name) return static_cast<int>(i);
  }
  unit_names_.push_back(name);
  return static_cast<int>(unit_names_.size()) - 1;
}

int64_t ExecLog::Record(ExecEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entry.t_end_us > 0) Publish(entry);
  entries_.push_back(std::move(entry));
  return first_id_ + static_cast<int64_t>(entries_.size()) - 1;
}

int64_t ExecLog::Record(Instr instr) {
  ExecEntry entry;
  entry.kind = ToEventKind(instr.op, instr.phase);
  entry.instr = std::move(instr);
  return Record(std::move(entry));
}

void ExecLog::Finish(int64_t id, double t_begin_us, double t_exec_us,
                     double t_end_us, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t i = id - first_id_;
  if (i < 0 || i >= static_cast<int64_t>(entries_.size())) return;
  ExecEntry& e = entries_[static_cast<size_t>(i)];
  e.t_begin_us = t_begin_us;
  e.t_exec_us = t_exec_us;
  e.t_end_us = t_end_us;
  e.bytes = bytes;
  Publish(e);
}

void ExecLog::AppendTraceEvents(const ExecEntry& entry,
                                std::vector<obs::TraceEvent>* out) const {
  obs::TraceEvent e;
  e.rank = rank_;
  e.kind = entry.kind;
  const int u = entry.instr.unit;
  if (u >= 0 && u < static_cast<int>(unit_names_.size())) {
    e.unit = unit_names_[static_cast<size_t>(u)];
  }
  e.lane = "runtime";
  e.t_begin_us = entry.t_begin_us;
  // Host entries (waits, reshards) occupy the rank thread for their whole
  // span; collectives run on the comm worker and computes get their own
  // lane, so the rank thread only marks where it issued or started them.
  e.t_end_us = entry.instr.lane == Lane::kHost ? entry.t_end_us
                                               : entry.t_begin_us;
  e.bytes = entry.resident_bytes;
  out->push_back(e);
  if (entry.instr.op == Op::kCompute) {
    e.lane = "compute";
    e.t_end_us = entry.t_end_us;
    e.bytes = 0;
    out->push_back(std::move(e));
  }
}

void ExecLog::Publish(const ExecEntry& entry) const {
  obs::TraceCollector& collector = obs::TraceCollector::Get();
  if (!collector.enabled()) return;
  std::vector<obs::TraceEvent> events;
  AppendTraceEvents(entry, &events);
  for (obs::TraceEvent& e : events) collector.Record(std::move(e));
}

StepPlan ExecLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StepPlan plan;
  plan.unit_names = unit_names_;
  plan.instrs.reserve(entries_.size());
  for (const ExecEntry& e : entries_) plan.instrs.push_back(e.instr);
  return plan;
}

std::vector<ExecEntry> ExecLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

std::vector<obs::TraceEvent> ExecLog::TraceEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<obs::TraceEvent> out;
  out.reserve(entries_.size());
  for (const ExecEntry& e : entries_) AppendTraceEvents(e, &out);
  return out;
}

void ExecLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  first_id_ += static_cast<int64_t>(entries_.size());
  entries_.clear();
}

}  // namespace fsdp::plan
