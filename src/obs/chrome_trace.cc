#include "obs/chrome_trace.h"

#include <fstream>
#include <map>

#include "obs/json.h"

namespace fsdp::obs {

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  return ChromeTraceJson(events, {});
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            const std::vector<CounterTrack>& counters) {
  // Assign one integer tid per (rank, lane), in first-appearance order, so
  // classic chrome://tracing (which wants numeric tids) is happy.
  std::map<std::pair<int, std::string>, int> lane_tids;
  for (const TraceEvent& e : events) {
    const auto key = std::make_pair(e.rank, e.lane);
    if (!lane_tids.count(key)) {
      const int next = static_cast<int>(lane_tids.size());
      lane_tids.emplace(key, next);
    }
  }

  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  // Metadata: process names (one pid per rank) and thread (lane) names.
  std::map<int, bool> named_pids;
  for (const auto& [key, tid] : lane_tids) {
    const auto& [rank, lane] = key;
    if (!named_pids.count(rank)) {
      named_pids[rank] = true;
      w.BeginObject().Key("name").String("process_name");
      w.Key("ph").String("M").Key("pid").Int(rank).Key("tid").Int(0);
      w.Key("args").BeginObject();
      w.Key("name").String("rank " + std::to_string(rank));
      w.EndObject().EndObject();
    }
    w.BeginObject().Key("name").String("thread_name");
    w.Key("ph").String("M").Key("pid").Int(rank).Key("tid").Int(tid);
    w.Key("args").BeginObject();
    w.Key("name").String(lane.empty() ? "runtime" : lane);
    w.EndObject().EndObject();
  }
  for (const TraceEvent& e : events) {
    const int tid = lane_tids.at(std::make_pair(e.rank, e.lane));
    w.BeginObject().Key("name").String(RenderEvent(e));
    w.Key("cat").String(EventKindName(e.kind)).Key("ph").String("X");
    w.Key("ts").Double(e.t_begin_us).Key("dur").Double(e.duration_us());
    w.Key("pid").Int(e.rank).Key("tid").Int(tid);
    w.Key("args").BeginObject().Key("bytes").Int(e.bytes).EndObject();
    w.EndObject();
  }
  for (const CounterTrack& track : counters) {
    for (const CounterSample& s : track.samples) {
      w.BeginObject().Key("name").String(track.name);
      w.Key("ph").String("C").Key("ts").Double(s.t_us);
      w.Key("pid").Int(track.rank).Key("tid").Int(0);
      w.Key("args").BeginObject().Key(track.name).Double(s.value).EndObject();
      w.EndObject();
    }
  }
  w.EndArray().Key("displayTimeUnit").String("ms").EndObject();
  return w.str();
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<TraceEvent>& events) {
  return WriteChromeTrace(path, events, {});
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        const std::vector<CounterTrack>& counters) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << ChromeTraceJson(events, counters) << "\n";
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace fsdp::obs
