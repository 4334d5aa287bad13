// Shared helpers for the figure-regeneration benches.
//
// Each fig*_ binary regenerates one table/figure of the paper's evaluation:
// it runs the simulator (or the real functional layer) at the paper's
// configuration, prints the series the figure plots, and annotates the
// paper-reported numbers where the paper states them, so paper-vs-measured
// is visible directly in the output (EXPERIMENTS.md aggregates these).
// Besides the human-readable tables, benches write machine-readable rows to
// BENCH_<name>.json (JsonRow/WriteBenchJson below) so perf trajectories can
// be tracked across commits without screen-scraping.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "obs/artifact.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "sim/topology.h"
#include "simfsdp/schedule.h"
#include "simfsdp/workload.h"

namespace fsdp::bench {

inline void Header(const std::string& fig, const std::string& caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", fig.c_str(), caption.c_str());
  std::printf("================================================================\n");
}

inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::printf("\n");
}

inline sim::Topology TopoFor(int gpus) {
  FSDP_CHECK(gpus % 8 == 0 || gpus < 8);
  if (gpus <= 8) return sim::Topology{1, gpus};
  return sim::Topology{gpus / 8, 8};
}

inline const char* Mark(bool oom) { return oom ? "OOM" : "ok"; }

inline double GiB(int64_t bytes) { return static_cast<double>(bytes) / (1ULL << 30); }

/// One JSON object with insertion-ordered fields, rendered by
/// obs::JsonWriter when the bench file is written.
class JsonRow {
 public:
  JsonRow& Set(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, v);
    return *this;
  }
  JsonRow& Set(const std::string& key, const char* v) {
    return Set(key, std::string(v));
  }
  JsonRow& Set(const std::string& key, double v) {
    fields_.emplace_back(key, v);
    return *this;
  }
  JsonRow& Set(const std::string& key, int64_t v) {
    fields_.emplace_back(key, v);
    return *this;
  }
  JsonRow& Set(const std::string& key, int v) {
    return Set(key, static_cast<int64_t>(v));
  }
  JsonRow& Set(const std::string& key, bool v) {
    fields_.emplace_back(key, v);
    return *this;
  }

  void Write(obs::JsonWriter& w) const {
    w.BeginObject();
    for (const auto& [key, v] : fields_) {
      w.Key(key);
      if (const auto* s = std::get_if<std::string>(&v)) w.String(*s);
      if (const auto* d = std::get_if<double>(&v)) w.Double(*d);
      if (const auto* i = std::get_if<int64_t>(&v)) w.Int(*i);
      if (const auto* b = std::get_if<bool>(&v)) w.Bool(*b);
    }
    w.EndObject();
  }

 private:
  using Value = std::variant<std::string, double, int64_t, bool>;
  std::vector<std::pair<std::string, Value>> fields_;
};

/// Writes {"bench": <name>, <artifact envelope>, "rows": [...]} to
/// BENCH_<name>.json under obs::ArtifactPath (so $FSDP_ARTIFACT_DIR or
/// ./build, not the source tree) and says so on stdout. Every bench
/// artifact carries the shared schema version plus run metadata (world
/// size, ranks, preset) so it joins against PROFILE_* artifacts from the
/// same run; obs::ValidateArtifactJson checks the envelope and the smoke
/// tests fail on malformed output. The output parses with obs::ParseJson
/// (obs_test validates the writers against the parser).
/// Returns the path written (empty when the file could not be opened) so
/// smoke binaries can parse the artifact back and validate the envelope.
inline std::string WriteBenchJson(const std::string& name,
                                  const std::vector<JsonRow>& rows,
                                  const obs::ArtifactMeta& meta = {}) {
  const std::string path = obs::ArtifactPath("BENCH_" + name + ".json");
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "WARNING: cannot write %s\n", path.c_str());
    return std::string();
  }
  obs::JsonWriter w;
  w.BeginObject().Key("bench").String(name);
  obs::WriteArtifactEnvelope(w, meta);
  w.Key("rows").BeginArray();
  for (const JsonRow& row : rows) row.Write(w);
  w.EndArray().EndObject();
  out << w.str() << "\n";
  std::printf("\nwrote %s (%zu rows)\n", path.c_str(), rows.size());
  return path;
}

}  // namespace fsdp::bench
