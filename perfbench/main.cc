// The repository benchmark's entry point. One run = one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Each run trains the workload on the real 4-rank runtime in slices, with a
// round of the planning tooling (plan compiler, simulator, autotuner) after
// each slice. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 the per-layer metrics, and
// it writes its spans to <out-dir>/spans_<workload>_seed<n>.json when the run
// ends. Output checks that fail clear "correct" and make the exit code 1.
// The last stdout line is the JSON result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "tooling.h"

namespace perfbench {

void Report::AddRatio(const std::string& name, const Ratio& r) {
  std::printf("%s = %s\n", name.c_str(), r.Describe().c_str());
  Add(name, r.value(), "ratio");
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

namespace {

// Share of --seconds spent in timed training. The six tooling rounds after
// its slices are fixed work: about 20 s on a shared 4-core VM.
constexpr double kTrainingShare = 0.55;

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (key == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && IsTrainingWorkload(a->workload) && a->seconds > 0;
}

void WriteSpans(const Args& args, const std::vector<Span>& spans) {
  const std::string path = args.out_dir + "/spans_" + args.workload +
                           "_seed" + std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"parent\": \"%s\", \"rank\": %d, "
                  "\"step\": %lld, \"t0_us\": %.3f, \"t1_us\": %.3f}",
                  i == 0 ? "" : ",", s.name, s.parent, s.rank,
                  static_cast<long long>(s.step), s.t0_s * 1e6, s.t1_s * 1e6);
    out << line;
  }
  out << "\n]\n";
  std::printf("wrote %zu spans to %s\n", spans.size(), path.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fsdp_compute|fsdp_comm|hsdp_bf16 "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  Report report;
  std::vector<Span> spans;
  Tooling tooling(args, report);
  const double setup_s = tooling.setup_s() +
                         RunTraining(args, kTrainingShare * args.seconds,
                                     tooling, report, spans);
  tooling.Finish(spans);
  if (!args.trace) report.Add("setup_s", setup_s, "s");
  if (args.trace) WriteSpans(args, spans);

  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) report.Fail(m.name + " is not finite");
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("operations: %lld attempted, %lld failed\n",
              static_cast<long long>(report.ops.attempted),
              static_cast<long long>(report.ops.failed));
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.ops.attempted) +
          ", \"failed\": " + std::to_string(report.ops.failed) +
          ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}
