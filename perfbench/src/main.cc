// perfbench — the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir>
//
// Prints every metric of the run by name with unit and sample count, then,
// as its last line, one JSON object with the oracle verdict, the operation
// counts and all metrics. With --trace 1 the span log is written to
// <dir>/trace-<workload>-seed<n>.jsonl when the run ends.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

bool WriteSpans(const std::string& path,
                const std::vector<perfbench::Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const perfbench::Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %" PRId64 ", \"parent\": %" PRId64
                 ", \"round\": %" PRId64 ", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"thread\": %d}\n",
                 perfbench::LayerName(s.layer), s.id, s.parent, s.round,
                 s.start_ns, s.end_ns, s.thread);
  }
  return std::fclose(f) == 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  if (opt.workload.empty() || opt.out_dir.empty()) {
    return Usage("--workload and --out are required");
  }
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) return Usage(("cannot create " + opt.out_dir).c_str());

  perfbench::Report report;
  std::string error;
  if (!perfbench::RunWorkload(opt, &report, &error)) {
    return Usage(error.c_str());
  }

  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (opt.trace) {
    const std::string path = opt.out_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".jsonl";
    if (!WriteSpans(path, report.spans)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", report.spans.size(),
                path.c_str());
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-56s %16.6g %-6s (n=%" PRId64 ")\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              report.correct ? "true" : "false", report.attempted,
              report.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %" PRId64 "}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str(),
                m.samples);
  }
  std::printf("}}\n");
  return 0;
}
