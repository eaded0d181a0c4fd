// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload <knn_cold_100k|mixed_hot_durable> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//             [--report <file>] [--small] [--source-id <text>]
//
// Untraced (--trace 0): runs the workload against the in-process
// serving stack and prints the end-to-end metrics. Traced (--trace 1):
// also replays the measured schedule through the layers directly, with
// spans, and prints the per-layer metrics. The last stdout line is the
// one-line result; --report receives the full document (metadata,
// exact counts, answer digest). perfbench/run.py builds and runs this.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <knn_cold_100k|mixed_hot_durable> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
               "[--report <file>] [--small] [--source-id <text>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string report_path;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--small") {
      config.small = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir") {
      config.workdir = argv[++i];
    } else if (arg == "--report") {
      report_path = argv[++i];
    } else if (arg == "--source-id") {
      source_id = argv[++i];
    } else {
      return Usage();
    }
  }
  // The work directory is wiped and recreated, so only a relative path
  // below the current directory is accepted.
  if (config.workload.empty() || config.seconds <= 0.0 ||
      config.workdir.empty() || config.workdir == "." ||
      config.workdir.front() == '/' ||
      config.workdir.find("..") != std::string::npos) {
    return Usage();
  }
  if (!perfbench::FreshDirectory(config.workdir)) {
    std::fprintf(stderr, "cannot create %s\n", config.workdir.c_str());
    return 1;
  }

  perfbench::Report report;
  perfbench::RecordCommonMeta(config, &report);
  report.Meta("source_id", source_id);
  int rc = 0;
  if (config.workload == "knn_cold_100k") {
    rc = perfbench::RunCold(config, &report);
  } else if (config.workload == "mixed_hot_durable") {
    rc = perfbench::RunMixed(config, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
    return 2;
  }
  for (const std::string& f : report.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  if (!report_path.empty()) {
    std::FILE* f = std::fopen(report_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", report.ToJson().c_str());
      std::fclose(f);
    }
  }
  if (rc != 0) return rc;
  std::printf("%s\n", report.ResultLine().c_str());
  return 0;
}
