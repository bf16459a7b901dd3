// The benchmark program: one workload, one seed, one run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--source <id>]
//
// Prints a fingerprint line, info lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace 1 the per-layer metrics. Exits non-zero without
// a result line on bad arguments or an internal error. See NOTES.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--source <id>]\n",
               why);
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string source = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &number)) return Usage("bad --seed");
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &number) || number == 0 || number > 600) {
        return Usage("bad --seconds");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return Usage("--workload, --seed and --seconds are required");
  }
  std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeWorkload(options);
  if (workload == nullptr) return Usage("unknown workload");
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) return Usage("cannot create --workdir");

  std::printf("fingerprint %s\n", perfbench::FingerprintJson(source).c_str());
  perfbench::RunReport report = perfbench::RunWorkload(*workload, options);
  for (const std::string& line : report.info) {
    std::printf("info %s\n", line.c_str());
  }
  for (const std::string& line : report.errors) {
    std::printf("error %s\n", line.c_str());
  }
  std::string result =
      perfbench::ResultLine(report.correct, report.attempted, report.failed,
                            options.trace, report.metrics);
  if (result.empty()) {
    std::fprintf(stderr, "perfbench: a metric is missing from the run\n");
    return 1;
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
