// Wall-clock benchmark driver:
//
//   wallbench --workload <job|server-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints a readable summary on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced run with
// --trace 1. See README.md beside this file.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload <job|server-mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  wallbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }
  if (args.workload == "job") return wallbench::RunJob(args);
  if (args.workload == "server-mix") return wallbench::RunServerMix(args);
  return Usage();
}
