// The repository benchmark program (README.md):
//
//   perfbench --workload {trickle,service} --seed N --seconds N
//             --trace {0,1} [--work-dir DIR]
//
// Prints a provenance line, an info line with sample counts, and last the
// one-line JSON result. Exits 1 on any correctness failure, 2 on bad
// arguments and 3 when the binary is an unoptimised or sanitized build.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "perfbench/harness.h"

namespace idivm::perfbench {
namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload {trickle,service} "
               "--seed N --seconds N --trace {0,1} [--work-dir DIR]\n",
               problem.c_str());
  std::exit(2);
}

// Parses a whole number in [lo, hi]; anything else is a usage error.
uint64_t ParseNumber(const char* flag, const char* text, uint64_t lo,
                     uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-' ||
      value < lo || value > hi) {
    Usage(std::string(flag) + " expects a whole number in [" +
          std::to_string(lo) + ", " + std::to_string(hi) + "], got \"" +
          text + "\"");
  }
  return value;
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  config.work_dir = ".bench_build/perfbench-work";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " requires a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      if (config.workload != "trickle" && config.workload != "service") {
        Usage("unknown workload \"" + config.workload + "\"");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = ParseNumber("--seed", value, 0, UINT64_MAX / 4);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds =
          static_cast<double>(ParseNumber("--seconds", value, 1, 120));
      have_seconds = true;
    } else if (flag == "--trace") {
      config.trace = ParseNumber("--trace", value, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return config;
}

int Main(int argc, char** argv) {
  const RunConfig config = ParseArgs(argc, argv);
  const std::string guard = BuildGuardError();
  if (!guard.empty()) {
    std::fprintf(stderr, "error: refusing to measure: %s\n", guard.c_str());
    return 3;
  }
  std::filesystem::create_directories(config.work_dir);
  std::printf("provenance %s\n", ProvenanceJson(config.work_dir).c_str());
  std::fflush(stdout);

  RunResult result;
  const CpuTicks start = ReadCpuTicks();
  try {
    result = config.workload == "trickle" ? RunTrickle(config)
                                          : RunService(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  result.info.emplace_back("host_steal_share", StealShare(start));
  std::string info = "info {";
  for (const auto& [key, value] : result.info) {
    info += (info.size() > 6 ? ", \"" : "\"") + key +
            "\": " + std::to_string(value);
  }
  std::printf("%s}\n", info.c_str());
  std::printf("%s\n", RenderResult(result.correct, result.attempted,
                                   result.failed, result.metrics)
                          .c_str());
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace idivm::perfbench

int main(int argc, char** argv) {
  return idivm::perfbench::Main(argc, argv);
}
