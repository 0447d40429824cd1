// xptc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload of BENCHMARK.json and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The line
// before it carries the host fingerprint, the seed and the sizes.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "perfbench.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: xptc_perfbench --workload "
               "lib_core_large|wire_small_hot --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xptc::perfbench;
  if (argc == 2 && std::string(argv[1]) == "--serve") return ServeMain();
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing flag value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.seconds <= 0) Usage("--seconds must be positive");
  xptc::bench::RequireOptimizedBuild();

  Result result;
  result.Info("workload", "\"" + opt.workload + "\"");
  result.Info("seed", static_cast<double>(opt.seed));
  result.Info("seconds", opt.seconds);
  result.Info("trace", opt.trace ? 1 : 0);
  int rc = 0;
  if (opt.workload == "lib_core_large") {
    rc = RunLibCoreLarge(opt, &result);
  } else if (opt.workload == "wire_small_hot") {
    rc = RunWire(opt, &result);
  } else {
    Usage(("unknown workload " + opt.workload).c_str());
  }
  if (rc != 0) return rc;
  result.Print(/*correct=*/true);
  return 0;
}
