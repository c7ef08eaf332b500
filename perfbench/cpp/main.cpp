// Session-level benchmark of the ROBOTune library.
//
//   perfbench --workload paper_q1|batch_rff|fleet --seed N --seconds S
//             --trace 0|1 [--dir PATH]
//
// --trace 0 measures the end-to-end metrics: sessions are started until
// --seconds have passed (every session seed derives from --seed), and each
// finished session's outputs are checked.  --trace 1 runs one session of
// the workload untraced and again traced, replays its layers' public calls
// at the sizes it used, and reports the per-layer metrics.  Either way the
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// The process exits non-zero when any output check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_q1|batch_rff|fleet --seed N --seconds S "
               "--trace 0|1 [--dir PATH]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.dir = "perfbench-work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--dir") {
      options.dir = value;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) {
    usage(argv[0]);
    return 2;
  }
  using Runner = void (*)(const perfbench::Options&, perfbench::Report&);
  Runner runner = nullptr;
  if (options.workload == "paper_q1") runner = perfbench::run_paper_q1;
  if (options.workload == "batch_rff") runner = perfbench::run_batch_rff;
  if (options.workload == "fleet") runner = perfbench::run_fleet;
  if (runner == nullptr) {
    usage(argv[0]);
    return 2;
  }
  perfbench::fs::create_directories(options.dir);
  perfbench::Report report;
  try {
    runner(options, report);
  } catch (const std::exception& e) {
    report.op(false, std::string("uncaught: ") + e.what());
  }
  report.print(stdout);
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
