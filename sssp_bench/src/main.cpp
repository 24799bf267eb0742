// sssp_bench — the end-to-end benchmark program.
//
//   sssp_bench --workload road|powerlaw|service --seed N --seconds S
//              --trace 0|1 [--spans PATH]
//
// Runs one workload for S seconds of timed work and prints, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around every call into the library (written to
// --spans as JSON lines) and reports the per-layer metrics instead.
// Exit code 0 means the run finished; `correct` says whether every answer
// passed the oracle.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  bench::RunConfig cfg;
  cfg.process_start = bench::Clock::now();
  cfg.span_path = "spans.jsonl";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--spans") {
      cfg.span_path = val;
    } else {
      std::fprintf(stderr, "sssp_bench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (cfg.workload != "road" && cfg.workload != "powerlaw" &&
      cfg.workload != "service") {
    std::fprintf(stderr,
                 "sssp_bench: --workload must be road, powerlaw or service\n");
    return 2;
  }
  if (!(cfg.seconds > 0.0)) {
    std::fprintf(stderr, "sssp_bench: --seconds must be positive\n");
    return 2;
  }

  bench::RunResult r;
  try {
    r = cfg.workload == "service" ? bench::run_service_workload(cfg)
                                  : bench::run_engine_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sssp_bench: %s\n", e.what());
    return 1;
  }
  if (!r.correct)
    std::fprintf(stderr, "sssp_bench: INCORRECT: %s\n",
                 r.first_error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false", (unsigned long long)r.attempted,
              (unsigned long long)r.failed, r.metrics.json().c_str());
  return 0;
}
