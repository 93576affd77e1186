// pnoc_perf: runs one benchmark workload and prints its result as the last
// stdout line.  perfbench/run.py builds it and supplies the paths.
//
//   pnoc_perf --workload lowload|saturation|paper_sweep|serve_tiny
//             --seed N --seconds S --trace 0|1
//             --bin DIR (pnoc_run, pnoc_serve) --work DIR (scratch)
//             --spans FILE (traced run: pnoc_perf's own spans)
//   pnoc_perf --selftest --bin DIR --work DIR
//
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics; a layer a workload does not exercise reads 0.  Failed output
// checks are listed on stderr and make "correct" false.
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "workloads.hpp"

using namespace perfbench;

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},       {"sim_cycles_per_s", "1/s"}, {"op_ms_p50", "ms"},
    {"op_cpu_ms", "ms"},    {"rss_peak_mb", "MB"},
};

constexpr MetricName kPerLayer[] = {
    {"sim.component_steps", "count"},
    {"sim.wakes", "count"},
    {"sim.timers_fired", "count"},
    {"sim.park_rate", "ratio"},
    {"sim.host_ns_per_step", "ns"},
    {"sim.phase.timer_expire_s", "s"},
    {"sim.phase.wake_drain_s", "s"},
    {"sim.phase.evaluate_s", "s"},
    {"sim.phase.advance_s", "s"},
    {"sim.phase.park_scan_s", "s"},
    {"noc.electrical_router_s", "s"},
    {"noc.electrical_router_steps", "count"},
    {"noc.link_s", "s"},
    {"noc.link_steps", "count"},
    {"network.photonic_router_s", "s"},
    {"network.photonic_router_steps", "count"},
    {"network.core_s", "s"},
    {"network.core_steps", "count"},
    {"network.reservations_issued", "count"},
    {"network.reservation_failures", "count"},
    {"network.reservation_success_ratio", "ratio"},
    {"network.flits_delivered", "count"},
    {"network.build_s", "s"},
    {"network.reset_s", "s"},
    {"core.policy_s", "s"},
    {"core.policy_steps", "count"},
    {"core.token_visits", "count"},
    {"core.dba_acquisitions", "count"},
    {"core.dba_releases", "count"},
    {"core.dba_shortfall_visits", "count"},
    {"metrics.probes", "count"},
    {"metrics.probe_s_p50", "s"},
    {"scenario.unit_execution_s", "s"},
    {"scenario.dispatch_s", "s"},
    {"scenario.checkpoint_flush_s", "s"},
    {"scenario.worker_handshake_s", "s"},
    {"scenario.wire_encode_us", "us"},
    {"scenario.wire_decode_us", "us"},
    {"service.connect_ms", "ms"},
    {"service.journal_fsync_us_p50", "us"},
    {"service.journal_fsync_us_p99", "us"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.units_completed", "count"},
    {"service.max_in_flight", "count"},
    {"service.ack_ms_p50", "ms"},
    {"service.ack_ms_p95", "ms"},
    {"service.job_ms_p95", "ms"},
    {"obs.trace_overhead_ratio", "ratio"},
};

/// Puts the metrics in the declared order; a per-layer metric the workload
/// did not produce reads 0, a missing end-to-end metric is an error.
template <std::size_t N>
std::vector<Metric> ordered(const std::vector<Metric>& got, const MetricName (&names)[N],
                            bool zeroMissing) {
  std::vector<Metric> out;
  for (const MetricName& want : names) {
    const Metric* found = nullptr;
    for (const Metric& m : got) {
      if (m.name == want.name) found = &m;
    }
    if (found == nullptr && !zeroMissing) {
      throw std::logic_error(std::string("workload did not report ") + want.name);
    }
    out.push_back(found != nullptr ? *found : Metric{want.name, 0.0, want.unit});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") options.trace = value() == "1";
      else if (arg == "--bin") options.binDir = value();
      else if (arg == "--work") options.workDir = value();
      else if (arg == "--spans") options.spanPath = value();
      else if (arg == "--selftest") selftest = true;
      else throw std::invalid_argument("unknown argument " + arg);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "pnoc_perf: %s\n", error.what());
      return 2;
    }
  }
  if (options.binDir.empty() || options.workDir.empty() ||
      (!selftest && options.seconds <= 0.0)) {
    std::fprintf(stderr, "pnoc_perf: --bin, --work and a positive --seconds are required\n");
    return 2;
  }
  if (options.spanPath.empty()) options.spanPath = options.workDir + "/spans.json";

  try {
    makeDirs(options.workDir);
    if (selftest) return runSelfTest(options) == 0 ? 0 : 1;
    Result result;
    if (options.workload == "lowload") {
      result = runSimWorkload(options, false);
    } else if (options.workload == "saturation") {
      result = runSimWorkload(options, true);
    } else if (options.workload == "paper_sweep") {
      result = runSweepWorkload(options);
    } else if (options.workload == "serve_tiny") {
      result = runServeWorkload(options);
    } else {
      std::fprintf(stderr, "pnoc_perf: unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
    result.metrics = options.trace ? ordered(result.metrics, kPerLayer, true)
                                   : ordered(result.metrics, kEndToEnd, false);
    for (const std::string& problem : result.problems) {
      std::fprintf(stderr, "pnoc_perf: check failed: %s\n", problem.c_str());
    }
    std::printf("%s\n", result.toJson().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pnoc_perf: %s\n", error.what());
    return 1;
  }
}
