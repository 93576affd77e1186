// paper_sweep: the paper's Figure 3-3 figure set, regenerated the way its
// users do it — one pnoc_run grid of saturation searches streamed to three
// local workers — and checked against the same searches recomputed in this
// process through metrics::findPeak over the public PhotonicNetwork API.
#include <algorithm>
#include <atomic>
#include <thread>

#include "metrics/saturation.hpp"
#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

using pnoc::metrics::PeakSearchResult;
using pnoc::network::PhotonicNetwork;
using pnoc::scenario::ScenarioSpec;

namespace {

/// Local stream workers: three leave one of the host's four cores to the
/// benchmark process and the system.
constexpr int kWorkers = 3;
constexpr double kAcceptanceFloor = 0.90;

struct Sweep {
  double wallSeconds = 0.0;
  ExitInfo exit;
  std::vector<std::optional<std::string>> records;
};

/// One pnoc_run invocation over the grid; `tracePath` "" runs untraced.
Sweep runSweep(const Options& options, const std::vector<ScenarioSpec>& grid,
               const std::string& gridPath, const std::string& tracePath) {
  const std::string outDir = options.workDir + "/out";
  removeTree(outDir);
  makeDirs(outDir);
  std::vector<std::string> argv = {options.binDir + "/pnoc_run", "@" + gridPath,
                                   "mode=peak", "backend=stream",
                                   "shards=" + std::to_string(kWorkers), "bench=sweep",
                                   "json=" + outDir};
  if (!tracePath.empty()) argv.push_back("trace=" + tracePath);
  Sweep sweep;
  const Clock::time_point start = Clock::now();
  const pid_t pid = spawnProcess(argv, options.workDir + "/pnoc_run.log");
  // A sweep takes about 6 s; one that outlasts the run length by two
  // minutes is stuck.
  sweep.exit = waitProcess(pid, options.seconds + 120.0);
  sweep.wallSeconds = secondsSince(start);
  try {
    sweep.records = pnoc::scenario::dispatch::loadBenchCheckpoint(
                        outDir + "/BENCH_sweep.json", "peak", grid)
                        .rawByIndex;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "paper_sweep: %s\n", error.what());
  }
  return sweep;
}

/// In-process recomputation of every search; `log` (traced run) times each
/// build, probe and reset and profiles the networks.
struct Recomputation {
  std::vector<PeakSearchResult> searches;
  LayerTotals layers;
  std::vector<double> buildSeconds;
  std::vector<double> probeSeconds;
  std::vector<double> resetSeconds;
};

PeakSearchResult searchOne(const ScenarioSpec& spec, SpanLog* log, Recomputation* rec) {
  pnoc::network::SimulationParameters params = spec.params;
  params.profile = log != nullptr;
  ScopedSpan build(log, "network.build", "network");
  const int buildId = build.id();
  PhotonicNetwork net(params);
  if (rec != nullptr) rec->buildSeconds.push_back(build.close());
  return pnoc::metrics::findPeak(
      [&](double load) {
        ScopedSpan probe(log, "metrics.probe", "metrics", buildId);
        ScopedSpan reset(log, "network.reset", "network", probe.id());
        net.setOfferedLoad(load);
        net.reset();
        const double resetTime = reset.close();
        ScopedSpan run(log, "network.run", "network", probe.id());
        const pnoc::metrics::RunMetrics m = net.run();
        run.close();
        if (rec != nullptr) {
          rec->resetSeconds.push_back(resetTime);
          rec->probeSeconds.push_back(probe.close());
          rec->layers.add(net);  // reset() zeroes the totals: read every probe
        }
        return m;
      },
      pnoc::scenario::ScenarioRunner::peakOptions(spec));
}

}  // namespace

std::vector<ScenarioSpec> paperSweepGrid(int sets) {
  std::vector<ScenarioSpec> grid;
  for (int set = 1; set <= sets; ++set) {
    for (const char* pattern : {"uniform", "skewed1", "skewed2", "skewed3"}) {
      for (const char* arch : {"firefly", "dhetpnoc"}) {
        ScenarioSpec spec;
        spec.set("arch", arch);
        spec.set("set", std::to_string(set));
        spec.set("pattern", pattern);
        spec.set("seed", "7");
        grid.push_back(spec);
      }
    }
  }
  return grid;
}

PeakRow peakRow(const ScenarioSpec& spec, const PeakSearchResult& search) {
  PeakRow row;
  row.arch = spec.get("arch");
  row.pattern = spec.params.pattern;
  row.set = pnoc::scenario::bandwidthSetIndex(spec.params.bandwidthSet).value_or(0);
  row.load = search.peak.offeredLoad;
  row.gbps = search.peak.metrics.deliveredGbps();
  row.acceptance = search.peak.metrics.acceptance();
  return row;
}

Result runSweepWorkload(const Options& options) {
  Result result;
  const std::vector<ScenarioSpec> grid = paperSweepGrid();
  const std::string gridPath = options.workDir + "/grid.json";
  {
    std::string json = "[\n";
    for (std::size_t i = 0; i < grid.size(); ++i) {
      json += grid[i].toJson() + (i + 1 < grid.size() ? ",\n" : "\n");
    }
    writeFile(gridPath, json + "]\n");
  }
  // Cold set-up: the grid is ready and the first network of the in-process
  // check is built.
  { PhotonicNetwork first(grid.front().params); }
  const double setup = secondsSince(processStart());

  std::vector<Sweep> sweeps;
  const Clock::time_point start = Clock::now();
  do {
    sweeps.push_back(runSweep(options, grid, gridPath, ""));
    result.attempted += grid.size();
  } while (!options.trace && secondsSince(start) < options.seconds);
  std::string tracePath;
  if (options.trace) {
    tracePath = options.workDir + "/pnoc_run.trace.json";
    sweeps.push_back(runSweep(options, grid, gridPath, tracePath));
    result.attempted += grid.size();
  }

  // The independent path: every search recomputed in this process (three
  // threads untraced; sequential and profiled in the traced run, so every
  // probe's span is uncontended).
  Recomputation rec;
  rec.searches.resize(grid.size());
  SpanLog log;
  if (options.trace) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      rec.searches[i] = searchOne(grid[i], &log, &rec);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kWorkers; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < grid.size();) {
          rec.searches[i] = searchOne(grid[i], nullptr, nullptr);
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
  }
  std::vector<std::string> want;
  std::vector<PeakRow> rows;
  double cycles = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    pnoc::scenario::ScenarioOutcome outcome;
    outcome.op = pnoc::scenario::ScenarioJob::Op::kFindPeak;
    outcome.spec = grid[i];
    outcome.search = rec.searches[i];
    want.push_back(pnoc::scenario::dispatch::serializedOutcomeRecord(outcome, i));
    rows.push_back(peakRow(grid[i], rec.searches[i]));
    cycles += static_cast<double>(rec.searches[i].sweep.size()) *
              static_cast<double>(grid[i].params.warmupCycles + grid[i].params.measureCycles);
  }
  result.check(checkSweepShape(rows, kAcceptanceFloor));

  std::vector<double> wallMs;
  std::vector<double> cpuMs;
  double rss = 0.0;
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    const Sweep& sweep = sweeps[s];
    if (!sweep.exit.exited || sweep.exit.exitCode != 0) {
      result.problems.push_back("pnoc_run sweep " + std::to_string(s) + " exited with " +
                                std::to_string(sweep.exit.exitCode));
    }
    // A search without its record failed.
    std::size_t present = 0;
    for (const auto& record : sweep.records) present += record.has_value() ? 1 : 0;
    result.failed += grid.size() - std::min(present, grid.size());
    result.check(checkRecords("streamed sweep " + std::to_string(s), sweep.records, want));
    wallMs.push_back(sweep.wallSeconds * 1e3);
    cpuMs.push_back(sweep.exit.cpuSeconds * 1e3);
    rss = std::max(rss, sweep.exit.maxRssMb);
  }

  if (!options.trace) {
    result.add("setup_s", setup, "s");
    double wallSeconds = 0.0;
    for (const double ms : wallMs) wallSeconds += ms * 1e-3;
    result.add("sim_cycles_per_s", cycles * static_cast<double>(sweeps.size()) / wallSeconds,
               "1/s");
    result.add("op_ms_p50", median(wallMs), "ms");
    result.add("op_cpu_ms", median(cpuMs), "ms");
    result.add("rss_peak_mb", rss, "MB");
    return result;
  }

  double runSeconds = 0.0;
  for (const double s : log.durations("network.run")) runSeconds += s;
  addLayerMetrics(result, rec.layers, runSeconds);
  result.add("network.build_s", median(rec.buildSeconds), "s");
  result.add("network.reset_s", median(rec.resetSeconds), "s");
  result.add("metrics.probes", static_cast<double>(rec.probeSeconds.size()), "count");
  result.add("metrics.probe_s_p50", median(rec.probeSeconds), "s");
  const auto spans = readChromeTraceDurations(tracePath);
  const auto meanOf = [&spans](const char* name) {
    const auto it = spans.find(name);
    if (it == spans.end() || it->second.empty()) return 0.0;
    double sum = 0.0;
    for (const double d : it->second) sum += d;
    return sum / static_cast<double>(it->second.size());
  };
  result.add("scenario.unit_execution_s", meanOf("unit-execution"), "s");
  result.add("scenario.dispatch_s", meanOf("dispatch"), "s");
  result.add("scenario.checkpoint_flush_s", meanOf("checkpoint-flush"), "s");
  result.add("scenario.worker_handshake_s", meanOf("worker-handshake"), "s");
  std::vector<double> encodeUs;
  std::vector<double> decodeUs;
  for (const PeakSearchResult& search : rec.searches) {
    ScopedSpan encode(&log, "wire.encode", "scenario");
    const std::string json = pnoc::scenario::wire::toJson(search);
    encodeUs.push_back(encode.close() * 1e6);
    ScopedSpan decode(&log, "wire.decode", "scenario");
    const PeakSearchResult back = pnoc::scenario::wire::peakSearchFromJson(json);
    decodeUs.push_back(decode.close() * 1e6);
    result.check(checkSame("wire round trip", pnoc::scenario::wire::toJson(back), json));
  }
  result.add("scenario.wire_encode_us", median(encodeUs), "us");
  result.add("scenario.wire_decode_us", median(decodeUs), "us");
  // Traced sweep wall over the untraced one: the cost of trace= on pnoc_run.
  result.add("obs.trace_overhead_ratio", wallMs.back() / wallMs.front(), "ratio");
  log.write(options.spanPath);
  return result;
}

}  // namespace perfbench
