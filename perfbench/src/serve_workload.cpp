// serve_tiny: a pnoc_serve daemon with two local workers, driven by four
// closed-loop clients from this process.  Each client submits a 4-unit grid
// of tiny simulations (warmup 100, measure 500 cycles), waits for the job's
// last record, checks every record against ScenarioRunner::runOne computed
// here, and submits again.  Each unit simulates for a few milliseconds, so
// the service path (journal fsync, queue, fleet dispatch, wire, checkpoint
// flushes, client protocol) carries most of the time.
#include <signal.h>

#include <algorithm>
#include <mutex>
#include <random>
#include <thread>

#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/wire.hpp"
#include "service/client.hpp"
#include "workloads.hpp"

namespace perfbench {

using pnoc::scenario::JsonValue;
using pnoc::scenario::ScenarioSpec;

namespace {

constexpr int kClients = 4;
constexpr int kDaemonWorkers = 2;
constexpr std::size_t kUnitsPerJob = 4;
constexpr std::size_t kPoolSize = 16;
/// Outstanding requests per core of the closed-loop specs in the pool.
constexpr std::uint64_t kRequestWindow = 2;
/// Jobs finished when the daemon's memory high-water mark is read: the
/// daemon keeps every job it has run, so its footprint grows with the
/// number of jobs, which a fixed count holds equal between runs.
constexpr std::uint64_t kRssJobs = 256;
constexpr double kStartTimeoutSeconds = 30.0;
constexpr double kStopTimeoutSeconds = 30.0;

/// The specs jobs draw their units from: both architectures, the four
/// figure patterns, open-loop injection mixed with closed-loop and
/// dependency-chain request-reply workloads.
std::vector<ScenarioSpec> specPool(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  static const char* kPatterns[] = {"uniform", "skewed1", "skewed2", "skewed3"};
  const std::string window = std::to_string(kRequestWindow);
  const std::string kWorkloads[] = {"open", "open", "closed:window=" + window,
                                    "chain:window=" + window + ",think=10"};
  std::vector<ScenarioSpec> pool;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    ScenarioSpec spec;
    spec.set("arch", i % 2 == 0 ? "firefly" : "dhetpnoc");
    spec.set("set", "1");
    spec.set("pattern", kPatterns[rng() % 4]);
    spec.set("workload", kWorkloads[i % 4]);
    const double load = 0.001 + 0.002 * static_cast<double>(rng() >> 11) * 0x1.0p-53;
    spec.set("load", pnoc::scenario::formatDouble(load));
    spec.set("warmup", "100");
    spec.set("measure", "500");
    spec.set("seed", std::to_string(1 + rng() % 1000));
    pool.push_back(spec);
  }
  return pool;
}

struct Daemon {
  pid_t pid = -1;
  std::string socket;
  double startSeconds = 0.0;  // spawn until every worker is ready
};

/// Kills and reaps the daemon unless stop() reaped it first.
class DaemonGuard {
 public:
  explicit DaemonGuard(pid_t pid) : pid_(pid) {}
  ~DaemonGuard() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      waitProcess(pid_, kStopTimeoutSeconds);
    }
  }
  DaemonGuard(const DaemonGuard&) = delete;
  DaemonGuard& operator=(const DaemonGuard&) = delete;
  ExitInfo stop() {
    const ExitInfo exit = waitProcess(pid_, kStopTimeoutSeconds);
    pid_ = -1;
    return exit;
  }

 private:
  pid_t pid_;
};

std::uint64_t counterOf(const JsonValue& snapshot, const char* section, const char* name) {
  const JsonValue* value = snapshot.at(section).find(name);
  return value == nullptr ? 0 : value->asU64();
}

Daemon startDaemon(const Options& options, const std::string& tracePath) {
  Daemon daemon;
  daemon.socket = options.workDir + "/d.sock";
  std::vector<std::string> argv = {options.binDir + "/pnoc_serve", "socket=" + daemon.socket,
                                   "journal=" + options.workDir + "/d.journal",
                                   "shards=" + std::to_string(kDaemonWorkers)};
  if (!tracePath.empty()) argv.push_back("trace=" + tracePath);
  const Clock::time_point start = Clock::now();
  daemon.pid = spawnProcess(argv, options.workDir + "/pnoc_serve.log");
  while (true) {
    try {
      pnoc::service::ServeClient client(daemon.socket);
      while (true) {
        client.sendLine("{\"op\":\"metrics\"}");
        const JsonValue reply = JsonValue::parse(client.readLine());
        if (counterOf(reply.at("metrics"), "gauges", "serve_workers_ready") >=
            static_cast<std::uint64_t>(kDaemonWorkers)) {
          daemon.startSeconds = secondsSince(start);
          return daemon;
        }
        if (secondsSince(start) > kStartTimeoutSeconds) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (const std::exception&) {
      // Not listening yet.
    }
    if (secondsSince(start) > kStartTimeoutSeconds) {
      ::kill(daemon.pid, SIGKILL);
      waitProcess(daemon.pid, kStopTimeoutSeconds);
      throw std::runtime_error("pnoc_serve did not become ready");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Everything one daemon session measured.
struct Session {
  double setupSeconds = 0.0;
  double loopSeconds = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t units = 0;
  std::uint64_t failedUnits = 0;
  std::vector<double> ackMs;
  std::vector<double> jobMs;
  /// Each job's submit and last-record times, seconds since the clients
  /// started.
  std::vector<std::pair<double, double>> jobSpans;
  std::vector<double> connectMs;
  std::vector<std::string> problems;
  JsonValue metrics;  // op=metrics snapshot at the end
  JsonValue status;   // op=status at the end
  double rssMb = 0.0;  // daemon VmHWM after kRssJobs jobs (or at the end)
  ExitInfo exit;
};

Session runSession(const Options& options, const std::vector<ScenarioSpec>& pool,
                   const std::vector<pnoc::metrics::RunMetrics>& reference, double seconds,
                   const std::string& tracePath) {
  Session session;
  const Daemon daemon = startDaemon(options, tracePath);
  DaemonGuard guard(daemon.pid);
  session.setupSeconds = daemon.startSeconds;
  std::mutex mu;
  const std::string outDir = options.workDir + "/out";
  makeDirs(outDir);
  std::uint64_t jobsDone = 0;  // guarded by mu
  const Clock::time_point loopStart = Clock::now();

  const auto client = [&](int index) {
    std::mt19937_64 rng(options.seed * 1000003 + static_cast<std::uint64_t>(index));
    const std::string name = "c" + std::to_string(index);
    Session mine;
    std::uint64_t inFlight = 0;  // units of the job this client waits for
    try {
      const Clock::time_point connectStart = Clock::now();
      pnoc::service::ServeClient conn(daemon.socket);
      mine.connectMs.push_back(secondsSince(connectStart) * 1e3);
      while (secondsSince(loopStart) < seconds) {
        std::vector<ScenarioSpec> grid;
        std::vector<std::size_t> picks;
        std::string line = "{\"op\":\"submit\",\"client\":\"" + name +
                           "\",\"mode\":\"run\",\"bench\":\"" + name + "\",\"dir\":\"" +
                           outDir + "\",\"specs\":[";
        for (std::size_t u = 0; u < kUnitsPerJob; ++u) {
          picks.push_back(rng() % pool.size());
          grid.push_back(pool[picks.back()]);
          line += (u == 0 ? "" : ",") + grid.back().toJson();
        }
        line += "]}";
        const Clock::time_point submitted = Clock::now();
        mine.units += kUnitsPerJob;
        inFlight = kUnitsPerJob;
        const JsonValue ack = conn.request(line);
        mine.ackMs.push_back(secondsSince(submitted) * 1e3);
        const std::uint64_t job = ack.at("job").asU64();
        conn.sendLine("{\"op\":\"watch\",\"job\":" + std::to_string(job) + "}");
        while (true) {
          const JsonValue event = JsonValue::parse(conn.readLine());
          const JsonValue* kind = event.find("event");
          if (kind == nullptr) throw std::runtime_error("watch failed: " + event.at("error").asString());
          if (kind->asString() != "job") continue;
          if (event.at("state").asString() == "done") {
            mine.failedUnits += event.at("failed").asU64();
          } else {
            mine.problems.push_back("job " + std::to_string(job) + " ended " +
                                    event.at("state").asString());
            mine.failedUnits += kUnitsPerJob;
          }
          inFlight = 0;
          break;
        }
        mine.jobMs.push_back(secondsSince(submitted) * 1e3);
        mine.jobSpans.emplace_back(std::chrono::duration<double>(submitted - loopStart).count(),
                                   secondsSince(loopStart));
        ++mine.jobs;
        {
          const std::lock_guard<std::mutex> lock(mu);
          if (++jobsDone == kRssJobs) session.rssMb = vmHwmMb(daemon.pid);
        }
        // Every unit's record must equal the in-process runOne of its spec.
        std::vector<std::string> want;
        for (std::size_t u = 0; u < kUnitsPerJob; ++u) {
          pnoc::scenario::ScenarioOutcome outcome;
          outcome.spec = grid[u];
          outcome.metrics = reference[picks[u]];
          want.push_back(pnoc::scenario::dispatch::serializedOutcomeRecord(outcome, u));
        }
        std::vector<std::optional<std::string>> got;
        try {
          got = pnoc::scenario::dispatch::loadBenchCheckpoint(
                    outDir + "/BENCH_" + name + ".json", "run", grid)
                    .rawByIndex;
        } catch (const std::exception& error) {
          mine.problems.push_back(name + ": " + error.what());
        }
        const auto diff = checkRecords(name + " job " + std::to_string(job), got, want);
        mine.problems.insert(mine.problems.end(), diff.begin(), diff.end());
      }
    } catch (const std::exception& error) {
      mine.problems.push_back(name + ": " + error.what());
      mine.failedUnits += inFlight;
    }
    const std::lock_guard<std::mutex> lock(mu);
    session.jobs += mine.jobs;
    session.units += mine.units;
    session.failedUnits += mine.failedUnits;
    const auto append = [](auto& into, const auto& from) {
      into.insert(into.end(), from.begin(), from.end());
    };
    append(session.ackMs, mine.ackMs);
    append(session.jobMs, mine.jobMs);
    append(session.jobSpans, mine.jobSpans);
    append(session.connectMs, mine.connectMs);
    append(session.problems, mine.problems);
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& thread : clients) thread.join();
  session.loopSeconds = secondsSince(loopStart);

  try {
    pnoc::service::ServeClient admin(daemon.socket);
    admin.sendLine("{\"op\":\"metrics\"}");
    session.metrics = JsonValue::parse(admin.readLine()).at("metrics");
    admin.sendLine("{\"op\":\"status\"}");
    session.status = JsonValue::parse(admin.readLine());
    if (jobsDone < kRssJobs) session.rssMb = vmHwmMb(daemon.pid);
    admin.request("{\"op\":\"shutdown\"}");
  } catch (const std::exception& error) {
    session.problems.push_back(std::string("daemon: ") + error.what());
    ::kill(daemon.pid, SIGTERM);
  }
  session.exit = guard.stop();
  if (!session.exit.exited || session.exit.exitCode != 0) {
    session.problems.push_back("pnoc_serve exited with " +
                               std::to_string(session.exit.exitCode));
  }
  removeTree(outDir);
  return session;
}

/// `flows`: the closed-loop request counts of the pool's specs.
void checkSession(Result& result, const Session& session,
                  const std::vector<ServeObservation::Flows>& flows) {
  result.attempted += session.units;
  result.failed += session.failedUnits;
  result.check(session.problems);
  ServeObservation obs;
  obs.unitsSubmitted = session.units;
  if (session.metrics.kind() == JsonValue::Kind::kObject) {
    obs.unitsCompletedByDaemon =
        counterOf(session.metrics, "counters", "fleet_units_completed_total");
  }
  obs.failedUnits = session.failedUnits;
  obs.closedLoop = flows;
  result.check(checkServe(obs));
}

}  // namespace

ServeObservation::Flows unitFlows(const ScenarioSpec& spec, const std::string& referenceJson,
                                  std::vector<std::string>& problems) {
  pnoc::network::PhotonicNetwork net(spec.params);
  const std::string window = pnoc::scenario::wire::toJson(net.run());
  const auto diff = checkSame("unit network", window, referenceJson);
  problems.insert(problems.end(), diff.begin(), diff.end());
  ServeObservation::Flows flows;
  for (std::uint32_t c = 0; c < spec.params.numCores; ++c) {
    flows.issued += net.core(c).stats().requestsIssued;
    flows.completed += net.core(c).stats().requestsCompleted;
  }
  return flows;
}

Result runServeWorkload(const Options& options) {
  Result result;
  const std::vector<ScenarioSpec> pool = specPool(options.seed);
  std::vector<pnoc::metrics::RunMetrics> reference;
  // A record's window-differenced request counts may include completions
  // of requests issued before its window; the counts since construction
  // may not.  The daemon's records equal runOne's, which equal these.
  std::vector<ServeObservation::Flows> flows;
  for (const ScenarioSpec& spec : pool) {
    reference.push_back(pnoc::scenario::ScenarioRunner::runOne(spec));
    flows.push_back(
        unitFlows(spec, pnoc::scenario::wire::toJson(reference.back()), result.problems));
  }

  if (!options.trace) {
    const Session s = runSession(options, pool, reference, options.seconds, "");
    checkSession(result, s, flows);
    result.add("setup_s", s.setupSeconds, "s");
    // Units served per slice of about a second, each job's units spread
    // evenly over its submit-to-last-record time; the median slice: a stall
    // of the host (or of a journal fsync) costs one slice, not the run.
    const double unitCycles = static_cast<double>(pool.front().params.warmupCycles +
                                                  pool.front().params.measureCycles);
    const std::size_t slices = std::max<std::size_t>(1, static_cast<std::size_t>(options.seconds));
    const double sliceSeconds = options.seconds / static_cast<double>(slices);
    std::vector<double> unitsPerSlice(slices, 0.0);
    for (const auto& [from, to] : s.jobSpans) {
      const double perSecond = static_cast<double>(kUnitsPerJob) / (to - from);
      for (std::size_t k = 0; k < slices; ++k) {
        const double overlap = std::min(to, (k + 1) * sliceSeconds) - std::max(from, k * sliceSeconds);
        if (overlap > 0.0) unitsPerSlice[k] += overlap * perSecond;
      }
    }
    result.add("sim_cycles_per_s", median(unitsPerSlice) * unitCycles / sliceSeconds, "1/s");
    result.add("op_ms_p50", median(s.jobMs), "ms");
    result.add("op_cpu_ms",
               s.jobs == 0 ? 0.0 : s.exit.cpuSeconds * 1e3 / static_cast<double>(s.jobs), "ms");
    result.add("rss_peak_mb", s.rssMb, "MB");
    return result;
  }

  // Traced run: an untraced daemon session, then a traced one (trace= on
  // pnoc_serve) of the same length; the units/s ratio is the overhead.
  const std::string tracePath = options.workDir + "/pnoc_serve.trace.json";
  const Session plain = runSession(options, pool, reference, options.seconds / 2, "");
  const Session traced = runSession(options, pool, reference, options.seconds / 2, tracePath);
  checkSession(result, plain, flows);
  checkSession(result, traced, flows);

  // The per-layer simulation counters of the units the daemon ran, from
  // profiled networks built here; profiling must not change a result.
  SpanLog log;
  LayerTotals layers;
  double runSeconds = 0.0;
  std::vector<double> buildSeconds;
  std::vector<double> encodeUs;
  std::vector<double> decodeUs;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pnoc::network::SimulationParameters params = pool[i].params;
    params.profile = true;
    ScopedSpan build(&log, "network.build", "network");
    pnoc::network::PhotonicNetwork net(params);
    buildSeconds.push_back(build.close());
    ScopedSpan run(&log, "network.run", "network");
    const pnoc::metrics::RunMetrics m = net.run();
    runSeconds += run.close();
    layers.add(net);
    const std::string json = pnoc::scenario::wire::toJson(reference[i]);
    result.check(checkSame("profiled unit " + std::to_string(i), pnoc::scenario::wire::toJson(m),
                           json));
    ScopedSpan encode(&log, "wire.encode", "scenario");
    pnoc::scenario::wire::toJson(m);
    encodeUs.push_back(encode.close() * 1e6);
    ScopedSpan decode(&log, "wire.decode", "scenario");
    pnoc::scenario::wire::runMetricsFromJson(json);
    decodeUs.push_back(decode.close() * 1e6);
  }
  addLayerMetrics(result, layers, runSeconds);
  result.add("network.build_s", median(buildSeconds), "s");

  const auto spans = readChromeTraceDurations(tracePath);
  const auto spanValues = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? std::vector<double>{} : it->second;
  };
  const auto mean = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (const double v : values) sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  };
  result.add("scenario.unit_execution_s", mean(spanValues("unit-execution")), "s");
  result.add("scenario.dispatch_s", mean(spanValues("dispatch")), "s");
  result.add("scenario.checkpoint_flush_s", mean(spanValues("checkpoint-flush")), "s");
  result.add("scenario.worker_handshake_s", mean(spanValues("worker-handshake")), "s");
  result.add("scenario.wire_encode_us", median(encodeUs), "us");
  result.add("scenario.wire_decode_us", median(decodeUs), "us");
  result.add("service.connect_ms", median(traced.connectMs), "ms");
  const JsonValue& journal = traced.status.at("journal");
  result.add("service.journal_fsync_us_p50",
             journal.find("fsync_p50_us") ? journal.at("fsync_p50_us").asDouble() : 0.0, "us");
  result.add("service.journal_fsync_us_p99",
             journal.find("fsync_p99_us") ? journal.at("fsync_p99_us").asDouble() : 0.0, "us");
  std::vector<double> queueWaitMs = spanValues("queue-wait");
  for (double& v : queueWaitMs) v *= 1e3;
  result.add("service.queue_wait_ms_p50", median(queueWaitMs), "ms");
  result.add("service.units_completed",
             static_cast<double>(counterOf(traced.metrics, "counters",
                                           "fleet_units_completed_total")),
             "count");
  result.add("service.max_in_flight",
             static_cast<double>(traced.status.at("stats").at("max_in_flight").asU64()),
             "count");
  result.add("service.ack_ms_p50", median(traced.ackMs), "ms");
  result.add("service.ack_ms_p95", tailOrMedian(traced.ackMs, 0.95), "ms");
  result.add("service.job_ms_p95", tailOrMedian(traced.jobMs, 0.95), "ms");
  result.add("obs.trace_overhead_ratio",
             (static_cast<double>(plain.units) / plain.loopSeconds) /
                 (static_cast<double>(traced.units) / traced.loopSeconds),
             "ratio");
  log.write(options.spanPath);
  return result;
}

}  // namespace perfbench
