// lowload and saturation: one long full-system simulation in this process,
// driven through PhotonicNetwork's public API in fixed-length run() windows.
#include <memory>
#include <thread>

#include "network/channel_policy.hpp"
#include "scenario/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

using pnoc::metrics::RunMetrics;
using pnoc::network::PhotonicNetwork;

namespace {

/// Traced windows whose work counters the traced run reports: a fixed
/// amount of simulation, so the counts are exact for a given seed.
constexpr int kCountedWindows = 4;

/// Windows run before timing starts.  The first windows fill the network
/// (and, past saturation, build up the blocked state), costing up to three
/// times a steady window per cycle; a long run pays that once.
constexpr int kPrefixWindows = 3;

/// Concurrent replicas of the untraced run; three leave one of four cores
/// to the system.
constexpr int kReplicas = 3;

}  // namespace

pnoc::scenario::ScenarioSpec simWorkloadSpec(bool saturation, std::uint64_t seed) {
  pnoc::scenario::ScenarioSpec spec;
  spec.set("arch", "dhetpnoc");
  spec.set("set", "1");
  spec.set("pattern", saturation ? "skewed-hotspot2" : "uniform");
  spec.set("load", saturation ? "0.02" : "0.001");
  // One window: 100k cycles at low load, 50k past saturation (about a
  // third of a second of host time each).
  spec.set("warmup", saturation ? "5000" : "10000");
  spec.set("measure", saturation ? "45000" : "90000");
  spec.set("seed", std::to_string(seed));
  return spec;
}

SimObservation observeNetwork(PhotonicNetwork& net, const RunMetrics& window,
                              double acceptanceFloor) {
  SimObservation obs;
  const auto& params = net.params();
  obs.flitsInjected = net.totalFlitsInjected();
  obs.flitsEjected = net.totalFlitsEjected();
  obs.occupancy = net.occupancy();
  const std::uint32_t clusters = params.numClusters();
  for (std::uint32_t c = 0; c < clusters; ++c) {
    const auto& s = net.photonicRouter(c).stats();
    obs.photonicBits += static_cast<double>(s.bitsTransmitted);
    obs.routers.push_back(ReservationCounts{s.reservationsIssued, s.reservationFailures,
                                            s.packetsTransmitted});
  }
  constexpr double kLambdaGbps = 12.5;
  obs.totalWavelengths = params.bandwidthSet.totalWavelengths;
  obs.photonicBitCapacity = static_cast<double>(obs.totalWavelengths) * kLambdaGbps * 1e9 *
                            params.clock.toSeconds(net.engine().stats().cycles);
  obs.latencyMin = window.latency.min();
  obs.packetsDelivered = window.packetsDelivered;
  obs.packetFlits = params.bandwidthSet.packetFlits;
  if (const auto* dhet = dynamic_cast<const pnoc::network::DhetpnocPolicy*>(&net.policy())) {
    for (std::uint32_t c = 0; c < clusters; ++c) {
      std::vector<std::uint64_t> owned;
      for (const auto& id : dhet->controller(c).ownedWavelengths()) {
        owned.push_back(static_cast<std::uint64_t>(id.waveguide) * 65536 + id.lambda);
      }
      obs.ownedWavelengths.push_back(std::move(owned));
    }
  }
  obs.acceptance = window.acceptance();
  obs.acceptanceFloor = acceptanceFloor;
  return obs;
}

Result runSimWorkload(const Options& options, bool saturation) {
  Result result;
  const pnoc::scenario::ScenarioSpec spec = simWorkloadSpec(saturation, options.seed);
  const double windowCycles =
      static_cast<double>(spec.params.warmupCycles + spec.params.measureCycles);
  // Low load runs at about a third of the knee paper_sweep finds, so the
  // network must accept essentially everything offered.
  const double floor = saturation ? 0.0 : 0.99;

  if (!options.trace) {
    // Independent replicas (seeds seed, seed+1, ...) run concurrently, one
    // per thread, as the workers of a sweep do; pooling their windows
    // averages out a slow core.
    std::vector<std::unique_ptr<PhotonicNetwork>> nets;
    for (int r = 0; r < kReplicas; ++r) {
      nets.push_back(std::make_unique<PhotonicNetwork>(
          simWorkloadSpec(saturation, options.seed + r).params));
    }
    const double setup = secondsSince(processStart());
    struct Replica {
      Result result;
      std::vector<double> windowMs;
      std::vector<double> windowCpuMs;
      std::string firstWindow;
    };
    std::vector<Replica> replicas(kReplicas);
    const auto drive = [&](int r) {
      PhotonicNetwork& net = *nets[r];
      Replica& rep = replicas[r];
      for (int w = 0; w < kPrefixWindows; ++w) {
        const RunMetrics m = net.run();
        ++rep.result.attempted;
        if (rep.firstWindow.empty()) rep.firstWindow = pnoc::scenario::wire::toJson(m);
        rep.result.check(checkSimWindow(observeNetwork(net, m, floor)));
      }
      const Clock::time_point start = Clock::now();
      while (secondsSince(start) < options.seconds) {
        const double cpu = threadCpuSeconds();
        const Clock::time_point w = Clock::now();
        const RunMetrics m = net.run();
        const double dt = secondsSince(w);
        rep.windowCpuMs.push_back((threadCpuSeconds() - cpu) * 1e3);
        rep.windowMs.push_back(dt * 1e3);
        ++rep.result.attempted;
        rep.result.check(checkSimWindow(observeNetwork(net, m, floor)));
      }
    };
    std::vector<std::thread> threads;
    for (int r = 0; r < kReplicas; ++r) threads.emplace_back(drive, r);
    for (std::thread& thread : threads) thread.join();
    const double rss = vmHwmMb(0);

    std::vector<double> windowMs;
    std::vector<double> windowCpuMs;
    for (const Replica& rep : replicas) {
      result.attempted += rep.result.attempted;
      result.check(rep.result.problems);
      windowMs.insert(windowMs.end(), rep.windowMs.begin(), rep.windowMs.end());
      windowCpuMs.insert(windowCpuMs.end(), rep.windowCpuMs.begin(), rep.windowCpuMs.end());
    }
    // The activity-gated engine must be bit-identical to polling every
    // component every cycle: replay the first replica's first window ungated.
    pnoc::network::SimulationParameters polled = spec.params;
    polled.activityGating = false;
    PhotonicNetwork reference(polled);
    result.check(checkSame("ungated first window", pnoc::scenario::wire::toJson(reference.run()),
                           replicas.front().firstWindow));

    result.add("setup_s", setup, "s");
    // The median window of all replicas: a window slowed by another tenant
    // of the host moves a mean, not the median.
    const double windowMsP50 = median(windowMs);
    result.add("sim_cycles_per_s", windowCycles / (windowMsP50 * 1e-3), "1/s");
    result.add("op_ms_p50", windowMsP50, "ms");
    result.add("op_cpu_ms", median(windowCpuMs), "ms");
    result.add("rss_peak_mb", rss, "MB");
    return result;
  }

  // Traced run: an untraced twin and a profiled, span-wrapped network run
  // the same windows alternately; their results must match byte for byte,
  // and the rate ratio is the tracing overhead.
  SpanLog log;
  const int root = log.begin(saturation ? "saturation" : "lowload", "perfbench");
  pnoc::network::SimulationParameters profiled = spec.params;
  profiled.profile = true;
  PhotonicNetwork plain(spec.params);
  ScopedSpan buildSpan(&log, "network.build", "network", root);
  PhotonicNetwork traced(profiled);
  const double buildSeconds = buildSpan.close();

  std::vector<double> plainRates;
  std::vector<double> tracedRates;
  std::vector<RunMetrics> windows;
  LayerTotals counted;
  double countedRunSeconds = 0.0;
  const Clock::time_point start = Clock::now();
  while (secondsSince(start) < options.seconds ||
         static_cast<int>(windows.size()) < kCountedWindows) {
    Clock::time_point w = Clock::now();
    const RunMetrics untracedWindow = plain.run();
    plainRates.push_back(windowCycles / secondsSince(w));
    ScopedSpan runSpan(&log, "network.run", "network", root);
    const RunMetrics m = traced.run();
    const double dt = runSpan.close();
    tracedRates.push_back(windowCycles / dt);
    ++result.attempted;
    result.check(checkSame("traced window " + std::to_string(windows.size()),
                           pnoc::scenario::wire::toJson(m),
                           pnoc::scenario::wire::toJson(untracedWindow)));
    result.check(checkSimWindow(observeNetwork(traced, m, floor)));
    windows.push_back(m);
    if (static_cast<int>(windows.size()) <= kCountedWindows) countedRunSeconds += dt;
    if (static_cast<int>(windows.size()) == kCountedWindows) counted.add(traced);
  }

  // Wire encode/decode of this workload's own results.
  std::vector<double> encodeUs;
  std::vector<double> decodeUs;
  for (const RunMetrics& m : windows) {
    ScopedSpan encode(&log, "wire.encode", "scenario", root);
    const std::string json = pnoc::scenario::wire::toJson(m);
    encodeUs.push_back(encode.close() * 1e6);
    ScopedSpan decode(&log, "wire.decode", "scenario", root);
    const RunMetrics back = pnoc::scenario::wire::runMetricsFromJson(json);
    decodeUs.push_back(decode.close() * 1e6);
    result.check(checkSame("wire round trip", pnoc::scenario::wire::toJson(back), json));
  }
  ScopedSpan resetSpan(&log, "network.reset", "network", root);
  traced.setOfferedLoad(spec.params.offeredLoad);
  traced.reset();
  const double resetSeconds = resetSpan.close();
  log.end(root);
  log.write(options.spanPath);

  addLayerMetrics(result, counted, countedRunSeconds);
  result.add("network.build_s", buildSeconds, "s");
  result.add("network.reset_s", resetSeconds, "s");
  result.add("scenario.wire_encode_us", median(encodeUs), "us");
  result.add("scenario.wire_decode_us", median(decodeUs), "us");
  result.add("obs.trace_overhead_ratio", median(plainRates) / median(tracedRates), "ratio");
  return result;
}

}  // namespace perfbench
