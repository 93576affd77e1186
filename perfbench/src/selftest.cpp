// Negative tests of the output checks: each check passes on real output of
// the program and fails on a copy with one perturbation (a changed counter,
// a shifted peak, a dropped record).
#include <cstdio>

#include "metrics/saturation.hpp"
#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Tally {
  int misses = 0;

  void pass(const char* what, const std::vector<std::string>& problems) {
    if (problems.empty()) {
      std::printf("ok    %s passes on real output\n", what);
      return;
    }
    std::printf("MISS  %s fails on real output: %s\n", what, problems.front().c_str());
    ++misses;
  }
  void fail(const char* what, const std::vector<std::string>& problems) {
    if (!problems.empty()) {
      std::printf("ok    %s -> %s\n", what, problems.front().c_str());
      return;
    }
    std::printf("MISS  %s was not detected\n", what);
    ++misses;
  }
};

std::string peakRecord(const pnoc::scenario::ScenarioSpec& spec,
                       const pnoc::metrics::PeakSearchResult& search, std::size_t index) {
  pnoc::scenario::ScenarioOutcome outcome;
  outcome.op = pnoc::scenario::ScenarioJob::Op::kFindPeak;
  outcome.spec = spec;
  outcome.search = search;
  return pnoc::scenario::dispatch::serializedOutcomeRecord(outcome, index);
}

}  // namespace

int runSelfTest(const Options& /*options*/) {
  Tally t;

  // Simulation windows: a shortened lowload window of the real network.
  pnoc::scenario::ScenarioSpec spec = simWorkloadSpec(false, 1);
  spec.set("warmup", "2000");
  spec.set("measure", "18000");
  pnoc::network::PhotonicNetwork net(spec.params);
  const pnoc::metrics::RunMetrics window = net.run();
  const SimObservation real = observeNetwork(net, window, 0.99);
  t.pass("sim window checks", checkSimWindow(real));
  const auto perturbed = [&](const char* what, auto change) {
    SimObservation copy = real;
    change(copy);
    t.fail(what, checkSimWindow(copy));
  };
  perturbed("injected flit count +1", [](SimObservation& o) { ++o.flitsInjected; });
  perturbed("photonic bits above capacity",
            [](SimObservation& o) { o.photonicBits = o.photonicBitCapacity * 1.01; });
  perturbed("two reservations in flight on one channel",
            [](SimObservation& o) { o.routers[0].issued += 2; });
  perturbed("more packets sent than reserved",
            [](SimObservation& o) { o.routers[0].transmitted += 1; });
  perturbed("latency below flit count",
            [](SimObservation& o) { o.latencyMin = o.packetFlits - 1; });
  perturbed("wavelength owned twice", [](SimObservation& o) {
    o.ownedWavelengths[1].push_back(o.ownedWavelengths[0].front());
  });
  perturbed("more wavelengths owned than the set has",
            [](SimObservation& o) { o.totalWavelengths = 1; });
  perturbed("low-load acceptance below 0.99", [](SimObservation& o) { o.acceptance = 0.98; });
  const std::string json = pnoc::scenario::wire::toJson(window);
  pnoc::metrics::RunMetrics changed = window;
  ++changed.packetsDelivered;
  t.pass("gated vs ungated window", checkSame("window", json, json));
  t.fail("ungated window with a changed counter",
         checkSame("window", pnoc::scenario::wire::toJson(changed), json));

  // Figure-set shape and streamed records: real set-1 searches.
  const std::vector<pnoc::scenario::ScenarioSpec> grid = paperSweepGrid(1);
  std::vector<pnoc::metrics::PeakSearchResult> searches;
  std::vector<PeakRow> rows;
  std::vector<std::string> want;
  std::vector<std::optional<std::string>> got;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    searches.push_back(pnoc::scenario::ScenarioRunner::findPeakOne(grid[i]));
    rows.push_back(peakRow(grid[i], searches.back()));
    want.push_back(peakRecord(grid[i], searches.back(), i));
    got.emplace_back(want.back());
  }
  t.pass("sweep shape", checkSweepShape(rows, 0.90));
  t.pass("streamed records", checkRecords("sweep", got, want));
  const auto shape = [&](const char* what, auto change) {
    std::vector<PeakRow> copy = rows;
    change(copy);
    t.fail(what, checkSweepShape(copy, 0.90));
  };
  // Rows alternate firefly, dhetpnoc per pattern: 0/1 uniform, 4/5 skewed2.
  shape("d-HetPNoC skewed peak shifted below Firefly",
        [](std::vector<PeakRow>& r) { r[5].gbps = r[4].gbps * 0.99; });
  shape("uniform peaks 3% apart", [](std::vector<PeakRow>& r) { r[1].gbps = r[0].gbps * 1.03; });
  shape("zero peak of an unbracketed search", [](std::vector<PeakRow>& r) {
    r[4].gbps = 0.0;
    r[4].load = 0.0;
  });
  shape("peak below the acceptance floor",
        [](std::vector<PeakRow>& r) { r[2].acceptance = 0.89; });
  {
    auto copy = got;
    copy[3].reset();
    t.fail("dropped streamed record", checkRecords("sweep", copy, want));
  }
  {
    auto copy = got;
    copy.pop_back();
    t.fail("streamed file one record short", checkRecords("sweep", copy, want));
  }
  {
    pnoc::metrics::PeakSearchResult shifted = searches[2];
    shifted.peak.offeredLoad *= 1.001;
    auto copy = got;
    copy[2] = peakRecord(grid[2], shifted, 2);
    t.fail("streamed record with a shifted peak", checkRecords("sweep", copy, want));
  }

  // Serve records and session counters.
  pnoc::scenario::ScenarioSpec unit;
  unit.set("workload", "closed:window=2");
  unit.set("warmup", "100");
  unit.set("measure", "500");
  pnoc::scenario::ScenarioOutcome outcome;
  outcome.spec = unit;
  outcome.metrics = pnoc::scenario::ScenarioRunner::runOne(unit);
  std::vector<std::string> unitProblems;
  const ServeObservation::Flows flows =
      unitFlows(unit, pnoc::scenario::wire::toJson(outcome.metrics), unitProblems);
  t.pass("serve unit network equals runOne", unitProblems);
  const std::string record = pnoc::scenario::dispatch::serializedOutcomeRecord(outcome, 0);
  ++outcome.metrics.requestsCompleted;
  const std::string changedRecord =
      pnoc::scenario::dispatch::serializedOutcomeRecord(outcome, 0);
  t.pass("serve unit record", checkRecords("unit", {record}, {record}));
  t.fail("serve unit record with a changed counter",
         checkRecords("unit", {changedRecord}, {record}));
  t.fail("serve unit record dropped", checkRecords("unit", {std::nullopt}, {record}));
  ServeObservation session;
  session.unitsSubmitted = 8;
  session.unitsCompletedByDaemon = 8;
  session.closedLoop = {flows};
  t.pass("serve session", checkServe(session));
  const auto serve = [&](const char* what, auto change) {
    ServeObservation copy = session;
    change(copy);
    t.fail(what, checkServe(copy));
  };
  serve("daemon completed one unit fewer", [](ServeObservation& o) { --o.unitsCompletedByDaemon; });
  serve("one failed unit", [](ServeObservation& o) { o.failedUnits = 1; });
  serve("closed loop completed more than issued", [](ServeObservation& o) {
    auto& f = o.closedLoop.front();
    f.completed = f.issued + 1;
  });

  std::printf("%s: %d check(s) missed\n", t.misses == 0 ? "selftest passed" : "SELFTEST FAILED",
              t.misses);
  return t.misses;
}

}  // namespace perfbench
