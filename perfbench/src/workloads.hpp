// The benchmark workloads (see perfbench/README.md for why each exists) and
// the helpers they share with the self-test.
#pragma once

#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "core/dba.hpp"
#include "metrics/saturation.hpp"
#include "network/network.hpp"
#include "obs/profiler.hpp"
#include "scenario/scenario_spec.hpp"

namespace perfbench {

/// `lowload` (uniform @ 0.001) or `saturation` (skewed-hotspot2 @ 0.02):
/// one long d-HetPNoC set-1 simulation measured in fixed-length run()
/// windows.
Result runSimWorkload(const Options& options, bool saturation);

/// `paper_sweep`: the Figure 3-3 grid of saturation searches through
/// pnoc_run, checked against an in-process recomputation.
Result runSweepWorkload(const Options& options);

/// `serve_tiny`: closed-loop clients submitting 4-unit grids to pnoc_serve.
Result runServeWorkload(const Options& options);

/// Negative tests: every output check fails on a perturbed copy of real
/// output.  Returns the number of checks that did not.
int runSelfTest(const Options& options);

/// The spec of a simulation workload window.
pnoc::scenario::ScenarioSpec simWorkloadSpec(bool saturation, std::uint64_t seed);

/// The observable state of `net` after a window with metrics `window`.
SimObservation observeNetwork(pnoc::network::PhotonicNetwork& net,
                              const pnoc::metrics::RunMetrics& window,
                              double acceptanceFloor);

/// Request counts of `spec`'s cores after one window on a network built
/// here; that window's wire JSON must equal `referenceJson` (runOne's),
/// else `problems` records the difference.
ServeObservation::Flows unitFlows(const pnoc::scenario::ScenarioSpec& spec,
                                  const std::string& referenceJson,
                                  std::vector<std::string>& problems);

/// Work counters and profiler attribution of networks pnoc_perf ran,
/// summed over add() calls (each reads a network's totals since its
/// construction or last reset()).
struct LayerTotals {
  pnoc::sim::EngineStats engine;
  std::uint64_t componentCycles = 0;  // cycles x components, for the park rate
  pnoc::obs::CycleProfiler::Snapshot profile;
  std::uint64_t reservationsIssued = 0;
  std::uint64_t reservationFailures = 0;
  std::uint64_t flitsDelivered = 0;
  pnoc::core::DbaStats dba;

  void add(pnoc::network::PhotonicNetwork& net);
};

/// The sim/noc/network/core per-layer metrics of `totals`; `runSeconds` is
/// the host time of the run() calls that produced them.
void addLayerMetrics(Result& result, const LayerTotals& totals, double runSeconds);

/// The Figure 3-3 grid: sets 1-3 x {uniform, skewed1-3} x {firefly,
/// dhetpnoc}, seed 7, default windows; `sets` limits it to the first sets.
std::vector<pnoc::scenario::ScenarioSpec> paperSweepGrid(int sets = 3);

/// The figure-set row of a search over `spec`.
PeakRow peakRow(const pnoc::scenario::ScenarioSpec& spec,
                const pnoc::metrics::PeakSearchResult& search);

}  // namespace perfbench
