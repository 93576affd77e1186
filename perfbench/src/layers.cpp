// Per-layer counters read from outside: engine stats, the cycle profiler's
// phase/kind attribution, photonic router and DBA controller statistics.
#include "network/channel_policy.hpp"
#include "workloads.hpp"

namespace perfbench {

using pnoc::obs::ComponentKind;

void LayerTotals::add(pnoc::network::PhotonicNetwork& net) {
  const pnoc::sim::EngineStats s = net.engine().stats();
  engine.cycles += s.cycles;
  engine.componentSteps += s.componentSteps;
  engine.wakes += s.wakes;
  engine.timersScheduled += s.timersScheduled;
  engine.timersFired += s.timersFired;
  componentCycles += s.cycles * net.engine().componentCount();
  if (net.profiler() != nullptr) {
    const auto p = net.profiler()->snapshot();
    profile.cycles += p.cycles;
    for (std::size_t i = 0; i < p.phaseNs.size(); ++i) profile.phaseNs[i] += p.phaseNs[i];
    for (std::size_t i = 0; i < p.kindNs.size(); ++i) {
      profile.kindNs[i] += p.kindNs[i];
      profile.kindSteps[i] += p.kindSteps[i];
    }
  }
  const std::uint32_t clusters = net.params().numClusters();
  for (std::uint32_t c = 0; c < clusters; ++c) {
    reservationsIssued += net.photonicRouter(c).stats().reservationsIssued;
    reservationFailures += net.photonicRouter(c).stats().reservationFailures;
  }
  flitsDelivered += net.totalFlitsEjected();
  if (const auto* dhet = dynamic_cast<const pnoc::network::DhetpnocPolicy*>(&net.policy())) {
    for (std::uint32_t c = 0; c < clusters; ++c) {
      const pnoc::core::DbaStats& d = dhet->controller(c).stats();
      dba.tokenVisits += d.tokenVisits;
      dba.acquisitions += d.acquisitions;
      dba.releases += d.releases;
      dba.shortfallVisits += d.shortfallVisits;
    }
  }
}

void addLayerMetrics(Result& result, const LayerTotals& totals, double runSeconds) {
  const auto& p = totals.profile;
  const auto kindSeconds = [&p](ComponentKind k) {
    return static_cast<double>(p.kindNs[static_cast<std::size_t>(k)]) * 1e-9;
  };
  const auto kindSteps = [&p](ComponentKind k) {
    return static_cast<double>(p.kindSteps[static_cast<std::size_t>(k)]);
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const double steps = count(totals.engine.componentSteps);
  result.add("sim.component_steps", steps, "count");
  result.add("sim.wakes", count(totals.engine.wakes), "count");
  result.add("sim.timers_fired", count(totals.engine.timersFired), "count");
  result.add("sim.park_rate",
             totals.componentCycles == 0 ? 0.0 : 1.0 - steps / count(totals.componentCycles),
             "ratio");
  result.add("sim.host_ns_per_step", steps == 0 ? 0.0 : runSeconds * 1e9 / steps, "ns");
  static const char* kPhases[] = {"timer_expire", "wake_drain", "evaluate", "advance",
                                  "park_scan"};
  for (std::size_t i = 0; i < p.phaseNs.size(); ++i) {
    result.add(std::string("sim.phase.") + kPhases[i] + "_s",
               static_cast<double>(p.phaseNs[i]) * 1e-9, "s");
  }
  result.add("noc.electrical_router_s", kindSeconds(ComponentKind::kElectricalRouter), "s");
  result.add("noc.electrical_router_steps", kindSteps(ComponentKind::kElectricalRouter),
             "count");
  result.add("noc.link_s", kindSeconds(ComponentKind::kLink), "s");
  result.add("noc.link_steps", kindSteps(ComponentKind::kLink), "count");
  result.add("network.photonic_router_s", kindSeconds(ComponentKind::kPhotonicRouter), "s");
  result.add("network.photonic_router_steps", kindSteps(ComponentKind::kPhotonicRouter),
             "count");
  result.add("network.core_s", kindSeconds(ComponentKind::kCore), "s");
  result.add("network.core_steps", kindSteps(ComponentKind::kCore), "count");
  result.add("network.reservations_issued", count(totals.reservationsIssued), "count");
  result.add("network.reservation_failures", count(totals.reservationFailures), "count");
  result.add("network.reservation_success_ratio",
             totals.reservationsIssued == 0
                 ? 0.0
                 : 1.0 - count(totals.reservationFailures) / count(totals.reservationsIssued),
             "ratio");
  result.add("network.flits_delivered", count(totals.flitsDelivered), "count");
  result.add("core.policy_s", kindSeconds(ComponentKind::kPolicy), "s");
  result.add("core.policy_steps", kindSteps(ComponentKind::kPolicy), "count");
  result.add("core.token_visits", count(totals.dba.tokenVisits), "count");
  result.add("core.dba_acquisitions", count(totals.dba.acquisitions), "count");
  result.add("core.dba_releases", count(totals.dba.releases), "count");
  result.add("core.dba_shortfall_visits", count(totals.dba.shortfallVisits), "count");
}

}  // namespace perfbench
