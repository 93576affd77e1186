#include "checks.hpp"

#include <cmath>
#include <set>

namespace perfbench {

namespace {

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

}  // namespace

std::vector<std::string> checkSimWindow(const SimObservation& obs) {
  std::vector<std::string> out;
  if (obs.flitsInjected != obs.flitsEjected + obs.occupancy) {
    out.push_back("flit conservation: injected " + std::to_string(obs.flitsInjected) +
                  " != ejected " + std::to_string(obs.flitsEjected) + " + in flight " +
                  std::to_string(obs.occupancy));
  }
  if (obs.photonicBits > obs.photonicBitCapacity) {
    out.push_back("photonic bits " + num(obs.photonicBits) + " exceed capacity " +
                  num(obs.photonicBitCapacity));
  }
  for (std::size_t r = 0; r < obs.routers.size(); ++r) {
    const ReservationCounts& c = obs.routers[r];
    // One write channel per router: at most one reservation is granted and
    // not yet finished by a tail flit.
    const bool ordered = c.failures <= c.issued && c.transmitted <= c.issued - c.failures;
    if (!ordered || c.issued - c.failures - c.transmitted > 1) {
      out.push_back("router " + std::to_string(r) + ": reservations issued " +
                    std::to_string(c.issued) + " - failed " + std::to_string(c.failures) +
                    " - transmitted " + std::to_string(c.transmitted) +
                    " is not 0 or 1 channel in flight");
    }
  }
  if (obs.packetsDelivered > 0 && obs.latencyMin < obs.packetFlits) {
    out.push_back("a packet latency " + std::to_string(obs.latencyMin) +
                  " is below its " + std::to_string(obs.packetFlits) + " flits");
  }
  if (!obs.ownedWavelengths.empty()) {
    std::set<std::uint64_t> seen;
    std::size_t owned = 0;
    for (const auto& cluster : obs.ownedWavelengths) {
      for (const std::uint64_t id : cluster) {
        ++owned;
        if (!seen.insert(id).second) {
          out.push_back("wavelength " + std::to_string(id) + " owned by two clusters");
        }
      }
    }
    if (owned > obs.totalWavelengths) {
      out.push_back("clusters own " + std::to_string(owned) + " wavelengths, set has " +
                    std::to_string(obs.totalWavelengths));
    }
  }
  if (obs.acceptance < obs.acceptanceFloor) {
    out.push_back("acceptance " + num(obs.acceptance) + " below " +
                  num(obs.acceptanceFloor));
  }
  return out;
}

std::vector<std::string> checkSame(const std::string& what, const std::string& got,
                                   const std::string& want) {
  if (got == want) return {};
  return {what + " differs: got " + got.substr(0, 160) + " want " + want.substr(0, 160)};
}

std::vector<std::string> checkSweepShape(const std::vector<PeakRow>& rows,
                                         double acceptanceFloor) {
  std::vector<std::string> out;
  for (const PeakRow& row : rows) {
    const std::string id =
        row.arch + " set " + std::to_string(row.set) + " " + row.pattern;
    if (!(row.gbps > 0.0) || !(row.load > 0.0)) {
      out.push_back(id + ": peak " + num(row.gbps) + " Gb/s at load " + num(row.load) +
                    " is not above 0");
    }
    if (row.acceptance < acceptanceFloor) {
      out.push_back(id + ": peak acceptance " + num(row.acceptance) + " below floor");
    }
  }
  for (const PeakRow& dhet : rows) {
    if (dhet.arch != "dhetpnoc") continue;
    for (const PeakRow& ff : rows) {
      if (ff.arch != "firefly" || ff.set != dhet.set || ff.pattern != dhet.pattern) {
        continue;
      }
      const std::string id = "set " + std::to_string(dhet.set) + " " + dhet.pattern;
      if (dhet.pattern == "uniform") {
        if (std::fabs(dhet.gbps - ff.gbps) > 0.02 * ff.gbps) {
          out.push_back(id + ": d-HetPNoC " + num(dhet.gbps) + " Gb/s not within 2% of "
                        "Firefly " + num(ff.gbps));
        }
      } else if (dhet.gbps < ff.gbps) {
        out.push_back(id + ": d-HetPNoC " + num(dhet.gbps) + " Gb/s below Firefly " +
                      num(ff.gbps));
      }
    }
  }
  return out;
}

std::vector<std::string> checkRecords(const std::string& what,
                                      const std::vector<std::optional<std::string>>& got,
                                      const std::vector<std::string>& want) {
  std::vector<std::string> out;
  if (got.size() != want.size()) {
    out.push_back(what + ": " + std::to_string(got.size()) + " records, want " +
                  std::to_string(want.size()));
    return out;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!got[i]) {
      out.push_back(what + ": record " + std::to_string(i) + " missing");
    } else {
      const auto diff = checkSame(what + " record " + std::to_string(i), *got[i], want[i]);
      out.insert(out.end(), diff.begin(), diff.end());
    }
  }
  return out;
}

std::vector<std::string> checkServe(const ServeObservation& obs) {
  std::vector<std::string> out;
  if (obs.unitsCompletedByDaemon != obs.unitsSubmitted) {
    out.push_back("daemon completed " + std::to_string(obs.unitsCompletedByDaemon) +
                  " units, clients submitted " + std::to_string(obs.unitsSubmitted));
  }
  if (obs.failedUnits != 0) {
    out.push_back(std::to_string(obs.failedUnits) + " unit(s) failed");
  }
  for (const ServeObservation::Flows& f : obs.closedLoop) {
    if (f.completed > f.issued) {
      out.push_back("closed-loop unit completed " + std::to_string(f.completed) +
                    " requests, more than the " + std::to_string(f.issued) + " issued");
    }
  }
  return out;
}

}  // namespace perfbench
