// Output checks of the benchmark.  Each takes the program's observable
// outputs as plain data and returns one message per violated property
// (empty: correct), so the self-test can feed each a perturbed copy of real
// output and show that it fails.  Every check compares against a property
// of the model or an independently computed result, never a stored copy of
// an earlier output.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// One photonic router's cumulative reservation counters.
struct ReservationCounts {
  std::uint64_t issued = 0;
  std::uint64_t failures = 0;
  std::uint64_t transmitted = 0;
};

/// What a full-system run exposes after one measurement window.
struct SimObservation {
  std::uint64_t flitsInjected = 0;
  std::uint64_t flitsEjected = 0;
  std::uint64_t occupancy = 0;
  /// Bits every photonic router transmitted since construction, and the
  /// most the set's wavelengths can carry in that time (12.5 Gb/s each).
  double photonicBits = 0.0;
  double photonicBitCapacity = 0.0;
  std::vector<ReservationCounts> routers;
  /// Smallest packet latency of the window (cycles) and the packet length.
  std::uint64_t latencyMin = 0;
  std::uint64_t packetsDelivered = 0;
  std::uint32_t packetFlits = 0;
  /// d-HetPNoC only: each cluster's owned wavelengths as waveguide*65536 +
  /// lambda (empty for Firefly), and the set's total.
  std::vector<std::vector<std::uint64_t>> ownedWavelengths;
  std::uint32_t totalWavelengths = 0;
  /// Window acceptance and the floor it must meet (0: no floor).
  double acceptance = 0.0;
  double acceptanceFloor = 0.0;
};

std::vector<std::string> checkSimWindow(const SimObservation& obs);

/// `got` must equal `want` byte for byte.
std::vector<std::string> checkSame(const std::string& what, const std::string& got,
                                   const std::string& want);

/// One saturation search's outcome as the figure set reports it.
struct PeakRow {
  std::string arch;
  std::string pattern;
  int set = 0;
  double load = 0.0;
  double gbps = 0.0;
  double acceptance = 0.0;
};

/// Every peak positive and meeting the acceptance floor; d-HetPNoC's peak
/// at least Firefly's on skewed patterns and within 2% on uniform.
std::vector<std::string> checkSweepShape(const std::vector<PeakRow>& rows,
                                         double acceptanceFloor);

/// The program's records (by grid index; nullopt: missing) must equal the
/// independently computed ones.
std::vector<std::string> checkRecords(const std::string& what,
                                      const std::vector<std::optional<std::string>>& got,
                                      const std::vector<std::string>& want);

/// What a serve session exposes at its end.
struct ServeObservation {
  std::uint64_t unitsSubmitted = 0;
  std::uint64_t unitsCompletedByDaemon = 0;  // fleet_units_completed_total
  std::uint64_t failedUnits = 0;
  /// Request counts of every unit spec's network since its construction,
  /// summed over its cores (zero in open loop).
  struct Flows {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
  };
  std::vector<Flows> closedLoop;
};

std::vector<std::string> checkServe(const ServeObservation& obs);

}  // namespace perfbench
