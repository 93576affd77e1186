// Shared pieces of the pnoc_perf benchmark program: options, the result
// record every workload fills, sample statistics, the in-memory span log of
// the traced run, child-process control, and readers for the program's own
// outputs (Chrome-trace span files, /proc status).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `start` to now.
double secondsSince(Clock::time_point start);

/// When this process started running (captured before main by a static
/// initializer); the origin of every cold set-up time.
Clock::time_point processStart();

/// CPU time consumed by the calling thread so far, in seconds.
double threadCpuSeconds();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding pnoc_run and pnoc_serve.
  std::string binDir;
  /// Scratch directory for this run (grids, BENCH files, sockets, spans);
  /// relative to the working directory so socket paths stay short.
  std::string workDir;
  /// Where the traced run writes pnoc_perf's own spans.
  std::string spanPath;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: operations attempted/failed, failed
/// correctness checks, and its metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void check(const std::vector<std::string>& found) {
    problems.insert(problems.end(), found.begin(), found.end());
  }
  /// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string toJson() const;
};

// --- sample statistics ---

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> values);
/// Nearest-rank quantile, q in (0, 1]; 0 for no samples.
double quantile(std::vector<double> values, double q);
/// Quantile q when at least ten samples lie beyond it, else the median.
double tailOrMedian(const std::vector<double>& values, double q);

// --- spans of the traced run ---

/// Spans recorded around pnoc_perf's calls into each layer.  Kept in
/// memory; write() emits them as Chrome-trace JSON when the run ends.
class SpanLog {
 public:
  /// Opens a span and returns its id; `parent` is the id of the span that
  /// caused it (-1: none).
  int begin(const std::string& name, const std::string& layer, int parent = -1);
  /// Closes span `id` and returns its duration in seconds.
  double end(int id);
  /// Durations (seconds) of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    bool closed = false;
  };
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction when `log` is
/// non-null; close() ends it early and returns its duration in seconds.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, const std::string& layer,
             int parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }
  double close();

 private:
  SpanLog* log_;
  int id_ = -1;
  double seconds_ = 0.0;
};

// --- child processes ---

/// Starts `argv` with stdout and stderr appended to `logPath`; throws
/// std::runtime_error when the process cannot be started.
pid_t spawnProcess(const std::vector<std::string>& argv, const std::string& logPath);

struct ExitInfo {
  bool exited = false;   // false: killed after the timeout
  int exitCode = -1;     // valid when exited normally
  double cpuSeconds = 0.0;  // user + system, the child and its reaped children
  double maxRssMb = 0.0;    // largest resident set among them
};

/// Waits up to `timeoutSeconds` for `pid`, then SIGKILLs and reaps it.
ExitInfo waitProcess(pid_t pid, double timeoutSeconds);

/// Resident-set high-water mark (VmHWM) of a live process, in MB; 0 when
/// unreadable.  `pid` 0 reads this process.
double vmHwmMb(pid_t pid);

// --- files ---

std::string readFile(const std::string& path);
void writeFile(const std::string& path, const std::string& text);
void makeDirs(const std::string& path);
void removeTree(const std::string& path);

/// Durations (seconds) by span name from a Chrome-trace file the program
/// wrote (trace=): B/E pairs matched per thread, b/e async pairs by
/// (name, category, id).
std::map<std::string, std::vector<double>> readChromeTraceDurations(
    const std::string& path);

}  // namespace perfbench
