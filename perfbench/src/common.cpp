#include "common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "scenario/json_util.hpp"

extern char** environ;

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

double timevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string formatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Clock::time_point processStart() { return kProcessStart; }

double threadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string Result::toJson() const {
  std::string out = "{\"correct\": ";
  out += problems.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           formatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double tailOrMedian(const std::vector<double>& values, double q) {
  const double beyond = (1.0 - q) * static_cast<double>(values.size());
  return beyond >= 10.0 ? quantile(values, q) : median(values);
}

int SpanLog::begin(const std::string& name, const std::string& layer, int parent) {
  spans_.push_back(Span{name, layer, parent, Clock::now(), {}, false});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::end(int id) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end = Clock::now();
  span.closed = true;
  return std::chrono::duration<double>(span.end - span.start).count();
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.closed && span.name == name) {
      out.push_back(std::chrono::duration<double>(span.end - span.start).count());
    }
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  // Complete events ("X") with the causing span as an argument; one track.
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!span.closed) continue;
    const double ts =
        std::chrono::duration<double, std::micro>(span.start - kProcessStart).count();
    const double dur =
        std::chrono::duration<double, std::micro>(span.end - span.start).count();
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\""
        << pnoc::scenario::jsonEscape(span.name) << "\",\"cat\":\""
        << pnoc::scenario::jsonEscape(span.layer) << "\",\"ts\":" << formatNumber(ts)
        << ",\"dur\":" << formatNumber(dur) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << "}}";
  }
  out << "\n]}\n";
  std::ofstream file(path);
  file << out.str();
  return static_cast<bool>(file);
}

ScopedSpan::ScopedSpan(SpanLog* log, const std::string& name,
                       const std::string& layer, int parent)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->begin(name, layer, parent);
}

ScopedSpan::~ScopedSpan() { close(); }

double ScopedSpan::close() {
  if (log_ != nullptr && id_ >= 0) {
    seconds_ = log_->end(id_);
    id_ = -1;
  }
  return seconds_;
}

pid_t spawnProcess(const std::vector<std::string>& argv, const std::string& logPath) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, logPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
  }
  return pid;
}

ExitInfo waitProcess(pid_t pid, double timeoutSeconds) {
  ExitInfo info;
  const Clock::time_point start = Clock::now();
  int status = 0;
  rusage usage{};
  while (true) {
    const pid_t done = ::wait4(pid, &status, WNOHANG, &usage);
    if (done == pid) break;
    if (done < 0) return info;
    if (secondsSince(start) > timeoutSeconds) {
      ::kill(pid, SIGKILL);
      ::wait4(pid, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  info.exited = WIFEXITED(status);
  info.exitCode = info.exited ? WEXITSTATUS(status) : -1;
  info.cpuSeconds = timevalSeconds(usage.ru_utime) + timevalSeconds(usage.ru_stime);
  info.maxRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return info;
}

double vmHwmMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string readFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  file << text;
  if (!file) throw std::runtime_error("cannot write " + path);
}

void makeDirs(const std::string& path) { std::filesystem::create_directories(path); }

void removeTree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

std::map<std::string, std::vector<double>> readChromeTraceDurations(
    const std::string& path) {
  using pnoc::scenario::JsonValue;
  const JsonValue root = JsonValue::parse(readFile(path));
  std::map<std::string, std::vector<double>> out;
  std::map<std::string, std::vector<std::pair<std::string, double>>> stacks;  // by pid/tid
  std::map<std::string, double> open;  // async spans by name/cat/id
  for (const JsonValue& event : root.at("traceEvents").items()) {
    const std::string ph = event.at("ph").asString();
    if (ph != "B" && ph != "E" && ph != "b" && ph != "e") continue;
    const double ts = event.at("ts").asDouble();
    if (ph == "B" || ph == "E") {
      const std::string thread = event.at("pid").raw() + "/" + event.at("tid").raw();
      auto& stack = stacks[thread];
      if (ph == "B") {
        stack.emplace_back(event.at("name").asString(), ts);
      } else if (!stack.empty()) {
        out[stack.back().first].push_back((ts - stack.back().second) * 1e-6);
        stack.pop_back();
      }
      continue;
    }
    const std::string key = event.at("pid").raw() + "\n" + event.at("name").asString() + "\n" +
                            event.at("cat").asString() + "\n" +
                            event.at("id").asString();
    if (ph == "b") {
      open[key] = ts;
    } else if (const auto it = open.find(key); it != open.end()) {
      out[event.at("name").asString()].push_back((ts - it->second) * 1e-6);
      open.erase(it);
    }
  }
  return out;
}

}  // namespace perfbench
