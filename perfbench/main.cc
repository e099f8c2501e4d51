// perfbench: the repository benchmark (README.md). Runs one workload for
// --seconds, checks the program's outputs, and prints a host record line
// and then, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). perfbench/run.py builds this binary and calls it.

#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "perfbench/bench.h"
#include "util/flags.h"
#include "util/json.h"

namespace seemore {
namespace perfbench {

namespace {

/// Aggregate CPU time counters from the first line of /proc/stat:
/// (all fields summed, steal).
std::pair<double, double> ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double total = 0.0, steal = 0.0;
  for (int field = 0; field < 8 && in; ++field) {
    double value = 0.0;
    in >> value;
    total += value;
    if (field == 7) steal = value;
  }
  return {total, steal};
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

Json HostRecord(std::pair<double, double> ticks_before) {
  const std::pair<double, double> ticks_after = ReadCpuTicks();
  const double total = ticks_after.first - ticks_before.first;
  const double steal = ticks_after.second - ticks_before.second;
  utsname uts{};
  uname(&uts);
  Json host = Json::Object();
  host.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  host.Set("cpu_model", CpuModel());
  host.Set("kernel", std::string(uts.release));
  host.Set("steal_frac", total > 0 ? steal / total : 0.0);
  Json line = Json::Object();
  line.Set("host", std::move(host));
  return line;
}

void MakeDirs(const std::string& path) {
  for (size_t slash = path.find('/', 1); slash != std::string::npos;
       slash = path.find('/', slash + 1)) {
    mkdir(path.substr(0, slash).c_str(), 0755);
  }
  mkdir(path.c_str(), 0755);
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> kNames = {
      "throughput_kreqs", "latency_p50_ms", "cpu_us_per_req", "setup_s"};
  return kNames;
}

/// The result line. Values keep all their digits.
std::string ResultLine(const Outcome& out) {
  std::ostringstream line;
  line << "{\"correct\": " << (out.correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& metric = out.metrics[i];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    line << (i == 0 ? "" : ", ") << "\"" << metric.name
         << "\": {\"value\": " << value << ", \"unit\": \"" << metric.unit
         << "\"}";
  }
  line << "}}";
  return line.str();
}

int Main(int argc, char** argv) {
  FlagSet flags("perfbench: the repository benchmark (see README.md)");
  flags.AddString("workload", "",
                  "lion-echo-tcp | lion-kv-durable-tcp | paper-suite-sim");
  flags.AddInt("seed", 1, "input seed of the tcp workloads");
  flags.AddInt("seconds", 10, "measured seconds");
  flags.AddInt("trace", 0, "1 = the traced run (per-layer metrics)");
  flags.AddString("work-dir", ".bench_build/perfbench-work",
                  "working directory for node data and storage files");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  Options options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.seconds = static_cast<int>(flags.GetInt("seconds"));
  options.trace = flags.GetInt("trace") != 0;
  options.work_dir = flags.GetString("work-dir");
  if (options.seconds < 1 || options.seconds > 600) {
    std::fprintf(stderr, "--seconds must be in [1, 600]\n");
    return 2;
  }
  MakeDirs(options.work_dir);

  const std::pair<double, double> ticks_before = ReadCpuTicks();
  Outcome out;
  if (options.workload == "lion-echo-tcp") {
    out = RunTcpWorkload(options, /*durable_kv=*/false);
  } else if (options.workload == "lion-kv-durable-tcp") {
    out = RunTcpWorkload(options, /*durable_kv=*/true);
  } else if (options.workload == "paper-suite-sim") {
    out = RunSimSuite(options);
  } else {
    std::fprintf(stderr, "unknown --workload \"%s\"\n%s",
                 options.workload.c_str(), flags.Usage().c_str());
    return 2;
  }

  // Every run prints exactly the metric set BENCHMARK.json declares for its
  // mode, each a finite number.
  const std::vector<std::string>& expected =
      options.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  std::set<std::string> seen;
  for (Metric& metric : out.metrics) {
    seen.insert(metric.name);
    if (!std::isfinite(metric.value)) {
      out.Fail(metric.name + " is not a finite number");
      metric.value = 0.0;
    }
  }
  if (seen != std::set<std::string>(expected.begin(), expected.end()) ||
      seen.size() != out.metrics.size()) {
    std::fprintf(stderr, "perfbench: the run did not produce its metric set\n");
    return 1;
  }
  std::sort(out.metrics.begin(), out.metrics.end(),
            [&](const Metric& a, const Metric& b) {
              return std::find(expected.begin(), expected.end(), a.name) <
                     std::find(expected.begin(), expected.end(), b.name);
            });
  for (const std::string& error : out.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("%s\n", HostRecord(ticks_before).Dump().c_str());
  std::printf("%s\n", ResultLine(out).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace seemore

int main(int argc, char** argv) {
  return seemore::perfbench::Main(argc, argv);
}
