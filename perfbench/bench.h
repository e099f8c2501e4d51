// Shared pieces of the repository benchmark (README.md): the metric sink,
// process CPU readings, order statistics, and the entry points of the
// three workloads and of the traced per-layer pass.

#ifndef SEEMORE_PERFBENCH_BENCH_H_
#define SEEMORE_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "consensus/config.h"
#include "harness/cluster.h"
#include "scenario/engine.h"
#include "wire/wire.h"

namespace seemore {
namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run prints: the verdict, the operation counts and
/// the metrics (end-to-end untraced, per-layer traced).
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& error) {
    correct = false;
    errors.push_back(error);
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Working directory inside the checkout (node data directories, reports,
  /// the storage layer's files).
  std::string work_dir;
};

/// CPU time consumed so far, from getrusage.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;

  double total_s() const { return user_s + sys_s; }
  CpuTimes operator-(const CpuTimes& other) const {
    return {user_s - other.user_s, sys_s - other.sys_s,
            ctx_switches - other.ctx_switches};
  }
};
/// This process.
CpuTimes SelfCpu();
/// Every child this process has reaped (the node processes).
CpuTimes ChildCpu();

/// Monotonic wall clock in seconds.
double NowSeconds();

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);
double GeoMean(const std::vector<double>& values);
/// The best of a run's repetitions (largest or smallest). Interference
/// from other tenants of the host comes in regimes of several seconds that
/// slow every thread by up to 40%; the best repetition estimates the
/// program's own cost and varies far less from run to run than the median.
double Best(const std::vector<double>& values, bool higher_is_better);

/// The workloads (tcp.cc, sim_suite.cc).
Outcome RunTcpWorkload(const Options& options, bool durable_kv);
Outcome RunSimSuite(const Options& options);

class DeliveryTracer;

/// One simulated experiment as the benchmark saw it from outside.
struct ExperimentRun {
  scenario::ScenarioReport report;
  /// report.DeterministicJson(), dumped: equal across repeated executions.
  std::string deterministic;
  double wall_s = 0.0;
  /// RunScenario entry to the built cluster (validation + construction).
  double setup_s = 0.0;
  CpuTimes cpu;
  /// Largest per-replica counts at the end of the run.
  uint64_t executed = 0;
  uint64_t batches = 0;
  uint64_t view_changes = 0;
  /// Largest batches_committed when the measure window opened.
  uint64_t batches_at_warmup = 0;
  /// Summed over replicas.
  uint64_t messages_handled = 0;
  uint64_t wal_syncs = 0;
  uint64_t events = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_lookups = 0;
};

/// Run `spec` on the simulator, traced when `tracer` is non-null. Aborts
/// the benchmark on an invalid spec (the benchmark's specs are fixed).
ExperimentRun RunExperiment(const scenario::ScenarioSpec& spec,
                            DeliveryTracer* tracer);

/// Adds the per-layer metrics that come from simulated runs: consensus
/// handler time (from the traced runs), crypto memo, storage syncs, and the
/// sim/net counters, all per executed request over `runs`.
void AddSimLayerMetrics(const std::vector<ExperimentRun>& runs,
                        const DeliveryTracer& tracer, Outcome* out);

/// --- the traced pass (layers.cc) -----------------------------------------

/// One delivered message, kept as a sample of a workload's traffic.
struct MessageSample {
  ProtocolKind protocol = ProtocolKind::kSeeMoRe;
  Bytes payload;
};

/// Times replica and client message delivery in simulated runs and keeps
/// every `stride`-th delivered message (up to `cap` per run) as a traffic
/// sample.
/// Attach from ScenarioHooks::on_start; the tracer must outlive the run.
class DeliveryTracer {
 public:
  DeliveryTracer(size_t stride, size_t cap);
  ~DeliveryTracer();

  DeliveryTracer(const DeliveryTracer&) = delete;
  DeliveryTracer& operator=(const DeliveryTracer&) = delete;

  /// Wraps `cluster`'s replicas now and its clients at simulated time 0,
  /// once the engine has created them.
  void Attach(Cluster& cluster);

  double replica_ns() const { return replica_ns_; }
  uint64_t replica_messages() const { return replica_messages_; }
  double client_ns() const { return client_ns_; }
  const std::vector<MessageSample>& samples() const { return samples_; }

 private:
  class Wrapper;
  void Wrap(Cluster& cluster, PrincipalId id, MessageHandler* inner,
            bool client);

  const size_t stride_;
  const size_t cap_;
  std::vector<std::unique_ptr<Wrapper>> wrappers_;
  double replica_ns_ = 0.0;
  uint64_t replica_messages_ = 0;
  double client_ns_ = 0.0;
  uint64_t delivered_ = 0;
  /// Samples kept from the run being traced (the cap is per run).
  size_t run_samples_ = 0;
  std::vector<MessageSample> samples_;
};

/// Inputs shaped like one workload's traffic for the module timings.
struct LayerInputs {
  std::vector<MessageSample> messages;
  /// Client operations in the workload's mix.
  std::vector<Bytes> ops;
  /// Requests per committed batch (rounded up to at least 1).
  int reqs_per_batch = 1;
};

/// Times calls into each module's public functions on `inputs` and adds
/// rt.frame_*, wire.*, crypto.sign/verify/digest, smr.kv_apply_ns and
/// storage.append_us / storage.fsync_ms. Storage files go under `dir`.
void MeasureModules(const LayerInputs& inputs, const std::string& dir,
                    Outcome* out);

/// Every per-layer metric a traced run prints, in BENCHMARK.json order.
const std::vector<std::string>& PerLayerMetricNames();

}  // namespace perfbench
}  // namespace seemore

#endif  // SEEMORE_PERFBENCH_BENCH_H_
