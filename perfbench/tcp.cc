// lion-echo-tcp and lion-kv-durable-tcp: SeeMoRe Lion at c=m=1 as six real
// seemore_node processes on loopback, driven by four closed-loop clients
// that this process hosts on its single event-loop thread
// (rt::RunTcpScenario).

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "perfbench/bench.h"
#include "perfbench/checks.h"
#include "rt/launcher.h"
#include "scenario/builder.h"
#include "scenario/registry.h"

namespace seemore {
namespace perfbench {
namespace {

constexpr int kClients = 4;
/// Measured passes per run. Each pass is a fresh cluster, so each one also
/// gives one set-up sample.
constexpr int kPasses = 10;
constexpr double kWarmPassSeconds = 1.0;

scenario::ScenarioSpec WorkloadSpec(bool durable_kv, uint64_t seed) {
  Result<scenario::ScenarioSpec> base =
      scenario::PaperSystemSpec("Lion", /*c=*/1, /*m=*/1, seed);
  if (!base.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", base.status().ToString().c_str());
    std::exit(2);
  }
  scenario::ScenarioBuilder builder(*std::move(base));
  builder.Name(durable_kv ? "lion-kv-durable-tcp" : "lion-echo-tcp")
      .Backend(scenario::BackendKind::kTcp)
      .Clients(kClients)
      // The whole load period is measured, so the clients' completions
      // count every request (see CheckTcpReport); the unmeasured warm pass
      // that opens each run does the warming up.
      .Warmup(0)
      .Drain(Millis(300))
      .CheckConvergence();
  if (durable_kv) {
    // The program's KV mix, durability at its defaults: fsync every commit
    // record, 64 KiB segments.
    builder.Kv(/*keys=*/128, /*put_fraction=*/0.5).Durability();
  } else {
    builder.Echo(0, 0);
  }
  return builder.spec();
}

struct Pass {
  rt::TcpRunReport report;
  double setup_s = 0.0;
  CpuTimes self;
  CpuTimes nodes;
  /// Largest per-node counts.
  double executed = 0;
  double batches = 0;
  double view_changes = 0;
  double messages_handled = 0;  // summed over nodes
};

double NodeStat(const Json& node, const char* key) {
  const Json* stats = node.Find("stats");
  const Json* value = stats != nullptr ? stats->Find(key) : nullptr;
  return value != nullptr && value->is_number() ? value->AsDouble() : 0.0;
}

double NetField(const Json& net, const char* key) {
  const Json* field = net.Find(key);
  return field != nullptr && field->is_number() ? field->AsDouble() : 0.0;
}

/// One cluster from spawn to reap. Exits the benchmark when the cluster
/// cannot be run at all; a run whose checks fail is reported through `out`.
Pass RunPass(scenario::ScenarioSpec spec, double seconds, int index,
             const Options& options, Outcome* out) {
  spec.plan.measure = static_cast<SimTime>(seconds * kNanosPerSecond);
  rt::LauncherOptions launcher;
  launcher.work_dir = options.work_dir + "/pass-" + std::to_string(index);
  // A fresh port range per pass keeps one pass's closing sockets out of
  // the next pass's way.
  launcher.base_port = static_cast<uint16_t>(19300 + 10 * (index % 16));

  Pass pass;
  const CpuTimes self_before = SelfCpu();
  const CpuTimes nodes_before = ChildCpu();
  const double start = NowSeconds();
  Result<rt::TcpRunReport> report = rt::RunTcpScenario(spec, launcher);
  const double wall_s = NowSeconds() - start;
  pass.self = SelfCpu() - self_before;
  pass.nodes = ChildCpu() - nodes_before;
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s pass %d: %s\n", spec.name.c_str(),
                 index, report.status().ToString().c_str());
    std::exit(2);
  }
  pass.report = *std::move(report);
  pass.setup_s = wall_s - pass.report.result.wall_time_ms / 1e3;
  for (const Json& node : pass.report.nodes) {
    pass.executed = std::max(pass.executed, NodeStat(node, "requests_executed"));
    pass.batches = std::max(pass.batches, NodeStat(node, "batches_committed"));
    pass.view_changes =
        std::max(pass.view_changes, NodeStat(node, "view_changes_completed"));
    pass.messages_handled += NodeStat(node, "messages_handled");
  }
  const Status checked = CheckTcpReport(pass.report, spec.clients);
  if (!checked.ok()) {
    out->Fail(spec.name + " pass " + std::to_string(index) + ": " +
              checked.ToString());
  }
  std::fprintf(stderr,
               "perfbench: %s pass %d: %.2f kreq/s p50 %.3f ms, %.0f "
               "requests, set-up %.3f s\n",
               spec.name.c_str(), index, pass.report.result.throughput_kreqs,
               pass.report.result.p50_latency_ms, pass.executed,
               pass.setup_s);
  return pass;
}

template <typename F>
std::vector<double> Each(const std::vector<Pass>& passes, F f) {
  std::vector<double> values;
  for (const Pass& pass : passes) values.push_back(f(pass));
  return values;
}

/// Median over passes of f(pass).
template <typename F>
double OverPasses(const std::vector<Pass>& passes, F f) {
  return Median(Each(passes, f));
}

/// The traced part of a tcp run: the same spec on the simulator (same
/// clients, op mix and durability, the registry's paper network), run
/// untraced and traced in alternation; then the module timings on the
/// traffic the traced runs delivered.
void TraceShadow(const scenario::ScenarioSpec& tcp_spec, const Options& options,
                 double reqs_per_batch, Outcome* out) {
  scenario::ScenarioSpec spec = tcp_spec;
  spec.backend = scenario::BackendKind::kSim;
  spec.plan.warmup = Millis(100);
  spec.plan.measure = Millis(500);

  DeliveryTracer tracer(/*stride=*/8, /*cap=*/2000);
  std::vector<ExperimentRun> untraced;
  std::vector<double> overhead;
  for (int i = 0; i < 3; ++i) {
    untraced.push_back(RunExperiment(spec, nullptr));
    const ExperimentRun traced = RunExperiment(spec, &tracer);
    if (traced.deterministic != untraced.back().deterministic) {
      out->Fail(spec.name + ": tracing changed the simulated run");
    }
    if (!traced.report.ok()) {
      out->Fail(spec.name + " on the simulator: " +
                traced.report.agreement.ToString() + " / " +
                traced.report.convergence.ToString());
    }
    overhead.push_back(traced.cpu.total_s() / untraced.back().cpu.total_s() -
                       1.0);
  }
  AddSimLayerMetrics(untraced, tracer, out);
  out->Add("trace.overhead_frac", Median(overhead), "frac");

  LayerInputs inputs;
  inputs.messages = tracer.samples();
  const OpFactory ops = scenario::MakeWorkload(spec);
  for (uint64_t i = 0; i < 20000; ++i) inputs.ops.push_back(ops(i));
  inputs.reqs_per_batch = std::max(1, static_cast<int>(reqs_per_batch + 0.5));
  MeasureModules(inputs, options.work_dir, out);
}

}  // namespace

Outcome RunTcpWorkload(const Options& options, bool durable_kv) {
  Outcome out;
  const scenario::ScenarioSpec spec = WorkloadSpec(durable_kv, options.seed);

  // The warm pass: a freshly idle host ran the first cluster at well under
  // half the rate of the next one. Its set-up still counts.
  std::vector<double> setup_s;
  setup_s.push_back(RunPass(spec, kWarmPassSeconds, 0, options, &out).setup_s);

  std::vector<Pass> passes;
  for (int i = 1; i <= kPasses; ++i) {
    passes.push_back(RunPass(spec, static_cast<double>(options.seconds) /
                                       kPasses,
                             i, options, &out));
    setup_s.push_back(passes.back().setup_s);
    out.attempted += passes.back().report.result.completed;
  }

  const auto per_req = [](const Pass& p, double value) {
    return value / std::max(p.executed, 1.0);
  };
  if (!options.trace) {
    // The best pass of the run: see Best() for why.
    out.Add("throughput_kreqs", Best(Each(passes, [](const Pass& p) {
              return p.report.result.throughput_kreqs;
            }), /*higher_is_better=*/true),
            "kreq/s");
    out.Add("latency_p50_ms", Best(Each(passes, [](const Pass& p) {
              return p.report.result.p50_latency_ms;
            }), /*higher_is_better=*/false),
            "ms");
    out.Add("cpu_us_per_req", Best(Each(passes, [&](const Pass& p) {
              return per_req(p, (p.self.total_s() + p.nodes.total_s()) * 1e6);
            }), /*higher_is_better=*/false),
            "us");
    out.Add("setup_s", Median(setup_s), "s");
    return out;
  }

  const auto net = [&](const char* key) {
    return OverPasses(passes, [&](const Pass& p) {
      return per_req(p, NetField(p.report.net, key));
    });
  };
  out.Add("rt.frames_per_req", net("frames_sent"), "count");
  out.Add("rt.bytes_per_req", net("bytes_sent"), "B");
  out.Add("rt.writev_per_req", net("writev_syscalls"), "count");
  out.Add("rt.reads_per_req", net("read_syscalls"), "count");
  out.Add("rt.frames_per_writev", OverPasses(passes, [](const Pass& p) {
            return NetField(p.report.net, "frames_sent") /
                   std::max(NetField(p.report.net, "writev_syscalls"), 1.0);
          }),
          "count");
  out.Add("rt.node_sys_us_per_req", OverPasses(passes, [&](const Pass& p) {
            return per_req(p, p.nodes.sys_s * 1e6);
          }),
          "us");
  out.Add("rt.node_user_us_per_req", OverPasses(passes, [&](const Pass& p) {
            return per_req(p, p.nodes.user_s * 1e6);
          }),
          "us");
  out.Add("rt.ctx_switches_per_req", OverPasses(passes, [&](const Pass& p) {
            return per_req(p, p.nodes.ctx_switches);
          }),
          "count");
  const double reqs_per_batch = OverPasses(passes, [](const Pass& p) {
    return p.executed / std::max(p.batches, 1.0);
  });
  out.Add("consensus.reqs_per_batch", reqs_per_batch, "count");
  out.Add("consensus.msgs_handled_per_req",
          OverPasses(passes,
                     [&](const Pass& p) {
                       return per_req(p, p.messages_handled);
                     }),
          "count");
  double view_changes = 0;
  for (const Pass& p : passes) view_changes += p.view_changes;
  out.Add("consensus.view_changes", view_changes, "count");
  out.Add("smr.client_cpu_us_per_req", OverPasses(passes, [](const Pass& p) {
            return p.self.total_s() * 1e6 /
                   std::max<double>(p.report.result.completed, 1.0);
          }),
          "us");
  out.Add("smr.retransmits_per_kreq", OverPasses(passes, [](const Pass& p) {
            return static_cast<double>(p.report.result.retransmissions) * 1e3 /
                   std::max<double>(p.report.result.completed, 1.0);
          }),
          "count");
  out.Add("smr.latency_p99_ms", OverPasses(passes, [](const Pass& p) {
            return p.report.result.p99_latency_ms;
          }),
          "ms");
  TraceShadow(spec, options, reqs_per_batch, &out);
  return out;
}

}  // namespace perfbench
}  // namespace seemore
