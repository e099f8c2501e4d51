// paper-suite-sim: the registry's paper experiments and stress scenarios,
// run serially on one thread at their registry seeds and budgets. One
// operation is one experiment; a run repeats whole rounds of the suite.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "perfbench/bench.h"
#include "perfbench/checks.h"
#include "scenario/registry.h"

namespace seemore {
namespace perfbench {
namespace {

/// The suite, in run order. The registry fixes each one's seed and budget,
/// so the inputs do not depend on --seed: mode-switch-storm fails its
/// convergence check at the registry seed on every run (README.md).
const std::vector<std::string>& SuiteNames() {
  static const std::vector<std::string> kNames = {
      "fig2a-lion", "fig2a-dog",          "fig2a-peacock",
      "fig2a-cft",  "fig2a-bft",          "fig2a-s-upright",
      "fig3-4-0",   "fig4-primary-crash", "mode-switch-storm",
      "kill-restart-primary"};
  return kNames;
}

/// Fault-free points: the §5.5 message counts must hold on these.
bool FaultFree(const scenario::ScenarioSpec& spec) {
  return spec.schedule.empty();
}

scenario::ScenarioSpec LoadSpec(const std::string& name) {
  Result<scenario::ScenarioSpec> spec = scenario::FindScenario(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spec.status().ToString().c_str());
    std::exit(2);
  }
  return *std::move(spec);
}

void ReadEndCounters(Cluster& cluster, ExperimentRun* run) {
  run->events = cluster.sim().executed_events();
  const CryptoMemo& memo = cluster.memo();
  run->memo_hits = memo.digest_hits() + memo.verify_hits();
  run->memo_lookups = run->memo_hits + memo.digest_misses() +
                      memo.verify_misses();
  run->wal_syncs = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    if (const storage::FileDurableStore* store = cluster.durable_store(i)) {
      run->wal_syncs += store->wal().sync_count();
    }
  }
}

}  // namespace

ExperimentRun RunExperiment(const scenario::ScenarioSpec& spec,
                            DeliveryTracer* tracer) {
  ExperimentRun run;
  double start = 0.0;
  scenario::ScenarioHooks hooks;
  hooks.on_start = [&](Cluster& cluster) {
    run.setup_s = NowSeconds() - start;
    if (tracer != nullptr) tracer->Attach(cluster);
    // Runs inside the engine's RunUntil(warmup), before it resets the
    // network counters at the same instant.
    cluster.sim().ScheduleAfter(spec.plan.warmup, [&run, &cluster] {
      for (int i = 0; i < cluster.n(); ++i) {
        run.batches_at_warmup =
            std::max(run.batches_at_warmup,
                     cluster.replica(i)->stats().batches_committed);
      }
    });
  };
  hooks.on_finish = [&](Cluster& cluster) {
    if (spec.plan.drain == 0) {
      ReadEndCounters(cluster, &run);
      return;
    }
    cluster.sim().ScheduleAfter(spec.plan.drain, [&run, &cluster] {
      ReadEndCounters(cluster, &run);
    });
  };

  const CpuTimes cpu_before = SelfCpu();
  start = NowSeconds();
  Result<scenario::ScenarioReport> report = scenario::RunScenario(spec, hooks);
  run.wall_s = NowSeconds() - start;
  run.cpu = SelfCpu() - cpu_before;
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", spec.name.c_str(),
                 report.status().ToString().c_str());
    std::exit(2);
  }
  run.report = *std::move(report);
  run.deterministic = run.report.DeterministicJson().Dump();
  for (const scenario::ReplicaReport& replica : run.report.replicas) {
    run.executed = std::max(run.executed, replica.requests_executed);
    run.batches = std::max(run.batches, replica.batches_committed);
    run.view_changes =
        std::max(run.view_changes, replica.view_changes_completed);
    run.messages_handled += replica.messages_handled;
  }
  return run;
}

void AddSimLayerMetrics(const std::vector<ExperimentRun>& runs,
                        const DeliveryTracer& tracer, Outcome* out) {
  double executed = 0, completed = 0, wall_ns = 0, events = 0;
  double hits = 0, lookups = 0, syncs = 0, messages = 0, wire_bytes = 0;
  for (const ExperimentRun& run : runs) {
    executed += static_cast<double>(run.executed);
    completed += static_cast<double>(run.report.result.completed);
    wall_ns += run.wall_s * 1e9;
    events += static_cast<double>(run.events);
    hits += static_cast<double>(run.memo_hits);
    lookups += static_cast<double>(run.memo_lookups);
    syncs += static_cast<double>(run.wal_syncs);
    messages += static_cast<double>(run.report.net.messages);
    wire_bytes += static_cast<double>(run.report.net.wire_bytes);
  }
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  out->Add("consensus.handler_ns_per_msg",
           per(tracer.replica_ns(),
               static_cast<double>(tracer.replica_messages())),
           "ns");
  out->Add("crypto.memo_hit_frac", per(hits, lookups), "frac");
  out->Add("storage.syncs_per_req", per(syncs, executed), "count");
  out->Add("sim.ns_per_event", per(wall_ns, events), "ns");
  out->Add("sim.events_per_req", per(events, executed), "count");
  out->Add("net.msgs_per_req", per(messages, completed), "count");
  out->Add("net.wire_bytes_per_req", per(wire_bytes, completed), "B");
}

Outcome RunSimSuite(const Options& options) {
  Outcome out;
  std::vector<scenario::ScenarioSpec> specs;
  for (const std::string& name : SuiteNames()) specs.push_back(LoadSpec(name));

  // rounds[r][e]: experiment e of round r. At least two rounds, so every
  // run compares repeated executions.
  std::vector<std::vector<ExperimentRun>> rounds;
  const double begin = NowSeconds();
  while (rounds.size() < 2 || NowSeconds() - begin < options.seconds) {
    std::vector<ExperimentRun> round;
    for (const scenario::ScenarioSpec& spec : specs) {
      round.push_back(RunExperiment(spec, nullptr));
    }
    rounds.push_back(std::move(round));
  }

  // Correctness. An experiment whose own invariants fail is a failed
  // operation; the benchmark's checks below speak of the others.
  std::vector<bool> experiment_ok(specs.size(), true);
  for (const std::vector<ExperimentRun>& round : rounds) {
    for (size_t e = 0; e < specs.size(); ++e) {
      out.attempted += 1;
      const ExperimentRun& run = round[e];
      if (run.deterministic != rounds[0][e].deterministic) {
        out.Fail(specs[e].name + ": repeated execution gave another report");
      }
      if (!run.report.ok()) {
        out.failed += 1;
        experiment_ok[e] = false;
        continue;
      }
      if (FaultFree(specs[e])) {
        const Status counted = CheckMessagesPerInstance(
            specs[e], run.report, run.batches - run.batches_at_warmup);
        if (!counted.ok()) out.Fail(counted.ToString());
      }
    }
  }
  std::map<std::string, double> modeled;
  for (size_t e = 0; e < specs.size(); ++e) {
    modeled[specs[e].name] = rounds[0][e].report.result.throughput_kreqs;
  }
  const Status order = CheckFig2aOrder(
      modeled["fig2a-cft"], modeled["fig2a-lion"], modeled["fig2a-bft"]);
  if (!order.ok()) out.Fail(order.ToString());

  // End-to-end metrics over the experiments that did not fail. Each
  // experiment contributes its best round (see Best()), and the experiments
  // are combined by geometric mean so the cheapest system does not drown
  // the others.
  std::vector<double> cpu_per_req, kreqs, wall_ms, all_wall_ms;
  for (size_t e = 0; e < specs.size(); ++e) {
    if (!experiment_ok[e]) continue;
    std::vector<double> cpu, rate, wall;
    for (const std::vector<ExperimentRun>& round : rounds) {
      const ExperimentRun& run = round[e];
      const double executed = static_cast<double>(std::max<uint64_t>(
          run.executed, 1));
      cpu.push_back(run.cpu.total_s() * 1e6 / executed);
      rate.push_back(executed / run.wall_s / 1e3);
      wall.push_back(run.wall_s * 1e3);
      all_wall_ms.push_back(run.wall_s * 1e3);
    }
    cpu_per_req.push_back(Best(cpu, /*higher_is_better=*/false));
    kreqs.push_back(Best(rate, /*higher_is_better=*/true));
    wall_ms.push_back(Best(wall, /*higher_is_better=*/false));
  }
  std::vector<double> setup_s;
  for (const std::vector<ExperimentRun>& round : rounds) {
    double setup = 0.0;
    for (const ExperimentRun& run : round) setup += run.setup_s;
    setup_s.push_back(setup);
  }

  if (!options.trace) {
    out.Add("throughput_kreqs", GeoMean(kreqs), "kreq/s");
    out.Add("latency_p50_ms", Median(wall_ms), "ms");
    out.Add("cpu_us_per_req", GeoMean(cpu_per_req), "us");
    out.Add("setup_s", Median(setup_s), "s");
    return out;
  }

  // Traced pass: one more round with every replica and client delivery
  // timed and the traffic sampled. Tracing must not change any report.
  DeliveryTracer tracer(/*stride=*/32, /*cap=*/1000);
  std::vector<ExperimentRun> traced;
  for (size_t e = 0; e < specs.size(); ++e) {
    traced.push_back(RunExperiment(specs[e], &tracer));
    if (traced.back().deterministic != rounds[0][e].deterministic) {
      out.Fail(specs[e].name + ": the traced run gave another report");
    }
  }

  std::vector<ExperimentRun> untraced_ok;
  double executed = 0, batches = 0, handled = 0, view_changes = 0;
  double retransmits = 0, completed = 0;
  for (size_t e = 0; e < specs.size(); ++e) {
    if (!experiment_ok[e]) continue;
    for (const std::vector<ExperimentRun>& round : rounds) {
      untraced_ok.push_back(round[e]);
    }
    const ExperimentRun& run = rounds[0][e];
    executed += static_cast<double>(run.executed);
    batches += static_cast<double>(run.batches);
    handled += static_cast<double>(run.messages_handled);
    view_changes += static_cast<double>(run.view_changes);
    retransmits += static_cast<double>(run.report.result.retransmissions);
    completed += static_cast<double>(run.report.result.completed);
  }
  std::vector<double> user_us, sys_us, switches, round_cpu;
  for (const std::vector<ExperimentRun>& round : rounds) {
    CpuTimes cpu;
    double round_executed = 0;
    for (size_t e = 0; e < specs.size(); ++e) {
      const ExperimentRun& run = round[e];
      cpu.user_s += run.cpu.user_s;
      cpu.sys_s += run.cpu.sys_s;
      cpu.ctx_switches += run.cpu.ctx_switches;
      round_executed += static_cast<double>(run.executed);
    }
    user_us.push_back(cpu.user_s * 1e6 / round_executed);
    sys_us.push_back(cpu.sys_s * 1e6 / round_executed);
    switches.push_back(cpu.ctx_switches / round_executed);
    round_cpu.push_back(cpu.total_s());
  }
  double traced_cpu = 0, traced_executed = 0;
  for (const ExperimentRun& run : traced) {
    traced_cpu += run.cpu.total_s();
    traced_executed += static_cast<double>(run.executed);
  }

  // No sockets in the simulator: the transport counts are zero, and the
  // "node" is this process.
  out.Add("rt.frames_per_req", 0.0, "count");
  out.Add("rt.bytes_per_req", 0.0, "B");
  out.Add("rt.writev_per_req", 0.0, "count");
  out.Add("rt.reads_per_req", 0.0, "count");
  out.Add("rt.frames_per_writev", 0.0, "count");
  out.Add("rt.node_sys_us_per_req", Median(sys_us), "us");
  out.Add("rt.node_user_us_per_req", Median(user_us), "us");
  out.Add("rt.ctx_switches_per_req", Median(switches), "count");
  out.Add("consensus.reqs_per_batch", executed / batches, "count");
  out.Add("consensus.msgs_handled_per_req", handled / executed, "count");
  out.Add("consensus.view_changes", view_changes, "count");
  out.Add("smr.client_cpu_us_per_req",
          tracer.client_ns() / 1e3 / traced_executed, "us");
  out.Add("smr.retransmits_per_kreq", retransmits * 1e3 / completed,
          "count");
  out.Add("smr.latency_p99_ms", Percentile(all_wall_ms, 99), "ms");
  AddSimLayerMetrics(untraced_ok, tracer, &out);
  out.Add("trace.overhead_frac", traced_cpu / Median(round_cpu) - 1.0,
          "frac");

  LayerInputs inputs;
  inputs.messages = tracer.samples();
  for (const scenario::ScenarioSpec& spec : specs) {
    const OpFactory ops = scenario::MakeWorkload(spec);
    for (uint64_t i = 0; i < 2000; ++i) inputs.ops.push_back(ops(i));
  }
  inputs.reqs_per_batch =
      std::max(1, static_cast<int>(executed / batches + 0.5));
  MeasureModules(inputs, options.work_dir, &out);
  return out;
}

}  // namespace perfbench
}  // namespace seemore
