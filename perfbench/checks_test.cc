// Tests of the benchmark's correctness checks: the true reports pass, and a
// report with one replica's state digest altered, with more requests
// completed than executed, or with a §5.5 message count off by one per
// instance fails.

#include <gtest/gtest.h>

#include <algorithm>

#include "perfbench/bench.h"
#include "perfbench/checks.h"
#include "rt/launcher.h"
#include "scenario/builder.h"
#include "scenario/registry.h"

namespace seemore {
namespace perfbench {
namespace {

scenario::ScenarioSpec Registered(const std::string& name) {
  Result<scenario::ScenarioSpec> spec = scenario::FindScenario(name);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return *std::move(spec);
}

TEST(MessagesPerInstance, ClosedFormsForTheSixSystemsAtOneOne) {
  // N = 6 for the hybrid systems (S = 2, P = 4), 5 for CFT, 7 for BFT.
  const std::vector<std::pair<std::string, double>> expected = {
      {"fig2a-lion", 15},      {"fig2a-dog", 37}, {"fig2a-peacock", 34},
      {"fig2a-cft", 12},       {"fig2a-bft", 84}, {"fig2a-s-upright", 60},
  };
  for (const auto& [name, messages] : expected) {
    Result<double> closed_form = ExpectedMessagesPerInstance(Registered(name));
    ASSERT_TRUE(closed_form.ok()) << name;
    EXPECT_EQ(*closed_form, messages) << name;
  }
}

class FaultFreeRuns : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultFreeRuns, TrueCountPassesAndOffByOneFails) {
  const scenario::ScenarioSpec spec = Registered(GetParam());
  ExperimentRun run = RunExperiment(spec, nullptr);
  const uint64_t instances = run.batches - run.batches_at_warmup;
  ASSERT_GT(instances, 0u);
  EXPECT_TRUE(CheckMessagesPerInstance(spec, run.report, instances).ok());

  run.report.net.replica_to_replica_messages += instances;
  EXPECT_FALSE(CheckMessagesPerInstance(spec, run.report, instances).ok());
  run.report.net.replica_to_replica_messages -= 2 * instances;
  EXPECT_FALSE(CheckMessagesPerInstance(spec, run.report, instances).ok());
}

INSTANTIATE_TEST_SUITE_P(Suite, FaultFreeRuns,
                         ::testing::Values("fig2a-lion", "fig2a-dog",
                                           "fig2a-peacock", "fig2a-cft",
                                           "fig2a-bft", "fig2a-s-upright",
                                           "fig3-4-0"));

TEST(Fig2aOrder, ModeledThroughputsPassAndSwapsFail) {
  const auto kreqs = [](const std::string& name) {
    return RunExperiment(Registered(name), nullptr)
        .report.result.throughput_kreqs;
  };
  const double cft = kreqs("fig2a-cft");
  const double lion = kreqs("fig2a-lion");
  const double bft = kreqs("fig2a-bft");
  EXPECT_TRUE(CheckFig2aOrder(cft, lion, bft).ok());
  EXPECT_FALSE(CheckFig2aOrder(lion, cft, bft).ok());
  EXPECT_FALSE(CheckFig2aOrder(cft, bft, lion).ok());
}

TEST(TracedRun, ReportIsUnchangedAndTrafficIsSampled) {
  const scenario::ScenarioSpec spec = Registered("fig2a-lion");
  DeliveryTracer tracer(/*stride=*/16, /*cap=*/100);
  const ExperimentRun traced = RunExperiment(spec, &tracer);
  EXPECT_EQ(traced.deterministic, RunExperiment(spec, nullptr).deterministic);
  EXPECT_EQ(tracer.samples().size(), 100u);
  EXPECT_GT(tracer.replica_messages(), 0u);
}

/// A short real run of the lion-echo-tcp shape: six node processes, four
/// clients, the whole load period measured, then a quiescent drain.
rt::TcpRunReport RealRun() {
  Result<scenario::ScenarioSpec> base =
      scenario::PaperSystemSpec("Lion", 1, 1, /*seed=*/5);
  EXPECT_TRUE(base.ok());
  scenario::ScenarioBuilder builder(*std::move(base));
  builder.Backend(scenario::BackendKind::kTcp)
      .Clients(4)
      .Echo(0, 0)
      .Warmup(0)
      .Measure(Millis(300))
      .Drain(Millis(300))
      .CheckConvergence();
  rt::LauncherOptions options;
  options.base_port = 19500;
  Result<rt::TcpRunReport> report =
      rt::RunTcpScenario(builder.spec(), options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *std::move(report);
}

TEST(TcpReport, TrueReportPassesAlteredOnesFail) {
  const rt::TcpRunReport truth = RealRun();
  ASSERT_TRUE(CheckTcpReport(truth, 4).ok())
      << CheckTcpReport(truth, 4).ToString();

  rt::TcpRunReport altered_digest = truth;
  Json& node = altered_digest.nodes[3];
  std::string digest = node.Find("state_digest")->AsString();
  digest[0] = digest[0] == '0' ? '1' : '0';
  node.Set("state_digest", digest);
  EXPECT_FALSE(CheckTcpReport(altered_digest, 4).ok());

  int64_t executed = 0;
  for (const Json& n : truth.nodes) {
    executed = std::max(executed,
                        n.Find("stats")->Find("requests_executed")->AsInt());
  }
  rt::TcpRunReport over_completed = truth;
  over_completed.result.completed = static_cast<uint64_t>(executed) + 1;
  EXPECT_FALSE(CheckTcpReport(over_completed, 4).ok());

  rt::TcpRunReport unanswered = truth;
  unanswered.result.completed = static_cast<uint64_t>(executed) - 5;
  EXPECT_FALSE(CheckTcpReport(unanswered, 4).ok());
}

}  // namespace
}  // namespace perfbench
}  // namespace seemore
