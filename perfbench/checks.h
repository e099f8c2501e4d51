// Correctness checks the benchmark applies to every run before it reports a
// figure. Each one compares a report against a property or an independent
// computation, never against a stored copy of an earlier output:
//
//   * tcp: every honest replica ends a quiescent drain at the same
//     (last_executed, state_digest), read from the node reports; and the
//     replicas executed at least the requests clients saw complete, but no
//     more than those plus one in-flight request per closed-loop client.
//   * sim: inter-replica messages per committed consensus instance match
//     the §5.5 closed forms, computed here from N, m and S; the modeled
//     Figure 2(a) throughputs keep the paper's order CFT > Lion > BFT.

#ifndef SEEMORE_PERFBENCH_CHECKS_H_
#define SEEMORE_PERFBENCH_CHECKS_H_

#include <cstdint>

#include "rt/launcher.h"
#include "scenario/engine.h"
#include "scenario/spec.h"
#include "util/status.h"

namespace seemore {
namespace perfbench {

/// Inter-replica messages one committed consensus instance costs in the
/// fault-free normal case (§5.5, Table 1), for the spec's resolved
/// topology: N replicas, m public faults, S private nodes. Fails for a
/// topology whose proxy window is not exactly 3m+1 public nodes.
Result<double> ExpectedMessagesPerInstance(const scenario::ScenarioSpec& spec);

/// The §5.5 check on one fault-free sim run: `instances` consensus
/// instances committed while the report's network counters ran. Passes when
/// the measured messages per instance are within half a message of the
/// closed form, so one message per instance too many or too few fails.
Status CheckMessagesPerInstance(const scenario::ScenarioSpec& spec,
                                const scenario::ScenarioReport& report,
                                uint64_t instances);

/// Figure 2(a) order of the modeled throughputs: CFT > Lion > BFT.
Status CheckFig2aOrder(double cft_kreqs, double lion_kreqs, double bft_kreqs);

/// The tcp checks on one run of `clients` closed-loop clients whose whole
/// load period was measured (warmup 0), so `report.result.completed` counts
/// every request a client saw complete. Also requires the launcher's own
/// agreement/convergence verdicts.
Status CheckTcpReport(const rt::TcpRunReport& report, int clients);

}  // namespace perfbench
}  // namespace seemore

#endif  // SEEMORE_PERFBENCH_CHECKS_H_
