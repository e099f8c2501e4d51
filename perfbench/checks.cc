#include "perfbench/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace seemore {
namespace perfbench {

Result<double> ExpectedMessagesPerInstance(const scenario::ScenarioSpec& spec) {
  const ClusterConfig config = spec.ResolvedConfig();
  const double n = config.n();
  switch (config.kind) {
    case ProtocolKind::kCft:
      // Accept, ack and commit between the leader and the N-1 others.
      return 3 * (n - 1);
    case ProtocolKind::kBft:
    case ProtocolKind::kSUpRight:
      // Pre-prepare to N-1, prepare from N-1 backups to N-1 peers, commit
      // from all N to N-1 peers.
      return (n - 1) + (n - 1) * (n - 1) + n * (n - 1);
    case ProtocolKind::kSeeMoRe:
      break;
  }
  const double m = config.m;
  const double s = config.s;
  if (config.p != 3 * config.m + 1) {
    return Status::InvalidArgument(
        "closed forms assume exactly 3m+1 public nodes");
  }
  const double proxies = 3 * m + 1;
  switch (config.initial_mode) {
    case SeeMoReMode::kLion:
      // Prepare to N-1, accept back from N-1, commit to N-1.
      return 3 * (n - 1);
    case SeeMoReMode::kDog:
      // Prepare to N-1, signed accepts and commit votes all-to-all among
      // the 3m+1 proxies, inform from every proxy to the S private nodes.
      return (n - 1) + 2 * proxies * (proxies - 1) + proxies * s;
    case SeeMoReMode::kPeacock:
      // Pre-prepare to N-1 from the proxy primary, prepare from the 3m
      // backup proxies to each other proxy, commit votes all-to-all among
      // the proxies, inform to the S private nodes.
      return (n - 1) + (proxies - 1) * (proxies - 1) +
             proxies * (proxies - 1) + proxies * s;
  }
  return Status::InvalidArgument("unknown SeeMoRe mode");
}

Status CheckMessagesPerInstance(const scenario::ScenarioSpec& spec,
                                const scenario::ScenarioReport& report,
                                uint64_t instances) {
  SEEMORE_ASSIGN_OR_RETURN(const double expected,
                           ExpectedMessagesPerInstance(spec));
  if (instances == 0) {
    return Status::Internal(spec.name + ": no instance committed");
  }
  const double measured =
      static_cast<double>(report.net.replica_to_replica_messages) /
      static_cast<double>(instances);
  if (std::fabs(measured - expected) >= 0.5) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: %.3f inter-replica messages per instance, closed "
                  "form %.0f",
                  spec.name.c_str(), measured, expected);
    return Status::Internal(buf);
  }
  return Status::Ok();
}

Status CheckFig2aOrder(double cft_kreqs, double lion_kreqs, double bft_kreqs) {
  if (cft_kreqs > lion_kreqs && lion_kreqs > bft_kreqs) return Status::Ok();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "fig2a order broken: CFT %.3f, Lion %.3f, BFT %.3f kreq/s",
                cft_kreqs, lion_kreqs, bft_kreqs);
  return Status::Internal(buf);
}

Status CheckTcpReport(const rt::TcpRunReport& report, int clients) {
  if (!report.agreement.ok()) return report.agreement;
  if (report.convergence_checked && !report.convergence.ok()) {
    return report.convergence;
  }
  const uint64_t completed = report.result.completed;
  if (completed == 0) return Status::Internal("no request completed");
  if (report.nodes.empty()) return Status::Internal("no node reports");

  bool first = true;
  int64_t frontier = 0;
  std::string digest;
  uint64_t most_executed = 0;
  for (const Json& node : report.nodes) {
    const Json* id = node.Find("id");
    const Json* crashed = node.Find("crashed");
    const Json* last = node.Find("last_executed");
    const Json* state = node.Find("state_digest");
    const Json* stats = node.Find("stats");
    const Json* executed =
        stats != nullptr ? stats->Find("requests_executed") : nullptr;
    const std::string who =
        "replica " + (id != nullptr && id->is_int()
                          ? std::to_string(id->AsInt())
                          : std::string("?"));
    if (crashed != nullptr && crashed->is_bool() && crashed->AsBool()) {
      return Status::Internal(who + " wrote no report");
    }
    if (last == nullptr || !last->is_int() || state == nullptr ||
        !state->is_string() || executed == nullptr || !executed->is_int()) {
      return Status::Internal(who + ": malformed report");
    }
    if (first) {
      frontier = last->AsInt();
      digest = state->AsString();
      first = false;
    } else if (last->AsInt() != frontier || state->AsString() != digest) {
      return Status::Internal(who + " ended at executed " +
                              std::to_string(last->AsInt()) + " digest " +
                              state->AsString() + ", others at " +
                              std::to_string(frontier) + " " + digest);
    }
    most_executed =
        std::max(most_executed, static_cast<uint64_t>(executed->AsInt()));
  }
  // A replica that caught up by state transfer counts fewer requests
  // executed than it holds, so the request counts are checked on the
  // replica that executed the most; the equal frontiers and digests above
  // carry them to every other replica.
  if (most_executed < completed) {
    return Status::Internal("replicas executed " +
                            std::to_string(most_executed) +
                            " requests but clients saw " +
                            std::to_string(completed) + " complete");
  }
  if (most_executed > completed + static_cast<uint64_t>(clients)) {
    return Status::Internal(
        "replicas executed " + std::to_string(most_executed) +
        " requests, more than " + std::to_string(completed) +
        " completed plus one in flight per client");
  }
  return Status::Ok();
}

}  // namespace perfbench
}  // namespace seemore
