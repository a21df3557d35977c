// Load generator: one in-process NegotiationServer on a Unix socket and one
// connection per agent, driven either on an absolute schedule (paced, open
// loop) or as fast as each agent's window allows (unpaced).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "elastic/reshaper.h"
#include "service/client.h"
#include "service/server.h"

namespace perfbench {

/// A started server plus its connected agents.
class Session {
 public:
  /// Starts the server the workload describes on `socketPath` and connects
  /// every agent.  Returns nullptr (with *error set) on failure.
  static std::unique_ptr<Session> open(const WorkloadConfig& config,
                                       const std::string& socketPath,
                                       bool observability, std::string* error);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const WorkloadConfig& config() const { return config_; }
  [[nodiscard]] tprm::service::NegotiationServer& server() { return *server_; }
  [[nodiscard]] tprm::service::QoSAgentClient* v1(std::size_t agent) {
    return v1_[agent].get();
  }
  [[nodiscard]] tprm::service::PipelinedClient* v2(std::size_t agent) {
    return v2_[agent].get();
  }

 private:
  Session() = default;

  WorkloadConfig config_;
  std::optional<tprm::elastic::Reshaper> reshaper_;  // outlives server_
  std::unique_ptr<tprm::service::NegotiationServer> server_;
  std::vector<std::unique_ptr<tprm::service::QoSAgentClient>> v1_;
  std::vector<std::unique_ptr<tprm::service::PipelinedClient>> v2_;
};

struct PhaseResult {
  std::vector<NegotiationRecord> negotiations;
  std::vector<ReshapeRecord> reshapes;
  /// Paced phase: NEGOTIATE latency from when each request was due.
  std::vector<double> negotiateLatencyUs;
  /// Paced phase: how late the generator sent, relative to the later of the
  /// due time and the moment the agent was free to send.
  std::vector<double> generatorLagUs;
  std::uint64_t attempted = 0;  // NEGOTIATE + CANCEL + VERIFY operations
  std::uint64_t failed = 0;     // operations that ended in an error
  std::uint64_t decisions = 0;  // NEGOTIATE + CANCEL responses
  std::uint64_t busyRetries = 0;
  double elapsedSec = 0.0;
  bool verifyOk = false;
  std::vector<std::string> errors;
  tprm::service::ServerCounters counters;
};

/// Sends `stream` through the session's agents and ends with a VERIFY.  The
/// spans of every agent call go to `spans` (a disabled log records none).
[[nodiscard]] PhaseResult runPhase(Session& session, const Stream& stream,
                                   bool paced, SpanLog& spans);

}  // namespace perfbench
