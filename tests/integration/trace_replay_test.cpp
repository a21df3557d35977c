// Acceptance check for the record/replay loop: a wire trace recorded from a
// live NegotiationServer replays decision-identical into BOTH a fresh
// in-process ShardedArbitrator and a fresh daemon, at shards=1 and shards=4.
//
// The recorded run uses concurrent client connections (so the trace is a
// genuinely multiplexed stream, not a single session's transcript); the
// trace still comes out in arrivalSeq order because tprmd records at
// enqueue, under the arrival-sequence lock.  Both replays are sequential —
// one request at a time, trace order — which makes the decision stream a
// pure function of (trace, sizing): the daemon replay and the in-process
// replay must agree exactly, spill and all.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <unistd.h>

#include "common/json.h"
#include "qos/sharded.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/wiretrace.h"
#include "workload/scenario.h"

namespace tprm::service {
namespace {

struct Decision {
  bool admitted = false;
  std::uint64_t jobId = 0;
  std::size_t chainIndex = 0;
  double quality = 0.0;
  Time release = 0;
};

std::string socketPath(const std::string& tag) {
  return testing::TempDir() + "tprm_replay_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

std::vector<workload::ScenarioJob> scenarioJobs(const std::string& name,
                                                std::size_t jobs) {
  const auto params = workload::scenarioByName(name, 97, jobs);
  return workload::ScenarioGenerator(*params).generate().jobs;
}

/// Records a trace by driving a live server with `clientCount` concurrent
/// connections, each negotiating its slice of the scenario stream.
void recordTrace(const std::string& tracePath, int shards, int clientCount,
                 const std::vector<workload::ScenarioJob>& jobs,
                 bool gang = false) {
  ServerConfig config;
  config.processors = 32;
  config.shards = shards;
  config.shardGang = gang;
  config.unixPath = socketPath("record" + std::to_string(shards));
  config.recordPath = tracePath;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::vector<std::thread> clients;
  for (int c = 0; c < clientCount; ++c) {
    clients.emplace_back([&, c] {
      ClientConfig clientConfig;
      clientConfig.unixPath = config.unixPath;
      QoSAgentClient client(clientConfig);
      for (std::size_t i = static_cast<std::size_t>(c); i < jobs.size();
           i += static_cast<std::size_t>(clientCount)) {
        const auto result =
            client.negotiate(jobs[i].spec, jobs[i].release);
        EXPECT_TRUE(result.ok()) << result.error.message;
      }
    });
  }
  for (auto& client : clients) client.join();
  server.stop();
}

std::vector<Request> decodeTrace(const std::string& tracePath) {
  const auto loaded = loadWireTrace(tracePath);
  EXPECT_TRUE(loaded.ok()) << loaded.message;
  std::vector<Request> requests;
  std::uint64_t expectedSeq = 0;
  for (const auto& record : loaded.records) {
    // Recording under the sequence lock means file order == arrivalSeq
    // order with no gaps.
    EXPECT_EQ(record.arrivalSeq, expectedSeq++);
    auto parsed = decodeRequest(record.payload);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    requests.push_back(std::move(*parsed.request));
  }
  return requests;
}

std::vector<Decision> replayInProcess(const std::vector<Request>& requests,
                                      int shards, bool gang = false) {
  qos::ShardedOptions options;
  options.shards = shards;
  options.gang = gang;
  qos::ShardedArbitrator arbitrator(32, options);
  std::vector<Decision> decisions;
  for (const auto& request : requests) {
    if (request.command != Command::Negotiate) continue;
    const auto& payload = std::get<NegotiateRequest>(request.payload);
    const std::uint64_t jobId = arbitrator.reserveJobId();
    Time effective = payload.release;
    const auto outcome =
        arbitrator.submit(jobId, payload.spec, payload.release, &effective);
    Decision decision;
    decision.admitted = outcome.admitted;
    decision.jobId = jobId;
    decision.release = effective;
    if (outcome.admitted) {
      decision.chainIndex = outcome.schedule.chainIndex;
      decision.quality = outcome.quality;
    }
    decisions.push_back(decision);
  }
  return decisions;
}

std::vector<Decision> replayIntoFreshDaemon(
    const std::vector<Request>& requests, int shards, bool gang = false) {
  ServerConfig config;
  config.processors = 32;
  config.shards = shards;
  config.shardGang = gang;
  config.unixPath = socketPath("fresh" + std::to_string(shards));
  NegotiationServer server(config);
  std::string error;
  EXPECT_TRUE(server.start(&error)) << error;
  ClientConfig clientConfig;
  clientConfig.unixPath = config.unixPath;
  QoSAgentClient client(clientConfig);
  std::vector<Decision> decisions;
  for (const auto& request : requests) {
    if (request.command != Command::Negotiate) continue;
    const auto& payload = std::get<NegotiateRequest>(request.payload);
    const auto result = client.negotiate(payload.spec, payload.release);
    EXPECT_TRUE(result.ok()) << result.error.message;
    if (!result.ok()) break;
    Decision decision;
    decision.admitted = result->admitted;
    decision.jobId = result->jobId;
    decision.chainIndex = result->chainIndex;
    decision.quality = result->quality;
    decision.release = result->release;
    decisions.push_back(decision);
  }
  client.close();
  server.stop();
  return decisions;
}

void expectIdentical(const std::vector<Decision>& sim,
                     const std::vector<Decision>& daemon) {
  ASSERT_EQ(sim.size(), daemon.size());
  for (std::size_t i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim[i].admitted, daemon[i].admitted) << "negotiate " << i;
    EXPECT_EQ(sim[i].jobId, daemon[i].jobId) << "negotiate " << i;
    EXPECT_EQ(sim[i].chainIndex, daemon[i].chainIndex) << "negotiate " << i;
    EXPECT_EQ(sim[i].quality, daemon[i].quality) << "negotiate " << i;
    EXPECT_EQ(sim[i].release, daemon[i].release) << "negotiate " << i;
  }
}

class TraceReplayEquivalence : public testing::TestWithParam<int> {};

TEST_P(TraceReplayEquivalence, RecordedTraceReplaysDecisionIdentical) {
  const int shards = GetParam();
  const auto jobs = scenarioJobs("flash-crowd", 120);
  const std::string tracePath = testing::TempDir() + "replay_equiv_" +
                                std::to_string(shards) + "_" +
                                std::to_string(::getpid()) + ".trace";
  recordTrace(tracePath, shards, 4, jobs);

  const auto requests = decodeTrace(tracePath);
  ASSERT_EQ(requests.size(), jobs.size());

  const auto viaSim = replayInProcess(requests, shards);
  const auto viaDaemon = replayIntoFreshDaemon(requests, shards);
  ASSERT_EQ(viaSim.size(), jobs.size());
  expectIdentical(viaSim, viaDaemon);

  // Sanity: the replay exercised both outcomes (a degenerate all-admit or
  // all-reject run would make the equivalence vacuous).
  std::size_t admitted = 0;
  for (const auto& decision : viaSim) admitted += decision.admitted ? 1 : 0;
  EXPECT_GT(admitted, 0u);
  EXPECT_LT(admitted, viaSim.size());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, TraceReplayEquivalence,
                         testing::Values(1, 4));

// Same acceptance loop with gang admission on: cross-shard gang decisions
// must flow through the identical record/replay contract — a gang-admitted
// job is one decision on the wire, and a fresh in-process replay and a
// fresh daemon replay must reproduce it bit-for-bit.  multi-tenant offers
// full-width-only chains wide enough to be gang-eligible at shards=8
// (32 processors / 8 = 4 per shard); at shards=1 gang is inert and the
// suite degenerates to the classic equivalence.
class GangTraceReplayEquivalence : public testing::TestWithParam<int> {};

TEST_P(GangTraceReplayEquivalence, RecordedTraceReplaysDecisionIdentical) {
  const int shards = GetParam();
  const auto jobs = scenarioJobs("multi-tenant", 120);
  const std::string tracePath = testing::TempDir() + "replay_gang_" +
                                std::to_string(shards) + "_" +
                                std::to_string(::getpid()) + ".trace";
  recordTrace(tracePath, shards, 4, jobs, /*gang=*/true);

  const auto requests = decodeTrace(tracePath);
  ASSERT_EQ(requests.size(), jobs.size());

  const auto viaSim = replayInProcess(requests, shards, /*gang=*/true);
  const auto viaDaemon = replayIntoFreshDaemon(requests, shards,
                                               /*gang=*/true);
  ASSERT_EQ(viaSim.size(), jobs.size());
  expectIdentical(viaSim, viaDaemon);

  std::size_t admitted = 0;
  for (const auto& decision : viaSim) admitted += decision.admitted ? 1 : 0;
  EXPECT_GT(admitted, 0u);
  EXPECT_LT(admitted, viaSim.size());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, GangTraceReplayEquivalence,
                         testing::Values(1, 4, 8));

// The recorded decisions themselves (not just the replays) must match a
// sequential replay when shards == 1: one queue, one worker, total order.
TEST(TraceReplaySingleShard, LiveDecisionsMatchSequentialReplay) {
  const auto jobs = scenarioJobs("heavy-tailed", 80);
  ServerConfig config;
  config.processors = 32;
  config.shards = 1;
  config.unixPath = socketPath("live1");
  config.recordPath = testing::TempDir() + "live_decisions_" +
                      std::to_string(::getpid()) + ".trace";
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ClientConfig clientConfig;
  clientConfig.unixPath = config.unixPath;
  QoSAgentClient client(clientConfig);
  std::vector<Decision> live;
  for (const auto& job : jobs) {
    const auto result = client.negotiate(job.spec, job.release);
    ASSERT_TRUE(result.ok()) << result.error.message;
    Decision decision;
    decision.admitted = result->admitted;
    decision.jobId = result->jobId;
    decision.chainIndex = result->chainIndex;
    decision.quality = result->quality;
    decision.release = result->release;
    live.push_back(decision);
  }
  client.close();
  server.stop();

  const auto requests = decodeTrace(config.recordPath);
  expectIdentical(replayInProcess(requests, 1), live);
}

// Traces recorded before frames went compact hold the 2-space pretty form of
// each request.  Such a trace must decode to the same requests as one
// written today and replay to the same decisions, in process and through a
// daemon.
TEST(TraceReplayCompatibility, PrettyPayloadTraceReplaysLikeCompact) {
  const auto jobs = scenarioJobs("flash-crowd", 120);
  const auto writeTrace = [&jobs](const std::string& path, bool pretty) {
    WireTraceWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Request request;
      request.id = i + 1;
      request.command = Command::Negotiate;
      request.payload = NegotiateRequest{jobs[i].spec, jobs[i].release};
      WireTraceRecord record;
      record.arrivalSeq = i;
      record.payload = encodeRequest(request);
      if (pretty) {
        record.payload = parseJson(record.payload).value->dump();
        ASSERT_NE(record.payload.find("\n  \"cmd\": \"NEGOTIATE\""),
                  std::string::npos);
      }
      ASSERT_TRUE(writer.append(record, &error)) << error;
    }
    ASSERT_TRUE(writer.close(&error)) << error;
  };
  const std::string stem = testing::TempDir() + "replay_pretty_" +
                           std::to_string(::getpid());
  writeTrace(stem + "_compact.trace", /*pretty=*/false);
  writeTrace(stem + "_pretty.trace", /*pretty=*/true);

  const auto compact = decodeTrace(stem + "_compact.trace");
  const auto pretty = decodeTrace(stem + "_pretty.trace");
  ASSERT_EQ(compact.size(), jobs.size());
  ASSERT_EQ(pretty.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(pretty[i], compact[i]) << "record " << i;
  }

  const auto expected = replayInProcess(compact, 1);
  expectIdentical(replayInProcess(pretty, 1), expected);
  expectIdentical(replayIntoFreshDaemon(pretty, 1), expected);
  std::size_t admitted = 0;
  for (const auto& decision : expected) admitted += decision.admitted ? 1 : 0;
  EXPECT_GT(admitted, 0u);
  EXPECT_LT(admitted, expected.size());
}

}  // namespace
}  // namespace tprm::service
