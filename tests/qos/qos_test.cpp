#include "qos/qos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"

namespace tprm::qos {
namespace {

using tunable::CountExpr;
using tunable::Env;
using tunable::Program;
using tunable::TaskConfig;
using tunable::TaskNode;

/// Builds a two-path program: a fast low-quality path and a slow
/// high-quality path.
std::unique_ptr<Program> twoPathProgram(std::vector<std::string>* log = nullptr) {
  auto p = std::make_unique<Program>("twopath");
  p->controlParameter("mode", 0);
  TaskNode t;
  t.name = "work";
  t.deadlineBudget = ticksFromUnits(100.0);
  t.parameterList = {"mode"};
  TaskConfig fast;
  fast.paramValues = {{"mode", 1}};
  fast.request = {2, ticksFromUnits(10.0)};
  fast.quality = 0.6;
  TaskConfig slow;
  slow.paramValues = {{"mode", 2}};
  slow.request = {2, ticksFromUnits(40.0)};
  slow.quality = 1.0;
  t.configs = {fast, slow};
  if (log != nullptr) {
    t.body = [log](const Env& env) {
      log->push_back("work mode=" + std::to_string(env.at("mode")));
    };
  }
  p->root().task(std::move(t));
  return p;
}

TEST(QoSArbitrator, AdmitsAndRecords) {
  QoSArbitrator arbitrator(4);
  auto program = twoPathProgram();
  const auto decision = arbitrator.submit(program->toJobSpec(), 0);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(arbitrator.admittedCount(), 1u);
  EXPECT_EQ(arbitrator.rejectedCount(), 0u);
  EXPECT_TRUE(arbitrator.verify().ok);
  EXPECT_EQ(arbitrator.ledger().reservations().size(), 1u);
}

TEST(QoSArbitrator, LastJobIdIsEmptyBeforeFirstSubmission) {
  // Regression: `nextJobId_ - 1` used to wrap to 2^64-1 on a fresh
  // arbitrator.
  QoSArbitrator arbitrator(4);
  EXPECT_FALSE(arbitrator.lastJobId().has_value());
  auto program = twoPathProgram();
  const auto spec = program->toJobSpec();
  (void)arbitrator.submit(spec, 0);
  ASSERT_TRUE(arbitrator.lastJobId().has_value());
  EXPECT_EQ(*arbitrator.lastJobId(), 0u);
  // Ids count every submission, admitted or not.
  (void)arbitrator.submit(spec, 0);
  EXPECT_EQ(*arbitrator.lastJobId(), 1u);
}

TEST(QoSArbitrator, ClockAdvancesWithReleases) {
  QoSArbitrator arbitrator(4);
  auto program = twoPathProgram();
  const auto spec = program->toJobSpec();
  (void)arbitrator.submit(spec, ticksFromUnits(5.0));
  EXPECT_EQ(arbitrator.clock(), ticksFromUnits(5.0));
  (void)arbitrator.submit(spec, ticksFromUnits(9.0));
  EXPECT_EQ(arbitrator.clock(), ticksFromUnits(9.0));
}

TEST(QoSArbitratorDeath, RejectsTimeTravel) {
  QoSArbitrator arbitrator(4);
  auto program = twoPathProgram();
  const auto spec = program->toJobSpec();
  (void)arbitrator.submit(spec, ticksFromUnits(10.0));
  EXPECT_DEATH((void)arbitrator.submit(spec, ticksFromUnits(5.0)),
               "non-decreasing");
}

TEST(QoSArbitrator, RejectsWhenSaturatedAndCountsIt) {
  QoSArbitrator arbitrator(2);
  auto program = twoPathProgram();
  const auto spec = program->toJobSpec();
  // The machine has 2 processors; each job needs 2.  Submitting many at the
  // same instant exhausts the deadline window.
  int admitted = 0;
  int rejected = 0;
  for (int i = 0; i < 30; ++i) {
    if (arbitrator.submit(spec, 0).admitted) {
      ++admitted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(arbitrator.admittedCount(), static_cast<std::uint64_t>(admitted));
  EXPECT_EQ(arbitrator.rejectedCount(), static_cast<std::uint64_t>(rejected));
  EXPECT_TRUE(arbitrator.verify().ok);
}

TEST(QoSArbitrator, CancelFreesRemainingCapacity) {
  QoSArbitrator arbitrator(2);
  auto program = twoPathProgram();
  const auto spec = program->toJobSpec();
  const auto decision = arbitrator.submit(spec, 0);
  ASSERT_TRUE(decision.admitted);
  const auto jobId = arbitrator.lastJobId().value();
  const auto freed = arbitrator.cancel(jobId);
  EXPECT_GT(freed, 0);
  // Cancelling again is a no-op.
  EXPECT_EQ(arbitrator.cancel(jobId), 0);
  // The capacity is genuinely available again.
  EXPECT_EQ(arbitrator.profile().availableAt(ticksFromUnits(5.0)), 2);
}

TEST(QoSAgent, NegotiatesAndConfiguresProgram) {
  QoSArbitrator arbitrator(4);
  std::vector<std::string> log;
  auto program = twoPathProgram(&log);
  QoSAgent agent(*program);
  EXPECT_EQ(agent.paths().size(), 2u);

  const auto allocation = agent.negotiate(arbitrator, 0);
  ASSERT_TRUE(allocation.has_value());
  // Earliest finish picks the fast path (mode 1).
  EXPECT_EQ(allocation->pathIndex, 0u);
  EXPECT_DOUBLE_EQ(allocation->quality, 0.6);
  EXPECT_EQ(program->parameters().get("mode"), 1);

  agent.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "work mode=1");
}

TEST(QoSAgent, FallsBackToOtherPathUnderContention) {
  // Occupy the machine so the fast path's tight deadline cannot be met but
  // the slow path's can... both share deadlines here, so instead check that
  // under contention the agent still gets *some* path and the bindings
  // match the granted chain.
  QoSArbitrator arbitrator(2);
  std::vector<std::unique_ptr<Program>> programs;
  int granted = 0;
  for (int i = 0; i < 10; ++i) {
    programs.push_back(twoPathProgram());
    QoSAgent agent(*programs.back());
    const auto allocation = agent.negotiate(arbitrator, 0);
    if (!allocation) continue;
    ++granted;
    const auto mode = programs.back()->parameters().get("mode");
    EXPECT_EQ(mode, allocation->pathIndex == 0 ? 1 : 2);
  }
  EXPECT_GT(granted, 1);
  EXPECT_TRUE(arbitrator.verify().ok);
}

TEST(QoSAgentDeath, RunWithoutNegotiation) {
  auto program = twoPathProgram();
  QoSAgent agent(*program);
  EXPECT_DEATH(agent.run(), "negotiation");
}

TEST(QoSAgent, RejectionLeavesNoAllocation) {
  QoSArbitrator arbitrator(1);  // too small for the 2-processor tasks
  auto program = twoPathProgram();
  QoSAgent agent(*program);
  const auto allocation = agent.negotiate(arbitrator, 0);
  EXPECT_FALSE(allocation.has_value());
  EXPECT_FALSE(agent.allocation().has_value());
  EXPECT_EQ(arbitrator.rejectedCount(), 1u);
}

TEST(QoSAgent, StaticNegotiationSendsAllPathsUpFront) {
  // The decision diagnostics show both chains were considered.
  QoSArbitrator arbitrator(4);
  auto program = twoPathProgram();
  const auto decision = arbitrator.submit(program->toJobSpec(), 0);
  EXPECT_EQ(decision.chainsConsidered, 2);
  EXPECT_EQ(decision.chainsSchedulable, 2);
}

TEST(QoSIntegration, ManyAgentsKeepLedgerConsistent) {
  QoSArbitrator arbitrator(8);
  std::vector<std::unique_ptr<Program>> programs;
  Time release = 0;
  for (int i = 0; i < 50; ++i) {
    programs.push_back(twoPathProgram());
    QoSAgent agent(*programs.back());
    (void)agent.negotiate(arbitrator, release);
    release += ticksFromUnits(7.0);
  }
  const auto report = arbitrator.verify();
  EXPECT_TRUE(report.ok) << report.firstViolation;
  EXPECT_EQ(arbitrator.admittedCount() + arbitrator.rejectedCount(), 50u);
}

/// Demotes and promotes in the order offered (ascending job id).
class OfferedOrderPolicy : public ReshapePolicy {
 public:
  std::vector<std::uint64_t> demotionOrder(
      const std::vector<ElasticCandidate>& candidates,
      const task::TunableJobSpec&, Time) const override {
    return ids(candidates);
  }
  std::vector<std::uint64_t> promotionOrder(
      const std::vector<ElasticCandidate>& demoted) const override {
    return ids(demoted);
  }

 private:
  static std::vector<std::uint64_t> ids(
      const std::vector<ElasticCandidate>& candidates) {
    std::vector<std::uint64_t> out;
    for (const auto& candidate : candidates) out.push_back(candidate.jobId);
    return out;
  }
};

/// Up to three chains of one to three tasks; chain c's quality falls with c,
/// so the elastic layer has rungs to move jobs along.
task::TunableJobSpec randomLadderSpec(Rng& rng) {
  task::TunableJobSpec spec;
  spec.name = "ladder";
  const auto chains = rng.uniformInt(1, 3);
  for (std::int64_t c = 0; c < chains; ++c) {
    task::Chain chain;
    chain.name = "c" + std::to_string(c);
    Time deadline = 0;
    const auto tasks = rng.uniformInt(1, 3);
    for (std::int64_t k = 0; k < tasks; ++k) {
      const Time duration = ticksFromUnits(
          static_cast<double>(rng.uniformInt(1, 8)) /
          (1.0 + static_cast<double>(c)));
      deadline += duration * rng.uniformInt(2, 5);
      chain.tasks.push_back(task::TaskSpec::rigid(
          "t" + std::to_string(k),
          static_cast<int>(rng.uniformInt(1, 6 - 2 * c)), duration, deadline,
          k == 0 ? 1.0 - 0.3 * static_cast<double>(c) : 1.0));
    }
    spec.chains.push_back(std::move(chain));
  }
  return spec;
}

// retireFinished pops a min-heap of last placement ends instead of walking
// every live job.  A model of the old full walk — erase every live job whose
// last placement ended by the clock, whenever the arbitrator retires — is
// kept beside a real arbitrator through seeded submit / cancel / clock-jump /
// resize sequences with elastic moves, and the live sets must agree after
// every step.
TEST(QoSArbitrator, RetireQueueMatchesFullLiveWalk) {
  std::size_t retired = 0;
  std::size_t moved = 0;
  std::size_t reconfigured = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    QoSArbitrator arbitrator(8);
    OfferedOrderPolicy policy;
    arbitrator.attachReshapePolicy(&policy);
    std::map<std::uint64_t, Time> lastEnd;  // the full walk's live set
    const auto retire = [&](Time clock) {
      for (auto it = lastEnd.begin(); it != lastEnd.end();) {
        if (it->second <= clock) {
          it = lastEnd.erase(it);
          ++retired;
        } else {
          ++it;
        }
      }
    };
    const auto applyMoves = [&](const std::vector<QualityMove>& moves) {
      for (const auto& move : moves) {
        lastEnd[move.jobId] = move.schedule.placements.back().interval.end;
        ++moved;
      }
    };
    Time clock = 0;
    for (int step = 0; step < 600; ++step) {
      const auto op = rng.uniformInt(0, 19);
      std::vector<QualityMove> moves;
      if (op < 12 || op >= 18) {
        // Submit, mostly at the same instant (so queued jobs are still
        // movable); one in six jumps the clock far enough to retire a lot.
        clock += op >= 18 ? ticksFromUnits(40.0) * rng.uniformInt(0, 4)
                          : ticksFromUnits(0.5) *
                                std::max<std::int64_t>(0, rng.uniformInt(-4, 2));
        retire(clock);
        const auto decision =
            arbitrator.submit(randomLadderSpec(rng), clock, &moves);
        applyMoves(moves);
        if (decision.admitted) {
          lastEnd[*arbitrator.lastJobId()] =
              decision.schedule.placements.back().interval.end;
        }
      } else if (op < 16) {
        if (!arbitrator.lastJobId().has_value()) continue;
        const auto victim = static_cast<std::uint64_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(
                                  *arbitrator.lastJobId())));
        (void)arbitrator.cancel(victim, &moves);
        lastEnd.erase(victim);
        applyMoves(moves);
      } else {
        clock += ticksFromUnits(1.0) * rng.uniformInt(0, 6);
        retire(clock);
        const auto report = arbitrator.resize(
            static_cast<int>(rng.uniformInt(4, 12)), clock);
        for (const auto id : report.dropped) lastEnd.erase(id);
        for (const auto id : report.reconfigured) {
          Time end = 0;
          for (const auto& r : arbitrator.ledger().reservations()) {
            if (r.jobId == id) end = std::max(end, r.interval.end);
          }
          lastEnd[id] = end;
          ++reconfigured;
        }
      }
      const auto last = arbitrator.lastJobId();
      for (std::uint64_t id = 0; last.has_value() && id <= *last; ++id) {
        ASSERT_EQ(arbitrator.live(id), lastEnd.count(id) == 1)
            << "seed " << seed << " step " << step << " job " << id;
      }
    }
    EXPECT_TRUE(arbitrator.verify().ok) << "seed " << seed;
  }
  // The sequences exercised every path that sets or drops placements.
  EXPECT_GT(retired, 100u);
  EXPECT_GE(moved, 5u);
  EXPECT_GT(reconfigured, 0u);
}

}  // namespace
}  // namespace tprm::qos
