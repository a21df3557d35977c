#include "taskmodel/chain.h"

#include <gtest/gtest.h>

namespace tprm::task {
namespace {

Chain twoTaskChain() {
  Chain chain;
  chain.name = "c";
  chain.tasks = {TaskSpec::rigid("a", 16, 25, 200, 0.9),
                 TaskSpec::rigid("b", 4, 100, 250, 0.8)};
  return chain;
}

TEST(Chain, Aggregates) {
  const auto chain = twoTaskChain();
  EXPECT_EQ(chain.totalArea(), 16 * 25 + 4 * 100);
  EXPECT_EQ(chain.criticalPathLength(), 125);
  EXPECT_EQ(chain.maxProcessors(), 16);
}

TEST(Chain, PrefixAreas) {
  const auto chain = twoTaskChain();
  const auto prefix = chain.prefixAreas();
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[0], 400);
  EXPECT_EQ(prefix[1], 800);
}

TEST(Chain, QualityComposition) {
  const auto chain = twoTaskChain();
  EXPECT_NEAR(chain.quality(QualityComposition::Multiplicative), 0.72, 1e-12);
  EXPECT_NEAR(chain.quality(QualityComposition::Minimum), 0.8, 1e-12);
}

TEST(Chain, EmptyChainHasZeroQuality) {
  Chain chain;
  EXPECT_DOUBLE_EQ(chain.quality(), 0.0);
  EXPECT_EQ(chain.totalArea(), 0);
  EXPECT_EQ(chain.criticalPathLength(), 0);
  EXPECT_EQ(chain.maxProcessors(), 0);
}

TEST(TunableJobSpec, TunableFlag) {
  TunableJobSpec spec;
  spec.chains = {twoTaskChain()};
  EXPECT_FALSE(spec.tunable());
  spec.chains.push_back(twoTaskChain());
  EXPECT_TRUE(spec.tunable());
}

TEST(JobInstance, AbsoluteDeadlines) {
  JobInstance job;
  job.release = 1000;
  job.spec.chains = {twoTaskChain()};
  EXPECT_EQ(job.absoluteDeadline(0, 0), 1200);
  EXPECT_EQ(job.absoluteDeadline(0, 1), 1250);
}

TEST(JobInstance, InfiniteDeadlineStaysInfinite) {
  JobInstance job;
  job.release = 1000;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 1, 1, kTimeInfinity)};
  job.spec.chains = {chain};
  EXPECT_EQ(job.absoluteDeadline(0, 0), kTimeInfinity);
}

TEST(JobInstanceDeath, OutOfRangeIndices) {
  JobInstance job;
  job.spec.chains = {twoTaskChain()};
  EXPECT_DEATH((void)job.absoluteDeadline(1, 0), "chain index");
  EXPECT_DEATH((void)job.absoluteDeadline(0, 2), "task index");
}

TEST(Validate, AcceptsWellFormedSpec) {
  TunableJobSpec spec;
  spec.name = "ok";
  spec.chains = {twoTaskChain()};
  EXPECT_TRUE(validate(spec).empty());
}

TEST(Validate, RejectsNoChains) {
  TunableJobSpec spec;
  spec.name = "empty";
  const auto errors = validate(spec);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("no chains"), std::string::npos);
}

TEST(Validate, RejectsEmptyChain) {
  TunableJobSpec spec;
  spec.chains = {Chain{}};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("is empty"), std::string::npos);
}

TEST(Validate, RejectsBadShape) {
  TunableJobSpec spec;
  Chain chain;
  TaskSpec bad;
  bad.name = "bad";
  bad.request = {0, 0};
  chain.tasks = {bad};
  spec.chains = {chain};
  const auto errors = validate(spec);
  EXPECT_GE(errors.size(), 2u);  // processors and duration
}

TEST(Validate, RejectsQualityOutOfRange) {
  TunableJobSpec spec;
  auto chain = twoTaskChain();
  chain.tasks[0].quality = 1.5;
  spec.chains = {chain};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("quality"), std::string::npos);
}

TEST(Validate, RejectsDecreasingDeadlines) {
  TunableJobSpec spec;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 1, 10, 100),
                 TaskSpec::rigid("b", 1, 10, 50)};
  spec.chains = {chain};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("deadline decreases"), std::string::npos);
}

TEST(Validate, RejectsInfeasibleCriticalPath) {
  TunableJobSpec spec;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 1, 100, 50)};  // 100 > deadline 50
  spec.chains = {chain};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("infeasible"), std::string::npos);
}

TEST(Validate, RejectsInconsistentMalleableSpec) {
  TunableJobSpec spec;
  Chain chain;
  auto t = TaskSpec::rigid("a", 8, 10, 100);
  t.malleable = MalleableSpec{80, 4};  // maxConcurrency < shape processors
  chain.tasks = {t};
  spec.chains = {chain};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("concurrency"), std::string::npos);
}

TEST(Validate, ReportsChainAndTaskNames) {
  TunableJobSpec spec;
  spec.name = "myjob";
  Chain chain;
  chain.name = "mychain";
  chain.tasks = {TaskSpec::rigid("mytask", 1, 100, 50)};
  spec.chains = {chain};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("myjob"), std::string::npos);
  EXPECT_NE(errors[0].find("mychain"), std::string::npos);
  EXPECT_NE(errors[0].find("mytask"), std::string::npos);
}

// Location strings are built only on the error path; these pins keep the
// text byte-for-byte what callers (and wire clients) have always seen.
TEST(Validate, ErrorStringsArePinned) {
  TunableJobSpec none;
  none.name = "pin";
  EXPECT_EQ(validate(none),
            (std::vector<std::string>{"job 'pin' has no chains"}));

  TunableJobSpec spec;
  spec.name = "pin";
  Chain empty;
  empty.name = "none";
  Chain shape;
  shape.name = "shape";
  TaskSpec zero;
  zero.name = "t0";
  zero.request = {0, 0};
  shape.tasks = {TaskSpec::rigid("ok", 1, 5, 100), zero};
  Chain falling;
  falling.name = "falling";
  falling.tasks = {TaskSpec::rigid("a", 1, 10, 100),
                   TaskSpec::rigid("b", 1, 10, 50)};
  Chain late;
  late.name = "late";
  late.tasks = {TaskSpec::rigid("a", 2, ticksFromUnits(2.5),
                                ticksFromUnits(1.25))};
  spec.chains = {empty, shape, falling, late};
  EXPECT_EQ(
      validate(spec),
      (std::vector<std::string>{
          "job 'pin' chain 0 ('none') is empty",
          "job 'pin' chain 1 ('shape') task 1 ('t0'): processors <= 0",
          "job 'pin' chain 1 ('shape') task 1 ('t0'): duration <= 0",
          "job 'pin' chain 2 ('falling') task 1 ('b'): relative deadline "
          "decreases along the chain (a deadline covers all predecessors, so "
          "it must be non-decreasing)",
          "job 'pin' chain 3 ('late') task 0 ('a'): infeasible even on an "
          "idle machine (critical path 2.5 exceeds deadline 1.25)"}));
}

}  // namespace
}  // namespace tprm::task
