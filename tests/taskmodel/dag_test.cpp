#include "taskmodel/dag.h"

#include <gtest/gtest.h>

namespace tprm::task {
namespace {

DagTask node(const std::string& name, int procs, Time dur, Time deadline,
             std::vector<std::size_t> preds = {}, double quality = 1.0) {
  DagTask t;
  t.spec = TaskSpec::rigid(name, procs, dur, deadline, quality);
  t.predecessors = std::move(preds);
  return t;
}

/// Diamond: a -> {b, c} -> d.
DagSpec diamond() {
  DagSpec dag;
  dag.name = "diamond";
  dag.tasks = {node("a", 2, 10, 1000),
               node("b", 4, 20, 1000, {0}),
               node("c", 2, 30, 1000, {0}),
               node("d", 2, 10, 1000, {1, 2})};
  return dag;
}

TEST(DagSpec, TotalArea) {
  EXPECT_EQ(diamond().totalArea(), 2 * 10 + 4 * 20 + 2 * 30 + 2 * 10);
}

TEST(DagSpec, TopologicalOrderIsValidAndDeterministic) {
  const auto dag = diamond();
  const auto order = dag.topologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (std::size_t v = 0; v < dag.tasks.size(); ++v) {
    for (const std::size_t p : dag.tasks[v].predecessors) {
      EXPECT_LT(position[p], position[v]);
    }
  }
  // Deterministic (index tie-break): a, b, c, d.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(DagSpec, CriticalPathLength) {
  // a(10) -> c(30) -> d(10) is the longest path: 50.
  EXPECT_EQ(diamond().criticalPathLength(), 50);
}

TEST(DagSpecDeath, CycleAborts) {
  DagSpec dag;
  dag.tasks = {node("a", 1, 10, 1000, {1}), node("b", 1, 10, 1000, {0})};
  EXPECT_DEATH((void)dag.topologicalOrder(), "cycle");
}

TEST(ValidateDag, AcceptsDiamond) {
  TunableDagJobSpec spec;
  spec.name = "ok";
  spec.alternatives = {diamond()};
  EXPECT_TRUE(validateDag(spec).empty());
}

TEST(ValidateDag, RejectsEmptyAndCyclic) {
  TunableDagJobSpec empty;
  empty.name = "empty";
  EXPECT_FALSE(validateDag(empty).empty());

  TunableDagJobSpec cyclic;
  DagSpec dag;
  dag.tasks = {node("a", 1, 10, 1000, {1}), node("b", 1, 10, 1000, {0})};
  cyclic.alternatives = {dag};
  const auto errors = validateDag(cyclic);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("cycle"), std::string::npos);
}

TEST(ValidateDag, RejectsSelfLoopAndBadIndex) {
  TunableDagJobSpec spec;
  DagSpec dag;
  dag.tasks = {node("a", 1, 10, 1000, {0})};  // self-loop
  spec.alternatives = {dag};
  auto errors = validateDag(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("itself"), std::string::npos);

  DagSpec bad;
  bad.tasks = {node("a", 1, 10, 1000, {7})};
  spec.alternatives = {bad};
  errors = validateDag(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("out of range"), std::string::npos);
}

TEST(ValidateDag, RejectsInfeasibleDeadlineAlongPath) {
  TunableDagJobSpec spec;
  DagSpec dag;
  // a(30) -> b(30) with b's deadline at 50 < 60.
  dag.tasks = {node("a", 1, 30, 1000), node("b", 1, 30, 50, {0})};
  spec.alternatives = {dag};
  const auto errors = validateDag(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("infeasible"), std::string::npos);
}

TEST(ValidateDag, RejectsBadShapes) {
  TunableDagJobSpec spec;
  DagSpec dag;
  DagTask bad;
  bad.spec.name = "bad";
  bad.spec.request = {0, 0};
  bad.spec.quality = 2.0;
  dag.tasks = {bad};
  spec.alternatives = {dag};
  EXPECT_GE(validateDag(spec).size(), 3u);
}

// Location strings are built only on the error path; these pins keep the
// text byte-for-byte.
TEST(ValidateDag, ErrorStringsArePinned) {
  TunableDagJobSpec none;
  none.name = "pin";
  EXPECT_EQ(validateDag(none),
            (std::vector<std::string>{"dag job 'pin' has no alternatives"}));

  TunableDagJobSpec spec;
  spec.name = "pin";
  DagSpec empty;
  empty.name = "none";
  DagSpec shapes;
  shapes.name = "shapes";
  DagTask zero;
  zero.spec.name = "z";
  zero.spec.request = {0, 0};
  zero.spec.quality = 2.0;
  shapes.tasks = {node("ok", 1, 5, 100), zero, node("self", 1, 5, 100, {2}),
                  node("far", 1, 5, 100, {9})};
  DagSpec cyclic;
  cyclic.name = "loop";
  cyclic.tasks = {node("a", 1, 10, 1000, {1}), node("b", 1, 10, 1000, {0})};
  DagSpec late;
  late.name = "late";
  late.tasks = {node("a", 1, ticksFromUnits(3.0), ticksFromUnits(100.0)),
                node("b", 1, ticksFromUnits(3.0), ticksFromUnits(5.5), {0})};
  spec.alternatives = {empty, shapes, cyclic, late};
  EXPECT_EQ(
      validateDag(spec),
      (std::vector<std::string>{
          "dag job 'pin' alternative 0 ('none') is empty",
          "dag job 'pin' alternative 1 ('shapes') task 1 ('z'): processors "
          "<= 0",
          "dag job 'pin' alternative 1 ('shapes') task 1 ('z'): duration <= 0",
          "dag job 'pin' alternative 1 ('shapes') task 1 ('z'): quality "
          "outside [0, 1]",
          "dag job 'pin' alternative 1 ('shapes') task 2 ('self'): task "
          "depends on itself",
          "dag job 'pin' alternative 1 ('shapes') task 3 ('far'): "
          "predecessor index out of range",
          "dag job 'pin' alternative 2 ('loop') contains a cycle",
          "dag job 'pin' alternative 3 ('late') task 1 ('b'): infeasible "
          "even on an idle machine (earliest finish 6 exceeds deadline 5.5)"}));
}

TEST(DagFromChains, PreservesStructure) {
  TunableJobSpec chains;
  chains.name = "chainjob";
  Chain chain;
  chain.name = "c0";
  chain.tasks = {TaskSpec::rigid("x", 2, 10, 100),
                 TaskSpec::rigid("y", 4, 20, 200)};
  chains.chains = {chain, chain};
  const auto dag = dagFromChains(chains);
  EXPECT_EQ(dag.name, "chainjob");
  ASSERT_EQ(dag.alternatives.size(), 2u);
  const auto& alt = dag.alternatives[0];
  ASSERT_EQ(alt.tasks.size(), 2u);
  EXPECT_TRUE(alt.tasks[0].predecessors.empty());
  EXPECT_EQ(alt.tasks[1].predecessors, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(validateDag(dag).empty());
}

}  // namespace
}  // namespace tprm::task
