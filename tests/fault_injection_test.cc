// PR 6 robustness coverage: the util::Failpoint registry, the lp deadline
// budget, the controller's four-rung degradation ladder, scenario-input
// validation, fault windows — and the randomized fault-campaign soak that
// replays zoo-corpus scenarios under seeded fault schedules and asserts the
// hard invariants:
//
//   * every epoch installs a valid placement (fractions sum to 1, no
//     allocated path crosses a masked link), faulted or not;
//   * the ladder fires only inside fault windows (clean_fallback_epochs 0);
//   * once faults clear, the placement hash reconverges to the fault-free
//     run's within two epochs (warm/cold parity + the engine's forced cold
//     restart at window close).
//
// Everything here is deterministic: failpoint Bernoulli draws are seeded,
// campaign schedules come from a local SplitMix64, and the LDR stack itself
// is bitwise-reproducible.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/ksp.h"
#include "lp/lp.h"
#include "routing/ldr_controller.h"
#include "routing/placement.h"
#include "sim/scenario_engine.h"
#include "sim/workload.h"
#include "topology/topology.h"
#include "topology/zoo_corpus.h"
#include "util/failpoint.h"

namespace ldr {
namespace {

using util::Failpoint;

// Every test starts and ends with a clean registry: failpoints are process
// globals and must never leak across tests (or into other test binaries'
// assumptions about LDR_FAILPOINTS being unset).
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoint::DeactivateAll(); }
  void TearDown() override { Failpoint::DeactivateAll(); }
};

// Same 4-node fixture as scenario_test: A-B direct (tight) with a roomy
// A-C-B detour and a C-D spur. Link ids: A->B=0 B->A=1 A->C=2 C->A=3 C->B=4
// B->C=5 C->D=6 D->C=7.
Topology FailoverNet(double direct_cap = 10) {
  Topology t;
  t.name = "failover-net";
  NodeId a = t.AddPop("A", 10.0, 10.0);
  NodeId b = t.AddPop("B", 10.0, 20.0);
  NodeId c = t.AddPop("C", 20.0, 15.0);
  NodeId d = t.AddPop("D", 30.0, 15.0);
  t.AddCable(a, b, direct_cap, 1.0);
  t.AddCable(a, c, 100, 2.0);
  t.AddCable(c, b, 100, 2.0);
  t.AddCable(c, d, 100, 1.0);
  return t;
}

Aggregate MakeAgg(NodeId s, NodeId d, double demand) {
  Aggregate a;
  a.src = s;
  a.dst = d;
  a.demand_gbps = demand;
  a.flow_count = 10;
  return a;
}

std::vector<Aggregate> SmallAggregates() {
  // A->B outgrows the direct cable, so the placement must split onto the
  // detour: the LP genuinely pivots (a single-path-per-aggregate problem
  // solves in zero iterations and would make the telemetry tests vacuous).
  return {MakeAgg(0, 1, 15.0), MakeAgg(1, 0, 2.0), MakeAgg(2, 3, 1.0)};
}

// One epoch's measured segment: every aggregate constant at its demand.
std::vector<std::vector<double>> ConstantSegment(
    const std::vector<Aggregate>& aggs, double epoch_sec = 60) {
  std::vector<std::vector<double>> seg(aggs.size());
  size_t bins = static_cast<size_t>(epoch_sec * 10);
  for (size_t a = 0; a < aggs.size(); ++a) {
    seg[a].assign(bins, aggs[a].demand_gbps);
  }
  return seg;
}

// ---------------------------------------------------------------------------
// Failpoint registry.

TEST_F(FaultInjectionTest, FailpointActivateFireDeactivate) {
  EXPECT_FALSE(util::FailpointsArmed());
  EXPECT_FALSE(LDR_FAILPOINT("t.basic"));  // never activated

  Failpoint::Activate("t.basic");
  EXPECT_TRUE(util::FailpointsArmed());
  EXPECT_TRUE(Failpoint::IsActive("t.basic"));
  EXPECT_TRUE(LDR_FAILPOINT("t.basic"));
  EXPECT_TRUE(LDR_FAILPOINT("t.basic"));
  EXPECT_EQ(Failpoint::HitCount("t.basic"), 2);
  EXPECT_EQ(Failpoint::FireCount("t.basic"), 2);

  // Another name stays cold even while the process is armed.
  EXPECT_FALSE(LDR_FAILPOINT("t.other"));
  EXPECT_EQ(Failpoint::HitCount("t.other"), 0);

  Failpoint::Deactivate("t.basic");
  EXPECT_FALSE(util::FailpointsArmed());
  EXPECT_FALSE(Failpoint::IsActive("t.basic"));
  EXPECT_FALSE(LDR_FAILPOINT("t.basic"));
  // Counters survive Deactivate (the macro short-circuits on the armed
  // gate, so the dormant site records no further hits).
  EXPECT_EQ(Failpoint::HitCount("t.basic"), 2);
  EXPECT_EQ(Failpoint::FireCount("t.basic"), 2);

  Failpoint::Activate("t.basic");
  EXPECT_EQ(Failpoint::HitCount("t.basic"), 0);  // Activate resets
  Failpoint::Activate("t.second");
  std::vector<std::string> names = Failpoint::ActiveNames();
  EXPECT_EQ(names.size(), 2u);
  Failpoint::DeactivateAll();
  EXPECT_FALSE(util::FailpointsArmed());
  EXPECT_TRUE(Failpoint::ActiveNames().empty());
}

TEST_F(FaultInjectionTest, FailpointSkipAndLimit) {
  Failpoint::Spec spec;
  spec.skip = 2;
  spec.limit = 2;
  Failpoint::Activate("t.skiplimit", spec);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(LDR_FAILPOINT("t.skiplimit"));
  // Hits 1-2 skipped, hits 3-4 fire, the limit then caps fires at 2.
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_EQ(Failpoint::HitCount("t.skiplimit"), 6);
  EXPECT_EQ(Failpoint::FireCount("t.skiplimit"), 2);
}

TEST_F(FaultInjectionTest, FailpointSeededProbabilityIsDeterministic) {
  Failpoint::Spec spec;
  spec.probability = 0.5;
  spec.seed = 42;
  auto draw = [&]() {
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) pattern.push_back(LDR_FAILPOINT("t.bern"));
    return pattern;
  };
  Failpoint::Activate("t.bern", spec);
  std::vector<bool> first = draw();
  // Re-activation resets the PRNG stream: same seed, same fire pattern.
  Failpoint::Activate("t.bern", spec);
  EXPECT_EQ(draw(), first);
  // The pattern is genuinely probabilistic: both outcomes occur, and fires
  // track the recorded pattern exactly.
  size_t fires = 0;
  for (bool b : first) fires += b ? 1 : 0;
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
  EXPECT_EQ(Failpoint::FireCount("t.bern"), static_cast<long>(fires));

  // A different seed gives a different pattern.
  spec.seed = 43;
  Failpoint::Activate("t.bern", spec);
  EXPECT_NE(draw(), first);
}

TEST_F(FaultInjectionTest, FailpointSpecStringParsing) {
  // Grammar from failpoint.h: `site:mode` entries joined by ';', modes
  // always/once/off or '+'-joined fields. Malformed entries are skipped.
  size_t n = Failpoint::InstallFromSpecString(
      "t.a:once;t.b:skip=1+limit=2;t.c;t.off:off;"
      "t.bad:nonsense;t.bad2:p=abc;:always;t.p:p=0.5+seed=7");
  EXPECT_EQ(n, 4u);  // t.a, t.b, t.c, t.p
  EXPECT_TRUE(Failpoint::IsActive("t.a"));
  EXPECT_TRUE(Failpoint::IsActive("t.b"));
  EXPECT_TRUE(Failpoint::IsActive("t.c"));
  EXPECT_TRUE(Failpoint::IsActive("t.p"));
  EXPECT_FALSE(Failpoint::IsActive("t.off"));
  EXPECT_FALSE(Failpoint::IsActive("t.bad"));
  EXPECT_FALSE(Failpoint::IsActive("t.bad2"));

  // once == limit 1.
  EXPECT_TRUE(LDR_FAILPOINT("t.a"));
  EXPECT_FALSE(LDR_FAILPOINT("t.a"));
  // skip=1+limit=2: hit 1 skipped, then two fires.
  EXPECT_FALSE(LDR_FAILPOINT("t.b"));
  EXPECT_TRUE(LDR_FAILPOINT("t.b"));
  EXPECT_TRUE(LDR_FAILPOINT("t.b"));
  EXPECT_FALSE(LDR_FAILPOINT("t.b"));
  // Bare name defaults to always.
  EXPECT_TRUE(LDR_FAILPOINT("t.c"));
  EXPECT_TRUE(LDR_FAILPOINT("t.c"));
}

// ---------------------------------------------------------------------------
// Status vocabulary.

TEST_F(FaultInjectionTest, LpStatusToStringIsExhaustive) {
  const lp::Status all[] = {lp::Status::kOptimal, lp::Status::kInfeasible,
                            lp::Status::kUnbounded, lp::Status::kIterLimit,
                            lp::Status::kDeadline};
  std::set<std::string> seen;
  for (lp::Status s : all) {
    std::string str = lp::ToString(s);
    EXPECT_FALSE(str.empty());
    EXPECT_EQ(str.find("status"), std::string::npos)
        << "looks like an unknown-status placeholder: " << str;
    seen.insert(str);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five statuses name themselves distinctly
  EXPECT_EQ(lp::ToString(lp::Status::kDeadline), "deadline");
}

TEST_F(FaultInjectionTest, FallbackRungToStringIsExhaustive) {
  const FallbackRung all[] = {FallbackRung::kNone, FallbackRung::kRetryRefactor,
                              FallbackRung::kColdRebuild,
                              FallbackRung::kLastPlacement,
                              FallbackRung::kShortestPath};
  std::set<std::string> seen;
  for (FallbackRung r : all) seen.insert(ToString(r));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(std::string(ToString(FallbackRung::kShortestPath)),
            "shortest-path");
}

// ---------------------------------------------------------------------------
// Deadline budget (lp::SolveOptions::deadline_ms).

TEST_F(FaultInjectionTest, ZeroDeadlineReturnsKDeadlinePromptly) {
  // A real (if small) LP that would otherwise solve to optimality.
  lp::Problem p;
  int x = p.AddVariable(0, 10, -1.0);
  int y = p.AddVariable(0, 10, -2.0);
  p.AddRow(lp::RowType::kLe, 12, {{x, 1.0}, {y, 1.0}});

  lp::SolveOptions opts;
  auto t0 = std::chrono::steady_clock::now();
  lp::Solution baseline = lp::Solve(p, opts);
  EXPECT_TRUE(baseline.ok());

  opts.deadline_ms = 0;
  lp::Solution sol = lp::Solve(p, opts);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_EQ(sol.status, lp::Status::kDeadline);
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.iterations, 0);  // checked on entry, before any pivot
  // Generous bound (sanitized builds are slow), but "promptly" must mean
  // well under any real epoch budget.
  EXPECT_LT(ms, 5000.0);

  // Negative disables the deadline entirely.
  opts.deadline_ms = -1;
  EXPECT_TRUE(lp::Solve(p, opts).ok());
}

TEST_F(FaultInjectionTest, ControllerZeroDeadlineWalksLadderPromptly) {
  Topology t = FailoverNet();
  KspCache cache(&t.graph);
  LdrControllerOptions opts;
  opts.routing.lp.deadline_ms = 0;  // every LP solve returns kDeadline
  LdrController controller(&t.graph, &cache, opts);

  std::vector<Aggregate> aggs = SmallAggregates();
  auto t0 = std::chrono::steady_clock::now();
  LdrControllerResult r = controller.RunEpoch(aggs, ConstantSegment(aggs));
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();

  // Rungs 1-2 also run under the zero deadline, so the first epoch lands on
  // the rung-4 emergency placement — valid, installed, and fast.
  EXPECT_EQ(r.fallback, FallbackRung::kShortestPath);
  EXPECT_EQ(r.outcome.fallback, FallbackRung::kShortestPath);
  EXPECT_GE(r.outcome.lp_failures, 1);
  PlacementCheck check =
      ValidatePlacement(t.graph, *cache.store(), r.outcome.allocations);
  EXPECT_TRUE(check.valid);
  for (const auto& alloc : r.outcome.allocations) EXPECT_FALSE(alloc.empty());
  EXPECT_LT(ms, 10000.0);
}

// ---------------------------------------------------------------------------
// The degradation ladder, rung by rung, steered through lp.iter_limit.

TEST_F(FaultInjectionTest, LadderRungOneRetryAfterForcedRefactorization) {
  Topology t = FailoverNet();
  KspCache cache(&t.graph);
  LdrController controller(&t.graph, &cache, {});
  std::vector<Aggregate> aggs = SmallAggregates();

  // Exactly the first LP solve fails; the forced-refactorization retry
  // (rung 1) succeeds in place.
  Failpoint::Spec spec;
  spec.limit = 1;
  Failpoint::Activate("lp.iter_limit", spec);
  LdrControllerResult r = controller.RunEpoch(aggs, ConstantSegment(aggs));

  EXPECT_EQ(r.fallback, FallbackRung::kRetryRefactor);
  EXPECT_EQ(r.outcome.lp_failures, 1);
  EXPECT_TRUE(
      ValidatePlacement(t.graph, *cache.store(), r.outcome.allocations).valid);
  // Solution telemetry survives the ladder: the successful retry's work is
  // accumulated into the outcome, not discarded with the failed solve.
  EXPECT_GT(r.outcome.lp_iterations, 0);
  EXPECT_GT(r.outcome.lp_pivots, 0);
  EXPECT_GT(r.outcome.lp_basis_bytes, 0u);
  EXPECT_GE(Failpoint::FireCount("lp.iter_limit"), 1);
}

TEST_F(FaultInjectionTest, LadderRungTwoColdRebuild) {
  Topology t = FailoverNet();
  KspCache cache(&t.graph);
  LdrController controller(&t.graph, &cache, {});
  std::vector<Aggregate> aggs = SmallAggregates();

  // First solve AND the rung-1 retry fail; the cold rebuild (rung 2) is the
  // third solve and succeeds.
  Failpoint::Spec spec;
  spec.limit = 2;
  Failpoint::Activate("lp.iter_limit", spec);
  LdrControllerResult r = controller.RunEpoch(aggs, ConstantSegment(aggs));

  EXPECT_EQ(r.fallback, FallbackRung::kColdRebuild);
  EXPECT_EQ(r.outcome.lp_failures, 2);
  EXPECT_TRUE(
      ValidatePlacement(t.graph, *cache.store(), r.outcome.allocations).valid);
  EXPECT_GT(r.outcome.lp_iterations, 0);
}

TEST_F(FaultInjectionTest, LadderRungFourWithoutHistoryRungThreeWithIt) {
  Topology t = FailoverNet();
  KspCache cache(&t.graph);
  LdrController controller(&t.graph, &cache, {});
  std::vector<Aggregate> aggs = SmallAggregates();
  auto seg = ConstantSegment(aggs);

  // Epoch 1 under a total LP outage: no last placement exists, so the
  // controller lands on the rung-4 shortest-path emergency placement.
  Failpoint::Activate("lp.iter_limit");
  LdrControllerResult r1 = controller.RunEpoch(aggs, seg);
  EXPECT_EQ(r1.fallback, FallbackRung::kShortestPath);
  EXPECT_FALSE(r1.outcome.feasible);
  EXPECT_TRUE(
      ValidatePlacement(t.graph, *cache.store(), r1.outcome.allocations).valid);
  Failpoint::Deactivate("lp.iter_limit");

  // A clean epoch installs a real placement...
  LdrControllerResult r2 = controller.RunEpoch(aggs, seg);
  EXPECT_EQ(r2.fallback, FallbackRung::kNone);

  // ...which the next total outage re-serves as rung 3 (preferred over the
  // emergency placement: nothing is masked, so the prune is a no-op).
  Failpoint::Activate("lp.iter_limit");
  LdrControllerResult r3 = controller.RunEpoch(aggs, seg);
  EXPECT_EQ(r3.fallback, FallbackRung::kLastPlacement);
  ASSERT_EQ(r3.outcome.allocations.size(), r2.outcome.allocations.size());
  for (size_t a = 0; a < r3.outcome.allocations.size(); ++a) {
    ASSERT_EQ(r3.outcome.allocations[a].size(),
              r2.outcome.allocations[a].size());
    for (size_t i = 0; i < r3.outcome.allocations[a].size(); ++i) {
      EXPECT_EQ(r3.outcome.allocations[a][i].path,
                r2.outcome.allocations[a][i].path);
      EXPECT_DOUBLE_EQ(r3.outcome.allocations[a][i].fraction,
                       r2.outcome.allocations[a][i].fraction);
    }
  }
}

TEST_F(FaultInjectionTest, ShortestPathPlacementSurvivesKspOutage) {
  // ksp.empty suppresses only *new* path production; the rank-0 shortest
  // path every generator produces at construction survives, so the rung-4
  // emergency placement stays available during a KSP outage.
  Topology t = FailoverNet();
  KspCache cache(&t.graph);
  std::vector<Aggregate> aggs = SmallAggregates();
  Failpoint::Activate("ksp.empty");
  auto placement = ShortestPathPlacement(aggs, &cache);
  ASSERT_EQ(placement.size(), aggs.size());
  for (const auto& alloc : placement) {
    ASSERT_EQ(alloc.size(), 1u);
    EXPECT_NE(alloc[0].path, kInvalidPathId);
    EXPECT_DOUBLE_EQ(alloc[0].fraction, 1.0);
  }
  EXPECT_TRUE(ValidatePlacement(t.graph, *cache.store(), placement).valid);
}

// ---------------------------------------------------------------------------
// Graph mask hardening (satellite: out-of-range link ids are external input).

TEST_F(FaultInjectionTest, LinkMaskOutOfRangeIsNoOp) {
  Topology t = FailoverNet();
  Graph& g = t.graph;
  size_t links = g.LinkCount();

  g.SetLinkDown(-1, true);
  g.SetLinkDown(static_cast<LinkId>(links), true);
  g.SetLinkDown(1000000, true);
  EXPECT_EQ(g.DownLinkCount(), 0u);
  EXPECT_FALSE(g.IsLinkDown(-1));
  EXPECT_FALSE(g.IsLinkDown(static_cast<LinkId>(links)));
  EXPECT_FALSE(g.IsLinkDown(1000000));

  // In-range behavior is unchanged, including the down -> down no-op.
  g.SetLinkDown(0, true);
  g.SetLinkDown(0, true);
  EXPECT_EQ(g.DownLinkCount(), 1u);
  EXPECT_TRUE(g.IsLinkDown(0));
  g.SetLinkDown(0, false);
  EXPECT_EQ(g.DownLinkCount(), 0u);
}

// ---------------------------------------------------------------------------
// Scenario-input validation.

TEST_F(FaultInjectionTest, ScenarioEngineCountsInvalidAndRedundantEvents) {
  Topology t = FailoverNet();
  Scenario s;
  s.name = "validation";
  s.epochs = 8;
  s.aggregates = SmallAggregates();
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);

  ScenarioEvent down;
  down.type = ScenarioEvent::Type::kLinkDown;
  down.epoch = 2;
  down.link = 0;
  s.events.push_back(down);            // applied
  down.epoch = 3;
  s.events.push_back(down);            // redundant: already masked
  ScenarioEvent up;
  up.type = ScenarioEvent::Type::kLinkUp;
  up.epoch = 3;
  up.link = 2;
  s.events.push_back(up);              // redundant: link 2 was never down
  up.epoch = 5;
  up.link = 0;
  s.events.push_back(up);              // applied
  down.epoch = 2;
  down.link = 99;
  s.events.push_back(down);            // invalid: no such link
  down.link = 0;
  down.epoch = 20;
  s.events.push_back(down);            // invalid: past the timeline
  ScenarioEvent surge;
  surge.type = ScenarioEvent::Type::kDemandSurge;
  surge.epoch = 1;
  surge.duration_epochs = 0;           // invalid: surges nothing
  s.events.push_back(surge);

  ScenarioEngine engine(t, s);
  ScenarioReport report = engine.Run();

  EXPECT_EQ(report.invalid_events, 3u);
  EXPECT_EQ(report.redundant_events, 2u);
  EXPECT_EQ(report.dropped_events, 0u);
  // The rejected events changed nothing: the flap applied cleanly and the
  // run ends with the link restored.
  EXPECT_FALSE(engine.graph().IsLinkDown(0));
  // No fault windows -> no ladder activity, every placement valid.
  for (const auto& er : report.epochs) {
    EXPECT_FALSE(er.fault_epoch);
    EXPECT_EQ(er.fallback, FallbackRung::kNone);
    EXPECT_TRUE(er.placement_valid);
  }
  EXPECT_EQ(report.clean_fallback_epochs, 0u);
  EXPECT_EQ(report.fallback_counts[0], static_cast<size_t>(s.epochs));
}

TEST_F(FaultInjectionTest, ScenarioDropEventFailpointLosesTheEvent) {
  Topology t = FailoverNet();
  Scenario s;
  s.name = "drop-event";
  s.epochs = 6;
  s.aggregates = SmallAggregates();
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);
  ScenarioEvent down;
  down.type = ScenarioEvent::Type::kLinkDown;
  down.epoch = 3;
  down.link = 0;
  s.events.push_back(down);
  // The fault window covers the event's epoch: the LinkDown notification is
  // lost before it reaches the topology.
  FaultWindow fw;
  fw.failpoint = "scenario.drop_event";
  fw.from_epoch = 3;
  fw.until_epoch = 4;
  s.faults.push_back(fw);

  ScenarioEngine engine(t, s);
  ScenarioReport report = engine.Run();

  EXPECT_EQ(report.dropped_events, 1u);
  EXPECT_FALSE(engine.graph().IsLinkDown(0));  // never applied
  for (const auto& er : report.epochs) {
    EXPECT_FALSE(er.event_epoch);  // the lost event marks no epoch
    EXPECT_TRUE(er.placement_valid);
  }
  EXPECT_TRUE(report.epochs[3].fault_epoch);
  EXPECT_FALSE(report.epochs[4].fault_epoch);
  // The run deactivated its window; nothing leaks.
  EXPECT_FALSE(Failpoint::IsActive("scenario.drop_event"));
}

// ---------------------------------------------------------------------------
// Fault windows end to end: degradation inside the window, bitwise
// reconvergence after it.

TEST_F(FaultInjectionTest, FaultWindowDegradesThenReconverges) {
  Topology t = FailoverNet();
  Scenario s;
  s.name = "window";
  s.epochs = 9;
  s.aggregates = SmallAggregates();
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);

  Scenario faulted = s;
  FaultWindow fw;
  fw.failpoint = "lp.iter_limit";
  fw.from_epoch = 3;
  fw.until_epoch = 6;
  faulted.faults.push_back(fw);

  ScenarioEngine clean_engine(t, s);
  ScenarioReport clean = clean_engine.Run();
  ScenarioEngine faulted_engine(t, faulted);
  ScenarioReport degraded = faulted_engine.Run();

  ASSERT_EQ(clean.epochs.size(), degraded.epochs.size());
  for (const auto& er : clean.epochs) {
    EXPECT_EQ(er.fallback, FallbackRung::kNone);
    EXPECT_TRUE(er.placement_valid);
  }
  for (const auto& er : degraded.epochs) {
    SCOPED_TRACE(er.epoch);
    EXPECT_TRUE(er.placement_valid);
    EXPECT_EQ(er.fault_epoch, er.epoch >= 3 && er.epoch < 6);
    if (er.fault_epoch) {
      // Total LP outage: epoch 3 re-serves epoch 2's placement (rung 3);
      // there is always *some* rung.
      EXPECT_NE(er.fallback, FallbackRung::kNone);
    } else {
      EXPECT_EQ(er.fallback, FallbackRung::kNone);
    }
  }
  EXPECT_EQ(degraded.clean_fallback_epochs, 0u);
  EXPECT_EQ(degraded.fallback_counts[0], 6u);  // the six clean epochs
  size_t degraded_epochs = 0;
  for (size_t rung = 1; rung < degraded.fallback_counts.size(); ++rung) {
    degraded_epochs += degraded.fallback_counts[rung];
  }
  EXPECT_EQ(degraded_epochs, 3u);

  // Before the window the runs are identical; after it closes the forced
  // cold restart reconverges the placement hash immediately (warm/cold
  // parity), well within the ladder's two-epoch guarantee.
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(degraded.epochs[e].allocation_hash,
              clean.epochs[e].allocation_hash)
        << "pre-window epoch " << e;
  }
  for (size_t e = 6; e < static_cast<size_t>(s.epochs); ++e) {
    EXPECT_EQ(degraded.epochs[e].allocation_hash,
              clean.epochs[e].allocation_hash)
        << "post-window epoch " << e;
  }
  EXPECT_FALSE(Failpoint::IsActive("lp.iter_limit"));
}

// A fault window forcing lp.dual_infeasible across a cable flap (PR 9): the
// dual-simplex warm restart at the repaired epochs reports dual feasibility
// lost and must fall back to primal phase 1 *inside* the solver — invisible
// to the degradation ladder (the repair still succeeds), every placement
// valid, and the run reconverging bitwise with the fault-free one outside
// the per-event canonicalization windows.
TEST_F(FaultInjectionTest, DualInfeasibleFallbackCampaign) {
  Topology t = FailoverNet();
  Scenario s;
  s.name = "dual-loss";
  s.epochs = 10;
  s.aggregates = SmallAggregates();
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);
  s.AddLinkFlap(t.graph, 0, /*down_epoch=*/3, /*up_epoch=*/6);

  Scenario faulted = s;
  FaultWindow fw;
  fw.failpoint = "lp.dual_infeasible";
  fw.from_epoch = 3;
  fw.until_epoch = 7;  // covers both the LinkDown and LinkUp repairs
  faulted.faults.push_back(fw);

  ScenarioReport clean = ScenarioEngine(t, s).Run();
  ScenarioReport degraded = ScenarioEngine(t, faulted).Run();
  long hits = Failpoint::HitCount("lp.dual_infeasible");
  EXPECT_FALSE(Failpoint::IsActive("lp.dual_infeasible"));

  // The site sits inside the warm-entry gate: hit because the repaired
  // epochs would have entered the dual loop.
  EXPECT_GT(hits, 0);

  ASSERT_EQ(clean.epochs.size(), degraded.epochs.size());
  for (const auto& er : degraded.epochs) {
    SCOPED_TRACE(er.epoch);
    EXPECT_TRUE(er.placement_valid);
    // The forced fallback happens inside Solve(); the ladder never fires.
    EXPECT_EQ(er.fallback, FallbackRung::kNone);
  }
  EXPECT_EQ(degraded.clean_fallback_epochs, 0u);
  // Both runs classify the event epochs identically: the repair decision is
  // made before the solver's internal dual-vs-primal choice.
  for (size_t e = 0; e < clean.epochs.size(); ++e) {
    EXPECT_EQ(degraded.epochs[e].dual_repair, clean.epochs[e].dual_repair)
        << "epoch " << e;
  }
  // Bitwise parity outside the repaired epochs themselves (3 and 6): a
  // primal-repaired epoch may land on a different optimal vertex than the
  // dual-repaired one, but the canonicalization rebuild one epoch later
  // realigns both runs.
  for (size_t e = 0; e < clean.epochs.size(); ++e) {
    if (e == 3 || e == 6) continue;
    EXPECT_EQ(degraded.epochs[e].allocation_hash,
              clean.epochs[e].allocation_hash)
        << "epoch " << e;
  }
}

// ---------------------------------------------------------------------------
// The randomized fault-campaign soak.

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST_F(FaultInjectionTest, FaultCampaignSoak) {
  // Four small zoo-corpus topologies — one per structural family — x five
  // seeds (ten under LDR_SOAK=1, the ci.sh --soak configuration) = twenty
  // seeded campaigns. Each campaign: a cable flap (down at 2, restored at
  // 5) plus two fault windows inside [2, 5). Window 0 always drives
  // lp.iter_limit — the one site hit on *every* solve entry, so each
  // campaign is guaranteed to exercise the ladder (pivot-level sites go
  // unhit on warm, already-optimal epochs, and Refactorize only runs on
  // drift or forced retries). Window 1 draws a chaos site: those fire when
  // window 0's failed solves push the machinery through recovery —
  // refactor_singular on the rung-1 forced refactorization, tiny_pivot /
  // ftran_nan on the retry's pivots, ksp.empty on post-failure regrowth.
  //
  // Sites drawn here are the ones that cannot change which paths get
  // interned during the window (failed solves skip path growth; ksp.empty
  // suppresses production outright), so the clean and faulted runs' stores
  // assign identical PathIds and the post-fault allocation_hash comparison
  // is exact. lp.ftran_perturb — undetected numerical corruption that can
  // steer path growth — is exercised by the focused tests above instead.
  const char* chaos_sites[] = {"lp.refactor_singular", "lp.tiny_pivot",
                               "lp.ftran_nan", "ksp.empty"};
  const int kEpochs = 9;
  const int kDown = 2, kUp = 5;
  const bool extended = std::getenv("LDR_SOAK") != nullptr;
  const int kSeeds = extended ? 10 : 5;

  // One network per family (Star, Tree, Ring, ...): the corpus orders
  // members by family, so taking the first small one of each spans the
  // structural range instead of four near-identical stars.
  std::vector<Topology> small;
  std::set<std::string> families;
  for (Topology& t : ZooCorpus()) {
    size_t n = t.graph.NodeCount();
    if (n < 8 || n > 26) continue;
    if (!families.insert(t.name.substr(0, t.name.find('-'))).second) continue;
    small.push_back(std::move(t));
    if (small.size() == 4) break;
  }
  ASSERT_EQ(small.size(), 4u);

  int campaigns = 0;
  size_t degraded_epochs_total = 0;
  size_t fault_epochs_total = 0;
  size_t topo_index = 0;
  for (const Topology& topo : small) {
    ++topo_index;
    SCOPED_TRACE(topo.name);
    // One scaled workload instance per topology; thinned to the heavy
    // aggregates so the soak stays lean on a single core.
    KspCache workload_cache(&topo.graph);
    WorkloadOptions wopts;
    wopts.num_instances = 1;
    wopts.min_fraction_of_total = 1e-2;
    std::vector<std::vector<Aggregate>> instances =
        MakeScaledWorkloads(topo, &workload_cache, wopts);
    ASSERT_FALSE(instances.empty());
    ASSERT_FALSE(instances[0].empty());

    Scenario base;
    base.name = "soak-" + topo.name;
    base.epochs = kEpochs;
    base.aggregates = instances[0];
    base.series_100ms =
        ConstantScenarioTraffic(base.aggregates, base.epochs, base.epoch_sec);
    base.AddLinkFlap(topo.graph, 0, kDown, kUp);

    ScenarioEngine clean_engine(topo, base);
    ScenarioReport clean = clean_engine.Run();
    for (const auto& er : clean.epochs) {
      EXPECT_TRUE(er.placement_valid);
      EXPECT_EQ(er.fallback, FallbackRung::kNone);
    }

    for (int seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(seed);
      // Mix the topology into the schedule stream: each of the twenty
      // campaigns draws a distinct (but fixed, reproducible) schedule.
      uint64_t rng = static_cast<uint64_t>(topo_index) *
                         static_cast<uint64_t>(0x100000001b3) +
                     static_cast<uint64_t>(0x5DEECE66D) *
                         static_cast<uint64_t>(seed) +
                     11;
      Scenario faulted = base;

      FaultWindow solve_fw;
      solve_fw.failpoint = "lp.iter_limit";
      solve_fw.from_epoch = kDown + static_cast<int>(SplitMix64(&rng) % 2);
      solve_fw.until_epoch = std::min(
          solve_fw.from_epoch + 1 + static_cast<int>(SplitMix64(&rng) % 3),
          kUp);
      solve_fw.spec.probability = 0.6;
      // Fire caps bound the recovery work per campaign and vary which rung
      // each epoch lands on (exhausted caps let the rung-1 retry succeed).
      solve_fw.spec.limit = 1 + static_cast<int>(SplitMix64(&rng) % 6);
      solve_fw.spec.seed = static_cast<uint64_t>(seed) * 1000;
      faulted.faults.push_back(solve_fw);

      FaultWindow chaos_fw;
      chaos_fw.failpoint = chaos_sites[SplitMix64(&rng) % 4];
      chaos_fw.from_epoch = kDown + static_cast<int>(SplitMix64(&rng) % 2);
      chaos_fw.until_epoch = std::min(
          chaos_fw.from_epoch + 1 + static_cast<int>(SplitMix64(&rng) % 2),
          kUp);
      chaos_fw.spec.probability = 0.6;
      chaos_fw.spec.limit = 2 + static_cast<int>(SplitMix64(&rng) % 4);
      chaos_fw.spec.seed = static_cast<uint64_t>(seed) * 1000 + 1;
      faulted.faults.push_back(chaos_fw);

      ScenarioEngine engine(topo, faulted);
      ScenarioReport report = engine.Run();
      ++campaigns;
      // The guaranteed site was genuinely reached (hit counters survive the
      // engine's end-of-window Deactivate).
      EXPECT_GT(Failpoint::HitCount("lp.iter_limit"), 0);

      ASSERT_EQ(report.epochs.size(), clean.epochs.size());
      for (const auto& er : report.epochs) {
        SCOPED_TRACE(er.epoch);
        // The hard invariant: every epoch installs a valid placement, no
        // matter what broke.
        EXPECT_TRUE(er.placement_valid);
      }
      // Faults, not load, trigger the ladder.
      EXPECT_EQ(report.clean_fallback_epochs, 0u);
      for (size_t rung = 1; rung < report.fallback_counts.size(); ++rung) {
        degraded_epochs_total += report.fallback_counts[rung];
      }
      for (const auto& er : report.epochs) {
        fault_epochs_total += er.fault_epoch ? 1 : 0;
      }
      // Reconvergence: all windows close by kUp, so from kUp + 2 on the
      // faulted run's placements are bitwise the clean run's.
      for (size_t e = kUp + 2; e < kEpochs; ++e) {
        EXPECT_EQ(report.epochs[e].allocation_hash,
                  clean.epochs[e].allocation_hash)
            << "post-fault epoch " << e;
      }
      // Nothing leaks out of the run.
      EXPECT_FALSE(util::FailpointsArmed());
    }
  }
  EXPECT_GE(campaigns, 20);
  // The campaigns genuinely exercised the machinery: every campaign ran
  // fault epochs, and the seeded schedules made the ladder fire somewhere.
  EXPECT_GE(fault_epochs_total, static_cast<size_t>(campaigns));
  EXPECT_GT(degraded_epochs_total, 0u);
}

}  // namespace
}  // namespace ldr
