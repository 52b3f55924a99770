#include <gtest/gtest.h>

#include <cmath>

#include "graph/ksp.h"
#include "graph/shortest_path.h"
#include "routing/b4.h"
#include "routing/link_based.h"
#include "routing/lp_routing.h"
#include "routing/shortest_path_routing.h"
#include "sim/evaluate.h"
#include "tests/routing_lp_equivalence.h"

namespace ldr {
namespace {

// Diamond with three node-disjoint A->D routes: via B (2 ms), via C (4 ms),
// via E (8 ms); every link 10 Gbps.
Graph TriDiamond() {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C"),
         d = g.AddNode("D"), e = g.AddNode("E");
  g.AddBidiLink(a, b, 1, 10);
  g.AddBidiLink(b, d, 1, 10);
  g.AddBidiLink(a, c, 2, 10);
  g.AddBidiLink(c, d, 2, 10);
  g.AddBidiLink(a, e, 4, 10);
  g.AddBidiLink(e, d, 4, 10);
  return g;
}

Aggregate MakeAgg(NodeId s, NodeId d, double gbps) {
  Aggregate a;
  a.src = s;
  a.dst = d;
  a.demand_gbps = gbps;
  a.flow_count = std::max(1.0, gbps * 10);
  return a;
}

double TotalDemandDelay(const std::vector<Aggregate>& aggs,
                        const RoutingOutcome& out) {
  double acc = 0;
  for (size_t i = 0; i < aggs.size(); ++i) {
    acc += aggs[i].demand_gbps * AggregateDelayMs(*out.store, out.allocations[i]);
  }
  return acc;
}

TEST(SpScheme, RoutesOnShortest) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  ShortestPathScheme sp(&g, &cache);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 5)};
  RoutingOutcome out = sp.Route(aggs);
  ASSERT_EQ(out.allocations[0].size(), 1u);
  EXPECT_DOUBLE_EQ(out.allocations[0][0].fraction, 1.0);
  EXPECT_DOUBLE_EQ(out.store->DelayMs(out.allocations[0][0].path), 2.0);
}

TEST(LatencyOptimal, FitsOnShortestWhenPossible) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  LatencyOptimalScheme opt(&g, &cache);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 8)};
  RoutingOutcome out = opt.Route(aggs);
  EXPECT_TRUE(out.feasible);
  ASSERT_EQ(out.allocations[0].size(), 1u);
  EXPECT_DOUBLE_EQ(out.store->DelayMs(out.allocations[0][0].path), 2.0);
}

TEST(LatencyOptimal, SplitsWhenShortestIsFull) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  LatencyOptimalScheme opt(&g, &cache);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 15)};
  RoutingOutcome out = opt.Route(aggs);
  EXPECT_TRUE(out.feasible);
  EXPECT_GE(out.lp_rounds, 2);  // had to grow the path set
  // 10 on the 2 ms path, 5 on the 4 ms path; never the 8 ms one.
  double load2 = 0, load4 = 0, load8 = 0;
  for (const PathAllocation& pa : out.allocations[0]) {
    double d = out.store->DelayMs(pa.path);
    double gbps = pa.fraction * 15;
    if (d == 2) load2 += gbps;
    if (d == 4) load4 += gbps;
    if (d == 8) load8 += gbps;
  }
  EXPECT_NEAR(load2, 10, 1e-4);
  EXPECT_NEAR(load4, 5, 1e-4);
  EXPECT_NEAR(load8, 0, 1e-6);
}

// Regression: when the round budget ran out right after a growth step, with
// no feasible placement kept, the install loop read fractions for paths the
// last LP never saw (past the end of the result's per-aggregate vector) and
// lp_rounds reported one round too many.
TEST(LatencyOptimal, RoundBudgetExhaustedAfterGrowthInstallsSolvedPaths) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 25)};
  IterativeOptions opts;
  opts.max_rounds = 1;
  LpReuseContext reuse;
  RoutingOutcome out = IterativeLpRoute(g, aggs, &cache, opts, &reuse);
  EXPECT_EQ(out.lp_rounds, 1);
  // The one LP solved saw only the 2 ms path: 25 Gbps on 10 Gbps.
  ASSERT_EQ(out.allocations[0].size(), 1u);
  EXPECT_DOUBLE_EQ(out.allocations[0][0].fraction, 1.0);
  EXPECT_DOUBLE_EQ(out.store->DelayMs(out.allocations[0][0].path), 2.0);
  EXPECT_FALSE(out.feasible);
  EXPECT_NEAR(out.max_level, 2.5, 1e-9);
  // The grown path set is still kept for warm re-entry, which then solves
  // over it with a normal budget.
  ASSERT_EQ(reuse.paths.size(), 1u);
  EXPECT_EQ(reuse.paths[0].size(), 2u);
  opts.max_rounds = 40;
  RoutingOutcome again = IterativeLpRoute(g, aggs, &cache, opts, &reuse);
  EXPECT_TRUE(again.reused_warm);
  EXPECT_TRUE(again.feasible);  // three 10 Gbps routes carry 25 Gbps
}

TEST(LatencyOptimal, HeadroomMovesTraffic) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  LatencyOptimalScheme opt(&g, &cache, /*headroom=*/0.25);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 10)};
  RoutingOutcome out = opt.Route(aggs);
  EXPECT_TRUE(out.feasible);
  // Effective shortest-path capacity is 7.5; the rest detours.
  double load2 = 0;
  for (const PathAllocation& pa : out.allocations[0]) {
    if (out.store->DelayMs(pa.path) == 2) load2 += pa.fraction * 10;
  }
  EXPECT_NEAR(load2, 7.5, 1e-4);
}

TEST(LatencyOptimal, ReportsInfeasibleOnOverload) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  LatencyOptimalScheme opt(&g, &cache);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 40)};  // > 30 total capacity
  RoutingOutcome out = opt.Route(aggs);
  EXPECT_FALSE(out.feasible);
  EXPECT_GT(out.max_level, 1.0);
}

TEST(LatencyOptimal, RttTieBreakMovesLargerRttAggregate) {
  // Two aggregates compete for a bottleneck; both detours cost the same
  // extra delay. The M1 term must move the aggregate whose shortest path
  // (RTT) is larger.
  Graph g;
  NodeId s1 = g.AddNode("s1"), s2 = g.AddNode("s2"), m = g.AddNode("m"),
         t = g.AddNode("t");
  // Short-RTT aggregate: s1->m->t, S = 2. Long-RTT: s2->m->t, S = 12.
  g.AddBidiLink(s1, m, 1, 10);
  g.AddBidiLink(s2, m, 11, 10);
  g.AddBidiLink(m, t, 1, 10);  // shared bottleneck
  // Detours with identical extra cost (+3 ms each).
  NodeId x1 = g.AddNode("x1"), x2 = g.AddNode("x2");
  g.AddBidiLink(s1, x1, 2.0, 10);
  g.AddBidiLink(x1, t, 3.0, 10);  // s1 detour: 5 (extra 3)
  g.AddBidiLink(s2, x2, 7.0, 10);
  g.AddBidiLink(x2, t, 8.0, 10);  // s2 detour: 15 (extra 3)
  KspCache cache(&g);
  // Equal demand and flow count -> equal weight; only M1 differentiates.
  std::vector<Aggregate> aggs{MakeAgg(s1, t, 8), MakeAgg(s2, t, 8)};
  aggs[0].flow_count = aggs[1].flow_count = 10;
  LatencyOptimalScheme opt(&g, &cache);
  RoutingOutcome out = opt.Route(aggs);
  ASSERT_TRUE(out.feasible);
  // Bottleneck fits 10: one aggregate stays whole (8), the other splits
  // (2 + 6 detoured). The detoured one must be the larger-RTT s2.
  double s2_detoured = 0, s1_detoured = 0;
  for (const PathAllocation& pa : out.allocations[1]) {
    if (out.store->ContainsNode(pa.path, x2)) s2_detoured += pa.fraction;
  }
  for (const PathAllocation& pa : out.allocations[0]) {
    if (out.store->ContainsNode(pa.path, x1)) s1_detoured += pa.fraction;
  }
  EXPECT_GT(s2_detoured, 0.5);
  EXPECT_LT(s1_detoured, 1e-6);
}

TEST(MinMax, SpreadsLoadToMinimizeUtilization) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  MinMaxScheme minmax(&g, &cache);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 12)};
  RoutingOutcome out = minmax.Route(aggs);
  EXPECT_TRUE(out.feasible);
  // Min possible max utilization: 12 / 30 = 0.4.
  EXPECT_NEAR(out.max_level, 0.4, 1e-3);
}

TEST(MinMax, LatencyOptimalHasLowerDelayHigherUtil) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 9)};
  MinMaxScheme minmax(&g, &cache);
  LatencyOptimalScheme opt(&g, &cache);
  RoutingOutcome mm = minmax.Route(aggs);
  RoutingOutcome lo = opt.Route(aggs);
  EXPECT_LT(TotalDemandDelay(aggs, lo), TotalDemandDelay(aggs, mm));
  EXPECT_LT(mm.max_level, 1.0);
  // Latency-optimal loads the shortest path fully (util 0.9 on it).
  auto loads = LinkLoads(g, aggs, lo);
  double max_util = 0;
  for (size_t l = 0; l < g.LinkCount(); ++l) {
    max_util = std::max(max_util, loads[l] / g.link(static_cast<LinkId>(l)).capacity_gbps);
  }
  EXPECT_NEAR(max_util, 0.9, 1e-4);
}

TEST(MinMax, RestrictedKIsWorseThanUnrestricted) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 12)};
  MinMaxScheme k2(&g, &cache, 2);
  MinMaxScheme full(&g, &cache);
  RoutingOutcome rk = k2.Route(aggs);
  RoutingOutcome rf = full.Route(aggs);
  EXPECT_NEAR(rk.max_level, 0.6, 1e-3);   // 12 over two 10G paths
  EXPECT_NEAR(rf.max_level, 0.4, 1e-3);   // all three paths
}

TEST(MinMax, RestrictedKCanCongestWhereFullDoesNot) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 25)};
  MinMaxScheme k2(&g, &cache, 2);
  MinMaxScheme full(&g, &cache);
  RoutingOutcome rk = k2.Route(aggs);
  RoutingOutcome rf = full.Route(aggs);
  EXPECT_FALSE(rk.feasible);  // 25 > 20
  EXPECT_TRUE(rf.feasible);   // 25 < 30
}

TEST(B4, EqualsShortestPathUnderLowLoad) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  B4Scheme b4(&g, &cache);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 5)};
  RoutingOutcome out = b4.Route(aggs);
  EXPECT_TRUE(out.feasible);
  ASSERT_EQ(out.allocations[0].size(), 1u);
  EXPECT_DOUBLE_EQ(out.store->DelayMs(out.allocations[0][0].path), 2.0);
}

TEST(B4, OverflowsToNextShortest) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  B4Scheme b4(&g, &cache);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 15)};
  RoutingOutcome out = b4.Route(aggs);
  EXPECT_TRUE(out.feasible);
  double load2 = 0, load4 = 0;
  for (const PathAllocation& pa : out.allocations[0]) {
    if (out.store->DelayMs(pa.path) == 2) load2 += pa.fraction * 15;
    if (out.store->DelayMs(pa.path) == 4) load4 += pa.fraction * 15;
  }
  EXPECT_NEAR(load2, 10, 1e-6);
  EXPECT_NEAR(load4, 5, 1e-6);
}

TEST(B4, SharedBottleneckFillsAtEqualRates) {
  // Two aggregates share a bottleneck; equal-rate filling gives each half
  // of it even though demands differ.
  Graph g;
  NodeId s1 = g.AddNode("s1"), s2 = g.AddNode("s2"), m1 = g.AddNode("m1"),
         m2 = g.AddNode("m2"), d1 = g.AddNode("d1"), d2 = g.AddNode("d2");
  g.AddBidiLink(s1, m1, 1, 100);
  g.AddBidiLink(s2, m1, 1, 100);
  g.AddBidiLink(m1, m2, 1, 10);  // bottleneck
  g.AddBidiLink(m2, d1, 1, 100);
  g.AddBidiLink(m2, d2, 1, 100);
  // Detours so leftovers have somewhere to go.
  NodeId y1 = g.AddNode("y1"), y2 = g.AddNode("y2");
  g.AddBidiLink(s1, y1, 5, 100);
  g.AddBidiLink(y1, d1, 5, 100);
  g.AddBidiLink(s2, y2, 5, 100);
  g.AddBidiLink(y2, d2, 5, 100);
  KspCache cache(&g);
  B4Scheme b4(&g, &cache);
  std::vector<Aggregate> aggs{MakeAgg(s1, d1, 20), MakeAgg(s2, d2, 6)};
  RoutingOutcome out = b4.Route(aggs);
  EXPECT_TRUE(out.feasible);
  // s2 (demand 6) fills at rate 1 alongside s1 until the bottleneck's 10G
  // fill: s2 finishes its 5th unit... bottleneck saturates at t=5 each;
  // by then s2 placed 5 of 6 on the short path.
  double s2_short = 0;
  for (const PathAllocation& pa : out.allocations[1]) {
    if (out.store->ContainsNode(pa.path, m1)) s2_short += pa.fraction * 6;
  }
  EXPECT_NEAR(s2_short, 5, 1e-6);
}

// ---- Paper Fig. 5: B4's greedy order congests a well-connected region ----
//
// V's two exits both fill before "green" traffic is placed; an optimal
// placement moves "red" to a slightly longer path and fits everything.
TEST(B4Pathology, Fig5CongestionTrap) {
  Graph g;
  NodeId v = g.AddNode("V"), a = g.AddNode("A"), b = g.AddNode("B"),
         gn = g.AddNode("G"), x = g.AddNode("X");
  g.AddBidiLink(v, a, 1.0, 10);    // L1: V's first exit
  g.AddBidiLink(v, b, 1.0, 10);    // L2: V's second exit
  g.AddBidiLink(a, gn, 1.0, 100);  // A<->G
  g.AddBidiLink(b, gn, 1.5, 100);  // B<->G (green's alternate)
  // Directed feeder links, so L1/L2 really are "the only links out of V"
  // (the paper's premise) and X only injects traffic.
  g.AddLink(x, v, 1.0, 100);   // X->V (red's shortest goes X->V->B)
  g.AddLink(x, gn, 1.5, 100);  // red's alternate X->G->B

  KspCache cache(&g);
  std::vector<Aggregate> aggs{
      MakeAgg(v, a, 10),  // blue: fills L1 on its only path
      MakeAgg(x, b, 10),  // red: shortest X->V->B fills L2
      MakeAgg(v, gn, 8),  // green: needs L1 or L2
  };

  B4Scheme b4(&g, &cache);
  RoutingOutcome b4_out = b4.Route(aggs);
  EXPECT_FALSE(b4_out.feasible);  // trapped

  LatencyOptimalScheme opt(&g, &cache);
  RoutingOutcome opt_out = opt.Route(aggs);
  EXPECT_TRUE(opt_out.feasible);  // red detours via G, green fits on L2

  std::vector<double> apsp = AllPairsShortestDelay(g);
  EvalResult b4_eval = Evaluate(g, aggs, b4_out, apsp);
  EvalResult opt_eval = Evaluate(g, aggs, opt_out, apsp);
  EXPECT_GT(b4_eval.congested_fraction, 0.0);
  EXPECT_DOUBLE_EQ(opt_eval.congested_fraction, 0.0);
}

// ---- Paper Fig. 6: B4's equal split costs needless latency ----
//
// Two aggregates share a bottleneck; blue's next-shortest path is a long
// detour, red's is cheap. B4 splits the bottleneck equally and sends half
// of blue the long way; optimal gives blue the whole bottleneck.
TEST(B4Pathology, Fig6ExcessiveLatency) {
  Graph g;
  NodeId sr = g.AddNode("sr"), sb = g.AddNode("sb"), m1 = g.AddNode("m1"),
         m2 = g.AddNode("m2"), dr = g.AddNode("dr"), db = g.AddNode("db"),
         xr = g.AddNode("xr"), xb = g.AddNode("xb");
  // Directed source/detour feeders prevent sneak paths between the two
  // aggregates' detours (the paper's figure draws disjoint detours).
  g.AddLink(sr, m1, 1, 100);
  g.AddLink(sb, m1, 1, 100);
  g.AddBidiLink(m1, m2, 1, 10);  // shared bottleneck
  g.AddBidiLink(m2, dr, 1, 100);
  g.AddBidiLink(m2, db, 1, 100);
  // Red detour: +1 ms. Blue detour: +50 ms.
  g.AddLink(sr, xr, 2, 100);
  g.AddLink(xr, dr, 2, 100);
  g.AddLink(sb, xb, 26, 100);
  g.AddLink(xb, db, 27, 100);

  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(sr, dr, 10), MakeAgg(sb, db, 10)};
  std::vector<double> apsp = AllPairsShortestDelay(g);

  B4Scheme b4(&g, &cache);
  RoutingOutcome b4_out = b4.Route(aggs);
  LatencyOptimalScheme opt(&g, &cache);
  RoutingOutcome opt_out = opt.Route(aggs);
  ASSERT_TRUE(b4_out.feasible);
  ASSERT_TRUE(opt_out.feasible);

  EvalResult b4_eval = Evaluate(g, aggs, b4_out, apsp);
  EvalResult opt_eval = Evaluate(g, aggs, opt_out, apsp);
  // B4 detours half of blue over +50 ms; optimal keeps blue entirely on the
  // bottleneck and detours red (+1 ms).
  EXPECT_GT(b4_eval.total_stretch, opt_eval.total_stretch + 0.5);
  double blue_on_detour = 0;
  for (const PathAllocation& pa : opt_out.allocations[1]) {
    if (opt_out.store->ContainsNode(pa.path, xb)) blue_on_detour += pa.fraction;
  }
  EXPECT_LT(blue_on_detour, 1e-6);
}

TEST(B4, HeadroomReducesCongestion) {
  // Same Fig. 5 trap, but with 10% headroom B4 stops short of saturating
  // links on the first pass and can then place the trapped traffic into the
  // reserve (paper §6).
  Graph g;
  NodeId v = g.AddNode("V"), a = g.AddNode("A"), b = g.AddNode("B"),
         gn = g.AddNode("G"), x = g.AddNode("X");
  g.AddBidiLink(v, a, 1.0, 10);
  g.AddBidiLink(v, b, 1.0, 10);
  g.AddBidiLink(a, gn, 1.0, 100);
  g.AddBidiLink(b, gn, 1.5, 100);
  g.AddBidiLink(x, v, 1.0, 100);
  g.AddBidiLink(x, gn, 1.5, 100);
  g.AddBidiLink(gn, b, 1.5, 100);
  KspCache cache(&g);
  // Loads sized so everything fits in true capacity.
  std::vector<Aggregate> aggs{MakeAgg(v, a, 9), MakeAgg(x, b, 9),
                              MakeAgg(v, gn, 8)};
  std::vector<double> apsp = AllPairsShortestDelay(g);

  B4Scheme plain(&g, &cache, {});
  B4Options opts;
  opts.headroom = 0.1;
  B4Scheme with_headroom(&g, &cache, opts);
  EvalResult plain_eval = Evaluate(g, aggs, plain.Route(aggs), apsp);
  EvalResult headroom_eval =
      Evaluate(g, aggs, with_headroom.Route(aggs), apsp);
  EXPECT_LE(headroom_eval.congested_fraction, plain_eval.congested_fraction);
}

TEST(LinkBased, MatchesPathBasedOptimum) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 15)};
  LatencyOptimalScheme opt(&g, &cache);
  RoutingOutcome path_out = opt.Route(aggs);
  ASSERT_TRUE(path_out.feasible);
  LinkBasedResult link_out = SolveLinkBased(g, aggs);
  ASSERT_TRUE(link_out.solved);
  EXPECT_NEAR(link_out.max_overload, 1.0, 1e-6);
  EXPECT_NEAR(link_out.total_delay_gbps_ms, TotalDemandDelay(aggs, path_out),
              1e-3);
}

TEST(LinkBased, MultiAggregate) {
  Graph g = TriDiamond();
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 8), MakeAgg(1, 2, 3)};
  LinkBasedResult r = SolveLinkBased(g, aggs);
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.max_overload, 1.0, 1e-6);
  EXPECT_GT(r.total_delay_gbps_ms, 0);
}

TEST(MinMaxUtilizationHelper, MatchesExpectation) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 12)};
  EXPECT_NEAR(MinMaxUtilization(g, aggs, &cache), 0.4, 1e-3);
}

TEST(IterativeLp, DisconnectedAggregateSkipped) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  g.AddBidiLink(0, 1, 1, 10);
  g.AddNode("Z");  // isolated
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 5), MakeAgg(0, 2, 5)};
  IterativeOptions opts;
  RoutingOutcome out = IterativeLpRoute(g, aggs, &cache, opts);
  EXPECT_EQ(out.allocations[1].size(), 0u);
  ASSERT_EQ(out.allocations[0].size(), 1u);
}

TEST(IterativeLp, ZeroAggregates) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  IterativeOptions opts;
  RoutingOutcome out = IterativeLpRoute(g, {}, &cache, opts);
  EXPECT_TRUE(out.feasible);
  EXPECT_TRUE(out.allocations.empty());
}

// Builder equivalence on a small diamond, in both LP formulations: the
// live IncrementalRoutingLp and the from-scratch SolveRoutingLp solve the
// same LP round for round (enough demand that the three routes are
// contended).
TEST(RoutingLpBuilders, IncrementalMatchesFromScratchOnTriDiamond) {
  Graph g = TriDiamond();
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 12), MakeAgg(3, 0, 9),
                              MakeAgg(1, 2, 4), MakeAgg(3, 0, 6),
                              MakeAgg(0, 4, 5)};
  for (bool minmax : {false, true}) {
    KspCache cache(&g);
    RoutingLpOptions opts;
    opts.minmax = minmax;
    test::ExpectBuildersAgree(aggs, &cache, opts, minmax ? "MinMax" : "LDR");
  }
}

// Re-entering through an LpReuseContext (the controller's headroom rounds)
// with scaled demands must give the same answer as a cold call with those
// demands, while keeping the grown path sets.
TEST(IterativeLp, ReuseContextMatchesFreshCallAfterDemandScaling) {
  Graph g = TriDiamond();
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 3, 10), MakeAgg(3, 0, 7)};
  IterativeOptions opts;
  LpReuseContext reuse;
  RoutingOutcome first = IterativeLpRoute(g, aggs, &cache, opts, &reuse);
  ASSERT_TRUE(first.feasible);
  ASSERT_NE(reuse.lp, nullptr);

  for (Aggregate& a : aggs) a.demand_gbps *= 1.1;
  RoutingOutcome warm = IterativeLpRoute(g, aggs, &cache, opts, &reuse);
  RoutingOutcome fresh = IterativeLpRoute(g, aggs, &cache, opts);
  EXPECT_EQ(warm.feasible, fresh.feasible);
  // The reused call starts from richer path sets, so its placement can only
  // be as good or better; levels agree within LP tolerance.
  EXPECT_LE(warm.max_level, fresh.max_level + 1e-6);
  double warm_delay = 0, fresh_delay = 0;
  for (size_t a = 0; a < aggs.size(); ++a) {
    warm_delay += aggs[a].flow_count * AggregateDelayMs(*warm.store, warm.allocations[a]);
    fresh_delay +=
        aggs[a].flow_count * AggregateDelayMs(*fresh.store, fresh.allocations[a]);
  }
  EXPECT_LE(warm_delay, fresh_delay + 1e-5 * std::max(1.0, fresh_delay));
}

}  // namespace
}  // namespace ldr
