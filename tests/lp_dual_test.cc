// PR 9 coverage for the dual-simplex warm restart: a previously optimal
// basis left primal-infeasible by bound/rhs repair (FixVariable, SetBounds,
// SetRhs — the topology-delta entry points) is pivoted straight back to
// optimality with dual steps instead of primal phase 1 + phase 2.
//
// Covered here:
//  - the entry truth table (cold first solve / primal feasible mutation /
//    repair under a dual-feasible basis / dual feasibility lost / genuinely
//    infeasible repair);
//  - dual ratio-test ties and degenerate (zero-length) dual steps;
//  - randomized bound/rhs-perturbation runs whose every answer passes the
//    KKT certificate and matches a from-scratch cold solve;
//  - the lp.dual_infeasible failpoint forcing the primal fallback.
//
// Every test that repairs a warm basis runs twice, as a TEST_P over the
// lp.dual_infeasible failpoint: disarmed, the repairs enter dual simplex;
// armed, the site reports dual feasibility lost and the same repairs run
// through primal phase 1 — optimality assertions are mode-independent and
// run unchanged, dual-entry expectations follow the parameter.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/lp_shapes.h"
#include "lp/lp.h"
#include "tests/lp_certify.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace ldr::lp {
namespace {

constexpr char kDualInfeasible[] = "lp.dual_infeasible";

// Arms lp.dual_infeasible for its lifetime when `armed`.
struct DualInfeasibleFailpoint {
  explicit DualInfeasibleFailpoint(bool armed) {
    if (armed) util::Failpoint::Activate(kDualInfeasible);
  }
  ~DualInfeasibleFailpoint() { util::Failpoint::Deactivate(kDualInfeasible); }
  DualInfeasibleFailpoint(const DualInfeasibleFailpoint&) = delete;
  DualInfeasibleFailpoint& operator=(const DualInfeasibleFailpoint&) = delete;
};

// Parameterized over the failpoint, armed for the whole test (see the file
// comment): Dual() says whether repairs may enter dual simplex.
class LpDualTest : public ::testing::TestWithParam<bool> {
 protected:
  bool Dual() const { return !GetParam(); }
  DualInfeasibleFailpoint failpoint_{GetParam()};
};

std::string ArmedName(const ::testing::TestParamInfo<bool>& param) {
  return param.param ? "Armed" : "Disarmed";
}

// min x0 + x1  s.t.  x0 + x1 >= rhs,  x in [0, 4] — the smallest LP whose
// rhs repair leaves a previously optimal basis primal infeasible.
struct TinyLp {
  Solver solver;
  int x0 = -1;
  int x1 = -1;
  int row = -1;
};

TinyLp MakeTiny(double rhs = 2.0) {
  TinyLp t;
  t.x0 = t.solver.AddColumn(0, 4, 1.0, {});
  t.x1 = t.solver.AddColumn(0, 4, 1.0, {});
  t.row = t.solver.AddRow(RowType::kGe, rhs, {{t.x0, 1.0}, {t.x1, 1.0}});
  return t;
}

// --- entry truth table ------------------------------------------------------

TEST_P(LpDualTest, ColdFirstSolveNeverEntersDual) {
  // ever-optimal gate: with no previously certified basis the first solve
  // takes the primal path.
  TinyLp t = MakeTiny();
  Solution s0 = t.solver.Solve();
  ASSERT_TRUE(s0.ok());
  EXPECT_FALSE(s0.stats.lp_warm_restart);
  EXPECT_EQ(s0.stats.lp_dual_pivots, 0);
}

TEST_P(LpDualTest, PrimalFeasibleMutationSkipsDual) {
  // AddColumn keeps the basis primal feasible (the Fig. 13 growth path);
  // there is nothing for dual simplex to repair.
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.AddColumn(0, 4, 0.5, {{t.row, 1.0}});
  Solution s1 = t.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_NEAR(s1.objective, 1.0, 1e-6);  // the cheap new column takes over
  EXPECT_FALSE(s1.stats.lp_warm_restart);
  EXPECT_EQ(s1.stats.lp_dual_pivots, 0);
}

TEST_P(LpDualTest, RhsRepairEntersDualAndRecoversOptimality) {
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.SetRhs(t.row, 5.0);
  Solution s1 = t.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_NEAR(s1.objective, 5.0, 1e-6);
  EXPECT_TRUE(test::Certified(t.solver.Snapshot(), s1));
  EXPECT_EQ(s1.stats.lp_warm_restart == 1, Dual());
  if (Dual()) {
    EXPECT_GT(s1.stats.lp_dual_pivots, 0);
  } else {
    EXPECT_EQ(s1.stats.lp_dual_pivots, 0);
  }
}

TEST_P(LpDualTest, LostDualFeasibilityFallsBackToPrimal) {
  // An objective mutation that makes a nonbasic column attractive breaks
  // dual feasibility; the pre-entry sweep must detect it and hand the
  // repair to primal phase 1 — still ending optimal.
  TinyLp t = MakeTiny();
  Solution s0 = t.solver.Solve();
  ASSERT_TRUE(s0.ok());
  // The variable resting at 0 is nonbasic; make it strongly attractive.
  int nb = s0.values[static_cast<size_t>(t.x0)] < 0.5 ? t.x0 : t.x1;
  t.solver.AddToObjective(nb, -5.0);
  t.solver.SetRhs(t.row, 5.0);
  Solution s1 = t.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_FALSE(s1.stats.lp_warm_restart);
  EXPECT_EQ(s1.stats.lp_dual_pivots, 0);
  // Cold reference on the mutated problem: cheap var (cost -4) runs to its
  // bound, the other fills the constraint.
  Problem p;
  int y0 = p.AddVariable(0, 4, nb == t.x0 ? -4.0 : 1.0);
  int y1 = p.AddVariable(0, 4, nb == t.x1 ? -4.0 : 1.0);
  p.AddRow(RowType::kGe, 5.0, {{y0, 1.0}, {y1, 1.0}});
  Solution ref = Solve(p);
  ASSERT_TRUE(ref.ok());
  EXPECT_NEAR(s1.objective, ref.objective, 1e-6 * (1 + std::abs(ref.objective)));
}

TEST_P(LpDualTest, InfeasibleRepairIsReportedByThePrimalAuthority) {
  // rhs beyond the variables' combined bounds: the dual loop runs out of
  // admissible entering candidates and the primal phase-1 fallback owns the
  // infeasibility verdict.
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.SetRhs(t.row, 9.0);  // max attainable is 8
  Solution s1 = t.solver.Solve();
  EXPECT_EQ(s1.status, Status::kInfeasible);
}

// --- ratio-test ties and degeneracy -----------------------------------------

TEST_P(LpDualTest, SymmetricTieIsADegenerateDualStep) {
  // At the optimum of the symmetric tiny LP the nonbasic twin's reduced
  // cost is exactly 0: the dual ratio test's best step is t = 0, a
  // zero-length (degenerate) pivot. The loop must pivot through it and
  // still certify the right optimum.
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.SetRhs(t.row, 5.0);  // the basic twin alone caps out at 4
  Solution s1 = t.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_NEAR(s1.objective, 5.0, 1e-6);
  EXPECT_TRUE(test::Certified(t.solver.Snapshot(), s1));
  EXPECT_EQ(s1.stats.lp_warm_restart == 1, Dual());
}

TEST_P(LpDualTest, ScaledTieStaysOptimal) {
  // Costs proportional to the constraint coefficients (1/1 vs 2/2) tie the
  // dual ratios d/|alpha| at different |alpha| magnitudes — the Harris
  // second pass must pick a pivot from the tied set without losing
  // optimality.
  Solver solver;
  int x0 = solver.AddColumn(0, 3, 1.0, {});
  int x1 = solver.AddColumn(0, 3, 2.0, {});
  int row = solver.AddRow(RowType::kGe, 2.0, {{x0, 1.0}, {x1, 2.0}});
  ASSERT_TRUE(solver.Solve().ok());
  solver.SetRhs(row, 7.0);
  Solution s1 = solver.Solve();
  ASSERT_TRUE(s1.ok());
  // x0 = 3 and 2 x1 = 4 (or any tied mix) all cost rhs: obj = 7.
  EXPECT_NEAR(s1.objective, 7.0, 1e-6);
  EXPECT_TRUE(test::Certified(solver.Snapshot(), s1));
}

TEST_P(LpDualTest, BoundFlipTelemetryAccumulates) {
  // A boxed column whose dual ratio admits a long step: the flip counter
  // must surface through Solution (exact counts depend on the pivot
  // sequence; the accounting just may not go missing or negative).
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.SetRhs(t.row, 7.0);
  Solution s1 = t.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_NEAR(s1.objective, 7.0, 1e-6);
  EXPECT_GE(s1.stats.lp_bound_flips, 0);
}

// --- lp.dual_infeasible failpoint -------------------------------------------

TEST(LpDual, ForcedDualLossFallsBackAndRecovers) {
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.SetRhs(t.row, 5.0);
  util::Failpoint::Activate(kDualInfeasible);
  Solution faulted = t.solver.Solve();
  long hits = util::Failpoint::HitCount(kDualInfeasible);
  util::Failpoint::DeactivateAll();
  // The fault only suppresses the dual entry — the primal path must still
  // deliver the optimum.
  ASSERT_TRUE(faulted.ok());
  EXPECT_NEAR(faulted.objective, 5.0, 1e-6);
  EXPECT_FALSE(faulted.stats.lp_warm_restart);
  EXPECT_EQ(faulted.stats.lp_dual_pivots, 0);
  // The site sits inside the warm-entry gate: hit because the dual restart
  // would have engaged.
  EXPECT_GT(hits, 0);

  // With the failpoint cleared the next repair enters dual again. Relaxing
  // the rhs back to 2 drives the basic variable (carrying 1 of the 5) below
  // its lower bound — an actual primal infeasibility, unlike a small rhs
  // increase the basic variable could absorb within bounds.
  t.solver.SetRhs(t.row, 2.0);
  Solution clean = t.solver.Solve();
  ASSERT_TRUE(clean.ok());
  EXPECT_NEAR(clean.objective, 2.0, 1e-6);
  EXPECT_TRUE(clean.stats.lp_warm_restart);
}

// --- randomized perturbation parity -----------------------------------------

// Routing-shaped LPs under randomized rhs perturbations and dead-path
// fix/unfix cycles: after every repair the warm solver's answer must pass
// the KKT certificate and land on the same objective as a from-scratch cold
// solve of the accumulated state — with lp.dual_infeasible disarmed (dual
// repairs) and armed (primal repairs).
class LpDualPerturbParityTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(LpDualPerturbParityTest, RepairedAnswersCertifyAndMatchColdSolves) {
  const uint64_t seed = static_cast<uint64_t>(91000 + std::get<0>(GetParam()));
  const bool dual = !std::get<1>(GetParam());
  DualInfeasibleFailpoint failpoint(!dual);
  Rng rng(seed);
  auto spec = bench::RoutingLpSpec::Random(seed, 15, 9);
  bench::WarmLp warm = bench::BuildSolverBase(spec);
  Solution s0 = warm.solver.Solve();
  ASSERT_TRUE(s0.ok());
  EXPECT_FALSE(s0.stats.lp_warm_restart);

  // Cumulative mutation state, replayed into each cold reference.
  // BuildSolverBase variable layout: omax = 0, base path k = 1 + k.
  std::vector<double> link_rhs(static_cast<size_t>(spec.links), 0.0);
  std::vector<char> fixed(spec.base.size(), 0);
  std::vector<int> fixed_in_group(static_cast<size_t>(spec.groups), 0);
  long dual_pivots_total = 0;

  for (int step = 0; step < 12; ++step) {
    if (rng.NextIndex(2) == 0) {
      // Capacity-style repair: move a link row's rhs.
      size_t l = rng.NextIndex(static_cast<uint64_t>(spec.links));
      link_rhs[l] = rng.Uniform(-1.5, 1.5);
      warm.solver.SetRhs(warm.link_rows[l], link_rhs[l]);
    } else {
      // Dead-path repair: fix a path column to 0 (at most two of a group's
      // three paths, so the unit-sum row stays satisfiable) or revive a
      // previously fixed one.
      size_t k = rng.NextIndex(spec.base.size());
      size_t g = static_cast<size_t>(spec.base[k].group);
      int var = 1 + static_cast<int>(k);
      if (fixed[k] == 0 && fixed_in_group[g] < 2) {
        warm.solver.FixVariable(var, 0.0);
        fixed[k] = 1;
        ++fixed_in_group[g];
      } else if (fixed[k] != 0) {
        warm.solver.SetBounds(var, 0.0, 1.0);
        fixed[k] = 0;
        --fixed_in_group[g];
      }
    }

    Solution sw = warm.solver.Solve();
    ASSERT_TRUE(sw.ok()) << ToString(sw.status) << " step " << step;
    EXPECT_TRUE(test::Certified(warm.solver.Snapshot(), sw))
        << "step " << step;
    dual_pivots_total += sw.stats.lp_dual_pivots;
    if (sw.stats.lp_dual_pivots > 0) {
      EXPECT_TRUE(sw.stats.lp_warm_restart);
    }

    bench::WarmLp fresh = bench::BuildSolverBase(spec);
    for (size_t l = 0; l < link_rhs.size(); ++l) {
      fresh.solver.SetRhs(fresh.link_rows[l], link_rhs[l]);
    }
    for (size_t k = 0; k < fixed.size(); ++k) {
      if (fixed[k] != 0) {
        fresh.solver.FixVariable(1 + static_cast<int>(k), 0.0);
      }
    }
    Solution sc = fresh.solver.Solve();
    ASSERT_TRUE(sc.ok()) << ToString(sc.status) << " step " << step;
    EXPECT_FALSE(sc.stats.lp_warm_restart);  // first solve: primal, by the gate
    EXPECT_NEAR(sw.objective, sc.objective,
                1e-6 * (1 + std::abs(sc.objective)))
        << "step " << step;
  }
  if (dual) {
    // The perturbation mix reliably leaves primal-infeasible warm bases;
    // at least one repair must have gone through the dual loop.
    EXPECT_GT(dual_pivots_total, 0);
  } else {
    EXPECT_EQ(dual_pivots_total, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsDualFailpoint, LpDualPerturbParityTest,
                         ::testing::Combine(::testing::Range(1, 5),
                                            ::testing::Bool()));

INSTANTIATE_TEST_SUITE_P(DualFailpoint, LpDualTest, ::testing::Bool(),
                         ArmedName);

}  // namespace
}  // namespace ldr::lp
