// Partial (candidate-list) pricing property tests. Partial pricing only
// changes the simplex's *search order*, and it declares optimality only
// after a sweep that wraps the whole column space — so every answer it
// returns must pass the KKT certificate against the original problem,
// whatever the candidate-list schedule. It must also do what it exists for:
// price far fewer columns per iteration than a full sweep would on LPs of
// routing scale. Random bounded LPs, randomized mutation sequences and the
// zoo-corpus Fig. 13 loop are all certified.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "graph/ksp.h"
#include "lp/lp.h"
#include "routing/lp_routing.h"
#include "sim/workload.h"
#include "tests/lp_certify.h"
#include "topology/zoo_corpus.h"
#include "util/random.h"

namespace ldr {
namespace {

// Random bounded LP with mixed row types and sign-mixed costs. Overload-style
// slack variables keep every instance feasible, mirroring the routing LP's
// always-feasible construction.
lp::Problem RandomBoundedLp(uint64_t seed, int n, int m) {
  Rng rng(seed);
  lp::Problem p;
  std::vector<int> vars(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    double lo = rng.Uniform(-2, 0);
    double hi = lo + rng.Uniform(0.5, 4);
    vars[static_cast<size_t>(j)] = p.AddVariable(lo, hi, rng.Uniform(-3, 3));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> row;
    int nnz = 2 + static_cast<int>(rng.NextIndex(5));
    double lhs_at_zero = 0;
    for (int t = 0; t < nnz; ++t) {
      int v = static_cast<int>(rng.NextIndex(static_cast<uint64_t>(n)));
      double c = rng.Uniform(-2, 2);
      row.emplace_back(vars[static_cast<size_t>(v)], c);
      lhs_at_zero += c;  // worst-case-ish magnitude proxy
    }
    // Keep a comfortably feasible band around the origin region.
    double rhs = std::abs(lhs_at_zero) + rng.Uniform(1, 6);
    if (rng.NextIndex(3) == 0) {
      p.AddRow(lp::RowType::kGe, -rhs, row);
    } else {
      p.AddRow(lp::RowType::kLe, rhs, row);
    }
  }
  return p;
}

class LpPricingCertifiedTest : public ::testing::TestWithParam<int> {};

TEST_P(LpPricingCertifiedTest, PartialPricingAnswersCertifyOnRandomLps) {
  uint64_t seed = static_cast<uint64_t>(9000 + GetParam());
  lp::Problem p = RandomBoundedLp(seed, /*n=*/60, /*m=*/25);
  lp::Solution s = lp::Solve(p);
  // Every variable is boxed, so the only other verdict is infeasibility (a
  // box can miss the rows' feasible band); there is no answer to certify.
  if (s.status == lp::Status::kInfeasible) return;
  ASSERT_TRUE(s.ok()) << lp::ToString(s.status) << " seed " << seed;
  EXPECT_TRUE(test::Certified(p, s)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpPricingCertifiedTest,
                         ::testing::Range(1, 41));

// A tight candidate list and sweep force many refresh cycles (including the
// full-wrap optimality sweep); the answer must still certify, and the
// optimum must not depend on the schedule.
TEST(LpPricing, TinyCandidateListStillReachesOptimum) {
  for (int seed = 1; seed <= 10; ++seed) {
    lp::Problem p = RandomBoundedLp(static_cast<uint64_t>(400 + seed), 80, 30);
    lp::Solution auto_list = lp::Solve(p);
    lp::SolveOptions tight;
    tight.pricing.candidate_list = 2;
    tight.pricing.sweep = 8;
    lp::Solution part = lp::Solve(p, tight);
    ASSERT_EQ(auto_list.status, part.status) << "seed " << seed;
    if (auto_list.status == lp::Status::kInfeasible) continue;
    ASSERT_TRUE(auto_list.ok()) << "seed " << seed;
    ASSERT_TRUE(part.ok()) << "seed " << seed;
    EXPECT_TRUE(test::Certified(p, auto_list)) << "seed " << seed;
    EXPECT_TRUE(test::Certified(p, part)) << "seed " << seed;
    EXPECT_NEAR(auto_list.objective, part.objective,
                1e-6 * (1 + std::abs(auto_list.objective)))
        << "seed " << seed;
  }
}

// On LPs of routing scale the candidate list must pay off: a full sweep
// prices every nonbasic column — at least n of the n + m — each iteration;
// partial pricing must average far fewer.
TEST(LpPricing, PartialPricesFewerColumnsPerIterationAtScale) {
  const int n = 500, m = 120;
  long cols = 0, iters = 0;
  for (int seed = 1; seed <= 5; ++seed) {
    lp::Problem p = RandomBoundedLp(static_cast<uint64_t>(600 + seed), n, m);
    lp::Solution s = lp::Solve(p);
    ASSERT_TRUE(s.ok());
    EXPECT_TRUE(test::Certified(p, s)) << "seed " << seed;
    cols += s.stats.lp_columns_priced;
    iters += s.stats.lp_iterations;
  }
  ASSERT_GT(iters, 0);
  double per_iter = static_cast<double>(cols) / static_cast<double>(iters);
  EXPECT_LT(per_iter, n / 4.0);
}

// Randomized mutation sequences (AddColumn / AddRow / AddToRow / SetRhs
// interleaved with warm re-solves): at every checkpoint the warm answer
// must certify against a shadow copy of the accumulated problem kept by the
// test itself, and agree with a one-shot lp::Solve of it.
class LpPricingMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(LpPricingMutationTest, MutationSequenceAnswersCertify) {
  Rng rng(static_cast<uint64_t>(15000 + GetParam()));
  lp::Solver solver;
  struct ShadowRow {
    lp::RowType type;
    double rhs;
    std::vector<std::pair<int, double>> coeffs;
  };
  std::vector<double> hi, obj;
  std::vector<ShadowRow> rows;

  auto rand_rhs = [&](lp::RowType type) {
    return type == lp::RowType::kLe ? rng.Uniform(0.5, 6) : -rng.Uniform(0.5, 6);
  };
  auto add_column = [&] {
    double h = rng.Uniform(0.5, 3);
    double c = rng.Uniform(-3, 3);
    std::vector<std::pair<int, double>> coeffs;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (rng.NextIndex(3) != 0) continue;
      double a = rng.Uniform(-2, 2);
      coeffs.emplace_back(static_cast<int>(r), a);
      rows[r].coeffs.emplace_back(static_cast<int>(hi.size()), a);
    }
    solver.AddColumn(0, h, c, coeffs);
    hi.push_back(h);
    obj.push_back(c);
  };
  auto add_row = [&] {
    ShadowRow row;
    row.type = rng.NextIndex(2) == 0 ? lp::RowType::kLe : lp::RowType::kGe;
    row.rhs = rand_rhs(row.type);
    for (size_t j = 0; j < hi.size(); ++j) {
      if (rng.NextIndex(3) != 0) continue;
      row.coeffs.emplace_back(static_cast<int>(j), rng.Uniform(-2, 2));
    }
    solver.AddRow(row.type, row.rhs, row.coeffs);
    rows.push_back(std::move(row));
  };

  for (int j = 0; j < 6; ++j) add_column();
  for (int r = 0; r < 4; ++r) add_row();
  for (int step = 0; step < 30; ++step) {
    switch (rng.NextIndex(6)) {
      case 0:
      case 1:
        add_column();
        break;
      case 2:
        add_row();
        break;
      case 3: {
        if (rows.empty() || hi.empty()) break;
        size_t r = rng.NextIndex(rows.size());
        int v = static_cast<int>(rng.NextIndex(hi.size()));
        double delta = rng.Uniform(-0.5, 0.5);
        solver.AddToRow(static_cast<int>(r), v, delta);
        bool found = false;
        for (auto& [var, c] : rows[r].coeffs) {
          if (var == v) {
            c += delta;
            found = true;
            break;
          }
        }
        if (!found) rows[r].coeffs.emplace_back(v, delta);
        break;
      }
      default: {
        if (rows.empty()) break;
        size_t r = rng.NextIndex(rows.size());
        rows[r].rhs = rand_rhs(rows[r].type);
        solver.SetRhs(static_cast<int>(r), rows[r].rhs);
        break;
      }
    }
    if (step % 6 != 5) continue;
    lp::Solution warm = solver.Solve();
    ASSERT_TRUE(warm.ok()) << "step " << step;
    lp::Problem p;
    for (size_t j = 0; j < hi.size(); ++j) p.AddVariable(0, hi[j], obj[j]);
    for (const ShadowRow& row : rows) p.AddRow(row.type, row.rhs, row.coeffs);
    EXPECT_TRUE(test::Certified(p, warm)) << "step " << step;
    lp::Solution cold = lp::Solve(p);
    ASSERT_TRUE(cold.ok()) << "cold, step " << step;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * (1 + std::abs(cold.objective)))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpPricingMutationTest, ::testing::Range(1, 13));

// Zoo-corpus slice: the final LP of each Fig. 13 run (the live incremental
// solver after every growth round) certifies, and partial pricing priced
// far fewer columns per iteration than the LP has columns.
TEST(LpPricing, ZooCorpusSliceCertifiedAndFewerColumns) {
  std::vector<Topology> corpus = ZooCorpus();
  size_t checked = 0;
  double worst_ratio = 0;
  for (size_t ti = 0; ti < corpus.size(); ti += 11) {
    const Topology& t = corpus[ti];
    const Graph& g = t.graph;
    if (g.NodeCount() > 36) continue;
    ++checked;
    KspCache cache(&g);
    WorkloadOptions wopts;
    wopts.num_instances = 1;
    wopts.seed = 4321 + ti;
    std::vector<Aggregate> aggs = MakeScaledWorkloads(t, &cache, wopts)[0];

    LpReuseContext reuse;
    RoutingOutcome out = IterativeLpRoute(g, aggs, &cache, IterativeOptions{},
                                          &reuse);
    ASSERT_NE(reuse.lp, nullptr) << t.name;
    lp::Problem p = reuse.lp->solver().Snapshot();
    EXPECT_TRUE(test::Certified(p, reuse.lp->last_solution())) << t.name;
    if (out.lp_iterations == 0) continue;
    double per_iter = static_cast<double>(out.lp_columns_priced) /
                      static_cast<double>(out.lp_iterations);
    worst_ratio = std::max(
        worst_ratio,
        per_iter / static_cast<double>(p.VariableCount() + p.RowCount()));
  }
  ASSERT_GE(checked, 3u);
  EXPECT_LT(worst_ratio, 0.5);
}

}  // namespace
}  // namespace ldr
