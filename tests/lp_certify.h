// Test helper: a gtest assertion around lp::CheckOptimality, so a rejected
// answer reports which optimality condition broke and by how much.
//
//   EXPECT_TRUE(test::Certified(problem, solution)) << "step " << step;
#ifndef LDR_TESTS_LP_CERTIFY_H_
#define LDR_TESTS_LP_CERTIFY_H_

#include <gtest/gtest.h>

#include "lp/lp.h"

namespace ldr::test {

inline ::testing::AssertionResult Certified(const lp::Problem& problem,
                                            const lp::Solution& solution) {
  lp::Certificate c = lp::CheckOptimality(problem, solution);
  if (c.ok) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "KKT certificate rejected the answer: " << c.failure
         << " (primal " << c.primal_residual << ", dual " << c.dual_residual
         << ", complementarity " << c.complementarity << ", gap " << c.gap
         << ")";
}

}  // namespace ldr::test

#endif  // LDR_TESTS_LP_CERTIFY_H_
