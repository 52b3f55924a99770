// Test helper: builder equivalence for the Fig. 12 routing LP. A live
// IncrementalRoutingLp, grown append-only the way the Fig. 13 loop grows it,
// must solve the LP that SolveRoutingLp builds from scratch for the same
// path sets, round for round.
#ifndef LDR_TESTS_ROUTING_LP_EQUIVALENCE_H_
#define LDR_TESTS_ROUTING_LP_EQUIVALENCE_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/ksp.h"
#include "routing/lp_routing.h"
#include "tests/lp_certify.h"

namespace ldr::test {

// Round 0 seeds every aggregate with its shortest path; from round a % 3 + 1
// on, aggregate a gains its next-shortest path each round. The stagger puts
// all three sync transitions into one round: a first path (load folded into
// the link constants), a second (the aggregate joins the LP — its fixed load
// is un-folded and its equality row created) and a further column. Each
// round both builders must agree on `solved`, omax and flow-weighted delay,
// and the live LP's answer must pass the KKT certificate.
inline void ExpectBuildersAgree(const std::vector<Aggregate>& aggregates,
                                KspCache* cache, const RoutingLpOptions& opts,
                                const std::string& label, int rounds = 6,
                                size_t max_paths = 5) {
  const PathStore& store = *cache->store();
  IncrementalRoutingLp live(store, aggregates, opts);
  std::vector<std::vector<PathId>> paths(aggregates.size());
  auto delay = [&](const RoutingLpResult& r) {
    double acc = 0;
    for (size_t a = 0; a < aggregates.size(); ++a) {
      for (size_t pi = 0; pi < paths[a].size(); ++pi) {
        acc += aggregates[a].flow_count * r.fractions[a][pi] *
               store.DelayMs(paths[a][pi]);
      }
    }
    return acc;
  };
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE(label + " round " + std::to_string(round));
    size_t grown = 0;
    for (size_t a = 0; a < aggregates.size(); ++a) {
      if (round > 0 && round <= static_cast<int>(a % 3)) continue;
      if (paths[a].size() >= max_paths) continue;
      PathId p = cache->Get(aggregates[a].src, aggregates[a].dst)
                     ->GetId(paths[a].size());
      if (p == kInvalidPathId) continue;
      paths[a].push_back(p);
      ++grown;
    }
    if (grown == 0) continue;

    RoutingLpResult inc = live.Solve(paths);
    RoutingLpResult ref = SolveRoutingLp(store, aggregates, paths, opts);
    ASSERT_EQ(inc.solved, ref.solved)
        << lp::ToString(inc.status) << " vs " << lp::ToString(ref.status);
    if (!ref.solved) continue;
    EXPECT_NEAR(inc.omax, ref.omax, 1e-6);
    EXPECT_NEAR(delay(inc), delay(ref), 1e-5 * (1 + delay(ref)));
    EXPECT_TRUE(Certified(live.solver().Snapshot(), live.last_solution()));
  }
}

}  // namespace ldr::test

#endif  // LDR_TESTS_ROUTING_LP_EQUIVALENCE_H_
