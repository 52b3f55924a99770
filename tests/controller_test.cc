#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>

#include "graph/shortest_path.h"
#include "routing/ldr_controller.h"
#include "routing/link_appraiser.h"
#include "sim/evaluate.h"
#include "traffic/trace.h"
#include "util/random.h"

namespace ldr {
namespace {

// A -> B with a generous direct link and a longer detour.
Graph SmallNet(double direct_cap) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
  g.AddBidiLink(a, b, 1, direct_cap);
  g.AddBidiLink(a, c, 2, 100);
  g.AddBidiLink(c, b, 2, 100);
  return g;
}

std::vector<double> ConstantSeries(double gbps, int minutes = 2) {
  return std::vector<double>(static_cast<size_t>(minutes) * 600, gbps);
}

Aggregate MakeAgg(NodeId s, NodeId d) {
  Aggregate a;
  a.src = s;
  a.dst = d;
  a.demand_gbps = 0;  // ignored by the controller
  a.flow_count = 10;
  return a;
}

TEST(Controller, PredictsHedgedMeanFromHistory) {
  Graph g = SmallNet(100);
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1)};
  std::vector<std::vector<double>> history{ConstantSeries(2.0)};
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache);
  ASSERT_EQ(r.demand_estimate_gbps.size(), 1u);
  // Constant 2.0 -> Algorithm 1 predicts 2.2.
  EXPECT_NEAR(r.demand_estimate_gbps[0], 2.2, 1e-9);
  EXPECT_TRUE(r.multiplex_ok);
  EXPECT_EQ(r.rounds, 1);
}

TEST(Controller, SmoothTrafficPassesFirstRound) {
  Graph g = SmallNet(10);
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1), MakeAgg(1, 0)};
  std::vector<std::vector<double>> history{ConstantSeries(3.0),
                                           ConstantSeries(2.0)};
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache);
  EXPECT_TRUE(r.multiplex_ok);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_EQ(r.failing_links_last_round, 0u);
  // Everything fits the direct link; no detours.
  ASSERT_EQ(r.outcome.allocations[0].size(), 1u);
  EXPECT_DOUBLE_EQ(r.outcome.store->DelayMs(r.outcome.allocations[0][0].path), 1.0);
}

TEST(Controller, CorrelatedBurstsForceRerouteOrScaleUp) {
  // Two aggregates whose bursts coincide, sharing a just-big-enough link:
  // the temporal test fails and the controller must scale Ba up, pushing
  // some traffic to the detour.
  Graph g = SmallNet(10);
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1), MakeAgg(0, 1)};
  std::vector<double> bursty = ConstantSeries(4.0);
  for (size_t i = 0; i < bursty.size(); i += 50) {
    for (size_t j = i; j < std::min(bursty.size(), i + 5); ++j) {
      bursty[j] = 7.0;  // simultaneous 100ms bursts on both aggregates
    }
  }
  std::vector<std::vector<double>> history{bursty, bursty};
  LdrControllerOptions opts;
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache, opts);
  // First placement (4.4 + 4.4 on a 10G link) fails the temporal check:
  // joint bursts reach 14 Gbps. The controller must iterate.
  EXPECT_GT(r.rounds, 1);
  // After scaling, estimates exceed the plain hedged mean.
  double hedged = 4.0 * 1.1;
  EXPECT_GT(r.demand_estimate_gbps[0] + r.demand_estimate_gbps[1],
            2 * hedged - 1e-9);
}

TEST(Controller, ScaleUpTargetsOnlyCrossingAggregates) {
  // One bursty pair on a tight link, one smooth aggregate elsewhere: only
  // the former's Ba should grow.
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C"),
         d = g.AddNode("D");
  g.AddBidiLink(a, b, 1, 8);    // tight shared link
  g.AddBidiLink(a, c, 2, 100);  // detour for A->B
  g.AddBidiLink(c, b, 2, 100);
  g.AddBidiLink(c, d, 1, 100);  // smooth aggregate's private link
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(a, b), MakeAgg(a, b), MakeAgg(c, d)};
  std::vector<double> bursty = ConstantSeries(3.0);
  for (size_t i = 0; i < bursty.size(); i += 40) {
    for (size_t j = i; j < std::min(bursty.size(), i + 4); ++j) bursty[j] = 6.0;
  }
  std::vector<std::vector<double>> history{bursty, bursty,
                                           ConstantSeries(1.0)};
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache);
  // The smooth aggregate keeps its plain hedged prediction.
  EXPECT_NEAR(r.demand_estimate_gbps[2], 1.1, 1e-9);
}

TEST(Controller, ShortHistoryStillWorks) {
  Graph g = SmallNet(100);
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1)};
  // 10 seconds of data only.
  std::vector<std::vector<double>> history{std::vector<double>(100, 5.0)};
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache);
  EXPECT_NEAR(r.demand_estimate_gbps[0], 5.5, 1e-9);
  EXPECT_TRUE(r.multiplex_ok);
}

TEST(Controller, MultiMinuteHistoryDrivesDecay) {
  Graph g = SmallNet(100);
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1)};
  // Minute 1 at 10, minutes 2-3 at 2: the prediction decays from 11 by 2%
  // per minute, floored at 2.2.
  std::vector<double> h = ConstantSeries(10.0, 1);
  auto low = ConstantSeries(2.0, 2);
  h.insert(h.end(), low.begin(), low.end());
  std::vector<std::vector<double>> history{h};
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache);
  EXPECT_NEAR(r.demand_estimate_gbps[0], 11.0 * 0.98 * 0.98, 1e-9);
}

// --- LinkAppraiser: the controller's per-epoch multiplexing appraisal ---

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void ExpectSameResult(const LinkCheckResult& a, const LinkCheckResult& b) {
  EXPECT_EQ(a.pass, b.pass);
  EXPECT_EQ(a.skipped_peak_test, b.skipped_peak_test);
  EXPECT_EQ(Bits(a.queue_delay_ms), Bits(b.queue_delay_ms));
  EXPECT_EQ(Bits(a.exceed_probability), Bits(b.exceed_probability));
}

using Allocations = std::vector<std::vector<PathAllocation>>;

// The stateless reference: scatter `alloc` onto links and run
// CheckLinkMultiplexing on every loaded one.
std::map<LinkId, LinkCheckResult> StatelessCheck(
    const Graph& g, const PathStore& store,
    const std::vector<std::vector<double>>& segment, const Allocations& alloc) {
  std::map<LinkId, std::vector<WeightedSeries>> on_link;
  for (size_t a = 0; a < alloc.size(); ++a) {
    for (const PathAllocation& pa : alloc[a]) {
      if (pa.fraction <= 1e-9) continue;
      for (LinkId l : store.Links(pa.path)) {
        on_link[l].push_back({&segment[a], pa.fraction});
      }
    }
  }
  std::map<LinkId, LinkCheckResult> out;
  for (const auto& [l, inputs] : on_link) {
    out[l] = CheckLinkMultiplexing(inputs, g.link(l).capacity_gbps);
  }
  return out;
}

// Checks one Appraise call against the stateless reference, link by link.
void ExpectMatchesStateless(const LinkAppraiser& appraiser,
                            const LinkAppraiser::Pass& pass,
                            const std::map<LinkId, LinkCheckResult>& ref) {
  EXPECT_EQ(pass.checked, ref.size());
  std::vector<LinkId> failing;
  size_t skipped = 0;
  for (const auto& [l, r] : ref) {
    ExpectSameResult(appraiser.result(l), r);
    if (!r.pass) failing.push_back(l);
    if (r.skipped_peak_test) ++skipped;
  }
  EXPECT_EQ(appraiser.failing(), failing);
  EXPECT_EQ(pass.peak_skipped, skipped);
}

// A -> D -> B, with a second way D -> C -> B, so two paths of one
// aggregate share the tight link A -> D.
struct SharedLinkNet {
  Graph g;
  LinkId ad, db, dc, cb;
  PathStore store{&g};
  PathId direct, detour;
  SharedLinkNet() {
    NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C"),
           d = g.AddNode("D");
    ad = g.AddLink(a, d, 1, 6);
    db = g.AddLink(d, b, 1, 100);
    dc = g.AddLink(d, c, 1, 100);
    cb = g.AddLink(c, b, 1, 100);
    direct = store.Intern(std::vector<LinkId>{ad, db});
    detour = store.Intern(std::vector<LinkId>{ad, dc, cb});
  }
};

std::vector<std::vector<double>> BurstySegment() {
  std::vector<double> bursty = ConstantSeries(2.0, 1);
  for (size_t i = 0; i < bursty.size(); i += 30) bursty[i] = 9.0;
  std::vector<double> other = ConstantSeries(1.5, 1);
  for (size_t i = 7; i < other.size(); i += 11) other[i] = 4.0;
  return {bursty, other};
}

TEST(LinkAppraiser, MemoHitEqualsFreshCheck) {
  SharedLinkNet net;
  auto segment = BurstySegment();
  Allocations alloc{{{net.direct, 0.6}, {net.detour, 0.4}},
                    {{net.direct, 1.0}}};
  LinkAppraiser appraiser(net.g, net.store, segment, {});
  LinkAppraiser::Pass first = appraiser.Appraise(alloc);
  EXPECT_EQ(first.checked, 4u);
  EXPECT_EQ(first.memo_hits, 0u);
  auto ref = StatelessCheck(net.g, net.store, segment, alloc);
  ExpectMatchesStateless(appraiser, first, ref);
  // The tight link carries peaks above its capacity: a full check ran.
  EXPECT_FALSE(ref.at(net.ad).skipped_peak_test);

  // The same placement again: every link is a hit, equal to a fresh check.
  LinkAppraiser::Pass again = appraiser.Appraise(alloc);
  EXPECT_EQ(again.checked, 4u);
  EXPECT_EQ(again.memo_hits, 4u);
  ExpectMatchesStateless(appraiser, again, ref);
}

TEST(LinkAppraiser, OneUlpOrReorderedInputsMiss) {
  SharedLinkNet net;
  auto segment = BurstySegment();
  Allocations alloc{{{net.direct, 0.6}, {net.detour, 0.4}},
                    {{net.direct, 1.0}}};
  LinkAppraiser appraiser(net.g, net.store, segment, {});
  appraiser.Appraise(alloc);

  // One ulp on the detour share: its three links miss, D -> B still hits.
  Allocations nudged = alloc;
  nudged[0][1].fraction = std::nextafter(0.4, 1.0);
  LinkAppraiser::Pass pass = appraiser.Appraise(nudged);
  EXPECT_EQ(pass.checked, 4u);
  EXPECT_EQ(pass.memo_hits, 1u);
  ExpectMatchesStateless(appraiser, pass,
                         StatelessCheck(net.g, net.store, segment, nudged));

  // Back to the first placement, then the same shares in the other order:
  // A -> D sees (0, 0.4), (0, 0.6), (1, 1.0) instead of (0, 0.6), (0, 0.4),
  // (1, 1.0) and must be checked afresh; the other links keep their lists.
  appraiser.Appraise(alloc);
  Allocations reordered{{alloc[0][1], alloc[0][0]}, alloc[1]};
  pass = appraiser.Appraise(reordered);
  EXPECT_EQ(pass.checked, 4u);
  EXPECT_EQ(pass.memo_hits, 3u);
  ExpectMatchesStateless(appraiser, pass,
                         StatelessCheck(net.g, net.store, segment, reordered));
}

TEST(LinkAppraiser, EveryControllerRoundMatchesTheStatelessCheck) {
  // The ScaleUpTargetsOnlyCrossingAggregates fixture: a bursty pair on a
  // tight link forces several rounds while the smooth aggregate's link
  // keeps its list, so rounds after the first hit the memo.
  auto build = [](Graph* g) {
    NodeId a = g->AddNode("A"), b = g->AddNode("B"), c = g->AddNode("C"),
           d = g->AddNode("D");
    g->AddBidiLink(a, b, 1, 8);
    g->AddBidiLink(a, c, 2, 100);
    g->AddBidiLink(c, b, 2, 100);
    g->AddBidiLink(c, d, 1, 100);
    return std::vector<Aggregate>{MakeAgg(a, b), MakeAgg(a, b), MakeAgg(c, d)};
  };
  std::vector<double> bursty = ConstantSeries(3.0);
  for (size_t i = 0; i < bursty.size(); i += 40) {
    for (size_t j = i; j < std::min(bursty.size(), i + 4); ++j) bursty[j] = 6.0;
  }
  std::vector<std::vector<double>> history{bursty, bursty,
                                           ConstantSeries(1.0)};
  Graph g;
  std::vector<Aggregate> aggs = build(&g);
  KspCache cache(&g);
  LdrControllerResult full = RunLdrController(g, aggs, history, &cache);
  ASSERT_GT(full.rounds, 2);

  // Round r's placement is the final placement of a run capped at r rounds
  // (the loop is deterministic, so its first r rounds are the same). Feed
  // those placements to one appraiser, as the controller's epoch does.
  LinkAppraiser appraiser(g, *cache.store(), history, {});
  size_t checked = 0, hits = 0, fresh = 0, skipped = 0;
  std::map<LinkId, std::vector<std::pair<size_t, uint64_t>>> last_list;
  for (int r = 1; r <= full.rounds; ++r) {
    Graph gr;
    build(&gr);
    KspCache cache_r(&gr);
    LdrControllerOptions opts;
    opts.max_rounds = r;
    LdrControllerResult capped = RunLdrController(gr, aggs, history, &cache_r,
                                                  opts);
    ASSERT_EQ(capped.rounds, r);
    // Path ids agree with the full run's store.
    ASSERT_LE(cache_r.store()->size(), cache.store()->size());
    for (size_t p = 0; p < cache_r.store()->size(); ++p) {
      PathId id = static_cast<PathId>(p);
      ASSERT_EQ(cache_r.store()->Nodes(id), cache.store()->Nodes(id));
    }
    const Allocations& alloc = capped.outcome.allocations;
    LinkAppraiser::Pass pass = appraiser.Appraise(alloc);
    ExpectMatchesStateless(appraiser, pass,
                           StatelessCheck(g, *cache.store(), history, alloc));
    // Independent memo bookkeeping: a link hits when its (aggregate, weight
    // bits) list equals the one it was last checked on.
    std::map<LinkId, std::vector<std::pair<size_t, uint64_t>>> lists;
    for (size_t a = 0; a < alloc.size(); ++a) {
      for (const PathAllocation& pa : alloc[a]) {
        if (pa.fraction <= 1e-9) continue;
        for (LinkId l : cache.store()->Links(pa.path)) {
          lists[l].push_back({a, Bits(pa.fraction)});
        }
      }
    }
    for (auto& [l, list] : lists) {
      auto it = last_list.find(l);
      if (it != last_list.end() && it->second == list) {
        ++hits;
      } else {
        ++fresh;
        last_list[l] = list;
      }
    }
    checked += pass.checked;
    skipped += pass.peak_skipped;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(hits + fresh, checked);
  EXPECT_EQ(full.links_checked, checked);
  EXPECT_EQ(full.links_memo_hit, hits);
  EXPECT_EQ(full.links_checked - full.links_memo_hit, fresh);
  EXPECT_EQ(full.links_peak_skipped, skipped);
}

}  // namespace
}  // namespace ldr
