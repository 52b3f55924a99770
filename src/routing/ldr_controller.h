// The full LDR controller — the paper's Fig. 11/Fig. 14 loop and the
// system's primary contribution:
//
//   (1) predict each aggregate's next-minute mean rate (Algorithm 1) from
//       its measured history;
//   (2) find the latency-optimal placement for those rates via the Fig. 12
//       LP with Fig. 13 iterative path growth;
//   (3) appraise statistical multiplexing on every busy link (temporal and
//       FFT-convolution tests, Fig. 14 B/C);
//   (4) where a link fails, scale up the demand estimate Ba of the
//       aggregates crossing it — adding headroom only where it is needed,
//       "for those aggregates that don't multiplex well" — and re-optimize.
//
// The paper's controller is not a one-shot optimizer: it runs this loop
// every minute against live measurements, and consecutive minutes share
// almost all state. LdrController is that persistent form — it owns the
// per-aggregate predictor states and the warm LP context across epochs, and
// takes topology deltas (link down/up, capacity change) between epochs. The
// free RunLdrController function remains as the one-epoch wrapper every
// pre-engine caller uses: a fresh controller driven for a single epoch over
// the full history, bit-for-bit the original behavior.
#ifndef LDR_ROUTING_LDR_CONTROLLER_H_
#define LDR_ROUTING_LDR_CONTROLLER_H_

#include <vector>

#include "graph/ksp.h"
#include "routing/lp_routing.h"
#include "routing/scheme.h"
#include "tm/traffic_matrix.h"
#include "traffic/multiplex.h"
#include "traffic/predictor.h"

namespace ldr {

struct LdrControllerOptions {
  IterativeOptions routing;          // the LP/path-growth knobs
  MultiplexOptions multiplex;        // queue budget, period, quantization
  int max_rounds = 6;                // optimize/appraise/tweak iterations
  double scale_up = 1.1;             // Ba multiplier for failing aggregates
  double predictor_decay = 0.98;     // Algorithm 1 constants
  double predictor_hedge = 1.1;
};

struct LdrControllerResult {
  RoutingOutcome outcome;
  // Final per-aggregate demand estimates Ba (after prediction and scaling).
  std::vector<double> demand_estimate_gbps;
  int rounds = 0;
  bool multiplex_ok = false;  // all links passed in the final round
  size_t failing_links_last_round = 0;
  // Routing wall-clock summed over *all* optimize rounds of the epoch
  // (outcome.solve_ms covers only the final round's re-optimization).
  double solve_ms_total = 0;
  // True when this epoch re-entered the previous epoch's live LP instead of
  // rebuilding it (always false for the one-epoch RunLdrController
  // wrapper).
  bool warm_epoch = false;
  // True when this epoch's warm re-entry repaired the live LP in place
  // after a topology delta (dead-path variables fixed to zero, capacity
  // rows re-synced, dual-simplex warm restart) instead of rebuilding cold.
  bool topology_repaired = false;
  // Degradation telemetry (PR 6): the highest fallback-ladder rung that
  // fired across the epoch's rounds producing the installed placement.
  // kNone on a clean epoch; mirrored into outcome.fallback.
  FallbackRung fallback = FallbackRung::kNone;
};

// Algorithm 1 demand prediction for every aggregate: per-minute means of
// the measured series replayed through a MeanRatePredictor. Exposed so
// callers replaying many controller epochs can hoist it.
std::vector<double> PredictDemands(
    const std::vector<std::vector<double>>& history_100ms,
    const LdrControllerOptions& opts);

// The persistent form of the same step: feeds one epoch's measured segment
// into long-lived per-aggregate predictors (resetting them if the aggregate
// count changed) and returns the demand estimates. Shared by
// LdrController::RunEpoch and the scenario engine's baseline drivers, so
// every driver in a scenario sees identical demand inputs.
std::vector<double> AdvancePredictors(
    std::vector<MeanRatePredictor>* predictors,
    const std::vector<std::vector<double>>& segment_100ms,
    const LdrControllerOptions& opts);

// Persistent controller: one instance per (graph, cache), driven epoch by
// epoch. State carried across RunEpoch calls: per-aggregate predictors
// (Algorithm 1 decay needs the previous prediction), the warm LP plus grown
// path sets (LpReuseContext), and the KSP cache it was handed. The scenario
// engine owns one of these and threads topology deltas through the
// OnLinkDown / OnLinkUp / OnCapacityChange hooks, which invalidate exactly
// as much of that state as the delta requires (the LP is marked dirty and
// repaired in place, never dropped):
//
//   demand change      nothing — RunEpoch pushes demand deltas warm
//   capacity change    LP marked dirty (capacity-row coefficients re-synced
//                      on the next solve). Predictors and KSP cache
//                      survive (delays unchanged)
//   link down          targeted KSP eviction of the pairs whose produced
//                      paths cross the link (KspCache::InvalidateLink over
//                      the reverse index); LP marked dirty — dead-path
//                      variables fixed to zero, dual-simplex restart off
//                      the surviving basis
//   link up            all generators cleared (a restored link can shorten
//                      any pair's k-th path; the PathStore arena survives,
//                      so rediscovered paths keep their ids); LP marked
//                      dirty — fixed variables released back to [0, 1]
class LdrController {
 public:
  // graph and cache must outlive the controller; the cache must be built
  // over `graph`.
  LdrController(const Graph* graph, KspCache* cache,
                const LdrControllerOptions& opts = {});

  // One controller epoch over the minute(s) measured since the last call:
  // feeds `segment_100ms` (one series per aggregate, 100 ms bins) to the
  // persistent predictors, then runs the optimize/appraise/scale-up loop,
  // re-entering the LP warm when no topology delta intervened. The
  // aggregate set must be the same (src/dst/flow_count) across epochs for
  // warm re-entry; demand_gbps fields are ignored as always.
  LdrControllerResult RunEpoch(
      const std::vector<Aggregate>& aggregates,
      const std::vector<std::vector<double>>& segment_100ms);

  // Topology deltas (see table above). The caller flips the graph state
  // (Graph::SetLinkDown / SetCapacity) itself; these hooks reconcile the
  // controller's cached state with it.
  void OnLinkDown(LinkId link);
  void OnLinkUp(LinkId link);
  void OnCapacityChange();

  // Grouped topology deltas (PR 10): a correlated event — SRLG cut, node
  // failure, maintenance drain — delivers all its member links in ONE batch,
  // so the controller reconciles once per event, not once per link: the KSP
  // cache is invalidated for the whole group (batch eviction: each affected
  // generator evicted and counted once) or cleared once for a grouped
  // restore, and the live LP is marked dirty once — the dual-simplex repair
  // sees one epoch delta covering every member link. A maintenance drain is
  // delivered through OnLinksDown too: from the controller's view, "move
  // traffic off these links now" is the same reconciliation whether the
  // links are administratively drained or physically cut.
  void OnLinksDown(const std::vector<LinkId>& links);
  void OnLinksUp(const std::vector<LinkId>& links);

  // Drops the warm LP so the next epoch rebuilds from scratch (after a
  // degraded or repaired epoch, at a fault window's close, and before every
  // epoch of the scenario engine's all-cold incremental=false run).
  void DropWarmState();

  // Generators evicted by OnLinkDown calls so far (telemetry).
  size_t ksp_evictions() const { return ksp_evictions_; }

  const LdrControllerOptions& options() const { return opts_; }

 private:
  // Shared tail of every topology hook: mark the live LP dirty for in-place
  // repair on the next epoch.
  void MarkLpStale();

  const Graph* g_;
  KspCache* cache_;
  LdrControllerOptions opts_;
  std::vector<MeanRatePredictor> predictors_;
  LpReuseContext reuse_;
  size_t ksp_evictions_ = 0;
  // The last placement this controller installed — degradation ladder rung
  // 3 re-serves it (pruned of masked-link paths, renormalized) when the LP
  // pipeline fails outright mid-epoch.
  std::vector<std::vector<PathAllocation>> last_allocations_;
  bool has_last_placement_ = false;
};

// `history_100ms[a]`: aggregate a's measured rate series at 100 ms
// granularity (at least one minute; multiple minutes drive the predictor
// through multiple updates). The aggregates' demand_gbps fields are ignored
// — demand comes from prediction, as in a deployed controller.
LdrControllerResult RunLdrController(
    const Graph& g, const std::vector<Aggregate>& aggregates,
    const std::vector<std::vector<double>>& history_100ms, KspCache* cache,
    const LdrControllerOptions& opts = {});

}  // namespace ldr

#endif  // LDR_ROUTING_LDR_CONTROLLER_H_
