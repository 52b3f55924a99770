// bench_to_json — runs the solver/runtime microbenchmarks that gate this
// repo's perf trajectory and emits them as JSON, so successive PRs have a
// machine-readable baseline to regress against.
//
//   bench_to_json [--smoke] [output-path]     (default: BENCH_lp.json)
//
//   --smoke   CI smoke mode (ci.sh --bench-smoke): reduced repetitions, the
//             slow corpus-wide sections (iterative_loop, thread_scaling,
//             path_store, lp_pricing's corpus slice) skipped and emitted as
//             zeros with "smoke": true at the top. All correctness markers —
//             lp_revised objective_parity, kkt kkt_certified, scenario
//             placement_parity, degradation recovery_parity — are still
//             computed for real, so a perf refactor that breaks parity
//             fails CI even in smoke mode.
//
// Sections:
//   lp_resolve        one Fig. 13 growth round on a routing-shaped LP:
//                     warm AddColumn+re-solve vs cold rebuild-and-solve
//   iterative_loop    the full IterativeLpRoute path-growth loop (one
//                     incremental solver across the rounds)
//   thread_scaling    RunTopology over a bench-corpus slice with
//                     LDR_THREADS=1 vs LDR_THREADS=4 (speedup is meaningless
//                     on a 1-core container; see invalid_single_core)
//   path_store        corpus wall-clock plus PathStore interning telemetry:
//                     allocation_refs is how many PathAllocation handles the
//                     corpus produced (each an owning deep-copied Path before
//                     the arena), unique_paths how many distinct paths were
//                     actually stored; hit rate = 1 - unique/refs
//   lp_revised        revised-simplex work tracking: per-pivot cost and
//                     resident solver memory on the lp_resolve_large warm
//                     round and the shape_partial cold solve. basis_bytes is
//                     the sparse L/U + update file the solver actually keeps.
//                     objective_parity re-checks each warm/incremental solve
//                     against a cold one-shot rebuild.
//   lp_lu             basis-size sweep: routing-shaped LPs generated at
//                     increasing link counts, each solved cold. Per point:
//                     wall-clock, pivots, per-pivot ms and resident basis
//                     bytes, plus the LU factor telemetry (lu_nnz,
//                     fill_ratio, eta_count, refactorizations) — the sweep
//                     shows how per-pivot cost and bytes grow with m.
//   lp_pricing        partial (candidate-list) pricing on routing-shaped LPs
//                     solved cold, plus the Fig. 13 loop over a warm-cache
//                     corpus slice: columns priced per simplex iteration and
//                     wall-clock.
//   kkt               every LP answer the lp_* sections above obtain (and
//                     the final routing LP of the corpus slice and of the
//                     fig21 fixture's LDR and MinMax runs) certified by
//                     lp::CheckOptimality against its own problem data:
//                     solves, how many certified, and the worst scaled
//                     residual per condition. kkt_certified (gated by
//                     ci.sh --bench-smoke) is true only if at least one solve
//                     was checked and every one certified — it proves each
//                     answer optimal rather than agreeing with a second
//                     solver.
//   scenario          the fig21 failure/recovery timeline driven by the
//                     ScenarioEngine on a zoo topology: per-epoch LDR solve
//                     medians warm (persistent LP across epochs) vs the
//                     all-cold run, route churn on
//                     event-free epochs (must be 0), reconvergence epochs
//                     after the LinkDown/LinkUp events, and the bitwise
//                     warm/cold placement parity flag. Timings carry the
//                     same invalid_single_core marker as thread_scaling on
//                     1-core containers (scheduling noise, not a baseline).
//   survivability     seeded correlated-failure campaigns (PR 10): SRLG
//                     conduit cuts, node outages, maintenance windows with a
//                     drain epoch, and cable flaps sampled deterministically
//                     from (topology, seed) over a zoo-corpus slice, run
//                     under LDR / B4 / SP with the closed-loop CUBIC demand
//                     model engaged. Per driver: availability mean/min,
//                     worst-case congestion and queueing, fallback-ladder
//                     rung counts, and the reconvergence-epoch distribution
//                     (p50 / max / never-reconverged). Two markers gated by
//                     ci.sh --bench-smoke: valid_every_epoch (no campaign
//                     epoch may install an invalid placement) and
//                     survivability_parity (replaying a campaign from its
//                     (topology, seed) is bitwise-identical — the per-epoch
//                     placement-hash chain must match). Smoke mode shrinks
//                     the slice (2 topologies x 2 seeds vs 8 x 5) but
//                     computes both markers for real.
//   degradation       the fig21 fixture re-run with deterministic fault
//                     windows (PR 6): lp.iter_limit and ksp.empty injected
//                     mid-outage, against a fault-free control run. Records
//                     which fallback-ladder rungs produced each faulted
//                     epoch's placement, asserts the control run never
//                     touched the ladder, that every epoch (faulted or not)
//                     installed a valid placement, and the recovery_parity
//                     marker: once faults clear, the placement hash returns
//                     to the control run's within two epochs. recovery_parity
//                     is correctness, not timing — ci.sh --bench-smoke gates
//                     on it like the other parity markers.
//
// Timings are medians over several repetitions, in milliseconds.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/failure_scenario.h"
#include "bench/lp_shapes.h"
#include "routing/lp_routing.h"
#include "sim/campaign.h"
#include "sim/corpus_runner.h"
#include "sim/scenario_engine.h"
#include "sim/workload.h"
#include "topology/generators.h"
#include "util/random.h"

using namespace ldr;

namespace {

double NowMs() {
  using namespace std::chrono;
  return duration_cast<duration<double, std::milli>>(
             steady_clock::now().time_since_epoch())
      .count();
}

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// --- kkt --------------------------------------------------------------------

// Running certification of every LP answer the bench obtains. Certificates
// are computed outside the timed regions.
struct KktTally {
  long solves = 0;
  long certified = 0;
  double primal_residual = 0;
  double dual_residual = 0;
  double complementarity = 0;
  double gap = 0;

  void Add(const lp::Problem& p, const lp::Solution& s) {
    ++solves;
    lp::Certificate c = lp::CheckOptimality(p, s);
    if (c.ok) {
      ++certified;
    } else {
      std::fprintf(stderr, "bench_to_json: KKT certificate failed: %s\n",
                   c.failure.c_str());
    }
    primal_residual = std::max(primal_residual, c.primal_residual);
    dual_residual = std::max(dual_residual, c.dual_residual);
    complementarity = std::max(complementarity, c.complementarity);
    gap = std::max(gap, c.gap);
  }
  // The final LP of a Fig. 13 run, as left in the reuse context.
  void AddRouting(const LpReuseContext& reuse) {
    if (reuse.lp == nullptr) {
      ++solves;  // the run's last solve failed: nothing certifiable
      return;
    }
    Add(reuse.lp->solver().Snapshot(), reuse.lp->last_solution());
  }
  bool all_certified() const { return solves > 0 && certified == solves; }
};

// --- lp_resolve -------------------------------------------------------------

struct WarmCold {
  double warm_ms = 0;
  double cold_ms = 0;
  double speedup() const { return warm_ms > 0 ? cold_ms / warm_ms : 0; }
};

WarmCold BenchLpResolve(int aggregates, int links, int reps, KktTally* kkt) {
  WarmCold wc;
  std::vector<double> warm, cold;
  for (int r = 0; r < reps; ++r) {
    auto spec = bench::RoutingLpSpec::Random(7 + static_cast<uint64_t>(r),
                                             aggregates, links);
    bench::WarmLp base = bench::BuildSolverBase(spec);
    lp::Solution s0 = base.solver.Solve();
    if (!s0.ok()) continue;

    double t0 = NowMs();
    bench::AppendGrowth(spec, &base);
    lp::Solution sw = base.solver.Solve();
    warm.push_back(NowMs() - t0);

    t0 = NowMs();
    lp::Problem p = bench::BuildProblem(spec, /*with_growth=*/true);
    lp::Solution sc = lp::Solve(p);
    cold.push_back(NowMs() - t0);
    kkt->Add(base.solver.Snapshot(), sw);
    kkt->Add(p, sc);

    if (sw.ok() && sc.ok() &&
        std::abs(sw.objective - sc.objective) >
            1e-5 * (1 + std::abs(sc.objective))) {
      std::fprintf(stderr,
                   "bench_to_json: warm/cold objective mismatch (%g vs %g)\n",
                   sw.objective, sc.objective);
    }
  }
  if (!warm.empty()) wc.warm_ms = MedianMs(warm);
  if (!cold.empty()) wc.cold_ms = MedianMs(cold);
  return wc;
}

// --- iterative_loop ---------------------------------------------------------

// Median wall clock of the Fig. 13 loop on a loaded grid, KSP cache warmed
// first so the timing isolates LP work.
double BenchIterativeLoop(int side, int reps) {
  Rng rng(5);
  Topology t = MakeGrid("bench-grid", side, side, 0.3, 0.0, EuropeRegion(),
                        &rng, {100, 40, 0.3});
  KspCache cache(&t.graph);
  WorkloadOptions wopts;
  wopts.num_instances = 1;
  wopts.target_utilization = 0.9;
  wopts.seed = 17;
  std::vector<Aggregate> aggs = MakeScaledWorkloads(t, &cache, wopts)[0];
  IterativeOptions opts;
  IterativeLpRoute(t.graph, aggs, &cache, opts);  // warm the KSP cache

  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    double t0 = NowMs();
    IterativeLpRoute(t.graph, aggs, &cache, opts);
    samples.push_back(NowMs() - t0);
  }
  return MedianMs(samples);
}

// --- thread_scaling ---------------------------------------------------------

double TimeCorpusMs(const std::vector<Topology>& corpus,
                    const CorpusRunOptions& opts, const char* threads,
                    uint64_t* allocation_refs = nullptr,
                    uint64_t* unique_paths = nullptr) {
  setenv("LDR_THREADS", threads, 1);
  double t0 = NowMs();
  std::vector<TopologyRun> runs = RunCorpus(corpus, opts);
  double elapsed = NowMs() - t0;
  unsetenv("LDR_THREADS");
  if (runs.size() != corpus.size()) {
    std::fprintf(stderr, "bench_to_json: corpus run dropped topologies\n");
  }
  for (const TopologyRun& run : runs) {
    if (allocation_refs != nullptr) *allocation_refs += run.path_allocation_refs;
    if (unique_paths != nullptr) *unique_paths += run.path_unique_stored;
  }
  return elapsed;
}

// --- lp_pricing -------------------------------------------------------------

struct PricingRun {
  double ms = 0;
  long columns = 0;      // total columns priced
  long iters = 0;        // total simplex iterations
  long solved = 0;       // instances that reached optimal
  double per_iter() const {
    return iters > 0 ? static_cast<double>(columns) / static_cast<double>(iters)
                     : 0;
  }
};

// Cold solves of routing-shaped LPs.
PricingRun BenchPricingShapes(int aggregates, int links, int reps,
                              KktTally* kkt) {
  PricingRun out;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    auto spec = bench::RoutingLpSpec::Random(21 + static_cast<uint64_t>(r),
                                             aggregates, links);
    lp::Problem p = bench::BuildProblem(spec, /*with_growth=*/true);
    double t0 = NowMs();
    lp::Solution s = lp::Solve(p);
    times.push_back(NowMs() - t0);
    kkt->Add(p, s);
    if (s.ok()) {
      out.columns += s.columns_priced;
      out.iters += s.iterations;
      ++out.solved;
    }
  }
  if (!times.empty()) out.ms = MedianMs(times);
  return out;
}

// The Fig. 13 loop over small corpus topologies with pre-warmed KSP caches,
// so the timed pass measures LP work rather than Yen's algorithm.
struct CorpusPricingFixture {
  std::vector<Topology> corpus;  // owns the graphs tops/caches point into
  std::vector<const Topology*> tops;
  std::vector<std::unique_ptr<KspCache>> caches;
  std::vector<std::vector<Aggregate>> workloads;
};

CorpusPricingFixture MakePricingFixture(std::vector<Topology> corpus) {
  CorpusPricingFixture f;
  f.corpus = std::move(corpus);
  for (const Topology& t : f.corpus) {
    if (t.graph.NodeCount() > 40) continue;
    auto cache = std::make_unique<KspCache>(&t.graph);
    WorkloadOptions wopts;
    wopts.num_instances = 1;
    wopts.seed = 91;
    f.workloads.push_back(MakeScaledWorkloads(t, cache.get(), wopts)[0]);
    f.tops.push_back(&t);
    f.caches.push_back(std::move(cache));
  }
  for (size_t i = 0; i < f.tops.size(); ++i) {
    IterativeOptions opts;
    IterativeLpRoute(f.tops[i]->graph, f.workloads[i], f.caches[i].get(), opts);
  }
  return f;
}

PricingRun BenchPricingCorpus(CorpusPricingFixture* f, KktTally* kkt) {
  PricingRun out;
  std::vector<LpReuseContext> final_lps(f->tops.size());
  double t0 = NowMs();
  for (size_t i = 0; i < f->tops.size(); ++i) {
    IterativeOptions opts;
    RoutingOutcome o = IterativeLpRoute(f->tops[i]->graph, f->workloads[i],
                                        f->caches[i].get(), opts,
                                        &final_lps[i]);
    out.columns += o.lp_columns_priced;
    out.iters += o.lp_iterations;
    ++out.solved;
  }
  out.ms = NowMs() - t0;
  for (const LpReuseContext& reuse : final_lps) kkt->AddRouting(reuse);
  return out;
}

// --- lp_revised -------------------------------------------------------------

struct RevisedStats {
  double total_ms = 0;        // summed wall-clock of the measured solves
  int reps = 0;               // solves actually measured (failures excluded)
  long iters = 0;             // summed simplex iterations
  long pivots = 0;            // summed basis-changing pivots
  long ftran_nnz = 0;         // summed FTRAN input nonzeros
  size_t basis_bytes = 0;     // resident L/U + file bytes (last solver)
  bool objective_parity = true;
  double per_pivot_ms() const {
    return pivots > 0 ? total_ms / static_cast<double>(pivots) : 0;
  }
};

// The lp_resolve_large experiment (one Fig. 13 growth round re-solved warm),
// instrumented: pivots, FTRAN volume, and the resident factorization bytes.
RevisedStats BenchRevisedResolve(int aggregates, int links, int reps,
                                 KktTally* kkt) {
  RevisedStats out;
  for (int r = 0; r < reps; ++r) {
    auto spec = bench::RoutingLpSpec::Random(7 + static_cast<uint64_t>(r),
                                             aggregates, links);
    bench::WarmLp warm = bench::BuildSolverBase(spec);
    lp::Solution s0 = warm.solver.Solve();
    if (!s0.ok()) {
      out.objective_parity = false;  // a failed solve must not drop out
      continue;
    }
    double t0 = NowMs();
    bench::AppendGrowth(spec, &warm);
    lp::Solution sw = warm.solver.Solve();
    out.total_ms += NowMs() - t0;
    kkt->Add(warm.solver.Snapshot(), sw);
    if (!sw.ok()) {
      out.objective_parity = false;
      continue;
    }
    ++out.reps;
    out.iters += sw.iterations;
    out.pivots += sw.pivots;
    out.ftran_nnz += sw.ftran_nnz;
    out.basis_bytes = sw.basis_bytes;
    lp::Problem cold = bench::BuildProblem(spec, /*with_growth=*/true);
    lp::Solution sc = lp::Solve(cold);
    kkt->Add(cold, sc);
    if (!sc.ok() || std::abs(sw.objective - sc.objective) >
                        1e-5 * (1 + std::abs(sc.objective))) {
      out.objective_parity = false;
    }
  }
  return out;
}

// The shape_partial experiment (cold routing-shaped LP, partial pricing),
// instrumented the same way.
RevisedStats BenchRevisedShapes(int aggregates, int links, int reps,
                                KktTally* kkt) {
  RevisedStats out;
  for (int r = 0; r < reps; ++r) {
    auto spec = bench::RoutingLpSpec::Random(21 + static_cast<uint64_t>(r),
                                             aggregates, links);
    lp::Problem p = bench::BuildProblem(spec, /*with_growth=*/true);
    double t0 = NowMs();
    lp::Solution s = lp::Solve(p);
    out.total_ms += NowMs() - t0;
    kkt->Add(p, s);
    if (!s.ok()) {
      out.objective_parity = false;
      continue;
    }
    ++out.reps;
    out.iters += s.iterations;
    out.pivots += s.pivots;
    out.ftran_nnz += s.ftran_nnz;
    out.basis_bytes = s.basis_bytes;
  }
  return out;
}

// --- lp_lu ------------------------------------------------------------------

// One sweep point: the same generated routing-shaped LP solved cold.
struct LuSweepPoint {
  int groups = 0;
  int links = 0;
  size_t rows = 0;  // m of the solved LP
  double lu_ms = 0;
  long lu_pivots = 0;
  size_t lu_basis_bytes = 0;
  long lu_nnz = 0;
  double fill_ratio = 0;
  int eta_count = 0;
  int refactorizations = 0;
  int pivot_recoveries = 0;
  double lu_per_pivot_ms() const {
    return lu_pivots > 0 ? lu_ms / static_cast<double>(lu_pivots) : 0;
  }
};

LuSweepPoint BenchLuSweepPoint(int groups, int links, int reps,
                               KktTally* kkt) {
  LuSweepPoint out;
  out.groups = groups;
  out.links = links;
  for (int r = 0; r < reps; ++r) {
    auto spec = bench::RoutingLpSpec::Random(401 + static_cast<uint64_t>(r),
                                             groups, links);
    lp::Problem p = bench::BuildProblem(spec, /*with_growth=*/true);
    out.rows = p.RowCount();
    // Wall-clock is summed over reps, like the pivot counts, so the
    // per-pivot quotients stay comparable across points with different rep
    // counts.
    double t0 = NowMs();
    lp::Solution sl = lp::Solve(p);
    out.lu_ms += NowMs() - t0;
    kkt->Add(p, sl);
    if (!sl.ok()) continue;
    out.lu_pivots += sl.pivots;
    out.lu_basis_bytes = sl.basis_bytes;
    out.lu_nnz = sl.lu_nnz;
    out.fill_ratio = sl.fill_ratio;
    out.eta_count = sl.eta_count;
    out.refactorizations = sl.refactorizations;
    out.pivot_recoveries += sl.pivot_recoveries;
  }
  return out;
}

// The final routing LPs of the fig21 fixture's workload under both LP
// formulations (LDR overload, MinMax utilization), certified — routing LPs
// that smoke mode also reaches.
void CertifyFixtureRoutingLps(KktTally* kkt) {
  bench::FailureTimelineFixture fixture = bench::MakeFailureTimeline();
  for (bool minmax : {false, true}) {
    KspCache cache(&fixture.zoo.graph);
    IterativeOptions opts;
    opts.lp.minmax = minmax;
    LpReuseContext reuse;
    IterativeLpRoute(fixture.zoo.graph, fixture.scenario.aggregates, &cache,
                     opts, &reuse);
    kkt->AddRouting(reuse);
  }
}

// --- fig21 runs shared by scenario and lp_dual ------------------------------

// The fig21 fixture (bench/failure_scenario.h — one definition shared with
// the figure bench, so the JSON records the same experiment it plots), run
// by the default engine and all-cold (the LP dropped before every epoch).
// Every warm/cold comparison below reads these two runs.
struct Fig21Runs {
  ScenarioReport warm;
  ScenarioReport cold;
};

Fig21Runs RunFig21() {
  Fig21Runs runs;
  bench::FailureTimelineFixture fixture = bench::MakeFailureTimeline();
  runs.warm = ScenarioEngine(fixture.zoo, fixture.scenario).Run();
  ScenarioEngineOptions cold_opts;
  cold_opts.incremental = false;
  runs.cold = ScenarioEngine(fixture.zoo, fixture.scenario, cold_opts).Run();
  return runs;
}

// --- scenario ---------------------------------------------------------------

struct ScenarioBench {
  int epochs = 0;
  size_t warm_epochs = 0;
  double warm_median_ms = 0;
  double cold_median_ms = 0;
  double churn_event_free = 0;
  int reconverge_down = -1;
  int reconverge_up = -1;
  bool placement_parity = false;
  uint64_t ksp_evictions = 0;
  double speedup() const {
    return warm_median_ms > 0 ? cold_median_ms / warm_median_ms : 0;
  }
};

// Epoch solve medians, churn, reconvergence and bitwise placement parity of
// the warm run against the all-cold one.
ScenarioBench BenchScenario(const Fig21Runs& runs) {
  ScenarioBench out;
  const ScenarioReport& warm = runs.warm;
  const ScenarioReport& cold = runs.cold;
  out.epochs = static_cast<int>(warm.epochs.size());
  out.warm_epochs = warm.warm_epochs;
  out.warm_median_ms = warm.WarmSolveMsMedian();
  out.cold_median_ms = cold.ColdSolveMsMedian();
  out.churn_event_free =
      std::max(warm.EventFreeChurnMax(), cold.EventFreeChurnMax());
  // Worst case per event type; -1 ("never reconverged") dominates — it must
  // not be masked by the other direction recovering.
  auto worst = [](int acc, int v) {
    return (acc < 0 || v < 0) ? -1 : std::max(acc, v);
  };
  bool down_seen = false;
  bool up_seen = false;
  for (const ScenarioEventReport& evr : warm.events) {
    if (evr.event.type == ScenarioEvent::Type::kLinkDown) {
      out.reconverge_down = down_seen
                                ? worst(out.reconverge_down,
                                        evr.reconverge_epochs)
                                : evr.reconverge_epochs;
      down_seen = true;
    } else {
      out.reconverge_up =
          up_seen ? worst(out.reconverge_up, evr.reconverge_epochs)
                  : evr.reconverge_epochs;
      up_seen = true;
    }
  }
  out.placement_parity = PlacementParity(warm, cold);
  out.ksp_evictions = warm.ksp_evictions;
  if (!out.placement_parity) {
    std::fprintf(stderr,
                 "bench_to_json: scenario warm/cold placement mismatch\n");
  }
  return out;
}

// --- degradation ------------------------------------------------------------

struct DegradationBench {
  int epochs = 0;
  size_t fault_epochs = 0;
  // Faulted run: epochs whose placement came from each ladder rung
  // (fallback_counts[0] counts clean epochs).
  std::array<size_t, 5> fallback_counts{};
  // Fallback rungs fired by the fault-free control run — anything nonzero
  // means load alone triggered the ladder, which would invalidate the whole
  // comparison (and is asserted 0 by the fault campaigns).
  size_t clean_run_fallbacks = 0;
  bool valid_every_epoch = true;
  // Total routing wall-clock across the faulted run's fault-window epochs —
  // what the ladder retries cost (single-core caveat applies).
  double degraded_solve_ms = 0;
  bool recovery_parity = false;
};

// The fig21 fixture under fault injection: the same topology, workload and
// cable flap as `scenario`, plus two deterministic fault windows opened
// mid-outage — lp.iter_limit (solves fail outright, driving the ladder) and
// ksp.empty (path production starved during recovery). The control run is
// the fixture untouched. recovery_parity — the marker ci.sh gates on —
// requires (a) every epoch of both runs installed a valid placement, (b) the
// control run never touched the ladder, and (c) from two epochs after the
// last window closes, the faulted run's placement hashes are bitwise the
// control run's.
DegradationBench BenchDegradation() {
  DegradationBench out;
  bench::FailureTimelineFixture fixture = bench::MakeFailureTimeline();
  const int kWindowFrom = 4, kWindowUntil = 6;  // inside the [3,7) outage

  Scenario faulted = fixture.scenario;
  FaultWindow solve_fault;
  solve_fault.failpoint = "lp.iter_limit";
  solve_fault.from_epoch = kWindowFrom;
  solve_fault.until_epoch = kWindowUntil;
  solve_fault.spec.probability = 0.75;
  solve_fault.spec.seed = 1234;
  faulted.faults.push_back(solve_fault);
  FaultWindow ksp_fault;
  ksp_fault.failpoint = "ksp.empty";
  ksp_fault.from_epoch = kWindowFrom;
  ksp_fault.until_epoch = kWindowUntil;
  ksp_fault.spec.probability = 0.5;
  ksp_fault.spec.seed = 99;
  faulted.faults.push_back(ksp_fault);

  ScenarioReport control =
      ScenarioEngine(fixture.zoo, fixture.scenario, {}).Run();
  ScenarioReport degraded = ScenarioEngine(fixture.zoo, faulted, {}).Run();

  out.epochs = faulted.epochs;
  out.fallback_counts = degraded.fallback_counts;
  for (size_t rung = 1; rung < control.fallback_counts.size(); ++rung) {
    out.clean_run_fallbacks += control.fallback_counts[rung];
  }
  for (const ScenarioEpochReport& er : control.epochs) {
    out.valid_every_epoch = out.valid_every_epoch && er.placement_valid;
  }
  for (const ScenarioEpochReport& er : degraded.epochs) {
    out.valid_every_epoch = out.valid_every_epoch && er.placement_valid;
    if (er.fault_epoch) {
      ++out.fault_epochs;
      out.degraded_solve_ms += er.solve_ms;
    }
  }
  bool hash_reconverged = control.epochs.size() == degraded.epochs.size();
  for (int e = kWindowUntil + 2; e < out.epochs && hash_reconverged; ++e) {
    hash_reconverged = degraded.epochs[static_cast<size_t>(e)].allocation_hash ==
                       control.epochs[static_cast<size_t>(e)].allocation_hash;
  }
  out.recovery_parity = out.valid_every_epoch &&
                        out.clean_run_fallbacks == 0 && hash_reconverged;
  if (!out.recovery_parity) {
    std::fprintf(stderr,
                 "bench_to_json: degradation recovery mismatch "
                 "(valid %d, clean-run fallbacks %zu, reconverged %d)\n",
                 out.valid_every_epoch ? 1 : 0, out.clean_run_fallbacks,
                 hash_reconverged ? 1 : 0);
  }
  return out;
}

// --- survivability ----------------------------------------------------------

struct DriverSurvivability {
  std::string driver;
  size_t campaigns = 0;
  double availability_mean = 0;
  double availability_min = 1;
  double worst_congestion = 0;
  double worst_queue_ms = 0;
  std::array<size_t, 5> rung_counts{};  // summed over campaigns
  std::vector<int> reconverge;          // every applied event's epochs
  size_t never_reconverged = 0;         // -1 entries split out
  size_t events_applied = 0;
  double min_demand_scale = 1;
  bool valid_every_epoch = true;
  int reconverge_p50() const {
    if (reconverge.empty()) return 0;
    std::vector<int> sorted = reconverge;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }
  int reconverge_max() const {
    return reconverge.empty()
               ? 0
               : *std::max_element(reconverge.begin(), reconverge.end());
  }
};

struct SurvivabilityBench {
  size_t topologies = 0;
  uint64_t seeds = 0;
  int epochs_per_campaign = 0;
  std::vector<DriverSurvivability> drivers;
  bool valid_every_epoch = true;
  // Replay identity: re-generating and re-running a campaign from its
  // (topology, seed) reproduces the exact per-epoch placement-hash chain.
  bool survivability_parity = true;
};

// Seeded correlated-failure campaigns over a corpus slice, LDR vs B4 vs SP.
// Availability / congestion / reconvergence are telemetry; the two markers
// (valid_every_epoch, survivability_parity) are correctness and computed for
// real in smoke mode too — on the reduced slice.
SurvivabilityBench BenchSurvivability(bool smoke) {
  SurvivabilityBench out;
  const uint64_t seeds = smoke ? 2 : 5;
  std::vector<Topology> corpus = SurvivabilityCorpus(smoke ? 2 : 8);
  out.topologies = corpus.size();
  out.seeds = seeds;
  out.epochs_per_campaign = CampaignOptions{}.epochs;
  // The LDR sweep's seed-1 hash per topology, replayed below for parity.
  std::vector<uint64_t> ldr_seed1_hash;
  for (const char* id : {"", "B4", "SP"}) {
    DriverSurvivability d;
    d.driver = *id != '\0' ? id : "LDR";
    double avail_sum = 0;
    for (const Topology& topo : corpus) {
      for (uint64_t seed = 1; seed <= seeds; ++seed) {
        CampaignRunResult r = RunCampaign(topo, seed, id);
        ++d.campaigns;
        avail_sum += r.availability;
        d.availability_min = std::min(d.availability_min, r.availability);
        d.worst_congestion = std::max(d.worst_congestion, r.worst_congestion);
        d.worst_queue_ms = std::max(d.worst_queue_ms, r.worst_queue_ms);
        for (size_t rung = 0; rung < r.fallback_counts.size(); ++rung) {
          d.rung_counts[rung] += r.fallback_counts[rung];
        }
        for (int e : r.reconverge_epochs) {
          if (e < 0) {
            ++d.never_reconverged;
          } else {
            d.reconverge.push_back(e);
          }
        }
        d.events_applied += r.events_applied;
        d.min_demand_scale = std::min(d.min_demand_scale, r.min_demand_scale);
        d.valid_every_epoch = d.valid_every_epoch && r.valid_every_epoch;
        if (*id == '\0' && seed == 1) {
          ldr_seed1_hash.push_back(r.placement_hash);
        }
      }
    }
    d.availability_mean =
        d.campaigns > 0 ? avail_sum / static_cast<double>(d.campaigns) : 0;
    out.valid_every_epoch = out.valid_every_epoch && d.valid_every_epoch;
    out.drivers.push_back(std::move(d));
  }
  for (size_t i = 0; i < corpus.size(); ++i) {
    CampaignRunResult replay = RunCampaign(corpus[i], 1, "");
    if (replay.placement_hash != ldr_seed1_hash[i]) {
      out.survivability_parity = false;
      std::fprintf(stderr,
                   "bench_to_json: survivability replay mismatch on %s\n",
                   corpus[i].name.c_str());
    }
  }
  return out;
}

// --- lp_dual ----------------------------------------------------------------

struct LpDualBench {
  int epochs = 0;
  size_t dual_repair_epochs = 0;
  // Solve medians over the topology-event epochs only — the population the
  // dual warm restart exists to make cheap.
  double dual_event_median_ms = 0;
  double cold_event_median_ms = 0;
  // Warm-run telemetry totals (the lp::Solution counters threaded through
  // RoutingOutcome into the epoch reports).
  long dual_pivots = 0;
  long bound_flips = 0;
  long warm_restart_solves = 0;
  // Per event: the wall clock from the event to the regained clean
  // placement, in the warm and the all-cold run.
  std::vector<double> dual_reconverge_ms;
  std::vector<double> cold_reconverge_ms;
  bool warm_restart_parity = false;
  double speedup() const {
    return dual_event_median_ms > 0
               ? cold_event_median_ms / dual_event_median_ms
               : 0;
  }
};

// The dual warm restart against the all-cold run: the default engine
// repairs the LP in place on the cable flap's LinkDown/LinkUp and re-enters
// via dual simplex; the all-cold run rebuilds the LP at every epoch, so its
// event epochs are cold rebuilds. The warm_restart_parity marker — gated by
// ci.sh --bench-smoke — requires at least one dual-repaired epoch (so it
// cannot pass without exercising the repair) and the two runs' placement
// hashes bitwise equal outside the two-epoch window [event, event+1] of
// every event: the dual-repaired epoch may place differently
// (history-dependent path sets), the canonicalization epoch after it
// rebuilds cold and must realign.
LpDualBench BenchLpDual(const Fig21Runs& runs) {
  LpDualBench out;
  const ScenarioReport& dual = runs.warm;
  const ScenarioReport& cold = runs.cold;
  out.epochs = static_cast<int>(dual.epochs.size());
  out.dual_repair_epochs = dual.dual_repair_epochs;
  std::vector<double> dual_ms, cold_ms;
  std::set<size_t> exempt;  // the 2-epoch parity window of each event
  for (size_t e = 0; e < dual.epochs.size(); ++e) {
    const ScenarioEpochReport& er = dual.epochs[e];
    out.dual_pivots += er.lp_dual_pivots;
    out.bound_flips += er.lp_bound_flips;
    out.warm_restart_solves += er.lp_warm_restart;
    if (!er.event_epoch) continue;
    dual_ms.push_back(er.solve_ms);
    cold_ms.push_back(cold.epochs[e].solve_ms);
    exempt.insert(e);
    exempt.insert(e + 1);
  }
  if (!dual_ms.empty()) out.dual_event_median_ms = MedianMs(dual_ms);
  if (!cold_ms.empty()) out.cold_event_median_ms = MedianMs(cold_ms);

  bool parity = out.dual_repair_epochs > 0 &&
                dual.epochs.size() == cold.epochs.size();
  for (size_t e = 0; e < dual.epochs.size() && parity; ++e) {
    if (exempt.count(e) != 0) continue;
    parity = dual.epochs[e].allocation_hash == cold.epochs[e].allocation_hash;
  }
  out.warm_restart_parity = parity;
  if (!out.warm_restart_parity) {
    std::fprintf(stderr,
                 "bench_to_json: no dual-repaired epoch, or dual-restart/cold "
                 "placement mismatch outside the per-event canonicalization "
                 "windows\n");
  }
  for (const ScenarioEventReport& evr : dual.events) {
    out.dual_reconverge_ms.push_back(evr.reconverge_ms);
  }
  for (const ScenarioEventReport& evr : cold.events) {
    out.cold_reconverge_ms.push_back(evr.reconverge_ms);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_lp.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  KktTally kkt;
  std::fprintf(stderr, "bench_to_json: lp_resolve...\n");
  WarmCold resolve_small = BenchLpResolve(50, 25, smoke ? 3 : 7, &kkt);
  WarmCold resolve_large = BenchLpResolve(150, 75, smoke ? 1 : 3, &kkt);

  double loop_small_ms = 0, loop_large_ms = 0;
  if (!smoke) {
    std::fprintf(stderr, "bench_to_json: iterative_loop...\n");
    loop_small_ms = BenchIterativeLoop(4, 5);
    loop_large_ms = BenchIterativeLoop(6, 3);
  }

  std::fprintf(stderr, "bench_to_json: lp_revised...\n");
  RevisedStats revised_resolve =
      BenchRevisedResolve(150, 75, smoke ? 1 : 3, &kkt);
  RevisedStats revised_shapes =
      BenchRevisedShapes(120, 60, smoke ? 2 : 5, &kkt);
  bool revised_parity =
      revised_resolve.objective_parity && revised_shapes.objective_parity;
  if (!revised_parity) {
    std::fprintf(stderr, "bench_to_json: lp_revised objective mismatch\n");
  }

  std::fprintf(stderr, "bench_to_json: lp_lu sweep...\n");
  std::vector<LuSweepPoint> lu_sweep;
  lu_sweep.push_back(BenchLuSweepPoint(50, 25, smoke ? 1 : 3, &kkt));
  lu_sweep.push_back(BenchLuSweepPoint(100, 50, smoke ? 1 : 3, &kkt));
  lu_sweep.push_back(BenchLuSweepPoint(200, 100, smoke ? 1 : 2, &kkt));
  lu_sweep.push_back(BenchLuSweepPoint(400, 200, 1, &kkt));

  std::fprintf(stderr, "bench_to_json: lp_pricing...\n");
  PricingRun shape_partial =
      BenchPricingShapes(120, 60, smoke ? 2 : 5, &kkt);
  PricingRun corpus_partial;
  if (!smoke) {
    CorpusPricingFixture fixture = MakePricingFixture(BenchCorpus(8));
    corpus_partial = BenchPricingCorpus(&fixture, &kkt);
  }

  std::fprintf(stderr, "bench_to_json: kkt...\n");
  CertifyFixtureRoutingLps(&kkt);
  if (!kkt.all_certified()) {
    std::fprintf(stderr, "bench_to_json: %ld of %ld LP answers certified\n",
                 kkt.certified, kkt.solves);
  }

  // Cheap (two 12-epoch runs) and correctness-gated (placement_parity,
  // warm_restart_parity), so it runs in smoke mode too.
  std::fprintf(stderr, "bench_to_json: scenario + lp_dual...\n");
  Fig21Runs fig21 = RunFig21();
  ScenarioBench scenario = BenchScenario(fig21);
  LpDualBench lp_dual = BenchLpDual(fig21);

  // Cheap (two 12-epoch runs) and a correctness gate, so it runs in smoke
  // mode too — ci.sh --bench-smoke greps its recovery_parity marker.
  std::fprintf(stderr, "bench_to_json: degradation...\n");
  DegradationBench degradation = BenchDegradation();

  // Correctness-gated too (valid_every_epoch, survivability_parity): smoke
  // mode runs the reduced slice rather than skipping the section.
  std::fprintf(stderr, "bench_to_json: survivability...\n");
  SurvivabilityBench survivability = BenchSurvivability(smoke);

  std::vector<Topology> corpus;
  uint64_t allocation_refs = 0, unique_paths = 0;
  double t1 = 0, t4 = 0;
  if (!smoke) {
    std::fprintf(stderr, "bench_to_json: thread_scaling...\n");
    corpus = BenchCorpus(/*small_stride=*/8);
    CorpusRunOptions copts;
    copts.scheme_ids = {kSchemeOptimal, kSchemeMinMax};
    copts.workload.num_instances = 4;
    copts.max_nodes = 40;
    t1 = TimeCorpusMs(corpus, copts, "1", &allocation_refs, &unique_paths);
    t4 = TimeCorpusMs(corpus, copts, "4");
  }
  double hit_rate =
      allocation_refs > unique_paths
          ? 1.0 - static_cast<double>(unique_paths) /
                      static_cast<double>(allocation_refs)
          : 0;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_to_json: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  if (smoke) std::fprintf(f, "  \"smoke\": true,\n");
  auto emit_wc = [&](const char* name, const WarmCold& wc, bool comma) {
    std::fprintf(f,
                 "  \"%s\": {\"warm_ms\": %.3f, \"cold_ms\": %.3f, "
                 "\"speedup\": %.2f}%s\n",
                 name, wc.warm_ms, wc.cold_ms, wc.speedup(), comma ? "," : "");
  };
  emit_wc("lp_resolve_small", resolve_small, true);
  emit_wc("lp_resolve_large", resolve_large, true);
  std::fprintf(f,
               "  \"iterative_loop_small\": {\"warm_ms\": %.3f},\n"
               "  \"iterative_loop_large\": {\"warm_ms\": %.3f},\n",
               loop_small_ms, loop_large_ms);
  // A 1-core container cannot exhibit thread scaling: the measured ~1.0
  // "speedup" is pure scheduling noise, so mark it invalid instead of
  // letting it masquerade as a regression baseline.
  unsigned hw_threads = std::thread::hardware_concurrency();
  bool single_core = hw_threads <= 1;
  std::fprintf(f,
               "  \"thread_scaling\": {\"threads1_ms\": %.1f, "
               "\"threads4_ms\": %.1f, \"speedup\": %.2f, "
               "\"topologies\": %zu, \"hardware_threads\": %u%s},\n",
               t1, t4, t4 > 0 ? t1 / t4 : 0, corpus.size(), hw_threads,
               single_core ? ", \"invalid_single_core\": true" : "");
  std::fprintf(f,
               "  \"path_store\": {\"corpus_ms\": %.1f, "
               "\"allocation_refs\": %llu, \"unique_paths\": %llu, "
               "\"intern_hit_rate\": %.4f},\n",
               t1, static_cast<unsigned long long>(allocation_refs),
               static_cast<unsigned long long>(unique_paths), hit_rate);
  // Same 1-core caveat as thread_scaling: epoch solve medians measured on a
  // loaded single-core container are scheduling noise, so they carry the
  // same marker instead of becoming a perf baseline.
  std::fprintf(f,
               "  \"scenario\": {\"epochs\": %d, \"warm_epochs\": %zu, "
               "\"warm_median_ms\": %.3f, \"cold_median_ms\": %.3f, "
               "\"speedup\": %.2f, \"churn_event_free\": %.4f, "
               "\"reconverge_down_epochs\": %d, \"reconverge_up_epochs\": %d, "
               "\"placement_parity\": %s, \"ksp_evictions\": %llu%s},\n",
               scenario.epochs, scenario.warm_epochs, scenario.warm_median_ms,
               scenario.cold_median_ms, scenario.speedup(),
               scenario.churn_event_free, scenario.reconverge_down,
               scenario.reconverge_up,
               scenario.placement_parity ? "true" : "false",
               static_cast<unsigned long long>(scenario.ksp_evictions),
               single_core ? ", \"invalid_single_core\": true" : "");
  auto emit_revised = [&](const char* name, const RevisedStats& rs) {
    double per_solve = rs.reps > 0 ? rs.total_ms / rs.reps : 0;
    std::fprintf(
        f,
        "    \"%s\": {\"ms\": %.3f, \"iterations\": %ld, \"pivots\": %ld, "
        "\"per_pivot_ms\": %.5f, \"ftran_nnz\": %ld, \"basis_bytes\": %zu},\n",
        name, per_solve, rs.iters, rs.pivots, rs.per_pivot_ms(), rs.ftran_nnz,
        rs.basis_bytes);
  };
  std::fprintf(f, "  \"lp_revised\": {\n");
  emit_revised("lp_resolve_large", revised_resolve);
  emit_revised("shape_partial", revised_shapes);
  std::fprintf(f, "    \"objective_parity\": %s\n  },\n",
               revised_parity ? "true" : "false");
  std::fprintf(f, "  \"lp_lu\": {\n    \"sweep\": [\n");
  for (size_t i = 0; i < lu_sweep.size(); ++i) {
    const LuSweepPoint& pt = lu_sweep[i];
    std::fprintf(
        f,
        "      {\"groups\": %d, \"links\": %d, \"rows\": %zu, "
        "\"lu_ms\": %.3f, \"lu_per_pivot_ms\": %.5f, "
        "\"lu_basis_bytes\": %zu, "
        "\"lu_nnz\": %ld, \"fill_ratio\": %.2f, \"eta_count\": %d, "
        "\"refactorizations\": %d, \"pivot_recoveries\": %d}%s\n",
        pt.groups, pt.links, pt.rows, pt.lu_ms, pt.lu_per_pivot_ms(),
        pt.lu_basis_bytes, pt.lu_nnz, pt.fill_ratio, pt.eta_count,
        pt.refactorizations, pt.pivot_recoveries,
        i + 1 < lu_sweep.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  auto emit_pricing = [&](const char* name, const PricingRun& pr, bool comma) {
    std::fprintf(f,
                 "    \"%s\": {\"ms\": %.3f, \"columns_priced\": %ld, "
                 "\"iterations\": %ld, \"columns_per_iteration\": %.1f, "
                 "\"solved\": %ld}%s\n",
                 name, pr.ms, pr.columns, pr.iters, pr.per_iter(), pr.solved,
                 comma ? "," : "");
  };
  std::fprintf(f, "  \"lp_pricing\": {\n");
  emit_pricing("shape_partial", shape_partial, true);
  emit_pricing("corpus_partial", corpus_partial, false);
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"kkt\": {\"solves\": %ld, \"certified\": %ld, "
               "\"max_primal_residual\": %.3g, \"max_dual_residual\": %.3g, "
               "\"max_complementarity\": %.3g, \"max_gap\": %.3g, "
               "\"kkt_certified\": %s},\n",
               kkt.solves, kkt.certified, kkt.primal_residual,
               kkt.dual_residual, kkt.complementarity, kkt.gap,
               kkt.all_certified() ? "true" : "false");
  // degraded_solve_ms is wall-clock and inherits the 1-core caveat; the
  // rung counts and recovery_parity are correctness and carry no marker.
  std::fprintf(
      f,
      "  \"degradation\": {\"epochs\": %d, \"fault_epochs\": %zu, "
      "\"rung_retry_refactor\": %zu, \"rung_cold_rebuild\": %zu, "
      "\"rung_last_placement\": %zu, \"rung_shortest_path\": %zu, "
      "\"clean_run_fallbacks\": %zu, \"valid_every_epoch\": %s, "
      "\"degraded_solve_ms\": %.3f, \"recovery_parity\": %s%s}\n",
      degradation.epochs, degradation.fault_epochs,
      degradation.fallback_counts[1], degradation.fallback_counts[2],
      degradation.fallback_counts[3], degradation.fallback_counts[4],
      degradation.clean_run_fallbacks,
      degradation.valid_every_epoch ? "true" : "false",
      degradation.degraded_solve_ms,
      degradation.recovery_parity ? "true" : "false",
      single_core ? ", \"invalid_single_core\": true" : "");
  std::fprintf(f, ",\n");
  // The telemetry totals (dual_pivots / bound_flips / warm_restart) are
  // correctness; the event-epoch medians are wall-clock and carry the same
  // 1-core marker as the other timing sections.
  auto emit_reconverge = [&](const char* name, const std::vector<double>& ms,
                             bool comma) {
    std::fprintf(f, "    \"%s\": [", name);
    for (size_t i = 0; i < ms.size(); ++i) {
      std::fprintf(f, "%s%.3f", i > 0 ? ", " : "", ms[i]);
    }
    std::fprintf(f, "]%s\n", comma ? "," : "");
  };
  std::fprintf(
      f,
      "  \"lp_dual\": {\n"
      "    \"epochs\": %d, \"dual_repair_epochs\": %zu,\n"
      "    \"dual_event_median_ms\": %.3f, \"cold_event_median_ms\": %.3f, "
      "\"speedup\": %.2f,\n"
      "    \"dual_pivots\": %ld, \"bound_flips\": %ld, \"warm_restart\": "
      "%ld,\n",
      lp_dual.epochs, lp_dual.dual_repair_epochs, lp_dual.dual_event_median_ms,
      lp_dual.cold_event_median_ms, lp_dual.speedup(), lp_dual.dual_pivots,
      lp_dual.bound_flips, lp_dual.warm_restart_solves);
  emit_reconverge("dual_reconverge_ms", lp_dual.dual_reconverge_ms, true);
  emit_reconverge("cold_reconverge_ms", lp_dual.cold_reconverge_ms, true);
  std::fprintf(f, "    \"warm_restart_parity\": %s%s\n  },\n",
               lp_dual.warm_restart_parity ? "true" : "false",
               single_core ? ", \"invalid_single_core\": true" : "");
  // Availability / congestion are deterministic simulation outputs, not
  // wall-clock, so the section carries no single-core marker.
  std::fprintf(f,
               "  \"survivability\": {\n"
               "    \"topologies\": %zu, \"seeds\": %llu, "
               "\"epochs_per_campaign\": %d,\n",
               survivability.topologies,
               static_cast<unsigned long long>(survivability.seeds),
               survivability.epochs_per_campaign);
  for (const DriverSurvivability& d : survivability.drivers) {
    std::fprintf(
        f,
        "    \"%s\": {\"campaigns\": %zu, \"availability_mean\": %.4f, "
        "\"availability_min\": %.4f, \"worst_congestion\": %.4f, "
        "\"worst_queue_ms\": %.1f, \"events_applied\": %zu, "
        "\"reconverge_p50\": %d, \"reconverge_max\": %d, "
        "\"never_reconverged\": %zu, \"rung_retry_refactor\": %zu, "
        "\"rung_cold_rebuild\": %zu, \"rung_last_placement\": %zu, "
        "\"rung_shortest_path\": %zu, \"min_demand_scale\": %.4f, "
        "\"valid_every_epoch\": %s},\n",
        d.driver.c_str(), d.campaigns, d.availability_mean,
        d.availability_min, d.worst_congestion, d.worst_queue_ms,
        d.events_applied, d.reconverge_p50(), d.reconverge_max(),
        d.never_reconverged, d.rung_counts[1], d.rung_counts[2],
        d.rung_counts[3], d.rung_counts[4], d.min_demand_scale,
        d.valid_every_epoch ? "true" : "false");
  }
  std::fprintf(f,
               "    \"valid_every_epoch\": %s,\n"
               "    \"survivability_parity\": %s\n  }\n",
               survivability.valid_every_epoch ? "true" : "false",
               survivability.survivability_parity ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_to_json: wrote %s\n", out_path.c_str());

  std::printf(
      "lp_resolve    warm %.3f ms  cold %.3f ms  speedup %.1fx\n"
      "lp_revised    resolve_large %.3f ms  shape_partial %.3f ms  basis %zu B  "
      "parity %s\n"
      "lp_lu         largest m=%zu  %.1f ms / %zu B  fill %.2f\n"
      "iterative     %.3f ms\n"
      "threads 1->4  %.1f ms -> %.1f ms  speedup %.2fx\n"
      "path_store    %llu allocation refs -> %llu unique paths  "
      "hit rate %.1f%%\n"
      "lp_pricing    shapes %.1f cols/iter (%.3f ms)  "
      "corpus %.1f cols/iter (%.1f ms)\n"
      "kkt           %ld / %ld LP answers certified\n"
      "scenario      warm %.3f ms  cold %.3f ms  speedup %.1fx  "
      "churn %.3f  reconverge down/up %d/%d  parity %s\n"
      "degradation   %zu fault epochs  rungs r1/r2/r3/r4 %zu/%zu/%zu/%zu  "
      "clean-run rungs %zu  recovery parity %s\n",
      resolve_small.warm_ms, resolve_small.cold_ms, resolve_small.speedup(),
      revised_resolve.reps > 0 ? revised_resolve.total_ms / revised_resolve.reps
                               : 0.0,
      revised_shapes.reps > 0 ? revised_shapes.total_ms / revised_shapes.reps
                              : 0.0,
      revised_shapes.basis_bytes, revised_parity ? "yes" : "NO",
      lu_sweep.back().rows, lu_sweep.back().lu_ms,
      lu_sweep.back().lu_basis_bytes, lu_sweep.back().fill_ratio,
      loop_large_ms, t1, t4,
      t4 > 0 ? t1 / t4 : 0,
      static_cast<unsigned long long>(allocation_refs),
      static_cast<unsigned long long>(unique_paths), hit_rate * 100,
      shape_partial.per_iter(), shape_partial.ms, corpus_partial.per_iter(),
      corpus_partial.ms, kkt.certified, kkt.solves,
      scenario.warm_median_ms, scenario.cold_median_ms, scenario.speedup(),
      scenario.churn_event_free, scenario.reconverge_down,
      scenario.reconverge_up, scenario.placement_parity ? "yes" : "NO",
      degradation.fault_epochs, degradation.fallback_counts[1],
      degradation.fallback_counts[2], degradation.fallback_counts[3],
      degradation.fallback_counts[4], degradation.clean_run_fallbacks,
      degradation.recovery_parity ? "yes" : "NO");
  std::printf(
      "lp_dual       event epochs dual %.3f ms  cold %.3f ms  speedup %.1fx  "
      "repaired %zu  pivots %ld  flips %ld  parity %s\n",
      lp_dual.dual_event_median_ms, lp_dual.cold_event_median_ms,
      lp_dual.speedup(), lp_dual.dual_repair_epochs, lp_dual.dual_pivots,
      lp_dual.bound_flips, lp_dual.warm_restart_parity ? "yes" : "NO");
  for (const DriverSurvivability& d : survivability.drivers) {
    std::printf(
        "survivability %-3s  %zu campaigns  avail %.3f (min %.3f)  "
        "worst congestion %.3f  reconverge p50/max %d/%d (+%zu never)  "
        "rungs r3/r4 %zu/%zu\n",
        d.driver.c_str(), d.campaigns, d.availability_mean,
        d.availability_min, d.worst_congestion, d.reconverge_p50(),
        d.reconverge_max(), d.never_reconverged, d.rung_counts[3],
        d.rung_counts[4]);
  }
  std::printf("survivability markers  valid_every_epoch %s  replay parity %s\n",
              survivability.valid_every_epoch ? "yes" : "NO",
              survivability.survivability_parity ? "yes" : "NO");
  return 0;
}
