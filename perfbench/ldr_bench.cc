// End-to-end benchmark of the LDR controller and the scenario engine.
//
// Usage:
//   ldr_bench --workload steady|failover|campaign --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--revision STR]
//
// Each workload is a closed loop with one serial caller: the next epoch (or
// campaign) starts only after the last one returned. Inputs are generated
// from --seed before the first timed call. That set-up runs three times
// before the untraced pass and once more between its repetitions, so its
// samples span the run; their median is reported as setup_s. With --trace 0
// the program measures for S seconds with tracing off and prints the
// end-to-end metrics.
// With --trace 1 it measures S/2 seconds untraced, then repeats the same
// epochs (campaigns) traced, prints both passes' end-to-end numbers side by
// side (the difference is the tracing overhead), a per-layer table built
// from the traced pass's spans, and writes the spans as Chrome trace-event
// JSON to --trace-out.
//
// The last line of stdout is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Any failed epoch or campaign makes the exit code 1. See
// README.md next to this file for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/ksp.h"
#include "graph/shortest_path.h"
#include "routing/ldr_controller.h"
#include "routing/placement.h"
#include "sim/campaign.h"
#include "sim/evaluate.h"
#include "sim/replay.h"
#include "sim/scenario_engine.h"
#include "sim/workload.h"
#include "spans.h"
#include "topology/zoo_corpus.h"
#include "traffic/multiplex.h"
#include "traffic/trace.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

#ifndef LDR_BENCH_BUILD_TYPE
#define LDR_BENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define LDR_BENCH_COMPILER "clang " __VERSION__
#elif defined(__GNUC__)
#define LDR_BENCH_COMPILER "gcc " __VERSION__
#else
#define LDR_BENCH_COMPILER "unknown"
#endif

namespace {

using ldr::Aggregate;
using ldr::Graph;
using ldr::LinkId;
using perfbench::Clock;
using perfbench::MsBetween;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// ---------------------------------------------------------------------------
// Fixed workload parameters. Changing any of them changes the benchmark.

// Set-ups before the untraced pass. More are timed between its repetitions:
// the host's speed shifts from one half minute to the next, and set-up
// samples taken only at the start would each see one phase of it.
constexpr int kSetupRepeats = 3;
// Epochs at the start of every controller repetition that run and are
// checked but not timed: the first epoch grows every KSP generator and
// builds the LP cold, which users pay once per controller, not per minute.
constexpr int kWarmupEpochs = 2;
// The traffic matrix of steady/failover is fixed (359 aggregates on the
// GTS-like grid); --seed drives the traces and the failure schedule. Matrix
// 11 keeps steady at about five appraise rounds per epoch while its final
// placements fit; on matrix 7 the sixth round ended congested in 12-44% of
// epochs depending on the trace seed, so availability measured the seed.
constexpr uint64_t kGtsMatrixSeed = 11;
constexpr int kSteadyMinutes = 16;     // synthesized trace, cycled
constexpr int kSteadyRepEpochs = 400;  // epochs per fresh controller
// Independent trace sets of steady; repetition r replays set
// r mod kSteadyTraceSets. Whether a trace's level walk congests a link
// differs a lot between draws, so one run averages over four draws instead
// of hinging on one.
constexpr int kSteadyTraceSets = 4;
constexpr double kSmoothBurst = 0.05;
constexpr double kBurstyBurst = 0.3;
constexpr int kOutagePeriod = 12;      // epochs per outage: cut at 0 ...
constexpr int kOutageUpAt = 6;         // ... restored at 6
constexpr size_t kCampaignTopologies = 8;
constexpr int kCampaignSeeds = 128;
const char* const kCampaignDrivers[] = {"", "B4", "SP"};

// Reconciliation slack: over each workload's table, the children of the
// epoch/campaign roots must cover all but 1% of the roots' total time (the
// clock reads between child spans cost well under that). A single root may
// lose more to the scheduler preempting between two children, so per-root
// gaps beyond max(5%, 50 us) are counted and printed, not failed.
constexpr double kCoverSlackTotal = 0.01;
constexpr double kCoverSlackShare = 0.05;
constexpr double kCoverSlackMs = 0.05;

const char* const kForbiddenEnv[] = {"LDR_LP_BASIS", "LDR_LP_WARM",
                                     "LDR_FAILPOINTS", "LDR_BENCH_SCALE"};

// ---------------------------------------------------------------------------
// Small helpers.

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Chain(uint64_t h, uint64_t v) { return (h ^ v) * kFnvPrime; }

// The scenario engine's allocation_hash recipe: merge entries per
// (aggregate, path), FNV-hash each key with its fraction bits, XOR-combine.
uint64_t AllocationHash(
    const std::vector<std::vector<ldr::PathAllocation>>& allocations) {
  std::map<uint64_t, double> merged;
  for (size_t a = 0; a < allocations.size(); ++a) {
    for (const ldr::PathAllocation& pa : allocations[a]) {
      merged[(static_cast<uint64_t>(a) << 32) |
             static_cast<uint32_t>(pa.path)] += pa.fraction;
    }
  }
  uint64_t acc = 0;
  for (const auto& [key, fraction] : merged) {
    uint64_t h = kFnvOffset;
    uint64_t bits = 0;
    std::memcpy(&bits, &fraction, sizeof(bits));
    for (uint64_t v : {key, bits}) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
      }
    }
    acc ^= h;
  }
  return acc;
}

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Number of samples strictly above the p-th percentile value.
size_t Beyond(const std::vector<double>& v, double p) {
  double cut = ldr::Percentile(v, p);
  return static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; }));
}

// Tail percentiles (p90, p99) are the median over kTailBlocks consecutive
// blocks of a run's samples of each block's percentile. The host's noise
// comes in bursts of seconds; a burst then moves one block's tail, not the
// reported one.
constexpr size_t kTailBlocks = 3;

std::vector<std::vector<double>> TailBlocks(const std::vector<double>& v) {
  size_t n = v.size() / kTailBlocks;
  if (n == 0) return {v};
  std::vector<std::vector<double>> blocks;
  for (size_t b = 0; b < kTailBlocks; ++b) {
    auto first = v.begin() + static_cast<ptrdiff_t>(b * n);
    auto last = b + 1 == kTailBlocks ? v.end()
                                     : first + static_cast<ptrdiff_t>(n);
    blocks.emplace_back(first, last);
  }
  return blocks;
}

double TailPercentile(const std::vector<double>& v, double p) {
  std::vector<double> per_block;
  for (const std::vector<double>& b : TailBlocks(v)) {
    per_block.push_back(ldr::Percentile(b, p));
  }
  return ldr::Median(per_block);
}

struct Counter {
  double sum = 0;
  double max = 0;
  long n = 0;
  void Add(double v) {
    sum += v;
    max = n == 0 ? v : std::max(max, v);
    ++n;
  }
  double Mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

// How the epoch's time splits, estimated from the isolated calls.
struct Decomposition {
  Counter run_epoch_ms, mux_ms, predict_ms, lp_ksp_ms;
};

// One measuring pass (untraced, or traced).
struct Pass {
  std::vector<double> epoch_ms;     // one sample per timed epoch
  std::vector<double> reaction_ms;  // failover: epochs applying an event
  std::vector<double> campaign_ms;  // campaign: one sample per Run
  double timed_ms = 0;              // sum of the timed samples
  long timed_epochs = 0;            // controller epochs inside them
  long ldr_epochs = 0;              // availability / stretch population
  long ldr_clean = 0;
  double ldr_stretch_sum = 0;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  // Traced pass only.
  std::map<std::string, Counter> counters;
  std::map<std::string, Decomposition> by_class;  // "warm", "cold", ...

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

const char* EpochClass(const ldr::LdrControllerResult& r) {
  if (r.topology_repaired) return "dual_repair";
  return r.warm_epoch ? "warm" : "cold";
}

// One CheckLinkMultiplexing pass over every loaded link of a placement —
// the appraisal the controller runs once per round, rebuilt from outside.
struct MuxPass {
  size_t checked = 0;
  size_t peak_skipped = 0;
  size_t failing = 0;
};

MuxPass MultiplexPass(const Graph& g, const ldr::RoutingOutcome& outcome,
                      const std::vector<std::vector<double>>& segment,
                      const ldr::MultiplexOptions& opts) {
  const ldr::PathStore& store = *outcome.store;
  std::vector<std::vector<ldr::WeightedSeries>> on_link(g.LinkCount());
  for (size_t a = 0; a < outcome.allocations.size(); ++a) {
    for (const ldr::PathAllocation& pa : outcome.allocations[a]) {
      if (pa.fraction <= 1e-9) continue;
      for (LinkId l : store.Links(pa.path)) {
        on_link[static_cast<size_t>(l)].push_back({&segment[a], pa.fraction});
      }
    }
  }
  MuxPass out;
  for (size_t l = 0; l < g.LinkCount(); ++l) {
    if (on_link[l].empty()) continue;
    ldr::LinkCheckResult r = ldr::CheckLinkMultiplexing(
        on_link[l], g.link(static_cast<LinkId>(l)).capacity_gbps, opts);
    ++out.checked;
    if (r.skipped_peak_test) ++out.peak_skipped;
    if (!r.pass) ++out.failing;
  }
  return out;
}

double SpanMs(const Tracer* tr, int id) {
  return tr != nullptr && id >= 0 ? tr->spans()[static_cast<size_t>(id)].Ms()
                                  : 0.0;
}

// The isolated layer calls of the traced run: each layer's public function
// called again after the epoch, outside its root span, on the epoch's real
// inputs (installed placement, segment, masked graph). Also records the
// per-layer counters and the epoch decomposition.
struct IsolatedInputs {
  const Graph* graph;
  const std::vector<Aggregate>* working;  // demand = the epoch's estimates
  const ldr::RoutingOutcome* outcome;
  const std::vector<std::vector<double>>* segment;
  std::vector<ldr::MeanRatePredictor>* shadow_predictors;
  const ldr::LdrControllerOptions* opts;
};

void RunIsolated(Tracer* tr, int root, const IsolatedInputs& in, int rounds,
                 double run_epoch_ms, const char* epoch_class, Pass* pass) {
  int predict_id, mux_id;
  MuxPass mux;
  {
    ScopedSpan s(tr, "traffic.predict", root);
    ldr::AdvancePredictors(in.shadow_predictors, *in.segment, *in.opts);
    predict_id = s.id();
  }
  {
    ScopedSpan s(tr, "traffic.multiplex.pass", root);
    mux = MultiplexPass(*in.graph, *in.outcome, *in.segment,
                        in.opts->multiplex);
    mux_id = s.id();
  }
  {
    ScopedSpan s(tr, "routing.validate", root);
    ldr::ValidatePlacement(*in.graph, *in.outcome->store,
                           in.outcome->allocations);
  }
  std::vector<double> sp;
  {
    ScopedSpan s(tr, "graph.apsp", root);
    sp = ldr::AllPairsShortestDelay(*in.graph);
  }
  {
    ScopedSpan s(tr, "sim.evaluate", root);
    ldr::Evaluate(*in.graph, *in.working, *in.outcome, sp);
  }
  {
    ScopedSpan s(tr, "sim.replay", root);
    ldr::ReplayTraffic(*in.graph, *in.working, *in.outcome, *in.segment);
  }
  double pass_ms = SpanMs(tr, mux_id);
  double predict_ms = SpanMs(tr, predict_id);
  double lp_ksp = run_epoch_ms - rounds * pass_ms - predict_ms;
  auto& c = pass->counters;
  c["mux.checked"].Add(static_cast<double>(mux.checked));
  c["mux.peak_skipped"].Add(static_cast<double>(mux.peak_skipped));
  c["mux.failing"].Add(static_cast<double>(mux.failing));
  c["lp_ksp_est_ms"].Add(lp_ksp);
  const ldr::RoutingOutcome& o = *in.outcome;
  c["lp_rounds"].Add(o.lp_rounds);
  c["lp.iterations"].Add(static_cast<double>(o.lp_iterations));
  c["lp.pivots"].Add(static_cast<double>(o.lp_pivots));
  c["lp.columns_priced"].Add(static_cast<double>(o.lp_columns_priced));
  c["lp.ftran_nnz"].Add(static_cast<double>(o.lp_ftran_nnz));
  c["lp.refactorizations"].Add(o.lp_refactorizations);
  c["lp.basis_bytes"].Add(static_cast<double>(o.lp_basis_bytes));
  for (const std::string& cls :
       {std::string(epoch_class), std::string("all")}) {
    Decomposition& d = pass->by_class[cls];
    d.run_epoch_ms.Add(run_epoch_ms);
    d.mux_ms.Add(rounds * pass_ms);
    d.predict_ms.Add(predict_ms);
    d.lp_ksp_ms.Add(lp_ksp);
  }
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual const char* root_name() const = 0;
  // Builds every input from the seed. Timed as setup_s.
  virtual void Setup(uint64_t seed) = 0;
  // Runs the closed loop until `seconds` of wall time have passed or
  // `max_items` epochs (campaigns) were attempted. A null tracer is the
  // untraced pass. `between_reps`, when set, runs before every repetition
  // but the first; it may call Setup again, which rebuilds equal inputs.
  virtual void Measure(double seconds, long max_items, Tracer* tr,
                       Pass* pass,
                       const std::function<void()>& between_reps) = 0;
  // Human-readable facts about the generated inputs.
  virtual std::string Describe() const = 0;
};

// Shared by steady and failover: a fresh LdrController per repetition,
// driven epoch by epoch over the GTS-like grid, every epoch checked.
class ControllerWorkload : public Workload {
 public:
  const char* root_name() const override { return "epoch"; }

  void Measure(double seconds, long max_items, Tracer* tr, Pass* pass,
               const std::function<void()>& between_reps) override {
    Clock::time_point begin = Clock::now();
    for (int rep = 0;; ++rep) {
      if (rep > 0 && between_reps) between_reps();
      Graph graph = topo_.graph;
      ldr::KspCache cache(&graph);
      ldr::LdrController ctl(&graph, &cache, opts_);
      std::vector<ldr::MeanRatePredictor> shadow;
      std::vector<double> sp = ldr::AllPairsShortestDelay(graph);
      for (int e = 0; e < RepEpochs(); ++e) {
        if (pass->attempted >= max_items ||
            MsBetween(begin, Clock::now()) >= seconds * 1000.0) {
          return;
        }
        RunOneEpoch(rep, e, tr, &graph, &cache, &ctl, &shadow, &sp, pass);
      }
    }
  }

 protected:
  // One epoch's inputs: the measured segment and an optional topology event.
  struct Plan {
    const std::vector<std::vector<double>>* segment = nullptr;
    const std::vector<LinkId>* links = nullptr;  // event members, or null
    bool down = false;
  };
  virtual int RepEpochs() const = 0;
  // Repetitions with equal rep mod RepClasses() get the same inputs, so
  // their placements must match.
  virtual int RepClasses() const { return 1; }
  virtual Plan EpochPlan(int rep, int e) = 0;

  void BuildGts(double utilization) {
    topo_ = ldr::GtsLike();
    ldr::KspCache cache(&topo_.graph);
    ldr::WorkloadOptions w;
    w.num_instances = 1;
    w.target_utilization = utilization;
    w.seed = kGtsMatrixSeed;
    aggregates_ = ldr::MakeScaledWorkloads(topo_, &cache, w)[0];
  }

  ldr::Topology topo_;
  std::vector<Aggregate> aggregates_;
  ldr::LdrControllerOptions opts_;
  // Placement hash of the first repetition of each (class, epoch).
  std::map<std::pair<int, int>, uint64_t> first_rep_hashes_;

 private:
  void RunOneEpoch(int rep, int e, Tracer* pass_tracer, Graph* graph,
                   ldr::KspCache* cache, ldr::LdrController* ctl,
                   std::vector<ldr::MeanRatePredictor>* shadow,
                   std::vector<double>* sp, Pass* pass) {
    const bool timed = e >= kWarmupEpochs;
    Tracer* tr = timed ? pass_tracer : nullptr;
    Plan plan = EpochPlan(rep, e);
    std::string request;
    if (tr != nullptr) request = Format("%s/r%d/e%d", name(), rep, e);
    size_t evictions_before = ctl->ksp_evictions();
    size_t paths_before = cache->store()->size();

    Clock::time_point t0 = Clock::now();
    int root = tr ? tr->BeginRoot("epoch", request, t0) : -1;
    int run_id;
    if (plan.links != nullptr) {
      ScopedSpan s(tr, "routing.event_hook", root);
      graph->SetLinksDown(*plan.links, plan.down);
      if (plan.down) {
        ctl->OnLinksDown(*plan.links);
      } else {
        ctl->OnLinksUp(*plan.links);
      }
    }
    ldr::LdrControllerResult res;
    {
      ScopedSpan s(tr, "routing.run_epoch", root);
      res = ctl->RunEpoch(aggregates_, *plan.segment);
      run_id = s.id();
    }
    Clock::time_point t1 = Clock::now();
    if (tr != nullptr) tr->End(root, t1);
    double ms = MsBetween(t0, t1);

    // Untimed from here: correctness and the user-visible quality metrics.
    std::vector<Aggregate> working = aggregates_;
    for (size_t a = 0; a < working.size(); ++a) {
      working[a].demand_gbps = res.demand_estimate_gbps[a];
    }
    if (plan.links != nullptr) *sp = ldr::AllPairsShortestDelay(*graph);
    ldr::PlacementCheck check = ldr::ValidatePlacement(
        *graph, *res.outcome.store, res.outcome.allocations);
    ldr::EvalResult eval = ldr::Evaluate(*graph, working, res.outcome, *sp);
    uint64_t hash = AllocationHash(res.outcome.allocations);
    uint64_t first =
        first_rep_hashes_.emplace(std::make_pair(rep % RepClasses(), e), hash)
            .first->second;

    ++pass->attempted;
    if (!check.valid) {
      pass->Fail(Format("%s rep %d epoch %d: invalid placement", name(), rep,
                        e));
    } else if (res.fallback != ldr::FallbackRung::kNone) {
      pass->Fail(Format("%s rep %d epoch %d: fallback rung %s fired", name(),
                        rep, e, ldr::ToString(res.fallback)));
    } else if (first != hash) {
      pass->Fail(Format("%s rep %d epoch %d: placement differs from the "
                        "first repetition with the same inputs", name(), rep,
                        e));
    }
    if (!timed) return;

    pass->epoch_ms.push_back(ms);
    if (plan.links != nullptr) pass->reaction_ms.push_back(ms);
    pass->timed_ms += ms;
    ++pass->timed_epochs;
    ++pass->ldr_epochs;
    if (check.valid && eval.congested_fraction == 0) ++pass->ldr_clean;
    pass->ldr_stretch_sum += eval.total_stretch;

    if (tr == nullptr) return;
    const char* cls = EpochClass(res);
    auto& c = pass->counters;
    c["rounds"].Add(res.rounds);
    c[std::string("epochs_") + cls].Add(1);
    c["paths_interned"].Add(
        static_cast<double>(cache->store()->size() - paths_before));
    c["ksp_evictions"].Add(
        static_cast<double>(ctl->ksp_evictions() - evictions_before));
    c["ksp_generators"].Add(static_cast<double>(cache->size()));
    c["lp.dual_pivots"].Add(static_cast<double>(res.outcome.lp_dual_pivots));
    int iso = tr->BeginRoot("isolated", request, Clock::now());
    IsolatedInputs in{graph, &working, &res.outcome, plan.segment, shadow,
                      &opts_};
    RunIsolated(tr, iso, in, res.rounds, SpanMs(tr, run_id), cls, pass);
    tr->End(iso);
  }
};

// steady: the multiplexing check does most of the work. 100 ms traces
// (half smooth, half bursty) on the GTS-like grid at 0.5 MinMax utilization,
// no topology events; the LP re-enters warm on demand deltas. Epoch e of
// repetition r replays minute e mod kSteadyMinutes of trace set
// r mod kSteadyTraceSets.
class SteadyWorkload : public ControllerWorkload {
 public:
  const char* name() const override { return "steady"; }

  void Setup(uint64_t seed) override {
    BuildGts(0.5);
    ldr::Rng master(seed ^ 0x5eed57eadULL);
    const size_t spm = 600;  // 100 ms samples per minute
    const size_t n = aggregates_.size();
    minutes_.assign(static_cast<size_t>(kSteadyTraceSets),
                    std::vector<std::vector<std::vector<double>>>(
                        static_cast<size_t>(kSteadyMinutes),
                        std::vector<std::vector<double>>(n)));
    for (size_t k = 0; k < minutes_.size(); ++k) {
      for (size_t a = 0; a < n; ++a) {
        ldr::TraceOptions t;
        t.mean_gbps = aggregates_[a].demand_gbps;
        t.minutes = kSteadyMinutes;
        t.samples_per_sec = 10;
        t.burst_amplitude = a % 2 == 0 ? kSmoothBurst : kBurstyBurst;
        ldr::Rng rng = master.Fork(k * n + a);
        std::vector<double> trace = ldr::SynthesizeTraceGbps(t, &rng);
        for (size_t m = 0; m < minutes_[k].size(); ++m) {
          minutes_[k][m][a].assign(
              trace.begin() + static_cast<ptrdiff_t>(m * spm),
              trace.begin() + static_cast<ptrdiff_t>((m + 1) * spm));
        }
      }
    }
  }

  std::string Describe() const override {
    return Format("%s: %zu nodes, %zu links, %zu aggregates at 0.5 MinMax "
                  "utilization; %d trace sets of %d minutes, cycled; %d "
                  "epochs per controller repetition",
                  topo_.name.c_str(), topo_.graph.NodeCount(),
                  topo_.graph.LinkCount(), aggregates_.size(),
                  kSteadyTraceSets, kSteadyMinutes, kSteadyRepEpochs);
  }

 protected:
  int RepEpochs() const override { return kSteadyRepEpochs; }
  int RepClasses() const override { return kSteadyTraceSets; }
  Plan EpochPlan(int rep, int e) override {
    Plan p;
    p.segment = &minutes_[static_cast<size_t>(rep % kSteadyTraceSets)]
                         [static_cast<size_t>(e % kSteadyMinutes)];
    return p;
  }

 private:
  // minutes_[k][m][a]: aggregate a's 600 samples of minute m of trace set k.
  std::vector<std::vector<std::vector<std::vector<double>>>> minutes_;
};

// failover: KSP eviction, Yen regrowth, dual-simplex repair and cold
// canonicalization do the work. Constant traffic at 0.8 MinMax utilization;
// one repetition cuts every survivable cable once, one outage at a time, in
// an order drawn from the seed. Every cable is in every run, so the tail
// percentiles do not hinge on which cables a seed happens to draw. Node
// outages are not scheduled: every node of this matrix terminates some
// aggregate, so no node outage keeps all pairs reachable.
class FailoverWorkload : public ControllerWorkload {
 public:
  const char* name() const override { return "failover"; }

  void Setup(uint64_t seed) override {
    BuildGts(0.8);
    segment_ = ldr::ConstantScenarioTraffic(aggregates_, 1, 60.0);
    outages_.clear();
    Graph probe = topo_.graph;
    for (size_t l = 0; l < probe.LinkCount(); ++l) {
      std::vector<LinkId> cable =
          ldr::CableLinks(probe, static_cast<LinkId>(l));
      if (*std::min_element(cable.begin(), cable.end()) !=
          static_cast<LinkId>(l)) {
        continue;  // each cable once, named by its lowest link id
      }
      // Survivable outages only: every aggregate pair must stay reachable
      // while the cable is down.
      probe.SetLinksDown(cable, true);
      bool ok = AllPairsReachable(probe);
      probe.SetLinksDown(cable, false);
      if (ok) outages_.push_back(std::move(cable));
    }
    ldr::Rng rng(seed ^ 0xfa11011e5ULL);
    for (size_t i = outages_.size(); i > 1; --i) {
      std::swap(outages_[i - 1], outages_[rng.NextIndex(i)]);
    }
  }

  std::string Describe() const override {
    return Format("%s: %zu aggregates at 0.8 MinMax utilization, constant "
                  "traffic; %zu survivable cable cuts per repetition, %d "
                  "epochs apart, each restored after %d",
                  topo_.name.c_str(), aggregates_.size(), outages_.size(),
                  kOutagePeriod, kOutageUpAt);
  }

 protected:
  int RepEpochs() const override {
    return kWarmupEpochs +
           static_cast<int>(outages_.size()) * kOutagePeriod;
  }
  Plan EpochPlan(int /*rep*/, int e) override {
    Plan p;
    p.segment = &segment_;
    if (e < kWarmupEpochs) return p;
    int i = (e - kWarmupEpochs) / kOutagePeriod;
    int k = (e - kWarmupEpochs) % kOutagePeriod;
    if (k == 0 || k == kOutageUpAt) {
      p.links = &outages_[static_cast<size_t>(i)];
      p.down = k == 0;
    }
    return p;
  }

 private:
  bool AllPairsReachable(const Graph& g) const {
    std::map<ldr::NodeId, ldr::SpTree> trees;
    for (const Aggregate& a : aggregates_) {
      auto it = trees.find(a.src);
      if (it == trees.end()) {
        it = trees.emplace(a.src, ldr::ShortestPathTree(g, a.src)).first;
      }
      if (!std::isfinite(it->second.distance_ms[static_cast<size_t>(a.dst)])) {
        return false;
      }
    }
    return true;
  }

  std::vector<std::vector<double>> segment_;
  std::vector<std::vector<LinkId>> outages_;
};

// campaign: the survivability sweep, the researcher's throughput case and
// the only workload whose timed path runs Evaluate, ReplayTraffic, all-pairs
// shortest paths and the B4/SP drivers.
class CampaignWorkload : public Workload {
 public:
  const char* name() const override { return "campaign"; }
  const char* root_name() const override { return "campaign"; }

  void Setup(uint64_t seed) override {
    corpus_ = ldr::SurvivabilityCorpus(kCampaignTopologies);
    ldr::Rng rng(seed ^ 0xca3a1695ULL);
    seeds_.clear();
    for (int s = 0; s < kCampaignSeeds; ++s) seeds_.push_back(rng.NextU64());
    // Generation is a pure function of (topology, seed), so it fans out
    // over the LDR_THREADS pool; the measured loop stays serial.
    size_t n = corpus_.size() * seeds_.size();
    scenarios_.assign(n, {});
    generate_ms_.assign(n, 0.0);
    std::vector<char> constant(n, 0);
    ldr::ParallelFor(n, [&](size_t i) {
      Clock::time_point t0 = Clock::now();
      ldr::Scenario sc = ldr::GenerateCampaign(corpus_[i / seeds_.size()],
                                               seeds_[i % seeds_.size()]);
      generate_ms_[i] = MsBetween(t0, Clock::now());
      // Campaign traffic is the workload's constant timeline, so it is
      // dropped here and rebuilt before each run: hundreds of stored
      // campaigns would otherwise hold hundreds of MB of series.
      constant[i] = sc.series_100ms == ConstantTraffic(sc);
      sc.series_100ms.clear();
      scenarios_[i] = std::move(sc);
    });
    if (std::count(constant.begin(), constant.end(), 0) > 0) {
      std::fprintf(stderr, "ldr_bench: GenerateCampaign traffic is no longer "
                           "ConstantScenarioTraffic; update the campaign "
                           "workload\n");
      std::exit(1);
    }
  }

  std::string Describe() const override {
    size_t events = 0;
    for (const ldr::Scenario& s : scenarios_) events += s.events.size();
    return Format("%zu topologies x %d seeds x 3 drivers (LDR, B4, SP); "
                  "%zu scheduled events over %zu campaigns",
                  corpus_.size(), kCampaignSeeds, events, scenarios_.size());
  }

  const std::vector<double>& generate_ms() const { return generate_ms_; }

  void Measure(double seconds, long max_items, Tracer* tr, Pass* pass,
               const std::function<void()>& between_reps) override {
    Clock::time_point begin = Clock::now();
    for (int rep = 0;; ++rep) {
      if (rep > 0 && between_reps) between_reps();
      for (size_t i = 0; i < scenarios_.size(); ++i) {
        for (const char* driver : kCampaignDrivers) {
          if (pass->attempted >= max_items ||
              MsBetween(begin, Clock::now()) >= seconds * 1000.0) {
            return;
          }
          RunOne(rep, i, driver, tr, pass);
        }
      }
    }
  }

 private:
  static std::vector<std::vector<double>> ConstantTraffic(
      const ldr::Scenario& s) {
    return ldr::ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);
  }

  void RunOne(int rep, size_t i, const std::string& driver, Tracer* tr,
              Pass* pass) {
    const ldr::Topology& topo = corpus_[i / seeds_.size()];
    const ldr::Scenario& scenario = scenarios_[i];
    std::string label = driver.empty() ? "LDR" : driver;
    std::string request;
    if (tr != nullptr) {
      request = Format("campaign/r%d/%s/s%zu/%s", rep, topo.name.c_str(),
                       i % seeds_.size(), label.c_str());
    }
    // RunCampaign's options: the chosen driver, closed-loop demand on.
    ldr::ScenarioEngineOptions eo;
    eo.scheme_id = driver;
    eo.adaptive.enabled = true;
    ldr::Scenario copy = scenario;
    copy.series_100ms = ConstantTraffic(scenario);

    Clock::time_point t0 = Clock::now();
    int root = tr ? tr->BeginRoot("campaign", request, t0) : -1;
    std::unique_ptr<ldr::ScenarioEngine> engine;
    ldr::ScenarioReport report;
    {
      ScopedSpan s(tr, "sim.engine_init", root);
      engine = std::make_unique<ldr::ScenarioEngine>(topo, std::move(copy), eo);
    }
    {
      ScopedSpan s(tr, "sim.engine_run", root);
      report = engine->Run();
    }
    Clock::time_point t1 = Clock::now();
    if (tr != nullptr) tr->End(root, t1);
    engine.reset();
    double ms = MsBetween(t0, t1);

    // Checks: every epoch valid and clean of fallbacks (no faults armed),
    // and the run's placement fingerprint equal to the first repetition's.
    ++pass->attempted;
    uint64_t fingerprint = kFnvOffset;
    bool valid = true;
    for (const ldr::ScenarioEpochReport& er : report.epochs) {
      valid = valid && er.placement_valid &&
              er.fallback == ldr::FallbackRung::kNone;
      fingerprint = Chain(fingerprint, er.allocation_hash);
    }
    std::string key = Format("%s seed %" PRIu64 " %s", topo.name.c_str(),
                             seeds_[i % seeds_.size()], label.c_str());
    auto [it, inserted] = first_fingerprint_.emplace(key, fingerprint);
    if (!valid) {
      pass->Fail(Format("campaign %s rep %d: invalid or degraded epoch",
                        key.c_str(), rep));
    } else if (report.epochs.empty()) {
      pass->Fail(Format("campaign %s rep %d: no epochs", key.c_str(), rep));
    } else if (!inserted && it->second != fingerprint) {
      pass->Fail(Format("campaign %s rep %d: fingerprint differs from the "
                        "first repetition", key.c_str(), rep));
    }

    double epochs = static_cast<double>(report.epochs.size());
    pass->campaign_ms.push_back(ms);
    if (epochs > 0) pass->epoch_ms.push_back(ms / epochs);
    pass->timed_ms += ms;
    pass->timed_epochs += static_cast<long>(report.epochs.size());
    bool ldr = driver.empty();
    if (ldr) {
      for (const ldr::ScenarioEpochReport& er : report.epochs) {
        ++pass->ldr_epochs;
        if (er.placement_valid && er.congested_fraction == 0) {
          ++pass->ldr_clean;
        }
        pass->ldr_stretch_sum += er.total_stretch;
      }
    }

    if (tr == nullptr) return;
    auto& c = pass->counters;
    c["sim.events_applied"].Add(static_cast<double>(report.events.size()));
    if (!ldr) return;
    c["sim.dual_repair_epochs"].Add(
        static_cast<double>(report.dual_repair_epochs));
    c["sim.warm_epochs"].Add(static_cast<double>(report.warm_epochs));
    c["sim.cold_epochs"].Add(static_cast<double>(report.cold_epochs));
    c["epochs_dual_repair"].Add(static_cast<double>(report.dual_repair_epochs));
    c["epochs_warm"].Add(static_cast<double>(report.warm_epochs));
    c["epochs_cold"].Add(static_cast<double>(report.cold_epochs));
    c["ksp_evictions"].Add(static_cast<double>(report.ksp_evictions));
    for (const ldr::ScenarioEpochReport& er : report.epochs) {
      c["rounds"].Add(er.rounds);
      c["lp.dual_pivots"].Add(static_cast<double>(er.lp_dual_pivots));
    }
    RunIsolatedEpoch(topo, scenario, request, tr, pass);
  }

  // ScenarioEngine::Run is opaque from outside, so the layer calls are timed
  // on a stand-in epoch: one fresh LdrController epoch over the campaign's
  // first segment on the unmasked topology.
  void RunIsolatedEpoch(const ldr::Topology& topo,
                        const ldr::Scenario& scenario,
                        const std::string& request, Tracer* tr, Pass* pass) {
    Graph graph = topo.graph;
    ldr::KspCache cache(&graph);
    ldr::LdrControllerOptions opts;
    ldr::LdrController ctl(&graph, &cache, opts);
    std::vector<std::vector<double>> segment = ldr::ConstantScenarioTraffic(
        scenario.aggregates, 1, scenario.epoch_sec);
    int iso = tr->BeginRoot("isolated", request, Clock::now());
    ldr::LdrControllerResult res;
    int run_id;
    {
      ScopedSpan s(tr, "routing.run_epoch", iso);
      res = ctl.RunEpoch(scenario.aggregates, segment);
      run_id = s.id();
    }
    std::vector<Aggregate> working = scenario.aggregates;
    for (size_t a = 0; a < working.size(); ++a) {
      working[a].demand_gbps = res.demand_estimate_gbps[a];
    }
    std::vector<ldr::MeanRatePredictor> shadow;
    pass->counters["paths_interned"].Add(
        static_cast<double>(cache.store()->size()));
    pass->counters["ksp_generators"].Add(static_cast<double>(cache.size()));
    IsolatedInputs in{&graph, &working, &res.outcome, &segment, &shadow,
                      &opts};
    RunIsolated(tr, iso, in, res.rounds, SpanMs(tr, run_id), EpochClass(res),
                pass);
    tr->End(iso);
  }

  std::vector<ldr::Topology> corpus_;
  std::vector<uint64_t> seeds_;
  std::vector<ldr::Scenario> scenarios_;  // [topology * seeds + seed]
  std::vector<double> generate_ms_;
  std::map<std::string, uint64_t> first_fingerprint_;
};

// ---------------------------------------------------------------------------
// Metrics and reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const std::string& workload, double setup_s,
                             const Pass& p) {
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"epoch_ms_p50", ldr::Percentile(p.epoch_ms, 50), "ms"});
  m.push_back({"epoch_ms_p99", TailPercentile(p.epoch_ms, 99), "ms"});
  m.push_back({"epochs_per_s",
               p.timed_ms > 0 ? static_cast<double>(p.timed_epochs) /
                                    (p.timed_ms / 1000.0)
                              : 0.0,
               "1/s"});
  m.push_back({"availability",
               p.ldr_epochs > 0 ? static_cast<double>(p.ldr_clean) /
                                      static_cast<double>(p.ldr_epochs)
                                : 0.0,
               "fraction"});
  m.push_back({"total_stretch",
               p.ldr_epochs > 0
                   ? p.ldr_stretch_sum / static_cast<double>(p.ldr_epochs)
                   : 0.0,
               "ratio"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  // Workload-specific metrics: printed, not part of the JSON result (the
  // result carries the metrics every workload defines).
  if (workload == "failover") {
    m.push_back({"reaction_ms_p50", ldr::Percentile(p.reaction_ms, 50), "ms"});
    m.push_back({"reaction_ms_p90", TailPercentile(p.reaction_ms, 90), "ms"});
  }
  if (workload == "campaign") {
    m.push_back({"campaign_ms_p50", ldr::Percentile(p.campaign_ms, 50), "ms"});
    m.push_back({"campaign_ms_p99", TailPercentile(p.campaign_ms, 99), "ms"});
  }
  return m;
}

constexpr size_t kJsonEndToEnd = 7;  // the first metrics of EndToEnd()

void PrintSamples(const char* what, const std::vector<double>& v,
                  double p_hi) {
  std::vector<std::vector<double>> blocks = TailBlocks(v);
  size_t beyond_hi = v.size();
  for (const std::vector<double>& b : blocks) {
    beyond_hi = std::min(beyond_hi, Beyond(b, p_hi));
  }
  std::printf("# samples %-12s n=%zu  beyond p50=%zu  beyond p%.0f=%zu in "
              "each of %zu blocks%s\n",
              what, v.size(), Beyond(v, 50), p_hi, beyond_hi, blocks.size(),
              beyond_hi < 10 ? "  (fewer than 10 beyond: percentile "
                               "under-sampled)"
                             : "");
}

struct LayerMetric {
  const char* name;
  const char* unit;
  enum Kind { kSpanP50, kMean, kTotal, kMax } kind;
  const char* source;  // span name or counter name
  bool campaign_only = false;  // ScenarioReport counts, 0 elsewhere
};

// The per-layer metrics of the JSON result (--trace 1). Span metrics are the
// median duration of one call. The ScenarioReport counts exist only on
// campaign, the one workload that runs ScenarioEngine, and are left out of
// the other workloads' results.
const LayerMetric kLayerMetrics[] = {
    {"routing.run_epoch_ms", "ms", LayerMetric::kSpanP50, "routing.run_epoch"},
    {"routing.rounds", "count", LayerMetric::kMean, "rounds"},
    {"routing.lp_rounds", "count", LayerMetric::kMean, "lp_rounds"},
    {"routing.epochs_warm", "count", LayerMetric::kTotal, "epochs_warm"},
    {"routing.epochs_cold", "count", LayerMetric::kTotal, "epochs_cold"},
    {"routing.epochs_dual_repair", "count", LayerMetric::kTotal,
     "epochs_dual_repair"},
    {"routing.validate_ms", "ms", LayerMetric::kSpanP50, "routing.validate"},
    {"routing.lp_ksp_est_ms", "ms", LayerMetric::kMean, "lp_ksp_est_ms"},
    {"traffic.multiplex.pass_ms", "ms", LayerMetric::kSpanP50,
     "traffic.multiplex.pass"},
    {"traffic.multiplex.links_checked", "count", LayerMetric::kMean,
     "mux.checked"},
    {"traffic.multiplex.links_peak_skipped", "count", LayerMetric::kMean,
     "mux.peak_skipped"},
    {"traffic.multiplex.links_failing", "count", LayerMetric::kMean,
     "mux.failing"},
    {"traffic.predict_ms", "ms", LayerMetric::kSpanP50, "traffic.predict"},
    {"graph.paths_interned", "count", LayerMetric::kMean, "paths_interned"},
    {"graph.ksp_evictions", "count", LayerMetric::kMean, "ksp_evictions"},
    {"graph.ksp_generators", "count", LayerMetric::kMean, "ksp_generators"},
    {"graph.apsp_ms", "ms", LayerMetric::kSpanP50, "graph.apsp"},
    {"lp.iterations", "count", LayerMetric::kMean, "lp.iterations"},
    {"lp.pivots", "count", LayerMetric::kMean, "lp.pivots"},
    {"lp.dual_pivots", "count", LayerMetric::kMean, "lp.dual_pivots"},
    {"lp.columns_priced", "count", LayerMetric::kMean, "lp.columns_priced"},
    {"lp.ftran_nnz", "count", LayerMetric::kMean, "lp.ftran_nnz"},
    {"lp.refactorizations", "count", LayerMetric::kMean,
     "lp.refactorizations"},
    {"lp.basis_bytes_peak", "bytes", LayerMetric::kMax, "lp.basis_bytes"},
    {"sim.replay_ms", "ms", LayerMetric::kSpanP50, "sim.replay"},
    {"sim.evaluate_ms", "ms", LayerMetric::kSpanP50, "sim.evaluate"},
    {"sim.events_applied", "count", LayerMetric::kMean, "sim.events_applied",
     true},
    {"sim.dual_repair_epochs", "count", LayerMetric::kMean,
     "sim.dual_repair_epochs", true},
    {"sim.warm_epochs", "count", LayerMetric::kMean, "sim.warm_epochs", true},
    {"sim.cold_epochs", "count", LayerMetric::kMean, "sim.cold_epochs", true},
};

std::map<std::string, std::vector<double>> SpanDurations(const Tracer& tr) {
  std::map<std::string, std::vector<double>> out;
  for (const perfbench::Span& s : tr.spans()) out[s.name].push_back(s.Ms());
  return out;
}

std::vector<Metric> PerLayer(const std::string& workload, const Tracer& tr,
                             const Pass& p) {
  std::map<std::string, std::vector<double>> spans = SpanDurations(tr);
  std::vector<Metric> out;
  for (const LayerMetric& lm : kLayerMetrics) {
    if (lm.campaign_only && workload != "campaign") continue;
    double v = 0;
    if (lm.kind == LayerMetric::kSpanP50) {
      auto it = spans.find(lm.source);
      v = it == spans.end() ? 0.0 : ldr::Median(it->second);
    } else {
      auto it = p.counters.find(lm.source);
      if (it != p.counters.end()) {
        v = lm.kind == LayerMetric::kMean    ? it->second.Mean()
            : lm.kind == LayerMetric::kTotal ? it->second.sum
                                             : it->second.max;
      }
    }
    out.push_back({lm.name, v, lm.unit});
  }
  return out;
}

// The children of the roots must cover them within the stated slack, and no
// root's children may add up to more than the root. Returns false and prints
// why when either fails.
bool Reconcile(const Tracer& tr, const char* root_name) {
  const std::vector<perfbench::Span>& spans = tr.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const perfbench::Span& s : spans) {
    if (s.parent >= 0) child_ms[static_cast<size_t>(s.parent)] += s.Ms();
  }
  std::vector<double> coverage;
  double root_total = 0;
  double child_total = 0;
  size_t wide_gaps = 0;
  size_t overfull = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    if (s.parent >= 0 || std::strcmp(s.name, root_name) != 0) continue;
    double root = s.Ms();
    double gap = root - child_ms[i];
    root_total += root;
    child_total += child_ms[i];
    coverage.push_back(root > 0 ? child_ms[i] / root : 1.0);
    if (gap > std::max(kCoverSlackShare * root, kCoverSlackMs)) ++wide_gaps;
    if (gap < -1e-6) ++overfull;
  }
  double total = root_total > 0 ? child_total / root_total : 1.0;
  std::printf("# reconcile %s: %zu roots, children cover %.4f of the total "
              "(slack %.0f%%); per root min %.4f median %.4f, %zu with a gap "
              "over max(%.0f%%, %.0f us), %zu over-full\n",
              root_name, coverage.size(), total, kCoverSlackTotal * 100,
              ldr::MinOf(coverage), ldr::Median(coverage), wide_gaps,
              kCoverSlackShare * 100, kCoverSlackMs * 1000, overfull);
  return total >= 1.0 - kCoverSlackTotal && overfull == 0;
}

void PrintLayerTable(const std::string& workload, const Tracer& tr,
                     const char* root_name, const Pass& p,
                     const std::vector<double>& generate_ms) {
  std::map<std::string, std::vector<double>> spans = SpanDurations(tr);
  double root_total = ldr::Sum(spans[root_name]);
  std::printf("# layer table: %s (share = span total / '%s' root total; "
              "'isolated' calls are timed outside the root)\n",
              workload.c_str(), root_name);
  std::printf("# %-26s %8s %12s %10s %10s %8s\n", "span", "count", "total_ms",
              "p50_ms", "p99_ms", "share");
  auto row = [&](const std::string& name, const std::vector<double>& v) {
    std::printf("# %-26s %8zu %12.3f %10.4f %10.4f %7.1f%%\n", name.c_str(),
                v.size(), ldr::Sum(v), ldr::Percentile(v, 50),
                ldr::Percentile(v, 99),
                root_total > 0 ? 100.0 * ldr::Sum(v) / root_total : 0.0);
  };
  for (const auto& [name, v] : spans) row(name, v);
  if (!generate_ms.empty()) row("sim.campaign_generate (setup)", generate_ms);
  for (const auto& [cls, d] : p.by_class) {
    double run = d.run_epoch_ms.Mean();
    auto share = [run](double v) { return run > 0 ? 100.0 * v / run : 0.0; };
    const char* largest =
        d.mux_ms.Mean() >= d.lp_ksp_ms.Mean() &&
                d.mux_ms.Mean() >= d.predict_ms.Mean()
            ? "multiplex"
            : (d.lp_ksp_ms.Mean() >= d.predict_ms.Mean() ? "lp+ksp"
                                                         : "predict");
    std::printf("# decomposition %-11s n=%-6ld run_epoch %.3f ms = multiplex "
                "%.3f (%.0f%%) + predict %.3f (%.0f%%) + lp/ksp est %.3f "
                "(%.0f%%); largest: %s\n",
                cls.c_str(), d.run_epoch_ms.n, run, d.mux_ms.Mean(),
                share(d.mux_ms.Mean()), d.predict_ms.Mean(),
                share(d.predict_ms.Mean()), d.lp_ksp_ms.Mean(),
                share(d.lp_ksp_ms.Mean()), largest);
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return Format("%.10g", v);
}

std::string MetricsJson(const std::vector<Metric>& metrics, size_t count) {
  std::string out = "{";
  for (size_t i = 0; i < count && i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 600) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--revision") {
      a->revision = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (a->workload == "steady" ||
                           a->workload == "failover" ||
                           a->workload == "campaign");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ldr_bench --workload steady|failover|campaign "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--revision STR]\n");
    return 2;
  }
  // Numbers must always measure the default program.
  for (const char* env : kForbiddenEnv) {
    if (std::getenv(env) != nullptr) {
      std::fprintf(stderr, "ldr_bench: refusing to run with %s set\n", env);
      return 2;
    }
  }

  const char* threads_env = std::getenv("LDR_THREADS");
  std::string machine = Format(
      "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"revision\": \"%s\", \"ldr_threads\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %" PRIu64 ", \"seconds\": %g, \"trace\": %d}",
      std::thread::hardware_concurrency(),
      JsonEscape(LDR_BENCH_COMPILER).c_str(), LDR_BENCH_BUILD_TYPE,
      JsonEscape(args.revision).c_str(),
      threads_env ? JsonEscape(threads_env).c_str() : "unset",
      args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("# machine %s\n", machine.c_str());

  std::unique_ptr<Workload> w;
  if (args.workload == "steady") {
    w = std::make_unique<SteadyWorkload>();
  } else if (args.workload == "failover") {
    w = std::make_unique<FailoverWorkload>();
  } else {
    w = std::make_unique<CampaignWorkload>();
  }

  std::vector<double> setup_s;
  auto timed_setup = [&] {
    Clock::time_point t0 = Clock::now();
    w->Setup(args.seed);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  };
  for (int i = 0; i < kSetupRepeats; ++i) timed_setup();
  std::printf("# workload %s\n", w->Describe().c_str());
  std::fflush(stdout);

  Pass plain;
  Pass traced;
  std::unique_ptr<Tracer> tracer;
  // The traced pass repeats exactly the untraced pass's epochs (campaigns),
  // so the two passes' end-to-end numbers differ only by the tracing.
  double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  w->Measure(untraced_seconds, std::numeric_limits<long>::max(), nullptr,
             &plain, timed_setup);
  double setup_median = ldr::Median(setup_s);
  std::printf("# samples %-12s n=%zu\n", "setup_s", setup_s.size());
  if (args.trace) {
    tracer = std::make_unique<Tracer>(Clock::now());
    w->Measure(std::numeric_limits<double>::infinity(), plain.attempted,
               tracer.get(), &traced, nullptr);
  }

  std::vector<Metric> e2e = EndToEnd(args.workload, setup_median, plain);
  for (const Metric& m : e2e) {
    std::printf("metric %-16s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintSamples("epoch_ms", plain.epoch_ms, 99);
  if (args.workload == "failover") {
    PrintSamples("reaction_ms", plain.reaction_ms, 90);
  }
  if (args.workload == "campaign") {
    PrintSamples("campaign_ms", plain.campaign_ms, 99);
  }

  long attempted = plain.attempted + traced.attempted;
  long failed = plain.failed + traced.failed;
  for (const std::string& f : plain.failures) {
    std::printf("# FAILED untraced pass: %s\n", f.c_str());
  }
  for (const std::string& f : traced.failures) {
    std::printf("# FAILED traced pass: %s\n", f.c_str());
  }

  std::string metrics_json;
  if (args.trace) {
    std::vector<Metric> traced_e2e =
        EndToEnd(args.workload, setup_median, traced);
    std::printf("# tracing overhead (the same %ld items, untraced vs "
                "traced):\n", plain.attempted);
    for (size_t i = 0; i < e2e.size(); ++i) {
      if (e2e[i].name == "setup_s" || e2e[i].name == "peak_rss_mb") continue;
      double d = e2e[i].value != 0
                     ? 100.0 * (traced_e2e[i].value - e2e[i].value) /
                           e2e[i].value
                     : 0.0;
      std::printf("# overhead %-16s untraced %12.4f  traced %12.4f %-8s "
                  "%+6.1f%%\n",
                  e2e[i].name.c_str(), e2e[i].value, traced_e2e[i].value,
                  e2e[i].unit.c_str(), d);
    }
    const auto* camp = dynamic_cast<const CampaignWorkload*>(w.get());
    PrintLayerTable(args.workload, *tracer, w->root_name(), traced,
                    camp ? camp->generate_ms() : std::vector<double>{});
    if (!Reconcile(*tracer, w->root_name())) {
      ++attempted;
      ++failed;
      std::printf("# FAILED reconcile: the %s roots are not covered by their "
                  "children\n", w->root_name());
    }
    std::vector<Metric> layers = PerLayer(args.workload, *tracer, traced);
    for (const Metric& m : layers) {
      std::printf("layer  %-38s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    metrics_json = MetricsJson(layers, layers.size());
    if (!args.trace_out.empty() &&
        !tracer->WriteChromeJson(args.trace_out, machine)) {
      std::fprintf(stderr, "ldr_bench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    if (!args.trace_out.empty()) {
      std::printf("# trace %s (%zu spans)\n", args.trace_out.c_str(),
                  tracer->spans().size());
    }
  } else {
    metrics_json = MetricsJson(e2e, kJsonEndToEnd);
  }

  bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json.c_str());
  return correct ? 0 : 1;
}
