// A from-scratch linear-program solver with incremental re-solve support.
//
// The paper relies on an LP solver in three places: the Fig. 12 latency
// optimization at LDR's core, the MinMax traffic-engineering baselines, and
// the locality extension of the gravity traffic-matrix model (§3, footnote
// 3). No solver is available offline, so this module implements a
// *bounded-variable* revised simplex:
//
//   minimize    c^T x
//   subject to  row_i: a_i^T x (<= | >= | =) b_i     for each row
//               lo_j <= x_j <= hi_j                  for each variable
//
// Bounds may be infinite on either side. Phase 1 uses the composite
// (artificial-free) objective — the sum of bound violations of basic
// variables — and phase 2 the real objective. Both price entering columns
// partially (a bounded candidate list refreshed by rotating sweeps, with a
// full sweep only to prove optimality) and fall back to Bland's rule after a
// run of degenerate pivots, which guarantees termination. A previously
// optimal basis that bound or rhs repair left primal infeasible re-enters
// through dual simplex instead of phase 1.
//
// Two entry points:
//
//   * Solve(problem): one-shot solve of an immutable Problem description.
//   * Solver: a long-lived object that keeps its factorized basis and bound
//     state alive across calls.
//
// Storage contract: the solver holds the *sparse original* columns A_j plus
// a sparse LU factorization of the basis matrix B itself — never an explicit
// B^-1, and never a working tableau B^-1·A. The factorization is a
// Markowitz-ordered elimination PB = LU kept as compact row-operation (L)
// and row-of-U arrays, plus a bounded *update file* of product-form
// operations appended between refactorizations: one eta per simplex pivot
// (the FTRAN-ed entering column, Forrest–Tomlin style) and one row-extension
// per AddRow (the bordered [[B,0],[wᵀ,1]] growth). FTRAN (B·x = a, the
// entering column) and BTRAN (Bᵀ·y = c, dual maintenance and the post-pivot
// inverse-row read) are sparse triangular solves through L, U and a replay
// of the file — ~O(nnz(L+U) + nnz(file)) per solve. Pricing runs off
// incrementally maintained duals: a structural column is only ever FTRAN-ed
// when it enters. Refactorization rebuilds L and U from the exact sparse
// basis columns with Markowitz pivoting (threshold-stability guarded,
// singular bases repaired by slack substitution), clears the file, and is
// triggered by `refactor_interval`, by the update file outgrowing its bound,
// or forced by numerical recovery — so both drift *and* update-file memory
// stay bounded. The structural deltas the Fig. 13 path-growth loop needs
// stay cheap: AddColumn is O(1) (the new column rests nonbasic), AddRow
// appends one file op, AddToRow/SetRhs cost one FTRAN. Solve() warm-starts
// from the previous optimal basis (typically a handful of pivots instead of
// a full cold solve).
//
// Every optimal answer carries its row duals, so CheckOptimality can certify
// it against the original problem data alone — without trusting the
// factorization that produced it.
#ifndef LDR_LP_LP_H_
#define LDR_LP_LP_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ldr::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class RowType { kLe, kGe, kEq };

enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit, kDeadline };

std::string ToString(Status s);

// A sparse constraint row.
struct Row {
  RowType type = RowType::kLe;
  double rhs = 0;
  std::vector<std::pair<int, double>> coeffs;  // (variable index, coefficient)
};

// Incrementally built LP. Variables are referenced by the dense index that
// AddVariable returns.
class Problem {
 public:
  // Adds a variable with bounds [lo, hi] and objective coefficient `obj`
  // (minimization). Returns the variable's index.
  int AddVariable(double lo, double hi, double obj);

  // Adds `delta` to an existing variable's objective coefficient.
  void AddToObjective(int var, double delta) { obj_[static_cast<size_t>(var)] += delta; }

  // Adds a constraint row; coefficients with repeated variable indices are
  // summed.
  void AddRow(RowType type, double rhs,
              std::vector<std::pair<int, double>> coeffs);

  size_t VariableCount() const { return obj_.size(); }
  size_t RowCount() const { return rows_.size(); }

  const std::vector<double>& objective() const { return obj_; }
  const std::vector<double>& lower_bounds() const { return lo_; }
  const std::vector<double>& upper_bounds() const { return hi_; }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<double> obj_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<Row> rows_;
};

// Partial pricing schedule. Reduced costs are computed from incrementally
// maintained dual values y = c_B^T B^-1 (phase 2) or the phase-1
// subgradient duals, priced lazily against the *sparse original* column as
// c_j - y^T A_j. A bounded candidate list is re-priced each iteration; when
// it runs dry, rotating partial sweeps refresh it, escalating to a full
// sweep only to prove optimality — O(list * nnz) columns priced per
// iteration instead of all n + m.
struct PricingOptions {
  // Candidate-list capacity. 0 means automatic: clamp(n/16, 8, 64).
  int candidate_list = 0;
  // Columns scanned per partial refresh sweep before checking whether the
  // sweep found anything. 0 means automatic: max(128, (n + m) / 8).
  int sweep = 0;
};

// Update-file bounds of the sparse LU basis (see the storage contract
// above): mid-solve refactorization triggers, disabled together with the
// drift guard by refactor_interval < 0. 0 means automatic: max(64, rows / 2)
// ops / max(1024, 8 * nnz(L+U)) entries.
struct BasisOptions {
  int max_file_ops = 0;
  long max_file_entries = 0;
};

struct SolveOptions {
  double tol = 1e-7;
  // 0 means automatic: 200 + 40 * (rows + variables).
  int max_iters = 0;
  PricingOptions pricing;
  BasisOptions basis;
  // Periodic refactorization for long-lived solvers (controller epochs):
  // once this many incremental updates — pivots plus structural mutations
  // folded into the factorization — have accumulated since the last exact
  // factorization, the next Solve() refactorizes the recorded basis from the
  // exact sparse columns before optimizing, bounding floating-point drift.
  // 0 means max(256, 8 * rows). Negative disables the guard (and the
  // update-file bounds of BasisOptions with it).
  int refactor_interval = 0;
  // Wall-clock budget for one Solve() call, in milliseconds. Checked on
  // entry (before any refactorization) and at every simplex iteration, so a
  // 0 deadline returns Status::kDeadline promptly and a positive one stops
  // within one iteration of expiring. The check runs between pivots — the
  // basis is left consistent and the solver stays usable (warm re-entry or
  // forced refactorization both work afterwards). Negative disables the
  // deadline. This is the controller's per-epoch decision guard: a solve
  // that would blow the epoch budget surfaces as kDeadline and the caller
  // walks the fallback ladder instead of stalling the epoch.
  double deadline_ms = -1;
};

struct Solution {
  Status status = Status::kInfeasible;
  double objective = 0;
  std::vector<double> values;  // one per variable; empty unless optimal
  // Row duals y = c_B^T B^-1, one per row; empty unless optimal. With the
  // slack of row i entering a_i^T x + s_i = b_i, the reduced cost of
  // variable j is c_j - sum_i y_i a_ij; at the optimum y_i <= 0 on binding
  // kLe rows, y_i >= 0 on binding kGe rows, and y_i = 0 on slack rows.
  // These are the phase-2 duals the final optimality sweep priced against.
  std::vector<double> duals;
  int iterations = 0;
  // Pricing telemetry: nonbasic columns whose reduced cost was evaluated
  // over the whole solve (candidate re-pricing + refresh sweeps + optimality
  // sweeps). columns_priced / iterations is the per-iteration pricing load
  // the partial mode exists to shrink.
  long columns_priced = 0;
  // Pivots that hit a numerically-zero pivot element and recovered by forced
  // refactorization instead of corrupting the basis.
  int pivot_recoveries = 0;
  // Revised-simplex work/memory telemetry:
  // Resident bytes of the factorized state at the end of the solve — the
  // L/U arrays plus the update file.
  size_t basis_bytes = 0;
  // Total sparse input nonzeros fed through FTRAN (entering-column solves
  // B^-1·A_j) over the whole solve.
  long ftran_nnz = 0;
  // Basis-changing pivots over the solve: simplex basis changes (iterations
  // minus bound flips). Each costs one eta append + one BTRAN.
  int pivots = 0;
  // LU-factorization telemetry:
  // Stored nonzeros in L + U (pivots included) after the last sparse
  // refactorization.
  long lu_nnz = 0;
  // Update-file operations (etas + row extensions) resident when the solve
  // returned — bounded by the eta-file refactorization triggers.
  int eta_count = 0;
  // lu_nnz / nnz(B) at the last sparse refactorization: the Markowitz
  // fill-in factor (1.0 = no fill).
  double fill_ratio = 0;
  // Full refactorizations performed during this solve (interval/drift
  // triggers, eta-file bounds, and numerical recoveries).
  int refactorizations = 0;
  // Dual-simplex pivots run while repairing a primal-infeasible warm basis
  // (0 for every primal-only solve).
  int dual_pivots = 0;
  // Boxed nonbasic variables flipped bound-to-bound over the solve: primal
  // ratio-test flips plus the dual long-step flips.
  int bound_flips = 0;
  // True when this solve entered the dual-simplex warm restart instead of
  // primal phase 1: a previously optimal basis that bound/rhs repair left
  // primal infeasible but still dual feasible (checked by one pricing
  // sweep; a loss of dual feasibility or progress falls back to primal).
  bool warm_restart = false;

  bool ok() const { return status == Status::kOptimal; }
};

// A reusable simplex instance. The problem is grown in place through the
// mutation calls below; every Solve() re-optimizes warm from the basis the
// previous Solve() ended in. Mutations keep the factorization alive where
// they can (new columns join nonbasic without touching B^-1; new rows
// extend the basis with their own slack); the ones that would invalidate it
// (touching a basic variable's constraint coefficients) just mark the basis
// for refactorization at the next Solve().
class Solver {
 public:
  explicit Solver(const SolveOptions& options = {});
  // Loads an existing Problem description (equivalent to replaying its
  // variables and rows through AddColumn/AddRow).
  explicit Solver(const Problem& p, const SolveOptions& options = {});
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;

  // Adds a variable with no constraint coefficients yet. Returns its index.
  int AddVariable(double lo, double hi, double obj);

  // Adds a variable together with its coefficients in *existing* rows
  // ((row index, coefficient) pairs; duplicates are summed). The new column
  // enters nonbasic at its bound nearest zero, so a previously optimal basis
  // stays primal feasible — this is the warm path the Fig. 13 loop hits when
  // it appends path columns. O(1) beyond storing the sparse column: with no
  // working tableau there is nothing to price the column into (an FTRAN runs
  // only if the resting bound is nonzero, to adjust the basic values).
  int AddColumn(double lo, double hi, double obj,
                const std::vector<std::pair<int, double>>& row_coeffs);

  // Adds a constraint row over existing variables ((variable index,
  // coefficient) pairs; duplicates are summed). Returns the row's index.
  // The row's slack joins the basis, so no refactorization is needed.
  int AddRow(RowType type, double rhs,
             const std::vector<std::pair<int, double>>& coeffs);

  // Adds `delta` to an existing row's coefficient on an existing variable.
  // Cheap while `var` is nonbasic; marks the basis for refactorization
  // otherwise.
  void AddToRow(int row, int var, double delta);

  // Replaces a row's right-hand side.
  void SetRhs(int row, double rhs);
  // Bulk rhs repair: each (row, rhs) entry replaces that row's right-hand
  // side in place, pushing the deltas into the basic values — the
  // capacity-row half of a topology repair. Equivalent to the single-row
  // form per entry; the basis is preserved throughout.
  void SetRhs(const std::vector<std::pair<int, double>>& rows);
  double rhs(int row) const;

  // Overwrites a variable's bounds in place, preserving the basis. A
  // nonbasic variable is re-rested at the finite bound nearest its previous
  // value and the shift is pushed into the basic values (one FTRAN); a
  // basic one just takes the new bounds — a violation this creates is
  // repaired by the next Solve() (dual simplex from a previously optimal
  // basis, primal phase 1 otherwise).
  void SetBounds(int var, double lo, double hi);

  // Fixes a variable at `value` (lo = hi = value) without touching the
  // basis — SetBounds sugar, and the topology-repair entry point: path
  // variables crossing a failed link get fixed to zero in place of an LP
  // rebuild.
  void FixVariable(int var, double value);

  // Adds `delta` to a variable's objective coefficient.
  void AddToObjective(int var, double delta);

  size_t VariableCount() const;
  size_t RowCount() const;

  // Re-optimizes from the current basis (two-phase; phase 1 only runs when
  // the warm basis is primal infeasible, e.g. after SetRhs).
  Solution Solve();

  // Drops the factorization; the next Solve() refactorizes the current
  // basis (a fresh Markowitz LU) from the sparse columns. Exposed for tests.
  void Invalidate();

  // The LP this solver currently holds — variables, bounds, objective and
  // rows, after every mutation so far — rebuilt from the sparse original
  // data, never from the factorization. O(nnz); what CheckOptimality
  // certifies a Solve() answer against.
  Problem Snapshot() const;

 private:
  class Impl;
  Impl* impl_;
};

Solution Solve(const Problem& problem, const SolveOptions& options = {});

// Independent optimality certificate for an lp::Solution, computed from
// the original problem data alone (objective, bounds, row types, rhs and
// coefficients) plus Solution::values and Solution::duals — never from a
// factorization, so it cannot share a bug with the solver that produced the
// answer. O(nnz). Checks, with every residual scaled by the magnitudes that
// produced it:
//   - primal feasibility: every bound and every row holds;
//   - dual feasibility: each variable's reduced cost has the sign its
//     position allows (>= 0 at a lower bound, <= 0 at an upper bound, 0
//     strictly between or free), and each row dual the sign its row type
//     allows (<= 0 for kLe, >= 0 for kGe);
//   - complementary slackness: a row with slack has a zero dual;
//   - strong duality: the primal objective equals the dual objective.
struct Certificate {
  bool ok = false;
  // Largest scaled violation found in each class (0 when all hold).
  double primal_residual = 0;
  double dual_residual = 0;
  double complementarity = 0;
  double gap = 0;
  // The first failed condition, human readable; empty when ok.
  std::string failure;
};

Certificate CheckOptimality(const Problem& problem, const Solution& solution,
                            double tol = 1e-6);

}  // namespace ldr::lp

#endif  // LDR_LP_LP_H_
