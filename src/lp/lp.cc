#include "lp/lp.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/failpoint.h"

namespace ldr::lp {

std::string ToString(Status s) {
  switch (s) {
    case Status::kOptimal:
      return "optimal";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kUnbounded:
      return "unbounded";
    case Status::kIterLimit:
      return "iteration-limit";
    case Status::kDeadline:
      return "deadline";
  }
  return "?";
}

int Problem::AddVariable(double lo, double hi, double obj) {
  obj_.push_back(obj);
  lo_.push_back(lo);
  hi_.push_back(hi);
  return static_cast<int>(obj_.size() - 1);
}

void Problem::AddRow(RowType type, double rhs,
                     std::vector<std::pair<int, double>> coeffs) {
  Row r;
  r.type = type;
  r.rhs = rhs;
  r.coeffs = std::move(coeffs);
  rows_.push_back(std::move(r));
}

namespace {

enum class VarState : uint8_t { kBasic, kAtLower, kAtUpper, kFree };

// Sums duplicate indices in a sparse (index, coefficient) list, in place.
void SumDuplicates(std::vector<std::pair<int, double>>* coeffs) {
  if (coeffs->size() < 2) return;
  std::sort(coeffs->begin(), coeffs->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t w = 0;
  for (size_t i = 1; i < coeffs->size(); ++i) {
    if ((*coeffs)[i].first == (*coeffs)[w].first) {
      (*coeffs)[w].second += (*coeffs)[i].second;
    } else {
      (*coeffs)[++w] = (*coeffs)[i];
    }
  }
  coeffs->resize(w + 1);
}

}  // namespace

// Column refs: a variable is identified by an int ref — structural j as j,
// the slack of row k as ~k (= -k-1). Basis positions and constraint rows are
// identified 1:1 throughout: basis_[i] is the ref basic "in row i", and an
// FTRAN result ftran_[i] is the entering column's coefficient on that ref.
//
// Factorized storage: B itself is factorized, PB = LU via Markowitz
// elimination (prow_/pcol_/upiv_ record the pivot sequence, l_* the row
// operations of L, u_* the rows of U), plus the update file file_/file_ent_
// of product-form ops appended between refactorizations — one kEta per
// pivot (the FTRAN-ed entering column) and one kRowExt per AddRow (the
// bordered [[B,0],[wᵀ,1]] extension). FTRAN and BTRAN are sparse triangular
// solves through L, U and an in-order (reverse-order for BTRAN) replay of
// the file; nothing dense is ever formed.
//
// Structural tableau columns are never materialized — the entering column
// B^-1·A_j is computed on demand into the ftran_ scratch, and pricing, the
// ratio test and the mutations read either the duals, ftran_, or the
// factorization.
class Solver::Impl {
 public:
  explicit Impl(const SolveOptions& opt) : opt_(opt) {}

  int AddVariable(double lo, double hi, double obj) {
    return AddColumn(lo, hi, obj, {});
  }

  int AddColumn(double lo, double hi, double obj,
                const std::vector<std::pair<int, double>>& row_coeffs) {
    int j = static_cast<int>(n_);
    ++n_;
    acol_.emplace_back(row_coeffs);
    SumDuplicates(&acol_.back());
    lo_.push_back(lo);
    hi_.push_back(hi);
    cost_.push_back(obj);
    vrow_.push_back(-1);

    // The new column rests nonbasic at its bound nearest zero (or 0 if
    // free) — the previous basis stays a basis, and stays primal feasible
    // whenever that resting value is 0.
    VarState st;
    double v;
    if (std::isfinite(lo) && (!std::isfinite(hi) || std::abs(lo) <= std::abs(hi))) {
      st = VarState::kAtLower;
      v = lo;
    } else if (std::isfinite(hi)) {
      st = VarState::kAtUpper;
      v = hi;
    } else {
      st = VarState::kFree;
      v = 0.0;
    }
    vstate_.push_back(st);
    value_.push_back(v);

    // No tableau column to price in: the column joins nonbasic, so the only
    // factorized state it can touch is the basic values, and only when it
    // rests at a nonzero bound (never the case for Fig. 13 path columns,
    // which rest at 0 — that path is O(1) beyond storing the sparse column).
    if (factor_valid_ && v != 0.0) {  // NOLINT(ldr-float-eq): exact sparsity test on a stored coefficient
      ++updates_since_refactor_;
      Ftran(j);
      for (size_t i = 0; i < m_; ++i) xb_[i] -= ftran_[i] * v;
    }
    return j;
  }

  int AddRow(RowType type, double rhs,
             const std::vector<std::pair<int, double>>& coeffs) {
    int r = static_cast<int>(m_);
    ++m_;
    row_type_.push_back(type);
    rhs_.push_back(rhs);
    std::vector<std::pair<int, double>> summed = coeffs;
    SumDuplicates(&summed);
    for (const auto& [var, c] : summed) {
      AppendToSparse(&acol_[static_cast<size_t>(var)], r, c);
    }

    if (factor_valid_) {
      ++updates_since_refactor_;
      // New basis row: with the new slack joining the basis, the extended
      // basis is the bordered B' = [[B, 0], [w^T, 1]] where w_i is the new
      // row's coefficient on the variable basic in position i. Record it as
      // one update-file op holding the sparse w; FTRAN/BTRAN replay it in
      // O(|w|). The factorization itself is untouched.
      FileOp op;
      op.kind = FileOp::kRowExt;
      op.pos = r;
      op.pivot = 1.0;
      op.start = static_cast<int>(file_ent_.size());
      for (const auto& [var, c] : summed) {
        int br = vrow_[static_cast<size_t>(var)];
        if (br >= 0) file_ent_.emplace_back(br, c);
      }
      op.end = static_cast<int>(file_ent_.size());
      file_.push_back(op);

      // The slack's basic value is the row's residual at the current point.
      double residual = rhs;
      for (const auto& [var, c] : summed) {
        size_t v = static_cast<size_t>(var);
        double x = vrow_[v] >= 0 ? xb_[static_cast<size_t>(vrow_[v])] : value_[v];
        residual -= c * x;
      }
      xb_.push_back(residual);
    } else {
      xb_.push_back(0.0);
    }

    basis_.push_back(~r);
    sstate_.push_back(VarState::kBasic);
    srow_.push_back(r);
    return r;
  }

  void AddToRow(int row, int var, double delta) {
    if (delta == 0) return;
    size_t v = static_cast<size_t>(var);
    AppendToSparse(&acol_[v], row, delta);
    if (!factor_valid_) return;
    if (vrow_[v] >= 0) {
      // Touching a basic column changes B itself; refactorize lazily.
      factor_valid_ = false;
      return;
    }
    // A nonbasic column has no factorized image to maintain; only the basic
    // values shift, and only when the column rests at a nonzero bound. The
    // shift direction is column B^-1·e_row: one slack FTRAN.
    double val = value_[v];
    if (val == 0.0) return;  // NOLINT(ldr-float-eq): exact sparsity test on a stored value
    ++updates_since_refactor_;
    Ftran(~row);
    for (size_t i = 0; i < m_; ++i) xb_[i] -= delta * ftran_[i] * val;
  }

  void SetRhs(int row, double rhs) {
    size_t r = static_cast<size_t>(row);
    double delta = rhs - rhs_[r];
    if (delta == 0) return;
    rhs_[r] = rhs;
    if (!factor_valid_) return;
    ++updates_since_refactor_;
    Ftran(~row);
    for (size_t i = 0; i < m_; ++i) xb_[i] += ftran_[i] * delta;
  }

  double rhs(int row) const { return rhs_[static_cast<size_t>(row)]; }

  void SetRhs(const std::vector<std::pair<int, double>>& rows) {
    for (const auto& [row, value] : rows) SetRhs(row, value);
  }

  // Basis-preserving bound repair. A basic variable only records the new
  // bounds — the next Solve() drives any violation out (dual restart or
  // primal phase 1). A nonbasic variable is re-rested on the finite bound
  // nearest its previous value and the basic values absorb the shift via
  // one FTRAN, exactly mirroring AddColumn's resting-value update.
  void SetBounds(int var, double lo, double hi) {
    size_t j = static_cast<size_t>(var);
    lo_[j] = lo;
    hi_[j] = hi;
    if (vrow_[j] >= 0) return;  // basic: Solve() repairs the violation
    double v_old = value_[j];
    double nv = 0.0;
    VarState ns = VarState::kFree;
    if (std::isfinite(lo) || std::isfinite(hi)) {
      if (!std::isfinite(hi) || (std::isfinite(lo) && v_old - lo <= hi - v_old)) {
        nv = lo;
        ns = VarState::kAtLower;
      } else {
        nv = hi;
        ns = VarState::kAtUpper;
      }
    }
    vstate_[j] = ns;
    value_[j] = nv;
    double shift = v_old - nv;
    if (factor_valid_ && shift != 0.0) {  // NOLINT(ldr-float-eq): exact no-op test on the resting-value delta
      ++updates_since_refactor_;
      Ftran(static_cast<int>(j));
      for (size_t i = 0; i < m_; ++i) xb_[i] += ftran_[i] * shift;
    }
  }

  void FixVariable(int var, double value) { SetBounds(var, value, value); }

  void AddToObjective(int var, double delta) {
    cost_[static_cast<size_t>(var)] += delta;
  }

  size_t VariableCount() const { return n_; }
  size_t RowCount() const { return m_; }

  void Invalidate() { factor_valid_ = false; }

  Solution Solve() {
    Solution sol = SolveImpl();
    sol.columns_priced = columns_priced_;
    sol.pivot_recoveries = pivot_recoveries_;
    sol.ftran_nnz = ftran_nnz_;
    sol.pivots = pivots_;
    sol.refactorizations = refactorizations_;
    sol.dual_pivots = dual_pivots_;
    sol.bound_flips = bound_flips_;
    sol.warm_restart = warm_restart_used_;
    // Resident factorized footprint: the L/U arrays, the pivot sequence,
    // and the update file — everything FTRAN/BTRAN touch.
    sol.basis_bytes = prow_.capacity() * sizeof(int) +
                      pcol_.capacity() * sizeof(int) +
                      upiv_.capacity() * sizeof(double) +
                      l_start_.capacity() * sizeof(int) +
                      l_dst_.capacity() * sizeof(int) +
                      l_mult_.capacity() * sizeof(double) +
                      u_start_.capacity() * sizeof(int) +
                      u_ent_.capacity() * sizeof(std::pair<int, double>) +
                      file_.capacity() * sizeof(FileOp) +
                      file_ent_.capacity() * sizeof(std::pair<int, double>);
    sol.lu_nnz = lu_nnz_;
    sol.eta_count = static_cast<int>(file_.size());
    sol.fill_ratio = lu_fill_base_ > 0
                         ? static_cast<double>(lu_nnz_) /
                               static_cast<double>(lu_fill_base_)
                         : 0.0;
    return sol;
  }

  Problem Snapshot() const {
    Problem p;
    for (size_t j = 0; j < n_; ++j) p.AddVariable(lo_[j], hi_[j], cost_[j]);
    std::vector<std::vector<std::pair<int, double>>> rows(m_);
    for (size_t j = 0; j < n_; ++j) {
      for (const auto& [r, c] : acol_[j]) {
        rows[static_cast<size_t>(r)].emplace_back(static_cast<int>(j), c);
      }
    }
    for (size_t i = 0; i < m_; ++i) {
      p.AddRow(row_type_[i], rhs_[i], std::move(rows[i]));
    }
    return p;
  }

 private:
  Solution SolveImpl() {
    Solution sol;
    iter_ = 0;
    columns_priced_ = 0;
    pivot_recoveries_ = 0;
    ftran_nnz_ = 0;
    pivots_ = 0;
    refactorizations_ = 0;
    dual_pivots_ = 0;
    bound_flips_ = 0;
    warm_restart_used_ = false;
    // Mutations between Solve() calls (AddColumn/AddRow/AddToRow/SetRhs/
    // AddToObjective) are not tracked against the duals; rebuilding them
    // lazily once per Solve (one BTRAN) is cheap and bounds inter-call
    // drift.
    y1_valid_ = false;
    y2_valid_ = false;
    int limit = opt_.max_iters > 0
                    ? opt_.max_iters
                    : 200 + 40 * static_cast<int>(m_ + n_);

    // Reject inconsistent bounds up-front.
    for (size_t j = 0; j < n_; ++j) {
      if (lo_[j] > hi_[j] + opt_.tol) {
        sol.status = Status::kInfeasible;
        return sol;
      }
    }

    // Fault site: the solve exhausts its iteration budget before doing any
    // work — the cheapest way to hand callers a kIterLimit they must not
    // consume as optimal.
    if (LDR_FAILPOINT("lp.iter_limit")) {
      sol.status = Status::kIterLimit;
      return sol;
    }

    // Wall-clock deadline: armed before the (potentially expensive)
    // refactorization so a 0 ms budget returns promptly. Re-checked between
    // pivots in Step(), never inside one — the basis stays consistent.
    deadline_hit_ = false;
    deadline_set_ = opt_.deadline_ms >= 0;
    if (deadline_set_) {
      deadline_at_ = Clock::now() +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             opt_.deadline_ms));
      if (DeadlineExceeded()) {
        sol.status = Status::kDeadline;
        return sol;
      }
    }

    // Periodic refactorization: every incremental update (pivot, appended
    // row, rhs shift) compounds error in the factorized state; a long-lived
    // controller-epoch solver can run thousands of them without ever
    // hitting the basic-AddToRow invalidation. Refactorize from the exact
    // sparse columns once enough drift-accumulating updates have passed.
    long refactor_after =
        opt_.refactor_interval > 0
            ? opt_.refactor_interval
            : std::max<long>(kMinAutoRefactorInterval,
                             8 * static_cast<long>(m_));
    // The update-file bound is otherwise only checked before a pivot, so
    // row extensions AddRow appended since the last solve are folded in
    // here too — a solve that barely pivots must not return above it.
    if (opt_.refactor_interval >= 0 &&
        (updates_since_refactor_ >= refactor_after ||
         (factor_valid_ && NeedsEtaRefactor()))) {
      factor_valid_ = false;
    }

    if (!factor_valid_) Refactorize();
    if (refactor_singular_) {
      // The recorded basis could not be re-established; any result would be
      // computed against a broken factorization. Report a numerical failure —
      // callers rebuild from scratch on !ok().
      sol.status = Status::kIterLimit;
      return sol;
    }

    // Dual-simplex warm restart: a basis that already certified optimality
    // once and is now primal-infeasible (bound/rhs repair after a topology
    // event) is usually still dual feasible — costs did not move. Repair it
    // with dual pivots (leaving row = worst bound violation, entering column
    // by the dual Harris ratio test over BTRAN(e_r)) instead of rebuilding
    // feasibility from primal phase 1. Any exit short of primal feasibility
    // (dual feasibility lost, numerical breakdown, stall) falls through to
    // the primal phase-1 loop below, whose Bland path is the anti-cycling
    // authority.
    if (ever_optimal_ && HasInfeasibleBasic()) {
      // Fault site: the warm basis reports dual feasibility lost, forcing
      // the primal phase-1 fallback path without constructing a genuinely
      // dual-infeasible basis.
      bool dual_ok = !LDR_FAILPOINT("lp.dual_infeasible");
      if (dual_ok) {
        if (!y2_valid_) RebuildPhase2Duals();
        dual_ok = DualFeasible();
      }
      if (dual_ok) {
        warm_restart_used_ = true;
        int stall = 0;
        double prev_infeas = kInfinity;
        while (iter_ < limit && stall <= kBlandThreshold) {
          int r = MostViolatedRow();
          if (r < 0) break;  // primal feasible: phase 2 certifies below
          StepResult dr = DualStep(static_cast<size_t>(r));
          if (dr == StepResult::kRecovered) {
            if (!y2_valid_) RebuildPhase2Duals();
            ++stall;
            continue;
          }
          if (dr != StepResult::kPivoted) break;
          double infeas = TotalInfeasibility();
          if (infeas < prev_infeas - 1e-12) {
            stall = 0;
          } else {
            ++stall;
          }
          prev_infeas = infeas;
        }
        if (deadline_hit_) {
          sol.status = Status::kDeadline;
          sol.iterations = iter_;
          return sol;
        }
      }
    }

    // Phase 1: drive bound violations of basic variables to zero. A warm
    // basis that is still primal feasible (the AddColumn path) skips this
    // loop entirely.
    int degenerate_run = 0;
    while (iter_ < limit) {
      if (!HasInfeasibleBasic()) break;
      EnsurePhase1Duals();
      if (!Iterate(/*phase1=*/true, &degenerate_run)) {
        sol.status =
            deadline_hit_ ? Status::kDeadline : Status::kInfeasible;
        sol.iterations = iter_;
        return sol;
      }
    }
    if (HasInfeasibleBasic()) {
      sol.status = iter_ >= limit ? Status::kIterLimit : Status::kInfeasible;
      sol.iterations = iter_;
      return sol;
    }

    // Phase 2: optimize the real objective.
    degenerate_run = 0;
    while (iter_ < limit) {
      if (!y2_valid_) RebuildPhase2Duals();
      int entering = 0;
      double d_enter = 0;
      bool found = ChooseEntering(/*phase1=*/false,
                                  degenerate_run >= kBlandThreshold, &entering,
                                  &d_enter);
      if (!found) {
        sol.status = Status::kOptimal;
        break;
      }
      StepResult r = Step(entering, d_enter, /*phase1=*/false, &degenerate_run);
      if (r == StepResult::kUnbounded) {
        sol.status = Status::kUnbounded;
        sol.iterations = iter_;
        return sol;
      }
      if (r == StepResult::kStuck) {
        // Numerical breakdown (recovery refactorization went singular) or
        // the wall-clock deadline expired between pivots: report failure —
        // callers rebuild from scratch or walk the fallback ladder on
        // !ok().
        sol.status = deadline_hit_ ? Status::kDeadline : Status::kIterLimit;
        sol.iterations = iter_;
        return sol;
      }
      // Feasibility must be preserved in phase 2; if numerics broke it,
      // re-enter phase 1 rather than returning garbage. This check also
      // covers kRecovered: a forced refactorization recomputes xb_ from the
      // exact columns (and may demote basics), which can surface bound
      // violations that must be repaired before optimality is declared.
      if (HasInfeasibleBasic()) {
        while (iter_ < limit && HasInfeasibleBasic()) {
          EnsurePhase1Duals();
          if (!Iterate(true, &degenerate_run)) {
            sol.status =
                deadline_hit_ ? Status::kDeadline : Status::kInfeasible;
            sol.iterations = iter_;
            return sol;
          }
        }
      }
    }
    if (iter_ >= limit && sol.status != Status::kOptimal) {
      sol.status = Status::kIterLimit;
      sol.iterations = iter_;
      return sol;
    }

    ever_optimal_ = true;
    // The phase-2 duals the final (empty) pricing sweep certified
    // optimality against — valid here, since that sweep rebuilt them if
    // anything had invalidated them.
    sol.duals = y2_;
    sol.values.assign(n_, 0.0);
    for (size_t j = 0; j < n_; ++j) {
      sol.values[j] =
          vrow_[j] >= 0 ? xb_[static_cast<size_t>(vrow_[j])] : value_[j];
    }
    sol.objective = 0;
    for (size_t j = 0; j < n_; ++j) sol.objective += cost_[j] * sol.values[j];
    sol.iterations = iter_;
    return sol;
  }

 private:
  static constexpr int kBlandThreshold = 60;
  static constexpr long kMinAutoRefactorInterval = 256;
  static constexpr double kMinPivot = 1e-12;
  // Ratio-test tie handling: the most any basic variable may be pushed past
  // its bound (in value, not step length) to let a larger pivot win a tie.
  static constexpr double kTieTol = 1e-9;

  enum class StepResult {
    kPivoted,
    kBoundFlip,
    kUnbounded,
    kStuck,
    // A numerically-zero pivot was detected and the basis refactorized from
    // the exact sparse columns; the caller must re-price and retry.
    kRecovered,
  };

  static void AppendToSparse(std::vector<std::pair<int, double>>* col, int row,
                             double delta) {
    for (auto& [r, c] : *col) {
      if (r == row) {
        c += delta;
        return;
      }
    }
    col->emplace_back(row, delta);
  }

  // Computes ftran_ = B^-1 · A(ref), the entering tableau column, from the
  // sparse original column: one sparse triangular solve through L, U and
  // the update file.
  void Ftran(int ref) {
    luw_.assign(m_, 0.0);
    if (ref < 0) {
      luw_[static_cast<size_t>(~ref)] = 1.0;
      ++ftran_nnz_;
    } else {
      const auto& col = acol_[static_cast<size_t>(ref)];
      ftran_nnz_ += static_cast<long>(col.size());
      for (const auto& [r, c] : col) luw_[static_cast<size_t>(r)] += c;
    }
    LuFtran(&luw_, &ftran_);
  }

  // --- sparse LU solves -----------------------------------------------------
  // The base factorization covers the m0_ rows/positions that existed at the
  // last refactorization: PB = LU with L stored as the elimination's row
  // operations (step k subtracts multiples of pivot row prow_[k]) and U by
  // rows (u row k holds the pivot row's surviving entries in positions
  // eliminated at later steps; the pivot itself is upiv_[k] at position
  // pcol_[k]). Rows/positions appended since (AddRow) and every pivot since
  // live in the update file, replayed in order (FTRAN) or reverse order with
  // transposed ops (BTRAN). Positions >= m0_ pass through the base solves
  // untouched — a row extension's slack is basic at its own position until a
  // pivot (an eta in the file) says otherwise.

  // Solves B·x = a. Input *w is the dense row-space right-hand side (it is
  // consumed); output *x is position-space.
  void LuFtran(std::vector<double>* w, std::vector<double>* x) {
    const size_t m0 = m0_;
    double* wd = w->data();
    // Forward L: replay the elimination's row operations.
    for (size_t k = 0; k < m0; ++k) {
      double wk = wd[static_cast<size_t>(prow_[k])];
      if (wk == 0.0) continue;  // NOLINT(ldr-float-eq): skip exact structural zeros during FTRAN
      for (int t = l_start_[k]; t < l_start_[k + 1]; ++t) {
        wd[static_cast<size_t>(l_dst_[static_cast<size_t>(t)])] -=
            l_mult_[static_cast<size_t>(t)] * wk;
      }
    }
    // Backward U: x[pcol[k]] closes once every later-eliminated position is
    // known.
    x->assign(m_, 0.0);
    double* xd = x->data();
    for (size_t kk = m0; kk-- > 0;) {
      double acc = wd[static_cast<size_t>(prow_[kk])];
      for (int t = u_start_[kk]; t < u_start_[kk + 1]; ++t) {
        const auto& e = u_ent_[static_cast<size_t>(t)];
        acc -= e.second * xd[static_cast<size_t>(e.first)];
      }
      xd[static_cast<size_t>(pcol_[kk])] = acc / upiv_[kk];
    }
    for (size_t p = m0; p < m_; ++p) xd[p] = wd[p];
    // Replay the update file in order.
    for (const FileOp& op : file_) {
      size_t r = static_cast<size_t>(op.pos);
      if (op.kind == FileOp::kEta) {
        double xr = xd[r] / op.pivot;
        if (xr != 0.0) {  // NOLINT(ldr-float-eq): skip exact structural zeros in the eta file
          for (int t = op.start; t < op.end; ++t) {
            const auto& e = file_ent_[static_cast<size_t>(t)];
            xd[static_cast<size_t>(e.first)] -= e.second * xr;
          }
        }
        xd[r] = xr;
      } else {
        double acc = xd[r];
        for (int t = op.start; t < op.end; ++t) {
          const auto& e = file_ent_[static_cast<size_t>(t)];
          acc -= e.second * xd[static_cast<size_t>(e.first)];
        }
        xd[r] = acc;
      }
    }
  }

  // Solves B^T·y = c. Input *c is the dense position-space right-hand side
  // (it is consumed); output *y is row-space — exactly the layout the dual
  // vectors use (indexed by row, priced against original columns).
  void LuBtran(std::vector<double>* c, std::vector<double>* y) {
    double* cd = c->data();
    // Reverse file replay with transposed ops.
    for (size_t f = file_.size(); f-- > 0;) {
      const FileOp& op = file_[f];
      size_t r = static_cast<size_t>(op.pos);
      if (op.kind == FileOp::kEta) {
        double s = cd[r];
        for (int t = op.start; t < op.end; ++t) {
          const auto& e = file_ent_[static_cast<size_t>(t)];
          s -= e.second * cd[static_cast<size_t>(e.first)];
        }
        cd[r] = s / op.pivot;
      } else {
        double cp = cd[r];
        if (cp != 0.0) {  // NOLINT(ldr-float-eq): skip exact structural zeros in the eta file
          for (int t = op.start; t < op.end; ++t) {
            const auto& e = file_ent_[static_cast<size_t>(t)];
            cd[static_cast<size_t>(e.first)] -= e.second * cp;
          }
        }
      }
    }
    const size_t m0 = m0_;
    y->assign(m_, 0.0);
    double* yd = y->data();
    // U^T: lower-triangular in elimination order; the accumulator carries
    // each solved step's contribution forward to the positions its U row
    // touches.
    luacc_.assign(m_, 0.0);
    double* ad = luacc_.data();
    for (size_t k = 0; k < m0; ++k) {
      size_t pc = static_cast<size_t>(pcol_[k]);
      double tk = (cd[pc] - ad[pc]) / upiv_[k];
      yd[static_cast<size_t>(prow_[k])] = tk;
      if (tk != 0.0) {  // NOLINT(ldr-float-eq): skip exact structural zeros during BTRAN
        for (int t = u_start_[k]; t < u_start_[k + 1]; ++t) {
          const auto& e = u_ent_[static_cast<size_t>(t)];
          ad[static_cast<size_t>(e.first)] += e.second * tk;
        }
      }
    }
    // L^T: the row operations transposed, in reverse step order.
    for (size_t kk = m0; kk-- > 0;) {
      double s = 0.0;
      for (int t = l_start_[kk]; t < l_start_[kk + 1]; ++t) {
        s += l_mult_[static_cast<size_t>(t)] *
             yd[static_cast<size_t>(l_dst_[static_cast<size_t>(t)])];
      }
      yd[static_cast<size_t>(prow_[kk])] -= s;
    }
    for (size_t r = m0; r < m_; ++r) yd[r] = cd[r];
  }

  // Fills rho_ with row r of the *current* B^-1 — the vector the per-pivot
  // dual update multiplies (y += d · rho): BTRAN(e_r), since (B^-T e_r)[k] =
  // (B^-1)[r][k].
  void ComputeInverseRow(size_t r) {
    lub_.assign(m_, 0.0);
    lub_[r] = 1.0;
    LuBtran(&lub_, &rho_);
  }

  double LoOf(int ref) const {
    if (ref >= 0) return lo_[static_cast<size_t>(ref)];
    switch (row_type_[static_cast<size_t>(~ref)]) {
      case RowType::kLe:
        return 0;
      case RowType::kGe:
        return -kInfinity;
      case RowType::kEq:
        return 0;
    }
    return 0;
  }
  double HiOf(int ref) const {
    if (ref >= 0) return hi_[static_cast<size_t>(ref)];
    switch (row_type_[static_cast<size_t>(~ref)]) {
      case RowType::kLe:
        return kInfinity;
      case RowType::kGe:
        return 0;
      case RowType::kEq:
        return 0;
    }
    return 0;
  }
  double CostOf(int ref) const {
    return ref >= 0 ? cost_[static_cast<size_t>(ref)] : 0.0;
  }
  // Nonbasic slacks always rest at 0: each slack has exactly one finite
  // bound (two only for kEq, where both are 0), and that bound is 0.
  double ValueOf(int ref) const {
    return ref >= 0 ? value_[static_cast<size_t>(ref)] : 0.0;
  }
  VarState& StateOf(int ref) {
    return ref >= 0 ? vstate_[static_cast<size_t>(ref)]
                    : sstate_[static_cast<size_t>(~ref)];
  }
  int& BasicRowOf(int ref) {
    return ref >= 0 ? vrow_[static_cast<size_t>(ref)]
                    : srow_[static_cast<size_t>(~ref)];
  }
  int BasicRowOf(int ref) const {
    return ref >= 0 ? vrow_[static_cast<size_t>(ref)]
                    : srow_[static_cast<size_t>(~ref)];
  }
  bool IsBasic(int ref) const { return BasicRowOf(ref) >= 0; }
  // Scan position -> column ref, in the fixed structural-then-slack order
  // the pricing sweeps (and Bland's rule) walk.
  int RefAt(size_t p) const {
    return p < n_ ? static_cast<int>(p) : ~static_cast<int>(p - n_);
  }
  // Inverse of RefAt: a column ref's position in that scan order.
  size_t ScanPos(int ref) const {
    return ref >= 0 ? static_cast<size_t>(ref)
                    : n_ + static_cast<size_t>(~ref);
  }

  // A basic variable counts as infeasible when it violates a bound by more
  // than a relative tolerance. The same predicate drives the phase-1 loop
  // condition and the phase-1 gradient, so the two can never disagree.
  bool BasicViolated(size_t row) const {
    int b = basis_[row];
    double lo = LoOf(b), hi = HiOf(b);
    double t = opt_.tol * (1.0 + std::abs(xb_[row]));
    return xb_[row] < lo - t || xb_[row] > hi + t;
  }

  bool HasInfeasibleBasic() const {
    for (size_t i = 0; i < m_; ++i) {
      if (BasicViolated(i)) return true;
    }
    return false;
  }

  // Dual-simplex leaving rule: the basic variable with the largest bound
  // violation (same relative tolerance as BasicViolated). -1 when the basis
  // is primal feasible.
  int MostViolatedRow() const {
    int best = -1;
    double worst = 0.0;
    for (size_t i = 0; i < m_; ++i) {
      int b = basis_[i];
      double lo = LoOf(b), hi = HiOf(b);
      double t = opt_.tol * (1.0 + std::abs(xb_[i]));
      double v = 0.0;
      if (xb_[i] < lo - t) {
        v = lo - xb_[i];
      } else if (xb_[i] > hi + t) {
        v = xb_[i] - hi;
      } else {
        continue;
      }
      if (v > worst) {
        worst = v;
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  // Raw (tolerance-free) total primal infeasibility — the monotonicity
  // witness for the dual loop's stall counter.
  double TotalInfeasibility() const {
    double sum = 0.0;
    for (size_t i = 0; i < m_; ++i) {
      int b = basis_[i];
      double lo = LoOf(b), hi = HiOf(b);
      if (xb_[i] < lo) {
        sum += lo - xb_[i];
      } else if (xb_[i] > hi) {
        sum += xb_[i] - hi;
      }
    }
    return sum;
  }

  // Dual feasibility is exactly the phase-2 optimality condition on the
  // nonbasic reduced costs: no nonbasic column has an improving
  // EnteringScore. Requires valid y2_.
  bool DualFeasible() {
    for (size_t p = 0; p < n_ + m_; ++p) {
      int ref = RefAt(p);
      if (BasicRowOf(ref) >= 0) continue;
      double d = ReducedCost(/*phase1=*/false, ref);
      if (EnteringScore(ref, d) > opt_.tol) return false;
    }
    return true;
  }

  // --- dual values -----------------------------------------------------------
  // Pricing never materializes tableau columns. Instead the solver
  // maintains dual vectors against which any column prices sparsely:
  //
  //   phase 2:  y2 = c_B^T B^-1, so d_j = c_j - y2^T A_j
  //   phase 1:  y1 = g^T B^-1 where g is the per-row subgradient of total
  //             bound infeasibility (+-1 on violated rows), so d_j = -y1^T A_j
  //
  // Both are rebuilt with one BTRAN of the basic costs (subgradient), and
  // updated per pivot with y += d_enter * (row r of the new B^-1) — the
  // standard revised-simplex dual update; for y1 the blocking row's
  // subgradient change cancels against the basis change, so the same one-line
  // update is exact as long as no *other* row's violation state flips. Since
  // that can only happen through tolerance-edge landings, phase 1 re-scans the
  // subgradient each iteration (O(m), already paid by the feasibility check)
  // and rebuilds y1 only when the scan disagrees with the cached g1_.

  // y2 = B^-T c_B: one BTRAN of the basic-cost vector.
  void RebuildPhase2Duals() {
    lub_.assign(m_, 0.0);
    for (size_t i = 0; i < m_; ++i) lub_[i] = CostOf(basis_[i]);
    LuBtran(&lub_, &y2_);
    y2_valid_ = true;
  }

  // y1 = B^-T g: one BTRAN of the infeasibility subgradient.
  void RebuildPhase1Duals() {
    g1_.assign(m_, 0);
    lub_.assign(m_, 0.0);
    for (size_t i = 0; i < m_; ++i) {
      if (!BasicViolated(i)) continue;
      int8_t g = xb_[i] < LoOf(basis_[i]) ? -1 : 1;
      g1_[i] = g;
      lub_[i] = g;
    }
    LuBtran(&lub_, &y1_);
    y1_valid_ = true;
  }

  void EnsurePhase1Duals() {
    bool dirty = !y1_valid_ || g1_.size() != m_;
    if (!dirty) {
      for (size_t i = 0; i < m_; ++i) {
        int8_t g = 0;
        if (BasicViolated(i)) g = xb_[i] < LoOf(basis_[i]) ? -1 : 1;
        if (g != g1_[i]) {
          dirty = true;
          break;
        }
      }
    }
    if (dirty) RebuildPhase1Duals();
  }

  // Reduced cost of one nonbasic ref against the *sparse original* column
  // (a slack's column is e_k): O(nnz) per column, independent of m.
  double ReducedCost(bool phase1, int ref) {
    ++columns_priced_;
    if (phase1) {
      if (ref < 0) return -y1_[static_cast<size_t>(~ref)];
      double acc = 0;
      for (const auto& [r, c] : acol_[static_cast<size_t>(ref)]) {
        acc -= y1_[static_cast<size_t>(r)] * c;
      }
      return acc;
    }
    if (ref < 0) return -y2_[static_cast<size_t>(~ref)];
    double acc = cost_[static_cast<size_t>(ref)];
    for (const auto& [r, c] : acol_[static_cast<size_t>(ref)]) {
      acc -= y2_[static_cast<size_t>(r)] * c;
    }
    return acc;
  }

  // Scores one nonbasic ref for entering given its reduced cost; returns 0
  // if ineligible.
  double EnteringScore(int ref, double d) const {
    double lo = LoOf(ref), hi = HiOf(ref);
    if (lo == hi) return 0;  // fixed variable can never move
    VarState st = ref >= 0 ? vstate_[static_cast<size_t>(ref)]
                           : sstate_[static_cast<size_t>(~ref)];
    switch (st) {
      case VarState::kAtLower:
        return -d;
      case VarState::kAtUpper:
        return d;
      case VarState::kFree:
        return std::abs(d);
      default:
        return 0;
    }
  }

  size_t CandidateCap() const {
    if (opt_.pricing.candidate_list > 0) {
      return static_cast<size_t>(opt_.pricing.candidate_list);
    }
    return std::min<size_t>(64, std::max<size_t>(8, n_ / 16));
  }
  size_t SweepSize(size_t total) const {
    if (opt_.pricing.sweep > 0) return static_cast<size_t>(opt_.pricing.sweep);
    return std::max<size_t>(128, total / 8);
  }

  // Picks an entering variable; on success fills *entering and its exact
  // current reduced cost *d_enter.
  //
  //   bland     first eligible ref in fixed structural-then-slack order (the
  //             anti-cycling rule needs the global first, so it always does a
  //             full ordered scan).
  //   partial   re-price the candidate list (each O(nnz)); when it runs dry,
  //             refresh it with rotating partial sweeps, escalating window by
  //             window until something improves. Only a sweep that wraps the
  //             entire column space finding nothing declares optimality.
  bool ChooseEntering(bool phase1, bool bland, int* entering, double* d_enter) {
    const size_t total = n_ + m_;
    if (total == 0) return false;
    if (bland) {
      for (size_t p = 0; p < total; ++p) {
        int ref = RefAt(p);
        if (IsBasic(ref)) continue;
        double d = ReducedCost(phase1, ref);
        if (EnteringScore(ref, d) > opt_.tol) {
          *entering = ref;
          *d_enter = d;
          return true;
        }
      }
      return false;
    }

    // Partial pricing. 1: re-price the surviving candidates.
    bool found = false;
    double best = opt_.tol;
    size_t w = 0;
    for (int ref : cand_) {
      if (IsBasic(ref)) continue;  // entered the basis since; drop
      double d = ReducedCost(phase1, ref);
      double score = EnteringScore(ref, d);
      if (score <= opt_.tol) continue;  // no longer improving; drop
      cand_[w++] = ref;
      if (score > best) {
        best = score;
        *entering = ref;
        *d_enter = d;
        found = true;
      }
    }
    cand_.resize(w);
    if (found) return true;

    // 2: the list ran dry — refresh with rotating sweeps. fresh_ collects
    // (score, ref, d) so the best CandidateCap() survivors seed the list.
    const size_t sweep = SweepSize(total);
    fresh_.clear();
    size_t scanned = 0;
    if (sweep_pos_ >= total) sweep_pos_ = 0;
    while (scanned < total) {
      size_t chunk = std::min(sweep, total - scanned);
      for (size_t t = 0; t < chunk; ++t) {
        int ref = RefAt(sweep_pos_);
        sweep_pos_ = (sweep_pos_ + 1) % total;
        if (IsBasic(ref)) continue;
        double d = ReducedCost(phase1, ref);
        double score = EnteringScore(ref, d);
        if (score > opt_.tol) fresh_.push_back({score, ref, d});
      }
      scanned += chunk;
      if (!fresh_.empty()) break;
    }
    if (fresh_.empty()) return false;  // full wrap, nothing improving: optimal

    size_t cap = CandidateCap();
    if (fresh_.size() > cap) {
      std::partial_sort(fresh_.begin(), fresh_.begin() + static_cast<long>(cap),
                        fresh_.end(), [](const Fresh& a, const Fresh& b) {
                          return a.score > b.score;
                        });
      fresh_.resize(cap);
    }
    cand_.clear();
    const Fresh* top = &fresh_[0];
    for (const Fresh& f : fresh_) {
      cand_.push_back(f.ref);
      if (f.score > top->score) top = &f;
    }
    *entering = top->ref;
    *d_enter = top->d;
    return true;
  }

  bool Iterate(bool phase1, int* degenerate_run) {
    int entering = 0;
    double d_enter = 0;
    if (!ChooseEntering(phase1, *degenerate_run >= kBlandThreshold, &entering,
                        &d_enter)) {
      return false;  // stuck while still infeasible
    }
    StepResult r = Step(entering, d_enter, phase1, degenerate_run);
    if (r == StepResult::kUnbounded || r == StepResult::kStuck) return false;
    return true;
  }

  // Forrest–Tomlin-style product-form pivot on row r with the FTRAN-ed
  // entering column held in ftran_: append one eta op holding its nonzeros.
  // O(nnz(ftran_)) — nothing else in the factorization moves; the file is
  // re-absorbed into L/U at the next refactorization.
  //
  // Returns false — touching nothing — when the pivot element is numerically
  // zero (or NaN); callers recover by forcing a refactorization instead of
  // corrupting state.
  bool RawPivot(size_t r) {
    double pivot = ftran_[r];
    if (!(std::abs(pivot) > kMinPivot)) return false;
    ++updates_since_refactor_;
    ++pivots_;
    FileOp op;
    op.kind = FileOp::kEta;
    op.pos = static_cast<int>(r);
    op.pivot = pivot;
    op.start = static_cast<int>(file_ent_.size());
    for (size_t i = 0; i < m_; ++i) {
      if (i != r && ftran_[i] != 0.0) {  // NOLINT(ldr-float-eq): drop exact zeros when compressing the eta
        file_ent_.emplace_back(static_cast<int>(i), ftran_[i]);
      }
    }
    op.end = static_cast<int>(file_ent_.size());
    file_.push_back(op);
    return true;
  }

  StepResult Step(int entering, double d_enter, bool phase1,
                  int* degenerate_run) {
    // Deadline check between pivots: the basis is untouched, so reporting
    // kStuck here (mapped to kDeadline by SolveImpl via deadline_hit_)
    // leaves the solver consistent and warm-resumable.
    if (DeadlineExceeded()) {
      deadline_hit_ = true;
      return StepResult::kStuck;
    }
    // Update-file bound: once the file outgrows its op/entry caps, fold it
    // into a fresh factorization before pivoting further — this is what
    // keeps both replay cost and resident memory bounded over a long solve.
    // refactor_interval < 0 disables it along with the drift guard (the
    // file then grows with the pivot count but stays exact).
    if (factor_valid_ && opt_.refactor_interval >= 0 && NeedsEtaRefactor()) {
      factor_valid_ = false;
      Refactorize();
      return refactor_singular_ ? StepResult::kStuck : StepResult::kRecovered;
    }
    ++iter_;
    VarState est = StateOf(entering);
    double dir;
    switch (est) {
      case VarState::kAtLower:
        dir = 1;
        break;
      case VarState::kAtUpper:
        dir = -1;
        break;
      case VarState::kFree:
        dir = d_enter < 0 ? 1 : -1;
        break;
      default:
        return StepResult::kStuck;
    }

    // The entering column exists only for the duration of this step: FTRAN
    // it into the reused scratch and run the ratio test off that.
    Ftran(entering);
    // Fault sites: corrupt the FTRAN-ed entering column the way real
    // factorization drift would — a relative perturbation (silent numeric
    // error) or an outright NaN (catastrophic breakdown).
    if (m_ > 0 && LDR_FAILPOINT("lp.ftran_perturb")) {
      for (size_t i = 0; i < m_; ++i) ftran_[i] *= 1.0 + 1e-3;
    }
    if (m_ > 0 && LDR_FAILPOINT("lp.ftran_nan")) {
      ftran_[0] = std::numeric_limits<double>::quiet_NaN();
    }
    // A non-finite FTRAN result means the factorization is poisoned
    // (overflow or NaN from compounded eta updates); the ratio test below
    // would smuggle it into xb_. Re-establish the factorization from the exact sparse
    // columns and let the caller re-price — the same recovery path as a
    // numerically-zero pivot.
    for (size_t i = 0; i < m_; ++i) {
      if (!std::isfinite(ftran_[i])) {
        ++pivot_recoveries_;
        factor_valid_ = false;
        Refactorize();
        return refactor_singular_ ? StepResult::kStuck : StepResult::kRecovered;
      }
    }
    const double* ecol = ftran_.data();
    double elo = LoOf(entering), ehi = HiOf(entering);

    // Entering variable's own opposite bound.
    double own_range =
        (std::isfinite(elo) && std::isfinite(ehi)) ? ehi - elo : kInfinity;

    // Ratio test, two passes (Harris-style). Pass 1 computes every basic
    // row's exact blocking step, the true minimum, and the largest step the
    // entering variable may take without pushing ANY row more than kTieTol
    // past its bound: t_cap = min_i (t_i + kTieTol / |alpha_i|) — each row's
    // tie window is relative to its own rate, so a row moving at 1e6/step
    // contributes a window of 1e-15 while a slow row stays generous. Pass 2
    // picks the largest pivot magnitude among rows blocking within t_cap —
    // and then steps by the *chosen row's own* blocking ratio, so the
    // leaving variable lands exactly on the bound it is pinned to and every
    // other row overshoots by at most kTieTol in value, well inside the
    // feasibility tolerance. (The old single-pass version kept the smaller
    // step of a tied pair while pinning the larger-ratio row at a bound it
    // never reached, silently injecting bound infeasibility.)
    rt_.assign(m_, kInfinity);  // per-row blocking step
    rb_.assign(m_, 0.0);        // per-row bound landed on
    double t_row_min = kInfinity;
    double t_cap = kInfinity;
    for (size_t i = 0; i < m_; ++i) {
      double alpha = ecol[i];
      if (std::abs(alpha) < 1e-10) continue;
      double delta = -dir * alpha;  // basic value moves at this rate
      int b = basis_[i];
      double blo = LoOf(b), bhi = HiOf(b);
      double t_block = kInfinity;
      double bound = 0;
      bool violated = phase1 && BasicViolated(i);
      bool below = violated && xb_[i] < blo;
      bool above = violated && xb_[i] > bhi;
      if (below) {
        // Infeasible-below basic blocks only when rising to its lower bound.
        if (delta > 0) {
          t_block = (blo - xb_[i]) / delta;
          bound = blo;
        }
      } else if (above) {
        if (delta < 0) {
          t_block = (bhi - xb_[i]) / delta;
          bound = bhi;
        }
      } else {
        if (delta < 0 && std::isfinite(blo)) {
          t_block = (blo - xb_[i]) / delta;
          bound = blo;
        } else if (delta > 0 && std::isfinite(bhi)) {
          t_block = (bhi - xb_[i]) / delta;
          bound = bhi;
        }
      }
      if (t_block == kInfinity) continue;
      t_block = std::max(t_block, 0.0);
      rt_[i] = t_block;
      rb_[i] = bound;
      t_row_min = std::min(t_row_min, t_block);
      t_cap = std::min(t_cap, t_block + kTieTol / std::abs(alpha));
    }
    // The entering variable moves at rate 1: bound its own-range overshoot
    // the same way.
    t_cap = std::min(t_cap, own_range + kTieTol);

    if (t_row_min == kInfinity && own_range == kInfinity) {
      // In phase 1 an unbounded improving ray cannot happen (infeasibility
      // is bounded below by 0); treat as stuck.
      return phase1 ? StepResult::kStuck : StepResult::kUnbounded;
    }

    double t_max;
    int leave_row = -1;
    double leave_bound = 0;  // bound the leaving variable lands on
    if (own_range <= t_row_min) {
      // No row blocks before the entering variable's opposite bound: a
      // bound flip, moving exactly own_range, keeps every basic in range.
      t_max = own_range;
    } else {
      // The largest pivot within the tie window — except in Bland mode,
      // whose termination guarantee needs its leaving half too: of the
      // minimum-ratio rows, the one whose basic variable comes first in
      // scan order (a largest-pivot choice there can cycle forever).
      const bool bland = *degenerate_run >= kBlandThreshold;
      double best = -kInfinity;
      for (size_t i = 0; i < m_; ++i) {
        if (rt_[i] > (bland ? t_row_min : t_cap)) continue;
        double score = bland ? -static_cast<double>(ScanPos(basis_[i]))
                             : std::abs(ecol[i]);
        if (score > best) {
          best = score;
          leave_row = static_cast<int>(i);
        }
      }
      if (leave_row < 0) {
        // t_cap can exclude every row only through floating-point edge
        // cases (the minimizing row always satisfies rt <= t_cap in exact
        // arithmetic); fall back to the exact minimum-ratio row.
        double best_t = kInfinity;
        for (size_t i = 0; i < m_; ++i) {
          if (rt_[i] < best_t) {
            best_t = rt_[i];
            leave_row = static_cast<int>(i);
          }
        }
      }
      size_t lr = static_cast<size_t>(leave_row);
      t_max = rt_[lr];
      leave_bound = rb_[lr];
    }

    if (leave_row >= 0 &&
        (LDR_FAILPOINT("lp.tiny_pivot") ||
         !(std::abs(ecol[static_cast<size_t>(leave_row)]) > kMinPivot))) {
      // About to pivot on a numerically zero (or NaN) element —
      // factorization drift. Refactorize from the exact sparse columns and
      // let the caller re-price against the fresh factorization instead of
      // poisoning the basis.
      ++pivot_recoveries_;
      factor_valid_ = false;
      Refactorize();
      return refactor_singular_ ? StepResult::kStuck : StepResult::kRecovered;
    }

    if (t_max <= 1e-12) {
      ++*degenerate_run;
    } else {
      *degenerate_run = 0;
    }

    // Apply the move to all basic values.
    for (size_t i = 0; i < m_; ++i) {
      double alpha = ecol[i];
      if (alpha == 0) continue;
      xb_[i] += -dir * alpha * t_max;
    }
    double new_q_value = ValueOf(entering) + dir * t_max;

    if (leave_row < 0) {
      // Bound flip: the entering variable traverses to its opposite bound.
      // Only structural variables have two finite bounds, so `entering` is
      // guaranteed structural here.
      value_[static_cast<size_t>(entering)] = new_q_value;
      StateOf(entering) = (dir > 0) ? VarState::kAtUpper : VarState::kAtLower;
      ++bound_flips_;
      return StepResult::kBoundFlip;
    }

    // Pivot: entering becomes basic in leave_row; leaving variable goes to
    // the bound it hit.
    size_t r = static_cast<size_t>(leave_row);
    int leaving = basis_[r];
    if (!RawPivot(r)) {
      // Unreachable given the pre-check above, but never corrupt state.
      ++pivot_recoveries_;
      factor_valid_ = false;
      Refactorize();
      return refactor_singular_ ? StepResult::kStuck : StepResult::kRecovered;
    }

    StateOf(leaving) = (leave_bound == LoOf(leaving)) ? VarState::kAtLower
                                                      : VarState::kAtUpper;
    if (LoOf(leaving) == HiOf(leaving)) StateOf(leaving) = VarState::kAtLower;
    if (leaving >= 0) value_[static_cast<size_t>(leaving)] = leave_bound;
    BasicRowOf(leaving) = -1;
    xb_[r] = new_q_value;
    basis_[r] = entering;
    StateOf(entering) = VarState::kBasic;
    BasicRowOf(entering) = static_cast<int>(r);

    // Dual maintenance: a pivot at row r with entering reduced cost d shifts
    // the duals by d * (row r of the *new* B^-1) — for y1 the blocking row's
    // subgradient change cancels against the basis change (see the dual
    // section above), so both phases share the one-line update. The inverse
    // row is one BTRAN(e_r) (the appended eta's transpose maps e_r to
    // (1/pivot)·e_r, so the post-append BTRAN yields the *new* row
    // directly).
    if (y1_valid_ || y2_valid_) {
      ComputeInverseRow(r);
      const double* rho = rho_.data();
      if (phase1) {
        if (y1_valid_) {
          for (size_t k = 0; k < m_; ++k) y1_[k] += d_enter * rho[k];
          g1_[r] = 0;  // the entering variable sits feasible in row r
        }
        if (y2_valid_) {
          // Keep the phase-2 duals exact through phase-1 pivots so a repair
          // excursion doesn't force a rebuild: the entering column's phase-2
          // reduced cost prices sparsely against the pre-update y2.
          double d2 = ReducedCost(/*phase1=*/false, entering);
          for (size_t k = 0; k < m_; ++k) y2_[k] += d2 * rho[k];
        }
      } else {
        for (size_t k = 0; k < m_; ++k) y2_[k] += d_enter * rho[k];
      }
    }
    if (!phase1) y1_valid_ = false;  // phase-1 duals go stale with the basis
    return StepResult::kPivoted;
  }

  // One dual-simplex iteration repairing leaving row r (picked by
  // MostViolatedRow): price the pivot row off BTRAN(e_r), run a dual
  // Harris-style two-pass ratio test over the admissible nonbasic columns,
  // flip boxed candidates whose reduced cost crosses zero before the pivot
  // (long step), then pivot so the leaving variable lands on its violated
  // bound. Dual feasibility of the basis is the caller's invariant; any
  // kStuck/kRecovered exit leaves the primal phase-1 loop as the authority.
  StepResult DualStep(size_t r) {
    // Deadline check between pivots, mirroring Step: the basis is
    // untouched, so the solver stays consistent and warm-resumable.
    if (DeadlineExceeded()) {
      deadline_hit_ = true;
      return StepResult::kStuck;
    }
    // Update-file bound, as in Step: fold an outgrown file into a fresh
    // factorization before pivoting further.
    if (factor_valid_ && opt_.refactor_interval >= 0 && NeedsEtaRefactor()) {
      factor_valid_ = false;
      Refactorize();
      return refactor_singular_ ? StepResult::kStuck : StepResult::kRecovered;
    }
    ++iter_;
    int leaving = basis_[r];
    double blo = LoOf(leaving), bhi = HiOf(leaving);
    bool below = xb_[r] < blo;
    // sigma: the direction xb_[r] must move to reach its violated bound.
    double sigma = below ? 1.0 : -1.0;
    double leave_bound = below ? blo : bhi;

    // Price the pivot row: alpha_j = rho^T A_j over every nonbasic column,
    // with rho = row r of B^-1 (one BTRAN(e_r)). A candidate is admissible
    // when the dual step moves its reduced cost toward zero from the
    // feasible side; t is the step at which it crosses.
    ComputeInverseRow(r);
    const double* rho = rho_.data();
    dual_cand_.clear();
    for (size_t p = 0; p < n_ + m_; ++p) {
      int ref = RefAt(p);
      if (IsBasic(ref)) continue;
      double clo = LoOf(ref), chi = HiOf(ref);
      if (clo == chi) continue;  // fixed variable can never enter
      double alpha;
      if (ref < 0) {
        alpha = rho[static_cast<size_t>(~ref)];
      } else {
        alpha = 0.0;
        for (const auto& [row, c] : acol_[static_cast<size_t>(ref)]) {
          alpha += rho[static_cast<size_t>(row)] * c;
        }
      }
      if (std::abs(alpha) < 1e-10) continue;
      double abar = -sigma * alpha;  // reduced-cost rate along the dual step
      VarState st = ref >= 0 ? vstate_[static_cast<size_t>(ref)]
                             : sstate_[static_cast<size_t>(~ref)];
      bool admissible = (st == VarState::kAtLower && abar > 0) ||
                        (st == VarState::kAtUpper && abar < 0) ||
                        st == VarState::kFree;
      if (!admissible) continue;
      double d = ReducedCost(/*phase1=*/false, ref);
      double range =
          (std::isfinite(clo) && std::isfinite(chi)) ? chi - clo : kInfinity;
      dual_cand_.push_back(
          {ref, alpha, abar, d, std::max(d / abar, 0.0), range});
    }
    if (dual_cand_.empty()) {
      // No admissible entering column: the dual ray certifies primal
      // infeasibility, but the phase-1 loop owns that verdict — bail out
      // and let it re-derive (and report) the status.
      return StepResult::kStuck;
    }
    std::sort(dual_cand_.begin(), dual_cand_.end(),
              [](const DualCand& a, const DualCand& b) { return a.t < b.t; });

    // Long-step bound flips: a boxed candidate whose reduced cost crosses
    // zero before the eventual pivot jumps to its opposite bound instead of
    // entering — the flip moves xb_[r] toward its violated bound (the
    // admissibility sign guarantees the direction) and the dual step keeps
    // going. Guarded so a flip never overshoots the remaining violation,
    // and at least one candidate always survives to pivot on.
    size_t first_live = 0;
    while (first_live + 1 < dual_cand_.size()) {
      const DualCand& c = dual_cand_[first_live];
      double remaining = std::abs(leave_bound - xb_[r]);
      if (!(std::isfinite(c.range) &&
            std::abs(c.alpha) * c.range < remaining)) {
        break;
      }
      size_t j = static_cast<size_t>(c.ref);  // boxed => structural
      double move = vstate_[j] == VarState::kAtLower ? c.range : -c.range;
      Ftran(c.ref);
      for (size_t i = 0; i < m_; ++i) xb_[i] -= ftran_[i] * move;
      value_[j] += move;
      vstate_[j] = vstate_[j] == VarState::kAtLower ? VarState::kAtUpper
                                                    : VarState::kAtLower;
      ++bound_flips_;
      ++first_live;
    }

    // Harris pass 2: allow any candidate blocking within a per-candidate
    // tie window past the minimum ratio, and take the largest pivot
    // magnitude among them — same numerics-over-degeneracy trade as the
    // primal ratio test.
    double cap = kInfinity;
    for (size_t k = first_live; k < dual_cand_.size(); ++k) {
      const DualCand& c = dual_cand_[k];
      cap = std::min(cap, c.t + kTieTol / std::abs(c.abar));
    }
    const DualCand* enter = nullptr;
    double best_mag = 0.0;
    for (size_t k = first_live; k < dual_cand_.size(); ++k) {
      const DualCand& c = dual_cand_[k];
      if (c.t > cap) break;  // sorted: everything after is worse
      double mag = std::abs(c.abar);
      if (mag > best_mag) {
        best_mag = mag;
        enter = &c;
      }
    }
    if (enter == nullptr) enter = &dual_cand_[first_live];

    int e = enter->ref;
    double d_e = enter->d;
    Ftran(e);
    for (size_t i = 0; i < m_; ++i) {
      if (!std::isfinite(ftran_[i])) {
        // Poisoned factorization — same recovery path as Step.
        ++pivot_recoveries_;
        factor_valid_ = false;
        Refactorize();
        return refactor_singular_ ? StepResult::kStuck : StepResult::kRecovered;
      }
    }
    double apiv = ftran_[r];
    if (!(std::abs(apiv) > kMinPivot)) {
      ++pivot_recoveries_;
      factor_valid_ = false;
      Refactorize();
      return refactor_singular_ ? StepResult::kStuck : StepResult::kRecovered;
    }
    // The entering variable moves by `move` from its resting value so that
    // xb_[r] lands exactly on the violated bound.
    double move = (xb_[r] - leave_bound) / apiv;
    double new_e_value = ValueOf(e) + move;
    for (size_t i = 0; i < m_; ++i) {
      double a = ftran_[i];
      if (a == 0) continue;
      xb_[i] -= a * move;
    }
    if (!RawPivot(r)) {
      ++pivot_recoveries_;
      factor_valid_ = false;
      Refactorize();
      return refactor_singular_ ? StepResult::kStuck : StepResult::kRecovered;
    }
    StateOf(leaving) = below ? VarState::kAtLower : VarState::kAtUpper;
    if (LoOf(leaving) == HiOf(leaving)) StateOf(leaving) = VarState::kAtLower;
    if (leaving >= 0) value_[static_cast<size_t>(leaving)] = leave_bound;
    BasicRowOf(leaving) = -1;
    xb_[r] = new_e_value;
    basis_[r] = e;
    StateOf(e) = VarState::kBasic;
    BasicRowOf(e) = static_cast<int>(r);
    ++dual_pivots_;

    // Same per-pivot dual maintenance as Step: the entering reduced cost
    // times row r of the *new* B^-1.
    if (y2_valid_) {
      ComputeInverseRow(r);
      const double* nrho = rho_.data();
      for (size_t k = 0; k < m_; ++k) y2_[k] += d_e * nrho[k];
    }
    y1_valid_ = false;
    return StepResult::kPivoted;
  }

  // Re-establishes the factorization for the recorded basis from the exact
  // sparse columns: a Markowitz-ordered elimination of the basis columns. A
  // singular (or threshold-unstable beyond repair) elimination demotes the
  // recorded basics at the unpivoted positions, substitutes free slacks of
  // the unpivoted rows, and retries — phase 1 then repairs any feasibility
  // the substitution cost. Only repeated failure (which a real
  // repeated-singular basis produces, and the lp.refactor_singular
  // failpoint emulates) flags refactor_singular_.
  void Refactorize() {
    refactor_singular_ = false;
    // Fault site: the recorded basis fails to re-establish (as a genuinely
    // singular basis would). State is exactly as if elimination had run and
    // failed: factor_valid_ stays false, callers see refactor_singular_.
    if (LDR_FAILPOINT("lp.refactor_singular")) {
      refactor_singular_ = true;
      return;
    }
    ++refactorizations_;
    for (int attempt = 0;; ++attempt) {
      if (EliminateLU()) break;
      if (attempt >= 4 || !RepairSingularBasis()) {
        refactor_singular_ = true;
        return;
      }
    }

    // The recorded (possibly repaired) basis is now factorized; rebuild the
    // ref <-> position maps and demote anything that lost its slot.
    vrow_.assign(n_, -1);
    srow_.assign(m_, -1);
    for (size_t i = 0; i < m_; ++i) {
      int ref = basis_[i];
      BasicRowOf(ref) = static_cast<int>(i);
      StateOf(ref) = VarState::kBasic;
    }
    for (size_t j = 0; j < n_; ++j) {
      if (vstate_[j] == VarState::kBasic && vrow_[j] < 0) {
        Demote(static_cast<int>(j));
      }
    }
    for (size_t k = 0; k < m_; ++k) {
      if (sstate_[k] == VarState::kBasic && srow_[k] < 0) {
        Demote(~static_cast<int>(k));
      }
    }

    m0_ = m_;
    file_.clear();
    file_ent_.clear();
    lu_nnz_ = static_cast<long>(upiv_.size()) +
              static_cast<long>(u_ent_.size()) +
              static_cast<long>(l_dst_.size());

    // x_B = B^-1 · (b - sum over nonbasic structural columns of A_j x_j):
    // one FTRAN of the net right-hand side (nonbasic slacks rest at 0 and
    // drop out).
    net_rhs_ = rhs_;
    for (size_t j = 0; j < n_; ++j) {
      if (vrow_[j] >= 0 || value_[j] == 0) continue;
      for (const auto& [r, c] : acol_[j]) {
        net_rhs_[static_cast<size_t>(r)] -= c * value_[j];
      }
    }
    luw_ = net_rhs_;
    LuFtran(&luw_, &xb_);

    factor_valid_ = true;
    updates_since_refactor_ = 0;
    // The basis may have been re-established differently; both dual vectors
    // are stale until their phase rebuilds them.
    y1_valid_ = false;
    y2_valid_ = false;
  }

  // How close the eta/row-extension file is to its bound (see BasisOptions).
  bool NeedsEtaRefactor() const {
    long ops_cap = opt_.basis.max_file_ops > 0
                       ? opt_.basis.max_file_ops
                       : std::max<long>(64, static_cast<long>(m_) / 2);
    long ent_cap = opt_.basis.max_file_entries > 0
                       ? opt_.basis.max_file_entries
                       : std::max<long>(1024, 8 * lu_nnz_);
    return static_cast<long>(file_.size()) >= ops_cap ||
           static_cast<long>(file_ent_.size()) >= ent_cap;
  }

  // One Markowitz elimination pass over the current basis_. On success the
  // base factorization arrays describe PB = LU and true is returned; on
  // (near-)singularity it returns false with row_done_/pos_done_ marking
  // what was established — the repair path reads the unpivoted remainder.
  bool EliminateLU() {
    const size_t m = m_;
    prow_.clear();
    pcol_.clear();
    upiv_.clear();
    l_start_.assign(1, 0);
    l_dst_.clear();
    l_mult_.clear();
    u_start_.assign(1, 0);
    u_ent_.clear();

    // Active matrix by rows: lu_rows_[r] holds (position, value); col_rows_
    // is a per-position candidate-row list that may carry stale entries
    // (validated lazily against the row), col_count_ the live nonzero count
    // driving the Markowitz choice.
    if (lu_rows_.size() < m) lu_rows_.resize(m);
    if (col_rows_.size() < m) col_rows_.resize(m);
    for (size_t r = 0; r < m; ++r) lu_rows_[r].clear();
    for (size_t p = 0; p < m; ++p) col_rows_[p].clear();
    col_count_.assign(m, 0);
    row_done_.assign(m, 0);
    pos_done_.assign(m, 0);
    lu_mark_.assign(m, 0);

    long nnz_b = 0;
    for (size_t i = 0; i < m; ++i) {
      int ref = basis_[i];
      if (ref < 0) {
        lu_rows_[static_cast<size_t>(~ref)].emplace_back(static_cast<int>(i),
                                                         1.0);
      } else {
        for (const auto& [r, c] : acol_[static_cast<size_t>(ref)]) {
          if (c != 0.0) lu_rows_[static_cast<size_t>(r)].emplace_back(  // NOLINT(ldr-float-eq): drop exact structural zeros while loading LU
              static_cast<int>(i), c);
        }
      }
    }
    for (size_t r = 0; r < m; ++r) {
      for (const auto& [p, v] : lu_rows_[r]) {
        (void)v;
        ++col_count_[static_cast<size_t>(p)];
        col_rows_[static_cast<size_t>(p)].push_back(static_cast<int>(r));
        ++nnz_b;
      }
    }
    lu_fill_base_ = std::max<long>(1, nnz_b);

    for (size_t step = 0; step < m; ++step) {
      // Candidate positions: the few smallest live column counts. A full
      // fallback scan below keeps correctness independent of this
      // heuristic.
      int cand[kLuCandidates];
      int cand_n = 0;
      for (size_t p = 0; p < m; ++p) {
        if (pos_done_[p] || col_count_[p] <= 0) continue;
        int cc = col_count_[p];
        int at = cand_n;
        while (at > 0 &&
               col_count_[static_cast<size_t>(cand[at - 1])] > cc) {
          if (at < kLuCandidates) cand[at] = cand[at - 1];
          --at;
        }
        if (at < kLuCandidates) {
          cand[at] = static_cast<int>(p);
          if (cand_n < kLuCandidates) ++cand_n;
        }
      }

      int best_r = -1, best_p = -1;
      double best_v = 0.0;
      long best_score = std::numeric_limits<long>::max();
      double best_mag = 0.0;
      auto consider_position = [&](int p) {
        // Validate this column's candidate rows in place, find its live max
        // magnitude, then score the threshold-eligible pivots.
        auto& rows = col_rows_[static_cast<size_t>(p)];
        size_t w = 0;
        double colmax = 0.0;
        for (size_t t = 0; t < rows.size(); ++t) {
          int r = rows[t];
          if (row_done_[static_cast<size_t>(r)]) continue;
          double v = 0.0;
          bool present = false;
          for (const auto& e : lu_rows_[static_cast<size_t>(r)]) {
            if (e.first == p) {
              v = e.second;
              present = true;
              break;
            }
          }
          if (!present) continue;
          rows[w++] = r;
          colmax = std::max(colmax, std::abs(v));
        }
        rows.resize(w);
        col_count_[static_cast<size_t>(p)] = static_cast<int>(w);
        if (colmax <= kLuSingularTol) return;
        double eligible = std::max(kLuStabTau * colmax, kLuSingularTol);
        for (int r : rows) {
          double v = 0.0;
          for (const auto& e : lu_rows_[static_cast<size_t>(r)]) {
            if (e.first == p) {
              v = e.second;
              break;
            }
          }
          double mag = std::abs(v);
          if (mag < eligible) continue;
          long score =
              (static_cast<long>(lu_rows_[static_cast<size_t>(r)].size()) -
               1) *
              (static_cast<long>(w) - 1);
          if (score < best_score ||
              (score == best_score &&
               (mag > best_mag || (mag == best_mag && r < best_r)))) {
            best_score = score;
            best_mag = mag;
            best_r = r;
            best_p = p;
            best_v = v;
          }
        }
      };
      for (int t = 0; t < cand_n; ++t) consider_position(cand[t]);
      if (best_r < 0) {
        // The cheap candidates were all unstable; scan everything before
        // declaring the remainder singular.
        for (size_t p = 0; p < m; ++p) {
          if (!pos_done_[p]) consider_position(static_cast<int>(p));
        }
      }
      if (best_r < 0) return false;  // singular remainder

      // Establish step `step`: pivot (best_r, best_p, best_v).
      size_t br = static_cast<size_t>(best_r);
      size_t bp = static_cast<size_t>(best_p);
      auto& prowv = lu_rows_[br];
      for (size_t t = 0; t < prowv.size(); ++t) {
        if (prowv[t].first == best_p) {
          prowv[t] = prowv.back();
          prowv.pop_back();
          break;
        }
      }
      prow_.push_back(best_r);
      pcol_.push_back(best_p);
      upiv_.push_back(best_v);
      for (const auto& [p, v] : prowv) {
        u_ent_.emplace_back(p, v);
        --col_count_[static_cast<size_t>(p)];
      }
      u_start_.push_back(static_cast<int>(u_ent_.size()));
      row_done_[br] = 1;
      pos_done_[bp] = 1;
      col_count_[bp] = 0;

      // Eliminate the pivot column from every other live row, recording the
      // multipliers as L's row operations and merging fill-in sparsely.
      const int u_lo = u_start_[u_start_.size() - 2];
      const int u_hi = u_start_.back();
      auto& crows = col_rows_[bp];
      for (int r2i : crows) {
        size_t r2 = static_cast<size_t>(r2i);
        if (row_done_[r2]) continue;
        auto& row2 = lu_rows_[r2];
        double v2 = 0.0;
        bool present = false;
        for (size_t t = 0; t < row2.size(); ++t) {
          if (row2[t].first == best_p) {
            v2 = row2[t].second;
            row2[t] = row2.back();
            row2.pop_back();
            present = true;
            break;
          }
        }
        if (!present) continue;  // stale candidate
        double mult = v2 / best_v;
        l_dst_.push_back(r2i);
        l_mult_.push_back(mult);
        if (mult == 0.0) continue;  // NOLINT(ldr-float-eq): exact-zero multiplier row needs no update
        for (size_t t = 0; t < row2.size(); ++t) {
          lu_mark_[static_cast<size_t>(row2[t].first)] =
              static_cast<int>(t) + 1;
        }
        for (int t = u_lo; t < u_hi; ++t) {
          const auto& e = u_ent_[static_cast<size_t>(t)];
          int mk = lu_mark_[static_cast<size_t>(e.first)];
          if (mk > 0) {
            row2[static_cast<size_t>(mk - 1)].second -= mult * e.second;
          } else {
            row2.emplace_back(e.first, -mult * e.second);
            lu_mark_[static_cast<size_t>(e.first)] =
                static_cast<int>(row2.size());
            ++col_count_[static_cast<size_t>(e.first)];
            col_rows_[static_cast<size_t>(e.first)].push_back(r2i);
          }
        }
        // Clear marks and drop exact-zero cancellations.
        size_t w2 = 0;
        for (size_t t = 0; t < row2.size(); ++t) {
          lu_mark_[static_cast<size_t>(row2[t].first)] = 0;
          if (row2[t].second != 0.0) {  // NOLINT(ldr-float-eq): drop exact zeros created by cancellation
            row2[w2++] = row2[t];
          } else {
            --col_count_[static_cast<size_t>(row2[t].first)];
          }
        }
        row2.resize(w2);
      }
      l_start_.push_back(static_cast<int>(l_dst_.size()));
      crows.clear();
    }
    return true;
  }

  // Elimination-failure repair: substitute free slacks of the unpivoted
  // rows for the basics recorded at the unpivoted positions. Returns false
  // only when no free slack remains (which cannot happen for a genuinely
  // repairable basis: an all-slack basis is the identity).
  bool RepairSingularBasis() {
    slack_used_.assign(m_, 0);
    for (size_t i = 0; i < m_; ++i) {
      if (basis_[i] < 0) slack_used_[static_cast<size_t>(~basis_[i])] = 1;
    }
    size_t next_row = 0;
    for (size_t p = 0; p < m_; ++p) {
      if (pos_done_[p]) continue;
      // Prefer an unpivoted row's free slack; fall back to any free slack.
      int chosen = -1;
      for (size_t r = 0; r < m_; ++r) {
        if (!row_done_[r] && !slack_used_[r]) {
          chosen = static_cast<int>(r);
          break;
        }
      }
      if (chosen < 0) {
        for (; next_row < m_; ++next_row) {
          if (!slack_used_[next_row]) {
            chosen = static_cast<int>(next_row);
            break;
          }
        }
      }
      if (chosen < 0) return false;
      basis_[p] = ~chosen;
      slack_used_[static_cast<size_t>(chosen)] = 1;
    }
    return true;
  }

  static constexpr int kLuCandidates = 4;
  static constexpr double kLuStabTau = 0.01;   // Markowitz threshold pivoting
  static constexpr double kLuSingularTol = 1e-9;

  void Demote(int ref) {
    double lo = LoOf(ref), hi = HiOf(ref);
    VarState st;
    double v;
    if (std::isfinite(lo) && (!std::isfinite(hi) || std::abs(lo) <= std::abs(hi))) {
      st = VarState::kAtLower;
      v = lo;
    } else if (std::isfinite(hi)) {
      st = VarState::kAtUpper;
      v = hi;
    } else {
      st = VarState::kFree;
      v = 0.0;
    }
    StateOf(ref) = st;
    if (ref >= 0) value_[static_cast<size_t>(ref)] = v;
    BasicRowOf(ref) = -1;
  }

  const SolveOptions opt_;
  size_t m_ = 0;  // rows
  size_t n_ = 0;  // structural variables

  // Sparse problem data.
  std::vector<std::vector<std::pair<int, double>>> acol_;  // per column
  std::vector<double> lo_, hi_, cost_;
  std::vector<RowType> row_type_;
  std::vector<double> rhs_;

  // Factorized working state — structural columns live solely in sparse
  // acol_ and are FTRAN-ed on demand (revised simplex).
  bool factor_valid_ = true;
  bool refactor_singular_ = false;  // last Refactorize failed a pivot
  // Drift-accumulating updates applied since the last exact refactorization
  // (see SolveOptions::refactor_interval).
  long updates_since_refactor_ = 0;

  // Sparse LU state. Base factorization PB = LU over the m0_ rows/positions
  // that existed at the last refactorization:
  size_t m0_ = 0;
  std::vector<int> prow_, pcol_;  // elimination step -> pivot row / position
  std::vector<double> upiv_;      // step -> pivot value
  std::vector<int> l_start_;      // step -> L op range [l_start_[k], l_start_[k+1])
  std::vector<int> l_dst_;        // L op: target row (source is prow_[k])
  std::vector<double> l_mult_;    // L op: multiplier
  std::vector<int> u_start_;      // step -> U entry range
  std::vector<std::pair<int, double>> u_ent_;  // U row entries (position, value)
  // Update file: product-form ops appended since the last refactorization —
  // kEta per pivot (entries: the FTRAN-ed column's off-pivot nonzeros),
  // kRowExt per AddRow (entries: the new row's coefficients over basis
  // positions).
  struct FileOp {
    enum Kind : uint8_t { kEta, kRowExt };
    uint8_t kind = kEta;
    int pos = 0;
    int start = 0, end = 0;  // range in file_ent_
    double pivot = 1.0;
  };
  std::vector<FileOp> file_;
  std::vector<std::pair<int, double>> file_ent_;
  long lu_nnz_ = 0;       // stored L+U nonzeros after the last refactorization
  long lu_fill_base_ = 0; // nnz(B) the last refactorization started from

  std::vector<VarState> vstate_, sstate_;
  std::vector<double> value_;  // nonbasic structural values
  std::vector<int> basis_;     // per row: basic column ref
  std::vector<int> vrow_, srow_;  // ref -> basic row, -1 if nonbasic
  std::vector<double> xb_;     // basic variable values

  // Dual values for lazy sparse pricing (see the dual section above).
  std::vector<double> y2_;  // c_B^T B^-1
  std::vector<double> y1_;  // g^T B^-1, g = phase-1 infeasibility subgradient
  std::vector<int8_t> g1_;  // cached subgradient y1_ was built/updated for
  bool y1_valid_ = false;
  bool y2_valid_ = false;

  // Partial-pricing state: the bounded candidate list and the rotating
  // cursor the refresh sweeps resume from.
  std::vector<int> cand_;
  size_t sweep_pos_ = 0;
  struct Fresh {
    double score;
    int ref;
    double d;
  };
  std::vector<Fresh> fresh_;

  // Telemetry surfaced through Solution.
  long columns_priced_ = 0;
  int pivot_recoveries_ = 0;
  long ftran_nnz_ = 0;
  int pivots_ = 0;
  int refactorizations_ = 0;
  int dual_pivots_ = 0;
  int bound_flips_ = 0;
  bool warm_restart_used_ = false;

  // Warm-restart state: ever_optimal_ records that a previous SolveImpl
  // reached kOptimal, which is what makes the current basis a candidate
  // dual-feasible warm start (a cold first solve always takes the primal
  // path).
  bool ever_optimal_ = false;

  // Scratch buffers reused across iterations — the simplex inner loop
  // (FTRAN, ratio test, pivot) allocates nothing once these reach capacity
  // (asserted by LpSolver.WarmResolveInnerLoopIsAllocationFree).
  std::vector<double> ftran_;    // entering column B^-1·A_j of the live Step
  std::vector<double> rt_, rb_;  // ratio test: per-row step / bound landed on
  std::vector<double> net_rhs_;  // Refactorize: rhs net of nonbasic values
  std::vector<double> rho_;      // row r of B^-1 for the per-pivot dual update
  // Dual ratio-test candidate: a nonbasic column with a nonzero pivot-row
  // entry alpha, signed entry abar = -sigma*alpha, reduced cost d, dual step
  // t = d/abar at which d crosses zero, and the finite bound range for
  // long-step bound flips (kInfinity when not boxed).
  struct DualCand {
    int ref;
    double alpha;
    double abar;
    double d;
    double t;
    double range;
  };
  std::vector<DualCand> dual_cand_;  // dual ratio-test scratch
  std::vector<double> luw_;      // LuFtran row-space working vector
  std::vector<double> lub_;      // LuBtran position-space input
  std::vector<double> luacc_;    // LuBtran U^T accumulator
  // Markowitz elimination scratch (EliminateLU / RepairSingularBasis):
  std::vector<std::vector<std::pair<int, double>>> lu_rows_;
  std::vector<std::vector<int>> col_rows_;
  std::vector<int> col_count_;
  std::vector<int> lu_mark_;
  std::vector<char> row_done_, pos_done_, slack_used_;
  int iter_ = 0;

  // Wall-clock deadline state for the live Solve() (see
  // SolveOptions::deadline_ms). deadline_hit_ distinguishes a kStuck that
  // means "deadline expired" from a genuine numerical breakdown.
  using Clock = std::chrono::steady_clock;
  bool deadline_set_ = false;
  bool deadline_hit_ = false;
  Clock::time_point deadline_at_{};
  bool DeadlineExceeded() const {
    return deadline_set_ && Clock::now() >= deadline_at_;
  }
};

Solver::Solver(const SolveOptions& options) : impl_(new Impl(options)) {}  // NOLINT(ldr-lp-alloc): pimpl construction at Solver birth, not the pivot loop

Solver::Solver(const Problem& p, const SolveOptions& options)
    : impl_(new Impl(options)) {  // NOLINT(ldr-lp-alloc): pimpl construction at Solver birth, not the pivot loop
  for (size_t j = 0; j < p.VariableCount(); ++j) {
    impl_->AddVariable(p.lower_bounds()[j], p.upper_bounds()[j],
                       p.objective()[j]);
  }
  for (const Row& row : p.rows()) {
    impl_->AddRow(row.type, row.rhs, row.coeffs);
  }
}

Solver::~Solver() { delete impl_; }

Solver::Solver(Solver&& other) noexcept : impl_(other.impl_) {
  other.impl_ = nullptr;
}

Solver& Solver::operator=(Solver&& other) noexcept {
  if (this != &other) {
    delete impl_;
    impl_ = other.impl_;
    other.impl_ = nullptr;
  }
  return *this;
}

int Solver::AddVariable(double lo, double hi, double obj) {
  return impl_->AddVariable(lo, hi, obj);
}

int Solver::AddColumn(double lo, double hi, double obj,
                      const std::vector<std::pair<int, double>>& row_coeffs) {
  return impl_->AddColumn(lo, hi, obj, row_coeffs);
}

int Solver::AddRow(RowType type, double rhs,
                   const std::vector<std::pair<int, double>>& coeffs) {
  return impl_->AddRow(type, rhs, coeffs);
}

void Solver::AddToRow(int row, int var, double delta) {
  impl_->AddToRow(row, var, delta);
}

void Solver::SetRhs(int row, double rhs) { impl_->SetRhs(row, rhs); }

void Solver::SetRhs(const std::vector<std::pair<int, double>>& rows) {
  impl_->SetRhs(rows);
}

void Solver::SetBounds(int var, double lo, double hi) {
  impl_->SetBounds(var, lo, hi);
}

void Solver::FixVariable(int var, double value) {
  impl_->FixVariable(var, value);
}

double Solver::rhs(int row) const { return impl_->rhs(row); }

void Solver::AddToObjective(int var, double delta) {
  impl_->AddToObjective(var, delta);
}

size_t Solver::VariableCount() const { return impl_->VariableCount(); }

size_t Solver::RowCount() const { return impl_->RowCount(); }

Solution Solver::Solve() { return impl_->Solve(); }

void Solver::Invalidate() { impl_->Invalidate(); }

Problem Solver::Snapshot() const { return impl_->Snapshot(); }

Solution Solve(const Problem& problem, const SolveOptions& options) {
  Solver solver(problem, options);
  return solver.Solve();
}

// The certificate works on the row form a_i^T x + s_i = b_i that the solver
// itself uses (slack s_i >= 0 for kLe, <= 0 for kGe, = 0 for kEq), so for a
// minimization the row dual y_i is <= 0 on kLe rows and >= 0 on kGe rows.
// Every residual is divided by the magnitudes it was summed from, so one
// tolerance serves LPs whose coefficients span many orders of magnitude
// (the routing LP mixes 1e6 congestion weights with unit fractions).
Certificate CheckOptimality(const Problem& problem, const Solution& solution,
                            double tol) {
  Certificate cert;
  auto fail = [&](const std::string& what) {
    if (cert.failure.empty()) cert.failure = what;
  };
  const size_t n = problem.VariableCount();
  const size_t m = problem.RowCount();
  if (!solution.ok()) {
    cert.failure = "status " + ToString(solution.status);
    return cert;
  }
  if (solution.values.size() != n || solution.duals.size() != m) {
    cert.failure = "solution has " + std::to_string(solution.values.size()) +
                   " values / " + std::to_string(solution.duals.size()) +
                   " duals for " + std::to_string(n) + " variables / " +
                   std::to_string(m) + " rows";
    return cert;
  }
  const std::vector<double>& x = solution.values;
  const std::vector<double>& y = solution.duals;
  const std::vector<double>& cost = problem.objective();
  const std::vector<double>& lo = problem.lower_bounds();
  const std::vector<double>& hi = problem.upper_bounds();
  for (size_t j = 0; j < n; ++j) {
    if (!std::isfinite(x[j])) fail("value " + std::to_string(j) + " is NaN/inf");
  }
  for (size_t i = 0; i < m; ++i) {
    if (!std::isfinite(y[i])) fail("dual " + std::to_string(i) + " is NaN/inf");
  }
  if (!cert.failure.empty()) return cert;

  // Scale of the dual side: row duals are compared against the largest
  // cost they were priced from.
  double dual_scale = 1.0;
  for (size_t j = 0; j < n; ++j) {
    dual_scale = std::max(dual_scale, 1.0 + std::abs(cost[j]));
  }

  // Reduced costs d_j = c_j - sum_i y_i a_ij, with the magnitude of the
  // terms each was summed from.
  std::vector<double> d(cost);
  std::vector<double> d_mag(n);
  for (size_t j = 0; j < n; ++j) d_mag[j] = 1.0 + std::abs(cost[j]);

  double primal_obj = 0, dual_obj = 0, gap_scale = 1.0;
  for (size_t i = 0; i < m; ++i) {
    const Row& row = problem.rows()[i];
    double activity = 0, act_mag = 0;
    for (const auto& [var, a] : row.coeffs) {
      size_t j = static_cast<size_t>(var);
      activity += a * x[j];
      act_mag += std::abs(a * x[j]);
      d[j] -= y[i] * a;
      d_mag[j] += std::abs(y[i] * a);
    }
    const double scale = 1.0 + std::abs(row.rhs) + act_mag;
    const double slack = row.rhs - activity;
    double infeas = 0, wrong_sign = 0;
    switch (row.type) {
      case RowType::kLe:
        infeas = std::max(0.0, -slack);
        wrong_sign = std::max(0.0, y[i]);
        break;
      case RowType::kGe:
        infeas = std::max(0.0, slack);
        wrong_sign = std::max(0.0, -y[i]);
        break;
      case RowType::kEq:
        infeas = std::abs(slack);
        break;
    }
    const double p_res = infeas / scale;
    const double d_res = wrong_sign / dual_scale;
    // A row with slack must carry a zero dual.
    const double comp = std::min(std::abs(slack) / scale,
                                 std::abs(y[i]) / dual_scale);
    const std::string name = "row " + std::to_string(i);
    if (p_res > tol) fail(name + " is violated");
    if (d_res > tol) fail(name + " has a dual of the wrong sign");
    if (comp > tol) fail(name + " has slack and a nonzero dual");
    cert.primal_residual = std::max(cert.primal_residual, p_res);
    cert.dual_residual = std::max(cert.dual_residual, d_res);
    cert.complementarity = std::max(cert.complementarity, comp);
    dual_obj += row.rhs * y[i];
    gap_scale += std::abs(row.rhs * y[i]);
  }

  for (size_t j = 0; j < n; ++j) {
    const double lo_scale = 1.0 + std::abs(lo[j]);
    const double hi_scale = 1.0 + std::abs(hi[j]);
    const double p_res = std::max(std::max(0.0, lo[j] - x[j]) / lo_scale,
                                  std::max(0.0, x[j] - hi[j]) / hi_scale);
    const std::string name = "variable " + std::to_string(j);
    if (p_res > tol) fail(name + " is out of bounds");
    cert.primal_residual = std::max(cert.primal_residual, p_res);

    // The sign a reduced cost may take depends on where the variable sits:
    // >= 0 at its lower bound, <= 0 at its upper bound, 0 in between (and
    // for a free variable); a fixed variable's reduced cost is unconstrained.
    const bool at_lo = std::isfinite(lo[j]) && x[j] - lo[j] <= tol * lo_scale;
    const bool at_hi = std::isfinite(hi[j]) && hi[j] - x[j] <= tol * hi_scale;
    double wrong = 0;
    if (at_lo && !at_hi) {
      wrong = std::max(0.0, -d[j]);
    } else if (at_hi && !at_lo) {
      wrong = std::max(0.0, d[j]);
    } else if (!at_lo && !at_hi) {
      wrong = std::abs(d[j]);
    }
    const double d_res = wrong / d_mag[j];
    if (d_res > tol) fail(name + " has a reduced cost of the wrong sign");
    cert.dual_residual = std::max(cert.dual_residual, d_res);

    // Dual objective: each reduced cost pays at the bound its sign selects.
    double bound = d[j] > 0 ? lo[j] : hi[j];
    if (!std::isfinite(bound)) bound = x[j];
    primal_obj += cost[j] * x[j];
    dual_obj += d[j] * bound;
    gap_scale += std::abs(cost[j] * x[j]) + std::abs(d[j] * bound);
  }

  cert.gap = std::abs(primal_obj - dual_obj) / gap_scale;
  if (cert.gap > tol) fail("primal and dual objectives differ");
  cert.ok = cert.failure.empty();
  return cert;
}

}  // namespace ldr::lp
