// Bounded-variable revised primal simplex with sparse LU basis handling.
//
// The engine solves the LP relaxation of a Model. Branch & bound constructs
// one engine per model and re-solves with per-node structural bound
// overrides and warm-started bases, so the (potentially large) constraint
// matrix is standardized only once.
#pragma once

#include <atomic>
#include <vector>

#include "milp/lu.h"
#include "milp/model.h"
#include "milp/sparse.h"

namespace cgraf::obs {
class EventLog;
}  // namespace cgraf::obs

namespace cgraf::milp {

enum class SolveStatus {
  kOptimal,     // proven optimal (LP) / gap closed (MIP)
  kFeasible,    // feasible incumbent, optimality not proven (limit hit)
  kInfeasible,  // proven infeasible
  kUnbounded,   // LP unbounded
  kIterLimit,   // iteration limit without a feasible point
  kTimeLimit,   // time limit without a feasible point
  kNodeLimit,   // node limit without a feasible point (MIP)
  kNumericalError,
  kCancelled,   // external cancel flag raised (portfolio race loser)
};

const char* to_string(SolveStatus s);

// Entering-variable selection scheme for the (feasible) phase-2 iterations.
enum class Pricing {
  // Recompute every nonbasic reduced cost from scratch each iteration and
  // take the most negative (textbook Dantzig). O(nnz(A)) per pivot.
  kFullDantzig,
  // Maintain the reduced-cost vector incrementally across pivots (one extra
  // sparse BTRAN per basis change) and select from a rotating candidate
  // bucket of attractive columns, with periodic full refreshes and an exact
  // full-pricing confirmation before optimality is declared. Same optima,
  // much cheaper pivots on large sparse models.
  kCandidateList,
};

struct LpOptions {
  long max_iters = 500000;
  double time_limit_s = 1e18;
  double tol_feas = 1e-7;   // bound/row feasibility tolerance
  double tol_cost = 1e-7;   // reduced-cost (dual) tolerance
  Pricing pricing = Pricing::kCandidateList;
  // When non-null and enabled, every solve() emits one "lp.solve" record
  // here (obs/event_log.h). The analyzer's LP-iteration totals sum these,
  // so the pointer is plumbed to EVERY engine (B&B children, dive LPs,
  // probe chains) or the totals would undercount.
  obs::EventLog* events = nullptr;
  // Cooperative cancellation: when non-null and set, the iteration loops
  // stop at the next limit check and the solve returns kCancelled. The
  // pointed-to flag must outlive every solve that sees it (the portfolio
  // race owns one per attempt and raises it to stop the losing side).
  const std::atomic<bool>* cancel = nullptr;
};

// Nonbasic/basic status of one column, used for warm starts.
enum class ColStatus : signed char {
  kBasic = 0,
  kAtLower = 1,
  kAtUpper = 2,
  kFreeZero = 3,
};

// Per-stage instrumentation of one or more solves. Additive so branch &
// bound / the two-step driver can aggregate across LPs and across threads.
struct LpStageStats {
  double pricing_seconds = 0.0;  // entering-column selection + d[] upkeep
  double ftran_seconds = 0.0;    // entering-column FTRANs
  double btran_seconds = 0.0;    // dual/pricing BTRANs
  double factor_seconds = 0.0;   // basis (re)factorizations
  double dse_seconds = 0.0;      // dual pricing-weight upkeep + recomputes
  long phase1_iterations = 0;    // iterations spent restoring feasibility
  long full_refreshes = 0;       // full reduced-cost recomputations
  long bucket_rebuilds = 0;      // candidate bucket rebuilds
  long incremental_updates = 0;  // pivots priced via the incremental path
  long dual_iterations = 0;      // pivots taken by the dual loop
  long bound_flips = 0;          // bound-to-bound flips (dual ratio test +
                                 // dual-feasibility repair)
  long refactorizations = 0;     // basis factorizations, incl. the initial
  long steepest_edge_resets = 0;  // exact dual pricing-weight recomputes
  long dual_fallbacks = 0;       // dual requested but basis not repairable
                                 // to dual feasibility; primal ran instead

  void add(const LpStageStats& o) {
    pricing_seconds += o.pricing_seconds;
    ftran_seconds += o.ftran_seconds;
    btran_seconds += o.btran_seconds;
    factor_seconds += o.factor_seconds;
    dse_seconds += o.dse_seconds;
    phase1_iterations += o.phase1_iterations;
    full_refreshes += o.full_refreshes;
    bucket_rebuilds += o.bucket_rebuilds;
    incremental_updates += o.incremental_updates;
    dual_iterations += o.dual_iterations;
    bound_flips += o.bound_flips;
    refactorizations += o.refactorizations;
    steepest_edge_resets += o.steepest_edge_resets;
    dual_fallbacks += o.dual_fallbacks;
  }

  LpStageStats& operator+=(const LpStageStats& o) {
    add(o);
    return *this;
  }
};

struct LpResult {
  SolveStatus status = SolveStatus::kNumericalError;
  double obj = 0.0;                // in the model's original sense
  std::vector<double> x;           // structural variable values
  long iterations = 0;
  double seconds = 0.0;
  std::vector<ColStatus> basis;    // size n+m, for warm starting
  // The supplied warm basis was actually used. False when no basis was
  // given, when it was stale (wrong size / wrong basic count), or when its
  // factorization was singular — all of which silently restart from the
  // slack basis. Callers chaining bases across re-solves (the ST_target
  // probe sessions) use this to count warm hits vs fallbacks.
  bool warm_used = false;
  // The dual simplex loop ran for this solve (a starting basis was used
  // and could be made dual feasible). The reported optimum is still
  // certified by the primal loop's exact pricing pass.
  bool dual_used = false;
  LpStageStats stats;
};

class SimplexEngine {
 public:
  explicit SimplexEngine(const Model& model, LpOptions opts = {});

  // Solves with the given structural bounds (size n). `warm`, when given,
  // is a starting basis of size n+m with m basic columns: one this engine
  // returned, or a slack or crash basis built by the caller. The starting
  // basis picks the algorithm. A `warm` that factors runs the dual loop
  // first, once flipping boxed nonbasic columns has made it dual feasible
  // (the primal loop takes over from it otherwise). No `warm`, or one that
  // cannot be used (wrong size or basic count, singular), runs the
  // two-phase primal loop from the slack basis.
  // The dual loop never decides optimality on its own: the primal loop
  // certifies every result with exact pricing, so statuses and objectives
  // do not depend on which loop ran, only the pivot sequence does.
  LpResult solve(const std::vector<double>& lb, const std::vector<double>& ub,
                 const std::vector<ColStatus>* warm = nullptr);

  // Solves with the model's own bounds.
  LpResult solve(const std::vector<ColStatus>* warm = nullptr);

  void set_options(const LpOptions& opts) { opts_ = opts; }

  // Re-ranges one row's bounds after construction (an RHS patch). The
  // constraint matrix is untouched, so previously returned bases remain
  // structurally valid warm starts: only the slack column's bounds move.
  void set_row_bounds(int row, double lb, double ub);

  int num_structural() const { return n_; }
  const std::vector<double>& model_lb() const { return model_lb_; }
  const std::vector<double>& model_ub() const { return model_ub_; }

 private:
  int n_ = 0;  // structural columns
  int m_ = 0;  // rows == slack columns
  CscMatrix a_;                 // n_ structural + m_ slack columns
  RowMajorMatrix a_rows_;       // row-major mirror for pricing updates
  std::vector<double> cost_;    // size n_+m_, minimization sense
  std::vector<double> model_lb_, model_ub_;  // structural bounds (size n_)
  std::vector<double> slack_lb_, slack_ub_;  // slack bounds (size m_)
  double sign_ = 1.0;           // +1 minimize, -1 maximize
  LpOptions opts_;

  // Dual steepest-edge weight cache, carried across solves. Keyed by the
  // ordered basis column list of the previous dual run's final basis: B&B
  // workers and probe sessions re-solve on one persistent engine, and the
  // warm basis they pass back is usually exactly the basis this engine last
  // left behind, so its (expensive, exact) weights can be reused verbatim.
  std::vector<int> dse_basis_cols_;
  std::vector<double> dse_weights_;
  bool dse_exact_ = false;

  // One dual ratio-test candidate.
  struct DualCand {
    int j;
    double ratio;  // d_j / (sigma * alpha_j), >= 0 at dual feasibility
    double step;   // |alpha_j|
  };

  // All mutable state of one solve. The engine owns it so that repeated
  // solves (B&B nodes, probe chains, dive rounds) reuse its buffers: solve()
  // re-initializes every vector with assign(), which keeps the capacity.
  // Copying an engine copies its scratch too, so B&B workers each own one.
  struct Work {
    std::vector<double> lb, ub;        // size n+m
    std::vector<ColStatus> status;     // size n+m
    std::vector<int> basis;            // size m: column at each position
    std::vector<double> x;             // size n+m
    BasisLu lu;
    std::vector<double> rhs, y, spike, rho;  // size m
    std::vector<double> ya;            // y^T A for full pricing, size n+m
    std::vector<double> d;             // maintained reduced costs, size n+m
    std::vector<double> alpha;         // pivot-row scatter, size n+m
    std::vector<char> alpha_mark;      // size n+m
    std::vector<int> alpha_touched, bucket;
    // Dual loop only.
    std::vector<int> repair, flip_list;
    std::vector<DualCand> cands;
    std::vector<double> dw, flip_rhs, tau, unit;  // size m
  };
  Work work_;
};

// One-shot convenience wrapper.
LpResult solve_lp(const Model& model, const LpOptions& opts = {});

}  // namespace cgraf::milp
