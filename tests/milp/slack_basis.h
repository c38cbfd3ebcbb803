// One-shot LP solve from an explicit all-slack starting basis. The engine
// picks its loop from the starting basis: a solve with no basis runs the
// two-phase primal loop from its own slack start, while a solve handed
// this basis runs the dual loop from the same vertex (whenever flipping
// boxed columns makes it dual feasible). Tests use the pair as primal and
// dual references.
#pragma once

#include <cstddef>
#include <vector>

#include "milp/model.h"
#include "milp/simplex.h"

namespace cgraf::milp {

inline LpResult solve_lp_from_slack(const Model& m,
                                    const LpOptions& opts = {}) {
  // Every slack basic; every structural nonbasic at its finite lower
  // bound, else at its finite upper bound, else free at zero (the engine's
  // own slack start).
  std::vector<ColStatus> basis(
      static_cast<std::size_t>(m.num_vars() + m.num_constraints()),
      ColStatus::kBasic);
  for (int j = 0; j < m.num_vars(); ++j) {
    const Variable& v = m.var(j);
    basis[static_cast<std::size_t>(j)] =
        v.lb != -kInf  ? ColStatus::kAtLower
        : v.ub != kInf ? ColStatus::kAtUpper
                       : ColStatus::kFreeZero;
  }
  SimplexEngine engine(m, opts);
  return engine.solve(&basis);
}

}  // namespace cgraf::milp
