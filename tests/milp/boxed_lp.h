// Random boxed-LP generator shared by the dual-equivalence corpus and the
// kernel pivot-identity golden test: the latter pins the exact pivot
// sequences of the former's seeds, so both must draw the same models.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "milp/model.h"
#include "util/rng.h"

namespace cgraf::milp {

// Every column boxed with finite bounds, mixed row senses, random sense.
inline Model random_boxed_lp(Rng& rng, int max_vars, int max_rows) {
  Model m;
  const int nv = 3 + static_cast<int>(
                         rng.next_below(static_cast<std::uint64_t>(max_vars)));
  const int nc = 2 + static_cast<int>(
                         rng.next_below(static_cast<std::uint64_t>(max_rows)));
  for (int j = 0; j < nv; ++j) {
    const double lo = rng.next_double() * 2 - 1;
    m.add_continuous(lo, lo + 0.5 + rng.next_double() * 4,
                     rng.next_double() * 10 - 5);
  }
  for (int r = 0; r < nc; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < nv; ++j)
      if (rng.next_bool(0.55))
        terms.emplace_back(j, rng.next_double() * 6 - 3);
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const double rhs = rng.next_double() * 8 - 2;
    switch (rng.next_below(3)) {
      case 0: m.add_le(std::move(terms), rhs); break;
      case 1: m.add_ge(std::move(terms), -rhs); break;
      default:
        m.add_constraint(std::move(terms), -2.5 - rhs, 2.5 + rhs);
        break;
    }
  }
  if (rng.next_bool(0.5)) m.set_sense(Sense::kMaximize);
  return m;
}

}  // namespace cgraf::milp
