// Sparse LU factorization of a simplex basis with product-form (eta) updates.
//
// The basis matrices arising from the floorplanner's assignment-style models
// are extremely sparse (a few nonzeros per column, many slack columns), so a
// Markowitz-ordered right-looking elimination keeps fill-in near zero and
// makes FTRAN/BTRAN effectively linear in the basis nonzero count.
#pragma once

#include <vector>

#include "milp/sparse.h"

namespace cgraf::milp {

class BasisLu {
 public:
  // Factorizes B, the m x m matrix whose p-th column is A.column(basis[p]).
  // Returns false if B is numerically singular.
  bool factorize(const CscMatrix& a, const std::vector<int>& basis);

  // Solves B x = b in place (b dense, size m). The solve runs through
  // scratch vectors owned by this factor and swaps the result into `b`, so
  // it allocates nothing; the price is that FTRAN and BTRAN mutate the
  // factor and one BasisLu must not be shared across threads.
  void ftran(std::vector<double>& b);

  // Solves B^T x = b in place (same scratch contract as ftran).
  void btran(std::vector<double>& b);

  // Product-form update: the basis column at position `pos` is replaced by a
  // column whose FTRAN image (spike) is `spike` (dense, size m, as returned
  // by ftran of the entering column). Returns false when the spike pivot is
  // too small, in which case the caller must refactorize instead.
  bool update(const std::vector<double>& spike, int pos);

  int num_updates() const { return static_cast<int>(etas_.size()); }
  int dim() const { return m_; }

  // Total nonzeros in L and U factors (diagnostics / refactor policy).
  int factor_nnz() const;

 private:
  struct Entry {
    int idx;
    double val;
  };
  struct Eta {
    int pos;                     // basis position being replaced
    double pivot;                // spike[pos]
    std::vector<Entry> entries;  // spike entries with idx != pos
  };

  int m_ = 0;
  // Elimination pivots in order: at step k, pivot at (prow_[k], pcol_[k]).
  std::vector<int> prow_, pcol_;
  std::vector<double> pivot_;
  // lcol_[k]: multipliers a_iq/pivot for rows i active at step k.
  // urow_[k]: row-p entries (column position j, value) active at step k.
  std::vector<std::vector<Entry>> lcol_, urow_;
  std::vector<Eta> etas_;
  // FTRAN/BTRAN work vectors (size m once used). A solve fills one and
  // swaps it with the caller's vector, whose old buffer becomes scratch.
  std::vector<double> work_, work2_;
};

}  // namespace cgraf::milp
