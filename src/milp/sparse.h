// Column-compressed sparse matrix used by the simplex engine.
#pragma once

#include <cstddef>
#include <vector>

namespace cgraf::milp {

class Model;

// Compressed sparse column matrix. Row indices within a column are sorted.
struct CscMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<int> col_start;  // size cols+1
  std::vector<int> row_idx;    // size nnz
  std::vector<double> value;   // size nnz

  int nnz() const { return static_cast<int>(row_idx.size()); }

  // Iterate column j as (row, value) pairs via [begin(j), end(j)).
  int begin(int j) const { return col_start[static_cast<size_t>(j)]; }
  int end(int j) const { return col_start[static_cast<size_t>(j) + 1]; }

  // y += alpha * column(j), y dense of size `rows`.
  void axpy_col(int j, double alpha, std::vector<double>& y) const;

  // Dot product of column(j) with dense vector y.
  double dot_col(int j, const std::vector<double>& y) const;
};

// Row-major mirror of a CscMatrix. The simplex pricing update needs the
// product rho^T A for a sparse rho, which is only cheap when the rows of A
// can be scattered directly; column indices within a row are sorted.
struct RowMajorMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<int> row_start;  // size rows+1
  std::vector<int> col_idx;    // size nnz
  std::vector<double> value;   // size nnz

  int begin(int i) const { return row_start[static_cast<size_t>(i)]; }
  int end(int i) const { return row_start[static_cast<size_t>(i) + 1]; }

  // out = y^T A (out resized to `cols`), scattering only the rows where y
  // is nonzero. Rows are visited in ascending order, so for a mirror of a
  // canonical CscMatrix every out[j] sums the same terms in the same order
  // as CscMatrix::dot_col(j, y) — bit-identical, since a skipped y_i == 0
  // term never changes a partial sum.
  void transpose_product(const std::vector<double>& y,
                         std::vector<double>& out) const;
};

RowMajorMatrix build_row_major(const CscMatrix& a);

// One (row, col, value) entry for from_triplets ingestion.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

// Builds a canonical CscMatrix from an unordered triplet list. Duplicate
// (row, col) entries are merged by summation — the same policy as
// Model::add_constraint — and entries that cancel to exactly zero are
// dropped. Out-of-range indices assert.
CscMatrix from_triplets(int rows, int cols, std::vector<Triplet> triplets);

// True when `a` is in canonical form: monotone col_start spanning exactly
// row_idx/value, row indices in range and strictly increasing within each
// column (hence no duplicate (row, col) entries), and all values finite.
// Everything downstream of the simplex engine assumes this shape;
// from_triplets and build_computational_form guarantee it (DCHECK'd).
bool is_canonical(const CscMatrix& a);

// Builds the simplex "computational form" matrix for a model:
//   columns [0, n_struct)           structural variables,
//   columns [n_struct, n_struct+m)  one slack per row with coefficient -1,
// so that every constraint reads  a_r . x - s_r = 0  with the slack bounded
// by the constraint's range. All RHS values are zero by construction.
CscMatrix build_computational_form(const Model& model);

}  // namespace cgraf::milp
