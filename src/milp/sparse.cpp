#include "milp/sparse.h"

#include <algorithm>
#include <cmath>

#include "milp/model.h"
#include "util/check.h"

namespace cgraf::milp {

void CscMatrix::axpy_col(int j, double alpha, std::vector<double>& y) const {
  CGRAF_DCHECK(j >= 0 && j < cols);
  for (int p = begin(j); p < end(j); ++p)
    y[static_cast<size_t>(row_idx[static_cast<size_t>(p)])] +=
        alpha * value[static_cast<size_t>(p)];
}

double CscMatrix::dot_col(int j, const std::vector<double>& y) const {
  CGRAF_DCHECK(j >= 0 && j < cols);
  double acc = 0.0;
  for (int p = begin(j); p < end(j); ++p)
    acc += value[static_cast<size_t>(p)] *
           y[static_cast<size_t>(row_idx[static_cast<size_t>(p)])];
  return acc;
}

void RowMajorMatrix::transpose_product(const std::vector<double>& y,
                                       std::vector<double>& out) const {
  CGRAF_DCHECK(static_cast<int>(y.size()) == rows);
  out.assign(static_cast<size_t>(cols), 0.0);
  for (int i = 0; i < rows; ++i) {
    const double yi = y[static_cast<size_t>(i)];
    if (yi == 0.0) continue;
    for (int q = begin(i); q < end(i); ++q)
      out[static_cast<size_t>(col_idx[static_cast<size_t>(q)])] +=
          value[static_cast<size_t>(q)] * yi;
  }
}

RowMajorMatrix build_row_major(const CscMatrix& a) {
  RowMajorMatrix r;
  r.rows = a.rows;
  r.cols = a.cols;
  r.row_start.assign(static_cast<size_t>(a.rows) + 1, 0);
  for (const int i : a.row_idx) ++r.row_start[static_cast<size_t>(i) + 1];
  for (int i = 0; i < a.rows; ++i)
    r.row_start[static_cast<size_t>(i) + 1] +=
        r.row_start[static_cast<size_t>(i)];
  r.col_idx.resize(a.row_idx.size());
  r.value.resize(a.value.size());
  std::vector<int> fill(static_cast<size_t>(a.rows), 0);
  // Columns are visited in increasing order, so each row's entries come out
  // sorted by column.
  for (int j = 0; j < a.cols; ++j) {
    for (int p = a.begin(j); p < a.end(j); ++p) {
      const int i = a.row_idx[static_cast<size_t>(p)];
      const int q = r.row_start[static_cast<size_t>(i)] +
                    fill[static_cast<size_t>(i)]++;
      r.col_idx[static_cast<size_t>(q)] = j;
      r.value[static_cast<size_t>(q)] = a.value[static_cast<size_t>(p)];
    }
  }
  return r;
}

CscMatrix from_triplets(int rows, int cols, std::vector<Triplet> triplets) {
  CGRAF_ASSERT(rows >= 0 && cols >= 0);
  for (const Triplet& t : triplets) {
    CGRAF_ASSERT(t.row >= 0 && t.row < rows);
    CGRAF_ASSERT(t.col >= 0 && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.col != b.col ? a.col < b.col : a.row < b.row;
            });

  CscMatrix a;
  a.rows = rows;
  a.cols = cols;
  a.col_start.assign(static_cast<size_t>(cols) + 1, 0);
  a.row_idx.reserve(triplets.size());
  a.value.reserve(triplets.size());
  for (size_t k = 0; k < triplets.size();) {
    const int col = triplets[k].col;
    const int row = triplets[k].row;
    double sum = 0.0;
    for (; k < triplets.size() && triplets[k].col == col &&
           triplets[k].row == row;
         ++k)
      sum += triplets[k].value;
    if (sum == 0.0) continue;  // cancelled duplicates stay out of the matrix
    a.row_idx.push_back(row);
    a.value.push_back(sum);
    ++a.col_start[static_cast<size_t>(col) + 1];
  }
  for (int j = 0; j < cols; ++j)
    a.col_start[static_cast<size_t>(j) + 1] +=
        a.col_start[static_cast<size_t>(j)];
  CGRAF_DCHECK(is_canonical(a));
  return a;
}

bool is_canonical(const CscMatrix& a) {
  if (a.rows < 0 || a.cols < 0) return false;
  if (a.col_start.size() != static_cast<size_t>(a.cols) + 1) return false;
  if (a.col_start.front() != 0) return false;
  if (a.col_start.back() != a.nnz()) return false;
  if (a.value.size() != a.row_idx.size()) return false;
  for (int j = 0; j < a.cols; ++j) {
    if (a.begin(j) > a.end(j)) return false;
    for (int p = a.begin(j); p < a.end(j); ++p) {
      const int r = a.row_idx[static_cast<size_t>(p)];
      if (r < 0 || r >= a.rows) return false;
      // Strictly increasing row indices rule out duplicate (row, col) pairs.
      if (p > a.begin(j) && a.row_idx[static_cast<size_t>(p) - 1] >= r)
        return false;
      if (!std::isfinite(a.value[static_cast<size_t>(p)])) return false;
    }
  }
  return true;
}

CscMatrix build_computational_form(const Model& model) {
  const int m = model.num_constraints();
  const int n = model.num_vars();

  // Count entries per structural column.
  std::vector<int> count(static_cast<size_t>(n), 0);
  for (int r = 0; r < m; ++r) {
    for (const auto& [idx, coeff] : model.constraint(r).terms) {
      (void)coeff;
      ++count[static_cast<size_t>(idx)];
    }
  }

  CscMatrix a;
  a.rows = m;
  a.cols = n + m;
  a.col_start.assign(static_cast<size_t>(a.cols) + 1, 0);
  for (int j = 0; j < n; ++j)
    a.col_start[static_cast<size_t>(j) + 1] =
        a.col_start[static_cast<size_t>(j)] + count[static_cast<size_t>(j)];
  for (int r = 0; r < m; ++r)  // slack columns: one entry each
    a.col_start[static_cast<size_t>(n + r) + 1] =
        a.col_start[static_cast<size_t>(n + r)] + 1;

  a.row_idx.resize(static_cast<size_t>(a.col_start.back()));
  a.value.resize(static_cast<size_t>(a.col_start.back()));

  // Fill structural columns; rows are visited in increasing order, so row
  // indices within each column end up sorted.
  std::vector<int> fill(static_cast<size_t>(n), 0);
  for (int r = 0; r < m; ++r) {
    for (const auto& [idx, coeff] : model.constraint(r).terms) {
      const int p =
          a.col_start[static_cast<size_t>(idx)] + fill[static_cast<size_t>(idx)]++;
      a.row_idx[static_cast<size_t>(p)] = r;
      a.value[static_cast<size_t>(p)] = coeff;
    }
  }
  for (int r = 0; r < m; ++r) {
    const int p = a.col_start[static_cast<size_t>(n + r)];
    a.row_idx[static_cast<size_t>(p)] = r;
    a.value[static_cast<size_t>(p)] = -1.0;
  }
  // Model::add_constraint canonicalizes each row, so the result must be
  // canonical too — a duplicate (row, col) pair here means row terms were
  // mutated behind the model's back.
  CGRAF_DCHECK(is_canonical(a));
  return a;
}

}  // namespace cgraf::milp
