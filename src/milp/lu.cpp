#include "milp/lu.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cgraf::milp {

namespace {
constexpr double kDropTol = 1e-12;   // entries below this are treated as 0
constexpr double kPivotTol = 1e-9;   // absolute singularity threshold
constexpr double kRelPivot = 0.01;   // threshold partial pivoting factor
}  // namespace

bool BasisLu::factorize(const CscMatrix& a, const std::vector<int>& basis) {
  m_ = static_cast<int>(basis.size());
  prow_.clear();
  pcol_.clear();
  pivot_.clear();
  lcol_.clear();
  urow_.clear();
  etas_.clear();
  prow_.reserve(static_cast<size_t>(m_));
  pcol_.reserve(static_cast<size_t>(m_));
  pivot_.reserve(static_cast<size_t>(m_));
  lcol_.reserve(static_cast<size_t>(m_));
  urow_.reserve(static_cast<size_t>(m_));
  if (m_ == 0) return true;

  // Active-matrix working copy: column p of the basis, as (row, value) lists.
  std::vector<std::vector<Entry>> cols(static_cast<size_t>(m_));
  std::vector<std::vector<int>> row_adj(static_cast<size_t>(m_));
  std::vector<int> row_count(static_cast<size_t>(m_), 0);
  std::vector<int> col_count(static_cast<size_t>(m_), 0);
  std::vector<char> row_alive(static_cast<size_t>(m_), 1);
  std::vector<char> col_alive(static_cast<size_t>(m_), 1);

  for (int p = 0; p < m_; ++p) {
    const int j = basis[static_cast<size_t>(p)];
    CGRAF_ASSERT(j >= 0 && j < a.cols);
    auto& col = cols[static_cast<size_t>(p)];
    for (int q = a.begin(j); q < a.end(j); ++q) {
      const int r = a.row_idx[static_cast<size_t>(q)];
      const double v = a.value[static_cast<size_t>(q)];
      if (std::abs(v) <= kDropTol) continue;
      col.push_back({r, v});
      row_adj[static_cast<size_t>(r)].push_back(p);
      ++row_count[static_cast<size_t>(r)];
    }
    col_count[static_cast<size_t>(p)] = static_cast<int>(col.size());
    if (col.empty()) return false;  // structurally singular
  }

  // Bucket queue of columns by active count (lazy entries).
  std::vector<std::vector<int>> bucket(static_cast<size_t>(m_) + 1);
  for (int p = 0; p < m_; ++p)
    bucket[static_cast<size_t>(col_count[static_cast<size_t>(p)])].push_back(p);

  // Scatter workspace for column updates.
  std::vector<double> work(static_cast<size_t>(m_), 0.0);
  std::vector<char> in_work(static_cast<size_t>(m_), 0);
  std::vector<int> pattern;
  // Stamp used to dedupe row adjacency scans.
  std::vector<int> col_stamp(static_cast<size_t>(m_), -1);

  auto compact = [&](int p) {
    auto& col = cols[static_cast<size_t>(p)];
    std::erase_if(col, [&](const Entry& e) {
      return !row_alive[static_cast<size_t>(e.idx)];
    });
    col_count[static_cast<size_t>(p)] = static_cast<int>(col.size());
  };

  for (int step = 0; step < m_; ++step) {
    // --- Pivot selection: smallest-count column, stability-thresholded.
    int q = -1;
    for (int cnt = 1; cnt <= m_ && q < 0; ++cnt) {
      auto& b = bucket[static_cast<size_t>(cnt)];
      while (!b.empty()) {
        const int cand = b.back();
        if (!col_alive[static_cast<size_t>(cand)]) {
          b.pop_back();
          continue;
        }
        compact(cand);
        const int actual = col_count[static_cast<size_t>(cand)];
        if (actual != cnt) {
          b.pop_back();
          if (actual > 0) bucket[static_cast<size_t>(actual)].push_back(cand);
          else return false;  // column vanished -> singular
          continue;
        }
        q = cand;
        b.pop_back();
        break;
      }
    }
    if (q < 0) return false;

    auto& colq = cols[static_cast<size_t>(q)];
    // Pick the pivot row: among entries within kRelPivot of the column max,
    // prefer the sparsest row (Markowitz-style fill control).
    double maxabs = 0.0;
    for (const Entry& e : colq) maxabs = std::max(maxabs, std::abs(e.val));
    if (maxabs <= kPivotTol) return false;
    int p = -1;
    double pv = 0.0;
    int best_rc = 0;
    for (const Entry& e : colq) {
      if (std::abs(e.val) < kRelPivot * maxabs) continue;
      const int rc = row_count[static_cast<size_t>(e.idx)];
      if (p < 0 || rc < best_rc ||
          (rc == best_rc && std::abs(e.val) > std::abs(pv))) {
        p = e.idx;
        pv = e.val;
        best_rc = rc;
      }
    }
    CGRAF_ASSERT(p >= 0);

    // --- Record L column (multipliers) for this step.
    std::vector<Entry> lc;
    lc.reserve(colq.size() - 1);
    for (const Entry& e : colq) {
      if (e.idx != p) lc.push_back({e.idx, e.val / pv});
    }

    // --- Gather U row: alive columns j != q containing row p.
    std::vector<Entry> ur;
    for (const int j : row_adj[static_cast<size_t>(p)]) {
      if (j == q || !col_alive[static_cast<size_t>(j)]) continue;
      if (col_stamp[static_cast<size_t>(j)] == step) continue;  // dedupe
      col_stamp[static_cast<size_t>(j)] = step;
      // Find the (alive) row-p entry in column j.
      const auto& colj = cols[static_cast<size_t>(j)];
      for (const Entry& e : colj) {
        if (e.idx == p) {
          if (std::abs(e.val) > kDropTol) ur.push_back({j, e.val});
          break;
        }
      }
    }
    row_adj[static_cast<size_t>(p)].clear();

    // --- Eliminate: update every column in the U row.
    for (const Entry& u : ur) {
      const int j = u.idx;
      auto& colj = cols[static_cast<size_t>(j)];
      pattern.clear();
      for (const Entry& e : colj) {
        // Skip the pivot-row entry (it becomes the U value) and stale
        // entries of already-eliminated rows.
        if (e.idx == p || !row_alive[static_cast<size_t>(e.idx)]) continue;
        work[static_cast<size_t>(e.idx)] = e.val;
        in_work[static_cast<size_t>(e.idx)] = 1;
        pattern.push_back(e.idx);
      }
      for (const Entry& l : lc) {
        const size_t i = static_cast<size_t>(l.idx);
        if (!in_work[i]) {
          in_work[i] = 1;
          work[i] = 0.0;
          pattern.push_back(l.idx);
          // Fill-in: row i gains column j.
          row_adj[i].push_back(j);
          ++row_count[i];
        }
        work[i] -= l.val * u.val;
      }
      colj.clear();
      for (const int r : pattern) {
        const size_t ri = static_cast<size_t>(r);
        if (std::abs(work[ri]) > kDropTol) {
          colj.push_back({r, work[ri]});
        } else {
          --row_count[ri];  // cancellation removed this entry
        }
        in_work[ri] = 0;
        work[ri] = 0.0;
      }
      const int new_count = static_cast<int>(colj.size());
      col_count[static_cast<size_t>(j)] = new_count;
      if (new_count == 0) return false;
      bucket[static_cast<size_t>(new_count)].push_back(j);
    }

    // --- Retire pivot row and column.
    for (const Entry& e : colq) {
      if (e.idx != p) --row_count[static_cast<size_t>(e.idx)];
    }
    row_alive[static_cast<size_t>(p)] = 0;
    col_alive[static_cast<size_t>(q)] = 0;
    colq.clear();

    prow_.push_back(p);
    pcol_.push_back(q);
    pivot_.push_back(pv);
    lcol_.push_back(std::move(lc));
    urow_.push_back(std::move(ur));
  }
  return true;
}

void BasisLu::ftran(std::vector<double>& b) {
  CGRAF_DCHECK(static_cast<int>(b.size()) == m_);
  // Forward: y = L^{-1} b (in elimination order).
  for (int k = 0; k < m_; ++k) {
    const double t = b[static_cast<size_t>(prow_[static_cast<size_t>(k)])];
    if (t != 0.0) {
      for (const Entry& e : lcol_[static_cast<size_t>(k)])
        b[static_cast<size_t>(e.idx)] -= e.val * t;
    }
  }
  // Backward: solve U x = y; x is indexed by basis position.
  std::vector<double>& x = work_;
  x.assign(static_cast<size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    double acc = b[static_cast<size_t>(prow_[static_cast<size_t>(k)])];
    for (const Entry& e : urow_[static_cast<size_t>(k)])
      acc -= e.val * x[static_cast<size_t>(e.idx)];
    x[static_cast<size_t>(pcol_[static_cast<size_t>(k)])] =
        acc / pivot_[static_cast<size_t>(k)];
  }
  b.swap(x);
  // Apply eta updates in application order.
  for (const Eta& eta : etas_) {
    double& t = b[static_cast<size_t>(eta.pos)];
    t /= eta.pivot;
    if (t != 0.0) {
      for (const Entry& e : eta.entries)
        b[static_cast<size_t>(e.idx)] -= e.val * t;
    }
  }
}

void BasisLu::btran(std::vector<double>& b) {
  CGRAF_DCHECK(static_cast<int>(b.size()) == m_);
  // Eta transposes, newest first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = b[static_cast<size_t>(it->pos)];
    for (const Entry& e : it->entries)
      acc -= e.val * b[static_cast<size_t>(e.idx)];
    b[static_cast<size_t>(it->pos)] = acc / it->pivot;
  }
  // Solve U^T w = b (increasing elimination order).
  std::vector<double>& w = work_;
  w.assign(static_cast<size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    const double t = b[static_cast<size_t>(pcol_[static_cast<size_t>(k)])] /
                     pivot_[static_cast<size_t>(k)];
    w[static_cast<size_t>(k)] = t;
    if (t != 0.0) {
      for (const Entry& e : urow_[static_cast<size_t>(k)])
        b[static_cast<size_t>(e.idx)] -= t * e.val;
    }
  }
  // Solve L^T z = w (decreasing order); z indexed by row.
  std::vector<double>& z = work2_;
  z.assign(static_cast<size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    double acc = w[static_cast<size_t>(k)];
    for (const Entry& e : lcol_[static_cast<size_t>(k)])
      acc -= e.val * z[static_cast<size_t>(e.idx)];
    z[static_cast<size_t>(prow_[static_cast<size_t>(k)])] = acc;
  }
  b.swap(z);
}

bool BasisLu::update(const std::vector<double>& spike, int pos) {
  CGRAF_DCHECK(static_cast<int>(spike.size()) == m_);
  CGRAF_DCHECK(pos >= 0 && pos < m_);
  double norm = 0.0;
  for (const double v : spike) norm = std::max(norm, std::abs(v));
  const double piv = spike[static_cast<size_t>(pos)];
  if (std::abs(piv) <= kPivotTol || std::abs(piv) < 1e-7 * norm) return false;

  Eta eta;
  eta.pos = pos;
  eta.pivot = piv;
  for (int i = 0; i < m_; ++i) {
    if (i == pos) continue;
    const double v = spike[static_cast<size_t>(i)];
    if (std::abs(v) > kDropTol) eta.entries.push_back({i, v});
  }
  etas_.push_back(std::move(eta));
  return true;
}

int BasisLu::factor_nnz() const {
  size_t nnz = 0;
  for (const auto& l : lcol_) nnz += l.size();
  for (const auto& u : urow_) nnz += u.size();
  for (const auto& e : etas_) nnz += e.entries.size() + 1;
  return static_cast<int>(nnz + pivot_.size());
}

}  // namespace cgraf::milp
