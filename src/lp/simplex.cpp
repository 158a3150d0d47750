#include "lp/simplex.hpp"

#include <cmath>
#include <cstddef>
#include <limits>

#include "common/check.hpp"

namespace chc::lp {
namespace {

constexpr double kTol = 1e-9;

/// Full-tableau simplex over "min c·y s.t. T y = rhs, y >= 0" with Bland's
/// rule. The tableau is built by the caller; `banned` marks columns (phase-1
/// artificials) that may not re-enter the basis in phase 2.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : m_(rows), n_(cols), t_(rows, std::vector<double>(cols, 0.0)),
        rhs_(rows, 0.0), basis_(rows, 0) {}

  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }
  double& at(std::size_t i, std::size_t j) { return t_[i][j]; }
  double at(std::size_t i, std::size_t j) const { return t_[i][j]; }
  double& rhs(std::size_t i) { return rhs_[i]; }
  double rhs(std::size_t i) const { return rhs_[i]; }
  void set_basis(std::size_t i, std::size_t var) { basis_[i] = var; }
  std::size_t basis(std::size_t i) const { return basis_[i]; }

  /// Runs simplex for the cost vector `c` (size n_). Columns j with
  /// banned[j] never enter. Returns kOptimal or kUnbounded.
  Status run(const std::vector<double>& c, const std::vector<bool>& banned) {
    // Bland's rule guarantees termination; the guard below is a tripwire for
    // implementation bugs, not a convergence knob.
    const std::size_t max_iters = 2000 * (m_ + n_ + 4);
    for (std::size_t iter = 0; iter < max_iters; ++iter) {
      // Price: reduced cost rc_j = c_j - c_B · column_j.
      std::size_t enter = n_;
      for (std::size_t j = 0; j < n_; ++j) {
        if (banned[j]) continue;
        if (is_basic(j)) continue;
        double rc = c[j];
        for (std::size_t i = 0; i < m_; ++i) rc -= c[basis_[i]] * t_[i][j];
        if (rc < -kTol) {  // Bland: first improving column
          enter = j;
          break;
        }
      }
      if (enter == n_) return Status::kOptimal;

      // Ratio test with Bland tie-break (lowest basis variable index).
      std::size_t leave = m_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < m_; ++i) {
        if (t_[i][enter] > kTol) {
          const double ratio = rhs_[i] / t_[i][enter];
          if (ratio < best_ratio - kTol ||
              (ratio < best_ratio + kTol &&
               (leave == m_ || basis_[i] < basis_[leave]))) {
            best_ratio = ratio;
            leave = i;
          }
        }
      }
      if (leave == m_) return Status::kUnbounded;
      // A basic value that roundoff left slightly negative must leave at
      // zero. Pivoting on it as is sets the entering variable to
      // rhs / pivot, which a small pivot turns into a real violation of
      // the constraints (a "Chebyshev centre" outside the polytope).
      if (rhs_[leave] < -kTol * t_[leave][enter]) rhs_[leave] = 0.0;
      pivot(leave, enter);
    }
    CHC_INTERNAL(false, "simplex exceeded its iteration tripwire");
  }

  void pivot(std::size_t row, std::size_t col) {
    const double p = t_[row][col];
    CHC_INTERNAL(std::fabs(p) > kTol * 1e-3, "pivot on (near-)zero element");
    for (std::size_t j = 0; j < n_; ++j) t_[row][j] /= p;
    rhs_[row] /= p;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == row) continue;
      const double factor = t_[i][col];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < n_; ++j) t_[i][j] -= factor * t_[row][j];
      rhs_[i] -= factor * rhs_[row];
    }
    basis_[row] = col;
  }

  double objective(const std::vector<double>& c) const {
    double z = 0.0;
    for (std::size_t i = 0; i < m_; ++i) z += c[basis_[i]] * rhs_[i];
    return z;
  }

  /// Value of variable j in the current basic solution.
  double value(std::size_t j) const {
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] == j) return rhs_[i];
    }
    return 0.0;
  }

  bool is_basic(std::size_t j) const {
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] == j) return true;
    }
    return false;
  }

  /// Drops row `i` (used for redundant rows whose artificial cannot leave).
  void drop_row(std::size_t i) {
    t_.erase(t_.begin() + static_cast<std::ptrdiff_t>(i));
    rhs_.erase(rhs_.begin() + static_cast<std::ptrdiff_t>(i));
    basis_.erase(basis_.begin() + static_cast<std::ptrdiff_t>(i));
    --m_;
  }

 private:
  std::size_t m_, n_;
  std::vector<std::vector<double>> t_;
  std::vector<double> rhs_;
  std::vector<std::size_t> basis_;
};

}  // namespace

Solution minimize(const std::vector<double>& c,
                  const std::vector<std::vector<double>>& A,
                  const std::vector<double>& b) {
  const std::size_t nvar = c.size();
  const std::size_t m = A.size();
  CHC_CHECK(b.size() == m, "b must have one entry per constraint row");
  for (const auto& row : A) {
    CHC_CHECK(row.size() == nvar, "constraint row width must match c");
  }

  // Column layout: [u_0..u_{d-1} | v_0..v_{d-1} | s_0..s_{m-1} | a_0..a_{m-1}]
  // with x_j = u_j - v_j. One artificial per negative-rhs row; unused
  // artificial columns are simply banned from the start.
  const std::size_t u0 = 0;
  const std::size_t v0 = nvar;
  const std::size_t s0 = 2 * nvar;
  const std::size_t a0 = 2 * nvar + m;
  const std::size_t ncols = 2 * nvar + 2 * m;

  Tableau tab(m, ncols);
  std::vector<bool> is_artificial(ncols, false);
  std::vector<bool> art_used(m, false);

  for (std::size_t i = 0; i < m; ++i) {
    const double sign = (b[i] < 0.0) ? -1.0 : 1.0;
    for (std::size_t j = 0; j < nvar; ++j) {
      tab.at(i, u0 + j) = sign * A[i][j];
      tab.at(i, v0 + j) = -sign * A[i][j];
    }
    tab.at(i, s0 + i) = sign;  // slack (negated when row flipped)
    tab.rhs(i) = sign * b[i];
    if (sign > 0.0) {
      tab.set_basis(i, s0 + i);
    } else {
      tab.at(i, a0 + i) = 1.0;
      tab.set_basis(i, a0 + i);
      art_used[i] = true;
    }
    is_artificial[a0 + i] = true;
  }

  std::vector<bool> banned(ncols, false);
  for (std::size_t i = 0; i < m; ++i) {
    if (!art_used[i]) banned[a0 + i] = true;  // never allow unused artificials
  }

  bool any_artificial = false;
  for (bool u : art_used) any_artificial |= u;

  if (any_artificial) {
    std::vector<double> phase1(ncols, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      if (art_used[i]) phase1[a0 + i] = 1.0;
    }
    const Status s1 = tab.run(phase1, banned);
    CHC_INTERNAL(s1 == Status::kOptimal, "phase-1 objective is bounded below");
    if (tab.objective(phase1) > 1e-7) {
      return {Status::kInfeasible, 0.0, {}};
    }
    // Pivot remaining artificials out of the basis (they are at value 0);
    // drop rows that turn out redundant.
    for (std::size_t i = 0; i < tab.rows();) {
      if (!is_artificial[tab.basis(i)]) {
        ++i;
        continue;
      }
      std::size_t col = tab.cols();
      for (std::size_t j = 0; j < tab.cols(); ++j) {
        if (is_artificial[j]) continue;
        if (std::fabs(tab.at(i, j)) > 1e-7) {
          col = j;
          break;
        }
      }
      if (col == tab.cols()) {
        tab.drop_row(i);
      } else {
        tab.pivot(i, col);
        ++i;
      }
    }
    for (std::size_t j = 0; j < ncols; ++j) {
      if (is_artificial[j]) banned[j] = true;
    }
  }

  std::vector<double> phase2(ncols, 0.0);
  for (std::size_t j = 0; j < nvar; ++j) {
    phase2[u0 + j] = c[j];
    phase2[v0 + j] = -c[j];
  }
  const Status s2 = tab.run(phase2, banned);
  if (s2 == Status::kUnbounded) return {Status::kUnbounded, 0.0, {}};

  Solution sol;
  sol.status = Status::kOptimal;
  sol.x.resize(nvar);
  for (std::size_t j = 0; j < nvar; ++j) {
    sol.x[j] = tab.value(u0 + j) - tab.value(v0 + j);
  }
  sol.objective = 0.0;
  for (std::size_t j = 0; j < nvar; ++j) sol.objective += c[j] * sol.x[j];
  return sol;
}

Solution maximize(const std::vector<double>& c,
                  const std::vector<std::vector<double>>& A,
                  const std::vector<double>& b) {
  std::vector<double> neg(c.size());
  for (std::size_t j = 0; j < c.size(); ++j) neg[j] = -c[j];
  Solution sol = minimize(neg, A, b);
  sol.objective = -sol.objective;
  return sol;
}

bool feasible(const std::vector<std::vector<double>>& A,
              const std::vector<double>& b) {
  const std::size_t nvar = A.empty() ? 0 : A[0].size();
  const std::vector<double> zero(nvar, 0.0);
  return minimize(zero, A, b).status == Status::kOptimal;
}

ChebyshevResult chebyshev_center(const std::vector<std::vector<double>>& A,
                                 const std::vector<double>& b) {
  CHC_CHECK(A.size() == b.size(), "A and b must have matching row counts");
  ChebyshevResult out;
  if (A.empty()) return out;  // vacuous system: treat as infeasible input
  const std::size_t d = A[0].size();

  // Variables: (x_0..x_{d-1}, r). Constraints: a_i·x + ||a_i|| r <= b_i,
  // plus r <= R_cap so an unbounded interior yields a finite answer,
  // plus r >= 0 (as -r <= 0) so flat-but-feasible systems report radius 0.
  constexpr double kRadiusCap = 1e7;
  std::vector<std::vector<double>> A2;
  std::vector<double> b2;
  A2.reserve(A.size() + 2);
  b2.reserve(A.size() + 2);
  for (std::size_t i = 0; i < A.size(); ++i) {
    double norm = 0.0;
    for (double a : A[i]) norm += a * a;
    norm = std::sqrt(norm);
    if (norm < 1e-13) {
      if (b[i] < -1e-9) return out;  // 0·x <= negative: infeasible
      continue;                      // trivially satisfied row
    }
    std::vector<double> row(d + 1);
    for (std::size_t j = 0; j < d; ++j) row[j] = A[i][j];
    row[d] = norm;
    A2.push_back(std::move(row));
    b2.push_back(b[i]);
  }
  {
    std::vector<double> cap(d + 1, 0.0), nonneg(d + 1, 0.0);
    cap[d] = 1.0;
    A2.push_back(std::move(cap));
    b2.push_back(kRadiusCap);
    nonneg[d] = -1.0;
    A2.push_back(std::move(nonneg));
    b2.push_back(0.0);
  }

  std::vector<double> obj(d + 1, 0.0);
  obj[d] = 1.0;
  const Solution sol = maximize(obj, A2, b2);
  if (sol.status != Status::kOptimal) return out;  // kInfeasible
  out.feasible = true;
  out.center.assign(sol.x.begin(), sol.x.begin() + static_cast<std::ptrdiff_t>(d));
  out.radius = sol.x[d];
  return out;
}

}  // namespace chc::lp
