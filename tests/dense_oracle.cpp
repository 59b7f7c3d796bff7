#include "dense_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace flex::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTolerance = 1e-9;  ///< pivoting / feasibility tolerance

/**
 * A flat row-major tableau (stride = cols + 1; last column = rhs) with
 * its reduced-cost row and basis, pivoted by the two-phase method.
 */
class Tableau {
 public:
  Tableau(int rows, int cols, int max_iters)
      : rows_(rows), cols_(cols), stride_(cols + 1), max_iters_(max_iters),
        cells_(static_cast<std::size_t>(rows) *
                   static_cast<std::size_t>(cols + 1),
               0.0),
        phase2_cost_(static_cast<std::size_t>(cols), 0.0),
        basis_(static_cast<std::size_t>(rows), -1),
        artificial_(static_cast<std::size_t>(cols), 0)
  {
  }

  double& At(int i, int j) { return cells_[Idx(i, j)]; }
  double at(int i, int j) const { return cells_[Idx(i, j)]; }
  double& Cost(int j) { return phase2_cost_[static_cast<std::size_t>(j)]; }
  void SetBasic(int row, int col) { basis_[static_cast<std::size_t>(row)] = col; }
  void MarkArtificial(int col) { artificial_[static_cast<std::size_t>(col)] = 1; }

  /** Phase 1 from the natural slack/artificial basis, then Phase 2. */
  LpStatus RunTwoPhase();

  /** Value of column @p j in the current basic solution. */
  double
  ColumnValue(int j) const
  {
    for (int i = 0; i < rows_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] == j)
        return at(i, cols_);
    }
    return 0.0;
  }

  int pivots() const { return pivots_; }

 private:
  std::size_t
  Idx(int i, int j) const
  {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(stride_) +
           static_cast<std::size_t>(j);
  }

  /** Rebuilds the reduced-cost row for the given column costs. */
  void PriceOut(const std::vector<double>& cost);
  void Pivot(int row, int col);
  /** One simplex phase; @p allow_artificial permits artificials entering. */
  LpStatus Phase(bool allow_artificial);

  int rows_;
  int cols_;
  int stride_;
  int max_iters_;
  int pivots_ = 0;
  std::vector<double> cells_;
  std::vector<double> phase2_cost_;
  std::vector<double> reduced_;
  std::vector<int> basis_;
  std::vector<char> artificial_;
};

void
Tableau::PriceOut(const std::vector<double>& cost)
{
  reduced_.assign(static_cast<std::size_t>(stride_), 0.0);
  // reduced[j] = z_j - c_j where z_j = c_B^T (B^-1 A_j); the tableau rows
  // already hold B^-1 A.
  for (int i = 0; i < rows_; ++i) {
    const double cb =
        cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
    if (cb == 0.0)
      continue;
    const double* row = &cells_[Idx(i, 0)];
    for (int j = 0; j <= cols_; ++j)
      reduced_[static_cast<std::size_t>(j)] += cb * row[j];
  }
  for (int j = 0; j < cols_; ++j)
    reduced_[static_cast<std::size_t>(j)] -= cost[static_cast<std::size_t>(j)];
}

void
Tableau::Pivot(int row, int col)
{
  ++pivots_;
  double* pivot_row = &cells_[Idx(row, 0)];
  const double pivot = pivot_row[col];
  FLEX_CHECK_MSG(std::fabs(pivot) > 1e-12, "zero pivot element");
  for (int j = 0; j <= cols_; ++j)
    pivot_row[j] /= pivot;
  for (int i = 0; i < rows_; ++i) {
    if (i == row)
      continue;
    double* other = &cells_[Idx(i, 0)];
    const double factor = other[col];
    if (factor == 0.0)
      continue;
    for (int j = 0; j <= cols_; ++j)
      other[j] -= factor * pivot_row[j];
    other[col] = 0.0;
  }
  const double rfactor = reduced_[static_cast<std::size_t>(col)];
  if (rfactor != 0.0) {
    for (int j = 0; j <= cols_; ++j)
      reduced_[static_cast<std::size_t>(j)] -= rfactor * pivot_row[j];
    reduced_[static_cast<std::size_t>(col)] = 0.0;
  }
  basis_[static_cast<std::size_t>(row)] = col;
}

LpStatus
Tableau::Phase(bool allow_artificial)
{
  int iterations = 0;
  int stalled = 0;
  const int bland_threshold = 2 * (rows_ + cols_);
  double last_objective = -kInf;
  while (true) {
    if (++iterations > max_iters_)
      return LpStatus::kIterationLimit;

    const bool use_bland = stalled > bland_threshold;
    int entering = -1;
    double best = -kTolerance;
    for (int j = 0; j < cols_; ++j) {
      if (!allow_artificial && artificial_[static_cast<std::size_t>(j)])
        continue;
      const double rc = reduced_[static_cast<std::size_t>(j)];
      if (rc < best - 1e-15) {
        if (use_bland) {
          // Bland: first improving index.
          entering = j;
          break;
        }
        best = rc;
        entering = j;
      }
    }
    if (entering < 0)
      return LpStatus::kOptimal;

    // Ratio test.
    int leaving = -1;
    double best_ratio = kInf;
    for (int i = 0; i < rows_; ++i) {
      const double aij = at(i, entering);
      if (aij > kTolerance) {
        const double ratio = at(i, cols_) / aij;
        if (ratio < best_ratio - 1e-12 ||
            (use_bland && std::fabs(ratio - best_ratio) <= 1e-12 &&
             leaving >= 0 &&
             basis_[static_cast<std::size_t>(i)] <
                 basis_[static_cast<std::size_t>(leaving)])) {
          best_ratio = ratio;
          leaving = i;
        }
      }
    }
    if (leaving < 0)
      return LpStatus::kUnbounded;

    Pivot(leaving, entering);

    const double objective = reduced_[static_cast<std::size_t>(cols_)];
    if (objective > last_objective + kTolerance) {
      stalled = 0;
      last_objective = objective;
    } else {
      ++stalled;
    }
  }
}

LpStatus
Tableau::RunTwoPhase()
{
  // Phase 1: maximize -(sum of artificials).
  bool has_artificial = false;
  std::vector<double> phase1_cost(static_cast<std::size_t>(cols_), 0.0);
  for (int j = 0; j < cols_; ++j) {
    if (artificial_[static_cast<std::size_t>(j)]) {
      phase1_cost[static_cast<std::size_t>(j)] = -1.0;
      has_artificial = true;
    }
  }

  if (has_artificial) {
    PriceOut(phase1_cost);
    const LpStatus status = Phase(/*allow_artificial=*/true);
    if (status != LpStatus::kOptimal)
      return status == LpStatus::kUnbounded ? LpStatus::kInfeasible : status;
    // The z-row rhs holds the phase-1 objective -(sum of artificials),
    // which is <= 0; a strictly negative optimum means infeasible.
    if (reduced_[static_cast<std::size_t>(cols_)] < -1e-6)
      return LpStatus::kInfeasible;
    // Drive basic artificials out where possible; remaining ones sit at
    // zero and are forbidden from re-entering in phase 2.
    for (int i = 0; i < rows_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (!artificial_[static_cast<std::size_t>(b)])
        continue;
      for (int j = 0; j < cols_; ++j) {
        if (artificial_[static_cast<std::size_t>(j)])
          continue;
        if (std::fabs(at(i, j)) > kTolerance) {
          Pivot(i, j);
          break;
        }
      }
    }
  }

  PriceOut(phase2_cost_);
  return Phase(/*allow_artificial=*/false);
}

/** One row of the LP in shifted structural columns. */
struct Row {
  std::vector<double> coef;
  Relation relation;
  double rhs;
};

}  // namespace

LpResult
DenseOracleSolve(const Model& model, const BoundOverrides& overrides)
{
  const int n = model.NumVariables();
  FLEX_REQUIRE(overrides.empty() || static_cast<int>(overrides.size()) == n,
               "bound overrides must be empty or cover every variable");

  // Effective bounds.
  std::vector<double> lower(static_cast<std::size_t>(n));
  std::vector<double> upper(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variables()[static_cast<std::size_t>(j)];
    double lo = v.lower;
    double hi = v.upper;
    if (!overrides.empty() && overrides[static_cast<std::size_t>(j)]) {
      lo = std::max(lo, overrides[static_cast<std::size_t>(j)]->first);
      hi = std::min(hi, overrides[static_cast<std::size_t>(j)]->second);
    }
    if (lo > hi + 1e-12) {
      LpResult infeasible;
      infeasible.status = LpStatus::kInfeasible;
      return infeasible;
    }
    FLEX_REQUIRE(std::isfinite(lo),
                 "the dense oracle requires finite lower bounds");
    lower[static_cast<std::size_t>(j)] = lo;
    upper[static_cast<std::size_t>(j)] = hi;
  }

  // Shift y_j = x_j - lower_j. Fixed variables (lo == hi) become constants
  // and drop out of the LP entirely.
  std::vector<int> column_of(static_cast<std::size_t>(n), -1);
  int n_struct = 0;
  for (int j = 0; j < n; ++j) {
    if (upper[static_cast<std::size_t>(j)] -
            lower[static_cast<std::size_t>(j)] > 1e-12)
      column_of[static_cast<std::size_t>(j)] = n_struct++;
  }

  // Rows: model constraints with constants substituted, plus finite upper
  // bounds on the shifted variables.
  std::vector<Row> rows;
  for (const Constraint& c : model.constraints()) {
    Row row{std::vector<double>(static_cast<std::size_t>(n_struct), 0.0),
            c.relation, c.rhs};
    for (const auto& [var, coef] : c.terms)
      row.rhs -= coef * lower[static_cast<std::size_t>(var)];
    for (const auto& [var, coef] : c.terms) {
      const int col = column_of[static_cast<std::size_t>(var)];
      if (col >= 0)
        row.coef[static_cast<std::size_t>(col)] += coef;
    }
    rows.push_back(std::move(row));
  }
  // Upper bounds become explicit rows, except where a model constraint
  // already implies them: if some all-non-negative <= row contains the
  // (shifted) variable with coefficient a > 0 and rhs/a <= bound, then
  // y_j <= rhs/a holds at any feasible point and the extra row would be
  // redundant.
  const std::size_t model_rows = rows.size();
  std::vector<char> usable(model_rows, 0);
  for (std::size_t r = 0; r < model_rows; ++r) {
    usable[r] = rows[r].relation == Relation::kLessEqual &&
                rows[r].rhs >= 0.0 &&
                std::none_of(rows[r].coef.begin(), rows[r].coef.end(),
                             [](double a) { return a < 0.0; });
  }
  for (int j = 0; j < n; ++j) {
    const int col = column_of[static_cast<std::size_t>(j)];
    if (col < 0 || !std::isfinite(upper[static_cast<std::size_t>(j)]))
      continue;
    const double bound =
        upper[static_cast<std::size_t>(j)] - lower[static_cast<std::size_t>(j)];
    bool implied = false;
    for (std::size_t r = 0; r < model_rows && !implied; ++r) {
      if (!usable[r])
        continue;
      const double a = rows[r].coef[static_cast<std::size_t>(col)];
      implied = a > 0.0 && rows[r].rhs / a <= bound + 1e-12;
    }
    if (implied)
      continue;
    Row row{std::vector<double>(static_cast<std::size_t>(n_struct), 0.0),
            Relation::kLessEqual, bound};
    row.coef[static_cast<std::size_t>(col)] = 1.0;
    rows.push_back(std::move(row));
  }

  // Normalize to rhs >= 0 and count slack/artificial columns.
  const int m = static_cast<int>(rows.size());
  int n_slack = 0;
  int n_artificial = 0;
  for (Row& row : rows) {
    if (row.rhs < 0.0) {
      for (double& a : row.coef)
        a = -a;
      row.rhs = -row.rhs;
      if (row.relation == Relation::kLessEqual)
        row.relation = Relation::kGreaterEqual;
      else if (row.relation == Relation::kGreaterEqual)
        row.relation = Relation::kLessEqual;
    }
    n_slack += row.relation != Relation::kEqual ? 1 : 0;
    n_artificial += row.relation != Relation::kLessEqual ? 1 : 0;
  }

  const int cols = n_struct + n_slack + n_artificial;
  Tableau tableau(m, cols, 50 * (m + cols) + 1000);
  const double sign = model.sense() == Sense::kMaximize ? 1.0 : -1.0;
  for (int j = 0; j < n; ++j) {
    const int col = column_of[static_cast<std::size_t>(j)];
    if (col >= 0)
      tableau.Cost(col) =
          sign * model.variables()[static_cast<std::size_t>(j)].objective;
  }
  int next_slack = n_struct;
  int next_artificial = n_struct + n_slack;
  for (int i = 0; i < m; ++i) {
    const Row& row = rows[static_cast<std::size_t>(i)];
    for (int j = 0; j < n_struct; ++j)
      tableau.At(i, j) = row.coef[static_cast<std::size_t>(j)];
    tableau.At(i, cols) = row.rhs;
    if (row.relation != Relation::kEqual) {
      tableau.At(i, next_slack) =
          row.relation == Relation::kLessEqual ? 1.0 : -1.0;
      if (row.relation == Relation::kLessEqual)
        tableau.SetBasic(i, next_slack);
      ++next_slack;
    }
    if (row.relation != Relation::kLessEqual) {
      tableau.At(i, next_artificial) = 1.0;
      tableau.MarkArtificial(next_artificial);
      tableau.SetBasic(i, next_artificial++);
    }
  }

  LpResult result;
  result.status = tableau.RunTwoPhase();
  result.iterations = tableau.pivots();
  if (result.status != LpStatus::kOptimal)
    return result;

  result.x.assign(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    const int col = column_of[static_cast<std::size_t>(j)];
    const double shifted = col >= 0 ? tableau.ColumnValue(col) : 0.0;
    result.x[static_cast<std::size_t>(j)] =
        lower[static_cast<std::size_t>(j)] + shifted;
  }
  result.objective = model.ObjectiveValue(result.x);
  return result;
}

}  // namespace flex::solver
