/**
 * @file
 * Unit tests for the LP simplex and branch-and-bound MILP solvers.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "solver/branch_and_bound.hpp"
#include "solver/model.hpp"
#include "solver/presolve.hpp"
#include "solver/simplex.hpp"
#include "dense_oracle.hpp"

namespace flex::solver {
namespace {

TEST(SimplexTest, SolvesTrivialSingleVariable)
{
  Model m;
  const VarIndex x = m.AddContinuous("x", 0.0, 10.0, 1.0);
  const LpResult r = SimplexSolver().Solve(m);
  ASSERT_TRUE(r.IsOptimal());
  EXPECT_NEAR(r.objective, 10.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 10.0, 1e-6);
}

TEST(SimplexTest, SolvesTwoVariableLp)
{
  // maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6; optimum (4, 0) -> 12.
  Model m;
  const VarIndex x = m.AddContinuous("x", 0.0, 1e9, 3.0);
  const VarIndex y = m.AddContinuous("y", 0.0, 1e9, 2.0);
  m.AddConstraint("c1", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 4.0);
  m.AddConstraint("c2", {{x, 1.0}, {y, 3.0}}, Relation::kLessEqual, 6.0);
  const LpResult r = SimplexSolver().Solve(m);
  ASSERT_TRUE(r.IsOptimal());
  EXPECT_NEAR(r.objective, 12.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 4.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y)], 0.0, 1e-6);
}

TEST(SimplexTest, HandlesGreaterEqualAndEquality)
{
  // minimize 2x + 3y s.t. x + y = 10, x >= 4; optimum (10, 0)? x>=4, y>=0:
  // x=10, y=0 -> 20.
  Model m;
  m.SetSense(Sense::kMinimize);
  const VarIndex x = m.AddContinuous("x", 0.0, 1e9, 2.0);
  const VarIndex y = m.AddContinuous("y", 0.0, 1e9, 3.0);
  m.AddConstraint("sum", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 10.0);
  m.AddConstraint("min_x", {{x, 1.0}}, Relation::kGreaterEqual, 4.0);
  const LpResult r = SimplexSolver().Solve(m);
  ASSERT_TRUE(r.IsOptimal());
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 10.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasibility)
{
  Model m;
  const VarIndex x = m.AddContinuous("x", 0.0, 5.0, 1.0);
  m.AddConstraint("impossible", {{x, 1.0}}, Relation::kGreaterEqual, 6.0);
  const LpResult r = SimplexSolver().Solve(m);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness)
{
  Model m;
  const VarIndex x = m.AddContinuous(
      "x", 0.0, std::numeric_limits<double>::infinity(), 1.0);
  m.AddConstraint("weak", {{x, -1.0}}, Relation::kLessEqual, 1.0);
  const LpResult r = SimplexSolver().Solve(m);
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
}

TEST(SimplexTest, RespectsNonZeroLowerBounds)
{
  // minimize x + y with x in [2, 8], y in [3, 9] -> 5 at (2, 3).
  Model m;
  m.SetSense(Sense::kMinimize);
  const VarIndex x = m.AddContinuous("x", 2.0, 8.0, 1.0);
  const VarIndex y = m.AddContinuous("y", 3.0, 9.0, 1.0);
  const LpResult r = SimplexSolver().Solve(m);
  ASSERT_TRUE(r.IsOptimal());
  EXPECT_NEAR(r.objective, 5.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 2.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y)], 3.0, 1e-6);
}

TEST(SimplexTest, SubstitutesFixedVariables)
{
  // x fixed at 3 via equal bounds; maximize x + y, y <= 4.
  Model m;
  m.AddContinuous("x", 3.0, 3.0, 1.0);
  const VarIndex y = m.AddContinuous("y", 0.0, 4.0, 1.0);
  const LpResult r = SimplexSolver().Solve(m);
  ASSERT_TRUE(r.IsOptimal());
  EXPECT_NEAR(r.objective, 7.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y)], 4.0, 1e-6);
}

TEST(SimplexTest, BoundOverridesTightenTheFeasibleRegion)
{
  Model m;
  const VarIndex x = m.AddContinuous("x", 0.0, 10.0, 1.0);
  BoundOverrides overrides(1);
  overrides[static_cast<std::size_t>(x)] = {0.0, 4.0};
  const LpResult r = SimplexSolver().SolveWithBounds(m, overrides);
  ASSERT_TRUE(r.IsOptimal());
  EXPECT_NEAR(r.objective, 4.0, 1e-6);
}

TEST(SimplexTest, ConflictingOverridesAreInfeasible)
{
  Model m;
  m.AddContinuous("x", 2.0, 10.0, 1.0);
  BoundOverrides overrides(1);
  overrides[0] = {0.0, 1.0};  // intersects model bounds to empty
  const LpResult r = SimplexSolver().SolveWithBounds(m, overrides);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, HandlesDegenerateProblemsWithoutCycling)
{
  // Classic Beale cycling example (will cycle under naive Dantzig rule
  // without anti-cycling); just assert we terminate at the optimum 0.05.
  Model m;
  const VarIndex x1 = m.AddContinuous("x1", 0.0, 1e9, 0.75);
  const VarIndex x2 = m.AddContinuous("x2", 0.0, 1e9, -150.0);
  const VarIndex x3 = m.AddContinuous("x3", 0.0, 1e9, 0.02);
  const VarIndex x4 = m.AddContinuous("x4", 0.0, 1e9, -6.0);
  m.AddConstraint("r1",
                  {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                  Relation::kLessEqual, 0.0);
  m.AddConstraint("r2",
                  {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                  Relation::kLessEqual, 0.0);
  m.AddConstraint("r3", {{x3, 1.0}}, Relation::kLessEqual, 1.0);
  const LpResult r = SimplexSolver().Solve(m);
  ASSERT_TRUE(r.IsOptimal());
  EXPECT_NEAR(r.objective, 0.05, 1e-6);
}

TEST(BranchAndBoundTest, SolvesSmallKnapsack)
{
  // values {10, 13, 7}, weights {4, 6, 3}, capacity 9 -> best {10, 7} = 17?
  // {13, 7} weight 9 value 20. Optimal 20.
  Model m;
  const VarIndex a = m.AddBinary("a", 10.0);
  const VarIndex b = m.AddBinary("b", 13.0);
  const VarIndex c = m.AddBinary("c", 7.0);
  m.AddConstraint("cap", {{a, 4.0}, {b, 6.0}, {c, 3.0}},
                  Relation::kLessEqual, 9.0);
  const MipResult r = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(a)], 0.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(b)], 1.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(c)], 1.0, 1e-6);
}

TEST(BranchAndBoundTest, SolvesAssignmentProblem)
{
  // 3 tasks x 3 agents, costs; minimize. Known optimum 5 (1+1+3? compute):
  // cost matrix {{4,1,3},{2,0,5},{3,2,2}} -> assignment t0->a1(1),
  // t1->a0(2), t2->a2(2) = 5.
  const double cost[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  Model m;
  m.SetSense(Sense::kMinimize);
  VarIndex x[3][3];
  for (int t = 0; t < 3; ++t) {
    for (int a = 0; a < 3; ++a)
      x[t][a] = m.AddBinary("x", cost[t][a]);
  }
  for (int t = 0; t < 3; ++t) {
    m.AddConstraint("task",
                    {{x[t][0], 1.0}, {x[t][1], 1.0}, {x[t][2], 1.0}},
                    Relation::kEqual, 1.0);
  }
  for (int a = 0; a < 3; ++a) {
    m.AddConstraint("agent",
                    {{x[0][a], 1.0}, {x[1][a], 1.0}, {x[2][a], 1.0}},
                    Relation::kEqual, 1.0);
  }
  const MipResult r = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);
}

TEST(BranchAndBoundTest, ReportsInfeasibleIntegerProblems)
{
  Model m;
  const VarIndex a = m.AddBinary("a", 1.0);
  const VarIndex b = m.AddBinary("b", 1.0);
  m.AddConstraint("sum2", {{a, 1.0}, {b, 1.0}}, Relation::kEqual, 2.0);
  m.AddConstraint("cap", {{a, 1.0}, {b, 1.0}}, Relation::kLessEqual, 1.0);
  const MipResult r = BranchAndBoundSolver().Solve(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
  EXPECT_FALSE(r.HasSolution());
}

TEST(BranchAndBoundTest, HandlesMixedIntegerContinuous)
{
  // maximize 5b + z with z <= 2.5, b binary, b + z <= 3 -> b=1, z=2 -> 7.
  Model m;
  const VarIndex b = m.AddBinary("b", 5.0);
  const VarIndex z = m.AddContinuous("z", 0.0, 2.5, 1.0);
  m.AddConstraint("link", {{b, 1.0}, {z, 1.0}}, Relation::kLessEqual, 3.0);
  const MipResult r = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(b)], 1.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(z)], 2.0, 1e-6);
}

TEST(BranchAndBoundTest, SolvesGeneralIntegerVariables)
{
  // maximize x with 3x <= 10, x integer -> 3.
  Model m;
  const VarIndex x = m.AddInteger("x", 0.0, 100.0, 1.0);
  m.AddConstraint("c", {{x, 3.0}}, Relation::kLessEqual, 10.0);
  const MipResult r = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);
}

TEST(BranchAndBoundTest, LargerKnapsackMatchesDynamicProgramming)
{
  // 18-item knapsack cross-checked against a DP solution computed here.
  const std::vector<double> values = {12, 7,  11, 8,  9,  6, 13, 5, 14,
                                      10, 4,  15, 3,  16, 2, 17, 1, 18};
  const std::vector<int> weights = {4, 2, 3, 5, 2, 3, 6, 1, 7,
                                    4, 2, 6, 1, 8, 1, 9, 1, 10};
  const int capacity = 25;

  // DP over integer weights.
  std::vector<double> dp(static_cast<std::size_t>(capacity) + 1, 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (int w = capacity; w >= weights[i]; --w) {
      dp[static_cast<std::size_t>(w)] =
          std::max(dp[static_cast<std::size_t>(w)],
                   dp[static_cast<std::size_t>(w - weights[i])] + values[i]);
    }
  }
  const double best = dp[static_cast<std::size_t>(capacity)];

  Model m;
  std::vector<std::pair<VarIndex, double>> terms;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const VarIndex v = m.AddBinary("item", values[i]);
    terms.push_back({v, static_cast<double>(weights[i])});
  }
  m.AddConstraint("cap", terms, Relation::kLessEqual,
                  static_cast<double>(capacity));
  const MipResult r = BranchAndBoundSolver().Solve(m);
  ASSERT_TRUE(r.HasSolution());
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, best, 1e-6);
}

TEST(BranchAndBoundTest, HonoursNodeBudgetAndStillReturnsIncumbent)
{
  BranchAndBoundSolver::Options options;
  options.max_nodes = 3;
  Model m;
  std::vector<std::pair<VarIndex, double>> terms;
  for (int i = 0; i < 30; ++i) {
    const VarIndex v = m.AddBinary("b", 1.0 + 0.01 * i);
    terms.push_back({v, 1.0 + 0.013 * i});
  }
  m.AddConstraint("cap", terms, Relation::kLessEqual, 7.7);
  const MipResult r = BranchAndBoundSolver(options).Solve(m);
  // The greedy dive should have produced some incumbent even with only
  // three nodes explored.
  EXPECT_TRUE(r.HasSolution());
  EXPECT_LE(r.nodes_explored, 3);
  EXPECT_GE(r.bound, r.objective - 1e-9);
}

TEST(BranchAndBoundTest, WarmStartSeedsTheIncumbent)
{
  // A fractional root (a = 1, b = 0.5) plus a zero-node budget: without
  // a warm start this returns no solution; with one, the caller's
  // feasible point is the incumbent.
  Model m;
  const VarIndex a = m.AddBinary("a", 1.0);
  const VarIndex b = m.AddBinary("b", 1.0);
  m.AddConstraint("cap", {{a, 2.0}, {b, 2.0}}, Relation::kLessEqual, 3.0);

  BranchAndBoundSolver::Options options;
  options.max_nodes = 0;
  options.dive_depth = 0;
  const MipResult cold = BranchAndBoundSolver(options).Solve(m);
  EXPECT_FALSE(cold.HasSolution());

  options.warm_start = {1.0, 0.0};  // feasible, objective 1
  const MipResult warm = BranchAndBoundSolver(options).Solve(m);
  ASSERT_TRUE(warm.HasSolution());
  EXPECT_NEAR(warm.objective, 1.0, 1e-9);
}

TEST(BranchAndBoundTest, InfeasibleWarmStartIsIgnored)
{
  Model m;
  const VarIndex a = m.AddBinary("a", 3.0);
  const VarIndex b = m.AddBinary("b", 2.0);
  m.AddConstraint("cap", {{a, 1.0}, {b, 1.0}}, Relation::kLessEqual, 1.0);
  BranchAndBoundSolver::Options options;
  options.warm_start = {1.0, 1.0};  // violates the constraint
  const MipResult result = BranchAndBoundSolver(options).Solve(m);
  // Solved normally to the true optimum despite the bogus seed.
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, 3.0, 1e-9);
}

TEST(BranchAndBoundTest, WarmStartNeverWorseThanItsSeed)
{
  // Even with a tiny budget the reported objective is at least the
  // warm start's.
  Rng rng(55);
  Model m;
  std::vector<std::pair<VarIndex, double>> terms;
  std::vector<double> seed;
  for (int i = 0; i < 40; ++i) {
    const VarIndex v = m.AddBinary("b", rng.Uniform(1.0, 5.0));
    terms.push_back({v, rng.Uniform(1.0, 3.0)});
    seed.push_back(i % 4 == 0 ? 1.0 : 0.0);
  }
  m.AddConstraint("cap", terms, Relation::kLessEqual, 25.0);
  if (!m.IsFeasible(seed))
    seed.assign(40, 0.0);
  const double seed_value = m.ObjectiveValue(seed);

  BranchAndBoundSolver::Options options;
  options.time_budget_seconds = 0.05;
  options.warm_start = seed;
  const MipResult result = BranchAndBoundSolver(options).Solve(m);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_GE(result.objective, seed_value - 1e-9);
}

TEST(SimplexTest, ImpliedBoundEliminationPreservesCorrectness)
{
  // Binary-style variables whose x <= 1 bound is implied by a
  // "place once" row: the optimizer must still respect it.
  Model m;
  const VarIndex x = m.AddContinuous("x", 0.0, 1.0, 5.0);
  const VarIndex y = m.AddContinuous("y", 0.0, 1.0, 3.0);
  m.AddConstraint("once", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 1.0);
  const LpResult r = SimplexSolver().Solve(m);
  ASSERT_TRUE(r.IsOptimal());
  EXPECT_NEAR(r.objective, 5.0, 1e-6);
  EXPECT_LE(r.x[static_cast<std::size_t>(x)], 1.0 + 1e-9);
  EXPECT_LE(r.x[static_cast<std::size_t>(y)], 1.0 + 1e-9);
}

TEST(SimplexTest, NonImpliedBoundsStillEnforced)
{
  // The constraint does NOT imply the bound (rhs/coef > upper): the
  // explicit bound row must survive elimination.
  Model m;
  const VarIndex x = m.AddContinuous("x", 0.0, 2.0, 1.0);
  m.AddConstraint("loose", {{x, 1.0}}, Relation::kLessEqual, 10.0);
  const LpResult r = SimplexSolver().Solve(m);
  ASSERT_TRUE(r.IsOptimal());
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(SimplexTest, WarmBasisReSolveMatchesColdSolve)
{
  // maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> (4, 0). Tightening
  // x <= 2 moves the unique optimum to (2, 4/3). The warm re-solve from
  // the parent basis must land exactly where a cold solve does.
  Model m;
  const VarIndex x = m.AddContinuous("x", 0.0, 1e9, 3.0);
  const VarIndex y = m.AddContinuous("y", 0.0, 1e9, 2.0);
  m.AddConstraint("c1", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 4.0);
  m.AddConstraint("c2", {{x, 1.0}, {y, 3.0}}, Relation::kLessEqual, 6.0);

  const SimplexSolver solver;
  SimplexWorkspace workspace;
  SimplexBasis basis;
  BoundOverrides overrides(2);
  const LpResult parent =
      solver.SolveWithBounds(m, overrides, &workspace, nullptr, &basis);
  ASSERT_TRUE(parent.IsOptimal());
  ASSERT_FALSE(basis.empty());
  EXPECT_FALSE(parent.warm_start_attempted);

  overrides[static_cast<std::size_t>(x)] = {0.0, 2.0};
  const LpResult warm =
      solver.SolveWithBounds(m, overrides, &workspace, &basis, nullptr);
  const LpResult cold = solver.SolveWithBounds(m, overrides);
  ASSERT_TRUE(warm.IsOptimal());
  ASSERT_TRUE(cold.IsOptimal());
  EXPECT_TRUE(warm.warm_start_attempted);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t i = 0; i < warm.x.size(); ++i)
    EXPECT_NEAR(warm.x[i], cold.x[i], 1e-9);
  EXPECT_NEAR(warm.x[static_cast<std::size_t>(x)], 2.0, 1e-9);
  EXPECT_NEAR(warm.x[static_cast<std::size_t>(y)], 4.0 / 3.0, 1e-9);
}

TEST(SimplexTest, WarmBasisFallsBackWhenBoundsChangeFeasibility)
{
  // The parent's optimal basis becomes infeasible when x is forced up;
  // the warm path must detect this and silently re-solve cold.
  Model m;
  m.SetSense(Sense::kMinimize);
  const VarIndex x = m.AddContinuous("x", 0.0, 10.0, 1.0);
  const VarIndex y = m.AddContinuous("y", 0.0, 10.0, 1.0);
  m.AddConstraint("sum", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 2.0);

  const SimplexSolver solver;
  SimplexWorkspace workspace;
  SimplexBasis basis;
  BoundOverrides overrides(2);
  const LpResult parent =
      solver.SolveWithBounds(m, overrides, &workspace, nullptr, &basis);
  ASSERT_TRUE(parent.IsOptimal());

  overrides[static_cast<std::size_t>(x)] = {5.0, 10.0};
  const LpResult warm =
      solver.SolveWithBounds(m, overrides, &workspace, &basis, nullptr);
  ASSERT_TRUE(warm.IsOptimal());
  EXPECT_NEAR(warm.objective, 5.0, 1e-9);
  EXPECT_NEAR(warm.x[static_cast<std::size_t>(x)], 5.0, 1e-9);
}

TEST(BranchAndBoundTest, ParallelSolveIsBitIdenticalToSerial)
{
  // The wave-synchronous design promises the same incumbent, bound, and
  // node count at any thread width. Exercise 1 vs explicit 2- and
  // 8-lane pools on a knapsack that branches substantially.
  Rng rng(99);
  Model m;
  std::vector<std::pair<VarIndex, double>> terms;
  for (int i = 0; i < 26; ++i) {
    const VarIndex v = m.AddBinary("b", rng.Uniform(1.0, 9.0));
    terms.push_back({v, rng.Uniform(1.0, 5.0)});
  }
  m.AddConstraint("cap", terms, Relation::kLessEqual, 20.0);

  BranchAndBoundSolver::Options serial_options;
  serial_options.threads = 1;
  const MipResult serial = BranchAndBoundSolver(serial_options).Solve(m);
  ASSERT_EQ(serial.status, MipStatus::kOptimal);
  EXPECT_EQ(serial.threads_used, 1);

  for (const int threads : {2, 8}) {
    common::ThreadPool pool(threads);
    BranchAndBoundSolver::Options options;
    options.pool = &pool;
    const MipResult parallel = BranchAndBoundSolver(options).Solve(m);
    ASSERT_EQ(parallel.status, MipStatus::kOptimal);
    EXPECT_EQ(parallel.threads_used, threads);
    // Bit-identical, not just close: same incumbent vector, objective,
    // bound, and explored-node count.
    EXPECT_EQ(parallel.objective, serial.objective);
    EXPECT_EQ(parallel.bound, serial.bound);
    EXPECT_EQ(parallel.x, serial.x);
    EXPECT_EQ(parallel.nodes_explored, serial.nodes_explored);
    EXPECT_EQ(parallel.lp_solves, serial.lp_solves);
    // Lane attribution is telemetry, but it must account for every node.
    std::int64_t lane_sum = 0;
    for (const std::int64_t n : parallel.nodes_per_thread)
      lane_sum += n;
    EXPECT_EQ(lane_sum, parallel.nodes_explored);
  }
}

TEST(BranchAndBoundTest, ReportsBasisReuseTelemetry)
{
  Rng rng(7);
  Model m;
  std::vector<std::pair<VarIndex, double>> terms;
  for (int i = 0; i < 20; ++i) {
    const VarIndex v = m.AddBinary("b", rng.Uniform(1.0, 9.0));
    terms.push_back({v, rng.Uniform(1.0, 5.0)});
  }
  m.AddConstraint("cap", terms, Relation::kLessEqual, 15.0);
  const MipResult r = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  // Every non-root LP carries the parent basis; most installs succeed.
  EXPECT_GT(r.basis_reuse_attempts, 0);
  EXPECT_GT(r.basis_reuse_hits, 0);
  EXPECT_LE(r.basis_reuse_hits, r.basis_reuse_attempts);
}

TEST(SolverTraceTest, SolveEmitsConvergenceCurveAndCsv)
{
  // Knapsack large enough that the solve branches at least once.
  Model m;
  std::vector<VarIndex> items;
  const double values[] = {10, 13, 7, 9, 4, 11};
  const double weights[] = {4, 6, 3, 5, 2, 6};
  std::vector<std::pair<VarIndex, double>> cap_terms;
  for (int i = 0; i < 6; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    items.push_back(m.AddBinary(name, values[i]));
    cap_terms.emplace_back(items.back(), weights[i]);
  }
  m.AddConstraint("cap", cap_terms, Relation::kLessEqual, 12.0);

  SolverTrace trace;
  BranchAndBoundSolver::Options options;
  options.trace = &trace;
  options.trace_node_interval = 1;  // sample every node
  const MipResult result = BranchAndBoundSolver(options).Solve(m);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_GT(result.lp_solves, 0);
  EXPECT_GT(result.simplex_pivots, 0);

  ASSERT_GE(trace.size(), 2u);
  const auto& points = trace.points();
  EXPECT_EQ(points.front().label, "root");
  EXPECT_EQ(points.back().label, "final");
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i - 1].elapsed_s, points[i].elapsed_s);
    EXPECT_LE(points[i - 1].nodes, points[i].nodes);
    EXPECT_LE(points[i - 1].lp_solves, points[i].lp_solves);
  }
  // The final point mirrors the result's counters and objective.
  EXPECT_EQ(points.back().nodes, result.nodes_explored);
  EXPECT_EQ(points.back().lp_solves, result.lp_solves);
  EXPECT_EQ(points.back().pivots, result.simplex_pivots);
  EXPECT_TRUE(points.back().has_incumbent);
  EXPECT_NEAR(points.back().incumbent, result.objective, 1e-9);

  const std::string csv = trace.ToCsv();
  EXPECT_EQ(csv.rfind(
                "label,elapsed_s,nodes,lp_solves,pivots,bound,incumbent,gap",
                0),
            0u);
  EXPECT_NE(csv.find("\nfinal,"), std::string::npos);
}

TEST(SolverTraceTest, WarmStartAppearsAsImmediateIncumbent)
{
  Model m;
  const VarIndex a = m.AddBinary("a", 10.0);
  const VarIndex b = m.AddBinary("b", 13.0);
  m.AddConstraint("cap", {{a, 4.0}, {b, 6.0}}, Relation::kLessEqual, 6.0);

  SolverTrace trace;
  BranchAndBoundSolver::Options options;
  options.trace = &trace;
  options.warm_start = {1.0, 0.0};  // feasible, value 10
  BranchAndBoundSolver(options).Solve(m);
  ASSERT_FALSE(trace.empty());
  // The seeded incumbent is traced before the root relaxation point.
  EXPECT_EQ(trace.points().front().label, "incumbent");
  EXPECT_TRUE(trace.points().front().has_incumbent);
  EXPECT_NEAR(trace.points().front().incumbent, 10.0, 1e-9);
}

/** Random bounded MIP used by the presolve round-trip property test.
 * Finite bounds everywhere, so every instance is optimal or infeasible. */
Model
MakeRandomMip(std::uint64_t seed)
{
  Rng rng(seed * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
  Model m;
  m.SetSense(rng.Bernoulli(0.5) ? Sense::kMaximize : Sense::kMinimize);
  const int n = 1 + static_cast<int>(rng.UniformInt(0, 9));
  const int rows = 1 + static_cast<int>(rng.UniformInt(0, 7));
  for (int j = 0; j < n; ++j) {
    const double roll = rng.NextDouble();
    const double obj = rng.Uniform(-6.0, 6.0);
    if (roll < 0.4) {
      m.AddBinary("b" + std::to_string(j), obj);
    } else if (roll < 0.6) {
      const double lo = static_cast<double>(rng.UniformInt(-3, 0));
      m.AddInteger("i" + std::to_string(j), lo,
                   lo + static_cast<double>(rng.UniformInt(1, 6)), obj);
    } else {
      const double lo = rng.Uniform(-4.0, 4.0);
      m.AddContinuous("x" + std::to_string(j), lo,
                      lo + rng.Uniform(0.0, 8.0), obj);
    }
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<std::pair<VarIndex, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.7))
        terms.emplace_back(j, rng.Uniform(-4.0, 4.0));
    }
    m.AddConstraint("c" + std::to_string(i), std::move(terms),
                    static_cast<Relation>(rng.UniformInt(0, 2)),
                    rng.Uniform(-8.0, 8.0));
  }
  return m;
}

TEST(PresolveTest, RoundTripPreservesOptimumOn200RandomModels)
{
  // Property: presolve -> solve reduced -> postsolve yields a feasible
  // point of the ORIGINAL model whose objective (plus the presolve
  // offset) matches solving the original model unreduced. Checked both
  // at the Presolve/Postsolve API level and through the B&B presolve
  // option.
  BranchAndBoundSolver::Options raw;
  raw.presolve = false;
  raw.threads = 1;
  BranchAndBoundSolver::Options pre_on;
  pre_on.presolve = true;
  pre_on.threads = 1;
  int reduced_something = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Model m = MakeRandomMip(seed);
    const MipResult baseline = BranchAndBoundSolver(raw).Solve(m);
    ASSERT_TRUE(baseline.status == MipStatus::kOptimal ||
                baseline.status == MipStatus::kInfeasible);

    Presolved pre;
    if (Presolve(m, &pre) == PresolveStatus::kInfeasible) {
      EXPECT_EQ(baseline.status, MipStatus::kInfeasible);
      continue;
    }
    if (pre.rows_removed > 0 || pre.cols_removed > 0)
      ++reduced_something;
    const MipResult reduced = BranchAndBoundSolver(raw).Solve(pre.reduced);
    ASSERT_EQ(reduced.status == MipStatus::kOptimal,
              baseline.status == MipStatus::kOptimal);
    if (reduced.status == MipStatus::kOptimal) {
      std::vector<double> full;
      Postsolve(pre, reduced.x, &full);
      EXPECT_TRUE(m.IsFeasible(full, 1e-6));
      const double scale = std::max(1.0, std::fabs(baseline.objective));
      EXPECT_NEAR(reduced.objective + pre.objective_offset,
                  baseline.objective, 1e-6 * scale);
      EXPECT_NEAR(m.ObjectiveValue(full), baseline.objective, 1e-6 * scale);
    }

    // End-to-end through the solver option.
    const MipResult through = BranchAndBoundSolver(pre_on).Solve(m);
    ASSERT_EQ(through.status == MipStatus::kOptimal,
              baseline.status == MipStatus::kOptimal);
    if (through.status == MipStatus::kOptimal) {
      EXPECT_TRUE(m.IsFeasible(through.x, 1e-6));
      const double scale = std::max(1.0, std::fabs(baseline.objective));
      EXPECT_NEAR(through.objective, baseline.objective, 1e-6 * scale);
    }
  }
  // The property is vacuous if presolve never fires on this corpus.
  EXPECT_GE(reduced_something, 20);
}

TEST(PresolveTest, FixturesUnchangedByPresolve)
{
  // The MIP fixtures elsewhere in this file, solved with presolve on and
  // off: identical status and optimal value.
  std::vector<Model> fixtures;
  {
    Model m;  // knapsack: optimum 20
    const VarIndex a = m.AddBinary("a", 10.0);
    const VarIndex b = m.AddBinary("b", 13.0);
    const VarIndex c = m.AddBinary("c", 7.0);
    m.AddConstraint("cap", {{a, 4.0}, {b, 6.0}, {c, 3.0}},
                    Relation::kLessEqual, 9.0);
    fixtures.push_back(std::move(m));
  }
  {
    Model m;  // mixed integer/continuous: optimum 7
    const VarIndex b = m.AddBinary("b", 5.0);
    const VarIndex z = m.AddContinuous("z", 0.0, 2.5, 1.0);
    m.AddConstraint("link", {{b, 1.0}, {z, 1.0}}, Relation::kLessEqual, 3.0);
    fixtures.push_back(std::move(m));
  }
  {
    Model m;  // infeasible: sum == 2 but cap <= 1
    const VarIndex a = m.AddBinary("a", 1.0);
    const VarIndex b = m.AddBinary("b", 1.0);
    m.AddConstraint("sum2", {{a, 1.0}, {b, 1.0}}, Relation::kEqual, 2.0);
    m.AddConstraint("cap", {{a, 1.0}, {b, 1.0}}, Relation::kLessEqual, 1.0);
    fixtures.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    SCOPED_TRACE("fixture " + std::to_string(i));
    BranchAndBoundSolver::Options on;
    on.presolve = true;
    BranchAndBoundSolver::Options off;
    off.presolve = false;
    const MipResult with = BranchAndBoundSolver(on).Solve(fixtures[i]);
    const MipResult without = BranchAndBoundSolver(off).Solve(fixtures[i]);
    ASSERT_EQ(with.status, without.status);
    if (with.HasSolution()) {
      EXPECT_NEAR(with.objective, without.objective, 1e-9);
      EXPECT_TRUE(fixtures[i].IsFeasible(with.x, 1e-6));
    }
  }
}

TEST(SimplexTest, BothImplementationsSurviveBealeCycling)
{
  // Beale's cycling LP again, on the solver and on the dense test
  // oracle: each must hit its Bland's-rule fallback rather than spin to
  // the iteration limit.
  Model m;
  const VarIndex x1 = m.AddContinuous("x1", 0.0, 1e9, 0.75);
  const VarIndex x2 = m.AddContinuous("x2", 0.0, 1e9, -150.0);
  const VarIndex x3 = m.AddContinuous("x3", 0.0, 1e9, 0.02);
  const VarIndex x4 = m.AddContinuous("x4", 0.0, 1e9, -6.0);
  m.AddConstraint("r1", {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                  Relation::kLessEqual, 0.0);
  m.AddConstraint("r2", {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                  Relation::kLessEqual, 0.0);
  m.AddConstraint("r3", {{x3, 1.0}}, Relation::kLessEqual, 1.0);
  for (const LpResult& r : {SimplexSolver().Solve(m), DenseOracleSolve(m)}) {
    ASSERT_TRUE(r.IsOptimal());
    EXPECT_NEAR(r.objective, 0.05, 1e-6);
  }
}

TEST(SimplexTest, SingularWarmBasisFallsBackToColdSolve)
{
  // A warm basis naming two structural columns that BOTH live only in
  // row 0 is singular; Refactorize must reject it and the solve must
  // recover through the cold two-phase path.
  Model m;
  const VarIndex u = m.AddContinuous("u", 0.0, 2.0, 1.0);
  const VarIndex v = m.AddContinuous("v", 0.0, 2.0, 1.0);
  const VarIndex w = m.AddContinuous("w", 0.0, 2.0, 1.0);
  m.AddConstraint("r0", {{u, 1.0}, {v, 1.0}}, Relation::kLessEqual, 1.0);
  m.AddConstraint("r1", {{w, 1.0}}, Relation::kLessEqual, 1.0);

  SimplexBasis bogus;
  bogus.rows.push_back({0, SimplexBasis::Kind::kStructural, u});
  bogus.rows.push_back({1, SimplexBasis::Kind::kStructural, v});

  SimplexWorkspace workspace;
  const LpResult r = SimplexSolver().SolveWithBounds(
      m, BoundOverrides(3), &workspace, &bogus, nullptr);
  ASSERT_TRUE(r.IsOptimal());
  EXPECT_TRUE(r.warm_start_attempted);
  EXPECT_FALSE(r.warm_start_used);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);  // u + v = 1, w = 1
}

TEST(SimplexTest, NearZeroCoefficientsAreNotPivotedOn)
{
  // A 1e-13 coefficient sits below the pivot tolerance; the ratio test
  // must skip it instead of dividing by it and exploding the iterate.
  // Checked on the solver and on the dense test oracle.
  Model le;
  {
    const VarIndex x = le.AddContinuous("x", 0.0, 10.0, 0.0);
    const VarIndex y = le.AddContinuous("y", 0.0, 10.0, 1.0);
    le.AddConstraint("tiny", {{x, 1e-13}, {y, 1.0}}, Relation::kLessEqual,
                     1.0);
  }
  Model ge;
  ge.SetSense(Sense::kMinimize);
  {
    const VarIndex x = ge.AddContinuous("x", 0.0, 10.0, 0.0);
    const VarIndex y = ge.AddContinuous("y", 0.0, 10.0, 1.0);
    ge.AddConstraint("tiny", {{x, 1e-13}, {y, 1.0}}, Relation::kGreaterEqual,
                     1.0);
  }
  for (const Model* m : {&le, &ge}) {
    for (const LpResult& r :
         {SimplexSolver().Solve(*m), DenseOracleSolve(*m)}) {
      ASSERT_TRUE(r.IsOptimal());
      EXPECT_NEAR(r.objective, 1.0, 1e-6);
    }
  }
}

TEST(BranchAndBoundTest, MatchesExhaustiveEnumerationOnSmallKnapsacks)
{
  // The full search on random 16-item knapsacks against the optimum
  // found by enumerating every subset.
  constexpr int kItems = 16;
  constexpr double kCapacity = 20.0;
  BranchAndBoundSolver::Options options;
  options.threads = 1;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(99 + seed);
    Model m;
    std::vector<double> value;
    std::vector<double> weight;
    std::vector<std::pair<VarIndex, double>> terms;
    for (int i = 0; i < kItems; ++i) {
      value.push_back(rng.Uniform(1.0, 9.0));
      weight.push_back(rng.Uniform(1.0, 5.0));
      terms.push_back({m.AddBinary("b", value.back()), weight.back()});
    }
    m.AddConstraint("cap", terms, Relation::kLessEqual, kCapacity);

    double best = 0.0;
    for (std::uint32_t subset = 0; subset < (1u << kItems); ++subset) {
      double total_value = 0.0;
      double total_weight = 0.0;
      for (int i = 0; i < kItems; ++i) {
        if (subset & (1u << i)) {
          total_value += value[static_cast<std::size_t>(i)];
          total_weight += weight[static_cast<std::size_t>(i)];
        }
      }
      if (total_weight <= kCapacity)
        best = std::max(best, total_value);
    }

    const MipResult result = BranchAndBoundSolver(options).Solve(m);
    ASSERT_EQ(result.status, MipStatus::kOptimal);
    EXPECT_NEAR(result.objective, best, 1e-9 * best);
    EXPECT_TRUE(m.IsFeasible(result.x, 1e-6));
  }

  // The 26-item study knapsack: the search must run on the factorized
  // LP path and report its telemetry.
  Rng rng(99);
  Model m;
  std::vector<std::pair<VarIndex, double>> terms;
  for (int i = 0; i < 26; ++i) {
    const VarIndex v = m.AddBinary("b", rng.Uniform(1.0, 9.0));
    terms.push_back({v, rng.Uniform(1.0, 5.0)});
  }
  m.AddConstraint("cap", terms, Relation::kLessEqual, 20.0);
  const MipResult study = BranchAndBoundSolver(options).Solve(m);
  ASSERT_EQ(study.status, MipStatus::kOptimal);
  EXPECT_TRUE(m.IsFeasible(study.x, 1e-6));
  EXPECT_GT(study.simplex_refactors, 0);
}

TEST(BranchAndBoundTest, ParallelSolveBitIdenticalWithPresolveDisabled)
{
  // The determinism promise must hold on the pure factorized
  // warm-basis path too (presolve off exercises different node bounds).
  Rng rng(99);
  Model m;
  std::vector<std::pair<VarIndex, double>> terms;
  for (int i = 0; i < 26; ++i) {
    const VarIndex v = m.AddBinary("b", rng.Uniform(1.0, 9.0));
    terms.push_back({v, rng.Uniform(1.0, 5.0)});
  }
  m.AddConstraint("cap", terms, Relation::kLessEqual, 20.0);

  BranchAndBoundSolver::Options serial_options;
  serial_options.threads = 1;
  serial_options.presolve = false;
  const MipResult serial = BranchAndBoundSolver(serial_options).Solve(m);
  ASSERT_EQ(serial.status, MipStatus::kOptimal);

  for (const int threads : {2, 8}) {
    common::ThreadPool pool(threads);
    BranchAndBoundSolver::Options options;
    options.pool = &pool;
    options.presolve = false;
    const MipResult parallel = BranchAndBoundSolver(options).Solve(m);
    ASSERT_EQ(parallel.status, MipStatus::kOptimal);
    EXPECT_EQ(parallel.objective, serial.objective);
    EXPECT_EQ(parallel.bound, serial.bound);
    EXPECT_EQ(parallel.x, serial.x);
    EXPECT_EQ(parallel.nodes_explored, serial.nodes_explored);
    EXPECT_EQ(parallel.lp_solves, serial.lp_solves);
  }
}

TEST(ModelTest, FeasibilityCheckerCatchesViolations)
{
  Model m;
  const VarIndex x = m.AddBinary("x", 1.0);
  const VarIndex y = m.AddContinuous("y", 0.0, 2.0, 1.0);
  m.AddConstraint("c", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 2.0);

  EXPECT_TRUE(m.IsFeasible({1.0, 1.0}));
  EXPECT_FALSE(m.IsFeasible({1.0, 1.5}));   // constraint violated
  EXPECT_FALSE(m.IsFeasible({0.5, 0.5}));   // integrality violated
  EXPECT_FALSE(m.IsFeasible({0.0, 3.0}));   // bound violated
  EXPECT_FALSE(m.IsFeasible({1.0}));        // wrong arity
}

TEST(ModelTest, ObjectiveValueMatchesCoefficients)
{
  Model m;
  m.AddContinuous("x", 0.0, 1.0, 2.0);
  m.AddContinuous("y", 0.0, 1.0, -3.0);
  EXPECT_DOUBLE_EQ(m.ObjectiveValue({0.5, 1.0}), 2.0 * 0.5 - 3.0);
}

TEST(ModelTest, RejectsConstraintsOnUnknownVariables)
{
  Model m;
  m.AddBinary("x", 1.0);
  EXPECT_THROW(
      m.AddConstraint("bad", {{5, 1.0}}, Relation::kLessEqual, 1.0),
      flex::ConfigError);
}

TEST(BranchAndBoundTest, PropagationPrunesAContradictedChildWithoutAnLp)
{
  // minimize x s.t. 2x >= 1, x binary. The root LP relaxes to x = 0.5,
  // so the search branches; the x <= 0 child's bound override empties
  // the row's activity box (max activity 0 < rhs 1), which node-local
  // propagation must detect and prune before any LP solve — the
  // propagation_prunes counter is the proof it fired. Presolve is off
  // because its singleton-row folding would absorb the row into the
  // variable bound and leave nothing to propagate.
  Model m;
  m.SetSense(Sense::kMinimize);
  const VarIndex x = m.AddBinary("x", 1.0);
  m.AddConstraint("half", {{x, 2.0}}, Relation::kGreaterEqual, 1.0);

  BranchAndBoundSolver::Options options;
  options.presolve = false;
  options.threads = 1;
  const MipResult r = BranchAndBoundSolver(options).Solve(m);

  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 1.0, 1e-9);
  EXPECT_GE(r.propagation_prunes, 1)
      << "the contradicted x<=0 child was not pruned by propagation";
  // Both children of the root were explored: the x >= 1 child via its
  // LP, the x <= 0 child via the propagation prune.
  EXPECT_GE(r.nodes_explored, 2);
}

}  // namespace
}  // namespace flex::solver
