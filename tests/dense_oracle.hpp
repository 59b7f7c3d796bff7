/**
 * @file
 * Dense flat-tableau two-phase simplex: the independent LP oracle of the
 * solver tests.
 *
 * Shares no pivoting code with the production revised simplex: it
 * shifts every variable to a zero lower bound, materializes finite upper
 * bounds as explicit rows, and pivots a dense tableau with Dantzig
 * pricing and a Bland's-rule fallback on stall. Agreement between the
 * two on status and objective is the differential harness's evidence
 * that both are right. Cold solves only: no warm basis, no basis
 * snapshot, no duality certificate (LpResult::dual stays empty).
 */
#ifndef FLEX_TESTS_DENSE_ORACLE_HPP_
#define FLEX_TESTS_DENSE_ORACLE_HPP_

#include "solver/model.hpp"
#include "solver/simplex.hpp"

namespace flex::solver {

/**
 * Solves the LP relaxation of @p model under @p overrides (empty, or one
 * entry per variable) from the natural slack/artificial basis. Requires
 * finite lower bounds on every variable.
 */
LpResult DenseOracleSolve(const Model& model,
                          const BoundOverrides& overrides = {});

}  // namespace flex::solver

#endif  // FLEX_TESTS_DENSE_ORACLE_HPP_
