// Package num centralises the numerical tolerances used across the solver
// stack (internal/lp, internal/mip, internal/core) and provides the approved
// tolerance-comparison helpers.
//
// Every constant documents the invariant it protects. Code in the solver
// packages must reference these named constants instead of repeating the
// literals; the rentlint/tolconst analyzer enforces this, and
// rentlint/floatcmp enforces that float comparisons either go through the
// helpers below or carry an explicit justification.
package num

import "math"

const (
	// LPTol is the default simplex feasibility/optimality tolerance
	// (lp.Options.Tol). It protects the Eq. 1–7 / 13–19 optimality
	// invariant: a basis is accepted as optimal only when every reduced
	// cost is within LPTol of the correct sign, so two runs that reach the
	// same basis report the same proven optimum.
	LPTol = 1e-9

	// PivotTol is the minimum |pivot| magnitude admitted by the ratio test
	// and the basis update. It protects B⁻¹ from amplification by near-zero
	// pivots: any row with |B⁻¹A_j| ≤ PivotTol is treated as non-blocking.
	PivotTol = 1e-10

	// EvictPivotTol is the minimum pivot magnitude for swapping a
	// zero-valued artificial variable out of the basis after phase 1. It is
	// looser than PivotTol because eviction pivots are degenerate (the
	// primal point does not move) and only the conditioning of B⁻¹ is at
	// stake.
	EvictPivotTol = 1e-7

	// SingularTol is the partial-pivoting threshold of the periodic basis
	// refactorisation: a column whose best available pivot is below it is
	// declared numerically singular and the incremental inverse is kept.
	SingularTol = 1e-12

	// SnapTol is the bound-snapping radius applied to primal values when a
	// solution is extracted: a value within SnapTol of a finite bound is
	// reported as exactly that bound, so downstream exact comparisons on
	// plan quantities (e.g. χ ∈ {0,1}) see clean values.
	SnapTol = 1e-9

	// FeasTol is the absolute row/bound feasibility tolerance used when a
	// candidate point is checked against the original problem (phase-1
	// residual acceptance, incumbent verification). It protects against
	// declaring an infeasible point integer-feasible, which would corrupt
	// the proven optimum.
	FeasTol = 1e-7

	// DualFeasTol is the reduced-cost sign tolerance under which an
	// installed warm-start basis is classified dual feasible and routed to
	// the dual simplex (lp.SolveFrom). It is deliberately looser than LPTol:
	// a freshly refactorised child basis re-prices the parent's optimal
	// reduced costs with different rounding, and a spurious "dual
	// infeasible" verdict only costs the primal-repair detour — a reduced
	// cost whose sign is wrong by less than DualFeasTol enters the dual
	// ratio test as a near-zero-ratio candidate and is pivoted (or flipped)
	// to the consistent side within the same tolerance.
	DualFeasTol = 1e-7

	// IntTol is the default integrality tolerance (mip.Options.IntTol): a
	// relaxation value within IntTol of an integer counts as integral.
	// Branching and pseudo-cost fractions are measured against the same
	// constant so the branch dichotomy x ≤ ⌊v⌋ ∨ x ≥ ⌊v⌋+1 stays exact.
	IntTol = 1e-6

	// RelGapTol is the default relative optimality gap (mip.Options.RelGap)
	// at which branch-and-bound declares the incumbent proven optimal. It
	// must dominate LPTol, otherwise node relaxations cannot certify the
	// gap they are asked to close.
	RelGapTol = 1e-9

	// DriftTol bounds accumulated floating-point drift on quantities that
	// are exactly equal in exact arithmetic: the strict-improvement slack of
	// the incumbent test (a "new" incumbent must beat the old one by more
	// than DriftTol), probability-mass accumulation, and uniform-capacity
	// detection. Keeping it two orders below RelGapTol·|obj| makes the
	// "identical proven optimum for every worker count" guarantee hold: no
	// worker can publish a tie as an improvement.
	DriftTol = 1e-12

	// PseudoCostFloor floors the per-branch pseudo-cost estimates so the
	// product score of a variable with one zero-degradation branch does not
	// collapse to zero and hide the other branch's information.
	PseudoCostFloor = 1e-6

	// CutViolTol is the minimum violation at which an (l,S) valid
	// inequality is added during cut-and-branch separation. Cuts below it
	// would be numerical noise: they could cycle the separation loop
	// without tightening the root bound.
	CutViolTol = 1e-7

	// DemandTol is the shortage threshold of the execution simulator: a
	// demand shortfall below it is rounding noise from plan extraction
	// (see SnapTol), not a real unserved-demand event.
	DemandTol = 1e-9

	// DecompGapTol is the default convergence gap of the Benders
	// decompositions (benders.Options.Tol, benders.NestedOptions.Tol): the
	// master/recourse (or root-bound/forward-cost) gap at which the
	// L-shaped iteration declares the bound proven. It must dominate LPTol,
	// otherwise the subproblem LPs cannot certify the gap the
	// decomposition is asked to close.
	DecompGapTol = 1e-7

	// ThetaFloorTol is the slack below zero admitted on the cost-to-go
	// variable θ of the nested L-shaped vertex LPs. All stage costs are
	// nonnegative, so θ ≥ 0 is a valid bound; the tiny negative floor
	// absorbs the LP-rounding of early sweeps (a cut evaluated within
	// LPTol of zero must not make the vertex LP infeasible before the
	// bound has converged).
	ThetaFloorTol = 1e-6

	// ThetaDefaultLB is the default lower bound on the expected-recourse
	// variable θ of the two-stage L-shaped master
	// (benders.Options.ThetaLB). Before the first optimality cut arrives
	// the master minimises θ freely, so the bound must be finite to keep
	// the master LP bounded, yet far below any realistic recourse cost so
	// it never binds at convergence.
	ThetaDefaultLB = -1e7

	// ProbMassTol is the drift allowance on probability masses that are
	// exactly 1 in exact arithmetic (scenario probabilities of a
	// two-stage problem, per-stage masses of a scenario tree). It bounds
	// the accumulated rounding of summing a few hundred probabilities,
	// far above DriftTol because the inputs themselves are often quotients
	// of empirical counts.
	ProbMassTol = 1e-6

	// CutDedupTol is the relative coincidence tolerance of the nested
	// Benders cut warehouse: a freshly generated cut whose slope and
	// right-hand side both lie within CutDedupTol (scaled by magnitude) of
	// a stored cut is the same supporting hyperplane re-derived at the
	// same trial point, and is dropped rather than stored. It must stay
	// well below DecompGapTol so deduplication can never discard a cut
	// that would still move the bound by more than the convergence gap.
	CutDedupTol = 1e-9
)

// Zero reports whether x is within tol of zero.
func Zero(x, tol float64) bool { return math.Abs(x) <= tol }
