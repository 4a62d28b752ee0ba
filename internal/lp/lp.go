// Package lp provides a bounded-variable, two-phase primal simplex solver
// for linear programs of the form
//
//	minimize    cᵀx
//	subject to  Aᵢx {≤,=,≥} bᵢ   for every row i
//	            lⱼ ≤ xⱼ ≤ uⱼ     for every variable j
//
// Variable bounds may be infinite (math.Inf). Constraint rows are stored
// sparse (Problem.SA, one SparseRow per row; AddRow converts a dense row);
// on solve entry they are compiled into an immutable compressed-sparse-
// column form, so the hot loops — pricing, FTRAN, the ratio test — iterate
// structural nonzeros only. The solver is written for the moderately sized
// scenario-tree problems produced by the rental-planning models in this
// repository (hundreds to a few thousand variables and rows).
//
// Solve and SolveWithOptions are reentrant: each call allocates a private
// simplex instance and never mutates the Problem, so concurrent solves of
// the same (or distinct) Problem values from multiple goroutines are safe
// as long as no goroutine modifies the Problem meanwhile. The parallel
// branch-and-bound workers in internal/mip rely on this.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rentplan/internal/num"
)

// Rel is the relational operator of a linear constraint row.
type Rel int8

const (
	// LE is aᵀx ≤ b.
	LE Rel = iota
	// EQ is aᵀx = b.
	EQ
	// GE is aᵀx ≥ b.
	GE
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return fmt.Sprintf("Rel(%d)", int8(r))
}

// Status reports the outcome of a solve.
type Status int8

const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the constraint system has no feasible point.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below.
	StatusUnbounded
	// StatusIterLimit means the iteration limit was reached first.
	StatusIterLimit
	// StatusCanceled means the context passed to SolveCtx/SolveFromCtx was
	// canceled (or its deadline expired) before the solve finished. Like
	// StatusIterLimit, X/Obj are populated only when the cancellation fired
	// at a primal-feasible (phase-2) point.
	StatusCanceled
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	case StatusCanceled:
		return "canceled"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Problem is a linear program in row-oriented form: constraint row i is
// SA[i] {Rel[i]} B[i].
type Problem struct {
	// C holds the objective coefficients; len(C) is the variable count.
	C []float64
	// SA holds one sparse coefficient row per constraint.
	SA []SparseRow
	// Rel holds the relational operator of each row.
	Rel []Rel
	// B holds the right-hand side of each row.
	B []float64
	// Lower and Upper hold variable bounds. A nil slice means all zeros
	// (Lower) or all +Inf (Upper).
	Lower []float64
	Upper []float64
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.C) }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.SA) }

// Validate checks dimensional consistency, bound sanity, and that every
// numeric entry of the program — costs, coefficients, right-hand sides and
// bounds — is well formed. A NaN cost or coefficient would otherwise flow
// through pricing and the ratio test without tripping any comparison and
// could surface as a bogus "optimal"; only bounds may be infinite, and only
// in the direction that leaves the interval nonempty.
func (p *Problem) Validate() error {
	n := len(p.C)
	for j, c := range p.C {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: objective coefficient %d is %g", j, c)
		}
	}
	if err := p.validateRows(n); err != nil {
		return err
	}
	if p.Lower != nil && len(p.Lower) != n {
		return fmt.Errorf("lp: |Lower|=%d, want %d", len(p.Lower), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("lp: |Upper|=%d, want %d", len(p.Upper), n)
	}
	for j := 0; j < n; j++ {
		lo, hi := p.boundsAt(j)
		if lo > hi {
			return fmt.Errorf("lp: variable %d has empty bound interval [%g,%g]", j, lo, hi)
		}
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return fmt.Errorf("lp: variable %d has NaN bound", j)
		}
		if math.IsInf(lo, 1) || math.IsInf(hi, -1) {
			return fmt.Errorf("lp: variable %d has invalid bound interval [%g,%g]", j, lo, hi)
		}
	}
	for i, b := range p.B {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("lp: row %d has invalid rhs %g", i, b)
		}
	}
	return nil
}

func (p *Problem) boundsAt(j int) (lo, hi float64) {
	lo, hi = 0, math.Inf(1)
	if p.Lower != nil {
		lo = p.Lower[j]
	}
	if p.Upper != nil {
		hi = p.Upper[j]
	}
	return lo, hi
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		C:   append([]float64(nil), p.C...),
		B:   append([]float64(nil), p.B...),
		Rel: append([]Rel(nil), p.Rel...),
	}
	if p.SA != nil {
		q.SA = make([]SparseRow, len(p.SA))
		for i := range p.SA {
			q.SA[i] = p.SA[i].Clone()
		}
	}
	if p.Lower != nil {
		q.Lower = append([]float64(nil), p.Lower...)
	}
	if p.Upper != nil {
		q.Upper = append([]float64(nil), p.Upper...)
	}
	return q
}

// Solution is the result of a solve.
//
// X and Obj are populated only when the solver stopped at a primal-feasible
// point: always for StatusOptimal, and for StatusIterLimit/StatusCanceled
// only when the stop fired during phase 2 (the iterate is then feasible and
// Obj is an upper bound on the optimum, never a lower bound usable for
// pruning). A limit or cancellation that fires during phase 1 or basis
// repair leaves X nil, because the partially-pivoted iterate satisfies
// neither the constraints nor the bounds.
type Solution struct {
	Status     Status
	X          []float64 // primal values of the structural variables
	Obj        float64   // objective value cᵀx
	Iterations int       // total simplex pivots across both phases

	// Duals holds one shadow price per constraint row at optimality:
	// Duals[i] is the derivative of the optimal objective with respect to
	// B[i]. Nil unless Status is StatusOptimal.
	Duals []float64
	// FarkasRay is an infeasibility certificate when Status is
	// StatusInfeasible: a row multiplier vector y with yᵀA "dominated" by
	// the variable bounds yet yᵀb strictly violating them; concretely, the
	// phase-1 dual vector whose cut yᵀ(b − Ax) ≤ 0 separates every feasible
	// right-hand side. Nil otherwise.
	FarkasRay []float64

	// Basis is a snapshot of the optimal basis, suitable for passing to
	// SolveFrom on a nearby problem. Nil unless Status is StatusOptimal.
	Basis *Basis
	// WarmStart records how a SolveFrom call used the supplied basis;
	// WarmNone for plain Solve/SolveWithOptions calls.
	WarmStart WarmStart

	// PricingSweeps counts full pricing sweeps over every column: the
	// candidate-list (re)builds plus the anti-cycling and repair
	// iterations, which price every column on each pivot.
	PricingSweeps int
	// CandidateHits counts pivots whose entering column was served from
	// the candidate list without a full sweep.
	CandidateHits int
	// NNZ is the structural nonzero count of the compiled constraint
	// matrix.
	NNZ int

	// DualIters counts the dual-simplex pivots of a warm solve routed
	// through the dual path (included in Iterations); zero elsewhere.
	DualIters int
	// EtaCount counts the product-form eta updates recorded by the dual
	// path between refactorisations.
	EtaCount int
	// Refactorizations counts basis refactorisations over the whole solve:
	// the periodic primal refresh, post-eviction refreshes, and eta-stack
	// collapses of the dual path.
	Refactorizations int
}

// Options tunes the solver. The zero value selects sensible defaults.
type Options struct {
	// MaxIter bounds total pivots; ≤0 selects 50·(m+n)+5000.
	MaxIter int
	// Tol is the feasibility/optimality tolerance; ≤0 selects num.LPTol.
	Tol float64
}

// Resolved returns the options with every zero field replaced by its default
// for an m-row, n-variable problem. Callers that solve many related problems
// (e.g. branch-and-bound node LPs) should resolve once up front and pass the
// result to every solve, so a caller-supplied Tol or MaxIter is honored
// identically on every path rather than re-defaulted per call.
func (o Options) Resolved(m, n int) Options { return o.withDefaults(m, n) }

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 50*(m+n) + 5000
	}
	if o.Tol <= 0 {
		o.Tol = num.LPTol
	}
	return o
}

// ErrBadProblem wraps validation failures returned by Solve.
var ErrBadProblem = errors.New("lp: malformed problem")

// ctxCheckInterval is the pivot cadence at which the phase loops poll
// ctx.Err(): frequent enough that a pending deadline stops a long phase
// within a handful of pivots, rare enough that the mutex inside a deadline
// context's Err() stays off the profile.
const ctxCheckInterval = 16

// Solve minimises the problem with the default options.
func Solve(p *Problem) (*Solution, error) { return SolveWithOptions(p, Options{}) }

// SolveWithOptions minimises the problem using the supplied options.
func SolveWithOptions(p *Problem, opts Options) (*Solution, error) {
	return SolveCtx(context.Background(), p, opts)
}

// SolveCtx minimises the problem like SolveWithOptions, additionally
// observing ctx: the pivot loops poll ctx.Err() every ctxCheckInterval
// iterations and stop with StatusCanceled once the context is canceled or
// past its deadline. A background (never-canceled) context makes SolveCtx
// behave bit-identically to SolveWithOptions.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProblem, err)
	}
	opts = opts.withDefaults(p.NumRows(), p.NumVars())
	s := newSimplex(p, opts)
	s.ctx = ctx
	sol, err := s.solve()
	s.release()
	return sol, err
}
