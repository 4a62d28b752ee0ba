// Package benders implements the L-shaped method (Benders decomposition
// for two-stage stochastic linear programs), the decomposition technique
// the paper cites for solving multistage recourse reformulations
// (Birge 1985, reference [28]). It solves
//
//	min  cᵀx + Σ_k p_k · Q_k(x)
//	s.t. A x {≤,=,≥} b,  l ≤ x ≤ u
//	Q_k(x) = min { q_kᵀy : W_k y {≤,=,≥} h_k − T_k x,  y ≥ 0 }
//
// by alternating a master problem over (x, θ) with per-scenario recourse
// LPs that generate optimality cuts (from dual solutions) and feasibility
// cuts (from Farkas rays). Second-stage variables must be nonnegative and
// unbounded above — the classic standard-form recourse — which is what
// makes the Farkas certificate yield a valid feasibility cut.
package benders

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rentplan/internal/lp"
	"rentplan/internal/num"
)

// Scenario is one realisation of the second stage.
type Scenario struct {
	// Prob is the scenario probability p_k.
	Prob float64
	// Q is the recourse objective q_k.
	Q []float64
	// W is the recourse matrix; Rel/H the row relations and rhs.
	W   [][]float64
	Rel []lp.Rel
	H   []float64
	// T couples the first stage: row i reads T[i]·x + W[i]·y {Rel} H[i].
	T [][]float64
}

// Problem is the complete two-stage program.
type Problem struct {
	// First stage: min Cᵀx s.t. A x {Rel} B, Lower ≤ x ≤ Upper.
	C     []float64
	A     [][]float64
	Rel   []lp.Rel
	B     []float64
	Lower []float64
	Upper []float64

	Scenarios []Scenario
}

// Validate checks dimensional consistency.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return errors.New("benders: no first-stage variables")
	}
	if len(p.A) != len(p.B) || len(p.A) != len(p.Rel) {
		return errors.New("benders: master row mismatch")
	}
	for _, row := range p.A {
		if len(row) != n {
			return errors.New("benders: master row width mismatch")
		}
	}
	if len(p.Scenarios) == 0 {
		return errors.New("benders: no scenarios")
	}
	mass := 0.0
	for k, sc := range p.Scenarios {
		if sc.Prob <= 0 {
			return fmt.Errorf("benders: scenario %d probability %g", k, sc.Prob)
		}
		mass += sc.Prob
		m2 := len(sc.W)
		if len(sc.H) != m2 || len(sc.Rel) != m2 || len(sc.T) != m2 {
			return fmt.Errorf("benders: scenario %d row mismatch", k)
		}
		ny := len(sc.Q)
		for i := 0; i < m2; i++ {
			if len(sc.W[i]) != ny {
				return fmt.Errorf("benders: scenario %d W row %d width", k, i)
			}
			if len(sc.T[i]) != n {
				return fmt.Errorf("benders: scenario %d T row %d width", k, i)
			}
		}
	}
	if mass < 1-num.ProbMassTol || mass > 1+num.ProbMassTol {
		return fmt.Errorf("benders: scenario probabilities sum to %g", mass)
	}
	return nil
}

// Options tunes the L-shaped iteration. Zero value = defaults.
type Options struct {
	// MaxIter bounds master iterations; ≤0 selects 300.
	MaxIter int
	// Tol is the convergence gap on θ vs the sampled recourse; ≤0 selects
	// num.DecompGapTol.
	Tol float64
	// ThetaLB is a valid lower bound on the expected recourse cost; the
	// zero value selects num.ThetaDefaultLB.
	ThetaLB float64
	// MultiCut adds one optimality cut per scenario instead of the
	// aggregated single cut (faster convergence, bigger master).
	MultiCut bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 300
	}
	if o.Tol <= 0 {
		o.Tol = num.DecompGapTol
	}
	if o.ThetaLB == 0 { //lint:ignore rentlint/floatcmp zero is the unset-default sentinel of the Options zero value, never a computed result
		o.ThetaLB = num.ThetaDefaultLB
	}
	return o
}

// Result is the outcome of an L-shaped solve.
type Result struct {
	X   []float64
	Obj float64 // cᵀx + expected recourse
	// Iterations counts master solves; OptCuts and FeasCuts the cuts added.
	Iterations, OptCuts, FeasCuts int
	// WarmMasters counts the master solves that reused the previous
	// optimal basis.
	WarmMasters int
	// Converged reports whether the gap closed within MaxIter.
	Converged bool
}

// Solve runs the L-shaped method.
func Solve(p *Problem, opts Options) (*Result, error) {
	return SolveCtx(context.Background(), p, opts)
}

// SolveCtx runs the L-shaped method under a context: cancellation is checked
// between master iterations and inside every master/recourse LP, and a
// canceled run returns the context error (partial cut pools prove nothing).
// A background context is bit-identical to Solve.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n := len(p.C)
	K := len(p.Scenarios)
	nTheta := 1
	if opts.MultiCut {
		nTheta = K
	}

	// Master LP over (x, θ_1..θ_nTheta): cut rows carry a handful of
	// structural nonzeros each, so master growth stays O(nnz) per cut
	// instead of O(n+nTheta).
	master := &lp.Problem{
		C:     make([]float64, n+nTheta),
		Lower: make([]float64, n+nTheta),
		Upper: make([]float64, n+nTheta),
	}
	copy(master.C, p.C)
	for j := 0; j < n; j++ {
		master.Lower[j] = 0
		master.Upper[j] = math.Inf(1)
	}
	if p.Lower != nil {
		copy(master.Lower[:n], p.Lower)
	}
	if p.Upper != nil {
		copy(master.Upper[:n], p.Upper)
	}
	for t := 0; t < nTheta; t++ {
		w := 1.0
		if opts.MultiCut {
			w = p.Scenarios[t].Prob
		}
		master.C[n+t] = w
		master.Lower[n+t] = opts.ThetaLB
		master.Upper[n+t] = math.Inf(1)
	}
	for i, row := range p.A {
		master.AddRow(row, p.Rel[i], p.B[i])
	}

	// solveMaster re-solves the master, warm-starting from the previous
	// optimal basis extended over the cut rows appended since its snapshot.
	// Appended cut slacks enter basic, so the install stays dual feasible
	// and the dual simplex prices out the new cuts in a few pivots; a
	// malformed or stale extension falls back to the cold path inside
	// SolveFrom, so correctness never depends on the warm start.
	var masterBasis *lp.Basis
	basisRows := 0
	res := &Result{}
	solveMaster := func() (*lp.Solution, error) {
		if masterBasis == nil {
			return lp.SolveCtx(ctx, master, lp.Options{})
		}
		basis := masterBasis
		if added := len(master.Rel) - basisRows; added > 0 {
			basis = basis.ExtendAppendedRows(n+nTheta, added)
		}
		msol, err := lp.SolveFromCtx(ctx, master, basis, lp.Options{})
		if err == nil && msol.WarmStart != lp.WarmNone && msol.WarmStart != lp.WarmFallback {
			res.WarmMasters++
		}
		return msol, err
	}
	// Each scenario's recourse rows W_k are fixed across iterations (only
	// the rhs h_k − T_k x moves), so they are converted to sparse rows once.
	recourseRows := make([][]lp.SparseRow, K)
	for k, sc := range p.Scenarios {
		recourseRows[k] = make([]lp.SparseRow, len(sc.W))
		for i, row := range sc.W {
			recourseRows[k][i] = lp.DenseRow(row)
		}
	}
	sub := &lp.Problem{}
	for iter := 0; iter < opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("benders: canceled after %d master iterations: %w", res.Iterations, err)
		}
		res.Iterations++
		msol, err := solveMaster()
		if err != nil {
			return nil, fmt.Errorf("benders: master: %w", err)
		}
		switch msol.Status {
		case lp.StatusOptimal:
		case lp.StatusInfeasible:
			return nil, errors.New("benders: master infeasible (first-stage constraints + cuts)")
		case lp.StatusCanceled:
			return nil, fmt.Errorf("benders: canceled in master iteration %d: %w", res.Iterations, ctx.Err())
		default:
			return nil, fmt.Errorf("benders: master status %v", msol.Status)
		}
		masterBasis, basisRows = msol.Basis, len(master.Rel)
		x := msol.X[:n]
		theta := msol.X[n:]

		// Solve every recourse LP at x.
		expRecourse := 0.0
		perTheta := make([]float64, nTheta)
		cutCoef := make([][]float64, nTheta) // aggregated gradient rows
		cutRHS := make([]float64, nTheta)
		feasibilityCutAdded := false
		for k := 0; k < K && !feasibilityCutAdded; k++ {
			sc := &p.Scenarios[k]
			rhs := make([]float64, len(sc.H))
			for i := range rhs {
				rhs[i] = sc.H[i] - dot(sc.T[i], x)
			}
			sub.C = sc.Q
			sub.SA = recourseRows[k]
			sub.Rel = sc.Rel
			sub.B = rhs
			sub.Lower = nil
			sub.Upper = nil
			ssol, err := lp.SolveCtx(ctx, sub, lp.Options{})
			if err != nil {
				return nil, fmt.Errorf("benders: scenario %d: %w", k, err)
			}
			switch ssol.Status {
			case lp.StatusOptimal:
				expRecourse += sc.Prob * ssol.Obj
				// Subgradient cut: Q_k(x') ≥ Q_k(x) + πᵀT_k (x − x').
				ti := 0
				if opts.MultiCut {
					ti = k
				}
				w := sc.Prob
				if opts.MultiCut {
					w = 1
				}
				if cutCoef[ti] == nil {
					cutCoef[ti] = make([]float64, n)
				}
				grad := cutCoef[ti]
				rhsAcc := ssol.Obj
				for i, pi := range ssol.Duals {
					if pi == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: omitting a zero dual changes no sum, for any rounding
						continue
					}
					for j := 0; j < n; j++ {
						grad[j] += w * pi * sc.T[i][j]
					}
					rhsAcc += pi * dot(sc.T[i], x)
				}
				perTheta[ti] += w * ssol.Obj
				cutRHS[ti] += w * rhsAcc
			case lp.StatusUnbounded:
				return nil, fmt.Errorf("benders: scenario %d recourse unbounded below", k)
			case lp.StatusInfeasible:
				if ssol.FarkasRay == nil {
					return nil, fmt.Errorf("benders: scenario %d infeasible without certificate", k)
				}
				// Feasibility cut: σᵀ(h_k − T_k x) ≤ 0.
				grad := make([]float64, n)
				rhsF := 0.0
				for i, sig := range ssol.FarkasRay {
					if sig == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: omitting a zero ray entry changes no sum, for any rounding
						continue
					}
					for j := 0; j < n; j++ {
						grad[j] += sig * sc.T[i][j]
					}
					rhsF += sig * sc.H[i]
				}
				appendCutRow(master, grad, -1, rhsF)
				res.FeasCuts++
				feasibilityCutAdded = true
			case lp.StatusCanceled:
				return nil, fmt.Errorf("benders: canceled in scenario %d recourse: %w", k, ctx.Err())
			default:
				return nil, fmt.Errorf("benders: scenario %d status %v", k, ssol.Status)
			}
		}
		if feasibilityCutAdded {
			continue
		}
		// Convergence: θ already supports the sampled recourse.
		thetaVal := 0.0
		for t := 0; t < nTheta; t++ {
			w := 1.0
			if opts.MultiCut {
				w = p.Scenarios[t].Prob
			}
			thetaVal += w * theta[t]
		}
		if thetaVal >= expRecourse-opts.Tol*(1+math.Abs(expRecourse)) {
			res.X = append([]float64(nil), x...)
			res.Obj = dot(p.C, x) + expRecourse
			res.Converged = true
			return res, nil
		}
		// Optimality cuts: θ_t + gradᵀx ≥ rhs.
		for t := 0; t < nTheta; t++ {
			if theta[t] >= perTheta[t]-opts.Tol*(1+math.Abs(perTheta[t])) {
				continue // this θ is already supported
			}
			appendCutRow(master, cutCoef[t], n+t, cutRHS[t])
			res.OptCuts++
		}
	}
	// Out of iterations: return the best-known point.
	msol, err := solveMaster()
	if err != nil || msol.Status != lp.StatusOptimal {
		return nil, errors.New("benders: iteration limit without a usable master solution")
	}
	res.X = append([]float64(nil), msol.X[:n]...)
	res.Obj = msol.Obj
	return res, nil
}

// appendCutRow appends one GE cut row to the master, built from a dense
// gradient over the first-stage columns plus an optional θ column
// (extraCol ≥ 0) carrying coefficient 1; extraCol −1 appends a feasibility
// cut with no θ term. Only the structural nonzeros are materialised, which
// keeps cut appends O(nnz).
func appendCutRow(master *lp.Problem, grad []float64, extraCol int, rhs float64) {
	ix := make([]int, 0, len(grad)+1)
	val := make([]float64, 0, len(grad)+1)
	for j, g := range grad {
		if g == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: structural sparsity only, zeros contribute nothing
			continue
		}
		ix = append(ix, j)
		val = append(val, g)
	}
	if extraCol >= 0 {
		ix = append(ix, extraCol)
		val = append(val, 1)
	}
	master.AddSparseRow(ix, val, lp.GE, rhs)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ExtensiveForm builds the deterministic-equivalent LP of the two-stage
// problem (all scenarios stacked), used for verification and as the
// baseline in the decomposition benchmarks.
func ExtensiveForm(p *Problem) (*lp.Problem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.C)
	nTot := n
	offsets := make([]int, len(p.Scenarios))
	for k, sc := range p.Scenarios {
		offsets[k] = nTot
		nTot += len(sc.Q)
	}
	ext := &lp.Problem{
		C:     make([]float64, nTot),
		Lower: make([]float64, nTot),
		Upper: make([]float64, nTot),
	}
	copy(ext.C, p.C)
	for j := 0; j < nTot; j++ {
		ext.Upper[j] = math.Inf(1)
	}
	if p.Lower != nil {
		copy(ext.Lower[:n], p.Lower)
	}
	if p.Upper != nil {
		copy(ext.Upper[:n], p.Upper)
	}
	for k, sc := range p.Scenarios {
		for j, q := range sc.Q {
			ext.C[offsets[k]+j] = sc.Prob * q
		}
	}
	// Sparse rows keep the stacked matrix at O(nnz): the block structure
	// [A; T_k | W_k] is mostly zero once every scenario's recourse columns
	// are appended side by side.
	for i, row := range p.A {
		ext.AddRow(row, p.Rel[i], p.B[i])
	}
	ix := make([]int, 0, n)
	val := make([]float64, 0, n)
	for k, sc := range p.Scenarios {
		for i := range sc.W {
			ix, val = ix[:0], val[:0]
			for j, t := range sc.T[i] {
				if t != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: structural sparsity only, zeros contribute nothing
					ix = append(ix, j)
					val = append(val, t)
				}
			}
			for j, w := range sc.W[i] {
				if w != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: structural sparsity only, zeros contribute nothing
					ix = append(ix, offsets[k]+j)
					val = append(val, w)
				}
			}
			ext.AddSparseRow(ix, val, sc.Rel[i], sc.H[i])
		}
	}
	return ext, nil
}
