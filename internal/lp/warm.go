package lp

import (
	"context"
	"fmt"
	"math"

	"rentplan/internal/num"
)

// WarmStart classifies how a solve used a caller-supplied basis.
type WarmStart int8

const (
	// WarmNone means no basis was involved (plain Solve/SolveWithOptions).
	WarmNone WarmStart = iota
	// WarmHit means the supplied basis was primal feasible for the new
	// problem as-is, so both phase 1 and repair were skipped entirely.
	WarmHit
	// WarmMiss means the basis was installed but bound violations had to be
	// repaired by the restricted shifted phase 1 before phase 2 could run.
	WarmMiss
	// WarmFallback means the basis was unusable (malformed, stale, or
	// singular) or the repair stalled, and the exact cold two-phase path
	// produced the result instead.
	WarmFallback
	// WarmDual means the installed basis priced dual feasible and the dual
	// simplex drove out the bound violations introduced by branching, so
	// the restricted primal repair was skipped entirely.
	WarmDual
)

func (w WarmStart) String() string {
	switch w {
	case WarmNone:
		return "none"
	case WarmHit:
		return "hit"
	case WarmMiss:
		return "miss"
	case WarmFallback:
		return "fallback"
	case WarmDual:
		return "dual"
	}
	return fmt.Sprintf("WarmStart(%d)", int8(w))
}

// SolveFrom minimises the problem starting from a basis snapshot taken from
// an optimal solve of a nearby problem — typically the parent node of a
// branch-and-bound child that differs by a single variable bound. The basis
// is re-factorised, bound violations introduced by the changed bounds are
// repaired by a shifted phase 1 restricted to the violated columns, and
// phase 2 then optimises as usual.
//
// SolveFrom is exactly as safe as a cold solve: whenever the basis is
// malformed, stale, numerically singular, or the repair fails to make
// progress, it silently falls back to the cold two-phase path, whose proven
// optima are bit-identical to SolveWithOptions. The outcome of the warm
// attempt is reported in Solution.WarmStart.
func SolveFrom(p *Problem, basis *Basis, opts Options) (*Solution, error) {
	return SolveFromCtx(context.Background(), p, basis, opts)
}

// SolveFromCtx is SolveFrom with context observation: the repair and phase
// loops poll ctx.Err() every ctxCheckInterval pivots and stop with
// StatusCanceled once the context is canceled or past its deadline. A
// background context makes SolveFromCtx bit-identical to SolveFrom.
func SolveFromCtx(ctx context.Context, p *Problem, basis *Basis, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProblem, err)
	}
	opts = opts.withDefaults(p.NumRows(), p.NumVars())
	s := newSimplex(p, opts)
	s.ctx = ctx
	switch s.installBasis(basis) {
	case warmInstallFailed:
		s.release()
		return coldFallback(ctx, p, opts, 0)
	case warmInstallOK:
		sol, err := s.solvePhase2()
		s.release()
		if err == nil {
			sol.WarmStart = WarmHit
		}
		return sol, err
	}
	// The install left bound violations. A branch-and-bound child differs
	// from its parent by a single bound, so the parent basis normally prices
	// dual feasible for the child: route it through the dual simplex, which
	// removes the violations without the primal repair's feasibility detour.
	// Every inconclusive dual outcome (a stall) falls through to the primal
	// repair with whatever progress was made, and from there to the exact
	// cold path — infeasibility and unboundedness are still only ever
	// certified cold.
	if s.dualFeasible() {
		switch s.runDual() {
		case dualDone:
			sol, err := s.solvePhase2()
			s.release()
			if err == nil {
				sol.WarmStart = WarmDual
			}
			return sol, err
		case dualIterLimit:
			// The pivot budget ran out before primal feasibility: like a
			// cold limit mid-phase-1, no usable point is reported.
			sol := s.result(StatusIterLimit, false)
			sol.WarmStart = WarmDual
			s.release()
			return sol, nil
		case dualCanceled:
			sol := s.result(StatusCanceled, false)
			sol.WarmStart = WarmDual
			s.release()
			return sol, nil
		}
		// dualStalled: fall through to runRepair below.
	}
	switch s.runRepair() {
	case repairDone:
		sol, err := s.solvePhase2()
		s.release()
		if err == nil {
			sol.WarmStart = WarmMiss
		}
		return sol, err
	case repairIterLimit:
		// The caller's pivot budget ran out before feasibility was restored:
		// report the limit without a usable point, exactly like a cold solve
		// whose limit fires mid-phase-1.
		sol := s.result(StatusIterLimit, false)
		sol.WarmStart = WarmMiss
		s.release()
		return sol, nil
	case repairCanceled:
		// The context died mid-repair: like repairIterLimit, the iterate is
		// not primal feasible, so no X/Obj leak out.
		sol := s.result(StatusCanceled, false)
		sol.WarmStart = WarmMiss
		s.release()
		return sol, nil
	default: // repairStalled
		// Never conclude anything from a stalled repair — the restricted
		// subproblem can be at a spurious optimum. Let the exact cold
		// phase 1 decide feasibility.
		spent := s.iters
		s.release()
		return coldFallback(ctx, p, opts, spent)
	}
}

// coldFallback runs the cold two-phase path and accounts the pivots already
// spent on the abandoned warm attempt, so iteration statistics stay honest.
func coldFallback(ctx context.Context, p *Problem, opts Options, spent int) (*Solution, error) {
	s := newSimplex(p, opts)
	s.ctx = ctx
	sol, err := s.solve()
	s.release()
	if err != nil {
		return nil, err
	}
	sol.Iterations += spent
	sol.WarmStart = WarmFallback
	return sol, nil
}

// warmInstall is the outcome of installing a basis snapshot.
type warmInstall int8

const (
	// warmInstallOK: basis factorised and primal feasible as-is.
	warmInstallOK warmInstall = iota
	// warmNeedsRepair: basis factorised but some basic values violate the
	// (possibly changed) bounds and need repair.
	warmNeedsRepair
	// warmInstallFailed: snapshot malformed or basis numerically singular;
	// caller must fall back to the cold path.
	warmInstallFailed
)

// installBasis loads a basis snapshot into the simplex: basic columns into
// the rows that own them, nonbasic columns at their recorded rest bound
// re-clamped to the current problem's bounds (a branching change may have
// moved or removed the bound a column rested on), artificials locked at
// zero, and B⁻¹ re-factorised from scratch. Every structural deviation —
// wrong dimensions, out-of-range or duplicate columns, inconsistent
// status entries, unknown status values, a singular basis matrix —
// fails the install rather than risking a corrupt start.
func (s *simplex) installBasis(b *Basis) warmInstall {
	if b == nil || len(b.Columns) != s.m || len(b.Status) != s.nTot {
		return warmInstallFailed
	}
	// Artificials rest locked at zero; dependent-row placeholders below
	// re-enter them as zero-fixed basic columns exactly as phase 1 left them.
	for i := 0; i < s.m; i++ {
		s.artSgn[i] = 1
		aj := s.nTot + i
		s.lo[aj], s.hi[aj] = 0, 0
		s.xval[aj] = 0
		s.stat[aj] = statusAtLower
		s.inRow[aj] = -1
	}
	for j := 0; j < s.nTot; j++ {
		s.inRow[j] = -1
	}
	for i, j := range b.Columns {
		if j == -1 {
			j = s.nTot + i // linearly dependent row: artificial stays basic
		} else if j < 0 || j >= s.nTot {
			return warmInstallFailed
		}
		if s.inRow[j] >= 0 {
			return warmInstallFailed // duplicate basic column
		}
		s.basis[i] = j
		s.inRow[j] = i
		s.stat[j] = statusBasic
	}
	for j := 0; j < s.nTot; j++ {
		st, ok := importStatus(b.Status[j])
		if !ok {
			return warmInstallFailed
		}
		if st == statusBasic {
			if s.inRow[j] < 0 {
				return warmInstallFailed // claimed basic, absent from Columns
			}
			continue
		}
		if s.inRow[j] >= 0 {
			return warmInstallFailed // in Columns yet marked nonbasic
		}
		var v float64
		switch st {
		case statusAtLower:
			if math.IsInf(s.lo[j], -1) {
				v, st = s.nonbasicRest(j)
			} else {
				v = s.lo[j]
			}
		case statusAtUpper:
			if math.IsInf(s.hi[j], 1) {
				v, st = s.nonbasicRest(j)
			} else {
				v = s.hi[j]
			}
		default: // statusFree
			v, st = s.nonbasicRest(j)
		}
		s.xval[j], s.stat[j] = v, st
	}
	if !s.invertBasis() {
		return warmInstallFailed
	}
	s.computeBasicValues()
	if s.countViolations() == 0 {
		return warmInstallOK
	}
	return warmNeedsRepair
}

// countViolations reports how many basic columns violate their bounds by
// more than num.FeasTol.
func (s *simplex) countViolations() int {
	viol := 0
	for _, j := range s.basis {
		if s.xval[j] < s.lo[j]-num.FeasTol || s.xval[j] > s.hi[j]+num.FeasTol {
			viol++
		}
	}
	return viol
}

// repairOutcome is the result of the restricted shifted phase 1.
type repairOutcome int8

const (
	// repairDone: every basic column is back within its bounds.
	repairDone repairOutcome = iota
	// repairIterLimit: the caller's MaxIter budget ran out mid-repair.
	repairIterLimit
	// repairCanceled: the solve's context was canceled mid-repair.
	repairCanceled
	// repairStalled: no improving column, an unbounded repair ray, or the
	// repair budget exhausted while violations remain; the caller must fall
	// back to the exact cold phase 1 — a stalled repair proves nothing.
	repairStalled
)

// runRepair drives the basic bound violations introduced by a branching
// change back to zero with a shifted phase 1 restricted to the violated
// columns: each iteration assigns dynamic ±1 infeasibility costs to exactly
// the violated basic columns (−1 below the lower bound, +1 above the upper),
// prices every nonbasic column against that objective, and pivots with the
// repair-mode ratio test (see pivot), under which a violated column blocks
// only at the bound it violates and feasible columns block as usual. The
// infeasibility measure is monotonically non-increasing; a stall — pricing
// finds no improving column, the ray is unbounded, or the repair budget runs
// out under degenerate cycling — is reported for a cold fallback, never
// interpreted as infeasibility.
func (s *simplex) runRepair() repairOutcome {
	tol := s.opts.Tol
	// The repair normally needs a handful of pivots (one bound moved); the
	// budget is a generous backstop against degenerate cycling.
	budget := s.iters + 4*(s.m+s.n) + 100
	for {
		// y = d_B B⁻¹ for the dynamic infeasibility costs d.
		viol := 0
		for k := 0; k < s.m; k++ {
			s.y[k] = 0
		}
		for i := 0; i < s.m; i++ {
			bj := s.basis[i]
			var d float64
			switch {
			case s.xval[bj] < s.lo[bj]-num.FeasTol:
				d = -1
			case s.xval[bj] > s.hi[bj]+num.FeasTol:
				d = 1
			default:
				continue
			}
			viol++
			row := s.binv[i]
			for k := 0; k < s.m; k++ {
				s.y[k] += d * row[k]
			}
		}
		if viol == 0 {
			return repairDone
		}
		if s.iters >= s.opts.MaxIter {
			return repairIterLimit
		}
		if s.iters%ctxCheckInterval == 0 && s.canceled() {
			return repairCanceled
		}
		if s.iters >= budget {
			return repairStalled
		}
		// acc = yᵀA over structural columns.
		s.accumAcc()
		s.sweeps++
		enter, dir := s.priceRepair(tol)
		if enter < 0 {
			return repairStalled
		}
		if st := s.pivot(enter, dir, true, tol); st != statusPivotOK {
			return repairStalled
		}
		s.iters++
	}
}

// priceRepair selects an entering column for the repair objective, whose
// reduced cost over nonbasic column j is r_j = −(d_B B⁻¹ A_j): the rate of
// change of the total bound violation per unit increase of x_j. Mirrors
// priceEntering, including Bland's rule under degeneracy.
func (s *simplex) priceRepair(tol float64) (int, float64) {
	bestJ, bestDir, bestScore := -1, 0.0, tol
	for j := 0; j < s.nTot; j++ { // artificials never re-enter
		//lint:ignore rentlint/floatcmp fixed columns have lo and hi assigned from the same value; the check must match that exactly
		if s.stat[j] == statusBasic || s.lo[j] == s.hi[j] {
			continue
		}
		var r float64
		if j < s.n {
			r = -s.acc[j]
		} else {
			r = -s.y[j-s.n]
		}
		var dir, score float64
		switch s.stat[j] {
		case statusAtLower:
			if r < -tol {
				dir, score = 1, -r
			}
		case statusAtUpper:
			if r > tol {
				dir, score = -1, r
			}
		case statusFree:
			if r < -tol {
				dir, score = 1, -r
			} else if r > tol {
				dir, score = -1, r
			}
		}
		if dir == 0 { //lint:ignore rentlint/floatcmp dir is a ±1/0 sentinel assigned literally above, never computed
			continue
		}
		if s.bland {
			return j, dir // first eligible index
		}
		if score > bestScore {
			bestJ, bestDir, bestScore = j, dir, score
		}
	}
	return bestJ, bestDir
}
