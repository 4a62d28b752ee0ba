package lp

import (
	"context"
	"math"
	"sync"

	"rentplan/internal/num"
)

// variable status within the simplex.
type varStatus int8

const (
	statusBasic varStatus = iota
	statusAtLower
	statusAtUpper
	statusFree // nonbasic free variable pinned at 0
)

// simplex is a two-phase bounded-variable primal simplex working on the
// equality form  [A | I_slack | I_art] x = b.  Column indices:
//
//	[0, n)        structural variables
//	[n, n+m)      slack variables (fixed to 0 for EQ rows)
//	[n+m, n+2m)   artificial variables (phase 1 only)
type simplex struct {
	p    *Problem
	opts Options

	m, n int // rows, structural variables
	nTot int // n + m (structural + slack)
	nAll int // n + 2m (adds artificials)

	// csc is the structural constraint matrix compiled on solve entry; all
	// matrix access in the hot loops goes through it, never through p.SA.
	csc cscMat

	lo, hi []float64 // bounds per column, length nAll
	cost   []float64 // phase-2 cost per column, length nAll
	artSgn []float64 // ±1 column sign per artificial row

	binv  [][]float64 // m×m basis inverse
	basis []int       // column index basic in each row
	inRow []int       // column → basic row, or -1
	stat  []varStatus // column → status
	xval  []float64   // column → current value

	// scratch buffers reused across iterations.
	y, w, acc []float64
	rhs       []float64 // residual scratch for setup/computeBasicValues

	iters      int
	degenerate int  // consecutive (near-)degenerate pivots
	bland      bool // anti-cycling mode

	// Candidate-list pricing state.
	cand      []int32   // nonbasic columns harvested by the last full sweep
	candScore []float64 // harvest scores, parallel to cand during rebuild
	candAge   int       // pivots served since the last rebuild
	// yExact reports whether y currently equals c_B B⁻¹ exactly (recomputed
	// from the basis) rather than maintained by the incremental per-pivot
	// update. Optimality and unboundedness are only ever certified from
	// exact duals.
	yExact bool
	// lastLeave is the basis row exchanged by the most recent pivot, or -1
	// after a bound flip; pivotRefreshed reports whether that pivot also
	// refactorised B⁻¹ (invalidating the incremental dual update).
	lastLeave      int
	pivotRefreshed bool

	sweeps   int // full pricing sweeps (Solution.PricingSweeps)
	candHits int // pivots served from the candidate list

	factor peelScratch // triangular-peel refactorisation scratch

	// Dual-simplex and eta-file state (dual.go, eta.go). The eta stack is
	// only ever non-empty while runDual is executing: every dual exit path
	// that hands the basis to phase 2 or the primal repair refactorises
	// first, so the primal loops always see binv == B⁻¹ exactly as before.
	eta      etaFile
	dred     []float64 // nonbasic reduced costs maintained by the dual path
	alpha    []float64 // dual pricing row α_j = (B⁻¹A_j)_r per column
	rowr     []float64 // BTRAN scratch: row r of the current B⁻¹
	w2       []float64 // secondary FTRAN scratch (bound-flip spikes)
	etaRho   []float64 // sparse BTRAN scratch, all-zero outside etaRhoNZ
	etaRhoNZ []int32
	elig     []int32 // dual ratio-test candidate list
	flips    []int32 // pending bound flips of the current dual pivot

	dualIters        int // dual-simplex pivots (Solution.DualIters)
	etaCount         int // eta updates recorded (Solution.EtaCount)
	refactorizations int // basis refactorisations (Solution.Refactorizations)

	// ctx, when non-nil, is polled every ctxCheckInterval pivots; a canceled
	// or expired context stops the phase loops with StatusCanceled. Nil on
	// the plain Solve/SolveWithOptions/SolveFrom paths, so they pay nothing.
	ctx context.Context
}

// canceled reports whether the solve's context has been canceled or its
// deadline has expired.
func (s *simplex) canceled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// simplexPool recycles solver instances across solves, so rolling-horizon
// replans and branch-and-bound node LPs stop re-allocating O(m²) of basis
// inverse and O(m+n) of scratch every call. A pooled instance retains only
// buffers — reset re-derives every semantic field, and release drops the
// Problem/context/CSC references so nothing user-visible is pinned.
var simplexPool = sync.Pool{New: func() any { return new(simplex) }}

func newSimplex(p *Problem, opts Options) *simplex {
	s := simplexPool.Get().(*simplex)
	s.reset(p, opts)
	return s
}

// release returns the solver to the pool. The Solution assembled by result()
// shares no memory with the solver, so callers release as soon as they hold
// the Solution.
func (s *simplex) release() {
	s.p = nil
	s.ctx = nil
	simplexPool.Put(s)
}

// reset re-initialises a (possibly recycled) solver for one solve of p.
// Every field the solve reads is either re-assigned here, assigned by the
// phase setup paths before first use, or explicitly re-zeroed — recycled
// buffer contents must never leak between solves.
func (s *simplex) reset(p *Problem, opts Options) {
	m, n := p.NumRows(), p.NumVars()
	s.p, s.opts = p, opts
	s.m, s.n, s.nTot, s.nAll = m, n, n+m, n+2*m
	s.csc.compile(p)
	s.lo = growFloat(s.lo, s.nAll)
	s.hi = growFloat(s.hi, s.nAll)
	s.cost = growFloat(s.cost, s.nAll)
	s.artSgn = growFloat(s.artSgn, m)
	for j := 0; j < n; j++ {
		s.lo[j], s.hi[j] = p.boundsAt(j)
		s.cost[j] = p.C[j]
	}
	// Slack and artificial columns always cost zero in phase 2; a recycled
	// cost buffer holds stale values, so zero the tail explicitly.
	for j := n; j < s.nAll; j++ {
		s.cost[j] = 0
	}
	for i := 0; i < m; i++ {
		j := n + i
		switch p.Rel[i] {
		case LE:
			s.lo[j], s.hi[j] = 0, math.Inf(1)
		case GE:
			s.lo[j], s.hi[j] = math.Inf(-1), 0
		case EQ:
			s.lo[j], s.hi[j] = 0, 0
		}
	}
	// Artificial bounds are assigned in phase 1 setup.
	if cap(s.binv) < m {
		s.binv = make([][]float64, m)
	}
	s.binv = s.binv[:m]
	for i := range s.binv {
		s.binv[i] = growFloat(s.binv[i], m)
	}
	s.basis = growInt(s.basis, m)
	s.inRow = growInt(s.inRow, s.nAll)
	s.stat = growStatus(s.stat, s.nAll)
	s.xval = growFloat(s.xval, s.nAll)
	s.y = growFloat(s.y, m)
	s.w = growFloat(s.w, m)
	s.acc = growFloat(s.acc, n)
	s.rhs = growFloat(s.rhs, m)
	s.iters = 0
	s.degenerate = 0
	s.bland = false
	s.cand = s.cand[:0]
	s.candAge = 0
	s.yExact = false
	s.lastLeave = -1
	s.pivotRefreshed = false
	s.sweeps = 0
	s.candHits = 0
	s.eta.reset()
	s.dred = growFloat(s.dred, s.nTot)
	s.alpha = growFloat(s.alpha, s.nTot)
	s.rowr = growFloat(s.rowr, m)
	s.w2 = growFloat(s.w2, m)
	s.etaRho = growFloat(s.etaRho, m)
	// btranRow relies on etaRho being all-zero outside its tracked nonzero
	// list; a recycled buffer holds stale values, so zero it explicitly.
	for i := range s.etaRho {
		s.etaRho[i] = 0
	}
	s.etaRhoNZ = s.etaRhoNZ[:0]
	s.elig = s.elig[:0]
	s.flips = s.flips[:0]
	s.dualIters = 0
	s.etaCount = 0
	s.refactorizations = 0
	s.ctx = nil
}

// colInto writes column j of the equality-form matrix into dst.
func (s *simplex) colInto(j int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	switch {
	case j < s.n:
		c := &s.csc
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			dst[c.rowIdx[t]] = c.val[t]
		}
	case j < s.nTot:
		dst[j-s.n] = 1
	default:
		dst[j-s.nTot] = s.artSgn[j-s.nTot]
	}
}

// ftranInto computes dst = B⁻¹·A_j, iterating only column j's nonzeros
// against the dense rows of B⁻¹ (slack and artificial unit columns reduce
// to a single B⁻¹ column read). Relative to the dense dot product this
// omits only terms with an exact-zero column coefficient, which cannot
// change any sum beyond the sign of zero partial results.
func (s *simplex) ftranInto(j int, dst []float64) {
	m := s.m
	switch {
	case j < s.n:
		c := &s.csc
		lo, hi := c.colPtr[j], c.colPtr[j+1]
		for i := 0; i < m; i++ {
			row := s.binv[i]
			wi := 0.0
			for t := lo; t < hi; t++ {
				wi += row[c.rowIdx[t]] * c.val[t]
			}
			dst[i] = wi
		}
	case j < s.nTot:
		k := j - s.n
		for i := 0; i < m; i++ {
			dst[i] = s.binv[i][k]
		}
	default:
		k := j - s.nTot
		sg := s.artSgn[k]
		for i := 0; i < m; i++ {
			dst[i] = s.binv[i][k] * sg
		}
	}
}

// colDot returns row · A_j over column j's nonzeros.
func (s *simplex) colDot(row []float64, j int) float64 {
	switch {
	case j < s.n:
		c := &s.csc
		acc := 0.0
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			acc += row[c.rowIdx[t]] * c.val[t]
		}
		return acc
	case j < s.nTot:
		return row[j-s.n]
	default:
		return row[j-s.nTot] * s.artSgn[j-s.nTot]
	}
}

// nonbasicRest returns the value a nonbasic column rests at.
func (s *simplex) nonbasicRest(j int) (float64, varStatus) {
	lo, hi := s.lo[j], s.hi[j]
	switch {
	case !math.IsInf(lo, -1):
		return lo, statusAtLower
	case !math.IsInf(hi, 1):
		return hi, statusAtUpper
	default:
		return 0, statusFree
	}
}

func (s *simplex) solve() (*Solution, error) {
	feasible := s.setupPhase1()
	if !feasible {
		st := s.runPhase(true)
		if st == StatusIterLimit || st == StatusCanceled {
			// The limit/cancellation fired before feasibility: the partially-
			// pivoted iterate is not a usable point, so X/Obj stay empty.
			return s.result(st, false), nil
		}
		art := 0.0
		for i := 0; i < s.m; i++ {
			if s.basis[i] >= s.nTot {
				art += s.xval[s.basis[i]]
			}
		}
		if art > num.FeasTol*s.phase1Scale() {
			sol := s.result(StatusInfeasible, false)
			sol.FarkasRay = s.dualVector(true)
			return sol, nil
		}
		s.evictArtificials()
	}
	return s.solvePhase2()
}

// phase1Scale returns the magnitude scale against which the phase-1
// artificial residual is judged. The artificials absorb b − N·x_rest, so
// the cancellation noise a feasible model can legitimately leave on them
// grows both with the right-hand side and with the finite bound values the
// nonbasic columns rest at, each amplified by its column's largest
// coefficient. Scaling by max|B| alone misreported feasible models with
// large lo/hi and a small right-hand side as infeasible.
func (s *simplex) phase1Scale() float64 {
	scale := 1.0
	for _, b := range s.p.B {
		if a := math.Abs(b); a > scale {
			scale = a
		}
	}
	c := &s.csc
	for j := 0; j < s.n; j++ {
		v := 0.0
		if lo := s.lo[j]; !math.IsInf(lo, -1) {
			v = math.Abs(lo)
		}
		if hi := s.hi[j]; !math.IsInf(hi, 1) {
			if a := math.Abs(hi); a > v {
				v = a
			}
		}
		if v == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero rest magnitude contributes no residual noise
			continue
		}
		colMax := 0.0
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			if a := math.Abs(c.val[t]); a > colMax {
				colMax = a
			}
		}
		if va := v * colMax; va > scale {
			scale = va
		}
	}
	return scale
}

// solvePhase2 locks the artificial columns at zero, restores the true
// objective, and optimises from the current primal-feasible basis. It is the
// shared tail of the cold path (after phase 1) and the warm path (after
// installBasis / runRepair); an optimal solution carries a Basis snapshot so
// the caller can warm-start neighbouring problems.
func (s *simplex) solvePhase2() (*Solution, error) {
	for i := 0; i < s.m; i++ {
		j := s.nTot + i
		s.lo[j], s.hi[j] = 0, 0
		s.cost[j] = 0
		if s.stat[j] != statusBasic {
			s.xval[j] = 0
			s.stat[j] = statusAtLower
		}
	}
	// Honor an already-expired context before the first pivot: the phase
	// loops only poll every ctxCheckInterval pivots, so without this check
	// an entry with iters%ctxCheckInterval != 0 — or the clean-install warm
	// path — could run up to ctxCheckInterval−1 pivots past cancellation.
	// The iterate here is primal feasible in every entry case (post
	// phase 1, post repair, or a clean warm install), so X/Obj may be
	// reported exactly as for a cancellation that fires mid-phase-2.
	if s.canceled() {
		return s.result(StatusCanceled, true), nil
	}
	st := s.runPhase(false)
	sol := s.result(st, true)
	if st == StatusOptimal {
		sol.Duals = s.dualVector(false)
		sol.Basis = s.snapshotBasis()
	}
	return sol, nil
}

// dualVector returns y = c_B B⁻¹ for the phase's cost vector: at a phase-2
// optimum these are the row shadow prices; at a positive phase-1 optimum
// they form a Farkas-style infeasibility certificate. The accumulation runs
// on the pooled s.y scratch (computeDuals walks the identical terms in the
// identical order, so the result is bit-for-bit what the historical private
// accumulator produced) and only the exported copy is freshly allocated.
func (s *simplex) dualVector(phase1 bool) []float64 {
	s.computeDuals(phase1)
	out := make([]float64, s.m)
	copy(out, s.y)
	return out
}

// setupPhase1 places nonbasic columns at rest, installs the artificial
// basis, and reports whether the slack/rest point is already feasible
// (in which case phase 1 can be skipped entirely).
func (s *simplex) setupPhase1() bool {
	// Rest all structural and slack columns.
	for j := 0; j < s.nTot; j++ {
		v, st := s.nonbasicRest(j)
		s.xval[j], s.stat[j] = v, st
		s.inRow[j] = -1
	}
	// Residual r = b − N·x_rest.
	r := s.rhs
	copy(r, s.p.B)
	for j := 0; j < s.n; j++ {
		if v := s.xval[j]; v != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: zero rest values contribute nothing to the residual
			c := &s.csc
			for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
				r[c.rowIdx[t]] -= c.val[t] * v
			}
		}
	}
	for i := 0; i < s.m; i++ {
		if v := s.xval[s.n+i]; v != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: zero slack rest values contribute nothing
			r[i] -= v
		}
	}
	// Try the cheap start: absorb the residual into the slack columns
	// where their bounds allow it, and count what is left over.
	allFeasible := true
	for i := 0; i < s.m; i++ {
		sj := s.n + i
		want := s.xval[sj] + r[i]
		if want >= s.lo[sj]-s.opts.Tol && want <= s.hi[sj]+s.opts.Tol {
			continue
		}
		allFeasible = false
		break
	}
	if allFeasible {
		// Slack basis with slack values set to absorb the residual.
		for i := 0; i < s.m; i++ {
			sj := s.n + i
			s.xval[sj] += r[i]
			s.basis[i] = sj
			s.stat[sj] = statusBasic
			s.inRow[sj] = i
			for k := 0; k < s.m; k++ {
				s.binv[i][k] = 0
			}
			s.binv[i][i] = 1
			s.artSgn[i] = 1
			aj := s.nTot + i
			s.lo[aj], s.hi[aj] = 0, 0
			s.xval[aj] = 0
			s.stat[aj] = statusAtLower
			s.inRow[aj] = -1
		}
		return true
	}
	// General start: artificial basis carrying the residual.
	for i := 0; i < s.m; i++ {
		aj := s.nTot + i
		s.artSgn[i] = 1
		if r[i] < 0 {
			s.artSgn[i] = -1
		}
		s.lo[aj], s.hi[aj] = 0, math.Inf(1)
		s.xval[aj] = math.Abs(r[i])
		s.stat[aj] = statusBasic
		s.basis[i] = aj
		s.inRow[aj] = i
		s.inRow[s.n+i] = -1
		for k := 0; k < s.m; k++ {
			s.binv[i][k] = 0
		}
		//lint:ignore rentlint/nanprop artSgn is assigned ±1 a few lines above, never zero
		s.binv[i][i] = 1 / s.artSgn[i]
	}
	return false
}

// phaseCost returns the active objective coefficient of column j.
func (s *simplex) phaseCost(j int, phase1 bool) float64 {
	if phase1 {
		if j >= s.nTot {
			return 1
		}
		return 0
	}
	return s.cost[j]
}

// computeDuals recomputes y = c_B B⁻¹ exactly from the current basis.
func (s *simplex) computeDuals(phase1 bool) {
	for k := 0; k < s.m; k++ {
		s.y[k] = 0
	}
	for i := 0; i < s.m; i++ {
		cb := s.phaseCost(s.basis[i], phase1)
		if cb == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: omitting a zero coefficient changes no sum, for any rounding
			continue
		}
		row := s.binv[i]
		for k := 0; k < s.m; k++ {
			s.y[k] += cb * row[k]
		}
	}
	s.yExact = true
}

// accumAcc recomputes acc = yᵀA over the structural columns by sweeping the
// CSC columns. Relative to the historical dense row sweep this accumulates
// the identical nonzero products in the identical (row-index) order per
// column, omitting only exact-zero terms, so the result matches the dense
// path bit-for-bit up to the sign of zero entries — which no tolerance
// comparison downstream can observe.
func (s *simplex) accumAcc() {
	c := &s.csc
	for j := 0; j < s.n; j++ {
		acc := 0.0
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			if yi := s.y[c.rowIdx[t]]; yi != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero dual multiplies every entry of the row to zero
				acc += yi * c.val[t]
			}
		}
		s.acc[j] = acc
	}
}

// runPhase iterates pivots until optimality, unboundedness or limits, with
// candidate-list partial pricing over incrementally maintained duals. A
// full sweep (always over freshly recomputed duals) harvests the candCap()
// best-priced nonbasic columns; subsequent pivots drain that list,
// re-pricing only its members, until it is empty or candTTL() pivots old,
// whereupon the next sweep rebuilds it.
// Optimality and unboundedness are certified exclusively from exact duals:
// an empty sweep is already exact, and an unbounded pivot found under
// drifted duals is retried after an exact recompute.
func (s *simplex) runPhase(phase1 bool) Status {
	tol := s.opts.Tol
	s.cand = s.cand[:0]
	s.candAge = 0
	s.computeDuals(phase1)
	for {
		if s.iters >= s.opts.MaxIter {
			return StatusIterLimit
		}
		if s.iters%ctxCheckInterval == 0 && s.canceled() {
			return StatusCanceled
		}
		var enter int
		var dir, d float64
		fromList := false
		if s.bland {
			// Anti-cycling mode: exact duals and a full first-eligible
			// sweep, so Bland's rule keeps its termination guarantee.
			s.computeDuals(phase1)
			s.accumAcc()
			s.sweeps++
			enter, dir = s.priceEntering(phase1, tol)
			if enter >= 0 {
				if enter < s.n {
					d = s.phaseCost(enter, phase1) - s.acc[enter]
				} else {
					d = s.phaseCost(enter, phase1) - s.y[enter-s.n]
				}
			}
		} else {
			enter = -1
			if len(s.cand) > 0 && s.candAge < s.candTTL() {
				enter, dir, d = s.pickCandidate(phase1, tol)
				fromList = enter >= 0
			}
			if enter < 0 {
				enter, dir, d = s.rebuildCandidates(phase1, tol)
			}
		}
		if enter < 0 {
			// The concluding sweep ran over exact duals: optimal.
			return StatusOptimal
		}
		st := s.pivot(enter, dir, false, tol)
		if st == statusPivotUnbounded {
			if s.yExact {
				return StatusUnbounded
			}
			// The column was priced against drifted duals; re-certify the
			// improving direction from exact duals before concluding. The
			// failed pivot mutated nothing, so retrying is safe.
			s.computeDuals(phase1)
			s.cand = s.cand[:0]
			continue
		}
		if st != statusPivotOK {
			return StatusIterLimit
		}
		s.iters++
		if fromList {
			s.candHits++
		}
		s.candAge++
		switch {
		case s.lastLeave < 0:
			// Bound flip: basis and duals unchanged.
		case s.pivotRefreshed:
			// The pivot refactorised B⁻¹; the eta row the incremental
			// update needs is gone, so recompute.
			s.computeDuals(phase1)
		default:
			// Basis exchange: y' = y + d·(row r of the updated B⁻¹), where
			// d = c_j − yᵀA_j is the entering column's reduced cost and r
			// the exchanged row. All other terms of c_B'·B'⁻¹ cancel
			// against the eta update, so this O(m) step keeps y consistent
			// with the new basis (up to drift, contained by the exact
			// recomputes at every sweep).
			row := s.binv[s.lastLeave]
			for k := 0; k < s.m; k++ {
				s.y[k] += d * row[k]
			}
			s.yExact = false
		}
	}
}

// candCap is the candidate-list capacity: enough breadth that a drain phase
// survives several pivots, capped so list re-pricing stays cheap.
func (s *simplex) candCap() int {
	k := s.nTot / 8
	if k < 8 {
		k = 8
	}
	if k > 64 {
		k = 64
	}
	return k
}

// candTTL is how many pivots a harvested list may serve before it is
// considered stale and rebuilt from a fresh full sweep.
func (s *simplex) candTTL() int { return s.candCap() }

// reducedCost returns c_j − yᵀA_j for the active phase objective against
// the current (possibly incrementally maintained) duals.
func (s *simplex) reducedCost(j int, phase1 bool) float64 {
	if j < s.n {
		c := &s.csc
		acc := 0.0
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			if yi := s.y[c.rowIdx[t]]; yi != 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero dual contributes nothing to the dot product
				acc += yi * c.val[t]
			}
		}
		return s.phaseCost(j, phase1) - acc
	}
	return s.phaseCost(j, phase1) - s.y[j-s.n]
}

// enteringDir classifies a nonbasic column with reduced cost d: +1 to
// increase from lower, −1 to decrease from upper, 0 when not attractive;
// score is the Dantzig score |d| when eligible. It mirrors the eligibility
// cases of priceEntering exactly.
func enteringDir(st varStatus, d, tol float64) (dir, score float64) {
	switch st {
	case statusAtLower:
		if d < -tol {
			return 1, -d
		}
	case statusAtUpper:
		if d > tol {
			return -1, d
		}
	case statusFree:
		if d < -tol {
			return 1, -d
		}
		if d > tol {
			return -1, d
		}
	}
	return 0, 0
}

// pickCandidate drains the candidate list: entries that went basic, became
// fixed, or no longer price attractively are dropped in place, and the
// best-priced survivor is returned with its reduced cost.
func (s *simplex) pickCandidate(phase1 bool, tol float64) (int, float64, float64) {
	bestJ, bestDir, bestD, bestScore := -1, 0.0, 0.0, tol
	keep := s.cand[:0]
	for _, cj := range s.cand {
		j := int(cj)
		//lint:ignore rentlint/floatcmp fixed columns have lo and hi assigned from the same value; the check must match that exactly
		if s.stat[j] == statusBasic || s.lo[j] == s.hi[j] {
			continue
		}
		d := s.reducedCost(j, phase1)
		dir, score := enteringDir(s.stat[j], d, tol)
		if dir == 0 { //lint:ignore rentlint/floatcmp dir is a ±1/0 sentinel assigned literally above, never computed
			continue
		}
		keep = append(keep, cj)
		if score > bestScore {
			bestJ, bestDir, bestD, bestScore = j, dir, d, score
		}
	}
	s.cand = keep
	return bestJ, bestDir, bestD
}

// rebuildCandidates recomputes exact duals, runs one full Dantzig sweep
// returning the best entering column, and harvests the candCap() highest-
// scoring eligible columns into the candidate list for the following
// pivots to drain.
func (s *simplex) rebuildCandidates(phase1 bool, tol float64) (int, float64, float64) {
	s.computeDuals(phase1)
	s.sweeps++
	s.candAge = 0
	kcap := s.candCap()
	s.cand = s.cand[:0]
	s.candScore = s.candScore[:0]
	weak := -1 // index of the lowest-scoring stored candidate once full
	bestJ, bestDir, bestD, bestScore := -1, 0.0, 0.0, tol
	for j := 0; j < s.nTot; j++ { // artificials never re-enter
		//lint:ignore rentlint/floatcmp fixed columns have lo and hi assigned from the same value; the check must match that exactly
		if s.stat[j] == statusBasic || s.lo[j] == s.hi[j] {
			continue
		}
		d := s.reducedCost(j, phase1)
		dir, score := enteringDir(s.stat[j], d, tol)
		if dir == 0 { //lint:ignore rentlint/floatcmp dir is a ±1/0 sentinel assigned literally above, never computed
			continue
		}
		if score > bestScore {
			bestJ, bestDir, bestD, bestScore = j, dir, d, score
		}
		if len(s.cand) < kcap {
			s.cand = append(s.cand, int32(j))
			s.candScore = append(s.candScore, score)
			if len(s.cand) == kcap {
				weak = argminFloat(s.candScore)
			}
		} else if score > s.candScore[weak] {
			s.cand[weak] = int32(j)
			s.candScore[weak] = score
			weak = argminFloat(s.candScore)
		}
	}
	return bestJ, bestDir, bestD
}

// argminFloat returns the index of the smallest element.
func argminFloat(v []float64) int {
	w := 0
	for t := 1; t < len(v); t++ {
		if v[t] < v[w] {
			w = t
		}
	}
	return w
}

// priceEntering selects an entering column and movement direction
// (+1 increase, −1 decrease), or (-1, 0) at optimality.
func (s *simplex) priceEntering(phase1 bool, tol float64) (int, float64) {
	limit := s.nTot // artificials never re-enter
	bestJ, bestDir, bestScore := -1, 0.0, tol
	for j := 0; j < limit; j++ {
		//lint:ignore rentlint/floatcmp fixed columns have lo and hi assigned from the same value; the check must match that exactly
		if s.stat[j] == statusBasic || s.lo[j] == s.hi[j] {
			continue
		}
		var d float64
		if j < s.n {
			d = s.phaseCost(j, phase1) - s.acc[j]
		} else {
			d = s.phaseCost(j, phase1) - s.y[j-s.n]
		}
		var dir, score float64
		switch s.stat[j] {
		case statusAtLower:
			if d < -tol {
				dir, score = 1, -d
			}
		case statusAtUpper:
			if d > tol {
				dir, score = -1, d
			}
		case statusFree:
			if d < -tol {
				dir, score = 1, -d
			} else if d > tol {
				dir, score = -1, d
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

type pivotStatus int8

const (
	statusPivotOK pivotStatus = iota
	statusPivotUnbounded
)

// pivot advances the entering column j in direction dir, performing either a
// bound flip or a basis exchange. In repair mode (the restricted shifted
// phase 1 run by runRepair) basic columns that violate a bound block only at
// the bound they violate — crossing it would flip their ±1 infeasibility
// cost mid-step — while feasible basics block as in a normal phase, so the
// repair never trades one violation for another.
func (s *simplex) pivot(j int, dir float64, repair bool, tol float64) pivotStatus {
	s.lastLeave = -1
	s.pivotRefreshed = false
	// w = B⁻¹ A_j (sparse FTRAN).
	s.ftranInto(j, s.w)
	// Ratio test: x_B(t) = x_B − t·dir·w for step t ≥ 0.
	tMax := math.Inf(1)
	leave := -1
	leaveAt := statusAtLower
	pivTol := num.PivotTol
	for i := 0; i < s.m; i++ {
		g := dir * s.w[i]
		if math.Abs(g) <= pivTol {
			continue
		}
		bj := s.basis[i]
		var t float64
		var hit varStatus
		switch {
		case repair && s.xval[bj] < s.lo[bj]-num.FeasTol:
			if g > 0 {
				continue // moving further below its lower bound never blocks
			}
			t = (s.xval[bj] - s.lo[bj]) / g
			hit = statusAtLower
		case repair && s.xval[bj] > s.hi[bj]+num.FeasTol:
			if g < 0 {
				continue // moving further above its upper bound never blocks
			}
			t = (s.xval[bj] - s.hi[bj]) / g
			hit = statusAtUpper
		case g > 0: // basic value decreases toward its lower bound
			if math.IsInf(s.lo[bj], -1) {
				continue
			}
			t = (s.xval[bj] - s.lo[bj]) / g
			hit = statusAtLower
		default: // basic value increases toward its upper bound
			if math.IsInf(s.hi[bj], 1) {
				continue
			}
			t = (s.xval[bj] - s.hi[bj]) / g
			hit = statusAtUpper
		}
		if t < -tol {
			t = 0
		}
		better := t < tMax-tol
		tie := !better && t < tMax+tol
		if better || (tie && s.bland && (leave < 0 || bj < s.basis[leave])) ||
			(tie && !s.bland && leave >= 0 && math.Abs(s.w[i]) > math.Abs(s.w[leave])) {
			tMax, leave, leaveAt = math.Max(t, 0), i, hit
		}
	}
	// The entering column itself blocks at its opposite bound.
	span := s.hi[j] - s.lo[j]
	if !math.IsInf(span, 1) && span < tMax {
		// Bound flip: no basis change.
		t := span
		for i := 0; i < s.m; i++ {
			bj := s.basis[i]
			s.xval[bj] -= t * dir * s.w[i]
		}
		if dir > 0 {
			s.xval[j], s.stat[j] = s.hi[j], statusAtUpper
		} else {
			s.xval[j], s.stat[j] = s.lo[j], statusAtLower
		}
		s.noteDegeneracy(t, tol)
		return statusPivotOK
	}
	if leave < 0 {
		return statusPivotUnbounded
	}
	t := tMax
	// Update primal values.
	for i := 0; i < s.m; i++ {
		bj := s.basis[i]
		s.xval[bj] -= t * dir * s.w[i]
	}
	out := s.basis[leave]
	if leaveAt == statusAtLower {
		s.xval[out], s.stat[out] = s.lo[out], statusAtLower
	} else {
		s.xval[out], s.stat[out] = s.hi[out], statusAtUpper
	}
	s.inRow[out] = -1
	s.xval[j] += t * dir
	s.stat[j] = statusBasic
	s.basis[leave] = j
	s.inRow[j] = leave
	s.lastLeave = leave
	// Product-form update of B⁻¹: pivot on w[leave].
	piv := s.w[leave]
	rowR := s.binv[leave]
	//lint:ignore rentlint/nanprop the ratio test only admits rows with |w| > pivTol, so piv is nonzero by construction
	inv := 1 / piv
	for k := 0; k < s.m; k++ {
		rowR[k] *= inv
	}
	for i := 0; i < s.m; i++ {
		if i == leave {
			continue
		}
		f := s.w[i]
		if f == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: a zero multiplier leaves the row untouched
			continue
		}
		row := s.binv[i]
		for k := 0; k < s.m; k++ {
			row[k] -= f * rowR[k]
		}
	}
	s.noteDegeneracy(t, tol)
	if s.iters%128 == 127 {
		s.refresh()
		s.pivotRefreshed = true
	}
	return statusPivotOK
}

func (s *simplex) noteDegeneracy(t, tol float64) {
	if t <= tol {
		s.degenerate++
		if s.degenerate > 4*(s.m+10) {
			s.bland = true
		}
	} else {
		s.degenerate = 0
		s.bland = false
	}
}

// refresh refactorises B⁻¹ from scratch and recomputes basic values,
// containing accumulated floating-point drift. A numerically singular basis
// keeps the incrementally updated inverse and values untouched.
func (s *simplex) refresh() {
	if !s.invertBasis() {
		return
	}
	s.refactorizations++
	s.computeBasicValues()
}

// invertBasis rebuilds B⁻¹ from the current basis columns. It first
// attempts the triangular-peel factorisation, which handles the
// near-triangular bases of scenario-tree LPs in O(m² + m·nnz), and falls
// back to dense Gauss–Jordan elimination whenever the basis does not peel
// cleanly. Either way false is reported — leaving s.binv untouched — when
// the basis matrix is numerically singular.
func (s *simplex) invertBasis() bool {
	if s.invertBasisPeel() {
		return true
	}
	return s.invertBasisDense()
}

// invertBasisDense rebuilds B⁻¹ via dense Gauss–Jordan with partial
// pivoting. It reports false — leaving s.binv untouched — when the basis
// matrix is numerically singular.
func (s *simplex) invertBasisDense() bool {
	m := s.m
	mat := make([][]float64, m)
	for i := 0; i < m; i++ {
		mat[i] = make([]float64, 2*m)
	}
	col := make([]float64, m)
	for bi, j := range s.basis {
		s.colInto(j, col)
		for i := 0; i < m; i++ {
			mat[i][bi] = col[i]
		}
	}
	for i := 0; i < m; i++ {
		mat[i][m+i] = 1
	}
	for c := 0; c < m; c++ {
		p, best := -1, num.SingularTol
		for r := c; r < m; r++ {
			if a := math.Abs(mat[r][c]); a > best {
				p, best = r, a
			}
		}
		if p < 0 {
			return false // singular
		}
		mat[c], mat[p] = mat[p], mat[c]
		//lint:ignore rentlint/nanprop partial pivoting just swapped a row with |entry| > num.SingularTol into position c
		inv := 1 / mat[c][c]
		for k := c; k < 2*m; k++ {
			mat[c][k] *= inv
		}
		for r := 0; r < m; r++ {
			if r == c || mat[r][c] == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: elimination of an already-zero entry is a no-op
				continue
			}
			f := mat[r][c]
			for k := c; k < 2*m; k++ {
				mat[r][k] -= f * mat[c][k]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(s.binv[i], mat[i][m:])
	}
	return true
}

// computeBasicValues recomputes x_B = B⁻¹ (b − N x_N) from the nonbasic rest
// values. Nonbasic slack and artificial columns always rest at exactly 0
// (their only finite bound), so only structural columns contribute.
func (s *simplex) computeBasicValues() {
	m := s.m
	r := s.rhs
	copy(r, s.p.B)
	for j := 0; j < s.n; j++ {
		if s.stat[j] == statusBasic {
			continue
		}
		v := s.xval[j]
		if v == 0 { //lint:ignore rentlint/floatcmp exact-zero skip: zero nonbasic values contribute nothing to the residual
			continue
		}
		c := &s.csc
		for t := c.colPtr[j]; t < c.colPtr[j+1]; t++ {
			r[c.rowIdx[t]] -= c.val[t] * v
		}
	}
	for i := 0; i < m; i++ {
		v := 0.0
		row := s.binv[i]
		for k := 0; k < m; k++ {
			v += row[k] * r[k]
		}
		s.xval[s.basis[i]] = v
	}
}

// result assembles a Solution. feasiblePoint reports whether the current
// iterate satisfies the constraints and bounds; X/Obj are exported only for
// a proven optimum or for an iteration limit / cancellation that fired at a
// feasible (phase-2) point — a stop mid-phase-1 or mid-repair must not leak
// a partially-pivoted iterate that downstream pruning could mistake for a
// valid bound.
func (s *simplex) result(st Status, feasiblePoint bool) *Solution {
	sol := &Solution{
		Status:           st,
		Iterations:       s.iters,
		PricingSweeps:    s.sweeps,
		CandidateHits:    s.candHits,
		NNZ:              s.csc.nnz(),
		DualIters:        s.dualIters,
		EtaCount:         s.etaCount,
		Refactorizations: s.refactorizations,
	}
	if st == StatusOptimal || ((st == StatusIterLimit || st == StatusCanceled) && feasiblePoint) {
		sol.X = make([]float64, s.n)
		obj := 0.0
		for j := 0; j < s.n; j++ {
			v := s.xval[j]
			// Snap to bounds to remove tolerance-scale noise.
			if !math.IsInf(s.lo[j], -1) && math.Abs(v-s.lo[j]) < num.SnapTol {
				v = s.lo[j]
			}
			if !math.IsInf(s.hi[j], 1) && math.Abs(v-s.hi[j]) < num.SnapTol {
				v = s.hi[j]
			}
			sol.X[j] = v
			obj += s.p.C[j] * v
		}
		sol.Obj = obj
	}
	return sol
}
