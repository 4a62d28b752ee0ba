package lp

import (
	"context"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"rentplan/internal/num"
)

// dualChild builds a random LP with a guaranteed-feasible anchor point,
// solves it, and returns a branching-style child (one or two bounds rounded
// through the parent optimum) with the parent basis. Mirrors the generator
// of TestWarmColdAgreementFuzz.
func dualChild(t *testing.T, rng *rand.Rand) (*Problem, *Basis) {
	t.Helper()
	n := 3 + rng.Intn(8)
	m := 2 + rng.Intn(6)
	p := &Problem{
		C: make([]float64, n), SA: make([]SparseRow, m),
		Rel: make([]Rel, m), B: make([]float64, m),
		Lower: make([]float64, n), Upper: make([]float64, n),
	}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64()
		p.Upper[j] = 1 + rng.Float64()*5
		x0[j] = rng.Float64() * p.Upper[j]
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		v := 0.0
		for j := 0; j < n; j++ {
			row[j] = rng.NormFloat64()
			v += row[j] * x0[j]
		}
		p.SA[i] = DenseRow(row)
		switch rng.Intn(3) {
		case 0:
			p.Rel[i], p.B[i] = LE, v+rng.Float64()
		case 1:
			p.Rel[i], p.B[i] = GE, v-rng.Float64()
		default:
			p.Rel[i], p.B[i] = EQ, v
		}
	}
	parent, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if parent.Status != StatusOptimal {
		return nil, nil
	}
	child := p.Clone()
	for k := 0; k < 1+rng.Intn(2); k++ {
		j := rng.Intn(n)
		fl := math.Floor(parent.X[j])
		if rng.Intn(2) == 0 {
			child.Upper[j] = math.Max(child.Lower[j], fl)
		} else {
			child.Lower[j] = math.Min(child.Upper[j], fl+1)
		}
	}
	return child, parent.Basis
}

// installedDualFeasible reports whether basis, installed on p, leaves bound
// violations and prices dual feasible: the condition under which SolveFrom
// routes a warm solve through the dual simplex instead of the primal repair.
func installedDualFeasible(p *Problem, basis *Basis) bool {
	s := newSimplex(p, Options{}.withDefaults(p.NumRows(), p.NumVars()))
	defer s.release()
	return s.installBasis(basis) == warmNeedsRepair && s.dualFeasible()
}

// TestDualVsPrimalAgreementFuzz is the seeded property test of the warm
// paths against the cold oracle. Each branching-style child is re-solved
// from its parent basis twice: as is, where the dual path must engage on a
// healthy share of the trials, and with its costs negated, which leaves the
// parent basis dual infeasible so the warm solve must take the primal
// repair (WarmMiss) or find the basis feasible as-is (WarmHit). Both must
// agree with a cold Solve on status and, at optimality, on the objective.
func TestDualVsPrimalAgreementFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	trials, engaged, optimal, bitIdentical, repaired := 0, 0, 0, 0, 0
	for trial := 0; trial < 140; trial++ {
		child, basis := dualChild(t, rng)
		if child == nil {
			continue
		}
		cold, err := Solve(child)
		if err != nil {
			t.Fatal(err)
		}
		dual, err := SolveFrom(child, basis, Options{})
		if err != nil {
			t.Fatal(err)
		}
		trials++
		if dual.WarmStart == WarmDual {
			engaged++
		}
		if dual.Status != cold.Status {
			t.Fatalf("trial %d: status dual=%v cold=%v", trial, dual.Status, cold.Status)
		}
		// Status-certification contract: the dual path itself never
		// certifies; an infeasible/unbounded verdict must come from the
		// cold fallback.
		if (dual.Status == StatusInfeasible || dual.Status == StatusUnbounded) && dual.WarmStart != WarmFallback {
			t.Fatalf("trial %d: %v certified via WarmStart %v, want fallback", trial, dual.Status, dual.WarmStart)
		}

		flipped := child.Clone()
		for j := range flipped.C {
			flipped.C[j] = -flipped.C[j]
		}
		if !installedDualFeasible(flipped, basis) {
			coldF, err := Solve(flipped)
			if err != nil {
				t.Fatal(err)
			}
			prim, err := SolveFrom(flipped, basis, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if prim.Status != coldF.Status {
				t.Fatalf("trial %d: flipped-cost status warm=%v cold=%v", trial, prim.Status, coldF.Status)
			}
			if prim.WarmStart == WarmDual || prim.DualIters != 0 {
				t.Fatalf("trial %d: dual-infeasible basis took the dual path: %v, %d dual iters", trial, prim.WarmStart, prim.DualIters)
			}
			if prim.Status == StatusOptimal {
				if prim.WarmStart != WarmHit && prim.WarmStart != WarmMiss {
					t.Fatalf("trial %d: flipped-cost optimum via WarmStart %v, want hit or miss", trial, prim.WarmStart)
				}
				if prim.WarmStart == WarmMiss {
					repaired++
				}
				if math.Abs(prim.Obj-coldF.Obj) > objTol(coldF.Obj) {
					t.Fatalf("trial %d: primal-repair obj %.17g, cold obj %.17g", trial, prim.Obj, coldF.Obj)
				}
			}
		}

		if cold.Status != StatusOptimal {
			continue
		}
		optimal++
		if math.Float64bits(dual.Obj) == math.Float64bits(cold.Obj) {
			bitIdentical++
		}
		if math.Abs(dual.Obj-cold.Obj) > objTol(cold.Obj) {
			t.Fatalf("trial %d: dual obj %.17g, cold obj %.17g", trial, dual.Obj, cold.Obj)
		}
		if !feasible(child, dual.X, 1e-6) {
			t.Fatalf("trial %d: dual solution infeasible", trial)
		}
	}
	if trials < 80 {
		t.Fatalf("only %d usable trials", trials)
	}
	if engaged == 0 {
		t.Fatal("dual path never engaged")
	}
	if repaired == 0 {
		t.Fatal("primal repair never engaged")
	}
	// The optima should not merely agree to tolerance: on most re-solves
	// the dual path lands on the same vertex and reproduces the cold
	// objective bit-for-bit. (A strict all-trials bit-compare is too
	// strong: degenerate instances admit alternative optimal bases whose
	// objective accumulates in a different summation order.)
	if bitIdentical*2 < optimal {
		t.Fatalf("only %d/%d optimal objectives bit-identical to the cold oracle", bitIdentical, optimal)
	}
	t.Logf("trials=%d dual-engaged=%d primal-repaired=%d optimal=%d bit-identical=%d", trials, engaged, repaired, optimal, bitIdentical)
}

// TestDualNeverCertifiesInfeasibleFuzz drives the warm path into provably
// infeasible children: the verdict must always be produced by the cold
// fallback (with a verifiable Farkas ray), never by a dual or repair stall.
func TestDualNeverCertifiesInfeasibleFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	trials := 0
	for trial := 0; trial < 60; trial++ {
		child, basis := dualChild(t, rng)
		if child == nil {
			continue
		}
		// Make one row unsatisfiable over the bound box: flip it to GE with
		// a right-hand side strictly above the maximum achievable activity.
		i := rng.Intn(child.NumRows())
		maxAct := 0.0
		ok := true
		r := &child.SA[i]
		for k, j := range r.Ix {
			a := r.V[k]
			lo, hi := child.boundsAt(j)
			if a > 0 {
				if math.IsInf(hi, 1) {
					ok = false
					break
				}
				maxAct += a * hi
			} else if a < 0 {
				if math.IsInf(lo, -1) {
					ok = false
					break
				}
				maxAct += a * lo
			}
		}
		if !ok {
			continue
		}
		child.Rel[i], child.B[i] = GE, maxAct+1
		warm, err := SolveFrom(child, basis, Options{})
		if err != nil {
			t.Fatal(err)
		}
		trials++
		if warm.Status != StatusInfeasible {
			t.Fatalf("trial %d: status %v, want infeasible", trial, warm.Status)
		}
		if warm.WarmStart != WarmFallback {
			t.Fatalf("trial %d: infeasibility certified via WarmStart %v, want fallback", trial, warm.WarmStart)
		}
		certifyFarkas(t, child, warm.FarkasRay)
	}
	if trials < 30 {
		t.Fatalf("only %d usable trials", trials)
	}
}

// TestDualTelemetry pins the new Solution counters on a deliberately larger
// re-solve: a WarmDual outcome must report its pivots in DualIters, record
// eta updates, and account at least the final pre-phase-2 refactorisation.
func TestDualTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := randomLP(rng, 60, 30)
	parent := mustOptimal(t, p)
	child := p.Clone()
	nTightened := 0
	for j := 0; j < 60 && nTightened < 6; j++ {
		if parent.X[j] > 0.5 {
			child.Upper[j] = 0.4
			nTightened++
		}
	}
	if nTightened == 0 {
		t.Skip("parent optimum degenerate at zero; no bound to tighten")
	}
	warm, err := SolveFrom(child, parent.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmStart != WarmDual {
		t.Fatalf("WarmStart = %v, want dual", warm.WarmStart)
	}
	if warm.DualIters <= 0 || warm.DualIters > warm.Iterations {
		t.Fatalf("DualIters = %d with %d total iterations", warm.DualIters, warm.Iterations)
	}
	if warm.EtaCount <= 0 {
		t.Fatalf("EtaCount = %d, want > 0", warm.EtaCount)
	}
	if warm.Refactorizations <= 0 {
		t.Fatalf("Refactorizations = %d, want > 0", warm.Refactorizations)
	}
	cold, err := Solve(child)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Obj-cold.Obj) > objTol(cold.Obj) {
		t.Fatalf("warm obj %v != cold obj %v", warm.Obj, cold.Obj)
	}
	if cold.DualIters != 0 || cold.EtaCount != 0 {
		t.Fatalf("cold solve reported dual telemetry: %d iters, %d etas", cold.DualIters, cold.EtaCount)
	}
}

// TestSolveFromDualAllocs asserts the sync.Pool scratch discipline with the
// dual path enabled: a steady-state warm re-solve allocates only what
// escapes to the caller — Solution, X, Duals, and the 3-part Basis
// snapshot — i.e. at most 6 allocations. GC is paused so pool evictions
// cannot flake the count.
func TestSolveFromDualAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	rng := rand.New(rand.NewSource(5))
	p := randomLP(rng, 80, 40)
	parent := mustOptimal(t, p)
	// Tighten bounds on basic variables sitting above the new bound so the
	// installed basis is primal-infeasible but dual-feasible.
	child := p.Clone()
	for _, j := range parent.Basis.Columns {
		if j >= 0 && j < 80 && parent.X[j] > 0.05 {
			child.Upper[j] = parent.X[j] * 0.5
		}
	}
	warm, err := SolveFrom(child, parent.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmStart != WarmDual {
		t.Fatalf("WarmStart = %v, want dual", warm.WarmStart)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(50, func() {
		sol, err := SolveFrom(child, parent.Basis, Options{})
		if err != nil || sol.Status != StatusOptimal {
			t.Fatalf("%v %v", sol, err)
		}
	})
	if allocs > 6 {
		t.Fatalf("dual warm re-solve allocates %.1f allocs/op, want ≤ 6", allocs)
	}
}

// TestSolveFromCtxCanceledCleanInstall pins the clean-install cancellation
// bugfix: a context that is already expired must stop the solve before the
// first phase-2 pivot even when the installed basis is feasible as-is
// (warmInstallOK), instead of pivoting up to ctxCheckInterval−1 times.
func TestSolveFromCtxCanceledCleanInstall(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomLP(rng, 20, 10)
	parent := mustOptimal(t, p)
	// Loosen the objective so phase 2 has real work to do from the (still
	// feasible) parent basis.
	child := p.Clone()
	for j := range child.C {
		child.C[j] = -child.C[j]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveFromCtx(ctx, child, parent.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCanceled {
		t.Fatalf("status = %v, want %v", sol.Status, StatusCanceled)
	}
	if sol.Iterations != 0 {
		t.Fatalf("pre-expired context still ran %d pivots", sol.Iterations)
	}
	// The install left a primal-feasible point, so X/Obj may be reported —
	// exactly as for a cancellation mid-phase-2.
	if sol.X == nil {
		t.Fatal("clean-install cancellation dropped the feasible point")
	}
	if !feasible(child, sol.X, 1e-6) {
		t.Fatalf("reported point infeasible: %v", sol.X)
	}
}

// TestPhase1ScaleCoversBounds unit-tests the phase-1 residual scale: it
// must grow with the finite bound magnitudes (weighted by the column's
// largest coefficient), not just with max|B|.
func TestPhase1ScaleCoversBounds(t *testing.T) {
	p := &Problem{
		C:     []float64{1, 1},
		SA:    sparseRows([][]float64{{0.5, -2}}),
		Rel:   []Rel{EQ},
		B:     []float64{3},
		Lower: []float64{1e8, math.Inf(-1)},
		Upper: []float64{2e8, 4},
	}
	s := newSimplex(p, Options{}.withDefaults(1, 2))
	defer s.release()
	got := s.phase1Scale()
	want := 2e8 * 0.5 // |hi|·maxcoef of column 0 dominates |B| = 3
	if got != want {
		t.Fatalf("phase1Scale = %g, want %g", got, want)
	}
}

// TestLargeBoundFeasibleRegression pins the phase-1 infeasibility-test
// bugfix end to end: feasible models whose variables live at ~1e8
// magnitudes but whose right-hand sides are tiny must not be misreported
// infeasible just because the artificial residual carries bound-scale
// rounding noise. The generator anchors every trial at an interior point,
// so every instance is feasible by construction.
func TestLargeBoundFeasibleRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	const big = 1e8
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(6)
		m := 3 + rng.Intn(5)
		p := &Problem{
			C: make([]float64, n), SA: make([]SparseRow, m),
			Rel: make([]Rel, m), B: make([]float64, m),
			Lower: make([]float64, n), Upper: make([]float64, n),
		}
		anchor := (0.2 + 0.6*rng.Float64()) * big
		for j := 0; j < n; j++ {
			p.C[j] = rng.NormFloat64()
			p.Lower[j] = 0.1 * big
			p.Upper[j] = big
		}
		for i := 0; i < m; i++ {
			// Coefficients summing to ~0, so the right-hand side at the
			// uniform anchor is tiny while every term is bound-scale: the
			// phase-1 residual is pure large-magnitude cancellation noise.
			row := make([]float64, n)
			b := 0.0
			for j := 0; j < n-1; j += 2 {
				a := 1 + rng.Float64()
				row[j], row[j+1] = a, -a
				b += a*anchor - a*anchor
			}
			p.SA[i] = DenseRow(row)
			if rng.Intn(2) == 0 {
				p.Rel[i], p.B[i] = EQ, b
			} else {
				p.Rel[i], p.B[i] = LE, b+1e-3
			}
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v for a feasible large-bound model", trial, sol.Status)
		}
	}
}

// TestLargeBoundInfeasibleStaysInfeasible guards the other side of the
// loosened phase-1 tolerance: a model whose violation is structural (far
// beyond rounding noise relative to its magnitudes) must still be reported
// infeasible, large bounds or not.
func TestLargeBoundInfeasibleStaysInfeasible(t *testing.T) {
	p := &Problem{
		C:     []float64{1, 1},
		SA:    sparseRows([][]float64{{1, 1}, {1, 1}}),
		Rel:   []Rel{GE, LE},
		B:     []float64{1.9e8, 1.2e8},
		Lower: []float64{0, 0},
		Upper: []float64{1e8, 1e8},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
	certifyFarkas(t, p, sol.FarkasRay)
}

// TestDualFeasTolDocumentedOrdering pins the tolerance relationship the
// dual routing depends on: DualFeasTol must be strictly looser than the
// optimality tolerance the parent basis was certified with.
func TestDualFeasTolDocumentedOrdering(t *testing.T) {
	if num.DualFeasTol <= num.LPTol {
		t.Fatalf("DualFeasTol %g must exceed LPTol %g", num.DualFeasTol, num.LPTol)
	}
}
