package lp

import (
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/num"
)

// objTol returns the warm-vs-cold agreement tolerance for an objective of
// the given magnitude: num.LPTol with mild relative scaling.
func objTol(obj float64) float64 { return num.LPTol * (1 + math.Abs(obj)) }

func mustOptimal(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Basis == nil {
		t.Fatal("optimal solution must carry a basis snapshot")
	}
	return sol
}

func TestWarmStartHitSameProblem(t *testing.T) {
	// Re-solving the identical problem from its own optimal basis must be a
	// hit: no phase 1, no repair, zero additional pivots, same optimum.
	p := &Problem{
		C:   []float64{-1, -1},
		SA:  sparseRows([][]float64{{1, 2}, {3, 1}}),
		Rel: []Rel{LE, LE},
		B:   []float64{4, 6},
	}
	cold := mustOptimal(t, p)
	warm, err := SolveFrom(p, cold.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("warm status = %v", warm.Status)
	}
	if warm.WarmStart != WarmHit {
		t.Fatalf("WarmStart = %v, want hit", warm.WarmStart)
	}
	if warm.Iterations != 0 {
		t.Fatalf("warm re-solve of the same problem took %d pivots, want 0", warm.Iterations)
	}
	if math.Abs(warm.Obj-cold.Obj) > objTol(cold.Obj) {
		t.Fatalf("warm obj %v != cold obj %v", warm.Obj, cold.Obj)
	}
	if warm.Duals == nil || warm.Basis == nil {
		t.Fatal("warm optimum must carry duals and a basis like any other")
	}
}

func TestWarmStartAfterBoundChange(t *testing.T) {
	// The branch-and-bound case: tighten one variable bound past the parent
	// optimum and re-solve warm. The basic column turns infeasible, but the
	// parent basis stays dual feasible, so the dual simplex must repair it
	// (a dual, not a miss or fallback) and land on the same optimum as a
	// cold solve.
	p := &Problem{
		C:     []float64{-1, -1},
		SA:    sparseRows([][]float64{{1, 2}, {3, 1}}),
		Rel:   []Rel{LE, LE},
		B:     []float64{4, 6},
		Lower: []float64{0, 0},
		Upper: []float64{math.Inf(1), math.Inf(1)},
	}
	parent := mustOptimal(t, p) // x = (1.6, 1.2)
	child := p.Clone()
	child.Upper[0] = 1 // branch x0 ≤ 1
	coldSol, err := Solve(child)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveFrom(child, parent.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal || coldSol.Status != StatusOptimal {
		t.Fatalf("status warm=%v cold=%v", warm.Status, coldSol.Status)
	}
	if warm.WarmStart != WarmDual {
		t.Fatalf("WarmStart = %v, want dual (bound change keeps the basis dual feasible)", warm.WarmStart)
	}
	if warm.DualIters == 0 {
		t.Fatalf("WarmDual solve reported zero dual iterations")
	}
	if math.Abs(warm.Obj-coldSol.Obj) > objTol(coldSol.Obj) {
		t.Fatalf("warm obj %v != cold obj %v", warm.Obj, coldSol.Obj)
	}
	if !feasible(child, warm.X, 1e-6) {
		t.Fatalf("warm solution infeasible: %v", warm.X)
	}
}

func TestWarmStartInfeasibleChild(t *testing.T) {
	// A branching change that empties the feasible region: the warm path
	// must agree with the cold path that the child is infeasible (it falls
	// back rather than concluding anything from a stalled repair).
	p := &Problem{
		C:     []float64{1, 1},
		SA:    sparseRows([][]float64{{1, 1}}),
		Rel:   []Rel{GE},
		B:     []float64{4},
		Lower: []float64{0, 0},
		Upper: []float64{3, 3},
	}
	parent := mustOptimal(t, p)
	child := p.Clone()
	child.Upper[0], child.Upper[1] = 1, 1 // x0+x1 ≤ 2 < 4: infeasible
	warm, err := SolveFrom(child, parent.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusInfeasible {
		t.Fatalf("warm status = %v, want infeasible", warm.Status)
	}
	if warm.WarmStart != WarmFallback {
		t.Fatalf("WarmStart = %v, want fallback (repair cannot prove infeasibility)", warm.WarmStart)
	}
	if warm.FarkasRay == nil {
		t.Fatal("fallback infeasibility must still carry a Farkas certificate")
	}
}

func TestWarmStartMalformedBasisFallsBack(t *testing.T) {
	p := &Problem{
		C:   []float64{-1, -1},
		SA:  sparseRows([][]float64{{1, 2}, {3, 1}}),
		Rel: []Rel{LE, LE},
		B:   []float64{4, 6},
	}
	cold := mustOptimal(t, p)
	good := cold.Basis

	mutate := map[string]func(*Basis){
		"nil":              nil,
		"short columns":    func(b *Basis) { b.Columns = b.Columns[:1] },
		"short status":     func(b *Basis) { b.Status = b.Status[:2] },
		"column range":     func(b *Basis) { b.Columns[0] = 99 },
		"column negative":  func(b *Basis) { b.Columns[0] = -7 },
		"duplicate column": func(b *Basis) { b.Columns[1] = b.Columns[0] },
		"unknown status":   func(b *Basis) { b.Status[0] = VarStatus(42) },
		"phantom basic": func(b *Basis) {
			// Mark a column basic without listing it in Columns.
			for j := range b.Status {
				if b.Status[j] != VarBasic {
					b.Status[j] = VarBasic
					return
				}
			}
		},
		"basic marked nonbasic": func(b *Basis) { b.Status[b.Columns[0]] = VarAtLower },
	}
	for name, mut := range mutate {
		var bad *Basis
		if mut != nil {
			bad = good.Clone()
			mut(bad)
		}
		warm, err := SolveFrom(p, bad, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if warm.WarmStart != WarmFallback {
			t.Errorf("%s: WarmStart = %v, want fallback", name, warm.WarmStart)
		}
		if warm.Status != StatusOptimal || math.Abs(warm.Obj-cold.Obj) > objTol(cold.Obj) {
			t.Errorf("%s: fallback result %v obj %v, want optimal %v", name, warm.Status, warm.Obj, cold.Obj)
		}
	}
}

func TestWarmStartStaleBasisFallsBack(t *testing.T) {
	// A basis from an unrelated problem of the same shape may be singular
	// for the new constraint matrix; SolveFrom must still return the exact
	// cold optimum.
	rng := rand.New(rand.NewSource(5))
	mk := func() *Problem {
		n, m := 6, 4
		p := &Problem{
			C: make([]float64, n), SA: make([]SparseRow, m),
			Rel: make([]Rel, m), B: make([]float64, m),
			Lower: make([]float64, n), Upper: make([]float64, n),
		}
		for j := 0; j < n; j++ {
			p.C[j] = rng.NormFloat64()
			p.Upper[j] = 2
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			s := 0.0
			for j := range row {
				row[j] = rng.Float64()
				s += row[j]
			}
			p.SA[i], p.Rel[i], p.B[i] = DenseRow(row), LE, s
		}
		return p
	}
	a, b := mk(), mk()
	solA := mustOptimal(t, a)
	coldB := mustOptimal(t, b)
	warmB, err := SolveFrom(b, solA.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warmB.Status != StatusOptimal {
		t.Fatalf("status %v", warmB.Status)
	}
	if math.Abs(warmB.Obj-coldB.Obj) > objTol(coldB.Obj) {
		t.Fatalf("stale-basis solve obj %v, cold %v", warmB.Obj, coldB.Obj)
	}
}

func TestIterLimitMidPhase1NoPartialPoint(t *testing.T) {
	// Regression: a limit that fires before feasibility used to export the
	// partially-pivoted iterate as X/Obj, which downstream branch-and-bound
	// pruning could mistake for a valid bound. The contract is now: no
	// feasible point, no X.
	rng := rand.New(rand.NewSource(17))
	n, m := 40, 30
	p := &Problem{
		C: make([]float64, n), SA: make([]SparseRow, m),
		Rel: make([]Rel, m), B: make([]float64, m),
		Upper: make([]float64, n), Lower: make([]float64, n),
	}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64()
		p.Upper[j] = 2
		x0[j] = rng.Float64() * 2
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		v := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()
			v += row[j] * x0[j]
		}
		p.SA[i], p.Rel[i], p.B[i] = DenseRow(row), EQ, v
	}
	sol, err := SolveWithOptions(p, Options{MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusIterLimit {
		t.Fatalf("status %v, want iteration-limit", sol.Status)
	}
	if sol.X != nil {
		t.Fatalf("mid-phase-1 iteration limit leaked a partial point: %v", sol.X)
	}
	if sol.Obj != 0 {
		t.Fatalf("mid-phase-1 iteration limit leaked an objective: %v", sol.Obj)
	}
}

func TestIterLimitMidPhase2KeepsFeasiblePoint(t *testing.T) {
	// When the limit fires in phase 2 the iterate is feasible and may be
	// reported: X is a valid point and Obj an upper bound on the optimum.
	rng := rand.New(rand.NewSource(23))
	n, m := 30, 20
	p := &Problem{
		C: make([]float64, n), SA: make([]SparseRow, m),
		Rel: make([]Rel, m), B: make([]float64, m),
		Upper: make([]float64, n), Lower: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64()
		p.Upper[j] = 5
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		s := 0.0
		for j := range row {
			row[j] = rng.Float64()
			s += row[j]
		}
		// All-LE rows with slack at rest: the slack start is feasible, so
		// phase 1 is skipped and the limit must fire inside phase 2.
		p.SA[i], p.Rel[i], p.B[i] = DenseRow(row), LE, s
	}
	sol, err := SolveWithOptions(p, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusIterLimit {
		t.Fatalf("status %v, want iteration-limit", sol.Status)
	}
	if sol.X == nil {
		t.Fatal("phase-2 iteration limit should report the feasible iterate")
	}
	if !feasible(p, sol.X, 1e-6) {
		t.Fatalf("phase-2 iterate infeasible: %v", sol.X)
	}
	opt := mustOptimal(t, p)
	if sol.Obj < opt.Obj-objTol(opt.Obj) {
		t.Fatalf("limited obj %v below the optimum %v: not an upper bound", sol.Obj, opt.Obj)
	}
}

func TestWarmRepairIterLimitNoPartialPoint(t *testing.T) {
	// The same contract on the warm path: if MaxIter is exhausted during
	// basis repair, no partially-repaired point may leak out.
	p := &Problem{
		C:     []float64{-1, -1, -2},
		SA:    sparseRows([][]float64{{1, 2, 1}, {3, 1, 2}, {1, 1, 1}}),
		Rel:   []Rel{LE, LE, GE},
		B:     []float64{6, 8, 2},
		Lower: []float64{0, 0, 0},
		Upper: []float64{10, 10, 10},
	}
	parent := mustOptimal(t, p)
	child := p.Clone()
	child.Upper[0], child.Upper[1], child.Upper[2] = 0.5, 0.5, 0.5
	warm, err := SolveFrom(child, parent.Basis, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status == StatusIterLimit && warm.X != nil {
		t.Fatalf("repair-phase iteration limit leaked a partial point: %v", warm.X)
	}
}

// TestWarmColdAgreementFuzz is the seeded property test of the warm-start
// contract: across random LPs and random branching-style bound changes,
// SolveFrom with the parent basis and a cold solve must agree on status and,
// at optimality, on the objective to num.LPTol.
func TestWarmColdAgreementFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	trials, hits, misses, duals, fallbacks := 0, 0, 0, 0, 0
	for trial := 0; trial < 120; trial++ {
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
			continue // x0 guarantees feasibility; skip pathological numerics
		}
		// Random branching-style change: round a variable's bound through
		// the parent optimum, sometimes several at once.
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
		coldSol, err := Solve(child)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := SolveFrom(child, parent.Basis, Options{})
		if err != nil {
			t.Fatal(err)
		}
		trials++
		switch warm.WarmStart {
		case WarmHit:
			hits++
		case WarmMiss:
			misses++
		case WarmDual:
			duals++
		case WarmFallback:
			fallbacks++
		default:
			t.Fatalf("trial %d: SolveFrom returned WarmStart %v", trial, warm.WarmStart)
		}
		if warm.Status != coldSol.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, coldSol.Status)
		}
		if warm.Status != StatusOptimal {
			continue
		}
		if math.Abs(warm.Obj-coldSol.Obj) > objTol(coldSol.Obj) {
			t.Fatalf("trial %d: warm obj %.12f, cold %.12f", trial, warm.Obj, coldSol.Obj)
		}
		if !feasible(child, warm.X, 1e-6) {
			t.Fatalf("trial %d: warm solution infeasible", trial)
		}
	}
	if trials < 60 {
		t.Fatalf("only %d usable trials", trials)
	}
	if hits+misses+duals == 0 {
		t.Fatalf("warm start never engaged (hits=%d misses=%d duals=%d fallbacks=%d)", hits, misses, duals, fallbacks)
	}
	if duals == 0 {
		t.Fatalf("dual path never engaged (hits=%d misses=%d fallbacks=%d)", hits, misses, fallbacks)
	}
	t.Logf("trials=%d hits=%d misses=%d duals=%d fallbacks=%d", trials, hits, misses, duals, fallbacks)
}

func TestWarmStartStrings(t *testing.T) {
	cases := map[string]string{
		WarmNone.String():     "none",
		WarmHit.String():      "hit",
		WarmMiss.String():     "miss",
		WarmFallback.String(): "fallback",
		WarmDual.String():     "dual",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if WarmStart(9).String() == "" {
		t.Error("unknown values should still print")
	}
}
